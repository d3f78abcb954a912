"""Seeded synthetic discovery-study matrices with known ground truth.

One protein row is  X = mu + C_i + F_j + eps  where C_i is the condition
effect (identical in both conditions for plain proteins, differing by the
log2 fold change for true markers), F_j is a per-protein N(0, sigma2_F)
effect, and eps follows the configured error law. No subject effect is
simulated: within-row spread is the error law's own scale, because a
subject term of the generating design's magnitude (variance 27.37) would
drown every configured effect size.

All draws derive from SimSpec.seed through independent substreams
(protein-effect, condition-effect, error), so changing the error law never
perturbs the effect draws and the same seed always reproduces the matrix
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._rng import substream
from .errors import InvalidSpec
from .matrix import ExpressionMatrix

LOG2_3 = math.log2(3.0)


@dataclass(frozen=True)
class ErrorLaw:
    """Residual distribution: normal(sigma2), cauchy(location, scale) or
    chisq(df). The cauchy and chisq laws replace (not perturb) the normal
    residual and are used exactly as parameterized, uncentered; every
    downstream statistic is location invariant so the shifted intercept is
    harmless."""

    kind: str
    sigma2: float | None = None
    location: float | None = None
    scale: float | None = None
    df: float | None = None

    def __post_init__(self):
        if self.kind == "normal":
            if self.sigma2 is None or self.sigma2 <= 0:
                raise InvalidSpec("normal error law needs sigma2 > 0")
        elif self.kind == "cauchy":
            if self.location is None or self.scale is None or self.scale <= 0:
                raise InvalidSpec("cauchy error law needs location and scale > 0")
        elif self.kind == "chisq":
            if self.df is None or self.df <= 0:
                raise InvalidSpec("chisq error law needs df > 0")
        else:
            raise InvalidSpec(f"unknown error law: {self.kind}")

    @classmethod
    def normal(cls, sigma2: float) -> "ErrorLaw":
        return cls(kind="normal", sigma2=sigma2)

    @classmethod
    def cauchy(cls, location: float, scale: float) -> "ErrorLaw":
        return cls(kind="cauchy", location=location, scale=scale)

    @classmethod
    def chisq(cls, df: float) -> "ErrorLaw":
        return cls(kind="chisq", df=df)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "normal":
            return rng.normal(0.0, math.sqrt(self.sigma2), size)
        if self.kind == "cauchy":
            return self.location + self.scale * rng.standard_cauchy(size)
        return rng.chisquare(self.df, size)


@dataclass(frozen=True)
class SimSpec:
    """Simulation configuration. fold_change is on the log2 scale, so true
    markers satisfy C1 - C2 = fold_change exactly."""

    p: int
    n_true: int
    n_per_condition: int
    mu: float
    sigma2_F: float
    error_law: ErrorLaw
    fold_change: float
    seed: int

    def __post_init__(self):
        if self.p < 1:
            raise InvalidSpec("p must be >= 1")
        if not 0 <= self.n_true <= self.p:
            raise InvalidSpec("n_true must lie in [0, p]")
        if self.n_per_condition < 1:
            raise InvalidSpec("n_per_condition must be >= 1")
        if self.sigma2_F <= 0:
            raise InvalidSpec("sigma2_F must be > 0")
        if self.fold_change <= 0:
            raise InvalidSpec("fold_change must be > 0")


@dataclass(frozen=True)
class LabeledMatrix:
    matrix: ExpressionMatrix
    truth: np.ndarray  # bool per protein, True for planted markers

    def truth_map(self) -> dict:
        return dict(zip(self.matrix.protein_ids, self.truth.astype(bool).tolist()))


def generate(spec: SimSpec) -> LabeledMatrix:
    """Generate a labeled matrix; bit-identical for identical specs.

    Plain proteins share one condition effect U ~ Uniform[1, 100]. True
    markers draw U ~ Uniform[1, 10] and get C1 = 1 + fold_change + U,
    C2 = 1 + U (log2-scale shift by exactly fold_change). True markers
    occupy the leading rows; layout is condition 1 then condition 2.
    """
    if not isinstance(spec, SimSpec):
        raise InvalidSpec("generate expects a SimSpec")
    p, n = spec.p, spec.n_per_condition
    truth = np.zeros(p, dtype=bool)
    truth[: spec.n_true] = True

    f_stream = substream(spec.seed, "protein-effect")
    u_stream = substream(spec.seed, "condition-effect")
    e_stream = substream(spec.seed, "error")

    f = f_stream.normal(0.0, math.sqrt(spec.sigma2_F), p)
    u_plain = u_stream.uniform(1.0, 100.0, p)
    u_true = u_stream.uniform(1.0, 10.0, p)
    c1 = np.where(truth, 1.0 + spec.fold_change + u_true, u_plain)
    c2 = np.where(truth, 1.0 + u_true, u_plain)

    eps = spec.error_law.draw(e_stream, (p, 2 * n))
    base = spec.mu + f
    values = np.repeat(np.column_stack([base + c1, base + c2]), n, axis=1) + eps
    # ids are ExpressionMatrix's default P0001.. names
    matrix = ExpressionMatrix(values=values, layout=np.array([1] * n + [2] * n))
    return LabeledMatrix(matrix=matrix, truth=truth)


def presets() -> dict[str, SimSpec]:
    """The eight named benchmark scenarios: {water, human, cauchy, chisq} x
    {n=10, n=3}, each 1000 proteins with 30 true markers at a 3-fold
    (log2(3)) effect. Callers replace the seed per run."""
    laws = {
        "water": ErrorLaw.normal(0.48),
        "human": ErrorLaw.normal(2.23),
        "cauchy": ErrorLaw.cauchy(15.0, 2.0),
        "chisq": ErrorLaw.chisq(2.0),
    }
    out: dict[str, SimSpec] = {}
    for name, law in laws.items():
        for n in (10, 3):
            out[f"{name}-n{n}"] = SimSpec(
                p=1000,
                n_true=30,
                n_per_condition=n,
                mu=15.0,
                sigma2_F=0.98,
                error_law=law,
                fold_change=LOG2_3,
                seed=0,
            )
    return out


def preset(name: str, seed: int = 0) -> SimSpec:
    """Look up a preset by name with the given seed."""
    table = presets()
    if name not in table:
        raise InvalidSpec(
            f"unknown preset {name!r}; available: {', '.join(sorted(table))}"
        )
    return replace(table[name], seed=seed)
