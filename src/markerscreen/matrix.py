"""Two-condition expression matrix container, and the design rule that
picks its statistic."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Below this many samples per condition the deviance's chi-square(2) p-value
# is badly anticonservative, and the kernel-CDF statistic takes over.
LR_MIN_N = 5

# Ingest, scoring and artifact writing work through the rows in blocks whose
# temporaries hold about this many elements (2 MiB of float64), so their
# memory does not grow with p: lr and Welch scoring hold their outputs plus
# about one block, gathered once and sorted in place (lr._by_row_blocks).
BLOCK_ELEMENTS = 2**18


def rows_per_block(width: int) -> int:
    """Rows in one block of rows that hold `width` elements each."""
    return max(1, BLOCK_ELEMENTS // width)


class Regime(NamedTuple):
    stat: str  # "lr" or "ks"
    reason: str  # e.g. "min(n1,n2)=3 < 5 -> ks"
    default_q: float  # BH level of bare `bh` and of the gap rule's fallback


def regime(n1: int, n2: int) -> Regime:
    """The statistic a design with n1 and n2 samples per condition calls for."""
    n = min(n1, n2)
    stat, op, q = ("lr", ">=", 0.05) if n >= LR_MIN_N else ("ks", "<", 0.1)
    return Regime(stat, f"min(n1,n2)={n} {op} {LR_MIN_N} -> {stat}", q)


class _UniqueIds(tuple):
    """Protein ids already checked to be unique non-empty strs, none starting
    with `#`, one per row: the form every ExpressionMatrix holds, and the one
    a ScoreTable keeps as it is. ingest_matrix checks its ids while it reads,
    so the matrix keeps them without a second pass."""


def _refuse_comment_ids(ids) -> None:
    """Raise ValueError naming the first id that starts with `#`: read back, it is a comment."""
    for pid in ids:
        if pid.startswith("#"):
            raise ValueError(f"protein id {pid!r} starts with '#' and would read back as a comment")


@lru_cache(maxsize=1)
def _default_ids(p: int) -> _UniqueIds:
    """P0001.. for p proteins, zero-padded to at least four digits. Only the
    last p's ids are kept, so a new p frees the old one's."""
    width = max(4, len(str(p)))
    return _UniqueIds(f"P{i + 1:0{width}d}" for i in range(p))


@dataclass(frozen=True)
class ExpressionMatrix:
    """Proteins-by-samples intensity table with a two-condition layout.

    values: (p, N) float array, one row per protein.
    layout: length-N int array of condition labels, each 1 or 2.
    protein_ids: optional names, held as a tuple of unique non-empty strs,
        none starting with `#`; P0001.. when omitted, formatted once per p
        and shared by every matrix of that p.
    """

    values: np.ndarray
    layout: np.ndarray
    protein_ids: tuple[str, ...] = field(default=())

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        layout = np.asarray(self.layout, dtype=int)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 2:
            raise ValueError("values must be a (p >= 1, N >= 2) matrix")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix contains non-finite intensities")
        if layout.shape != (values.shape[1],):
            raise ValueError("layout length must equal the sample count")
        if not np.all((layout == 1) | (layout == 2)):
            raise ValueError("layout labels must be 1 or 2")
        if not (np.any(layout == 1) and np.any(layout == 2)):
            raise ValueError("both conditions need at least one sample")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "layout", layout)
        if isinstance(self.protein_ids, _UniqueIds):
            ids = self.protein_ids
        elif self.protein_ids is not None and len(self.protein_ids):
            ids = _UniqueIds(str(i) for i in self.protein_ids)
            if len(ids) != values.shape[0]:
                raise ValueError("protein_ids length must equal protein count")
            if len(set(ids)) != len(ids):
                raise ValueError("protein_ids must be unique")
            if "" in ids:
                raise ValueError("protein_ids must not be empty strings")
            _refuse_comment_ids(ids)
        else:
            ids = _default_ids(values.shape[0])
        object.__setattr__(self, "protein_ids", ids)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n1(self) -> int:
        return int(np.count_nonzero(self.layout == 1))

    @property
    def n2(self) -> int:
        return int(np.count_nonzero(self.layout == 2))

    @property
    def N(self) -> int:
        return self.values.shape[1]

    @property
    def condition_order(self) -> np.ndarray:
        """Sample indices that put condition 1 first, each condition in matrix order."""
        return np.argsort(self.layout, kind="stable")

    def row_condition_first(self, j: int) -> np.ndarray:
        """Row j reordered so condition-1 samples come first."""
        return self.values[j, self.condition_order]
