"""Marker screening for two-condition expression matrices.

The package scores each protein for a between-condition difference
(variance-decomposition likelihood ratio for n >= LR_MIN_N per condition,
kernel-smoothed distribution distance for smaller designs), turns scores
into a selected set under a pluggable cutoff policy, and ships a seeded
simulator plus evaluation harness for sensitivity/FDR benchmarking.

The ks and evaluate modules import scipy, which `import markerscreen` does not
load; reach their names through them (`import markerscreen.evaluate`, then
`markerscreen.evaluate.score_matrix`, `.benchmark`, ...).
"""

__version__ = "0.1.0"

from . import errors
from .lr import (
    MixtureFit,
    PooledFit,
    ProteinScore,
    ScoreTable,
    fit_mixture_fixed_weights,
    fit_pooled_normal,
    score_matrix_lr,
)
from .matrix import ExpressionMatrix
from .matrix_io import ingest_matrix, write_matrix, write_scores, write_truth
from .select import (
    SelectionPolicy,
    SelectionResult,
    apply_policy,
    parse_policy,
)
from .simulate import ErrorLaw, LabeledMatrix, SimSpec, generate, preset, presets

__all__ = [
    "__version__",
    "errors",
    "ExpressionMatrix",
    "PooledFit",
    "MixtureFit",
    "ProteinScore",
    "ScoreTable",
    "fit_pooled_normal",
    "fit_mixture_fixed_weights",
    "score_matrix_lr",
    "SelectionPolicy",
    "SelectionResult",
    "apply_policy",
    "parse_policy",
    "ErrorLaw",
    "SimSpec",
    "LabeledMatrix",
    "generate",
    "preset",
    "presets",
    "ingest_matrix",
    "write_matrix",
    "write_scores",
    "write_truth",
]
