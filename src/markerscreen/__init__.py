"""Marker screening for two-condition expression matrices.

The package scores each protein for a between-condition difference
(variance-decomposition likelihood ratio for n >= LR_MIN_N per condition,
kernel-smoothed distribution distance for smaller designs), turns scores
into a selected set under a pluggable cutoff policy, and ships a seeded
simulator plus evaluation harness for sensitivity/FDR benchmarking.
"""

__version__ = "0.1.0"

from importlib import import_module

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

# ks and evaluate import scipy, which takes longer than the rest of the package,
# so they and their names load on first use; cli.py imports them eagerly
_LAZY = {name: module for module, names in [
    ("ks", "ks KernelEstimate select_bandwidth kernel_cdf"),
    ("evaluate", "evaluate TruthScore EvalRun EvalReport score_against_truth "
                 "convergence_table convergence_text benchmark"),
] for name in names.split()}


def __getattr__(name):  # PEP 562: called only for a name the module lacks
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)  # also binds the submodule's name
    if name != _LAZY[name]:
        globals()[name] = getattr(module, name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))


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
    *(name for name, module in _LAZY.items() if name != module),
]
