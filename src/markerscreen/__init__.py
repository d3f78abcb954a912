"""Marker screening for two-condition expression matrices.

The package scores each protein for a between-condition difference
(variance-decomposition likelihood ratio for n >= LR_MIN_N per condition,
kernel-smoothed distribution distance for smaller designs), turns scores
into a selected set under a pluggable cutoff policy, and ships a seeded
simulator plus evaluation harness for sensitivity/FDR benchmarking.
"""

__version__ = "0.1.0"

from . import errors
from .evaluate import (
    EvalReport,
    EvalRun,
    TruthScore,
    benchmark,
    convergence_table,
    convergence_text,
    score_against_truth,
    ttest_baseline,
)
from .ks import (
    KernelEstimate,
    KsScore,
    kernel_cdf,
    ks_d_statistic,
    lilliefors_pvalue,
    score_matrix_ks,
    select_bandwidth,
)
from .lr import (
    MixtureFit,
    PooledFit,
    ProteinScore,
    ScoreTable,
    deviance_lr,
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
    select_bh,
    select_fixed,
    select_gap,
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
    "deviance_lr",
    "score_matrix_lr",
    "KernelEstimate",
    "KsScore",
    "select_bandwidth",
    "kernel_cdf",
    "ks_d_statistic",
    "lilliefors_pvalue",
    "score_matrix_ks",
    "SelectionPolicy",
    "SelectionResult",
    "select_fixed",
    "select_gap",
    "select_bh",
    "apply_policy",
    "parse_policy",
    "ErrorLaw",
    "SimSpec",
    "LabeledMatrix",
    "generate",
    "preset",
    "presets",
    "TruthScore",
    "EvalRun",
    "EvalReport",
    "score_against_truth",
    "ttest_baseline",
    "convergence_table",
    "convergence_text",
    "benchmark",
    "ingest_matrix",
    "write_matrix",
    "write_scores",
    "write_truth",
]
