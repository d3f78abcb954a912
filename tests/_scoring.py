"""The one helper through which tests score a single row or look up a ks
p-value; whole matrices are scored through evaluate.score_matrix."""

import numpy as np

import markerscreen as ms
from markerscreen.evaluate import score_matrix
from markerscreen.ks import _d_rows, _mc_pvalue, _null_table
from markerscreen.lr import _deviance_core

KS_REPLICATES = 1000  # d does not depend on the null table; the smallest is cheapest


def one_row(x, n1: int) -> ms.ExpressionMatrix:
    """x as a one-row matrix whose first n1 samples are condition 1."""
    x = np.asarray(x, dtype=float)
    return ms.ExpressionMatrix(values=x[None, :], layout=np.repeat([1, 2], [n1, len(x) - n1]))


def lr_row(x, n1: int, n2: int) -> ms.ProteinScore:
    """The deviance score of a row laid out condition-1-first, with its fits:
    the one-row matrix through score_matrix_lr where the design is in lr's
    regime, lr._deviance_core below it (as at n = 2 per condition)."""
    m = one_row(x, n1)
    assert m.n2 == n2
    if ms.matrix.regime(n1, n2).stat == "lr":
        return ms.score_matrix_lr(m, diagnostics=True)[0]
    columns = _deviance_core(n1, True)(m.values.T.copy())
    return ms.ScoreTable(m.protein_ids, "deviance_lr", *columns)[0]


def ks_d(x) -> float:
    """The ks statistic d of one pooled sample: the one-row matrix through score_matrix."""
    return float(score_matrix(one_row(x, len(x) // 2), "ks", KS_REPLICATES).value[0])


def ks_dh(x) -> tuple[float, float, bool]:
    """(d, h, degenerate) of one pooled sample from ks._d_rows, the kernel every ks
    score runs: d, its Gaussian-reference bandwidth h, and whether the sample is flat."""
    d, h, degenerate = _d_rows(np.array(x, dtype=float).reshape(-1, 1))  # sorted in place
    return float(d[0]), float(h[0]), bool(degenerate[0])


def ks_p(d: float, N: int, replicates: int) -> float:
    """The Monte-Carlo p-value of d against the null table of (N, replicates)."""
    return float(_mc_pvalue(_null_table(N, replicates), np.array([d]))[0])
