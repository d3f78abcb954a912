"""The one helper through which tests run a single selection rule."""

import markerscreen as ms


def select(scores, kind, c=None, q=None):
    """apply_policy under SelectionPolicy(kind, c, q): fixed_cutoff at c,
    bh_fdr at q, or gap_knee, which without q is strict (no BH fallback)."""
    return ms.apply_policy(scores, ms.SelectionPolicy(kind=kind, c=c, q=q))
