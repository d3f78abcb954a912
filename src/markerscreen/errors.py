"""Exception types shared across the package.

Every error carries a short machine-readable ``category`` string so the
command line front end can report failures uniformly and map them to exit
codes.
"""


class MarkerScreenError(Exception):
    category = "error"


class DegenerateData(MarkerScreenError):
    """A single row carries no usable variation (e.g. all values identical).
    Raised by fit_pooled_normal (so also fit_mixture_fixed_weights),
    select_bandwidth and ks_d_statistic. Matrix-level scorers never raise it:
    they flag such rows degenerate in their ScoreTable."""

    category = "degenerate-data"


class RegimeViolation(MarkerScreenError):
    """The requested statistic is outside its validity regime (the
    likelihood-ratio scorer below matrix.regime's LR_MIN_N per condition)."""

    category = "regime-violation"


class NoGapFound(MarkerScreenError):
    """The sorted-statistic curve has no unambiguous cliff. apply_policy
    falls back to BH at the gap policy's q, or raises this when q is None."""

    category = "no-gap-found"


class TruthMismatch(MarkerScreenError):
    """Ground-truth labels do not cover the proteins being evaluated."""

    category = "truth-mismatch"


class InvalidSpec(MarkerScreenError):
    """A simulation spec failed validation."""

    category = "invalid-spec"


class ParseError(MarkerScreenError):
    """Malformed input file (bad CSV structure, duplicate ids, ...)."""

    category = "parse-error"


class LayoutError(MarkerScreenError):
    """Sample-to-condition mapping is missing, incomplete or inconsistent."""

    category = "layout-error"
