"""Exception types shared across the package.

Every error carries a short machine-readable ``category`` string so the
command line front end can report failures uniformly and map them to exit
codes.
"""


class MarkerScreenError(Exception):
    category = "error"


class DegenerateData(MarkerScreenError):
    """Raised when a sample carries no usable variation (e.g. all values
    identical). Matrix-level scorers catch this per protein and mark the
    protein unscorable instead of failing the whole matrix."""

    category = "degenerate-data"


class RegimeViolation(MarkerScreenError):
    """The requested statistic is outside its validity regime (the
    likelihood-ratio scorer below matrix.regime's LR_MIN_N per condition)."""

    category = "regime-violation"


class NoGapFound(MarkerScreenError):
    """The sorted-statistic curve has no unambiguous cliff. Callers are
    expected to fall back to FDR-threshold selection."""

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
