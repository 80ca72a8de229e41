"""Error taxonomy shared across the package.

Every failure mode that callers are expected to catch gets its own class so
the CLI can map families of errors onto exit codes without string matching.
"""

from __future__ import annotations


class RescalingError(Exception):
    """Base class for all package errors.

    ``details`` is an optional mapping of diagnostics; the CLI copies it,
    stringified, into the error payload.
    """

    def __init__(self, message: str = "", details: object = None):
        super().__init__(message)
        self.details = details


class PrecisionExhausted(RescalingError):
    """A computation needed series terms beyond the stored truncation.

    Callers that own the family construction may retry with a doubled
    truncation; ``cli.main`` does so up to ``config.PARSE_RETRY_MAX`` times.
    """


class MixedCoefficients(RescalingError):
    """Exact and approximate coefficient realizations met in one operation."""


class DegenerateFamily(RescalingError):
    """Numerator and denominator share a factor over the series field
    (the resultant vanishes identically), so the input does not define a
    degree-d family."""


class AdvanceNotTerminating(RescalingError):
    """A frame orbit does not close: the advance loop exceeded its
    resultant-valuation budget, the orbit ran past its step cap, or an
    escape certificate proved that no frame class can repeat (``details``
    then carries the certificate)."""


class RamificationCapExceeded(RescalingError):
    """A frame exponent's denominator grew beyond the configured cap."""


class DegreeCapExceeded(RescalingError):
    """iterate() was asked for a composition past the configured d**n cap."""


class GridDegenerate(RescalingError):
    """Too few usable grid points remained after hole avoidance/overflow."""


class RefuseToSample(RescalingError):
    """Requested numeric sample point |t| too large for the truncation tail
    bound to be negligible."""


class ToleranceAmbiguous(RescalingError):
    """An approximate-mode zero test landed inside the ambiguity band."""


class AssertionFailed(RescalingError):
    """A falsifiable structural check (dichotomy, period-set law, degree
    accounting) failed; carries a diagnostic payload in ``details``."""


class ParseError(RescalingError):
    """A family, substitution, or frame expression is malformed."""
