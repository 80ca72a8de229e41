"""Error taxonomy shared across the package.

Every failure mode that callers are expected to catch gets its own class,
and each class carries the CLI exit code it ends in: 2 when the input or a
checked claim is wrong, 3 (the default) when the computation gave out.
"""

from __future__ import annotations


class RescalingError(Exception):
    """Base class for all package errors.

    ``details`` is an optional mapping of diagnostics; the CLI copies it,
    stringified, into the error payload.
    """

    exit_code = 3

    def __init__(self, message: str = "", details: object = None):
        super().__init__(message)
        self.details = details


class PrecisionExhausted(RescalingError):
    """A computation needed series terms beyond the stored truncation.

    Families and frames are exact, so only a truncated series built by a
    caller, or an iterate window that stays too narrow up to
    ``config.ITERATE_WINDOW_CAP``, ends here.
    """


class DegenerateFamily(RescalingError):
    """Numerator and denominator share a factor over the series field
    (the resultant vanishes identically), so the input does not define a
    degree-d family."""


class AdvanceNotTerminating(RescalingError):
    """A frame orbit does not close: the orbit ran past its step cap, a
    frame center grew past the height cap, or an escape certificate proved
    that no frame class can repeat (``details`` then carries the guard's
    or the certificate's figures)."""


class DegreeCapExceeded(RescalingError):
    """``compose_families`` was asked for a composition whose z-degree
    passes ``config.ITERATE_DEGREE_CAP`` (a parsed family past that cap is
    a :class:`ParseError`)."""


class GridDegenerate(RescalingError):
    """Too few usable grid points remained after hole avoidance/overflow."""


class AssertionFailed(RescalingError):
    """A falsifiable structural check (dichotomy, period-set law, degree
    accounting) failed; carries a diagnostic payload in ``details``."""

    exit_code = 2


class ParseError(RescalingError):
    """A family, substitution, or frame expression is malformed."""

    exit_code = 2
