"""Tunable defaults.

Values here are calibration decisions, not mathematical content.  No
library function reads the environment: every truncation or window
argument defaults to ``DEFAULT_TRUNC``.  Only the command line front end
calls :func:`default_truncation`, which lets ``RESCALING_TRUNC`` stand in
for a missing ``--trunc``.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Optional

ENV_TRUNC = "RESCALING_TRUNC"

#: Series built from exact data are cut below this exponent by default.
DEFAULT_TRUNC = 16

#: Hard cap on deg(f)**n for iterate().
ITERATE_DEGREE_CAP = 64

#: Slack added to the resultant valuation in the advance termination guard.
ADVANCE_SLACK = 4

#: Denominator cap for frame exponents along an orbit.
RAMIFICATION_CAP = 512

#: Cap, in bits, on the height of frame centers along an orbit: the largest
#: bit length of x, y or d over the center's coefficients (x + y*i)/d.
#: Well below the 14284 bits of Python's 4300-digit int-to-str limit, so
#: the last frame under the cap can always be printed.
CENTER_HEIGHT_CAP = 4096

#: Critical-orbit iteration budget and numeric cluster tolerance.
PCF_MAX_ITER = 64
PCF_CLUSTER_TOL = 1e-9
#: Exact orbits are cut off once coordinates exceed this many bits.
PCF_HEIGHT_BITS = 256

#: Numeric verification defaults.  The t grid is reparametrized per cycle by
#: the lcm D of exponent denominators (t = s**D), so these are s values.
VERIFY_S_GRID = (1e-2, 1e-3, 1e-4)
VERIFY_GRID_POINTS = 200
VERIFY_HOLE_MARGIN = 0.1
VERIFY_TOL = 1e-3
VERIFY_TAIL_BOUND = 1e-15
VERIFY_MAX_DROP = 0.10

#: How many times parse-level retries double the truncation.
PARSE_RETRY_MAX = 4


def default_truncation(value: Optional[int] = None) -> Fraction:
    """Default truncation exponent: ``value`` when given (the CLI's --trunc),
    else RESCALING_TRUNC, else DEFAULT_TRUNC.  Either knob must be a
    positive integer; a bad one raises ``ValueError``."""
    knob = "--trunc"
    if value is None:
        raw = os.environ.get(ENV_TRUNC)
        if raw is None:
            return Fraction(DEFAULT_TRUNC)
        knob = ENV_TRUNC
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"{ENV_TRUNC} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{knob} must be positive, got {value}")
    return Fraction(value)
