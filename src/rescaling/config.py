"""Tunable defaults.

Values here are calibration decisions, not mathematical content.  None is
read from the environment or the command line: series precision is settled
inside the library.
"""

from __future__ import annotations

#: Hard cap on the z-degree of a composition of families, deg(f)**n for
#: the n-th iterate, and of a parsed family.
ITERATE_DEGREE_CAP = 64

#: Cap, in bits, on the height of frame centers along an orbit: the largest
#: bit length of x, y or d over the center's coefficients (x + y*i)/d.
#: Well below the 14284 bits of Python's 4300-digit int-to-str limit, so
#: the last frame under the cap can always be printed.
CENTER_HEIGHT_CAP = 4096

#: Critical-orbit iteration budget.
PCF_MAX_ITER = 64
#: Exact orbits are cut off once coordinates exceed this many bits.
PCF_HEIGHT_BITS = 256

#: Numeric verification defaults.  The t grid is reparametrized per cycle by
#: the lcm D of exponent denominators (t = s**D), so these are s values.
VERIFY_S_GRID = (1e-2, 1e-3, 1e-4)
VERIFY_GRID_POINTS = 200
VERIFY_HOLE_MARGIN = 0.1
VERIFY_TOL = 1e-3
VERIFY_MAX_DROP = 0.10

#: The widest window, above the least valuation, at which an iterate check
#: keeps its iterates before giving up.
ITERATE_WINDOW_CAP = 256
