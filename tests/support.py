"""Shared fixture families and memoized cycle lookups.

Parsing and cycle-finding are deterministic, so results are cached per
process; each test still exercises the real pipeline, just once per input.
"""

from fractions import Fraction
from functools import lru_cache
from math import inf

from hypothesis import strategies as st

from rescaling import (GaussianRational, MapL, PuiseuxSeries, find_cycle,
                       monomial_seed_scan, parse_family, parse_frame,
                       reduce_family)
from rescaling.maps import resultant_vanishes

QUAD0 = "t - (1+t^2)/z + t/z^2"
QUAD1 = "t - (1+t^2)/z + t/z^2 - t^5"
LATTES = "(z^2-t)^2/(4*z*(z-1)*(z-t))"
MCMULLEN = "z^3 + t/z^2"
CUBIC = ("-(t^3+2*t^2+t+1)/(t*(t+1)^2)*z^3"
         " + (t + (t^3+2*t^2+t+1)/(t*(t+1)^2))*z^2 + 1")

FAMILIES = {
    "quad0": (QUAD0, None),
    "quad1": (QUAD1, None),
    "lattes": (LATTES, None),
    "mcm": (MCMULLEN, None),
    "cubic": (CUBIC, None),
    "cubic_shift": (CUBIC, "-1+t"),
    "cubic_inv": (CUBIC, "1/t"),
    # Milnor's normal form, below, at mu2 = i and mu2 = -1
    "mil4": ("z*(z + 1/t)/(i*z + 1)", None),
    "mil2": ("z*(z + 1/t)/(-z + 1)", None),
}

# Milnor's normal form z(z + mu1)/(mu2 z + 1): a quadratic map whose fixed
# points 0 and infinity have multipliers mu1 and mu2.  With mu1 = 1/t the
# family degenerates; mu2 near -1 or +-i, roots of unity of order 2 and 4,
# gives a cycle of period 2 or 4 through the frame (-1/2, 0).
NORMAL_FORM_SEED = "-1/2"
normal_forms = st.builds(
    lambda u, a, b: parse_family(
        f"z*(z + 1/t)/(({u} + ({a} + {b}*i)*t)*z + 1)"),
    st.sampled_from(["-1", "i", "-i"]), st.integers(-2, 2),
    st.integers(-2, 2))

# Random exact families of degree 1 or 2.  Each coefficient is a sum of at
# most two terms c*t^e, c a small Gaussian integer and e in {0, 1/2, 1, 2};
# a family of degree 0 or with a vanishing resultant is rejected, as
# parse_family rejects a degenerate one.
_t_polys = st.lists(
    st.tuples(st.sampled_from([0, Fraction(1, 2), 1, 2]),
              st.builds(GaussianRational, st.integers(-2, 2),
                        st.integers(-1, 1))),
    max_size=2).map(lambda terms: PuiseuxSeries.build(terms, inf))
random_families = st.builds(
    MapL, st.lists(_t_polys, min_size=1, max_size=3),
    st.lists(_t_polys, min_size=1, max_size=3)).filter(
    lambda fam: fam.degree >= 1 and not resultant_vanishes(fam))


@lru_cache(maxsize=None)
def family(key):
    text, subst = FAMILIES[key]
    return parse_family(text, subst)


@lru_cache(maxsize=None)
def cycle(key, seed):
    return find_cycle(family(key), parse_frame(seed))


@lru_cache(maxsize=None)
def reduced(text):
    """The reduced map of a t-free expression, for expected-value literals."""
    return reduce_family(parse_family(text))


@lru_cache(maxsize=None)
def scan(key, max_denominator):
    return monomial_seed_scan(family(key), max_denominator)
