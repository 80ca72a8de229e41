"""Classification of limit maps.

Three predicates drive the reports: whether a map has a multiple fixed
point, whether it is conjugate to a polynomial (some point is totally
invariant), and whether it is postcritically finite.  Every answer comes
from exact arithmetic over Q(i).  Where a critical point lies outside Q(i)
and no exact orbit settles the question, the postcritical verdict is
``Unknown``; no orbit is followed in floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from . import cpoly
from .config import PCF_HEIGHT_BITS, PCF_MAX_ITER
from .errors import AssertionFailed
from .coefficients import GaussianRational
from .maps import ReducedMap

PCF_CERTIFIED = "PCF_Certified"
NOT_PCF_ESCAPE = "NotPCF_CertifiedEscape"
NOT_PCF_WITHIN = "NotPCF_WithinBound"
PCF_UNKNOWN = "Unknown"

INFINITY = "inf"

Point = Union[GaussianRational, str]


def multiple_fixed_point(g: ReducedMap) -> bool:
    """True when some fixed point of g has multiplicity at least 2.

    The d+1 fixed points of a degree-d map are the roots of R(z) - z*S(z)
    plus infinity with multiplicity d+1 minus that degree; an affine multiple
    root is a common root with the derivative.
    """
    d = g.degree
    fixed = cpoly.psub(list(g.num), [GaussianRational.zero()] + list(g.den))
    fixed = cpoly.trim(fixed)
    if not fixed:
        return True  # the identity: every fixed point degenerate
    if cpoly.degree(fixed) <= d - 1:
        return True
    return cpoly.degree(cpoly.pgcd(fixed, cpoly.pderiv(fixed))) > 0


def polynomial_like(g: ReducedMap) -> Tuple[bool, Optional[Point]]:
    """Whether g is affinely conjugate to a polynomial, with the witness.

    A witness is a totally invariant point: infinity when the denominator is
    constant, else a fixed point z0 with R - z0*S = lc*(z - z0)^d.  For exact
    maps the candidate search over Gaussian rational fixed points is
    complete, because a totally ramified point of such a map satisfies a
    linear relation over the coefficient field, and ``cpoly.roots_exact``
    returns every fixed point in Q(i).  Of two finite totally invariant
    points, the witness is the first in ``roots_exact``'s order.
    """
    d = g.degree
    if d < 1:
        return False, None
    if cpoly.degree(g.den) <= 0:
        return True, INFINITY
    fixed = cpoly.trim(cpoly.psub(list(g.num),
                                  [GaussianRational.zero()] + list(g.den)))
    for z0, _ in cpoly.roots_exact(fixed)[0]:
        shifted = cpoly.trim(cpoly.psub(list(g.num),
                                        cpoly.pscale(list(g.den), z0)))
        if cpoly.degree(shifted) != d:
            continue
        target = cpoly.pscale(_linear_power(z0, d), shifted[-1])
        if cpoly.is_zero_poly(cpoly.psub(shifted, target)):
            return True, z0
    return False, None


def _linear_power(z0: GaussianRational, d: int) -> cpoly.Poly:
    one = GaussianRational.one()
    out = [one]
    for _ in range(d):
        out = cpoly.pmul(out, [-z0, one])
    return out


class PcfReport(NamedTuple):
    """Outcome of the postcritical finiteness test."""

    status: str
    is_monomial: bool
    orbits: Dict[str, str]
    postcritical: Optional[Tuple[str, ...]] = None


def pcf_check(g: ReducedMap, max_iter: int = PCF_MAX_ITER) -> PcfReport:
    """Postcritical finiteness of a reduced map.

    Monomials short-circuit: their critical orbits live in {0, infinity}.
    The critical points in Q(i) and infinity get exact orbits with repeat
    detection, a height cap, and (for polynomials) a certified escape
    radius.  An escape gives ``NotPCF_CertifiedEscape`` and a cap
    ``NotPCF_WithinBound``, whatever the other critical points do.
    Otherwise each factor of the Wronskian with no root in Q(i), as
    ``cpoly.roots_exact`` leaves it, adds the entry ``"roots of <factor>":
    "outside Q(i)"`` after the exact orbits, and the status is ``Unknown``:
    its roots are not followed at all.
    """
    d = g.degree
    if _is_monomial(g):
        return PcfReport(PCF_CERTIFIED, True, {"0": "finite", "inf": "finite"},
                         ("0", "inf"))
    if d <= 1:
        return PcfReport(PCF_CERTIFIED, False, {}, ())
    wron = cpoly.trim(cpoly.psub(
        cpoly.pmul(cpoly.pderiv(list(g.num)), list(g.den)),
        cpoly.pmul(list(g.num), cpoly.pderiv(list(g.den)))))
    inf_mult = (2 * d - 2) - max(cpoly.degree(wron), 0)
    gauss_crits, rest = cpoly.roots_exact(wron)
    crits = [r for r, _ in gauss_crits]
    if inf_mult > 0:
        crits.append(INFINITY)
    orbits: Dict[str, str] = {}
    postcritical: set = set()
    escape = False
    capped = False
    bound = _escape_bound(g)
    for z0 in crits:
        verdict, tail = _exact_orbit(g, z0, bound, max_iter)
        orbits[_pt_str(z0)] = verdict
        postcritical.update(tail)
        if verdict == "escape":
            escape = True
        elif verdict in ("height-cap", "iteration-cap"):
            capped = True
    if escape:
        return PcfReport(NOT_PCF_ESCAPE, False, orbits)
    if capped:
        return PcfReport(NOT_PCF_WITHIN, False, orbits)
    if rest:
        for fac, _ in rest:
            orbits[f"roots of {cpoly.poly_str(fac)}"] = "outside Q(i)"
        return PcfReport(PCF_UNKNOWN, False, orbits)
    return PcfReport(PCF_CERTIFIED, False, orbits,
                     tuple(sorted(_pt_str(p) for p in postcritical)))


def _is_monomial(g: ReducedMap) -> bool:
    nz_num = [i for i, c in enumerate(g.num) if not c.is_zero]
    nz_den = [i for i, c in enumerate(g.den) if not c.is_zero]
    return len(nz_num) <= 1 and len(nz_den) <= 1 and g.degree >= 1


def _escape_bound(g: ReducedMap) -> Optional[Fraction]:
    """Certified escape radius for an exact polynomial map, else None.

    Rational bounds sandwich the absolute values: |a| <= |re| + |im| from
    above and |a| >= max(|re|, |im|) from below.  Beyond the radius,
    |g(z)| >= 2|z|, so one orbit point outside it certifies escape.
    """
    if cpoly.degree(g.den) > 0 or g.degree < 2:
        return None
    num = cpoly.trim(cpoly.pscale(list(g.num), g.den[0].inverse()))
    upper = sum((abs(c.re) + abs(c.im) for c in num[:-1]), Fraction(0))
    lead = num[-1]
    lower = max(abs(lead.re), abs(lead.im))
    return max(Fraction(2), 2 * upper / lower, Fraction(4) / lower)


def _exact_orbit(g: ReducedMap, z0: Point, bound: Optional[Fraction],
                 max_iter: int) -> Tuple[str, List[Point]]:
    seen = set()
    z = z0
    tail: List[Point] = []
    for _ in range(max_iter):
        if z in seen:
            return f"finite({len(seen)})", tail
        seen.add(z)
        if bound is not None and isinstance(z, GaussianRational):
            if max(abs(z.re), abs(z.im)) > bound:
                return "escape", tail
        if isinstance(z, GaussianRational) and _height_bits(z) > PCF_HEIGHT_BITS:
            return "height-cap", tail
        z = _apply_exact(g, z)
        tail.append(z)
    return "iteration-cap", tail


def _height_bits(z: GaussianRational) -> int:
    return max(z.re.numerator.bit_length(), z.re.denominator.bit_length(),
               z.im.numerator.bit_length(), z.im.denominator.bit_length())


def _apply_exact(g: ReducedMap, z: Point) -> Point:
    num, den = list(g.num), list(g.den)
    if z == INFINITY:
        dn, dd = cpoly.degree(num), cpoly.degree(den)
        if dn > dd:
            return INFINITY
        if dn < dd:
            return GaussianRational.zero()
        return num[-1] / den[-1]
    sz = cpoly.peval(den, z)
    if sz.is_zero:
        return INFINITY
    return cpoly.peval(num, z) / sz


def _pt_str(z: object) -> str:
    return z if isinstance(z, str) else str(z)


class LimitClassification(NamedTuple):
    """The three predicates evaluated on one limit map."""

    map_str: str
    degree: int
    multiple_fixed_point: bool
    polynomial_like: bool
    polynomial_witness: Optional[str]
    pcf: PcfReport


def classify_limit(g: ReducedMap) -> LimitClassification:
    poly, witness = polynomial_like(g)
    return LimitClassification(
        map_str=str(g),
        degree=g.degree,
        multiple_fixed_point=multiple_fixed_point(g),
        polynomial_like=poly,
        polynomial_witness=None if witness is None else _pt_str(witness),
        pcf=pcf_check(g),
    )


class DichotomyReport(NamedTuple):
    """How a family's rescaling cycles split.

    ``case`` is "i" or "ii" for quadratic families with a cycle of period
    at least 2, and None when only the count bound applies.
    """

    case: Optional[str]
    periods: Tuple[int, ...]
    classifications: Tuple[LimitClassification, ...]
    non_pcf_count: int


def quadratic_dichotomy_report(cycles: Sequence, d: int) -> DichotomyReport:
    """Check the structure of the degree >= 2 cycles of a degree-d family.

    For any d: at most 2d - 2 of the limits may fail postcritical
    finiteness.  For d = 2, additionally at most two independent cycles,
    and when one of period >= 2 exists, exactly one shape: (i) two cycles
    of periods q' > q > 1, the short limit with a multiple fixed point and
    the long one polynomial-like, or (ii) a single cycle class whose limit
    has a multiple fixed point.  Violations raise :class:`AssertionFailed`.
    """
    heavy = sorted((c for c in cycles if c.degree >= 2),
                   key=lambda c: c.period)
    for c in heavy:
        src = c.steps[0].limit.source_degree
        if src != d:
            raise ValueError(
                f"cycle computed from a degree-{src} family, not {d}")
    cls = tuple(classify_limit(c.limit) for c in heavy)
    non_pcf = sum(1 for c in cls
                  if c.pcf.status in (NOT_PCF_ESCAPE, NOT_PCF_WITHIN))
    periods = tuple(c.period for c in heavy)
    if non_pcf > 2 * d - 2:
        raise AssertionFailed(
            "more than 2d - 2 limits fail postcritical finiteness",
            details={"non_pcf": non_pcf, "bound": 2 * d - 2})
    if d != 2:
        return DichotomyReport(None, periods, cls, non_pcf)
    if len(heavy) > 2:
        raise AssertionFailed(
            "more than two independent non-trivial cycles",
            details={"periods": list(periods)})
    if not any(p >= 2 for p in periods):
        return DichotomyReport(None, periods, cls, non_pcf)
    if len(heavy) == 1:
        if not cls[0].multiple_fixed_point:
            raise AssertionFailed(
                "single cycle class must carry a multiple fixed point",
                details={"limit": cls[0].map_str})
        return DichotomyReport("ii", periods, cls, non_pcf)
    q, qp = periods
    if not (1 < q < qp):
        raise AssertionFailed(
            "two cycles must have distinct periods q' > q > 1",
            details={"periods": list(periods)})
    if not cls[0].multiple_fixed_point:
        raise AssertionFailed(
            "shorter cycle's limit lacks a multiple fixed point",
            details={"limit": cls[0].map_str})
    if not cls[1].polynomial_like:
        raise AssertionFailed(
            "longer cycle's limit is not polynomial-like",
            details={"limit": cls[1].map_str})
    return DichotomyReport("i", periods, cls, non_pcf)
