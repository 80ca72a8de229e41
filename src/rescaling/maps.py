"""Families of rational maps with Puiseux-series coefficients.

A family is a pair of polynomials in z whose coefficients are truncated
series in t.  Everything here treats the family formally: normalization of
the joint valuation, passage to the residue map at t = 0, affine changes of
variable with series entries, iteration, and the valuation of the resultant
(the budget that bounds how far a family can be recentered before it
degenerates).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import inf, lcm
from typing import Dict, List, Sequence, Tuple

from . import cpoly
from .config import DEFAULT_TRUNC, ITERATE_DEGREE_CAP
from .errors import (AssertionFailed, DegenerateFamily, DegreeCapExceeded,
                     PrecisionExhausted)
from .coefficients import GaussianRational
from .puiseux import PuiseuxSeries

# -- polynomials in z with series coefficients (ascending, fixed length) ----


def smul(p: Sequence[PuiseuxSeries],
         q: Sequence[PuiseuxSeries]) -> List[PuiseuxSeries]:
    """Product of two series polynomials on Python ints.

    The result equals, in terms and in ``trunc``, that of the loop which
    forms one series product a_i * b_j per pair and sums the products of
    each output degree with series ``+``.

    Truncation.  The loop forms each pair product a_i b_j, known mod t^T_ij
    with T_ij = min(trunc a_i + v_low b_j, trunc b_j + v_low a_i), and sums
    the products of one output degree k; a sum is known mod the least
    truncation of its summands.  So entry k is known mod t^T_k, where T_k
    is the minimum of T_ij over i + j = k.  Every product and every partial
    sum drops only terms at or above its own truncation, which is >= T_k,
    and the last sum (or the one product, when k has a single pair) has
    truncation exactly T_k.  So a term at exponent e < T_k is never dropped
    before the end, and one at e >= T_k never survives it.  A coefficient
    dropped because it summed to zero adds nothing to later sums, and exact
    addition does not depend on order.  Hence entry k is the sum of all
    term products a_ie b_jf t^(e+f) with e + f < T_k, zeros removed, mod
    t^T_k: which is what is accumulated here, with each product outside
    that range skipped before it is formed.

    Packing.  With r the lcm of the denominators of all exponents and
    finite truncations, an exponent e is the int e r, and so is each T_k.
    With D the lcm of the coefficient denominators of one polynomial, a
    coefficient c is the Gaussian integer D c.  A pair product is then an
    int product over D_p D_q, and each output coefficient is reduced to
    lowest terms once.
    """
    if not p or not q:
        return []
    n = len(p) + len(q) - 1
    r = lcm(*(e.denominator for c in chain(p, q) for e, _ in c.terms),
            *(c.trunc.denominator for c in chain(p, q) if c.trunc != inf))
    pp, dp = _pack(p, r)
    qq, dq = _pack(q, r)
    # T_k r as an int.  Only a finite trunc against a nonzero partner gives
    # a finite T_ij, so exact polynomials skip this loop.
    limits = [inf] * n
    for x, y in ((p, q), (q, p)):
        lows = [(j, _scaled(c.val_lower(), r))
                for j, c in enumerate(y) if not c.is_zero]
        for i, c in enumerate(x):
            if c.trunc != inf:
                top = _scaled(c.trunc, r)
                for j, low in lows:
                    if top + low < limits[i + j]:
                        limits[i + j] = top + low
    acc: List[Dict[int, List[int]]] = [{} for _ in range(n)]
    for i, terms_a in enumerate(pp):
        if not terms_a:
            continue
        for j, terms_b in enumerate(qq):
            if not terms_b:
                continue
            k = i + j
            lim, bucket = limits[k], acc[k]
            first_b = terms_b[0][0]
            for ea, ar, ai in terms_a:
                if ea + first_b >= lim:
                    break
                for eb, br, bi in terms_b:
                    e = ea + eb
                    if e >= lim:
                        break
                    slot = bucket.get(e)
                    if slot is None:
                        bucket[e] = [ar * br - ai * bi, ar * bi + ai * br]
                    else:
                        slot[0] += ar * br - ai * bi
                        slot[1] += ar * bi + ai * br
    den = dp * dq
    exps: Dict[int, Fraction] = {}
    out = []
    for k in range(n):
        terms = []
        for e, (re, im) in sorted(acc[k].items()):
            if re or im:
                ex = exps.get(e)
                if ex is None:
                    ex = exps[e] = Fraction(e, r)
                terms.append((ex, GaussianRational.from_ints(re, im, den)))
        trunc = inf if limits[k] == inf else Fraction(limits[k], r)
        out.append(PuiseuxSeries(tuple(terms), trunc))
    return out


def _scaled(e: Fraction, r: int) -> int:
    """The exponent e as an int over r, a multiple of its denominator."""
    return e.numerator * (r // e.denominator)


def _pack(p: Sequence[PuiseuxSeries], r: int):
    """Each entry's terms as (e r, D re, D im) ints, and the common D."""
    den = lcm(*(g.d for c in p for _, g in c.terms))
    return [[(_scaled(e, r), g.x * (k := den // g.d), g.y * k)
             for e, g in c.terms] for c in p], den


class AffineFrame:
    """The affine change of variable z = c(t) + t^h w.

    ``h`` is the zoom exponent and ``c`` the center, a Puiseux polynomial.
    ``h`` may be any rational; h = 0 with c = 0 is the identity frame.
    """

    __slots__ = ("h", "c")

    def __init__(self, h, c: PuiseuxSeries):
        self.h = Fraction(h)
        self.c = c

    def __repr__(self):
        return f"AffineFrame(h={self.h}, c={self.c})"


class MapL:
    """A family P_t(z) / Q_t(z) of formal degree d = len - 1.

    Both coefficient vectors are stored at the same length; positions where
    both numerator and denominator are identically zero are trimmed from the
    top, so the formal degree is honest.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[PuiseuxSeries],
                 den: Sequence[PuiseuxSeries]):
        num, den = list(num), list(den)
        if not num and not den:
            raise DegenerateFamily("empty family")
        # a coefficient that is zero only as far as known is kept: the formal
        # degree must not silently drop below an undecided top term
        d = max(len(cpoly.trim(num)) - 1, len(cpoly.trim(den)) - 1, 0)
        zero = PuiseuxSeries.zero()
        self.num = tuple((num + [zero] * (d + 1))[:d + 1])
        self.den = tuple((den + [zero] * (d + 1))[:d + 1])

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def coeffs(self) -> Tuple[PuiseuxSeries, ...]:
        return self.num + self.den

    def cap_all(self, trunc) -> MapL:
        return MapL([c.cap(trunc) for c in self.num],
                    [c.cap(trunc) for c in self.den])

    def scaled_function(self, a) -> MapL:
        """The family t^a * (P/Q)."""
        return MapL([c.shift(a) for c in self.num], self.den)

    def __repr__(self):
        n = " + ".join(f"({c})z^{i}" for i, c in enumerate(self.num)
                       if c.terms or not c.is_zero)
        d = " + ".join(f"({c})z^{i}" for i, c in enumerate(self.den)
                       if c.terms or not c.is_zero)
        return f"<MapL deg {self.degree}: [{n}] / [{d}]>"


def block_min_val(coeffs: Sequence[PuiseuxSeries]):
    """Least valuation over a coefficient block, or inf for an exact-zero block.

    Undecidable when some coefficient is zero as far as known but truncated
    before every known valuation.
    """
    known = [c.valuation() for c in coeffs if c.terms]
    unknown = [c.trunc for c in coeffs if not c.terms and not c.is_zero]
    if known and (not unknown or min(known) <= min(unknown)):
        return min(known)
    if not known and not unknown:
        return inf
    raise PrecisionExhausted(
        "least coefficient valuation hidden below the truncation")


def gauss_normalize(fam: MapL) -> MapL:
    """Rescale by a power of t so the least coefficient valuation is 0.

    >>> t = PuiseuxSeries.t_power
    >>> f = MapL([t(2), t(3)], [t(2, 4)])
    >>> [str(c) for c in gauss_normalize(f).num]
    ['1', 't']
    """
    if all(c.is_zero for c in fam.num) or all(c.is_zero for c in fam.den):
        raise DegenerateFamily("numerator or denominator identically zero")
    mu = block_min_val(fam.coeffs())
    if mu == 0:
        return fam
    return MapL([c.shift(-mu) for c in fam.num],
                [c.shift(-mu) for c in fam.den])


def residues(fam: MapL) -> Tuple[cpoly.Poly, cpoly.Poly]:
    """Residue numerator and denominator of a Gauss-normalized family,
    trimmed."""
    return (cpoly.trim([c.residue() for c in fam.num]),
            cpoly.trim([c.residue() for c in fam.den]))


class ReducedMap:
    """A rational map over the residue field, in lowest terms.

    Produced by :func:`reduce_family`, where it also carries the hole divisor
    (common zeros cancelled from the residue pair, plus the multiplicity lost
    at infinity) and the formal degree it came from.  Composition results
    carry an empty hole record.

    Scaling is canonical: the denominator is monic, or the numerator is when
    the denominator vanishes identically (the constant-infinity map).
    """

    __slots__ = ("num", "den", "holes", "inf_mult", "source_degree")

    def __init__(self, num: Sequence[GaussianRational],
                 den: Sequence[GaussianRational],
                 holes: Sequence[GaussianRational] = (), inf_mult: int = 0,
                 source_degree: int = None):
        num, den = cpoly.trim(num), cpoly.trim(den)
        if den:
            lc = den[-1].inverse()
            num, den = cpoly.pscale(num, lc), cpoly.pscale(den, lc)
        elif num:
            num = cpoly.monic(num)
        else:
            raise DegenerateFamily("reduced map 0/0")
        self.num = tuple(num)
        self.den = tuple(den)
        self.holes = tuple(holes)
        self.inf_mult = int(inf_mult)
        self.source_degree = self.degree if source_degree is None \
            else int(source_degree)

    @property
    def degree(self) -> int:
        return max(cpoly.degree(self.num), cpoly.degree(self.den), 0)

    @property
    def holes_degree(self) -> int:
        return max(cpoly.degree(self.holes), 0) + self.inf_mult

    def __eq__(self, other):
        if not isinstance(other, ReducedMap):
            return NotImplemented
        return (len(self.num) == len(other.num)
                and len(self.den) == len(other.den)
                and all(a == b for a, b in zip(self.num, other.num))
                and all(a == b for a, b in zip(self.den, other.den)))

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        num = cpoly.poly_str(self.num)
        if not self.den:
            return "inf"
        if cpoly.degree(self.den) == 0 and self.den[0].is_one:
            return num
        den = cpoly.poly_str(self.den)
        np = f"({num})" if " " in num else num
        dp = f"({den})" if " " in den else den
        return f"{np}/{dp}"

    def __repr__(self):
        return f"<ReducedMap {self}>"


def reduce_family(fam: MapL) -> ReducedMap:
    """Residue map of a family, in lowest terms, with its hole divisor.

    The degree accounting deg(reduced) + deg(holes) = formal degree is
    checked and raised as :class:`AssertionFailed` when violated.
    """
    d = fam.degree
    fn = gauss_normalize(fam)
    p_res, q_res = residues(fn)
    if not q_res:
        holes = cpoly.monic(p_res)
        out = ReducedMap([GaussianRational.one()], [], holes,
                         d - cpoly.degree(p_res), d)
    else:
        h = cpoly.pgcd(p_res, q_res)
        rnum = _divide_out(p_res, h)
        rden = _divide_out(q_res, h)
        inf_mult = d - max(cpoly.degree(p_res), cpoly.degree(q_res))
        out = ReducedMap(rnum, rden, h if cpoly.degree(h) > 0 else (),
                         inf_mult, d)
    if out.degree + out.holes_degree != d:
        raise AssertionFailed(
            "degree accounting violated in reduction",
            details={"reduced_degree": out.degree,
                     "holes_degree": out.holes_degree,
                     "formal_degree": d})
    return out


def _divide_out(p: cpoly.Poly, h: cpoly.Poly) -> cpoly.Poly:
    return p if cpoly.degree(h) <= 0 else cpoly.pdiv_exact(p, h)


# -- affine changes of variable ---------------------------------------------


def precompose_affine(fam: MapL, frame: AffineFrame) -> MapL:
    """The family f(c(t) + t^h w), as a family in w."""
    slope = PuiseuxSeries.t_power(frame.h)
    lin = [frame.c, slope]  # c + t^h w
    powers: List[List[PuiseuxSeries]] = [[PuiseuxSeries.one()]]
    for _ in range(fam.degree):
        powers.append(smul(powers[-1], lin))
    num: List[PuiseuxSeries] = []
    den: List[PuiseuxSeries] = []
    for i in range(fam.degree + 1):
        num = cpoly.padd(num, smul(powers[i], [fam.num[i]]))
        den = cpoly.padd(den, smul(powers[i], [fam.den[i]]))
    return MapL(num, den)


def postcompose_affine(slope: PuiseuxSeries, intercept: PuiseuxSeries,
                       fam: MapL) -> MapL:
    """The family slope * f + intercept."""
    num = cpoly.padd(smul(fam.num, [slope]), smul(fam.den, [intercept]))
    return MapL(num, fam.den)


def conjugate(fam: MapL, frame: AffineFrame) -> MapL:
    """M^-1 o f o M for the affine frame M."""
    inner = precompose_affine(fam, frame)
    s = PuiseuxSeries.t_power(-frame.h)
    b = -frame.c * s
    return postcompose_affine(s, b, inner)


def compose_families(outer: MapL, inner: MapL,
                     window=DEFAULT_TRUNC) -> MapL:
    """outer(inner(z)), truncated to ``window`` above the least valuation."""
    d = outer.degree * inner.degree
    if d > ITERATE_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"composition degree {d} exceeds cap {ITERATE_DEGREE_CAP}")
    p_pow: List[List[PuiseuxSeries]] = [[PuiseuxSeries.one()]]
    q_pow: List[List[PuiseuxSeries]] = [[PuiseuxSeries.one()]]
    for _ in range(outer.degree):
        p_pow.append(smul(p_pow[-1], list(inner.num)))
        q_pow.append(smul(q_pow[-1], list(inner.den)))
    m = outer.degree
    num: List[PuiseuxSeries] = []
    den: List[PuiseuxSeries] = []
    for i in range(m + 1):
        basis = smul(p_pow[i], q_pow[m - i])
        num = cpoly.padd(num, smul(basis, [outer.num[i]]))
        den = cpoly.padd(den, smul(basis, [outer.den[i]]))
    out = MapL(num, den)
    mu = min(c.val_lower() for c in out.coeffs())
    return out.cap_all(mu + window)


def iterate_family(fam: MapL, n: int, window=DEFAULT_TRUNC) -> MapL:
    """The n-th iterate f^n, n >= 1, each composition kept within
    ``window``."""
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    out = fam
    for _ in range(n - 1):
        out = compose_families(fam, out, window)
    return out


def compose_reduced(outer: ReducedMap, inner: ReducedMap) -> ReducedMap:
    """Composition of reduced maps, cancelled back to lowest terms."""
    p, q = list(inner.num), list(inner.den)
    m = max(cpoly.degree(outer.num), cpoly.degree(outer.den), 0)
    p_pow, q_pow = [[GaussianRational.one()]], [[GaussianRational.one()]]
    for _ in range(m):
        p_pow.append(cpoly.pmul(p_pow[-1], p))
        q_pow.append(cpoly.pmul(q_pow[-1], q))
    num: cpoly.Poly = []
    den: cpoly.Poly = []
    for i in range(m + 1):
        basis = cpoly.pmul(p_pow[i], q_pow[m - i])
        if i < len(outer.num):
            num = cpoly.padd(num, cpoly.pscale(basis, outer.num[i]))
        if i < len(outer.den):
            den = cpoly.padd(den, cpoly.pscale(basis, outer.den[i]))
    g = cpoly.pgcd(num, den) if num and den else []
    if cpoly.degree(g) > 0:
        num, den = _divide_out(num, g), _divide_out(den, g)
    return ReducedMap(num, den)


# -- resultant --------------------------------------------------------------


def resultant_series(fam: MapL) -> PuiseuxSeries:
    """Res_z(P, Q) at the degrees of P and Q, exactly.

    Each coefficient is a Laurent polynomial in s = t^(1/r), r the lcm of
    the exponent denominators.  Scaled by s^a and s^b to polynomials, P and
    Q of degrees m and n give a Sylvester matrix over Q(i)[s] whose
    determinant, by :func:`cpoly.pdet`, is s^(a n + b m) Res(P, Q).  An
    inexact coefficient is a ``ValueError``.
    """
    p, q = cpoly.trim(fam.num), cpoly.trim(fam.den)
    if not all(c.is_exact for c in p + q):
        raise ValueError("resultant of a family with inexact coefficients")
    if not p or not q:
        return PuiseuxSeries.zero()
    r = lcm(*(e.denominator for c in p + q for e, _ in c.terms))
    polys, shift = [], 0
    for b, rows in ((p, len(q) - 1), (q, len(p) - 1)):
        low = min(_scaled(e, r) for c in b for e, _ in c.terms)
        shift += low * rows
        polys.append([_s_poly(c, r, low) for c in b])
    det = cpoly.pdet(cpoly.sylvester(*polys, []))
    return PuiseuxSeries.build(
        [(Fraction(k + shift, r), g) for k, g in enumerate(det)], inf)


def _s_poly(c: PuiseuxSeries, r: int, low: int) -> cpoly.Poly:
    """The exact series c / s^low as a polynomial in s = t^(1/r)."""
    out = [GaussianRational.zero()] * (
        _scaled(c.terms[-1][0], r) - low + 1 if c.terms else 0)
    for e, g in c.terms:
        out[_scaled(e, r) - low] = g
    return out


# A nonzero resultant is certified by a Sylvester determinant mod the prime
# P = 2^61 - 31, with i sent to J, a square root of -1 mod P (P = 1 mod 4,
# and 7 is not a square mod P).  Reduction mod (P, i - J) is a ring map.
_P = 2 ** 61 - 31
_J = pow(7, (_P - 1) // 4, _P)


def resultant_vanishes(fam: MapL) -> bool:
    """Whether ``resultant_series(fam)`` is identically zero.

    A ring map sends the Sylvester determinant, a polynomial in the
    entries, to the determinant of the mapped matrix at the same formal
    degrees, so a nonzero image proves the resultant nonzero.  An exact
    family, a Laurent polynomial in s = t^(1/r), is sent to s = J mod P,
    where elimination costs time cubic in the degree.  Only when that
    image vanishes is the resultant itself computed: its determinant over
    Q(i)[s] takes seconds at z-degree 32 and more, which ``parse_family``
    accepts.
    """
    p, q = cpoly.trim(fam.num), cpoly.trim(fam.den)
    if len(p) > 1 and len(q) > 1 and all(c.is_exact for c in p + q):
        try:
            image = cpoly.sylvester(*_specialized_mod_p(p, q), 0)
        except ValueError:
            pass  # P divides a denominator
        else:
            if not _singular_mod_p(image):
                return False
    return resultant_series(fam).is_zero


def _mod_p(g: GaussianRational) -> int:
    return (g.x + _J * g.y) * pow(g.d, -1, _P) % _P


def _specialized_mod_p(p: List[PuiseuxSeries], q: List[PuiseuxSeries]):
    r = lcm(*(e.denominator for c in p + q for e, _ in c.terms))
    return [[sum(_mod_p(a) * pow(_J, int(e * r), _P)
                 for e, a in c.terms) % _P for c in b] for b in (p, q)]


def _singular_mod_p(rows: List[List[int]]) -> bool:
    """Whether the determinant vanishes mod P, by Gaussian elimination."""
    rows = [list(row) for row in rows]
    n = len(rows)
    for c in range(n):
        piv = next((k for k in range(c, n) if rows[k][c]), None)
        if piv is None:
            return True
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, _P)
        for k in range(c + 1, n):
            f = rows[k][c] * inv % _P
            if f:
                rows[k] = [(x - f * y) % _P for x, y in zip(rows[k], rows[c])]
    return False


def resultant_valuation(fam: MapL) -> Fraction:
    """Valuation of the resultant; the recentering budget of the family."""
    res = resultant_series(fam)
    if res.is_zero:
        raise DegenerateFamily("resultant vanishes identically")
    return res.valuation()
