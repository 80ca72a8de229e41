"""Families of rational maps with Puiseux-series coefficients.

A family is a pair of polynomials in z whose coefficients are truncated
series in t.  Everything here treats the family formally: normalization of
the joint valuation, passage to the residue map at t = 0, affine changes of
variable with series entries, iteration, and the resultant in t, whose
vanishing marks a degenerate family.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm
from typing import Dict, List, Sequence, Tuple

from . import cpoly
from .config import ITERATE_DEGREE_CAP
from .errors import (AssertionFailed, DegenerateFamily, DegreeCapExceeded,
                     PrecisionExhausted)
from .coefficients import GaussianRational
from .puiseux import PuiseuxSeries

# -- polynomials in z with series coefficients (ascending, fixed length) ----


def smul(p: Sequence[PuiseuxSeries],
         q: Sequence[PuiseuxSeries]) -> List[PuiseuxSeries]:
    """Product of two series polynomials on Python ints: one pack, one
    :func:`_mulsum`, one unpack.

    The result equals, in terms and in ``trunc``, that of the loop which
    forms one series product a_i * b_j per pair and sums the products of
    each output degree with series ``+``.
    """
    if not p or not q:
        return []
    r = _scale(list(p) + list(q))
    (pp,), dp = _ints([p], r)
    (qq,), dq = _ints([q], r)
    return _unpack([_mulsum([(pp, qq)])], r, dp * dq)[0]


def _mulsum(pairs) -> List[Tuple[list, object]]:
    """The sum of the products p q over ``pairs``, on packed entries.

    An entry is (terms, top): terms (e r, D re, D im) in increasing e, for
    an exponent scale r and a coefficient denominator D, and top = trunc r
    or ``inf``; no term has a zero coefficient, so an entry with no terms
    and top ``inf`` is identically zero.  Each polynomial of a pair is over
    one D, so their product is over D_p D_q; the caller gives every pair of
    one call the same D_p D_q.  The result, over that denominator, equals
    term for term and in ``trunc`` the loop that forms each product of
    series, a_i * b_j, and sums all products of one output degree, over
    all pairs, with series ``+``.

    Truncation.  The loop forms each pair product a_i b_j, known mod t^T_ij
    with T_ij = min(trunc a_i + v_low b_j, trunc b_j + v_low a_i), and sums
    the products of one output degree k; a sum is known mod the least
    truncation of its summands.  So entry k is known mod t^T_k, where T_k
    is the minimum of T_ij over all pairs and i + j = k.  Every product and
    every partial sum drops only terms at or above its own truncation,
    which is >= T_k, and the last sum (or the one product, when k has a
    single term) has truncation exactly T_k.  So a term at exponent e < T_k
    is never dropped before the end, and one at e >= T_k never survives it.
    A coefficient dropped because it summed to zero adds nothing to later
    sums, and exact addition does not depend on order.  Hence entry k is
    the sum of all term products a_ie b_jf t^(e+f) with e + f < T_k, zeros
    removed, mod t^T_k: which is what is accumulated here, with each
    product outside that range skipped before it is formed.  An identically
    zero factor gives T_ij = inf and no terms, as its series product does.

    Packing.  With r the lcm of the denominators of all exponents and
    finite truncations, an exponent e is the int e r, and so is each T_k;
    scaling by r > 0 keeps every comparison.  Over one denominator the
    Gaussian integers of a product multiply, and those of a sum add, with
    no rescaling; a coefficient is zero exactly when both its ints are.
    :func:`_unpack` reduces each coefficient to lowest terms once, which
    gives the Gaussian rational the loop holds.
    """
    n = max(len(p) + len(q) for p, q in pairs) - 1
    # T_k r.  Only a finite trunc against a nonzero partner gives a finite
    # T_ij, so exact polynomials skip this loop.
    limits = [inf] * n
    for p, q in pairs:
        for x, y in ((p, q), (q, p)):
            lows = [(j, ts[0][0] if ts else top)
                    for j, (ts, top) in enumerate(y) if ts or top != inf]
            for i, (_, top) in enumerate(x):
                if top != inf:
                    for j, low in lows:
                        if top + low < limits[i + j]:
                            limits[i + j] = top + low
    acc: List[Dict[int, List[int]]] = [{} for _ in range(n)]
    for p, q in pairs:
        for i, (terms_a, _) in enumerate(p):
            if not terms_a:
                continue
            for j, (terms_b, _) in enumerate(q):
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
    return [([(e, re, im) for e, (re, im) in sorted(a.items()) if re or im],
             top) for a, top in zip(acc, limits)]


def _scale(coeffs: Sequence[PuiseuxSeries], *extra: int) -> int:
    """The lcm r of the exponent and finite truncation denominators."""
    return lcm(*(e.denominator for c in coeffs for e, _ in c.terms),
               *(c.trunc.denominator for c in coeffs if c.trunc != inf),
               *extra)


def _scaled(e: Fraction, r: int) -> int:
    """The exponent e as an int over r, a multiple of its denominator."""
    return e.numerator * (r // e.denominator)


def _ints(polys, r: int):
    """The polynomials' entries packed as in :func:`_mulsum`, over one D."""
    den = lcm(*(g.d for p in polys for c in p for _, g in c.terms))
    return [[([(_scaled(e, r), g.x * (k := den // g.d), g.y * k)
               for e, g in c.terms],
              c.trunc if c.trunc == inf else _scaled(c.trunc, r))
             for c in p] for p in polys], den


def _unpack(polys, r: int, den: int) -> List[List[PuiseuxSeries]]:
    """Packed polynomials over r and ``den`` as series polynomials."""
    exps: Dict[int, Fraction] = {}
    return [[PuiseuxSeries(
        tuple((exps[e] if e in exps else exps.setdefault(e, Fraction(e, r)),
               GaussianRational.from_ints(re, im, den))
              for e, re, im in terms),
        inf if top == inf else Fraction(top, r)) for terms, top in p]
        for p in polys]


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
    return packed_min_val([(c.terms, c.trunc) for c in coeffs])


def packed_min_val(entries):
    """:func:`block_min_val` of (terms, trunc) pairs whose terms start with
    their exponent, increasing: series terms or the packed entries of
    :func:`_mulsum`, whose answer is over their exponent scale."""
    known = [ts[0][0] for ts, _ in entries if ts]
    unknown = [top for ts, top in entries if not ts and top != inf]
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
    """Residue map of a family, in lowest terms, with its hole divisor."""
    return reduce_residues(*residues(gauss_normalize(fam)), fam.degree)


def reduce_residues(p_res: cpoly.Poly, q_res: cpoly.Poly,
                    d: int) -> ReducedMap:
    """The reduced map and hole divisor of the trimmed residue pair of a
    Gauss-normalized family of formal degree d.

    The pair may be scaled by one nonzero constant: the gcd is monic and
    :class:`ReducedMap` scales canonically, so nothing here changes.  The
    degree accounting deg(reduced) + deg(holes) = formal degree is
    checked and raised as :class:`AssertionFailed` when violated.
    """
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


def _compose(outer, inner):
    """outer(inner(z)) on packed families (num, den): the sums over i of
    a_i p^i q^(m-i) and b_i p^i q^(m-i), with m = len(num) - 1.

    The powers p^i and q^j are repeated products from 1, and each basis
    p^i q^(m-i) one more product, each a :func:`_mulsum` of one pair, as
    the loop over series forms them; so each is that loop's polynomial.
    Shared denominators: the inner p and q are over one D, so every basis
    is over D^m, and with the outer coefficients over their own D_o,
    every summand is over D^m D_o.  Each sum over i is then one
    :func:`_mulsum`, equal to the series sum of the products, and the
    result is over D^m D_o.  A ``den`` shorter than ``num`` stands for
    zeros at the top, which add nothing.
    """
    (onum, oden), (inum, iden) = outer, inner
    m = len(onum) - 1
    p_pow = q_pow = [[([(0, 1, 0)], inf)]]
    for _ in range(m):
        p_pow = p_pow + [_mulsum([(p_pow[-1], inum)])]
        q_pow = q_pow + [_mulsum([(q_pow[-1], iden)])]
    basis = [_mulsum([(p_pow[i], q_pow[m - i])]) for i in range(m + 1)]
    return [_mulsum([(b, [c]) for b, c in zip(basis, o)])
            for o in (onum, oden)]


def _horner(coeffs, lin, dc: int):
    """sum_i a_i L^i for the packed coefficients a_i over D_f and the
    packed L = c + t^h w over D_c, by Horner's rule: A <- A L + a_j from
    A = a_m down, each step one :func:`_mulsum` of the pairs (A, L) and
    (a_j, 1).  The step that adds a_j is the k-th, and over D_f D_c^k, so
    1 is written D_c^k over D_c^k; the result is over D_f D_c^m.  The rule
    starts at the highest a_top not identically zero, with A = a_top
    D_c^(m-top), and pads m - top zero entries on top (see the Start).

    Lemma.  The result equals, term for term and in ``trunc``, the loop of
    series that forms the powers L^i by repeated products and sums the
    products a_i (L^i)_k of each degree k.

    Proof.  Write T_i, w_i for the trunc and ``val_lower`` of a_i, and T, g
    for those of c (all inf for an identically zero one).  A product of
    series has trunc min(T_X + w_Y, T_Y + w_X) and ``val_lower``
    w_X + w_Y (the leading terms multiply to a nonzero term below that
    trunc; with no term, that is the trunc itself); a sum has the least
    trunc.  In the loop (L^i)_k, for i > k, is C(i, k) c^(i-k) t^(kh), the
    sum of two positive multiples of c^(i-k) t^(kh) from (L^(i-1))_k c and
    (L^(i-1))_(k-1) t^h; by induction on i it has ``val_lower``
    (i-k) g + kh and trunc T + (i-k-1) g + kh, and (L^k)_k = t^(kh) is
    exact.  So entry k of the loop has trunc P_k, the least of the terms
    T_i + (i-k) g + kh for i >= k and T + w_i + (i-k-1) g + kh for i > k.

    Let A^j be the value after a_j is added, sum over i >= j of
    a_i L^(i-j), and P^j_k the same least with i - j for i; P^0_k = P_k.
    We show by descending induction on j that A^j_k has trunc P^j_k; at
    j = m, A^m = a_m.  The step gives A^j_k the trunc min(trunc A^(j+1)_k
    + g, T + V, trunc A^(j+1)_(k-1) + h, and T_j if k = 0), where V is the
    ``val_lower`` of A^(j+1)_k.  For k >= 1, the third is P^j_k, the
    first is a least over some of its terms, and T + V is no less, since V
    is at least the least ``val_lower`` w_i + (i-j-1-k) g + kh of the
    summands of A^(j+1)_k and T plus each is a term of P^j_k.  For k = 0,
    the first and last give P', the least of every term of P^j_0 but
    T + w_(j+1).  P' has the terms T + w_i + (i-j-1) g for i >= j + 2, so
    P^j_0 = min(P', T + F) with F = min over i > j of w_i + (i-j-1) g,
    while the step gives min(P', T + V) with V >= F.  If V = F the two
    agree.  If V > F, the trunc of A^(j+1)_0 is above F, so every i that
    attains F has a term there, as does c when i >= j + 2, and those
    leading terms sum to zero: at least two i attain F, one of them
    i >= j + 2, whose term T + F is in P'.  So both are P'.

    So every trunc agrees, and each is at most that of an input of its
    step plus g or h; hence a term dropped at or above an intermediate
    trunc, or skipped by :func:`_mulsum`, could reach entry k only at or
    above the final trunc.  Both results are then the known terms of the
    exact polynomial sum_i a_i (c + t^h w)^i below that trunc, zeros
    removed.  QED.

    Start.  While A is identically zero, a step adds an identically zero
    a_j to products with the zero A, which have trunc inf and no terms
    (:func:`_mulsum`), so A stays zero; at step k = m - top it becomes
    a_top D_c^k, over D_f D_c^k, with k zero entries above.  A zero entry
    adds no term and no finite trunc to any later product, so each later
    step gives the same entries from a_top D_c^k alone, and zeros above.
    """
    m = top = len(coeffs) - 1
    while top and not coeffs[top][0] and coeffs[top][1] == inf:
        top -= 1
    scale = dc ** (m - top)
    terms, trunc = coeffs[top]
    acc = [([(e, x * scale, y * scale) for e, x, y in terms], trunc)]
    for k, a in enumerate(reversed(coeffs[:top]), m - top + 1):
        acc = _mulsum([(acc, lin), ([a], [([(0, dc ** k, 0)], inf)])])
    return acc + [([], inf) for _ in range(m - top)]


def precompose_ints(fam: MapL, frame: AffineFrame):
    """f(c(t) + t^h w) packed: (r, [P, Q], D), P and Q packed as in
    :func:`_mulsum` over the exponent scale r and the denominator D."""
    r = _scale(fam.coeffs() + (frame.c,), frame.h.denominator)
    f, df = _ints([fam.num, fam.den], r)
    ((c,),), dc = _ints([[frame.c]], r)
    lin = [c, ([(_scaled(frame.h, r), dc, 0)], inf)]
    return r, [_horner(p, lin, dc) for p in f], df * dc ** fam.degree


def precompose_affine(fam: MapL, frame: AffineFrame) -> MapL:
    """The family f(c(t) + t^h w), as a family in w."""
    r, polys, den = precompose_ints(fam, frame)
    return MapL(*_unpack(polys, r, den))


def conjugate(fam: MapL, frame: AffineFrame) -> MapL:
    """M^-1 o f o M for the affine frame M.

    M^-1 is (w - c) t^-h, so with f o M = P/Q this is (s P + b Q)/Q,
    s = t^-h and b = -c t^-h over D_c, and Q taken as 1 Q over D_c: the
    series products and sum of the postcomposition, each a
    :func:`_mulsum`.
    """
    r, (p, q), den = precompose_ints(fam, frame)
    ((c,),), dc = _ints([[frame.c]], r)
    hr = _scaled(frame.h, r)
    b = ([(e - hr, -x, -y) for e, x, y in c[0]], c[1] - hr)
    num = _mulsum([(p, [([(-hr, dc, 0)], inf)]), (q, [b])])
    return MapL(*_unpack([num, _mulsum([(q, [([(0, dc, 0)], inf)])])], r,
                         den * dc))


def compose_families(outer: MapL, inner: MapL, window) -> MapL:
    """outer(inner(z)), truncated to ``window`` above the least valuation.

    The cap.  :class:`MapL` trims the top positions where both entries
    are identically zero and pads to one length with such entries, whose
    ``val_lower`` is inf; so mu, the least ``val_lower`` of all entries,
    is the same before and after the trim.  :meth:`PuiseuxSeries.cap` at
    L = mu + window keeps an entry with trunc <= L, and cuts any other to
    its terms below L with trunc L; so does the loop here, on ints scaled
    by r.  The trim comes first because a capped zero entry is no longer
    identically zero.
    """
    d = outer.degree * inner.degree
    if d > ITERATE_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"composition degree {d} exceeds cap {ITERATE_DEGREE_CAP}")
    r = _scale(outer.coeffs() + inner.coeffs())
    o, do = _ints([outer.num, outer.den], r)
    i, di = _ints([inner.num, inner.den], r)
    polys = _compose(o, i)  # num and den of one length
    n = max((k + 1 for p in polys for k, (ts, top) in enumerate(p)
             if ts or top != inf), default=1)
    polys = [p[:n] for p in polys]
    lim = min(ts[0][0] if ts else top for p in polys for ts, top in p) \
        + window * r
    return MapL(*_unpack([[(ts, top) if top <= lim else
                           ([x for x in ts if x[0] < lim], lim)
                           for ts, top in p] for p in polys],
                         r, do * di ** outer.degree))


def iterate_family(fam: MapL, n: int, window) -> MapL:
    """The n-th iterate f^n, n >= 1, each composition kept within
    ``window``."""
    if n < 1:
        raise ValueError("iterate count must be >= 1")
    out = fam
    for _ in range(n - 1):
        out = compose_families(fam, out, window)
    return out


def compose_reduced(outer: ReducedMap, inner: ReducedMap) -> ReducedMap:
    """Composition of reduced maps, in lowest terms with nothing cancelled.

    Write outer = A/B and inner = p/q, m = max(deg A, deg B) and
    n = max(deg p, deg q).  The result is num/den with num = F(p, q) and
    den = G(p, q), where F(X, Y) = sum a_i X^i Y^(m-i) and G likewise are
    the forms of degree m of A and B.

    Lemma.  If A/B and p/q are in lowest terms (gcd(A, B) and gcd(p, q)
    constant, taking gcd(0, q) = q), then gcd(num, den) is constant.

    Proof.  F and G share no zero on P^1 over the algebraic closure: a
    finite one would be a common root of A and B, and (1 : 0) would need
    deg A, deg B < m.  If m n = 0, num and den are the constants a_0, b_0
    (m = 0) or F(p, q), G(p, q) (n = 0), so not both 0.  Otherwise let P,
    Q be the forms of degree n of p and q, which share no zero either, so
    that num and den are F o (P, Q) and G o (P, Q) at (z, 1).  Forms of
    positive degree share a zero exactly when their resultant vanishes, so
    Res(F, G) and Res(P, Q) are nonzero, and by Res(F o (P, Q),
    G o (P, Q)) = Res(F, G)^n Res(P, Q)^(m^2) (Silverman, GTM 241,
    section 2.4) the composed forms share no zero.  A nonconstant
    gcd(num, den) would have a root z0, and (z0 : 1) would be one.  QED.

    So the composition has degree m n exactly, since at most one composed
    form vanishes at (1 : 0); :func:`~rescaling.frames.find_cycle` checks
    that degree product.
    """
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
    """Valuation in t of :func:`resultant_series`; :class:`DegenerateFamily`
    when the resultant vanishes identically."""
    res = resultant_series(fam)
    if res.is_zero:
        raise DegenerateFamily("resultant vanishes identically")
    return res.valuation()
