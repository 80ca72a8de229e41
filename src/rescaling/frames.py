"""Frame dynamics: zooming coordinates, their advance map, and cycles.

A frame z = c(t) + t^h w singles out a moving window of the dynamical plane.
Advancing a frame pushes it forward through the family: the image family
f(c + t^h w) is recentered by affine output corrections until its residue is
a non-constant rational map, and the inverse of the accumulated correction
is the next frame.  Frames that return to a previously visited class close a
rescaling cycle, whose composed limit is the object of interest.

Frames are tracked up to equivalence: only the zoom exponent h and the
center modulo t^h matter, so classes store the center cut below t^h.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .config import CENTER_HEIGHT_CAP, ITERATE_WINDOW_CAP
from .errors import (AdvanceNotTerminating, AssertionFailed, DegenerateFamily,
                     PrecisionExhausted)
from .coefficients import GaussianRational
from .maps import (AffineFrame, MapL, ReducedMap, _mulsum, compose_families,
                   compose_reduced, conjugate, iterate_family, packed_min_val,
                   precompose_ints, reduce_family, reduce_residues,
                   resultant_vanishes)
from .puiseux import PuiseuxSeries

# corrections before the family is checked for degree 0 or a vanishing
# resultant; most frames need 0-2
_DEGENERACY_CHECK_AFTER = 3


class FrameClass:
    """A frame up to equivalence: (h, center mod t^h), center exact."""

    __slots__ = ("h", "c")

    def __init__(self, h: Fraction, c: PuiseuxSeries):
        self.h = h
        self.c = c

    def frame(self) -> AffineFrame:
        return AffineFrame(self.h, self.c)

    def key(self):
        """Hashable identity."""
        return (self.h, self.c.terms)

    def height(self) -> int:
        """Largest bit length of x, y or d over the center's
        coefficients (x + y*i)/d; 0 for the zero center."""
        return max((max(g.x.bit_length(), g.y.bit_length(),
                        g.d.bit_length()) for _, g in self.c.terms),
                   default=0)

    def __eq__(self, other):
        if not isinstance(other, FrameClass):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        return f"({self.h}, {self.c})"

    def __repr__(self):
        return f"<FrameClass {self}>"


def canonicalize(frame: Union[AffineFrame, FrameClass]) -> FrameClass:
    """Cut a frame down to its class representative.

    The center must be known below t^h.
    """
    if isinstance(frame, FrameClass):
        return frame
    h = Fraction(frame.h)
    if frame.c.trunc < h:
        raise PrecisionExhausted(
            f"center known mod t^{frame.c.trunc}, class needs it mod t^{h}")
    cut = tuple((e, c) for e, c in frame.c.terms if e < h)
    return FrameClass(h, PuiseuxSeries(cut, inf))


class StepResult(NamedTuple):
    """One advance: source frame, the frame it lands on, and the step limit."""

    source: FrameClass
    target: FrameClass
    limit: ReducedMap
    n_corrections: int = 0


def advance(fam: MapL, frame: Union[AffineFrame, FrameClass]) -> StepResult:
    """Push a frame one step through the family.

    Recenters f o M by affine output corrections (rebalancing a constant-0 or
    constant-infinity residue, or subtracting a constant residue value) until
    the residue map has degree at least 1.  At the third correction a family
    of degree 0, or one whose resultant vanishes identically, raises
    :class:`DegenerateFamily`; for any other exact family the loop ends, by
    the lemma below.

    Write Res(F, G) for the homogeneous resultant at the formal degree d of
    f, F and G being the numerator and denominator of a state of the loop
    made homogeneous of degree d.  For A in GL_2 and scalars,
    Res(F o A, G o A) = det(A)^(d^2) Res(F, G),
    Res(aF + bG, cF + eG) = (ae - bc)^d Res(F, G) and
    Res(uF, uG) = u^(2d) Res(F, G) (Silverman, GTM 241, section 2.4).

    Lemma.  Let the exact family f have degree d >= 1 and Res(P, Q) != 0,
    and let r be the lcm of the exponent denominators of f o M.  Let v_0 be
    the valuation of Res at the first normalized state, and s_k the spend
    of the k-th correction: |a| for a rebalance by t^a, delta for a
    subtraction.  Then Res at the normalized state after k corrections has
    valuation v_0 - d (s_1 + ... + s_k) >= 0, and the loop makes at most
    r v_0 / d corrections.

    Proof.  f o M = (P o M) / (Q o M) has Res = t^(h d^2) Res(P, Q) != 0;
    normalization by t^-mu scales Res by t^(-2d mu), and each correction
    below by a power of t, so no state has Res = 0.  A state is
    Gauss-normalized at the top of each pass: its coefficients have
    valuation >= 0, with 0 attained, so v(Res) >= 0, Res being an integer
    polynomial in them.  A rebalance comes when one residue vanishes.  If
    the numerator's does, 0 = vd < vn and a = -vn, so F -> t^a F is
    normalized and Res gains t^(d a) = t^(-d |a|).  If the denominator's
    does, 0 = vn < vd = a, and F -> t^a F followed by normalization by
    t^-a is G -> t^-a G: Res gains t^(-d a).  A subtraction comes when
    both residues are nonzero, so both blocks have valuation 0:
    F -> F - c1 G keeps Res, the shift by t^-delta scales it by
    t^(-d delta), and the state stays normalized.  This proves the
    identity, and v(Res) >= 0 gives s_1 + ... + s_k <= v_0 / d.  Every
    shift, by mu, delta or a, is an exponent of the state or a difference
    of two, so every exponent stays in (1/r)Z, and each spend, being
    positive, is at least 1/r.  QED.

    So the loop needs no cap on what it spends.  Its one check is needed
    where the lemma does not apply.  A family of degree 0 has constant
    residues in every frame, and its subtractions run through the expansion
    of P/Q in t.  A degenerate family, which only a library caller can
    build (``parse_family`` refuses one), can subtract forever.  Since P or
    Q has degree d, Res(P, Q) vanishes exactly when the resultant at the
    trimmed degrees does, which :func:`~rescaling.maps.resultant_vanishes`
    decides by a determinant mod a prime.

    Corollary.  Let R be the lcm of the exponent denominators of f, of the
    seed's h and of the seed's center.  Every frame that
    :func:`find_cycle` visits from that seed has h and center exponents in
    (1/R)Z: an orbit never ramifies beyond its seed, so frames need no cap
    on their exponent denominators.

    Proof, by induction along the orbit; the seed's class is cut from the
    seed, so it holds there.  Let the source (h, c) have exponents in
    (1/R)Z.  Each coefficient of f o M is a sum of products of
    coefficients of f, powers of c and powers of t^h, so its exponents are
    sums of those of f and c and multiples of h, and r divides R.  The
    target has h' = -u and center -v t^(-u): u is a sum of the shifts a
    and -delta, and each term of v is a constant shifted by some of them,
    so by the lemma both lie in (1/r)Z.  Cutting the center below t^h'
    drops terms and adds none.  QED.

    The loop runs on one packing of f o M, by
    :func:`~rescaling.maps.precompose_ints`: exponents are ints over the
    scale r, coefficients Gaussian integers over one denominator.  A
    subtraction writes c1 = p_0 / q_0 as (x + y i) / d in lowest terms,
    p_0 and q_0 the residues where that of Q is first nonzero, and forms
    d P - (x + y i) Q and d Q, which is d times (P - c1 Q, Q); then every
    int is divided by their gcd, so that they grow as the loop's reduced
    fractions do, not by a factor d each time.  Scaling P and Q by one
    nonzero constant changes no valuation, residue ratio or reduced map,
    so each state is that of the loop on series up to such a constant, and
    the denominator is never needed.  The target center -v t^-u is the sum
    of c1 t^-u over the subtractions, u taken before each: a rebalance
    shifts v and u alike, and a subtraction adds -c1 to v before both
    shift by -delta.
    """
    src = canonicalize(frame)
    r, (num, den), _ = precompose_ints(fam, src.frame())
    u = 0
    center: Dict[int, GaussianRational] = {}
    corrections = 0
    while True:
        num, den = _normalized(num, den)
        p_res, q_res = _residues(num), _residues(den)
        if p_res and q_res:
            lead = _proportional(p_res, q_res)
            if lead is None:
                break
            c1 = GaussianRational(*lead[0]) / GaussianRational(*lead[1])
            gnum = _mulsum([(num, [([(0, c1.d, 0)], inf)]),
                            (den, [([(0, -c1.x, -c1.y)], inf)])])
            delta = packed_min_val(gnum)
            # gnum has no t^0 term and no negative exponent, so delta > 0
            if delta == inf:
                raise DegenerateFamily(
                    "family is exactly an affine constant in this frame")
            g = gcd(*_parts(gnum), c1.d * gcd(*_parts(den)))
            num = [_shifted(x, -delta, 1, g) for x in gnum]
            den = [_shifted(x, 0, c1.d, g) for x in den]
            center[-u] = center.get(-u, 0) + c1
            u -= delta
        else:
            # _normalized refused a zero block; the block whose residue
            # survives holds the t^0 term, so a != 0
            a = packed_min_val(den) - packed_min_val(num)
            num = [_shifted(x, a) for x in num]
            u += a
        corrections += 1
        if corrections == _DEGENERACY_CHECK_AFTER:
            if fam.degree < 1:
                raise DegenerateFamily(
                    "family is constant in z, so no frame has a "
                    "non-constant residue")
            if resultant_vanishes(fam):
                raise DegenerateFamily("resultant vanishes identically")
    limit = reduce_residues([GaussianRational(*g) for g in p_res],
                            [GaussianRational(*g) for g in q_res], fam.degree)
    if limit.degree < 1:
        raise AssertionFailed(
            "advance stopped on a constant residue",
            details={"frame": str(src)})
    terms = tuple((Fraction(e, r), g) for e, g in sorted(center.items()) if g)
    target = canonicalize(AffineFrame(Fraction(-u, r),
                                      PuiseuxSeries(terms, inf)))
    return StepResult(src, target, limit, corrections)


def _shifted(entry, s: int, m: int = 1, g: int = 1):
    """A packed entry times m t^s / g, g dividing m times each int."""
    terms, top = entry
    if m == g:
        return [(e + s, x, y) for e, x, y in terms], top + s
    return [(e + s, x * m // g, y * m // g) for e, x, y in terms], top + s


def _parts(block):
    """The ints x and y of every term of a packed block."""
    return [v for terms, _ in block for _, x, y in terms for v in (x, y)]


def _normalized(num, den):
    """:func:`~rescaling.maps.gauss_normalize` on packed entries."""
    if all(not ts and top == inf for ts, top in num) \
            or all(not ts and top == inf for ts, top in den):
        raise DegenerateFamily("numerator or denominator identically zero")
    mu = packed_min_val(num + den)
    if mu == 0:
        return num, den
    return [_shifted(x, -mu) for x in num], [_shifted(x, -mu) for x in den]


def _residues(block):
    """The trimmed residues (x, y) of a normalized packed block."""
    out = []
    for terms, top in block:
        # normalization leaves every entry known at least mod t^0
        if top <= 0:
            raise PrecisionExhausted("constant term not visible mod t^0")
        out.append(terms[0][1:] if terms and terms[0][0] == 0 else (0, 0))
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def _proportional(p, q):
    """(p_0, q_0), the entries of p and q at the first nonzero entry of q,
    when p = (p_0 / q_0) q; else None.  p, q trimmed and nonzero."""
    i0 = next(i for i, g in enumerate(q) if g != (0, 0))
    if len(p) != len(q):
        return None
    (px, py), (qx, qy) = p[i0], q[i0]
    for (ax, ay), (bx, by) in zip(p, q):
        # a q_0 = p_0 b over Z[i]
        if ax * qx - ay * qy != px * bx - py * by \
                or ax * qy + ay * qx != px * by + py * bx:
            return None
    return p[i0], q[i0]


class RescalingCycle(NamedTuple):
    """A periodic frame orbit with its composed limit.

    ``frames[0]`` is the first frame of the cycle the seed orbit entered;
    the cycle is reported from there, never rotated, because rotating the
    base conjugates the limit into a different map.
    """

    frames: Tuple[FrameClass, ...]
    steps: Tuple[StepResult, ...]
    preperiod_frames: Tuple[FrameClass, ...]
    preperiod_steps: Tuple[StepResult, ...]
    limit: ReducedMap

    @property
    def period(self) -> int:
        return len(self.frames)

    @property
    def base(self) -> FrameClass:
        return self.frames[0]

    @property
    def degree(self) -> int:
        return self.limit.degree

    @property
    def is_trivial(self) -> bool:
        return self.degree <= 1


def _top_terms(fam: MapL) -> Optional[Tuple[int, int, Fraction, Fraction]]:
    """(d, e, v(a_d), v(b_e)) for the top known terms of P and Q, or None.

    None when either side has no known term, or when a coefficient above its
    top known term is zero only as far as known.
    """
    tops = []
    for coeffs in (fam.num, fam.den):
        known = [i for i, c in enumerate(coeffs) if c.terms]
        if not known or not all(c.is_zero for c in coeffs[known[-1] + 1:]):
            return None
        tops.append(known[-1])
    d, e = tops
    return d, e, fam.num[d].valuation(), fam.den[e].valuation()


def escape_bound(fam: MapL) -> Optional[Fraction]:
    """Frame size below which the top-degree terms certify an escape.

    Write P = sum a_i z^i and Q = sum b_j z^j with a_d, b_e their top known
    terms.  A frame class (h, c) has size m = v(c) when c != 0 and m = h
    otherwise: the valuation of z = c + t^h w at a generic point w of the
    window (a unit w when c = 0; any w when c != 0, since v(c) < h).  The
    bound is None unless d - e >= 2, and otherwise the least of
    (v(b_e) - v(a_d)) / (d - e - 1), (v_low(a_i) - v(a_d)) / (d - i) for
    i < d, and (v_low(b_j) - v(b_e)) / (e - j) for j < e, where v_low is
    the certified lower bound ``val_lower`` (infinite, so no constraint,
    for an exact zero).

    Lemma.  If a frame class has size m < bound and ``advance`` sends it to
    a class of size m', then m' = (d - e) m + v(a_d) - v(b_e) < m < bound.

    Proof.  Let v(z) = m.  For i < d, v(a_i z^i) >= v_low(a_i) + i m >
    v(a_d) + d m because m < (v_low(a_i) - v(a_d)) / (d - i); so
    v(P(z)) = v(a_d) + d m, and likewise v(Q(z)) = v(b_e) + e m.  Hence
    v(f(z)) = (d - e) m + v(a_d) - v(b_e) = m', and m' < m because
    (d - e - 1) m < v(b_e) - v(a_d).  The target class (h', c') comes with
    a non-constant reduction phi of M'^-1 o f o M, so for all but finitely
    many residues of w, f(c + t^h w) = c' + t^h' u with u a unit (c' is
    cut below t^h'; the cut-off part only shifts phi(w) by a constant,
    which a generic w does not cancel).  Picking
    such a generic w with v(c + t^h w) = m gives v(f(z)) = v(c') if c' != 0
    (v(c') < h') and v(f(z)) = h' if c' = 0, which is the size of the
    target class in either case.  So the target has size exactly m'.  QED.

    Corollary.  Once one frame of an orbit has size below the bound, every
    later frame does too, and the sizes strictly decrease.  When the first
    such frame is caught, every earlier frame has size at least the bound,
    so no class of the orbit can ever repeat: the orbit escapes.

    >>> from .famparse import parse_family
    >>> escape_bound(parse_family("z^3 + t/z^2"))
    Fraction(0, 1)
    """
    top = _top_terms(fam)
    if top is None:
        return None
    d, e, va, vb = top
    if d - e < 2:
        return None
    bound = Fraction(vb - va) / (d - e - 1)
    for i in range(d):
        bound = min(bound, (fam.num[i].val_lower() - va) / (d - i))
    for j in range(e):
        bound = min(bound, (fam.den[j].val_lower() - vb) / (e - j))
    return bound


def frame_size(fc: FrameClass) -> Fraction:
    """Valuation of a generic point of the window: v(c), or h when c = 0."""
    return fc.c.terms[0][0] if fc.c.terms else fc.h


def _escape(fam: MapL, fc: FrameClass, step: int,
            bound: Fraction) -> AdvanceNotTerminating:
    d, e, va, vb = _top_terms(fam)
    shift = va - vb
    drift = f"m -> {d - e}m" + (f" + {shift}" if shift > 0 else
                                 f" - {-shift}" if shift < 0 else "")
    size = frame_size(fc)
    return AdvanceNotTerminating(
        f"frame {fc} after {step} advances has size {size} below the "
        f"escape bound {bound}; sizes now drift {drift}, so no frame class "
        f"can repeat",
        details={"frame": str(fc), "step": step, "size": size,
                 "bound": bound, "drift": drift})


def find_cycle(fam: MapL, seed: Union[AffineFrame, FrameClass],
               max_steps: int = 64,
               memo: Optional[Dict[tuple, StepResult]] = None
               ) -> RescalingCycle:
    """Advance a seed frame until its class orbit repeats.

    The limit is the composition of the step limits around the cycle,
    innermost first; its degree must equal the product of the step degrees.
    The seed and every target are tested against :func:`escape_bound`; the
    first frame below it raises :class:`AdvanceNotTerminating` with the
    certificate in ``details``.  So does an orbit whose next center is
    higher than ``CENTER_HEIGHT_CAP`` bits; ``details`` then holds the
    step, that height, and the last frame under the cap.  Orbits neither
    covers end at the ``max_steps`` cap.

    ``memo`` maps source classes (:meth:`FrameClass.key`) to their advance,
    so calls that share it advance from each class once.
    """
    bound = escape_bound(fam)
    fc = canonicalize(seed)
    if bound is not None and frame_size(fc) < bound:
        raise _escape(fam, fc, 0, bound)
    if memo is None:
        memo = {}
    orbit: List[FrameClass] = [fc]
    steps: List[StepResult] = []
    while len(steps) < max_steps:
        src = orbit[-1]
        key = src.key()
        st = memo.get(key)
        if st is None:
            st = memo[key] = advance(fam, src)
        steps.append(st)
        tgt = st.target
        j = next((k for k, fr in enumerate(orbit) if fr == tgt), None)
        if j is not None:
            cyc_frames = tuple(orbit[j:])
            cyc_steps = tuple(steps[j:])
            limit = cyc_steps[0].limit
            for s in cyc_steps[1:]:
                limit = compose_reduced(s.limit, limit)
            expected = 1
            for s in cyc_steps:
                expected *= s.limit.degree
            if limit.degree != expected:
                raise AssertionFailed(
                    "cycle limit degree is not the product of step degrees",
                    details={"expected": expected, "actual": limit.degree})
            return RescalingCycle(cyc_frames, cyc_steps, tuple(orbit[:j]),
                                  tuple(steps[:j]), limit)
        if bound is not None and frame_size(tgt) < bound:
            raise _escape(fam, tgt, len(steps), bound)
        height = tgt.height()
        if height > CENTER_HEIGHT_CAP:
            raise AdvanceNotTerminating(
                f"advance {len(steps)} reached a frame center of height "
                f"{height} bits, past the cap of {CENTER_HEIGHT_CAP}",
                details={"step": len(steps), "height": height,
                         "cap": CENTER_HEIGHT_CAP, "frame": str(src)})
        orbit.append(tgt)
    raise AdvanceNotTerminating(
        f"no frame class repeated within {max_steps} advances from {fc}")


def _widening(g: MapL, check):
    """``check(window)`` at the first window that keeps enough of the
    iterates of g; the last window's :class:`PrecisionExhausted` is raised.

    The windows are the powers of two from the least one at or above the
    spread of g (the greatest minus the least valuation of its nonzero
    coefficients) up to ``ITERATE_WINDOW_CAP``.  The first window sets only
    the cost: the answer does not depend on which window certifies it.
    :func:`~rescaling.maps.compose_families` keeps only certified terms,
    since ``_mulsum``'s min-trunc rule does and the cap only cuts, and
    :func:`~rescaling.maps.block_min_val` and the residues raise
    :class:`PrecisionExhausted` whenever a residue may be hidden; so a
    window that gives an answer gives the residues of the exact iterate.
    A capped entry is never ``is_zero``, so every window gives the same
    formal degree, and none can raise :class:`DegenerateFamily` or
    :class:`AssertionFailed` where another certifies.  A wider window knows
    every entry to at least the same order, so it certifies wherever a
    narrower one does, and the last window is the same for every g.
    """
    vals = [c.terms[0][0] for c in g.coeffs() if c.terms]
    spread = max(vals, default=0) - min(vals, default=0)
    window = 1
    while window < min(spread, ITERATE_WINDOW_CAP):
        window *= 2
    while window < ITERATE_WINDOW_CAP:
        try:
            return check(window)
        except PrecisionExhausted:
            window *= 2
    return check(window)


def cycle_limit_crosscheck(fam: MapL, cycle: RescalingCycle) -> bool:
    """Re-derive the cycle limit from the iterated family.

    Reduces M^-1 o f^q o M at the base frame and compares with the composed
    step limits.  Degree-capped: period-q checks need degree^q iterates.
    The conjugate is iterated rather than the iterate conjugated (the same
    map): precision is spent once, and the iterate is kept within a window
    that widens until it suffices.
    """
    g = conjugate(fam, cycle.base.frame())
    return _widening(g, lambda window: reduce_family(
        iterate_family(g, cycle.period, window)) == cycle.limit)


class PeriodSetReport(NamedTuple):
    """Limit degrees of the conjugated iterates in one frame."""

    degrees: Dict[int, int]
    law_holds: bool
    period: Optional[int]


def period_set_check(fam: MapL, frame: Union[AffineFrame, FrameClass],
                     ell_max: int) -> PeriodSetReport:
    """Degrees of the reduced conjugates of f^ell, and the divisibility law.

    The set {ell : degree >= 2} must be empty or exactly the multiples of
    its least element within range.  Iterates are kept within a window
    that widens until it suffices.  ``ell_max`` must be at least 1.
    """
    if ell_max < 1:
        raise ValueError(f"period range must be >= 1, got {ell_max}")
    fc = canonicalize(frame)
    g = conjugate(fam, fc.frame())

    def degrees_within(window) -> Dict[int, int]:
        degrees: Dict[int, int] = {}
        it = g
        for ell in range(1, ell_max + 1):
            degrees[ell] = reduce_family(it).degree
            if ell < ell_max:
                it = compose_families(g, it, window)
        return degrees

    degrees = _widening(g, degrees_within)
    heavy = sorted(ell for ell, dg in degrees.items() if dg >= 2)
    if not heavy:
        return PeriodSetReport(degrees, True, None)
    q = heavy[0]
    expected = [ell for ell in range(q, ell_max + 1, q)]
    return PeriodSetReport(degrees, heavy == expected, q)


class ScanResult:
    """Outcome of seeding monomial frames over a denominator range.

    A mutable accumulator: the scan appends to its lists as seeds resolve.
    """

    def __init__(self, seeds_scanned: int = 0):
        self.cycles: List[RescalingCycle] = []
        self.degree_one: List[RescalingCycle] = []
        self.escaped: List[Fraction] = []
        self.failed: Dict[Fraction, str] = {}
        self.seeds_scanned = seeds_scanned

    def __eq__(self, other):
        if not isinstance(other, ScanResult):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"ScanResult({fields})"


def monomial_seed_scan(fam: MapL, max_denominator: int,
                       max_steps: int = 64) -> ScanResult:
    """Run every seed frame (p/q, 0), 0 < p/q < 1, q <= max_denominator.

    Seeds share one memo of advances, so each frame class is advanced from
    at most once per scan.  Distinct seeds landing on the same cycle are
    reported once.  Orbits that reach the certified escape region of
    :func:`escape_bound` count as escaped.  Every other failure, among them
    the ``max_steps`` cap and the center-height guard of :func:`find_cycle`,
    is recorded per seed with the error message.
    """
    zero = PuiseuxSeries.zero()
    seeds = sorted({Fraction(p, q)
                    for q in range(2, max_denominator + 1)
                    for p in range(1, q)})
    out = ScanResult(seeds_scanned=len(seeds))
    memo: Dict[tuple, StepResult] = {}
    seen_cycles: List[RescalingCycle] = []

    def _is_new(cycle: RescalingCycle) -> bool:
        # advance is deterministic, so cycles sharing one class share all
        for old in seen_cycles:
            if any(fr == cycle.base for fr in old.frames):
                return False
        seen_cycles.append(cycle)
        return True

    for h in seeds:
        try:
            cycle = find_cycle(fam, AffineFrame(h, zero), max_steps, memo)
        except AdvanceNotTerminating as exc:
            # of the raises in find_cycle, only _escape's carries a bound
            if exc.details and "bound" in exc.details:
                out.escaped.append(h)
            else:
                out.failed[h] = f"{type(exc).__name__}: {exc}"
            continue
        except (PrecisionExhausted, DegenerateFamily) as exc:
            out.failed[h] = f"{type(exc).__name__}: {exc}"
            continue
        if not _is_new(cycle):
            continue
        if cycle.is_trivial:
            out.degree_one.append(cycle)
        else:
            out.cycles.append(cycle)
    return out
