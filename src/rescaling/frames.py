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

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .config import ADVANCE_SLACK, RAMIFICATION_CAP, default_truncation
from .errors import (AdvanceNotTerminating, AssertionFailed, DegenerateFamily,
                     DegreeCapExceeded, PrecisionExhausted,
                     RamificationCapExceeded, ToleranceAmbiguous)
from .coefficients import GaussianRational
from .maps import (AffineFrame, MapL, ReducedMap, _block_min_val, _sadd,
                   _sscale, compose_families, compose_reduced, conjugate, gauss_normalize,
                   iterate_family, precompose_affine, reduce_family,
                   residues, resultant_valuation)
from . import cpoly
from .puiseux import PuiseuxSeries

# corrections before the resultant budget is computed; most frames need 0-2
_BUDGET_AFTER = 3


class FrameClass:
    """A frame up to equivalence: (h, center mod t^h), center exact."""

    __slots__ = ("h", "c")

    def __init__(self, h: Fraction, c: PuiseuxSeries):
        self.h = h
        self.c = c

    def frame(self) -> AffineFrame:
        return AffineFrame(self.h, self.c)

    def key(self):
        """Hashable identity; exact coefficients only."""
        return (self.h, self.c.terms)

    def __eq__(self, other):
        if not isinstance(other, FrameClass):
            return NotImplemented
        if self.h != other.h or len(self.c.terms) != len(other.c.terms):
            return False
        return all(ea == eb and ca == cb for (ea, ca), (eb, cb)
                   in zip(self.c.terms, other.c.terms))

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        return f"({self.h}, {self.c})"

    def __repr__(self):
        return f"<FrameClass {self}>"


def canonicalize(frame: Union[AffineFrame, FrameClass]) -> FrameClass:
    """Cut a frame down to its class representative.

    The center must be known below t^h; ramification of the zoom exponent is
    capped to keep runaway denominators from masquerading as progress.
    """
    if isinstance(frame, FrameClass):
        return frame
    h = Fraction(frame.h)
    if h.denominator > RAMIFICATION_CAP:
        raise RamificationCapExceeded(
            f"zoom exponent denominator {h.denominator} exceeds "
            f"{RAMIFICATION_CAP}")
    if frame.c.trunc < h:
        raise PrecisionExhausted(
            f"center known mod t^{frame.c.trunc}, class needs it mod t^{h}")
    cut = tuple((e, c) for e, c in frame.c.terms if e < h)
    return FrameClass(h, PuiseuxSeries(cut, inf, frame.c.ftype))


def equivalent_via_reduction(a: Union[AffineFrame, FrameClass],
                             b: Union[AffineFrame, FrameClass]) -> bool:
    """Decide equivalence by reducing the transition map between two frames.

    Independent of :func:`canonicalize`: builds the degree-1 family
    M_b^-1 o M_a and checks that its residue is the identity.
    """
    fa = a.frame() if isinstance(a, FrameClass) else a
    fb = b.frame() if isinstance(b, FrameClass) else b
    ftype = fa.c.ftype
    num = [(fa.c - fb.c).shift(-fb.h),
           PuiseuxSeries.t_power(fa.h - fb.h, 1, inf, ftype)]
    den = [PuiseuxSeries.one(inf, ftype)]
    try:
        red = reduce_family(MapL(num, den))
    except (PrecisionExhausted, DegenerateFamily):
        return False
    # same class iff the transition tends to a translation w + e: centers may
    # disagree at order exactly t^h and still describe the same window
    return (len(red.den) == 1 and red.den[0].is_one
            and len(red.num) == 2 and red.num[1].is_one)


@dataclass(frozen=True)
class StepResult:
    """One advance: source frame, the frame it lands on, and the step limit."""

    source: FrameClass
    target: FrameClass
    limit: ReducedMap
    n_corrections: int = 0


def advance(fam: MapL, frame: Union[AffineFrame, FrameClass]) -> StepResult:
    """Push a frame one step through the family.

    Recenters f o M by affine output corrections (rebalancing a constant-0 or
    constant-infinity residue, or subtracting a constant residue value) until
    the residue map has degree at least 1.  The corrections spend recentering
    budget bounded by the valuation of the family's resultant; exceeding it
    raises :class:`AdvanceNotTerminating`.
    """
    src = canonicalize(frame)
    work = precompose_affine(fam, src.frame())
    ftype = fam.ftype
    u = Fraction(0)
    v = PuiseuxSeries.zero(inf, ftype)
    corrections = 0
    budget = None
    spent = Fraction(0)
    while True:
        work = gauss_normalize(work)
        p_res, q_res = residues(work)
        p_res, q_res = cpoly.trim(p_res), cpoly.trim(q_res)
        if p_res and q_res:
            c1 = _proportional(p_res, q_res)
            if c1 is None:
                break
            gnum = _sadd(list(work.num), _sscale(list(work.den), -c1))
            delta = _block_min_val(gnum)
            if delta == inf:
                raise DegenerateFamily(
                    "family is exactly an affine constant in this frame")
            if delta <= 0:
                raise ToleranceAmbiguous(
                    "constant residue cancelled only below the zero "
                    "threshold; cannot certify the recentering order")
            work = MapL([c.shift(-delta) for c in gnum], work.den)
            u -= delta
            v = (v - c1).shift(-delta)
            spent += delta
        else:
            vn = _block_min_val(work.num)
            vd = _block_min_val(work.den)
            if vn == inf or vd == inf:
                raise DegenerateFamily(
                    "numerator or denominator identically zero")
            a = vd - vn
            if a == 0:
                raise ToleranceAmbiguous(
                    "residue block vanished only below the zero threshold; "
                    "cannot certify the rebalancing order")
            work = work.scaled_function(a)
            u += a
            v = v.shift(a)
            spent += abs(a)
        corrections += 1
        if budget is None and corrections >= _BUDGET_AFTER:
            budget = resultant_valuation(gauss_normalize(work))
            spent = Fraction(0)
        if budget is not None and spent > budget + ADVANCE_SLACK:
            raise AdvanceNotTerminating(
                f"recentering exceeded the resultant budget {budget} "
                f"(+{ADVANCE_SLACK}) at frame {src}")
    limit = reduce_family(work)
    if limit.degree < 1:
        raise AssertionFailed(
            "advance stopped on a constant residue",
            details={"frame": str(src)})
    target = canonicalize(AffineFrame(-u, (-v).shift(-u)))
    return StepResult(src, target, limit, corrections)


def _proportional(p: cpoly.Poly, q: cpoly.Poly):
    """The constant c with p = c*q, or None. p, q trimmed and nonzero."""
    i0 = next(i for i, c in enumerate(q) if not c.is_zero)
    if i0 >= len(p):
        return None
    c1 = p[i0] / q[i0]
    diff = cpoly.psub(p, cpoly.pscale(q, c1))
    return c1 if cpoly.is_zero_poly(diff) else None


@dataclass(frozen=True)
class RescalingCycle:
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
               max_steps: int = 64) -> RescalingCycle:
    """Advance a seed frame until its class orbit repeats.

    The limit is the composition of the step limits around the cycle,
    innermost first; its degree must equal the product of the step degrees.
    The seed and every target are tested against :func:`escape_bound`; the
    first frame below it raises :class:`AdvanceNotTerminating` with the
    certificate in ``details``.  Orbits the certificate does not cover end
    at the ``max_steps`` cap.
    """
    exact = fam.ftype is GaussianRational
    bound = escape_bound(fam)
    fc = canonicalize(seed)
    if bound is not None and frame_size(fc) < bound:
        raise _escape(fam, fc, 0, bound)
    orbit: List[FrameClass] = [fc]
    steps: List[StepResult] = []
    index: Dict[tuple, int] = {fc.key(): 0} if exact else {}
    while len(steps) < max_steps:
        st = advance(fam, orbit[-1])
        steps.append(st)
        tgt = st.target
        if exact:
            j = index.get(tgt.key())
        else:
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
        orbit.append(tgt)
        if exact:
            index[tgt.key()] = len(orbit) - 1
    raise AdvanceNotTerminating(
        f"no frame class repeated within {max_steps} advances from {fc}")


def cycle_limit_crosscheck(fam: MapL, cycle: RescalingCycle) -> bool:
    """Re-derive the cycle limit from the iterated family.

    Reduces M^-1 o f^q o M at the base frame and compares with the composed
    step limits.  Degree-capped: period-q checks need degree^q iterates.
    The conjugate is iterated rather than the iterate conjugated (the same
    map): precision is spent once and the iterate stays within a window.
    """
    g = conjugate(fam, cycle.base.frame())
    it = iterate_family(g, cycle.period, window=default_truncation())
    return reduce_family(it) == cycle.limit


@dataclass(frozen=True)
class PeriodSetReport:
    """Limit degrees of the conjugated iterates in one frame."""

    degrees: Dict[int, int]
    law_holds: bool
    period: Optional[int]


def period_set_check(fam: MapL, frame: Union[AffineFrame, FrameClass],
                     ell_max: int) -> PeriodSetReport:
    """Degrees of the reduced conjugates of f^ell, and the divisibility law.

    The set {ell : degree >= 2} must be empty or exactly the multiples of
    its least element within range.
    """
    fc = canonicalize(frame)
    g = conjugate(fam, fc.frame())
    window = default_truncation()
    degrees: Dict[int, int] = {}
    it = g
    for ell in range(1, ell_max + 1):
        degrees[ell] = reduce_family(it).degree
        if ell < ell_max:
            it = compose_families(g, it, window)
    heavy = sorted(ell for ell, dg in degrees.items() if dg >= 2)
    if not heavy:
        return PeriodSetReport(degrees, True, None)
    q = heavy[0]
    expected = [ell for ell in range(q, ell_max + 1, q)]
    return PeriodSetReport(degrees, heavy == expected, q)


@dataclass
class ScanResult:
    """Outcome of seeding monomial frames over a denominator range."""

    cycles: List[RescalingCycle] = field(default_factory=list)
    degree_one: List[RescalingCycle] = field(default_factory=list)
    escaped: List[Fraction] = field(default_factory=list)
    failed: Dict[Fraction, str] = field(default_factory=dict)
    seeds_scanned: int = 0


def monomial_seed_scan(fam: MapL, max_denominator: int,
                       max_steps: int = 64) -> ScanResult:
    """Run every seed frame (p/q, 0), 0 < p/q < 1, q <= max_denominator.

    Distinct seeds landing on the same cycle are reported once.  Orbits that
    reach the certified escape region of :func:`escape_bound`, or never
    repeat within ``max_steps``, count as escaped; other failures are
    recorded per seed with the error message.
    """
    ftype = fam.ftype
    exact = ftype is GaussianRational
    zero = PuiseuxSeries.zero(inf, ftype)
    seeds = sorted({Fraction(p, q)
                    for q in range(2, max_denominator + 1)
                    for p in range(1, q)})
    out = ScanResult(seeds_scanned=len(seeds))
    seen_keys: set = set()
    seen_cycles: List[RescalingCycle] = []

    def _is_new(cycle: RescalingCycle) -> bool:
        if exact:
            key = frozenset(fr.key() for fr in cycle.frames)
            if key in seen_keys:
                return False
            seen_keys.add(key)
            return True
        for old in seen_cycles:
            if any(fr == cycle.base for fr in old.frames):
                return False
        seen_cycles.append(cycle)
        return True

    for h in seeds:
        try:
            cycle = find_cycle(fam, AffineFrame(h, zero), max_steps)
        except AdvanceNotTerminating:
            out.escaped.append(h)
            continue
        except (PrecisionExhausted, RamificationCapExceeded,
                DegenerateFamily, ToleranceAmbiguous) as exc:
            out.failed[h] = f"{type(exc).__name__}: {exc}"
            continue
        if not _is_new(cycle):
            continue
        if cycle.is_trivial:
            out.degree_one.append(cycle)
        else:
            out.cycles.append(cycle)
    return out
