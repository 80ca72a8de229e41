"""Frame classes, the advance step, cycles, scans, and their invariants."""

from fractions import Fraction
from math import inf, lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rescaling.frames as frames_mod
import rescaling.maps as maps
from rescaling import (AdvanceNotTerminating, AffineFrame, AssertionFailed,
                       DegenerateFamily, FrameClass, GaussianRational, MapL,
                       PrecisionExhausted, PuiseuxSeries, RescalingError,
                       ScanResult, StepResult, advance, canonicalize,
                       compose_reduced, conjugate, cpoly,
                       cycle_limit_crosscheck, escape_bound, find_cycle,
                       frame_size, gauss_normalize, iterate_family,
                       monomial_seed_scan, parse_family, parse_frame,
                       period_set_check, precompose_affine, reduce_family)
from rescaling.config import ITERATE_WINDOW_CAP
from rescaling.maps import block_min_val, residues
from .support import (FAMILIES, MCMULLEN, NORMAL_FORM_SEED, QUAD0, cycle,
                      family, normal_forms, random_families, reduced, scan)

t_pow = PuiseuxSeries.t_power


def frame(h, c=None):
    return AffineFrame(Fraction(h), c if c is not None
                       else PuiseuxSeries.zero())


# -- canonicalization --------------------------------------------------------


def test_canonicalize_cuts_center_at_h():
    fr = frame(1, PuiseuxSeries.build([(0, 2), (1, 3), (2, 1)], inf))
    fc = canonicalize(fr)
    assert fc.h == 1
    assert fc.c == PuiseuxSeries.constant(2)


def test_canonicalize_needs_center_precision():
    with pytest.raises(PrecisionExhausted):
        canonicalize(frame(3, PuiseuxSeries.zero(trunc=1)))


def test_frame_class_equality():
    a = canonicalize(frame(1, PuiseuxSeries.constant(2)))
    b = canonicalize(frame(1, PuiseuxSeries.build([(0, 2), (5, 9)], inf)))
    assert a == b and hash(a) == hash(b)
    assert a != canonicalize(frame(2, PuiseuxSeries.constant(2)))


@pytest.mark.parametrize("key, text", [
    ("quad0", "1, 1/(1-t)"), ("mcm", "1/3, t^(1/3)/(1-t)"),
    ("lattes", "2/5, 1/(1+t)"),
], ids=["quad0", "mcm", "lattes"])
def test_center_terms_above_h_change_no_reduction(key, text):
    # parse_frame keeps the center's terms up to t^h; a generic term above
    # it changes neither the reductions in the frame nor the class
    fam, cut = family(key), parse_frame(text)
    longer = AffineFrame(cut.h, cut.c + t_pow(cut.h + Fraction(1, 2), 3))
    for in_frame in (precompose_affine, conjugate):
        assert reduce_family(in_frame(fam, cut)) \
            == reduce_family(in_frame(fam, longer))
    assert canonicalize(cut) == canonicalize(longer)


# -- one advance step --------------------------------------------------------


def test_advance_quadratic_first_step():
    st_ = advance(family("quad0"), parse_frame("1"))
    assert str(st_.target) == "(-1, 0)"
    assert str(st_.limit) == "(-z + 1)/z^2"


def test_advance_lattes_to_identity():
    st_ = advance(family("lattes"), parse_frame("1"))
    assert str(st_.target) == "(0, 0)"
    assert st_.limit == reduced("-1/(4*(z^2 - z))")


def test_advance_lattes_half():
    st_ = advance(family("lattes"), parse_frame("1/2"))
    assert str(st_.target) == "(1, 0)"
    assert st_.limit == reduced("(-1/4*z^4 + 1/2*z^2 - 1/4)/z^2")


# -- cycles ------------------------------------------------------------------


def test_quadratic_period_two_cycle():
    c = cycle("quad0", "1")
    assert [str(f) for f in c.frames] == ["(1, 0)", "(-1, 0)"]
    assert c.period == 2 and not c.preperiod_frames
    assert [str(s.limit) for s in c.steps] == ["(-z + 1)/z^2", "(z - 1)/z"]
    assert c.limit == reduced("(z^2+z-1)/(z-1)")
    assert c.degree == 2


def test_quadratic_period_three_cycle():
    c = cycle("quad0", "3")
    assert [str(f) for f in c.frames] == ["(3, 0)", "(-5, 0)", "(5, t)"]
    assert [str(s.limit) for s in c.steps] == ["1/z^2", "-1/z", "-z"]
    assert c.limit == reduced("z^2")


def test_quadratic_perturbed_period_three_cycle():
    c = cycle("quad1", "3")
    assert [str(f) for f in c.frames] == ["(3, 0)", "(-5, 0)", "(5, t)"]
    assert [str(s.limit) for s in c.steps] == ["1/z^2", "(-z - 1)/z", "-z"]
    assert c.limit == reduced("z^2 + 1")


def test_quadratic_cycles_survive_a_rational_substitution():
    # t -> t/(1+t) is applied exactly; the frames of t and of t/(1+t) at
    # the same exponent differ by a unit, so the cycles keep their bases,
    # periods and limits
    fam = parse_family(QUAD0, subst="t/(1+t)")
    assert all(c.is_exact for c in fam.coeffs())
    two = find_cycle(fam, parse_frame("1"))
    assert [str(f) for f in two.frames] == ["(1, 0)", "(-1, 0)"]
    assert two.limit == reduced("(z^2+z-1)/(z-1)")
    three = find_cycle(fam, parse_frame("3"))
    assert [str(f) for f in three.frames[:2]] == ["(3, 0)", "(-5, 0)"]
    assert three.period == 3 and three.limit == reduced("z^2")
    assert cycle_limit_crosscheck(fam, three)


def test_cubic_cycles_all_three_parametrizations():
    c = cycle("cubic", "3")
    assert [str(f) for f in c.frames] == ["(3, 0)", "(5, 1)", "(4, 1 + t)"]
    assert c.limit == reduced("z^2")
    c = cycle("cubic_shift", "5")
    assert [str(f) for f in c.frames] == ["(5, 0)", "(8, 1)", "(6, t)"]
    assert c.limit == reduced("2*z^2")
    c = cycle("cubic_inv", "4")
    assert [str(f) for f in c.frames] == ["(4, 0)", "(7, 1)", "(6, t^-1 + 1)"]
    assert c.limit == reduced("-2*z^2")


def test_cubic_seed_two_escapes():
    # f_t(z) = a3 z^3 + a2 z^2 + 1 with v(a3) = v(a2) = -1.  In a frame
    # (h, 0) with h <= 0 the cubic term t^(3h-1) w^3 dominates (3h - 1 <
    # 2h - 1 for h < 0, a tie at h = 0 that still lands on degree 3 at
    # center 0), so the next frame is (3h - 1, 0): the exponent strictly
    # decreases and no frame class can repeat once the orbit reaches h <= 0.
    fam = family("cubic")
    vals = [fam.num[i].valuation() - fam.den[0].valuation() for i in (3, 2, 0)]
    assert vals == [-1, -1, 0]
    assert fam.num[1].is_zero and all(c.is_zero for c in fam.den[1:])
    fc = canonicalize(parse_frame("2"))
    orbit = [fc]
    for _ in range(10):
        fc = advance(fam, fc).target
        orbit.append(fc)
    assert [int(f.h) for f in orbit[:8]] == [2, 3, 2, 1, 1, 0, -1, -4]
    drift = orbit[5:]
    assert drift[0] == canonicalize(parse_frame("0"))
    for src, tgt in zip(drift, drift[1:]):
        assert tgt == canonicalize(parse_frame(str(3 * src.h - 1)))
    with pytest.raises(AdvanceNotTerminating):
        find_cycle(fam, parse_frame("2"), 24)


def test_mcmullen_cycles():
    c = cycle("mcm", "1/3")
    assert c.period == 1 and str(c.base) == "(1/3, 0)"
    assert c.limit == reduced("1/z^2")
    c = cycle("mcm", "1/7")
    assert [str(f.h) for f in c.frames] == ["1/7", "3/7"]
    assert [str(s.limit) for s in c.steps] == ["z^3", "1/z^2"]
    assert c.limit == reduced("1/z^6")
    c = cycle("mcm", "1/11")
    assert [str(f.h) for f in c.frames] == ["1/11", "3/11", "5/11"]
    assert c.limit == reduced("z^12")
    c = cycle("mcm", "1/19")
    assert [str(f.h) for f in c.frames] == ["1/19", "3/19", "9/19"]
    assert c.limit == reduced("1/z^18")


def test_lattes_trivial_cycle():
    c = cycle("lattes", "0")
    assert c.period == 1 and str(c.base) == "(0, 0)"
    assert c.limit == reduced("z^2/(4*(z-1))")


def test_lattes_preperiod():
    c = cycle("lattes", "1/5")
    assert [str(f) for f in c.preperiod_frames] == ["(1/5, 0)"]
    assert str(c.base) == "(2/5, 0)"
    assert c.limit == reduced("-4/z^4")


def test_cycle_base_is_first_entered_frame():
    c = cycle("mcm", "3/7")
    # seeding inside the cycle starts it there; same frames, rotated
    assert str(c.base) == "(3/7, 0)"
    assert [str(s.limit) for s in c.steps] == ["1/z^2", "z^3"]
    assert c.limit == reduced("1/z^6")


def test_step_limits_compose_to_cycle_limit():
    for key, seed in [("quad0", "1"), ("quad0", "3"), ("mcm", "1/7"),
                      ("cubic", "3")]:
        c = cycle(key, seed)
        g = c.steps[0].limit
        for s in c.steps[1:]:
            g = compose_reduced(s.limit, g)
        assert g == c.limit


# every fixture cycle with d^q <= 64; each has period <= 4
FIXTURE_CYCLES = [("quad0", "1"), ("quad0", "3"), ("quad1", "1"),
                  ("quad1", "3"), ("lattes", "0"), ("lattes", "2/5"),
                  ("lattes", "2/3"), ("mcm", "1/3"), ("mcm", "1/7"),
                  ("cubic", "3"), ("cubic_shift", "5"), ("cubic_inv", "4"),
                  ("mil4", "-1/2"), ("mil2", "-1/2")]


# The cycles of f(z) = z (z + 1/t) / (m z + 1) at (-1/2, 0), m = i (mil4)
# and m = -1 (mil2), by hand; write s = t^(1/2).
# - In the frame (-1/2, 0), z = w / s, so
#   f(z) = t^-1 (1 + s w) / (m + s / w) = m^-1 t^-1 (1 + s (w - 1/(m w)))
#   + O(1): the next frame is (-1/2, m^-1 t^-1), with step limit
#   m^-1 (w - 1/(m w)), which is (-i z^2 + 1)/z for m = i and
#   (-z^2 - 1)/z for m = -1.
# - In a frame (-1/2, a t^-1), a != 0, z = t^-1 (a + s w), so
#   f(z) = t^-1 (a + s w)(a + 1 + s w) / (m (a + s w) + t)
#   = m^-1 t^-1 (a + 1 + s w) (1 + O(t)): the next frame is
#   (-1/2, m^-1 (a + 1) t^-1), with step limit m^-1 w.
# - For m = i the centers run 0, -i, -1 - i, -1 and back to 0, so the
#   period is 4 and the limit is (-i)^3 (-i z^2 + 1)/z = (z^2 + i)/z.
# - For m = -1 they run 0, -1 and back to 0, so the period is 2 and the
#   limit is -(-z^2 - 1)/z = (z^2 + 1)/z.
def test_normal_form_cycles_have_the_limits_derived_by_hand():
    c = cycle("mil4", "-1/2")
    assert [str(f) for f in c.frames] == [
        "(-1/2, 0)", "(-1/2, -i*t^-1)", "(-1/2, (-1-i)*t^-1)",
        "(-1/2, -t^-1)"]
    assert c.steps[0].limit == reduced("(-i*z^2 + 1)/z")
    assert all(s.limit == reduced("-i*z") for s in c.steps[1:])
    assert c.limit == reduced("(z^2 + i)/z")
    c = cycle("mil2", "-1/2")
    assert [str(f) for f in c.frames] == ["(-1/2, 0)", "(-1/2, -t^-1)"]
    assert [s.limit for s in c.steps] == [reduced("(-z^2 - 1)/z"),
                                          reduced("-z")]
    assert c.limit == reduced("(z^2 + 1)/z")


def test_cycle_limit_crosscheck_fixtures():
    for key, seed in FIXTURE_CYCLES:
        c = cycle(key, seed)
        assert family(key).degree ** c.period <= 64
        assert cycle_limit_crosscheck(family(key), c), (key, seed)


# -- period sets -------------------------------------------------------------


def test_period_set_quadratic_base_frame():
    rep = period_set_check(family("quad0"), parse_frame("1"), 6)
    assert rep.degrees == {1: 0, 2: 2, 3: 0, 4: 4, 5: 0, 6: 8}
    assert rep.law_holds
    assert rep.period == 2


def test_period_set_quadratic_deep_frame():
    rep = period_set_check(family("quad0"), parse_frame("3"), 6)
    assert rep.degrees == {1: 0, 2: 0, 3: 2, 4: 0, 5: 0, 6: 4}
    assert rep.law_holds
    assert rep.period == 3


def test_iterate_window_widens_then_gives_up(monkeypatch):
    # the search starts at the valuation spread of quad0 conjugated at
    # frame 1, which is 2, and gives up after the last window, 256
    windows = []

    def too_narrow(outer, inner, window):
        windows.append(window)
        raise PrecisionExhausted("window too narrow")

    monkeypatch.setattr(frames_mod, "compose_families", too_narrow)
    with pytest.raises(PrecisionExhausted):
        period_set_check(family("quad0"), parse_frame("1"), 2)
    assert windows == [2, 4, 8, 16, 32, 64, 128, 256]


# -- scans -------------------------------------------------------------------


def test_lattes_scan():
    res = scan("lattes", 5)
    assert res.seeds_scanned == 9
    found = {tuple(str(f.h) for f in c.frames): str(c.limit)
             for c in res.cycles}
    assert found == {
        ("2/5", "4/5"): "-4/z^4",
        ("0",): "1/4*z^2/(z - 1)",
        ("2/3",): "-1/4/z^2",
    }
    assert res.escaped == [] and res.failed == {} and res.degree_one == []


def test_mcmullen_scan_finds_known_cycles():
    res = scan("mcm", 19)
    found = {tuple(str(f.h) for f in c.frames) for c in res.cycles}
    assert ("1/3",) in found
    assert ("1/7", "3/7") in found
    assert ("1/11", "3/11", "5/11") in found
    assert ("1/19", "3/19", "9/19") in found
    assert ("0",) in found
    assert len(res.cycles) == 5
    assert Fraction(1, 5) in res.escaped
    assert not res.failed


def test_scan_deduplicates_cycles():
    res = scan("mcm", 7)
    # 1/7 and 3/7 land on the same cycle; it appears once
    periods = sorted(c.period for c in res.cycles)
    assert periods == [1, 1, 2]


# -- escape certificate ------------------------------------------------------


def test_escape_bound_values():
    assert escape_bound(family("mcm")) == 0
    assert escape_bound(family("cubic")) == 0
    # d - e < 2: Lattes has d - e = 1, quad0 has d = e = 2
    assert escape_bound(family("lattes")) is None
    assert escape_bound(family("quad0")) is None


def _certified_frames():
    """First frame below the bound on each fixture escape orbit."""
    out = {}
    seeds = [("cubic", parse_frame("2"))] + [
        ("mcm", frame(h)) for h in scan("mcm", 5).escaped]
    for key, seed in seeds:
        fam = family(key)
        bound = escape_bound(fam)
        fc = canonicalize(seed)
        before = [fc]
        while frame_size(fc) >= bound:
            fc = advance(fam, fc).target
            before.append(fc)
        out[(key, str(fc))] = (fam, bound, before)
    return out


def test_escape_certificate_is_sound():
    # the lemma of escape_bound, checked on the uncapped orbit: from the
    # first certified frame on, no class repeats and the sizes decrease
    certified = _certified_frames()
    assert ("cubic", "(-1, 0)") in certified
    assert ("mcm", "(-1/5, 0)") in certified
    for (key, _), (fam, bound, before) in certified.items():
        fc = before[-1]
        seen = {f.key() for f in before[:-1]}
        assert all(frame_size(f) >= bound for f in before[:-1])
        for _ in range(256):
            assert fc.key() not in seen, key
            seen.add(fc.key())
            nxt = advance(fam, fc).target
            assert frame_size(nxt) < frame_size(fc) < bound, key
            fc = nxt


def test_cubic_escape_certified_within_six_advances(monkeypatch):
    calls = []
    real = frames_mod.advance

    def counting(fam, fr):
        calls.append(fr)
        return real(fam, fr)

    monkeypatch.setattr(frames_mod, "advance", counting)
    with pytest.raises(AdvanceNotTerminating) as info:
        find_cycle(family("cubic"), parse_frame("2"))
    assert len(calls) <= 6
    details = info.value.details
    assert details["frame"] == "(-1, 0)"
    assert details["size"] == -1 and details["bound"] == 0
    assert details["drift"] == "m -> 3m - 1"


def _capped_scan(fam, max_denominator, max_steps=64):
    """Seed scan by a plain advance loop that stops only at its cap."""
    seeds = sorted({Fraction(p, q) for q in range(2, max_denominator + 1)
                    for p in range(1, q)})
    cycles, trivial, escaped, failed = [], [], [], {}
    seen = set()
    for h in seeds:
        orbit = [canonicalize(frame(h))]
        keys = [orbit[0].key()]
        degrees = []
        try:
            while len(degrees) < max_steps:
                st_ = advance(fam, orbit[-1])
                degrees.append(st_.limit.degree)
                if st_.target.key() in keys:
                    break
                orbit.append(st_.target)
                keys.append(st_.target.key())
            else:
                escaped.append(h)
                continue
        except RescalingError as exc:
            failed[h] = type(exc).__name__
            continue
        j = keys.index(st_.target.key())
        if frozenset(keys[j:]) in seen:
            continue
        seen.add(frozenset(keys[j:]))
        degree = 1
        for dg in degrees[j:]:
            degree *= dg
        (trivial if degree <= 1 else cycles).append(
            tuple(str(f) for f in orbit[j:]))
    return cycles, trivial, escaped, failed


def test_scan_matches_capped_advance_loop():
    fam = family("mcm")
    cycles, trivial, escaped, failed = _capped_scan(fam, 11)
    res = monomial_seed_scan(fam, 11)
    assert [tuple(str(f) for f in c.frames) for c in res.cycles] == cycles
    assert [tuple(str(f) for f in c.frames) for c in res.degree_one] \
        == trivial
    assert res.escaped == escaped
    assert {h: msg.split(":")[0] for h, msg in res.failed.items()} == failed
    assert len(escaped) == 26 and not failed


def _scan_by_seed(fam, max_denominator):
    """The scan's result from one memo-free find_cycle call per seed."""
    zero = PuiseuxSeries.zero()
    seeds = sorted({Fraction(p, q) for q in range(2, max_denominator + 1)
                    for p in range(1, q)})
    out = ScanResult(seeds_scanned=len(seeds))
    for h in seeds:
        try:
            cyc = find_cycle(fam, AffineFrame(h, zero))
        except AdvanceNotTerminating as exc:
            if "bound" in (exc.details or {}):
                out.escaped.append(h)
            else:
                out.failed[h] = f"{type(exc).__name__}: {exc}"
            continue
        except RescalingError as exc:
            out.failed[h] = f"{type(exc).__name__}: {exc}"
            continue
        if any(fr == cyc.base for old in out.cycles + out.degree_one
               for fr in old.frames):
            continue
        (out.degree_one if cyc.is_trivial else out.cycles).append(cyc)
    return out


@pytest.mark.parametrize("text", [MCMULLEN, MCMULLEN.replace("t", "1.0*t")],
                         ids=["exact", "float"])
def test_scan_advances_each_class_once(monkeypatch, text):
    fam = parse_family(text)
    sources = []
    real = frames_mod.advance

    def counting(fam_, fr):
        fc = canonicalize(fr)
        sources.append(fc.key())
        return real(fam_, fr)

    monkeypatch.setattr(frames_mod, "advance", counting)
    res = monomial_seed_scan(fam, 11)
    assert len(sources) == len(set(sources)) == 42
    monkeypatch.undo()
    assert res == _scan_by_seed(fam, 11)
    assert len(res.cycles) == 4 and len(res.escaped) == 26


def test_scan_result_starts_empty_and_compares_by_value():
    a, b = ScanResult(seeds_scanned=3), ScanResult(seeds_scanned=3)
    assert (a.cycles, a.degree_one, a.escaped, a.failed) == ([], [], [], {})
    assert a.seeds_scanned == 3 and a.escaped is not b.escaped
    assert a == b and a != ScanResult(seeds_scanned=4)
    a.escaped.append(Fraction(1, 2))
    assert a != b
    b.escaped.append(Fraction(1, 2))
    assert a == b


@pytest.mark.parametrize("record, field", [("step", "n_corrections"),
                                           ("cycle", "limit")])
def test_result_records_are_immutable(record, field):
    cyc = cycle("quad0", "1")
    obj = cyc.steps[0] if record == "step" else cyc
    with pytest.raises(AttributeError):
        setattr(obj, field, None)


# -- float families ----------------------------------------------------------


def test_float_spelling_gives_the_same_cycles():
    # a decimal literal is the rational it spells, so the cycles are equal
    exact = family("quad0")
    spelled = parse_family(QUAD0.replace("1+t^2", "1.0+t^2"))
    for seed in ("1", "3"):
        ce = find_cycle(exact, parse_frame(seed))
        cs = find_cycle(spelled, parse_frame(seed))
        assert cs.frames == ce.frames
        assert cs.preperiod_frames == ce.preperiod_frames
        assert cs.limit == ce.limit


# -- equivalence properties --------------------------------------------------

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
hs = st.fractions(min_value=-2, max_value=3, max_denominator=3)
center_terms = st.lists(
    st.tuples(st.fractions(min_value=-2, max_value=4, max_denominator=2),
              coeffs),
    max_size=2)


def _frame_from(h, terms):
    return AffineFrame(h, PuiseuxSeries.build(terms, inf))


def equivalent_via_reduction(a, b) -> bool:
    """Whether two frames are equivalent: the oracle of :func:`canonicalize`,
    which it does not call.  It checks that the residue of the degree-1
    family M_b^-1 o M_a is a translation."""
    fa = a.frame() if isinstance(a, FrameClass) else a
    fb = b.frame() if isinstance(b, FrameClass) else b
    num = [(fa.c - fb.c).shift(-fb.h), PuiseuxSeries.t_power(fa.h - fb.h)]
    den = [PuiseuxSeries.one()]
    try:
        red = reduce_family(MapL(num, den))
    except (PrecisionExhausted, DegenerateFamily):
        return False
    # same class iff the transition tends to a translation w + e: centers may
    # disagree at order exactly t^h and still describe the same window
    return (len(red.den) == 1 and red.den[0].is_one
            and len(red.num) == 2 and red.num[1].is_one)


@given(hs, center_terms, center_terms)
def test_canonical_equality_matches_reduction_equivalence(h, ta, tb):
    a = _frame_from(h, ta)
    b = _frame_from(h, tb)
    assert (canonicalize(a) == canonicalize(b)) \
        == equivalent_via_reduction(a, b)


@given(hs, hs, center_terms)
def test_distinct_zooms_are_never_equivalent(ha, hb, terms):
    assume(ha != hb)
    a = _frame_from(ha, terms)
    b = _frame_from(hb, terms)
    assert not equivalent_via_reduction(a, b)
    assert canonicalize(a) != canonicalize(b)


@given(st.sampled_from(["1", "3"]),
       st.fractions(min_value=0, max_value=3, max_denominator=2),
       coeffs.filter(bool))
def test_advance_is_class_invariant(seed, bump, eps):
    # moving the center inside its own ball must not change the step
    base = cycle("quad0", seed).base
    ref = advance(family("quad0"), base)
    shifted = AffineFrame(
        base.h, base.c + t_pow(base.h + bump, eps))
    out = advance(family("quad0"), shifted)
    assert out.target == ref.target
    assert out.limit == ref.limit


# -- the correction loop's termination lemma ---------------------------------


def _resultant_valuation_at(fam, d):
    """v(Res) at the formal degree d of a family whose exact coefficients
    have valuation >= 0: its Sylvester matrix over Q(i)[s], s = t^(1/r)."""
    r = lcm(*(e.denominator for c in fam.coeffs() for e, _ in c.terms))

    def s_poly(c):
        out = [GaussianRational.zero()] * (
            int(c.terms[-1][0] * r) + 1 if c.terms else 0)
        for e, g in c.terms:
            out[int(e * r)] = g
        return out

    pad = [PuiseuxSeries.zero()] * (d - fam.degree)
    det = cpoly.trim(cpoly.pdet(cpoly.sylvester(
        *[[s_poly(c) for c in list(b) + pad] for b in (fam.num, fam.den)],
        [])))
    return Fraction(next(k for k, g in enumerate(det) if not g.is_zero),
                    r) if det else inf


def _spend(state):
    """What advance's correction from a normalized state spends: delta for
    a subtraction, |a| for a rebalance."""
    p, q = residues(state)
    if p and q:
        i = next(i for i, c in enumerate(q) if not c.is_zero)
        return block_min_val(cpoly.padd(
            state.num, cpoly.pscale(state.den, -(p[i] / q[i]))))
    return abs(block_min_val(state.den) - block_min_val(state.num))


@settings(max_examples=30)
@given(random_families, st.builds(_frame_from, hs, center_terms))
@example(parse_family("z^2 + t"),
         parse_frame("7, t + t^2 + 2*t^3 + 5*t^4 + 14*t^5 + 42*t^6"))
def test_corrections_spend_the_resultant_valuation(fam, fr):
    # advance's lemma: at each correction v(Res) at the formal degree falls
    # by d times what the correction spends, and it never goes below 0
    states, scales = [], []
    real, pack = frames_mod._normalized, frames_mod.precompose_ints

    def spy(num, den):
        states.append(real(num, den))
        return states[-1]

    def packing(fam_, frame_):
        out = pack(fam_, frame_)
        scales.append(out[0])
        return out

    with mock.patch.object(frames_mod, "_normalized", spy), \
            mock.patch.object(frames_mod, "precompose_ints", packing):
        step = advance(fam, fr)
    # each packed state is over one unknown denominator; read as Gaussian
    # integers it is the loop's state times a constant, which changes
    # neither valuations nor residue ratios
    states = [MapL(*maps._unpack(state, scales[0], 1)) for state in states]
    assert len(states) == step.n_corrections + 1
    d = fam.degree
    vals = [_resultant_valuation_at(s, d) for s in states]
    assert all(0 <= v < inf for v in vals)
    for k in range(step.n_corrections):
        assert vals[k + 1] == vals[k] - d * _spend(states[k])


@given(st.one_of(random_families, normal_forms),
       st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                        Fraction(-1, 3), Fraction(1, 1000)]),
       st.sampled_from([PuiseuxSeries.zero(), PuiseuxSeries.one(),
                        t_pow(Fraction(1, 5))]),
       st.integers(1, 12))
@example(parse_family(MCMULLEN), Fraction(1, 1000), PuiseuxSeries.zero(), 12)
def test_orbit_never_ramifies_beyond_its_seed(fam, h, c, max_steps):
    # advance's corollary: every frame of the orbit has h and center
    # exponents in (1/R)Z, R the lcm of the denominators in f and the seed
    R = lcm(h.denominator, *(e.denominator for s in fam.coeffs() + (c,)
                             for e, _ in s.terms))
    memo = {}
    try:
        find_cycle(fam, AffineFrame(h, c), max_steps, memo)
    except RescalingError:
        pass  # the frames visited before the orbit ended still count
    visited = [canonicalize(AffineFrame(h, c))] + [
        step.target for step in memo.values()]
    for fc in visited:
        assert R % fc.h.denominator == 0
        assert all(R % e.denominator == 0 for e, _ in fc.c.terms)


DEGENERATE = MapL(
    [PuiseuxSeries.zero(), PuiseuxSeries.one()],
    [PuiseuxSeries.zero(), PuiseuxSeries.build([(0, 1), (1, 1)], inf)])


@pytest.mark.parametrize("fam", [DEGENERATE, parse_family("1/(1-t)")],
                         ids=["degenerate", "constant"])
def test_advance_refuses_a_family_the_lemma_does_not_cover(fam):
    # z/((1 + t) z) subtracts forever, and so does the constant 1/(1 - t),
    # through its expansion in t
    with pytest.raises(DegenerateFamily):
        advance(fam, parse_frame("1"))


# -- advance on packed integers against the loop on series -------------------


def _series_proportional(p, q):
    """The constant c with p = c*q, or None. p, q trimmed and nonzero."""
    i0 = next(i for i, c in enumerate(q) if not c.is_zero)
    if i0 >= len(p):
        return None
    c1 = p[i0] / q[i0]
    diff = cpoly.psub(p, cpoly.pscale(q, c1))
    return c1 if cpoly.is_zero_poly(diff) else None


def _series_advance(fam, frame):
    """advance with its correction loop on series families: the reference
    for the loop on packed integers."""
    src = canonicalize(frame)
    work = precompose_affine(fam, src.frame())
    u = Fraction(0)
    v = PuiseuxSeries.zero()
    corrections = 0
    while True:
        work = gauss_normalize(work)
        p_res, q_res = residues(work)
        if p_res and q_res:
            c1 = _series_proportional(p_res, q_res)
            if c1 is None:
                break
            gnum = cpoly.padd(work.num, cpoly.pscale(work.den, -c1))
            delta = block_min_val(gnum)
            if delta == inf:
                raise DegenerateFamily(
                    "family is exactly an affine constant in this frame")
            work = MapL([c.shift(-delta) for c in gnum], work.den)
            u -= delta
            v = (v - c1).shift(-delta)
        else:
            a = block_min_val(work.den) - block_min_val(work.num)
            work = MapL([c.shift(a) for c in work.num], work.den)
            u += a
            v = v.shift(a)
        corrections += 1
        if corrections == frames_mod._DEGENERACY_CHECK_AFTER:
            if fam.degree < 1:
                raise DegenerateFamily(
                    "family is constant in z, so no frame has a "
                    "non-constant residue")
            if maps.resultant_vanishes(fam):
                raise DegenerateFamily("resultant vanishes identically")
    limit = reduce_family(work)
    if limit.degree < 1:
        raise AssertionFailed("advance stopped on a constant residue",
                              details={"frame": str(src)})
    target = canonicalize(AffineFrame(-u, (-v).shift(-u)))
    return StepResult(src, target, limit, corrections)


def _step_outcome(step_fn, fam, fr):
    """The step with its limit's hole record, or the error's type and
    message."""
    out = _outcome(step_fn, fam, fr)
    if isinstance(out, StepResult):
        return (out, out.limit.holes, out.limit.inf_mult,
                out.limit.source_degree)
    return out


@given(st.one_of(random_families, normal_forms),
       st.builds(_frame_from, hs, center_terms))
@example(parse_family("z^2 + t"),
         parse_frame("7, t + t^2 + 2*t^3 + 5*t^4 + 14*t^5 + 42*t^6"))
@example(parse_family("(-i*z^0 + t^2*z^1)/(1*z^0 + 3*t^(1/2)*z^2)"),
         parse_frame("2"))
@example(parse_family("((1+i)*t^(0)*z^0)/((i)*t^(1/2)*z^0 + (1+i)*t^(2)*z^1"
                      " + (2)*t^(0)*z^2 + (i)*t^(0)*z^3)"), parse_frame("3/2"))
@example(DEGENERATE, parse_frame("1"))
@example(parse_family("1/(1-t)"), parse_frame("1"))
def test_advance_matches_the_series_loop(fam, fr):
    # the same step, limit, holes and corrections, or the same error
    assert _step_outcome(advance, fam, fr) \
        == _step_outcome(_series_advance, fam, fr)


def test_advance_builds_few_series(monkeypatch):
    # the loop on series built 39 here, one per coefficient and correction
    fam, fr = parse_family(MCMULLEN), parse_frame("1/7")
    built = []
    init = PuiseuxSeries.__init__

    def counting(self, terms, trunc):
        built.append(1)
        init(self, terms, trunc)

    monkeypatch.setattr(PuiseuxSeries, "__init__", counting)
    advance(fam, fr)
    assert len(built) <= 8


# -- iterate windows ---------------------------------------------------------

def _outcome(fn, *args):
    """fn's value, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except RescalingError as exc:
        return type(exc).__name__, str(exc)


def _widest_degrees(fam, fr, ell_max):
    """The reduced degrees of the conjugated iterates, each iterate kept
    within the widest window only."""
    g = conjugate(fam, canonicalize(fr).frame())
    return {ell: reduce_family(
        iterate_family(g, ell, ITERATE_WINDOW_CAP)).degree
        for ell in range(1, ell_max + 1)}


@given(st.one_of(normal_forms,
                 st.sampled_from(sorted(FAMILIES)).map(family)),
       st.one_of(st.just(parse_frame(NORMAL_FORM_SEED)),
                 st.builds(_frame_from, hs, center_terms)),
       st.integers(1, 3))
def test_period_set_check_answers_as_the_widest_window(fam, fr, ell_max):
    # the first window follows the family and frame; the degrees, or the
    # error, must be those that the widest window alone gives
    got = _outcome(lambda: period_set_check(fam, fr, ell_max).degrees)
    assert got == _outcome(_widest_degrees, fam, fr, ell_max)


@given(st.one_of(normal_forms.map(
           lambda fam: (fam, find_cycle(fam, parse_frame(NORMAL_FORM_SEED)))),
       st.sampled_from(FIXTURE_CYCLES).map(
           lambda ks: (family(ks[0]), cycle(*ks)))))
def test_crosscheck_answers_as_the_widest_window(case):
    fam, cyc = case
    g = conjugate(fam, cyc.base.frame())
    widest = _outcome(lambda: reduce_family(
        iterate_family(g, cyc.period, ITERATE_WINDOW_CAP)) == cyc.limit)
    assert _outcome(cycle_limit_crosscheck, fam, cyc) == widest
    assert widest is True
