"""Frame classes, the advance step, cycles, scans, and their invariants."""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import rescaling.frames as frames_mod
from rescaling import (AdvanceNotTerminating, AffineFrame, ApproxComplex,
                       PrecisionExhausted, PuiseuxSeries,
                       RamificationCapExceeded, RescalingError, advance,
                       canonicalize, compose_reduced, cycle_limit_crosscheck,
                       equivalent_via_reduction, escape_bound, find_cycle,
                       frame_size, monomial_seed_scan, parse_family,
                       parse_frame, period_set_check)
from rescaling.config import APPROX_ZERO_THRESHOLD
from .support import QUAD0, cycle, family, reduced, scan

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


def test_canonicalize_ramification_cap():
    with pytest.raises(RamificationCapExceeded):
        canonicalize(frame(Fraction(1, 1000)))


def test_frame_class_equality():
    a = canonicalize(frame(1, PuiseuxSeries.constant(2)))
    b = canonicalize(frame(1, PuiseuxSeries.build([(0, 2), (5, 9)], inf)))
    assert a == b and hash(a) == hash(b)
    assert a != canonicalize(frame(2, PuiseuxSeries.constant(2)))


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


def test_cycle_limit_crosscheck_fixtures():
    # every fixture cycle with d^q <= 64
    for key, seed in [("quad0", "1"), ("quad0", "3"), ("quad1", "1"),
                      ("quad1", "3"), ("lattes", "0"), ("lattes", "2/5"),
                      ("lattes", "2/3"), ("mcm", "1/3"), ("mcm", "1/7"),
                      ("cubic", "3"), ("cubic_shift", "5"),
                      ("cubic_inv", "4")]:
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


# -- float families ----------------------------------------------------------


def _close(a, b):
    return abs(a.to_complex() - b.to_complex()) <= APPROX_ZERO_THRESHOLD


def test_float_spelling_gives_the_same_cycles():
    exact = family("quad0")
    approx = parse_family(QUAD0.replace("1+t^2", "1.0+t^2"))
    assert approx.ftype is ApproxComplex
    for seed in ("1", "3"):
        ce = find_cycle(exact, parse_frame(seed))
        ca = find_cycle(approx, parse_frame(seed, ftype=ApproxComplex))
        assert ca.period == ce.period
        for fe, fa in zip(ce.frames, ca.frames):
            assert fa.h == fe.h
            assert [e for e, _ in fa.c.terms] == [e for e, _ in fe.c.terms]
            assert all(_close(a, b) for (_, a), (_, b)
                       in zip(fa.c.terms, fe.c.terms))
        for pa, pe in ((ca.limit.num, ce.limit.num),
                       (ca.limit.den, ce.limit.den)):
            assert len(pa) == len(pe)
            assert all(_close(a, b) for a, b in zip(pa, pe))


# -- equivalence properties --------------------------------------------------

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
hs = st.fractions(min_value=-2, max_value=3, max_denominator=3)
center_terms = st.lists(
    st.tuples(st.fractions(min_value=-2, max_value=4, max_denominator=2),
              coeffs),
    max_size=2)


def _frame_from(h, terms):
    return AffineFrame(h, PuiseuxSeries.build(terms, inf))


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
