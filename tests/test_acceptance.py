"""Acceptance gate: the advertised end-to-end facts, one line of output each.

Every test prints exactly one "criterion N: PASS/FAIL" line before its
assertions so a red run still reports the full scoreboard (run with -rA or -s
to see the lines for green tests too).
"""

import time
from fractions import Fraction

from hypothesis import settings

from rescaling import (advance, classify_limit, conjugate,
                       cycle_limit_crosscheck, find_cycle,
                       iterate_family, parse_frame, period_set_check,
                       quadratic_dichotomy_report, reduce_family,
                       verify_rescaling)
from . import conftest
from .support import cycle, family, reduced, scan

FIXTURE_CYCLES = [
    ("quad0", "1"), ("quad0", "3"), ("quad1", "1"), ("quad1", "3"),
    ("lattes", "0"), ("lattes", "2/5"), ("lattes", "2/3"),
    ("mcm", "1/3"), ("mcm", "1/7"), ("mcm", "1/11"), ("mcm", "1/19"),
    ("cubic", "3"), ("cubic_shift", "5"), ("cubic_inv", "4"),
    # limits (z^2 + i)/z and (z^2 + 1)/z, derived by hand in test_frames.py
    ("mil4", "-1/2"), ("mil2", "-1/2"),
]


def _line(n, desc, ok, note=""):
    tag = "PASS" if ok else "FAIL"
    extra = f"  [{note}]" if note else ""
    print(f"criterion {n}: {tag} - {desc}{extra}")


def test_criterion_1_cubic_seed_fixtures():
    # Independent of advance: reduce the conjugated third iterate directly.
    # Around the critical 3-cycle 0 -> 1 -> 1+t -> 0 of the t -> 0 family,
    # t^-h f^3(t^h w) = t^(h-3) w^2 (1 + o(1)), so the frame exponent obeys
    # h -> 2h - 3 with fixed point 3: the limit is z^2 at h = 3 and the
    # constant infinity at h = 2, whose orbit escapes (see test_frames).
    cubic = family("cubic")
    third = {h: reduce_family(iterate_family(
                 conjugate(cubic, parse_frame(h)), 3, window=16))
             for h in ("2", "3")}
    ok_iterates = third["3"] == reduced("z^2") and third["2"].degree < 1
    t0 = time.monotonic()
    c3 = find_cycle(cubic, parse_frame("3"))
    ok_first = c3.period == 3 and c3.limit == reduced("z^2")
    t1 = time.monotonic()
    c5 = find_cycle(family("cubic_shift"), parse_frame("5"))
    ok_shift = c5.period == 3 and c5.limit == reduced("2*z^2")
    t2 = time.monotonic()
    c4 = find_cycle(family("cubic_inv"), parse_frame("4"))
    ok_inv = c4.period == 3 and c4.limit == reduced("-2*z^2")
    t3 = time.monotonic()
    timings = (t1 - t0, t2 - t1, t3 - t2)
    ok_time = all(dt < 5.0 for dt in timings)
    ok = ok_iterates and ok_first and ok_shift and ok_inv and ok_time
    _line(1, "cubic seeds (3,0)/(5,0)/(4,0) give period 3 with limits "
             "z^2 / 2z^2 / -2z^2, each under 5s", ok,
          f"reduced third iterate {third['3']} at (3,0), "
          f"{third['2']} at (2,0)")
    assert ok_iterates, {h: str(r) for h, r in third.items()}
    assert ok_first, (c3.period, str(c3.limit))
    assert ok_shift, str(c5.limit)
    assert ok_inv, str(c4.limit)
    assert ok_time, timings


def test_criterion_2_quadratic_family_both_parameters():
    t0 = time.monotonic()
    ok = True
    notes = []
    for key, a in (("quad0", "0"), ("quad1", "1")):
        c2, c3 = cycle(key, "1"), cycle(key, "3")
        pair_ok = (
            c2.period == 2
            and c2.limit == reduced("(z^2+z-1)/(z-1)")
            and classify_limit(c2.limit).multiple_fixed_point
            and c3.period == 3
            and c3.limit == reduced(f"z^2 + {a}")
            and classify_limit(c3.limit).polynomial_like)
        rep = quadratic_dichotomy_report([c2, c3], 2)
        if rep.case != "i":
            pair_ok = False
            notes.append(f"a={a}: dichotomy case {rep.case}")
        ok = ok and pair_ok
        if not pair_ok and not notes:
            notes.append(f"a={a}: wrong cycle data")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _line(2, "quadratic family a=0 and a=1: period-2 limit "
             "(z^2+z-1)/(z-1) with a multiple fixed point, period-3 limit "
             "z^2+a polynomial-like, dichotomy case i", ok,
          "; ".join(notes))
    assert ok, notes


def test_criterion_3_degenerate_elliptic_family():
    st = advance(family("lattes"), parse_frame("0"))
    fixed_ok = st.target == st.source \
        and st.limit == reduced("z^2/(4*(z-1))")
    res = scan("lattes", 5)
    by_frames = {tuple(str(f.h) for f in c.frames): c for c in res.cycles}
    cyc = by_frames.get(("2/5", "4/5"))
    cycle_ok = cyc is not None and cyc.limit == reduced("-4/z^4")
    statuses = {classify_limit(c.limit).pcf.status for c in res.cycles}
    pcf_ok = statuses == {"PCF_Certified"}
    ok = fixed_ok and cycle_ok and pcf_ok
    _line(3, "elliptic degeneration: trivial frame fixed with limit "
             "z^2/(4(z-1)); scan to denominator 5 finds {2/5, 4/5} with "
             "limit -4/z^4; every found limit is certified PCF", ok,
          f"statuses {sorted(statuses)}")
    assert fixed_ok
    assert cycle_ok
    assert pcf_ok, statuses


def test_criterion_4_unbounded_critical_orbit_family():
    st = advance(family("mcm"), parse_frame("1/3"))
    fixed_ok = st.target == st.source and st.limit == reduced("1/z^2")
    res = scan("mcm", 19)
    by_frames = {tuple(str(f.h) for f in c.frames): c for c in res.cycles}
    pair = by_frames.get(("1/7", "3/7"))
    pair_ok = pair is not None and pair.limit == reduced("1/z^6")
    sixth = Fraction(1, 6)
    law_ok = True
    notes = []
    for c in res.cycles:
        # recount the exponents that fall in [0, 1/6] by direct inspection
        m = sum(1 for f in c.frames if 0 <= f.h <= sixth)
        e = 3 ** m * (-2) ** (c.period - m)
        expected = reduced(f"z^{e}" if e > 0 else f"1/z^{-e}")
        if c.limit != expected:
            law_ok = False
            notes.append(f"{[str(f.h) for f in c.frames]}: limit {c.limit}, "
                         f"law predicts z^{e}")
    ok = fixed_ok and pair_ok and law_ok and len(res.cycles) >= 4
    _line(4, "power-plus-perturbation family: frame 1/3 fixed with limit "
             "1/z^2; cycle {1/7, 3/7} gives 1/z^6; every scanned cycle "
             "limit is z^(3^m (-2)^(q-m)) with m recounted by brute force",
          ok, "; ".join(notes) or f"{len(res.cycles)} cycles checked")
    assert fixed_ok
    assert pair_ok
    assert law_ok, notes


def test_criterion_5_iterate_degree_pattern():
    rep = period_set_check(family("quad0"), parse_frame("1"), 6)
    heavy = {ell for ell, dg in rep.degrees.items() if dg >= 2}
    ok = heavy == {2, 4, 6} and rep.law_holds
    _line(5, "conjugated iterate degrees up to 6 on the quadratic family "
             "exceed 1 exactly at multiples of the period", ok,
          f"degrees {rep.degrees}")
    assert ok, rep.degrees


def test_criterion_6_property_suites():
    prof = settings.get_profile("suite")
    config_ok = prof.max_examples >= 200 and prof.derandomize
    crosscheck_ok = True
    checked = 0
    for key, seed in FIXTURE_CYCLES:
        c = cycle(key, seed)
        if family(key).degree ** c.period > 64:
            continue
        checked += 1
        if not cycle_limit_crosscheck(family(key), c):
            crosscheck_ok = False
    ok = config_ok and crosscheck_ok and checked >= 10
    _line(6, "property suites run at 200+ derandomized cases "
             "(ultrametric, advance invariance, equivalence, degree "
             "accounting); iterate crosscheck holds on every fixture cycle "
             "with d^q <= 64", ok, f"{checked} cycles crosschecked")
    assert config_ok
    assert crosscheck_ok


def test_criterion_7_numeric_verification():
    failures = []
    for key, seed in FIXTURE_CYCLES:
        rep = verify_rescaling(family(key), cycle(key, seed))
        mono = all(a >= b for a, b in zip(rep.max_errors, rep.max_errors[1:]))
        if not (rep.passed and mono and rep.control_rejected):
            failures.append(f"{key} {seed}: errors {rep.max_errors}, "
                            f"control {rep.control_error:.2e}")
    wrong = reduced("(z^2 + 2*z - 2)/(z - 1)")
    control = verify_rescaling(family("quad0"),
                               cycle("quad0", "1")._replace(limit=wrong))
    control_ok = not control.passed
    ok = not failures and control_ok
    _line(7, "every fixture cycle passes the default numeric check with "
             "nonincreasing errors and a rejected shifted control; a "
             "deliberately wrong limit fails", ok, "; ".join(failures))
    assert not failures, failures
    assert control_ok


def test_criterion_8_runtime_budget():
    elapsed = time.monotonic() - conftest.SESSION_START
    ok = elapsed < 120.0
    _line(8, "whole suite inside the two-minute budget", ok,
          f"{elapsed:.1f}s")
    assert ok, f"{elapsed:.1f}s"
