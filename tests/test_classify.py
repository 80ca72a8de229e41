"""Limit-map predicates, PCF verdicts, and the quadratic dichotomy."""

import pytest

from rescaling import (AssertionFailed, classify_limit, find_cycle,
                       multiple_fixed_point, parse_family, parse_frame,
                       pcf_check, polynomial_like, quadratic_dichotomy_report)
from .support import cycle, reduced


def test_multiple_fixed_point_fixtures():
    assert not multiple_fixed_point(reduced("z^2"))
    assert not multiple_fixed_point(reduced("2*z^2"))
    assert multiple_fixed_point(reduced("z^2 + 1/4"))
    # fixed-point polynomial drops degree: infinity is multiple
    assert multiple_fixed_point(reduced("(z^2+z-1)/(z-1)"))
    assert not multiple_fixed_point(reduced("z^2 + 1"))
    # the identity counts as degenerate everywhere
    assert multiple_fixed_point(reduced("z"))


def test_polynomial_like_fixtures():
    assert polynomial_like(reduced("z^2 + 1")) == (True, "inf")
    ok, wit = polynomial_like(reduced("z^2/(4*(z-1))"))
    assert ok and str(wit) == "0"
    assert polynomial_like(reduced("1/z^6"))[0] is False
    assert polynomial_like(reduced("(z^2+z-1)/(z-1)"))[0] is False
    assert polynomial_like(reduced("z"))[0] is True


def test_pcf_monomial_short_circuit():
    rep = pcf_check(reduced("z^2"))
    assert rep.status == "PCF_Certified" and rep.is_monomial
    assert rep.orbits == {"0": "finite", "inf": "finite"}
    assert rep.postcritical == ("0", "inf")
    assert pcf_check(reduced("1/z^6")).status == "PCF_Certified"
    assert pcf_check(reduced("-4/z^4")).is_monomial


def test_pcf_certified_escape():
    rep = pcf_check(reduced("z^2 + 1"))
    assert rep.status == "NotPCF_CertifiedEscape"
    assert rep.orbits == {"0": "escape", "inf": "finite(1)"}


def test_pcf_within_bound():
    # the critical orbit of z^2 + 1/4 converges to 1/2; heights blow up
    rep = pcf_check(reduced("z^2 + 1/4"))
    assert rep.status == "NotPCF_WithinBound"
    assert rep.orbits["0"] == "height-cap"
    rep = pcf_check(reduced("(z^2+z-1)/(z-1)"))
    assert rep.status == "NotPCF_WithinBound"
    assert rep.orbits == {"2": "height-cap", "0": "finite(3)"}


def test_pcf_certified_rational_map():
    rep = pcf_check(reduced("z^2/(4*(z-1))"))
    assert rep.status == "PCF_Certified"
    assert rep.orbits == {"2": "finite(3)", "0": "finite(1)"}
    assert rep.postcritical == ("0", "1", "inf")


def test_pcf_iteration_cap():
    rep = pcf_check(reduced("(z^2+z-1)/(z-1)"), max_iter=2)
    assert rep.status == "NotPCF_WithinBound"
    assert set(rep.orbits.values()) == {"iteration-cap"}


def test_pcf_critical_points_outside_qi_are_unknown():
    # the Wronskian z^2 - i has no root in Q(i): no orbit is followed
    rep = pcf_check(reduced("(z^2 + i)/z"))
    assert rep.status == "Unknown" and rep.postcritical is None
    assert rep.orbits == {"roots of z^2 - i": "outside Q(i)"}
    # not PCF: both critical orbits converge to the attracting fixed point
    # 1 without repeating, which no float orbit can tell from a repeat
    rep = pcf_check(reduced("(z^2 - 3*z - 3)/(-3*z - 2)"))
    assert rep.status == "Unknown"
    assert rep.orbits == {"roots of z^2 + 4/3*z + 1": "outside Q(i)"}


def test_classify_limit_bundles_predicates():
    c = classify_limit(reduced("z^2 + 1"))
    assert c.degree == 2
    assert not c.multiple_fixed_point
    assert c.polynomial_like and c.polynomial_witness == "inf"
    assert c.pcf.status == "NotPCF_CertifiedEscape"
    c = classify_limit(reduced("1/z^6"))
    assert c.pcf.is_monomial and not c.polynomial_like


def test_dichotomy_case_i_unperturbed():
    rep = quadratic_dichotomy_report(
        [cycle("quad0", "1"), cycle("quad0", "3")], 2)
    assert rep.case == "i"
    assert rep.periods == (2, 3)
    assert rep.classifications[0].multiple_fixed_point
    assert rep.classifications[1].polynomial_like
    assert rep.non_pcf_count == 1


def test_dichotomy_case_i_perturbed():
    rep = quadratic_dichotomy_report(
        [cycle("quad1", "1"), cycle("quad1", "3")], 2)
    assert rep.case == "i"
    assert rep.periods == (2, 3)
    assert rep.non_pcf_count == 2


def test_dichotomy_case_ii_single_cycle():
    rep = quadratic_dichotomy_report([cycle("quad0", "1")], 2)
    assert rep.case == "ii"
    assert rep.periods == (2,)


def test_dichotomy_case_ii_with_unknown_pcf_verdict():
    # Milnor's normal form with multipliers 1/t and i: a period-4 cycle
    # whose limit (z^2 + i)/z has its critical points outside Q(i)
    fam = parse_family("z*(z + 1/t)/(i*z + 1)")
    rep = quadratic_dichotomy_report([find_cycle(fam, parse_frame("-1/2"))],
                                     2)
    assert rep.case == "ii" and rep.periods == (4,)
    assert rep.classifications[0].map_str == "(z^2 + i)/z"
    assert rep.classifications[0].pcf.status == "Unknown"
    assert rep.non_pcf_count == 0


def test_dichotomy_none_without_long_cycles():
    rep = quadratic_dichotomy_report([], 2)
    assert rep.case is None and rep.periods == ()


def test_dichotomy_higher_degree_counts_only():
    rep = quadratic_dichotomy_report(
        [cycle("mcm", "1/3"), cycle("mcm", "1/7")], 5)
    assert rep.case is None
    assert rep.periods == (1, 2)
    assert rep.non_pcf_count == 0


def test_dichotomy_rejects_wrong_degree():
    with pytest.raises(ValueError):
        quadratic_dichotomy_report([cycle("quad0", "1")], 3)


def test_dichotomy_rejects_missing_multiple_fixed_point():
    # z^2 alone: a single long cycle whose limit has simple fixed points
    with pytest.raises(AssertionFailed):
        quadratic_dichotomy_report([cycle("quad0", "3")], 2)


def test_dichotomy_rejects_equal_periods():
    c = cycle("quad0", "1")
    with pytest.raises(AssertionFailed):
        quadratic_dichotomy_report([c, c], 2)


def test_dichotomy_rejects_three_cycles():
    c = cycle("quad0", "3")
    with pytest.raises(AssertionFailed):
        quadratic_dichotomy_report([c, c, c], 2)


def test_dichotomy_rejects_excess_non_pcf():
    c = cycle("quad0", "1")
    with pytest.raises(AssertionFailed) as exc:
        quadratic_dichotomy_report([c, c, c], 2)
    assert "postcritical" in str(exc.value)
