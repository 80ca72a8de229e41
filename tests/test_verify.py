"""Numeric spot checks of cycle limits on the sphere."""

import pytest

from rescaling import (MapL, ReducedMap, chordal_distance,
                       cpoly, verify_rescaling, sphere_grid)
from rescaling.verify import chordal_hom
from .support import cycle, family, reduced


def test_chordal_distance_pins():
    assert chordal_distance(0, "inf") == 1.0
    assert chordal_distance(1, -1) == 1.0
    assert chordal_distance(3 + 4j, 3 + 4j) == 0.0
    assert chordal_distance("inf", "inf") == 0.0
    assert 0 < chordal_distance(0, 1) < 1


def test_chordal_is_symmetric_and_scale_free():
    a, b = (1 + 2j, 1.0 + 0j), (3j, 2.0 + 0j)
    assert chordal_hom(a, b) == chordal_hom(b, a)
    a2 = (a[0] * (2 - 1j), a[1] * (2 - 1j))
    assert chordal_hom(a2, b) == pytest.approx(chordal_hom(a, b))


def test_chordal_rejects_degenerate_point():
    with pytest.raises(ValueError):
        chordal_hom((0j, 0j), (1.0 + 0j, 0j))


def test_sphere_grid_covers_both_hemispheres():
    pts = sphere_grid(50)
    assert len(pts) == 50
    assert any(abs(p) < 1 for p in pts) and any(abs(p) > 1 for p in pts)
    # no accidental duplicates
    assert len({(round(p.real, 9), round(p.imag, 9)) for p in pts}) == 50


def test_verify_quadratic_period_two():
    rep = verify_rescaling(family("quad0"), cycle("quad0", "1"))
    assert rep.ok and rep.passed and rep.control_rejected
    assert rep.period == 2 and rep.ramification == 1
    assert rep.max_errors == sorted(rep.max_errors, reverse=True)
    assert rep.max_errors[-1] < 1e-5
    assert rep.control_error > 0.5
    assert rep.n_points + rep.n_excluded == 200


def test_verify_ramified_cycle():
    rep = verify_rescaling(family("mcm"), cycle("mcm", "1/7"))
    assert rep.ok
    assert rep.ramification == 7
    # t runs as the 7th power of the sampling parameter
    assert rep.t_samples == [s ** 7 for s in rep.s_values]


def test_verify_along_rotated_ray():
    rep = verify_rescaling(family("mcm"), cycle("mcm", "1/3"), ray=1j)
    assert rep.ok


def test_verify_rejects_wrong_limit():
    wrong = reduced("(z^2 + 2*z - 2)/(z - 1)")
    rep = verify_rescaling(family("quad0"),
                           cycle("quad0", "1")._replace(limit=wrong))
    assert not rep.passed
    assert rep.max_errors[-1] > 0.1


def test_verify_refuses_coarse_truncation():
    # same family with every coefficient cut to one known term: the series
    # tails could hide O(t) contributions bigger than the tolerance
    fam = family("quad0")
    coarse = MapL([c.cap(1) for c in fam.num], [c.cap(1) for c in fam.den])
    with pytest.raises(ValueError):
        verify_rescaling(coarse, cycle("quad0", "1"))


def test_report_dict_shape():
    rep = verify_rescaling(family("mcm"), cycle("mcm", "1/3"))
    d = rep.to_dict()
    assert d["ok"] is True and d["passed"] is True
    for key in ("period", "base_frame", "limit", "ramification", "tolerance",
                "s_values", "t_samples", "max_errors", "points_checked",
                "points_excluded", "control_error", "control_rejected"):
        assert key in d


def test_report_is_immutable():
    rep = verify_rescaling(family("mcm"), cycle("mcm", "1/3"), grid_points=20)
    with pytest.raises(AttributeError):
        rep.passed = False
    assert rep.ok


# max_errors and control_error of the default check, recorded from the
# exact Gaussian-rational orbit these high-cancellation cycles once ran on
EXACT_ORBIT_PINS = {
    ("cubic", "3"): ([4.978744038525362e-03, 4.997313933351009e-04,
                      4.999502908007618e-05], 0.796084380023185),
    ("cubic_inv", "4"): ([1.2419583259207107e-02, 1.2491849116907407e-03,
                          1.2499105402802549e-04], 0.799566375520793),
    ("cubic_shift", "5"): ([7.370727640731693e-03, 7.486861674213378e-04,
                            7.49863700258748e-05], 0.7965884867576365),
    ("quad0", "3"): ([5.7000078522678455e-05, 5.69869630516134e-07,
                      5.698681407611771e-09], 0.7960579353315995),
}


@pytest.mark.parametrize("key,seed", sorted(EXACT_ORBIT_PINS))
def test_high_cancellation_matches_exact_orbit(key, seed):
    errors, control = EXACT_ORBIT_PINS[key, seed]
    rep = verify_rescaling(family(key), cycle(key, seed))
    assert rep.max_errors == pytest.approx(errors, rel=1e-6)
    assert rep.control_error == pytest.approx(control, rel=1e-6)
    assert rep.ok


@pytest.mark.parametrize("key,seed", [("quad0", "1"), ("cubic", "3")])
def test_control_shares_the_smallest_s_orbit(key, seed):
    # the control is compared on the orbits of the last s pass; a check run
    # on the shifted limit alone, at that s, must give the same number
    fam, cyc = family(key), cycle(key, seed)
    rep = verify_rescaling(fam, cyc)
    lim = cyc.limit
    shifted = ReducedMap(cpoly.padd(list(lim.num), list(lim.den)),
                         list(lim.den))
    alone = verify_rescaling(fam, cyc._replace(limit=shifted),
                             s_grid=(min(rep.s_values),))
    assert rep.control_error == alone.max_errors[0]
