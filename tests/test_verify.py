"""Numeric spot checks of cycle limits on the sphere."""

from itertools import repeat
from math import ceil, inf, isfinite

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from rescaling import (MapL, ReducedMap, cpoly, find_cycle, parse_family,
                       parse_frame, verify, verify_rescaling, sphere_grid)
from rescaling.verify import chordal_hom
from .support import CUBIC, NORMAL_FORM_SEED, cycle, family, reduced

ONE, ZERO = 1.0 + 0j, 0j


def test_chordal_hom_pins():
    # points (z : 1) and infinity (1 : 0)
    assert chordal_hom((ZERO, ONE), (ONE, ZERO)) == 1.0
    assert chordal_hom((ONE, ONE), (-ONE, ONE)) == 1.0
    assert chordal_hom((3 + 4j, ONE), (3 + 4j, ONE)) == 0.0
    assert chordal_hom((ONE, ZERO), (ONE, ZERO)) == 0.0
    assert 0 < chordal_hom((ZERO, ONE), (ONE, ONE)) < 1


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


@pytest.mark.parametrize("text, period", [
    ("z*(z + 1/t)/(i*z + 1)", 4),
    ("z*(z + 1/t)/(-z + 1)", 2),
], ids=["mu2=i", "mu2=-1"])
def test_verify_normal_form_cycles(text, period):
    # Milnor's normal form with multipliers 1/t and mu2: mu2 a primitive
    # q-th root of unity predicts a rescaling of period q
    fam = parse_family(text)
    rep = verify_rescaling(fam, find_cycle(fam, parse_frame(NORMAL_FORM_SEED)),
                           grid_points=60)
    assert rep.ok and rep.passed and rep.control_rejected
    assert rep.period == period and rep.base == "(-1/2, 0)"


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
# exact Gaussian-rational orbit these high-cancellation cycles once ran on.
# quad0 (3) at s = 1e-2 cancels 8 digits: its figure is the int orbit's,
# which a 60-digit mpmath orbit confirms (doubles gave 5.70001e-05)
EXACT_ORBIT_PINS = {
    ("cubic", "3"): ([4.978744038525362e-03, 4.997313933351009e-04,
                      4.999502908007618e-05], 0.796084380023185),
    ("cubic_inv", "4"): ([1.2419583259207107e-02, 1.2491849116907407e-03,
                          1.2499105402802549e-04], 0.799566375520793),
    ("cubic_shift", "5"): ([7.370727640731693e-03, 7.486861674213378e-04,
                            7.49863700258748e-05], 0.7965884867576365),
    ("quad0", "3"): ([5.700181023068601e-05, 5.69869630516134e-07,
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


# max_errors and control_error of the default check on frames with a zero
# center, whose orbits run in Python complex; the loop must keep every bit
FLOAT_ORBIT_PINS = {
    ("quad0", "1", 1.0): ([0.00036701823695857813, 3.670013164615475e-06,
                           3.6700114774839927e-08], 0.7756379232034428),
    ("mcm", "1/7", 1.0): ([0.00015012094115717583, 1.5012256829386208e-06,
                           1.5012258487853207e-08], 0.7949599907570502),
    ("lattes", "2/5", 1.0): ([0.00016588749346536932, 1.6518899285461134e-06,
                              1.651193467746964e-08], 0.7958793616735259),
    ("mcm", "1/3", 1j): ([0.07005934567086802, 0.0007020573395482443,
                          7.020548946290064e-06], 0.7949272710029751),
}


@pytest.mark.parametrize("key,seed,ray", list(FLOAT_ORBIT_PINS))
def test_float_orbit_keeps_its_bits(key, seed, ray):
    errors, control = FLOAT_ORBIT_PINS[key, seed, ray]
    rep = verify_rescaling(family(key), cycle(key, seed), ray=ray)
    assert rep.max_errors == errors
    assert rep.control_error == control


# -- the sparse float loop against the dense one ---------------------------

def _dense_hom_orbits(num_vals, den_vals, starts, steps):
    """``verify._hom_orbits`` before it skipped zero terms: every term
    (a_i * z^i) * w^(d-i), summed upward from 0.  An orbit ends in None
    where both coordinates are 0 or one is not finite."""
    one = 1.0 + 0j
    d = len(num_vals) - 1
    coeffs = list(zip(num_vals, den_vals, range(d, -1, -1)))
    out = []
    for z, w in starts:
        for _ in range(steps):
            w_pows = [one]
            for _ in range(d):
                w_pows.append(w_pows[-1] * w)
            new_z = new_w = 0
            zn = one
            for a, b, k in coeffs:
                wn = w_pows[k]
                new_z += a * zn * wn
                new_w += b * zn * wn
                zn *= z
            m = max(abs(new_z), abs(new_w))
            if m == 0.0 or not (isfinite(abs(new_z))
                                and isfinite(abs(new_w))):
                out.append(None)
                break
            z, w = new_z / m, new_w / m
        else:
            out.append((z, w))
    return out


def _alike(p, q):
    """Both None, or equal parts where a NaN part matches a NaN part."""
    if p is None or q is None:
        return p is q
    parts = [(x.real, y.real) for x, y in zip(p, q)]
    parts += [(x.imag, y.imag) for x, y in zip(p, q)]
    return all(x == y or x != x and y != y for x, y in parts)


_ZERO = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
_PART = st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 3.0, -7.25])
_START_PART = st.sampled_from([0.0, -0.0, 1.0, -0.5, 1e150, -1e150, 1e-150,
                               1e300, -1e300, 1e-300, -1e-300])


@st.composite
def _sparse_maps(draw):
    """(num, den) of one degree 1-8, each with a random zero pattern or a
    single nonzero coefficient."""
    d = draw(st.integers(1, 8))
    coeff = st.builds(complex, _PART, _PART)

    def side():
        if draw(st.booleans()):
            keep = {draw(st.integers(0, d))}
        else:
            keep = {i for i in range(d + 1) if draw(st.booleans())}
        return [draw(coeff) if i in keep else draw(_ZERO)
                for i in range(d + 1)]
    return side(), side()


@given(_sparse_maps(),
       st.lists(st.tuples(st.builds(complex, _START_PART, _START_PART),
                          st.builds(complex, _START_PART, _START_PART)),
                min_size=1, max_size=4),
       st.integers(1, 3))
# 1/z^2 at z = 1e200: z^2 overflows, and the dense numerator's zero term
# 0 * z^2 is NaN; only the finiteness test of z^d ends this orbit in None
@example(([1 + 0j, 0j, 0j], [0j, 0j, 1 + 0j]), [(1e200 + 0j, 1 + 0j)], 1)
# (1e200 + 1e200i) * 1e150 overflows to inf + inf*i, and times w = 1 that
# is NaN + NaN*i: abs() of it loses to |2| in the max, so only the NaN test
# ends this orbit in None
@example(([1 + 0j, 0j, 1e-300 + 0j], [0j, 1e200 + 1e200j, 0j]),
         [(1e150 + 0j, 1 + 0j)], 1)
def test_sparse_float_loop_matches_dense(maps, starts, steps):
    num, den = maps
    got = verify._hom_orbits(num, den, starts, steps)
    ref = _dense_hom_orbits(num, den, starts, steps)
    assert len(got) == len(ref)
    assert all(map(_alike, got, ref)), (got, ref)


def _images_alone(g, points):
    """``verify._images`` of one map, in a pass of its own."""
    d = max(cpoly.degree(g.num), cpoly.degree(g.den), 0)
    num = [c.to_complex() for c in g.num] + [0j] * (d + 1 - len(g.num))
    den = [c.to_complex() for c in g.den] + [0j] * (d + 1 - len(g.den))
    return verify._hom_orbits(num, den, zip(points, repeat(1.0 + 0j)), 1)


def _control(g):
    return ReducedMap(cpoly.padd(list(g.num), list(g.den)), list(g.den))


@pytest.mark.parametrize("text,other", [
    ("z^2", None), ("1/z^2", None), ("(z^2+z-1)/(z-1)", None),
    ("-4/z^4", None), ("(z^2 + i)/z", None), ("z^2", "1/z^6")])
def test_one_pass_images_keep_each_maps_bits(text, other):
    # the limit and its control share one pass over the grid; each image,
    # the sign of a zero included, is the one a pass of its own gives
    g = reduced(text)
    h = _control(g) if other is None else reduced(other)
    points = sphere_grid(500) + [0j, complex(-0.0, 0.0), 1e-200 + 0j,
                                 1e200 + 0j, 1e160j, complex(inf, 0.0)]
    got = verify._images([g, h], points)
    ref = [_images_alone(g, points), _images_alone(h, points)]
    assert [list(map(repr, imgs)) for imgs in got] \
        == [list(map(repr, imgs)) for imgs in ref]


# -- the int orbit against an mpmath reference -------------------------------

def _mpc(c):
    """A Gaussian rational as an mpc at the working precision."""
    parts = (c.re.as_integer_ratio(), c.im.as_integer_ratio())
    return mpmath.mpc(*(mpmath.mpf(n) / d for n, d in parts))


def _mp_at_s(series, s, ram):
    total = mpmath.mpc(0)
    for e, c in series.terms:
        total += _mpc(c) * s ** verify._resolved(e, ram)
    return total


def _mp_hom_apply(num_vals, den_vals, p):
    z, w = p
    one = mpmath.mpc(1)
    w_pows = [one]
    for _ in num_vals[1:]:
        w_pows.append(w_pows[-1] * w)
    new_z = new_w = 0
    zn = one
    for a, b, wn in zip(num_vals, den_vals, reversed(w_pows)):
        new_z += a * zn * wn
        new_w += b * zn * wn
        zn *= z
    m = max(abs(new_z), abs(new_w))
    return None if m == 0 else (new_z / m, new_w / m)


def _mp_max_error(fam, cyc, targets, points, sval, ram):
    """``verify._max_error`` with every orbit in mpmath, at twice the
    digits the int orbit carries."""
    s_mag = abs(sval)
    digits = max(verify._cancellation_digits(cyc, s_mag, ram),
                 verify._scale_digits(cyc, s_mag, ram)) + 20
    worst = [0.0] * len(targets)
    dropped = 0
    with mpmath.workdps(2 * ceil(digits)):
        s = mpmath.mpc(sval)
        num_vals = [_mp_at_s(c, s, ram) for c in fam.num]
        den_vals = [_mp_at_s(c, s, ram) for c in fam.den]
        th = s ** verify._resolved(cyc.base.h, ram)
        cval = _mp_at_s(cyc.base.c, s, ram)
        for j, w in enumerate(points):
            p = (cval + th * w, mpmath.mpc(1))
            for _ in range(cyc.period):
                p = _mp_hom_apply(num_vals, den_vals, p)
                if p is None:
                    break
            if p is None:
                dropped += 1
                continue
            p = (p[0] - cval * p[1], th * p[1])
            m = max(abs(p[0]), abs(p[1]))
            if m == 0:
                dropped += 1
                continue
            p = (complex(p[0] / m), complex(p[1] / m))
            for k, imgs in enumerate(targets):
                q = imgs[j]
                if q is not None:
                    worst[k] = max(worst[k], chordal_hom(p, q))
                elif k == 0:
                    dropped += 1
    return worst, dropped


def _ramified_cubic():
    fam = parse_family(CUBIC, "t^(1/3)")
    return fam, find_cycle(fam, parse_frame("1"))


@pytest.mark.parametrize("key,seed,ray,forced", [
    ("cubic", "3", 1.0, False),
    ("cubic_inv", "4", 1.0, False),
    ("cubic_shift", "5", 1.0, False),
    ("quad0", "3", 1.0, False),
    ("cubic", "3", 1j, False),
    ("cubic_ramified", "1", 1.0, False),
    # a zero center cancels nothing, so only the frames' scale (h up to 3/7,
    # with t = s^7) sets the int orbit's precision here
    ("mcm", "1/7", 1.0, True),
])
def test_int_orbit_matches_mpmath_reference(monkeypatch, key, seed, ray,
                                            forced):
    if key == "cubic_ramified":
        fam, cyc = _ramified_cubic()
    else:
        fam, cyc = family(key), cycle(key, seed)
    if forced:
        monkeypatch.setattr(verify, "_cancellation_digits",
                            lambda *args: 1e-9)
    rep = verify_rescaling(fam, cyc, ray=ray)
    assert all(verify._cancellation_digits(cyc, s, rep.ramification) > 0
               for s in rep.s_values)
    monkeypatch.setattr(verify, "_max_error", _mp_max_error)
    ref = verify_rescaling(fam, cyc, ray=ray)
    assert rep.max_errors == pytest.approx(ref.max_errors, rel=1e-10)
    assert rep.control_error == pytest.approx(ref.control_error, rel=1e-10)
