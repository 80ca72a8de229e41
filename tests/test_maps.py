"""Family normalization, reduction, composition, and the resultant."""

import time
from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rescaling import (AffineFrame, DegenerateFamily, GaussianRational, MapL,
                       PuiseuxSeries, ReducedMap, cpoly,
                       compose_families, compose_reduced, conjugate,
                       gauss_normalize, iterate_family, maps, parse_family,
                       parse_frame, precompose_affine, reduce_family,
                       resultant_series, resultant_valuation)
from rescaling.maps import resultant_vanishes, smul
from .support import family, reduced

t_pow = PuiseuxSeries.t_power
one = PuiseuxSeries.one
zero = PuiseuxSeries.zero


def test_family_degree_and_padding():
    fam = MapL([t_pow(1)], [one(), zero(), one()])
    assert fam.degree == 2
    assert len(fam.num) == len(fam.den) == 3


def test_gauss_normalize_shifts_min_valuation_to_zero():
    fam = MapL([t_pow(2), t_pow(3)], [t_pow(2, 4)])
    out = gauss_normalize(fam)
    assert min(c.valuation() for c in out.coeffs() if c.terms) == 0


def test_gauss_normalize_degenerate():
    with pytest.raises(DegenerateFamily):
        gauss_normalize(MapL([zero()], [one()]))


def test_reduce_plain_polynomial():
    g = reduce_family(parse_family("z^2 + 1"))
    assert str(g) == "z^2 + 1"
    assert g.degree == 2
    assert g.holes == () and g.inf_mult == 0


def test_reduce_with_holes():
    # z^3 + t/z^2 collapses to z^3 at t = 0; two zeros of the denominator
    # cancel into the hole divisor
    g = reduce_family(parse_family("z^3 + t/z^2"))
    assert str(g) == "z^3"
    assert g.source_degree == 5
    assert g.degree + g.holes_degree == 5
    assert g.inf_mult == 0


def test_reduce_drop_at_infinity():
    # t*z^2 + z loses its top coefficient at t = 0
    g = reduce_family(parse_family("t*z^2 + z"))
    assert str(g) == "z"
    assert g.inf_mult == 1
    assert g.degree + g.holes_degree == 2


def test_reduced_canonical_scaling():
    a = reduce_family(parse_family("(2*z^2+2)/(2*z-2)"))
    b = reduce_family(parse_family("(z^2+1)/(z-1)"))
    assert a == b
    assert a.den[-1].is_one


def test_constant_infinity_map():
    g = reduce_family(parse_family("z^2/t"))
    # after normalization the denominator residue vanishes identically
    assert str(g) == "inf"


def test_compose_reduced():
    sq = reduced("z^2")
    cube_inv = reduced("1/z^3")
    assert compose_reduced(sq, sq) == reduced("z^4")
    assert compose_reduced(cube_inv, sq) == reduced("1/z^6")
    assert compose_reduced(sq, cube_inv) == reduced("1/z^6")
    moeb = reduced("1/z")
    assert compose_reduced(moeb, moeb) == reduced("z")


def _compose_cancelling(outer, inner):
    """The reference: outer(inner(z)) with the gcd of the sums divided
    out, which compose_reduced's coprimality lemma makes unnecessary."""
    p, q = list(inner.num), list(inner.den)
    m = max(cpoly.degree(outer.num), cpoly.degree(outer.den), 0)
    p_pow, q_pow = [[GaussianRational.one()]], [[GaussianRational.one()]]
    for _ in range(m):
        p_pow.append(cpoly.pmul(p_pow[-1], p))
        q_pow.append(cpoly.pmul(q_pow[-1], q))
    num, den = [], []
    for i in range(m + 1):
        basis = cpoly.pmul(p_pow[i], q_pow[m - i])
        if i < len(outer.num):
            num = cpoly.padd(num, cpoly.pscale(basis, outer.num[i]))
        if i < len(outer.den):
            den = cpoly.padd(den, cpoly.pscale(basis, outer.den[i]))
    g = cpoly.pgcd(num, den) if num and den else []
    if cpoly.degree(g) > 0:
        num, den = cpoly.pdiv_exact(num, g), cpoly.pdiv_exact(den, g)
    return ReducedMap(num, den)


_gauss_ints = st.builds(GaussianRational, st.integers(-3, 3),
                        st.integers(-2, 2))
_coprime_pairs = st.tuples(
    st.lists(_gauss_ints, max_size=4), st.lists(_gauss_ints, max_size=4)
).filter(lambda nd: cpoly.trim(nd[0]) or cpoly.trim(nd[1])).filter(
    lambda nd: cpoly.degree(cpoly.pgcd(*nd)) <= 0)


@given(_coprime_pairs, _coprime_pairs)
def test_compose_reduced_needs_no_cancellation(outer, inner):
    # compose_reduced's lemma: maps in lowest terms compose to one, so its
    # sums have a constant gcd and equal the cancelling composition
    f, g = ReducedMap(*outer), ReducedMap(*inner)
    out = compose_reduced(f, g)
    assert cpoly.degree(cpoly.pgcd(out.num, out.den)) <= 0
    assert out == _compose_cancelling(f, g)
    assert out.degree == f.degree * g.degree


def test_conjugate_by_identity():
    fam = parse_family("z^2 + t")
    out = conjugate(fam, AffineFrame(0, PuiseuxSeries.zero()))
    assert reduce_family(out) == reduce_family(fam)


def test_precompose_affine_shifts_center():
    fam = parse_family("z^2")
    fr = AffineFrame(Fraction(0), PuiseuxSeries.constant(1))
    out = precompose_affine(fam, fr)  # z -> (1 + w)^2
    assert reduce_family(out) == reduced("(z+1)^2")


def test_iterate_family():
    fam = parse_family("z^2")
    assert reduce_family(iterate_family(fam, 3, 16)) \
        == reduced("z^8")
    with pytest.raises(ValueError):
        iterate_family(fam, 0, 16)


# -- the integer product kernel against the per-pair loop -------------------

# small integers make products land exactly on a truncation order
exponents = st.one_of(
    st.integers(-3, 6).map(Fraction),
    st.builds(Fraction, st.integers(-12, 24), st.integers(1, 12)))
rationals = st.builds(Fraction, st.integers(-3, 3),
                      st.sampled_from([1, 2, 3, 4, 6, 9]))
gaussians = st.builds(GaussianRational, rationals, rationals)
truncs = st.one_of(st.just(inf), exponents)
# empty term lists give exact zeros (trunc inf) and series that are zero
# only as far as known (finite trunc); zero coefficients are dropped
series = st.builds(lambda ts, tr: PuiseuxSeries.build(ts, tr),
                   st.lists(st.tuples(exponents, gaussians), max_size=4),
                   truncs)
series_polys = st.lists(series, min_size=1, max_size=4)


def _smul_loop(p, q):
    """Product of two series polynomials, one series product per pair: the
    reference for the integer kernel."""
    out = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            prod = a * b
            out[i + j] = prod if out[i + j] is None else out[i + j] + prod
    return out


def _same(fast, slow):
    assert fast == slow
    assert [c.trunc for c in fast] == [c.trunc for c in slow]
    assert [str(c) for c in fast] == [str(c) for c in slow]


@given(series_polys, series_polys)
def test_smul_kernel_matches_loop(p, q):
    _same(smul(p, q), _smul_loop(p, q))


@given(series, series)
def test_smul_kernel_matches_loop_on_cancellation(a, b):
    # (a + a z)(b - b z) = ab - ab z^2: the middle entry cancels
    fast = smul([a, a], [b, -b])
    _same(fast, _smul_loop([a, a], [b, -b]))
    assert not fast[1].terms


# -- the packed pipeline against series objects -----------------------------

def _ref_precompose(fam, frame):
    """f(c + t^h w) with one series product per pair and series sums."""
    lin = [frame.c, t_pow(frame.h)]
    powers = [[one()]]
    for _ in range(fam.degree):
        powers.append(_smul_loop(powers[-1], lin))
    num, den = [], []
    for i in range(fam.degree + 1):
        num = cpoly.padd(num, _smul_loop(powers[i], [fam.num[i]]))
        den = cpoly.padd(den, _smul_loop(powers[i], [fam.den[i]]))
    return MapL(num, den)


def _ref_conjugate(fam, frame):
    inner = _ref_precompose(fam, frame)
    s = t_pow(-frame.h)
    num = cpoly.padd(_smul_loop(inner.num, [s]),
                     _smul_loop(inner.den, [-frame.c * s]))
    return MapL(num, inner.den)


def _ref_compose(outer, inner, window):
    """outer(inner), each coefficient capped by ``PuiseuxSeries.cap`` at
    the least valuation bound plus ``window``."""
    p_pow, q_pow = [[one()]], [[one()]]
    for _ in range(outer.degree):
        p_pow.append(_smul_loop(p_pow[-1], list(inner.num)))
        q_pow.append(_smul_loop(q_pow[-1], list(inner.den)))
    m = outer.degree
    num, den = [], []
    for i in range(m + 1):
        basis = _smul_loop(p_pow[i], q_pow[m - i])
        num = cpoly.padd(num, _smul_loop(basis, [outer.num[i]]))
        den = cpoly.padd(den, _smul_loop(basis, [outer.den[i]]))
    out = MapL(num, den)
    cap = min(c.val_lower() for c in out.coeffs()) + window
    return MapL([c.cap(cap) for c in out.num], [c.cap(cap) for c in out.den])


def _ref_iterate(fam, n, window):
    out = fam
    for _ in range(n - 1):
        out = _ref_compose(fam, out, window)
    return out


def _same_family(fast, slow):
    assert fast.degree == slow.degree
    _same(list(fast.coeffs()), list(slow.coeffs()))


small_polys = st.lists(series, min_size=1, max_size=3)
families = st.builds(MapL, small_polys, small_polys)
# fractional zoom exponents and centers with several terms, some truncated
frames = st.builds(AffineFrame, exponents, series)
windows = st.sampled_from([16, 32])


@given(families, frames)
def test_packed_precompose_and_conjugate_match_series(fam, frame):
    _same_family(precompose_affine(fam, frame), _ref_precompose(fam, frame))
    _same_family(conjugate(fam, frame), _ref_conjugate(fam, frame))


def _full_horner(coeffs, lin, dc):
    """``maps._horner``'s rule from A = a_m, through zero top entries."""
    acc = [coeffs[-1]]
    for k, a in enumerate(reversed(coeffs[:-1]), 1):
        acc = maps._mulsum([(acc, lin), ([a], [([(0, dc ** k, 0)], inf)])])
    return acc


@given(families, frames)
# the denominator z^2 of z^3 + t/z^2 has three zero entries above it
@example(family("mcm"), parse_frame("1/7"))
def test_horner_from_the_top_nonzero_entry_matches_the_full_rule(fam, frame):
    r = maps._scale(fam.coeffs() + (frame.c,), frame.h.denominator)
    polys, _ = maps._ints([fam.num, fam.den], r)
    ((c,),), dc = maps._ints([[frame.c]], r)
    lin = [c, ([(maps._scaled(frame.h, r), dc, 0)], inf)]
    for p in polys:
        assert maps._horner(p, lin, dc) == _full_horner(p, lin, dc)


@given(families, families, windows)
def test_packed_compose_matches_series(outer, inner, window):
    _same_family(compose_families(outer, inner, window),
                 _ref_compose(outer, inner, window))


@given(st.builds(MapL, st.lists(series, min_size=1, max_size=2),
                 st.lists(series, min_size=1, max_size=2)),
       frames, st.integers(1, 3), windows)
def test_packed_iterate_of_a_conjugate_matches_series(fam, frame, n, window):
    g = conjugate(fam, frame)
    _same_family(iterate_family(g, n, window), _ref_iterate(g, n, window))


def test_smul_kernel_matches_loop_on_quad0_iterates():
    # compose_families does not call smul, so its reference is the whole
    # series composition, not smul swapped for the loop
    g = conjugate(family("quad0"), parse_frame("1"))
    _same_family(g, _ref_conjugate(family("quad0"), parse_frame("1")))
    fast = slow = g
    for ell in range(2, 6):
        fast = compose_families(g, fast, 16)
        slow = _ref_compose(g, slow, 16)
        assert fast.degree == 2 ** ell
        _same_family(fast, slow)


def test_compose_builds_one_series_per_coefficient(monkeypatch):
    # each product used to be unpacked into series: 1,076 of them here
    g = conjugate(family("quad0"), parse_frame("1"))
    fifth = iterate_family(g, 5, 16)
    built = []
    init = PuiseuxSeries.__init__

    def counting(self, terms, trunc):
        built.append(1)
        init(self, terms, trunc)

    monkeypatch.setattr(PuiseuxSeries, "__init__", counting)
    out = compose_families(g, fifth, 16)
    assert len(out.coeffs()) == 130
    assert len(built) <= 2 * 130


def test_resultant_fixed_values():
    # res_z(z^2 + t, z + 1) = 1 + t
    fam = parse_family("(z^2+t)/(z+1)")
    assert resultant_series(fam) == PuiseuxSeries.build([(0, 1), (1, 1)], inf)
    assert resultant_valuation(fam) == 0
    # res_z(z^2 - t, z) = -t picks up the collision at z = 0
    fam2 = parse_family("(z^2-t)/z")
    assert resultant_valuation(fam2) == 1


def test_resultant_degenerate():
    with pytest.raises(DegenerateFamily):
        resultant_valuation(parse_family("(z+1)/(z+1)"))


def test_resultant_matches_residue_resultant_for_constant_families():
    # Res(P, z - 2) = P(2) for P of degree 2
    fam = parse_family("(z^2+3*z+1)/(z-2)")
    assert resultant_series(fam) == PuiseuxSeries.constant(11)


exps = st.integers(min_value=0, max_value=3)
coeff_ints = st.integers(min_value=-3, max_value=3)
term = st.tuples(exps, coeff_ints)
coeff_series = st.lists(term, max_size=2).map(
    lambda ts: PuiseuxSeries.build(ts, inf))


@given(st.lists(coeff_series, min_size=1, max_size=4),
       st.lists(coeff_series, min_size=1, max_size=4))
def test_reduce_degree_accounting(num, den):
    assume(any(not c.is_zero for c in num))
    assume(any(not c.is_zero for c in den))
    fam = MapL(num, den)
    out = reduce_family(fam)
    assert out.degree + out.holes_degree == fam.degree
    assert out.source_degree == fam.degree


@given(st.lists(coeff_series, min_size=1, max_size=4),
       st.lists(coeff_series, min_size=1, max_size=4))
def test_gauss_normalize_is_projective(num, den):
    assume(any(not c.is_zero for c in num))
    assume(any(not c.is_zero for c in den))
    fam = MapL(num, den)
    shifted = MapL([c.shift(2) for c in fam.num],
                   [c.shift(2) for c in fam.den])
    a, b = gauss_normalize(fam), gauss_normalize(shifted)
    assert [list(c.terms) for c in a.coeffs()] \
        == [list(c.terms) for c in b.coeffs()]


@given(st.lists(st.lists(term, max_size=2), min_size=2, max_size=3),
       st.lists(st.lists(term, max_size=2), min_size=2, max_size=3),
       st.lists(st.lists(term, max_size=2), min_size=1, max_size=2))
def test_resultant_vanishes_matches_series(num, den, common):
    # families are decided mod a prime at a point; a shared factor makes
    # the resultant vanish, and no certificate may claim otherwise
    def poly(cs):
        return [PuiseuxSeries.build(ts, inf) for ts in cs]

    num, den, common = poly(num), poly(den), poly(common)
    assume(any(not c.is_zero for c in num))
    assume(any(not c.is_zero for c in den))
    for fam in (MapL(num, den), MapL(smul(num, common), smul(den, common))):
        assert resultant_vanishes(fam) == resultant_series(fam).is_zero


@pytest.mark.parametrize("text", [
    "z*(z+1)^7/(z^8+t)",  # the residues share the factor z
    "(z+1)^10/(z^10+2+1/(1-t))",  # 1/(1-t) is cleared: P, Q have t-degree 1
])
def test_resultant_vanishes_decides_without_the_series(monkeypatch, text):
    # the certificate mod a prime decides both, so the exact determinant,
    # which takes seconds at z-degree 32, is not computed
    fam = parse_family(text)
    monkeypatch.setattr(maps, "resultant_series", None)
    assert not resultant_vanishes(fam)


# -- the exact resultant against the subset expansion -----------------------

def _series_det(rows):
    """Laplace expansion by columns, memoized on the set of used rows: the
    exponential-time reference for the fraction-free determinant."""
    n = len(rows)
    dp = {0: PuiseuxSeries.one()}
    for col in range(n):
        nxt = {}
        for mask, minor in dp.items():
            for r in range(n):
                bit = 1 << r
                if mask & bit or rows[r][col].is_zero:
                    continue
                term = minor * rows[r][col]
                if (col + (mask & (bit - 1)).bit_count()) % 2:
                    term = -term
                key = mask | bit
                nxt[key] = term if key not in nxt else nxt[key] + term
        dp = nxt
        if not dp:
            return PuiseuxSeries.zero()
    return dp[(1 << n) - 1]


laurent = st.lists(st.tuples(st.integers(-2, 3).map(lambda k: Fraction(k, 2)),
                             coeff_ints), max_size=2).map(
    lambda ts: PuiseuxSeries.build(ts, inf))


@settings(max_examples=60)
@given(st.lists(laurent, min_size=2, max_size=7),
       st.lists(laurent, min_size=2, max_size=7))
def test_resultant_series_matches_subset_expansion(num, den):
    p, q = cpoly.trim(num), cpoly.trim(den)
    assume(len(p) > 1 and len(q) > 1)
    expected = _series_det(cpoly.sylvester(p, q, PuiseuxSeries.zero()))
    assert resultant_series(MapL(num, den)) == expected


@pytest.mark.parametrize("num, den", [
    ([t_pow(1), one()], [one().cap(3), one()]),
    ([t_pow(1, trunc=2), one()], [one()]),
], ids=["den", "num"])
def test_resultant_refuses_inexact_coefficients(num, den):
    with pytest.raises(ValueError, match="inexact"):
        resultant_series(MapL(num, den))
    with pytest.raises(ValueError, match="inexact"):
        resultant_vanishes(MapL(num, den))


def test_resultant_valuation_is_polynomial_time():
    # the subset expansion took 1.2 s at n = 8 and minutes at n = 10
    fam = parse_family("(z+1)^10/(z^10+2+t)")
    start = time.perf_counter()
    assert resultant_valuation(fam) == 0
    assert time.perf_counter() - start < 2
