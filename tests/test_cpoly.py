"""Residue-field polynomial layer, cross-checked against independent routes."""

from fractions import Fraction
from itertools import permutations
from math import comb, inf

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rescaling import GaussianRational, MapL, PuiseuxSeries, resultant_series
from rescaling import cpoly

G = GaussianRational


def gp(*ints):
    return [G(n, 0) for n in ints]


def test_trim_and_degree():
    assert cpoly.trim(gp(1, 0, 0)) == gp(1)
    assert cpoly.degree(gp(1, 0, 3)) == 2
    assert cpoly.degree([]) == -1
    assert cpoly.degree(gp(0, 0)) == -1


def test_arithmetic():
    p, q = gp(1, 2), gp(3, 0, 1)
    assert cpoly.padd(p, q) == gp(4, 2, 1)
    assert cpoly.psub(q, p) == gp(2, -2, 1)
    assert cpoly.pmul(p, q) == gp(3, 6, 1, 2)
    assert cpoly.pscale(p, G(2, 0)) == gp(2, 4)


def test_division():
    # z^3 - 1 = (z - 1)(z^2 + z + 1)
    quot, rem = cpoly.pdivmod(gp(-1, 0, 0, 1), gp(-1, 1))
    assert quot == gp(1, 1, 1)
    assert rem == []
    assert cpoly.pdiv_exact(gp(-1, 0, 0, 1), gp(1, 1, 1)) == gp(-1, 1)


def test_monic():
    assert cpoly.monic(gp(2, 4)) == [G(Fraction(1, 2), 0), G(1, 0)]


def test_gcd():
    # (z - 1)(z + 2) and (z - 1)(z - 3) share exactly z - 1
    a = cpoly.pmul(gp(-1, 1), gp(2, 1))
    b = cpoly.pmul(gp(-1, 1), gp(-3, 1))
    assert cpoly.pgcd(a, b) == gp(-1, 1)
    assert cpoly.pgcd(gp(1, 1), gp(1, 0, 1)) == gp(1)


def test_deriv_and_eval():
    p = gp(1, 0, 3)  # 3z^2 + 1
    assert cpoly.pderiv(p) == gp(0, 6)
    assert cpoly.peval(p, G(2, 0)) == G(13, 0)


def test_poly_str():
    assert cpoly.poly_str(gp(-1, 0, 1)) == "z^2 - 1"
    assert cpoly.poly_str(gp(0, 1)) == "z"
    assert cpoly.poly_str([]) == "0"
    assert cpoly.poly_str([G(0, 1)]) == "i"
    # a purely imaginary coefficient shows its sign as the operator
    assert cpoly.poly_str([G(0, -1), G(0, -2), G(1, 0)]) == "z^2 - 2*i*z - i"
    assert cpoly.poly_str([G(0, -1), G(1, 0)]) == "z - i"


def test_roots_numeric():
    roots = sorted(cpoly.roots_numeric(gp(-1, 0, 1)), key=lambda r: r.real)
    assert abs(roots[0] + 1) < 1e-12 and abs(roots[1] - 1) < 1e-12
    # zero and constant polynomials have no roots; zero entries at the
    # bottom are roots at 0 and those on top are trimmed
    assert cpoly.roots_numeric([]) == cpoly.roots_numeric([0j, 0j]) == []
    assert cpoly.roots_numeric([2j, 0j]) == cpoly.roots_numeric(gp(5)) == []
    assert cpoly.roots_numeric(gp(0, 0, 3, 0)) == [0j, 0j]
    assert cpoly.roots_numeric([0j, 4 + 0j, 2 + 0j]) == [-2 + 0j, 0j]


def test_roots_exact():
    linear, rest = cpoly.roots_exact(gp(-1, 0, 1))
    assert sorted((r.re, m) for r, m in linear) == [(-1, 1), (1, 1)]
    assert rest == []
    linear, rest = cpoly.roots_exact(gp(2, 0, 1))  # z^2 + 2, irreducible
    assert linear == []
    assert len(rest) == 1 and cpoly.degree(rest[0][0]) == 2
    linear, _ = cpoly.roots_exact(gp(1, 0, 1))  # roots +-i
    assert sorted((r.re, r.im) for r, _ in linear) == [(0, -1), (0, 1)]


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
gaussians = st.builds(G, small_fractions, small_fractions)


def _poly(text):
    """A polynomial in z over Q(i), read by sympy, ascending."""
    z = sympy.Symbol("z")
    p = sympy.Poly(sympy.sympify(text), z, domain="QQ_I")
    return [_from_sympy(c) for c in reversed(p.all_coeffs())]


def _from_sympy(c):
    re, im = sympy.sympify(c).as_real_imag()
    return G(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def _to_sympy(p):
    z = sympy.Symbol("z")
    expr = sum((sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
               * z ** i for i, c in enumerate(p))
    return sympy.Poly(expr, z, domain="QQ_I")


def _product(factors):
    out = [G.one()]
    for f, k in factors:
        for _ in range(k):
            out = cpoly.pmul(out, f)
    return out


def _sympy_factors(p):
    """Sympy's irreducible factors of p over Q(i), monic, with
    multiplicities."""
    _, factors = _to_sympy(p).factor_list()
    return [(cpoly.monic([_from_sympy(c) for c in reversed(f.all_coeffs())]),
             int(k)) for f, k in factors]


def _check_against_sympy(p, factors=None):
    """roots_exact(p) against p's factorization over Q(i), sympy's unless
    given: the same roots with the same multiplicities, the same product of
    the rest up to a unit, and every rest factor monic, square-free and
    without a root in Q(i)."""
    linear, rest = cpoly.roots_exact(p)
    factors = _sympy_factors(p) if factors is None else factors
    want_roots = [(-f[0], k) for f, k in factors if len(f) == 2]
    want_rest = [(f, k) for f, k in factors if len(f) > 2]
    assert sorted((x.re, x.im, k) for x, k in linear) == \
        sorted((x.re, x.im, k) for x, k in want_roots)
    keys = [(k, x.re, x.im) for x, k in linear]
    assert keys == sorted(keys)
    # every factor in want_rest is irreducible of degree >= 2, so once the
    # products agree, no rest factor has a root in Q(i)
    assert cpoly.monic(_product(rest)) == cpoly.monic(_product(want_rest))
    for f, _ in rest:
        assert f[-1].is_one
        assert cpoly.pgcd(f, cpoly.pderiv(f)) == gp(1)
    return linear, rest


@pytest.mark.parametrize("text, roots, rest", [
    # the limit maps' fixed-point and Wronskian inputs of report on the
    # Lattes family at --max-denominator 7
    ("-z**3 - 1/4", [], [("z**3 + 1/4", 1)]),
    ("-z**5 - 4", [], [("z**5 + 4", 1)]),
    ("-3*z**2/4 + z", [("0", 1), ("4/3", 1)], []),
    ("z**2/4 - z/2", [("0", 1), ("2", 1)], []),
    # z(z - 21) and z(z - 21i): their roots meet mod 3 and mod 7, so the
    # search must move on to p = 11
    ("z*(z - 21)", [("0", 1), ("21", 1)], []),
    ("z*(z - 21*I)", [("0", 1), ("21*i", 1)], []),
    ("5", [], []),
    ("(2 + I)*z - 3", [("6/5-3/5*i", 1)], []),
    ("z**12*(z**2 + 2)", [("0", 12)], [("z**2 + 2", 1)]),
    ("(z - 1)**2*(z**2 + 1)**3*(z**2 - 3)**3*(z**2 + 2)",
     [("1", 2), ("-i", 3), ("i", 3)], [("z**2 + 2", 1), ("z**2 - 3", 3)]),
])
def test_roots_exact_cases(text, roots, rest):
    linear, got_rest = _check_against_sympy(_poly(text))
    assert [(str(x), k) for x, k in linear] == roots
    assert got_rest == [(_poly(f), k) for f, k in rest]


gaussian_roots = st.lists(st.tuples(gaussians, st.integers(1, 3)),
                          max_size=3)
cofactors = st.lists(st.lists(gaussians, min_size=2, max_size=4), max_size=2)


# sympy factors a quadratic over Q(i) in tens of milliseconds, so this test
# runs fewer examples than the suite profile's default
@settings(max_examples=50)
@given(gaussian_roots, cofactors, gaussians.filter(bool))
def test_roots_exact_matches_sympy(roots, extra, lead):
    # p factors over Q(i) as its pieces do, so sympy factors each piece:
    # factoring p itself would cost most of the suite's time
    pieces = [([-x, G.one()], k) for x, k in roots] + [(f, 1) for f in extra]
    factors = {}
    for piece, k in pieces:
        for f, j in _sympy_factors(piece):
            factors[tuple(f)] = factors.get(tuple(f), 0) + k * j
    p = cpoly.pscale(_product(pieces), lead)
    _check_against_sympy(p, [(list(f), k) for f, k in factors.items()])


# -- roots_numeric against mpmath ------------------------------------------

EPS = 2.0 ** -52
# Over the 58 cases below with complex entries and a repeated root, the worst
# normalized error (see _scale) of np.roots, the companion-matrix solver
# roots_numeric called before it became pure Python, was 10.62 (median
# 1.06); the Aberth iteration's worst is 1.97 (median 0.54)
REPEATED_BOUND = 10.62


def _mp(c):
    return mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator,
                      mpmath.mpf(c.im.numerator) / c.im.denominator)


def _scale(a, r, k):
    """(k! eps S / |a^(k)(r)|)^(1/k), S = sum_j |a_j| |r|^j: to first order,
    how far a k-fold root r moves when each a_j moves by eps |a_j|."""
    taylor = sum(comb(j, k) * c * r ** (j - k)
                 for j, c in enumerate(a) if j >= k)
    size = sum(abs(c) * abs(r) ** j for j, c in enumerate(a))
    return (EPS * size / abs(taylor)) ** (mpmath.mpf(1) / k)


def _radii(a, zs):
    """The Weierstrass radii n |a(z_i)| / |a_n prod_{j != i} (z_i - z_j)|."""
    n = len(zs)
    out = []
    for x in zs:
        q = a[-1]
        for y in zs:
            if y != x:
                q *= x - y
        out.append(n * abs(mpmath.polyval(a[::-1], x)) / abs(q))
    return out


def _matches(slots, got, close):
    """Whether each slot gets a root of its own from got, close(slot, root)
    for each pair; by augmenting paths (Kuhn)."""
    owner = {}

    def place(i, seen):
        for j, z in enumerate(got):
            if j not in seen and close(slots[i], z):
                seen.add(j)
                if j not in owner or place(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(slots)))


# (x + yi)/d with |x|, |y| <= 9 and d <= 3, cheaper to draw than gaussians
thirds = st.builds(lambda x, y, d: G(Fraction(x, d), Fraction(y, d)),
                   st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 3))
nonzero = thirds.filter(bool)
# a root or a factor of degree 2 or 3, of multiplicity 1-3, or two simple
# roots 10^-k apart
pieces = st.lists(st.one_of(
    st.tuples(nonzero.map(lambda x: [[-x, G.one()]]), st.integers(1, 3)),
    st.tuples(st.tuples(nonzero, st.lists(thirds, min_size=1, max_size=2),
                        nonzero).map(lambda a: [[a[0], *a[1], a[2]]]),
              st.integers(1, 3)),
    st.tuples(st.tuples(nonzero, st.integers(3, 6),
                        st.sampled_from([G(1), G(0, 1)]))
              .map(lambda a: [[-a[0], G.one()],
                              [-a[0] - a[2] * G(Fraction(1, 10 ** a[1])),
                               G.one()]]), st.just(1))), min_size=1, max_size=3)


HOLE, LINEAR = [G(-2), G(0), G(1)], [G(-1), G(1)]


@given(pieces, nonzero, st.integers(0, 3), st.integers(0, 2), st.booleans())
# verify's irrational hole z^2 - 2; a linear factor; degree 12, repeated
@example([([HOLE], 1)], G(1), 0, 0, True)
@example([([LINEAR], 1)], G(2, 1), 0, 1, True)
@example([([HOLE], 3), ([LINEAR], 3)], G(1), 3, 2, False)
@example([([HOLE], 3), ([LINEAR], 3)], G(1), 3, 2, True)
def test_roots_numeric_matches_mpmath(pieces, lead, low, top, exact):
    # p = lead z^low prod f^k of degree 1-12 over pairwise coprime
    # square-free f, padded with exact zeros on top; the entries are
    # Gaussian rationals or their doubles
    factors = [(f, k) for fs, k in pieces for f in fs]
    square_free = _product([(f, 1) for f, _ in factors])
    p = cpoly.pscale(_product(factors), lead)
    assume(len(p) + low <= 13
           and len(cpoly.pgcd(square_free, cpoly.pderiv(square_free))) == 1)
    entries = [G.zero()] * low + p + [G.zero()] * top
    if not exact:
        entries = [c.to_complex() for c in entries]
    got = cpoly.roots_numeric(entries)
    assert len(got) == len(p) - 1 + low
    assert got[len(got) - low:] == [0j] * low and 0j not in got[:-low or None]
    got = got[:len(got) - low]
    with mpmath.workdps(50):
        want = [(r, k) for f, k in factors
                for r in mpmath.polyroots([_mp(c) for c in f[::-1]],
                                          extraprec=100)]
        if exact or all(k == 1 for _, k in factors):
            # every root is simple in the square-free part, whose disks about
            # the distinct roots found must be disjoint and hold one each
            zs = list(dict.fromkeys(got))
            radii = _radii([_mp(c) for c in square_free], zs)
            assert all(abs(x - y) > radii[i] + radii[j]
                       for i, x in enumerate(zs) for j, y in enumerate(zs[:i]))
            tiny = mpmath.mpf(10) ** -40
            for r, k in want:
                held = [x for x, rad in zip(zs, radii)
                        if abs(x - r) <= rad + tiny]
                assert len(held) == 1 and got.count(held[0]) == k
            assert len(want) == len(zs)
        else:
            a = [_mp(c) for c in p]
            slots = [(r, _scale(a, r, k)) for r, k in want for _ in range(k)]
            assert _matches(slots, got, lambda s, z: abs(z - s[0])
                            <= REPEATED_BOUND * s[1])


def _det_by_permutations(rows):
    n = len(rows)
    total = G.zero()
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        # cycle decomposition parity
        for start in range(n):
            if seen[start]:
                continue
            length, j = 0, start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = G.one()
        for i in range(n):
            prod = prod * rows[i][perm[i]]
        total = total + (prod if sign > 0 else -prod)
    return total


@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(gaussians, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_pdet_matches_permutation_expansion(rows):
    # constant entries; the empty matrix has determinant 1
    det = cpoly.pdet([[[c] for c in row] for row in rows])
    assert len(det) <= 1
    assert (det[0] if det else G.zero()) == _det_by_permutations(rows)


small_polys = st.lists(st.integers(-2, 2).map(lambda n: G(n, 0)), max_size=3)


@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_pdet_matches_permutation_expansion_on_polynomials(rows):
    # the determinant has degree <= 2n, so 2n + 1 points pin it down
    det = cpoly.pdet(rows)
    assert det == cpoly.trim(det)
    assert cpoly.degree(det) <= 2 * len(rows)
    for x in range(2 * len(rows) + 1):
        at_x = [[cpoly.peval(e, G(x, 0)) for e in row] for row in rows]
        assert cpoly.peval(det, G(x, 0)) == _det_by_permutations(at_x)


int_polys = st.lists(st.integers(min_value=-5, max_value=5),
                     min_size=1, max_size=5)


@given(int_polys, int_polys)
def test_resultant_matches_sympy(p_ints, q_ints):
    # a t-free family, its resultant a constant series
    p, q = gp(*p_ints), gp(*q_ints)
    res = resultant_series(MapL([PuiseuxSeries.constant(c) for c in p],
                                [PuiseuxSeries.constant(c) for c in q]))
    assert res.is_exact and all(e == 0 for e, _ in res.terms)
    ours = res.coefficient(0)
    pt, qt = cpoly.trim(p), cpoly.trim(q)
    if not pt or not qt:
        assert ours == G.zero()
        return
    m, n = cpoly.degree(pt), cpoly.degree(qt)
    if m == 0 or n == 0:
        # conventions differ between systems at degree zero; ours is the
        # product over the other factor's roots, i.e. a plain power
        expected = G.one() if m == 0 and n == 0 else \
            pt[0] ** n if m == 0 else qt[0] ** m
        assert ours == expected
        return
    z = sympy.Symbol("z")
    pe = sum(c * z ** i for i, c in enumerate(p_ints))
    qe = sum(c * z ** i for i, c in enumerate(q_ints))
    # sympy's PRS resultant loses the swap sign when deg p < deg q, so feed
    # it the higher degree first and restore (-1)^(mn) ourselves
    if m >= n:
        theirs = sympy.resultant(sympy.Poly(pe, z), sympy.Poly(qe, z))
    else:
        theirs = sympy.resultant(sympy.Poly(qe, z), sympy.Poly(pe, z))
        theirs *= (-1) ** (m * n)
    assert ours == G(Fraction(int(theirs)), 0)


@given(int_polys, int_polys, int_polys)
def test_division_identity(p_ints, q_ints, _unused):
    p, q = gp(*p_ints), cpoly.trim(gp(*q_ints))
    if not q:
        return
    quot, rem = cpoly.pdivmod(p, q)
    assert cpoly.padd(cpoly.pmul(quot, q), rem) == cpoly.trim(p)
    assert cpoly.degree(rem) < cpoly.degree(q) or rem == []


def _pdivmod_reference(p, q):
    """The division loop that subtracts a full product per step."""
    q = cpoly.trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    lead = q[-1]
    dq = len(q) - 1
    quot = []
    while len(cpoly.trim(rem)) - 1 >= dq and cpoly.trim(rem):
        rem = cpoly.trim(rem)
        k = len(rem) - 1 - dq
        c = rem[-1] / lead
        mono = [type(c).zero()] * k + [c]
        quot = cpoly.padd(quot, mono)
        rem = cpoly.psub(rem, cpoly.pmul(q, mono))
        rem = rem[:dq + k]
    return cpoly.trim(quot), cpoly.trim(rem)


exact_coeffs = st.builds(
    G, *[st.fractions(min_value=-4, max_value=4, max_denominator=3)] * 2)


def _check_pdivmod(p, q):
    if cpoly.is_zero_poly(q):
        with pytest.raises(ZeroDivisionError):
            cpoly.pdivmod(p, q)
        return
    got = cpoly.pdivmod(p, q)
    want = _pdivmod_reference(p, q)
    assert [list(map(repr, x)) for x in got] \
        == [list(map(repr, x)) for x in want]


@pytest.mark.parametrize("coeffs", [exact_coeffs], ids=["exact"])
@given(data=st.data())
def test_pdivmod_matches_reference_loop(coeffs, data):
    _check_pdivmod(data.draw(st.lists(coeffs, max_size=9)),
                   data.draw(st.lists(coeffs, min_size=1, max_size=5)))


@pytest.mark.parametrize("p, q", [
    # constants: -i / i
    ([G(0, -1)], [G(0, 1)]),
    # a dividend of lower degree than the divisor is its own remainder
    (gp(1, 2), [G(0, 1), G(0), G(2, 1)]),
    # (z + 1)(z - 2) / (z + 1): the remainder cancels to nothing
    (gp(-2, -1, 1), gp(1, 1)),
    # z^4 + 1 over (2+i) z^2 + i: a remainder step whose top entry is zero
    (gp(1, 0, 0, 0, 1), [G(0, 1), G(0), G(2, 1)]),
])
def test_pdivmod_matches_reference_loop_cases(p, q):
    _check_pdivmod(p, q)


# -- the ring-generic helpers on series and on complex -----------------------


def _termwise(parts, trunc):
    """repr of the terms and the trunc of sum c t^e over parts, mod t^trunc,
    summed in a dict keyed by exponent."""
    acc = {}
    for e, c in parts:
        acc[e] = acc[e] + c if e in acc else c
    kept = [(e, c) for e, c in sorted(acc.items(), key=lambda ec: ec[0])
            if e < trunc and not c.is_zero]
    return repr(tuple(kept)), trunc


def _got(poly):
    return [(repr(c.terms), c.trunc) for c in poly]


@pytest.mark.parametrize("trunc", [inf, Fraction(5, 2)],
                         ids=["exact", "truncated"])
def test_ring_helpers_on_series(trunc):
    def s(tr, *terms):
        return PuiseuxSeries.build(terms, tr)

    half = Fraction(1, 2)
    # p[0] + q[0] cancels its constant term; p's top entry is known to be
    # zero only mod t^2
    p = [s(trunc, (0, 1), (1, 2)), s(inf, (half, -3)), s(trunc, (2, half)),
         s(2)]
    q = [s(inf, (0, -1), (half, half / 2)), s(trunc, (half, 3), (2, 1))]
    zero = s(inf)
    assert _got(cpoly.trim(p + [zero, zero])) == _got(p)
    assert _got(cpoly.trim(q + [zero])) == _got(q)
    assert cpoly.degree(p) == 3 and cpoly.degree([zero]) == -1

    def pairs(a, b, neg):
        return [_termwise(list(x.terms) + [(e, -c if neg else c)
                                           for e, c in y.terms],
                          min(x.trunc, y.trunc))
                for x, y in zip(a + [zero] * (len(b) - len(a)),
                                b + [zero] * (len(a) - len(b)))]

    assert _got(cpoly.padd(p, q)) == pairs(p, q, False)
    assert _got(cpoly.psub(p, q)) == pairs(p, q, True)
    c = G(-2)
    assert _got(cpoly.pscale(p, c)) \
        == [_termwise([(e, a * c) for e, a in x.terms], x.trunc) for x in p]
    y = q[0]
    assert _got(cpoly.pscale(p, y)) == [
        _termwise([(e + f, a * b) for e, a in x.terms for f, b in y.terms],
                  min(x.trunc + y.val_lower(), y.trunc + x.val_lower()))
        for x in p]
    got = cpoly.peval(p, c)
    assert (repr(got.terms), got.trunc) == _termwise(
        [(e, a * c ** i) for i, x in enumerate(p) for e, a in x.terms],
        min(x.trunc for x in p))


def test_ring_helpers_on_complex():
    p, q = [1 + 2j, -3.0, 0.5j], [4j, 1.5]
    assert cpoly.padd(p, q) == [1 + 6j, -1.5, 0.5j]
    assert cpoly.psub(p, q) == [1 - 2j, -4.5, 0.5j]
    assert cpoly.pscale(q, 2j) == [-8 + 0j, 3j]
    x = 1 - 1j
    assert cpoly.peval(p, x) == p[0] + p[1] * x + p[2] * x * x
