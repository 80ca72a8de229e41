import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rescaling import GaussianRational


def test_gaussian_basic_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a + b == GaussianRational(4, 1)
    assert a - b == GaussianRational(-2, 3)
    assert a * b == GaussianRational(5, 5)
    assert -a == GaussianRational(-1, -2)
    assert a * a.inverse() == GaussianRational.one()
    assert (a / b) * b == a


def test_gaussian_abs2_and_pow():
    a = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    assert a ** 0 == GaussianRational.one()
    assert a ** 3 == a * a * a
    assert a ** -2 == (a * a).inverse()


def test_gaussian_predicates():
    assert GaussianRational.zero().is_zero
    assert GaussianRational.one().is_one
    assert not GaussianRational(0, 1).is_zero
    assert not GaussianRational(1, 1).is_one


def test_gaussian_coercion():
    assert GaussianRational.coerce(3) == GaussianRational(3, 0)
    assert GaussianRational.coerce(Fraction(1, 2)) == GaussianRational(
        Fraction(1, 2), 0)
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5)


def test_gaussian_zero_inverse():
    with pytest.raises(ZeroDivisionError):
        GaussianRational.zero().inverse()


def test_gaussian_to_complex():
    assert GaussianRational(Fraction(1, 4), -2).to_complex() == 0.25 - 2j


small_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=6)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
nonzero_gaussians = gaussians.filter(lambda g: not g.is_zero)


_NUMBER = r"\d+(?:/\d+)?"
_PRINTED = re.compile(
    rf"(?P<a>-?{_NUMBER})|(?P<b>-?(?:{_NUMBER}\*)?)i"
    rf"|(?P<re>-?{_NUMBER})(?P<sign>[+-])(?P<im>(?:{_NUMBER}\*)?)i")


def _read_printed(text):
    """A printed Gaussian rational: a | b*i | a+b*i | a-b*i, b = 1 unwritten."""
    m = _PRINTED.fullmatch(text)
    assert m, text
    if m["a"] is not None:
        return GaussianRational(Fraction(m["a"]))
    if m["re"] is None:
        im = {"": 1, "-": -1}.get(m["b"])
        return GaussianRational(0, Fraction(m["b"][:-1]) if im is None else im)
    im = Fraction(m["im"][:-1]) if m["im"] else 1
    return GaussianRational(Fraction(m["re"]), -im if m["sign"] == "-" else im)


@given(gaussians)
def test_gaussian_str_round_trip(g):
    assert _read_printed(str(g)) == g


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(nonzero_gaussians)
def test_gaussian_multiplicative_inverse(a):
    assert a * a.inverse() == GaussianRational.one()
    assert a.inverse().inverse() == a


@given(gaussians, nonzero_gaussians)
def test_gaussian_division_round_trip(a, b):
    assert (a / b) * b == a


# -- the integer triple against a Fraction-pair reference ---------------------


class _Pair:
    """a + b*i as two Fractions: the reference for GaussianRational."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return _Pair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Pair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Pair(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return _Pair(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, n):
        out, base = _Pair(1), self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            out = out * base
        return out

    def __str__(self):
        def imag(q):
            return {1: "i", -1: "-i"}.get(q, f"{q}*i")
        if not self.im:
            return str(self.re)
        if not self.re:
            return imag(self.im)
        sign = "-" if self.im < 0 else "+"
        return f"{self.re}{sign}{imag(abs(self.im))}"


def _same(g, ref):
    """g equals the reference in value, triple, printing, hash and floats."""
    assert (g.re, g.im) == (ref.re, ref.im)
    assert g.d > 0 and gcd(g.x, g.y, g.d) == 1
    assert str(g) == str(ref)
    assert repr(g) == f"GaussianRational({ref.re!r}, {ref.im!r})"
    assert hash(g) == hash((ref.re, ref.im))
    z, w = g.to_complex(), complex(ref.re, ref.im)
    assert (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())
    assert g.is_zero == (not ref.re and not ref.im) == (not g)
    assert g.is_one == (ref.re == 1 and not ref.im)


wide_fractions = st.one_of(
    small_fractions,
    st.fractions(min_value=-10 ** 40, max_value=10 ** 40,
                 max_denominator=10 ** 40),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]))
rationals = st.one_of(st.integers(-9, 9), wide_fractions)


@given(wide_fractions, wide_fractions, wide_fractions, wide_fractions,
       rationals, st.integers(-4, 4))
def test_gaussian_matches_fraction_pairs(ar, ai, br, bi, q, n):
    a, b = GaussianRational(ar, ai), GaussianRational(br, bi)
    ra, rb, rq = _Pair(ar, ai), _Pair(br, bi), _Pair(q)
    _same(a, ra)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(a * b, ra * rb)
    _same(-a, _Pair(0) - ra)
    # ints and Fractions coerce on either side
    _same(a + q, ra + rq)
    _same(q + a, rq + ra)
    _same(a - q, ra - rq)
    _same(q - a, rq - ra)
    _same(a * q, ra * rq)
    _same(q * a, rq * ra)
    assert (a == q) == (ra.re == rq.re and ra.im == rq.im)
    assert (a == b) == ((ar, ai) == (br, bi))
    if not b.is_zero:
        _same(a / b, ra / rb)
        _same(b.inverse(), rb.inverse())
        _same(b ** n, rb ** n)
        _same(q / b, rq / rb)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    if q:
        _same(a / q, ra / rq)
    if n >= 0 or not a.is_zero:
        _same(a ** n, ra ** n)
