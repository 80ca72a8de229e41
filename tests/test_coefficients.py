import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rescaling import ApproxComplex, GaussianRational, MixedCoefficients


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
    assert a.abs2() == 1
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
    with pytest.raises(MixedCoefficients):
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
    rf"(?P<a>-?{_NUMBER})|(?P<b>-?(?:{_NUMBER})?)i"
    rf"|(?P<re>-?{_NUMBER})(?P<sign>[+-])(?P<im>(?:{_NUMBER})?)i")


def _read_printed(text):
    """A printed Gaussian rational, in the grammar a | bi | a+bi | a-bi."""
    m = _PRINTED.fullmatch(text)
    assert m, text
    if m["a"] is not None:
        return GaussianRational(Fraction(m["a"]))
    if m["re"] is None:
        im = {"": 1, "-": -1}.get(m["b"])
        return GaussianRational(0, Fraction(m["b"]) if im is None else im)
    im = Fraction(m["im"]) if m["im"] else 1
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


@given(nonzero_gaussians, nonzero_gaussians)
def test_gaussian_abs2_multiplicative(a, b):
    assert (a * b).abs2() == a.abs2() * b.abs2()


def test_approx_arithmetic():
    a = ApproxComplex(0.5, 1.0)
    b = ApproxComplex(2.0, 0.0)
    assert (a * b).to_complex() == 1.0 + 2.0j
    assert (a + b).to_complex() == 2.5 + 1.0j
    assert abs((a / b).to_complex() - (0.25 + 0.5j)) < 1e-15


def test_approx_zero_threshold():
    # doubles a hair above zero still count as zero for pivoting decisions
    assert ApproxComplex(1e-15, 0.0).is_zero
    assert not ApproxComplex(1e-9, 0.0).is_zero
