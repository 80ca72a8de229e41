"""Series arithmetic: construction, truncation bookkeeping, valuations."""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rescaling import GaussianRational, PrecisionExhausted, PuiseuxSeries

t_pow = PuiseuxSeries.t_power


def series(*terms, trunc=inf):
    return PuiseuxSeries.build(terms, trunc)


def test_build_combines_and_drops():
    s = series((1, 2), (1, 3), (0, 0))
    assert s.terms == ((Fraction(1), GaussianRational(5, 0)),)
    assert series((2, 1), trunc=2).terms == ()
    assert series((2, 1), trunc=2).trunc == Fraction(2)


def test_build_sorts_by_exponent():
    s = series((1, 1), (Fraction(-1, 2), 1), (0, 1))
    assert [e for e, _ in s.terms] == [Fraction(-1, 2), 0, 1]


def test_valuation():
    assert t_pow(Fraction(1, 2)).valuation() == Fraction(1, 2)
    assert PuiseuxSeries.zero().valuation() == inf
    with pytest.raises(PrecisionExhausted):
        PuiseuxSeries.zero(trunc=3).valuation()


def test_is_zero_distinguishes_exact_from_truncated():
    assert PuiseuxSeries.zero().is_zero
    assert not PuiseuxSeries.zero(trunc=3).is_zero
    assert PuiseuxSeries.zero(trunc=3).val_lower() == 3


def test_add_truncation_is_min():
    a = series((1, 1), (3, 1), trunc=5)
    b = series((1, -1), trunc=4)
    out = a + b
    assert out.trunc == 4
    assert out.terms == ((Fraction(3), GaussianRational(1, 0)),)


def test_mul_truncation_rule():
    # trunc(fg) = min(trunc(f) + val(g), trunc(g) + val(f))
    a = series((1, 1), trunc=3)
    b = series((2, 1), trunc=4)
    out = a * b
    assert out.trunc == 5
    assert out.terms == ((Fraction(3), GaussianRational(1, 0)),)


def test_exact_product():
    one_plus = series((0, 1), (1, 1))
    one_minus = series((0, 1), (1, -1))
    assert one_plus * one_minus == series((0, 1), (2, -1))


def test_monomial_inverse_is_exact():
    inv = t_pow(3, 2).inverse()
    assert inv == t_pow(-3, Fraction(1, 2))
    assert inv.is_exact


def test_geometric_inverse():
    inv = series((0, 1), (1, -1)).inverse(prec=3)
    assert inv == series((0, 1), (1, 1), (2, 1), trunc=3)


def test_exact_inverse_takes_a_prec_above_the_default():
    inv = series((0, 1), (1, -1)).inverse(prec=20)
    assert inv == series(*[(k, 1) for k in range(20)], trunc=20)


def test_infinite_inverse_needs_a_prec():
    # no default cut: an exact series with a tail has no finite inverse
    with pytest.raises(ValueError, match="prec"):
        series((0, 1), (1, -1)).inverse()


def test_inverse_prec_cannot_exceed_what_is_known():
    assert series((0, 1), (1, -1), trunc=3).inverse(prec=20).trunc == 3


def test_inverse_keeps_leading_shift():
    # 1 / (t + t^2) = t^-1 - 1 + t - ...
    inv = series((1, 1), (2, 1)).inverse(prec=2)
    assert inv.cap(1) == series((-1, 1), (0, -1), trunc=1)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        PuiseuxSeries.zero().inverse()


def test_shift_cap_scale():
    s = series((0, 1), (1, 1), trunc=4)
    assert s.shift(2).terms[0][0] == 2
    assert s.shift(2).trunc == 6
    assert s.cap(1).terms == ((Fraction(0), GaussianRational(1, 0)),)
    assert s.scale(3).coefficient(1) == GaussianRational(3, 0)


def test_coefficient_access():
    s = series((1, 7), trunc=3)
    assert s.coefficient(1) == GaussianRational(7, 0)
    assert s.coefficient(2) == GaussianRational.zero()
    with pytest.raises(PrecisionExhausted):
        s.coefficient(3)


def test_residue():
    assert series((0, 5), (1, 1)).residue() == GaussianRational(5, 0)
    assert series((1, 1)).residue() == GaussianRational.zero()
    with pytest.raises(ValueError):
        series((-1, 1)).residue()
    with pytest.raises(PrecisionExhausted):
        PuiseuxSeries.zero(trunc=0).residue()


def test_mixing_coefficient_kinds_rejected():
    # a float is no Gaussian rational: spell it as a decimal literal instead
    with pytest.raises(TypeError):
        PuiseuxSeries.one() + 0.5
    with pytest.raises(TypeError):
        PuiseuxSeries.build([(0, 0.5)], inf)


def test_str_forms():
    assert str(series((0, 1), (1, 1))) == "1 + t"
    assert str(series((-1, 1), (0, 1))) == "t^-1 + 1"
    assert str(PuiseuxSeries.zero()) == "0"
    assert str(series((0, 1), (1, 1), trunc=3)) == "1 + t + O(t^3)"
    assert str(PuiseuxSeries.zero(trunc=3)) == "O(t^3)"


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
exponents = st.fractions(min_value=-3, max_value=5, max_denominator=3)
raw_terms = st.lists(st.tuples(exponents, small_fractions), max_size=4)
exact_series = raw_terms.map(lambda ts: PuiseuxSeries.build(ts, inf))
nonzero_series = exact_series.filter(lambda s: bool(s.terms))


@given(exact_series, exact_series)
def test_ultrametric_inequality(f, g):
    h = f + g
    if h.is_zero:
        return
    assert h.valuation() >= min(f.valuation(), g.valuation())
    if not f.is_zero and not g.is_zero and f.valuation() != g.valuation():
        assert h.valuation() == min(f.valuation(), g.valuation())


@given(nonzero_series, nonzero_series)
def test_valuation_multiplicative(f, g):
    assert (f * g).valuation() == f.valuation() + g.valuation()


@given(exact_series, exact_series, exact_series)
def test_exact_arithmetic_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@given(nonzero_series)
def test_inverse_round_trip(f):
    prec = f.valuation() + 5
    out = (f * f.inverse(prec=prec - f.valuation())).cap(5)
    assert out == PuiseuxSeries.one(trunc=out.trunc)


@given(exact_series, exponents)
def test_shift_round_trip(f, d):
    assert f.shift(d).shift(-d) == f


@given(nonzero_series, nonzero_series)
def test_residue_is_multiplicative(f, g):
    # lift both to valuation >= 0 so residues are defined
    f = f.shift(max(Fraction(0), -f.valuation()))
    g = g.shift(max(Fraction(0), -g.valuation()))
    assert (f * g).residue() == f.residue() * g.residue()
