"""Family and frame parsing."""

from fractions import Fraction

import pytest

from rescaling import (GaussianRational, ParseError, parse_family,
                       parse_frame, reduce_family)
from .support import CUBIC, LATTES, MCMULLEN, QUAD0


def test_family_degrees():
    assert parse_family(MCMULLEN).degree == 5
    assert parse_family(QUAD0).degree == 2
    assert parse_family(CUBIC).degree == 3
    assert parse_family(LATTES).degree == 4


def test_shared_z_factor_is_stripped():
    # z^2 * (z + t) / z^2 is the affine map z + t, not a degree-3 family
    fam = parse_family("(z^3 + t*z^2)/z^2")
    assert fam.degree == 1


def test_substitution_keeps_degree():
    assert parse_family(CUBIC, subst="-1+t").degree == 3
    assert parse_family(CUBIC, subst="1/t").degree == 3


def test_substitution_changes_coefficients():
    plain = parse_family(QUAD0)
    shifted = parse_family(QUAD0, subst="-1+t")
    assert plain.num[0].terms != shifted.num[0].terms


def test_fractional_exponent_on_t():
    fam = parse_family("z^2 + t^(1/2)")
    assert fam.num[0].valuation() == Fraction(1, 2)


@pytest.mark.parametrize("base", ["(t)", "((t))"])
def test_fractional_exponent_on_parenthesised_t(base):
    fam = parse_family(f"z^2 + {base}^(1/2)")
    assert fam.num[0].valuation() == Fraction(1, 2)


@pytest.mark.parametrize("base", ["(t+0)", "(2*t)"])
def test_fractional_exponent_on_t_expression_rejected(base):
    with pytest.raises(ParseError, match="allowed on t alone"):
        parse_family(f"z^2 + {base}^(1/2)")


@pytest.mark.parametrize("text,subst,msg", [
    ("(1/(t-t))^0", None, "identically zero"),
    ("(z^99999)^-0", None, "exceeds the cap"),
    ("((z+1)^70/(1-1))^(0/3)", None, "exceeds the cap"),
    ("(t^(1/2))^0", "-1+t", "cannot follow a substitution"),
])
def test_base_raised_to_zero_is_evaluated(text, subst, msg):
    # a faulty base is refused even though the power would be 1
    with pytest.raises(ParseError, match=msg):
        parse_family(f"z^2 + {text}", subst=subst)


def test_base_raised_to_zero_must_still_parse():
    with pytest.raises(ParseError, match="unexpected token"):
        parse_family("z^2 + (1/(t-t)*)^0")


def test_fractional_exponent_on_z_rejected():
    with pytest.raises(ParseError, match="allowed on t alone"):
        parse_family("z^(1/2)")


def test_fractional_exponent_after_substitution_rejected():
    with pytest.raises(ParseError, match="cannot follow a substitution"):
        parse_family("z^2 + t^(1/2)", subst="-1+t")


@pytest.mark.parametrize("decimal,exact", [
    ("0.5", "1/2"), (".25", "1/4"), ("3.", "3"), ("0.0000001", "1/10000000"),
    ("1.10", "11/10"),
])
def test_float_literals_give_exact_coefficients(decimal, exact):
    fam = parse_family(f"{decimal}*z^2 + 1")
    assert fam.degree == 2
    assert fam.num[2].coefficient(0) == GaussianRational(Fraction(exact))


def test_imaginary_unit_stays_exact():
    fam = parse_family("z^2 + i")
    assert fam.num[0].coefficient(0) == GaussianRational(0, 1)


def test_floats_equal_their_exact_spelling():
    # a quotient keeps its denominator in the family, so compare reductions
    assert reduce_family(parse_family("0.5*z^2 + i")) \
        == reduce_family(parse_family("1/2*z^2 + i"))
    assert [c.terms for c in parse_family("z^2 + t", subst="0.1*t").num] \
        == [c.terms for c in parse_family("z^2 + t", subst="1/10*t").num]
    assert parse_frame("1, 0.5 + 2.5*t^(1/2)").c \
        == parse_frame("1, 1/2 + 5/2*t^(1/2)").c


def test_decimal_exponent_is_a_parse_error():
    with pytest.raises(ParseError, match="expected 'int'"):
        parse_family("z^2.0")


@pytest.mark.parametrize("text,msg", [
    ("z^2 + $", "unexpected character"),
    ("z^2 )", "trailing input"),
    ("z^2 +", "unexpected end"),
    ("1/(t-t)", "identically zero"),
])
def test_parse_errors(text, msg):
    with pytest.raises(ParseError, match=msg):
        parse_family(text)


def test_substitution_must_be_in_t():
    with pytest.raises(ParseError, match="only involve t"):
        parse_family(QUAD0, subst="z")


def test_parse_frame_forms():
    fr = parse_frame("2/5")
    assert fr.h == Fraction(2, 5) and fr.c.is_zero
    fr = parse_frame("1/2, t")
    assert fr.h == Fraction(1, 2) and str(fr.c) == "t"
    fr = parse_frame("-3, 1 + t^2")
    assert fr.h == -3 and str(fr.c) == "1 + t^2"
    # a center with a many-term denominator is cut to exponents <= h
    assert str(parse_frame("0, 1/(1-t)").c) == "1"
    deep = parse_frame("20, 1/(1-t)").c
    assert deep.is_exact and [e for e, _ in deep.terms] == list(range(21))
    assert str(parse_frame("1/2, t^(1/3)/(1+t^(1/2))").c) == "t^(1/3)"
    assert parse_frame("1, 1/(1-t) - 1/(1-t)").c.is_zero
    assert str(parse_frame("1, 1/t").c) == "t^-1"


def test_parse_frame_errors():
    with pytest.raises(ParseError, match="bad zoom exponent"):
        parse_frame("abc")
    with pytest.raises(ParseError, match="only involve t"):
        parse_frame("1, z")
