"""Parsing of family, substitution, and frame expressions.

The expression language is small: integer literals, the imaginary unit i,
the variables z and t, the operators + - * / ^, and parentheses.  Rationals
are spelled as quotients (1/2) or as decimals, which are read as the exact
rationals they spell: 0.1 is 1/10.  Exponents on z are integers, possibly
negative; t alone may carry a rational exponent, written t^(p/q).  Every
family is therefore Gaussian-rational.

The parser evaluates as it reads, with no parse tree: each grammar rule
returns the value of its text, so every base is evaluated, even one raised
to the power 0.  A first pass reads the grammar alone, so a malformed text
is reported as such before any fault in its value.  A z where only t may
appear is found by scanning the tokens.

A substitution t -> a(t)/b(t) is applied exactly, as the family is read:
t stands for that quotient, and b is cleared with the other denominators,
so every family is exact.  A one-term b is folded into a, so that 1/t
stands for t^-1 and adds no denominator.  Fractional t-exponents cannot be
combined with a substitution, since the result would need fractional
powers of a(t)/b(t).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import wraps
from math import inf
from typing import List, Optional, Tuple

from .config import ITERATE_DEGREE_CAP
from .errors import DegenerateFamily, ParseError
from .coefficients import GaussianRational
from . import cpoly
from .maps import AffineFrame, MapL, resultant_vanishes, smul
from .puiseux import PuiseuxSeries

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+)|(\d+)|([izt])|(->)|([-+*/^(),]))")

Token = Tuple[str, object]


def _tokenize(text: str) -> List[Token]:
    out: List[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(
                    f"unexpected character {text[pos:].strip()[0]!r}")
            break
        pos = m.end()
        dec, num, name, arrow, op = m.groups()
        if dec is not None:
            out.append(("decimal", Fraction(dec)))
        elif num is not None:
            out.append(("int", int(num)))
        elif name is not None:
            out.append((name, None))
        elif arrow is not None:
            out.append(("->", None))
        else:
            out.append((op, None))
    return out


class _Parser:
    """Recursive descent in which every rule returns the :class:`_Rat`
    value of the text it read; t stands for the quotient ``subst`` if one
    is given.
    Unless ``evaluate``, every value is :data:`_UNEVALUATED`."""

    def __init__(self, tokens: List[Token], subst: Optional[_Rat] = None,
                 evaluate: bool = True):
        self.toks = tokens
        self.pos = 0
        self.one = PuiseuxSeries.one()
        self.subst = subst
        self.t = subst if subst is not None else _Rat(
            [PuiseuxSeries.t_power(1)], [self.one])
        self.evaluate = evaluate

    def peek(self) -> Optional[str]:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self, kind: str = None) -> Token:
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of expression")
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}")
        self.pos += 1
        return tok

    def value(self, num: List[PuiseuxSeries]) -> _Rat:
        return _Rat(num, [self.one]) if self.evaluate else _UNEVALUATED

    def const(self, series: PuiseuxSeries) -> _Rat:
        return self.value([series])

    def parse(self) -> _Rat:
        val = self.expr()
        if self.pos != len(self.toks):
            raise ParseError(f"trailing input from token {self.peek()!r}")
        return val

    def expr(self) -> _Rat:
        val = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            val = val + (rhs if op == "+" else -rhs)
        return val

    def term(self) -> _Rat:
        val = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            val = val * (rhs if op == "*" else rhs.flipped())
        return val

    def factor(self) -> _Rat:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        if self.peek() == "+":
            self.take()
            return self.factor()
        start = self.pos
        val = self.atom()
        if self.peek() != "^":
            return val
        base = [k for k, _ in self.toks[start:self.pos]
                if k not in ("(", "+", ")")]
        self.take()
        exp = self.exponent()
        # t alone: inside parentheses and unary pluses at most
        if exp.denominator != 1 and base != ["t"]:
            raise ParseError("fractional exponents are allowed on t alone")
        if exp.denominator != 1:
            if self.subst is not None:
                raise ParseError(
                    "fractional t-exponents cannot follow a substitution")
            return self.const(PuiseuxSeries.t_power(exp))
        return val.power(int(exp))

    def atom(self) -> _Rat:
        kind, value = self.take()
        if kind == "(":
            val = self.expr()
            self.take(")")
            return val
        if kind not in ("int", "decimal", "i", "z", "t"):
            raise ParseError(f"unexpected token {kind!r}")
        if kind == "z":
            return self.value([PuiseuxSeries.zero(), self.one])
        if kind == "t":
            return self.t if self.evaluate else _UNEVALUATED
        if kind == "i":
            value = GaussianRational(0, 1)
        return self.const(PuiseuxSeries.constant(value))

    def exponent(self) -> Fraction:
        paren = self.peek() == "("
        if paren:
            self.take()
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        p = self.take("int")[1]
        q = 1
        if paren and self.peek() == "/":
            self.take()
            q = self.take("int")[1]
            if q == 0:
                raise ParseError("zero denominator in exponent")
        if paren:
            self.take(")")
        return Fraction(sign * p, q)


class _Rat:
    """A rational function in z over the series field; no cancellation."""

    __slots__ = ("num", "den")

    def __init__(self, num: List[PuiseuxSeries], den: List[PuiseuxSeries]):
        self.num = num
        self.den = den

    def __add__(self, other: "_Rat") -> "_Rat":
        return _Rat(cpoly.padd(smul(self.num, other.den),
                               smul(other.num, self.den)),
                    smul(self.den, other.den))

    def __neg__(self) -> "_Rat":
        return _Rat([-c for c in self.num], self.den)

    def __mul__(self, other: "_Rat") -> "_Rat":
        return _Rat(smul(self.num, other.num), smul(self.den, other.den))

    def flipped(self) -> "_Rat":
        if all(c.is_zero for c in self.num):
            raise ParseError("division by an identically zero expression")
        return _Rat(self.den, self.num)

    def power(self, n: int) -> "_Rat":
        if n == 0:
            return _Rat([PuiseuxSeries.one()], [PuiseuxSeries.one()])
        _check_degree((max(len(self.num), len(self.den)) - 1) * abs(n))
        base = self.flipped() if n < 0 else self
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out


class _Unevaluated:
    """The value of every text in the grammar pass: arithmetic on it is a
    no-op, so that pass cannot fail on a value."""

    def __add__(self, other):
        return self

    __mul__ = __add__

    def __neg__(self):
        return self

    def flipped(self):
        return self

    def power(self, n: int):
        return self


_UNEVALUATED = _Unevaluated()


def _check_degree(degree: int) -> None:
    """Refuse a z-degree past the iterate cap before anything that large
    is expanded."""
    if degree > ITERATE_DEGREE_CAP:
        raise ParseError(
            f"z-degree {degree} exceeds the cap {ITERATE_DEGREE_CAP}",
            details={"degree": degree, "cap": ITERATE_DEGREE_CAP})


def _read(tokens: List[Token], subst: Optional[_Rat] = None) -> _Rat:
    """The value the tokens spell, once their grammar has been read."""
    _Parser(tokens, evaluate=False).parse()
    return _Parser(tokens, subst).parse()


def _t_quotient(tokens: List[Token],
                what: str) -> Tuple[PuiseuxSeries, PuiseuxSeries]:
    """The a(t) and b(t) of the quotient that a substitution or a frame
    center spells, with a one-term b folded into a (b is then 1)."""
    if any(kind == "z" for kind, _ in tokens):
        raise ParseError(f"{what} may only involve t")
    rat = _read(tokens)
    a, b = rat.num[0], rat.den[0]
    if len(b.terms) == 1:
        return a * b.inverse(), PuiseuxSeries.one()
    return a, b


def _depth_checked(parse):
    """Report a parse that runs out of recursion depth as a ParseError."""
    @wraps(parse)
    def wrapper(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except RecursionError:
            raise ParseError("expression nested too deeply") from None
    return wrapper


@_depth_checked
def parse_family(text: str, subst: Optional[str] = None) -> MapL:
    """Parse a family of maps in z with coefficients rational in t.

    The family is exact: a substitution ``subst`` for t is applied without
    expanding it as a series.

    A z-degree above ``ITERATE_DEGREE_CAP``, in the family or in any power
    it takes, is a :class:`ParseError`; a family whose numerator and
    denominator share a factor (their resultant vanishes identically) is a
    :class:`DegenerateFamily`.

    >>> fam = parse_family("z^3 + t/z^2")
    >>> fam.degree
    5
    """
    tokens = _tokenize(text)
    t = None
    if subst is not None:
        a, b = _t_quotient(_tokenize(subst), "substitution")
        if a.is_zero:
            raise ParseError("substitution must be a nonzero series in t")
        t = _Rat([a], [b])
    rat = _read(tokens, t)
    num, den = rat.num, rat.den
    # common-denominator addition of z^-k terms leaves a shared z^k factor;
    # strip it so the stated degree is the true one
    while num and den and num[0].is_zero and den[0].is_zero:
        num, den = num[1:], den[1:]
    fam = MapL(num, den)
    _check_degree(fam.degree)
    if resultant_vanishes(fam):
        raise DegenerateFamily(
            "numerator and denominator share a factor: the resultant "
            "vanishes identically")
    return fam


@_depth_checked
def parse_frame(text: str) -> AffineFrame:
    """Parse a frame "h" or "h, center": h a rational, center a series in t.

    The center is exact.  A center a(t)/b(t) whose b has more than one term
    is an infinite series; it is replaced by c', the sum of its terms of
    exponent <= h.

    Claim: no reduction in the frame and no frame class changes.  Write c
    for the whole quotient; then v(c - c') > h.  The frames
    M(w) = c + t^h w and M'(w) = c' + t^h w satisfy M = M' o L, where
    L(w) = w + e and e = (c - c') t^-h has v(e) > 0.  If f o M' = P/Q, the
    w^j coefficient of P(w + e) is p_j plus terms of valuation at least
    min_i v(p_i) + v(e), and so for Q: Gauss normalization shifts both by
    the same power of t and leaves every residue as it was, so f o M
    reduces as f o M' does.  On the outside, M^-1 = L^-1 o M'^-1, and
    (P - eQ)/Q has the residues of P/Q for the same reason.  A class is
    (h, center mod t^h), and c' agrees with c below t^h.  So the disk
    D(c, |t|^h), a point of the Berkovich line, depends on c only up to
    t^h.

    >>> parse_frame("2/5").h
    Fraction(2, 5)
    >>> str(parse_frame("1, 1/(1-t)").c)
    '1 + t'
    """
    head, _, rest = text.partition(",")
    head = head.strip()
    try:
        h = Fraction(head)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad zoom exponent {head!r}: {exc}") from None
    if not rest.strip():
        return AffineFrame(h, PuiseuxSeries.zero())
    center, b = _t_quotient(_tokenize(rest), "frame center")
    if b != 1 and not center.is_zero:
        # a/b known mod t^(h+1): every term of exponent <= h is certified
        quotient = center * b.inverse(prec=h + 1 - center.valuation())
        center = PuiseuxSeries(
            tuple((e, c) for e, c in quotient.terms if e <= h), inf)
    return AffineFrame(h, center)
