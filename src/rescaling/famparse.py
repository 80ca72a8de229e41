"""Parsing of family, substitution, and frame expressions.

The expression language is small: integer literals, the imaginary unit i,
the variables z and t, the operators + - * / ^, and parentheses.  Rationals
are spelled as quotients (1/2).  Exponents on z are integers, possibly
negative; t alone may carry a rational exponent, written t^(p/q).  Decimal
literals are accepted and switch the whole family to approximate
coefficients.

The parser evaluates as it reads, with no parse tree: each grammar rule
returns the value of its text.  Float literals and a z where only t may
appear are found by scanning the tokens.

A substitution t -> expr(t) is applied once, at build time, to the parsed
family.  Fractional t-exponents cannot be combined with a substitution,
since the result would need fractional powers of a general series.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import wraps
from math import inf
from typing import Dict, List, Optional, Tuple

from .config import DEFAULT_TRUNC, ITERATE_DEGREE_CAP
from .errors import DegenerateFamily, ParseError
from .coefficients import ApproxComplex, GaussianRational
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
            out.append(("float", float(dec)))
        elif num is not None:
            out.append(("int", int(num)))
        elif name is not None:
            out.append((name, None))
        elif arrow is not None:
            out.append(("->", None))
        else:
            out.append((op, None))
    return out


def _has(tokens: List[Token], kind: str) -> bool:
    return any(k == kind for k, _ in tokens)


class _Parser:
    """Recursive descent in which every rule returns the :class:`_Rat`
    value of the text it read; t stands for ``subst`` if one is given."""

    def __init__(self, tokens: List[Token], ftype: type,
                 subst: Optional[PuiseuxSeries] = None):
        self.toks = tokens
        self.pos = 0
        self.ftype = ftype
        self.one = PuiseuxSeries.one(inf, ftype)
        self.subst = subst
        self.t = (PuiseuxSeries.t_power(1, 1, inf, ftype) if subst is None
                  else subst)
        # a base raised to the power 0 is read without dividing or raising
        # to powers, so (1/0)^0 and (z^99999)^0 are 1
        self.skip = 0
        # index of each "(" -> index of its ")"
        self.close: Dict[int, int] = {}
        opened = []
        for k, (kind, _) in enumerate(tokens):
            if kind == "(":
                opened.append(k)
            elif kind == ")" and opened:
                self.close[opened.pop()] = k

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

    def const(self, series: PuiseuxSeries) -> _Rat:
        return _Rat([series], [self.one])

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
            val = val * (rhs if op == "*" or self.skip else rhs.flipped())
        return val

    def factor(self) -> _Rat:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        if self.peek() == "+":
            self.take()
            return self.factor()
        start = self.pos
        unused = self._raised_to_zero(self.close.get(start, start) + 1)
        self.skip += unused
        val = self.atom()
        self.skip -= unused
        if self.peek() != "^":
            return val
        base = [k for k, _ in self.toks[start:self.pos]
                if k not in ("(", "+", ")")]
        self.take()
        exp = self.exponent()
        # t alone: inside parentheses and unary pluses at most
        if exp.denominator != 1 and base != ["t"]:
            raise ParseError("fractional exponents are allowed on t alone")
        if self.skip:
            return val
        if exp.denominator != 1:
            if self.subst is not None:
                raise ParseError(
                    "fractional t-exponents cannot follow a substitution")
            return self.const(PuiseuxSeries.t_power(exp, 1, inf,
                                                    self.ftype))
        n = int(exp)
        if n == 0:
            return self.const(self.one)
        _check_degree((max(len(val.num), len(val.den)) - 1) * abs(n))
        if n < 0:
            val, n = val.flipped(), -n
        out = val
        for _ in range(n - 1):
            out = out * val
        return out

    def _raised_to_zero(self, k: int) -> bool:
        """Whether a "^" at token k starts the exponent 0."""
        toks = self.toks
        if k >= len(toks) or toks[k][0] != "^":
            return False
        for kind in ("(", "-"):
            if k + 1 < len(toks) and toks[k + 1][0] == kind:
                k += 1
        return k + 1 < len(toks) and toks[k + 1] == ("int", 0)

    def atom(self) -> _Rat:
        kind, value = self.take()
        if kind == "(":
            val = self.expr()
            self.take(")")
            return val
        if kind not in ("int", "float", "i", "z", "t"):
            raise ParseError(f"unexpected token {kind!r}")
        if kind == "z":
            return _Rat([PuiseuxSeries.zero(inf, self.ftype), self.one],
                        [self.one])
        if kind == "t":
            return self.const(self.t)
        if kind == "i":
            if self.ftype is GaussianRational:
                value = GaussianRational(0, 1)
            else:
                value = ApproxComplex(0.0, 1.0)
        return self.const(PuiseuxSeries.constant(
            self.ftype.coerce(value), inf, self.ftype))

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


def _check_degree(degree: int) -> None:
    """Refuse a z-degree past the iterate cap before anything that large
    is expanded."""
    if degree > ITERATE_DEGREE_CAP:
        raise ParseError(
            f"z-degree {degree} exceeds the cap {ITERATE_DEGREE_CAP}",
            details={"degree": degree, "cap": ITERATE_DEGREE_CAP})


def _t_series(tokens: List[Token], ftype: type, trunc,
              what: str) -> PuiseuxSeries:
    """The series in t that a substitution or a frame center spells."""
    if _has(tokens, "z"):
        raise ParseError(f"{what} may only involve t")
    rat = _Parser(tokens, ftype).parse()
    num, den = rat.num[0], rat.den[0]
    prec = None if den.is_exact and len(den.terms) <= 1 else trunc
    return num * den.inverse(prec=prec)


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
def parse_family(text: str, subst: Optional[str] = None,
                 trunc=DEFAULT_TRUNC) -> MapL:
    """Parse a family of maps in z with coefficients rational in t.

    A z-degree above ``ITERATE_DEGREE_CAP``, in the family or in any power
    it takes, is a :class:`ParseError`; a family whose numerator and
    denominator share a factor (their resultant vanishes identically) is a
    :class:`DegenerateFamily`.

    >>> fam = parse_family("z^3 + t/z^2")
    >>> fam.degree
    5
    """
    tokens = _tokenize(text)
    subst_tokens = _tokenize(subst) if subst is not None else []
    approx = _has(tokens, "float") or _has(subst_tokens, "float")
    ftype = ApproxComplex if approx else GaussianRational
    tserie = None
    if subst is not None:
        tserie = _t_series(subst_tokens, ftype, trunc, "substitution")
        if not tserie.terms:
            raise ParseError("substitution must be a nonzero series in t")
    rat = _Parser(tokens, ftype, tserie).parse()
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
def parse_frame(text: str, trunc=DEFAULT_TRUNC,
                ftype: type = GaussianRational) -> AffineFrame:
    """Parse a frame "h" or "h, center": h a rational, center a series in t.

    The center is built over ``ftype``, the field of the family the frame
    is meant for; a float literal in the center switches it to approximate
    coefficients regardless.

    >>> parse_frame("2/5").h
    Fraction(2, 5)
    """
    head, _, rest = text.partition(",")
    head = head.strip()
    try:
        h = Fraction(head)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad zoom exponent {head!r}: {exc}") from None
    if not rest.strip():
        return AffineFrame(h, PuiseuxSeries.zero(inf, ftype))
    tokens = _tokenize(rest)
    if _has(tokens, "float"):
        ftype = ApproxComplex
    return AffineFrame(h, _t_series(tokens, ftype, trunc, "frame center"))
