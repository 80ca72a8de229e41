"""Parsing of family, substitution, and frame expressions.

The expression language is small: integer literals, the imaginary unit i,
the variables z and t, the operators + - * / ^, and parentheses.  Rationals
are spelled as quotients (1/2).  Exponents on z are integers, possibly
negative; t alone may carry a rational exponent, written t^(p/q).  Decimal
literals are accepted and switch the whole family to approximate
coefficients.

A substitution t -> expr(t) is applied once, at build time, to the parsed
family.  Fractional t-exponents cannot be combined with a substitution,
since the result would need fractional powers of a general series.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import inf
from typing import List, Optional, Tuple

from .config import default_truncation
from .errors import ParseError
from .coefficients import ApproxComplex, GaussianRational
from .maps import AffineFrame, MapL, _sadd, _smul
from .puiseux import PuiseuxSeries

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+)|(\d+)|([izt])|(->)|([-+*/^(),]))")


def _tokenize(text: str) -> List[Tuple[str, object]]:
    out: List[Tuple[str, object]] = []
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


# AST nodes are tuples: ("int", n), ("float", x), ("i",), ("z",), ("t",),
# ("neg", a), ("add"/"sub"/"mul"/"div", a, b), ("pow", a, Fraction)


class _Parser:
    def __init__(self, tokens: List[Tuple[str, object]]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self, kind: str = None) -> Tuple[str, object]:
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of expression")
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}")
        self.pos += 1
        return tok

    def parse(self) -> tuple:
        node = self.expr()
        if self.pos != len(self.toks):
            raise ParseError(f"trailing input from token {self.peek()!r}")
        return node

    def expr(self) -> tuple:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self) -> tuple:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self) -> tuple:
        if self.peek() == "-":
            self.take()
            return ("neg", self.factor())
        if self.peek() == "+":
            self.take()
            return self.factor()
        node = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.exponent()
            if exp.denominator != 1 and node != ("t",):
                raise ParseError(
                    "fractional exponents are allowed on t alone")
            node = ("pow", node, exp)
        return node

    def atom(self) -> tuple:
        kind, value = self.take()
        if kind == "int":
            return ("int", value)
        if kind == "float":
            return ("float", value)
        if kind in ("i", "z", "t"):
            return (kind,)
        if kind == "(":
            node = self.expr()
            self.take(")")
            return node
        raise ParseError(f"unexpected token {kind!r}")

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


def _uses(node: tuple, name: str) -> bool:
    if node[0] == name:
        return True
    return any(isinstance(c, tuple) and _uses(c, name) for c in node[1:])


def _has_float(node: tuple) -> bool:
    return _uses(node, "float")


class _Rat:
    """A rational function in z over the series field; no cancellation."""

    __slots__ = ("num", "den")

    def __init__(self, num: List[PuiseuxSeries], den: List[PuiseuxSeries]):
        self.num = num
        self.den = den

    def __add__(self, other: "_Rat") -> "_Rat":
        return _Rat(_sadd(_smul(self.num, other.den),
                          _smul(other.num, self.den)),
                    _smul(self.den, other.den))

    def __neg__(self) -> "_Rat":
        return _Rat([-c for c in self.num], self.den)

    def __mul__(self, other: "_Rat") -> "_Rat":
        return _Rat(_smul(self.num, other.num), _smul(self.den, other.den))

    def flipped(self) -> "_Rat":
        if all(c.is_zero for c in self.num):
            raise ParseError("division by an identically zero expression")
        return _Rat(self.den, self.num)


class _Evaluator:
    def __init__(self, ftype: type, tserie: PuiseuxSeries,
                 subst_active: bool, allow_z: bool):
        self.ftype = ftype
        self.t = tserie
        self.subst_active = subst_active
        self.allow_z = allow_z

    def const(self, series: PuiseuxSeries) -> _Rat:
        return _Rat([series], [PuiseuxSeries.one(inf, self.ftype)])

    def run(self, node: tuple) -> _Rat:
        kind = node[0]
        if kind == "int":
            return self.const(PuiseuxSeries.constant(
                self.ftype.coerce(node[1]), inf, self.ftype))
        if kind == "float":
            return self.const(PuiseuxSeries.constant(
                self.ftype.coerce(node[1]), inf, self.ftype))
        if kind == "i":
            if self.ftype is GaussianRational:
                unit = GaussianRational(0, 1)
            else:
                unit = ApproxComplex(0.0, 1.0)
            return self.const(PuiseuxSeries.constant(unit, inf, self.ftype))
        if kind == "t":
            return self.const(self.t)
        if kind == "z":
            if not self.allow_z:
                raise ParseError("z is not allowed in this expression")
            one = PuiseuxSeries.one(inf, self.ftype)
            return _Rat([PuiseuxSeries.zero(inf, self.ftype), one], [one])
        if kind == "neg":
            return -self.run(node[1])
        if kind == "add":
            return self.run(node[1]) + self.run(node[2])
        if kind == "sub":
            return self.run(node[1]) + (-self.run(node[2]))
        if kind == "mul":
            return self.run(node[1]) * self.run(node[2])
        if kind == "div":
            return self.run(node[1]) * self.run(node[2]).flipped()
        if kind == "pow":
            base, exp = node[1], node[2]
            if exp.denominator != 1:
                if self.subst_active:
                    raise ParseError(
                        "fractional t-exponents cannot follow a substitution")
                return self.const(PuiseuxSeries.t_power(exp, 1, inf,
                                                        self.ftype))
            n = int(exp)
            if n == 0:
                return self.const(PuiseuxSeries.one(inf, self.ftype))
            val = self.run(base)
            if n < 0:
                val, n = val.flipped(), -n
            out = val
            for _ in range(n - 1):
                out = out * val
            return out
        raise ParseError(f"unknown node {kind!r}")


def _eval_subst(text: str, ftype: type, trunc) -> PuiseuxSeries:
    node = _Parser(_tokenize(text)).parse()
    if _uses(node, "z"):
        raise ParseError("substitution may only involve t")
    tserie = PuiseuxSeries.t_power(1, 1, inf, ftype)
    rat = _Evaluator(ftype, tserie, False, allow_z=False).run(node)
    num, den = rat.num[0], rat.den[0]
    prec = None if den.is_exact and len(den.terms) <= 1 else trunc
    series = num * den.inverse(prec=prec)
    if not series.terms:
        raise ParseError("substitution must be a nonzero series in t")
    return series


def parse_family(text: str, subst: Optional[str] = None,
                 trunc=None) -> MapL:
    """Parse a family of maps in z with coefficients rational in t.

    >>> fam = parse_family("z^3 + t/z^2")
    >>> fam.degree
    5
    """
    if trunc is None:
        trunc = default_truncation()
    tokens = _tokenize(text)
    node = _Parser(tokens).parse()
    approx = _has_float(node) or (subst is not None
                                  and _has_float(_Parser(
                                      _tokenize(subst)).parse()))
    ftype = ApproxComplex if approx else GaussianRational
    if subst is not None:
        tserie = _eval_subst(subst, ftype, trunc)
        subst_active = True
    else:
        tserie = PuiseuxSeries.t_power(1, 1, inf, ftype)
        subst_active = False
    rat = _Evaluator(ftype, tserie, subst_active, allow_z=True).run(node)
    num, den = rat.num, rat.den
    # common-denominator addition of z^-k terms leaves a shared z^k factor;
    # strip it so the stated degree is the true one
    while num and den and num[0].is_zero and den[0].is_zero:
        num, den = num[1:], den[1:]
    return MapL(num, den)


def parse_frame(text: str, trunc=None,
                ftype: type = GaussianRational) -> AffineFrame:
    """Parse a frame "h" or "h, center": h a rational, center a series in t.

    The center is built over ``ftype``, the field of the family the frame
    is meant for; a float literal in the center switches it to approximate
    coefficients regardless.

    >>> parse_frame("2/5").h
    Fraction(2, 5)
    """
    if trunc is None:
        trunc = default_truncation()
    head, _, rest = text.partition(",")
    head = head.strip()
    try:
        h = Fraction(head)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad zoom exponent {head!r}: {exc}") from None
    if not rest.strip():
        return AffineFrame(h, PuiseuxSeries.zero(inf, ftype))
    node = _Parser(_tokenize(rest)).parse()
    if _uses(node, "z"):
        raise ParseError("frame center may only involve t")
    if _has_float(node):
        ftype = ApproxComplex
    tserie = PuiseuxSeries.t_power(1, 1, inf, ftype)
    rat = _Evaluator(ftype, tserie, False, allow_z=False).run(node)
    num, den = rat.num[0], rat.den[0]
    prec = None if den.is_exact and len(den.terms) <= 1 else trunc
    return AffineFrame(h, num * den.inverse(prec=prec))
