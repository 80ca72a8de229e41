"""Truncated Puiseux series in one parameter t.

A series is a finite list of (exponent, coefficient) terms with exponents in
Q, sorted increasing, together with a truncation order: the series is known
modulo t^trunc.  ``trunc`` may be ``math.inf`` for quantities that are exact
polynomials in fractional powers of t (no hidden tail).

Truncation orders propagate through arithmetic so that every stored term is
actually certified:

* ``a + b`` is known mod t^min(trunc_a, trunc_b);
* ``a * b`` is known mod t^min(trunc_a + val(b), trunc_b + val(a));
* ``1/a`` with a = c t^e (1 + u) is known mod t^(trunc_a - 2e), or exactly
  when u vanishes identically; inverting an exact series with a nontrivial
  tail produces an infinite expansion, which the caller must cut with a
  ``prec``.

Asking for the valuation of a series that is zero as far as it is known
raises :class:`~rescaling.errors.PrecisionExhausted`; an identically zero
series has valuation ``math.inf`` and cannot be inverted.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from typing import Iterable, Tuple, Union

from .errors import PrecisionExhausted
from .coefficients import GaussianRational

Exponent = Union[Fraction, float]  # float only for the inf sentinel
Term = Tuple[Fraction, GaussianRational]

_SCALARS = (int, Fraction, GaussianRational)


class PuiseuxSeries:
    """A truncated series sum_j c_j t^(e_j) + O(t^trunc)."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms: Tuple[Term, ...], trunc: Exponent):
        self.terms = terms
        self.trunc = trunc

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, terms: Iterable[Tuple[object, object]],
              trunc: Exponent) -> PuiseuxSeries:
        """Normalize raw (exponent, coefficient) pairs into a series.

        Exponents are coerced to Fraction, equal exponents are combined,
        zero coefficients and terms at or above the truncation are dropped.
        """
        if trunc != inf:
            trunc = Fraction(trunc)
        bucket = {}
        for e, c in terms:
            e = Fraction(e)
            c = GaussianRational.coerce(c)
            if e in bucket:
                bucket[e] = bucket[e] + c
            else:
                bucket[e] = c
        kept = tuple(sorted(
            (e, c) for e, c in bucket.items() if e < trunc and not c.is_zero))
        return cls(kept, trunc)

    @classmethod
    def zero(cls, trunc: Exponent = inf) -> PuiseuxSeries:
        return cls.build((), trunc)

    @classmethod
    def one(cls, trunc: Exponent = inf) -> PuiseuxSeries:
        return cls.build([(0, 1)], trunc)

    @classmethod
    def constant(cls, c, trunc: Exponent = inf) -> PuiseuxSeries:
        return cls.build([(0, c)], trunc)

    @classmethod
    def t_power(cls, e, coeff=1, trunc: Exponent = inf) -> PuiseuxSeries:
        return cls.build([(e, coeff)], trunc)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """Identically zero, not merely zero as far as known."""
        return not self.terms and self.trunc == inf

    @property
    def is_exact(self) -> bool:
        return self.trunc == inf

    def valuation(self) -> Exponent:
        """Order of vanishing at t = 0.

        >>> PuiseuxSeries.build([(Fraction(1, 2), 3)], 4).valuation()
        Fraction(1, 2)
        """
        if self.terms:
            return self.terms[0][0]
        if self.trunc == inf:
            return inf
        raise PrecisionExhausted(
            f"series vanishes mod t^{self.trunc}; valuation undecidable")

    def val_lower(self) -> Exponent:
        """Certified lower bound for the valuation (trunc when no term is known)."""
        return self.terms[0][0] if self.terms else self.trunc

    def coefficient(self, e) -> GaussianRational:
        e = Fraction(e)
        if e >= self.trunc:
            raise PrecisionExhausted(
                f"coefficient of t^{e} lies beyond truncation t^{self.trunc}")
        for ei, c in self.terms:
            if ei == e:
                return c
        return GaussianRational.zero()

    def residue(self) -> GaussianRational:
        """Value at t = 0, defined when no negative exponent is present."""
        if self.terms and self.terms[0][0] < 0:
            raise ValueError("residue of a series with a pole at t = 0")
        if self.trunc <= 0:
            raise PrecisionExhausted(
                f"constant term not visible mod t^{self.trunc}")
        return self.coefficient(0)

    def leading(self) -> Term:
        if not self.terms:
            raise PrecisionExhausted("no leading term known")
        return self.terms[0]

    # -- reshaping -----------------------------------------------------

    def cap(self, new_trunc: Exponent) -> PuiseuxSeries:
        """Forget everything at order new_trunc and beyond."""
        if new_trunc >= self.trunc:
            return self
        if new_trunc != inf:
            new_trunc = Fraction(new_trunc)
        kept = tuple((e, c) for e, c in self.terms if e < new_trunc)
        return PuiseuxSeries(kept, new_trunc)

    def shift(self, delta) -> PuiseuxSeries:
        """Multiply by t^delta."""
        delta = Fraction(delta)
        if not delta:
            return self
        terms = tuple((e + delta, c) for e, c in self.terms)
        trunc = inf if self.trunc == inf else self.trunc + delta
        return PuiseuxSeries(terms, trunc)

    def scale(self, c) -> PuiseuxSeries:
        c = GaussianRational.coerce(c)
        if c.is_zero:
            return PuiseuxSeries((), self.trunc)
        return PuiseuxSeries(
            tuple((e, ci * c) for e, ci in self.terms), self.trunc)

    # -- arithmetic ----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, PuiseuxSeries):
            return other
        if isinstance(other, _SCALARS):
            return PuiseuxSeries.constant(other)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        return PuiseuxSeries.build(
            list(self.terms) + list(other.terms), trunc)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PuiseuxSeries(
            tuple((e, -c) for e, c in self.terms), self.trunc)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        trunc = min(self.trunc + other.val_lower(),
                    other.trunc + self.val_lower())
        if trunc != inf and not isinstance(trunc, Fraction):
            trunc = Fraction(trunc)
        prods = [(ea + eb, ca * cb)
                 for ea, ca in self.terms for eb, cb in other.terms
                 if ea + eb < trunc]
        return PuiseuxSeries.build(prods, trunc)

    __rmul__ = __mul__

    def inverse(self, prec: Exponent = None) -> PuiseuxSeries:
        """Multiplicative inverse, truncated as documented in the module header.

        ``prec`` cuts the result at t^prec: anywhere in the infinite
        expansion of an exact series, where it is required (``ValueError``
        without it), and only tighter than the known truncation otherwise.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero series")
        e, c = self.leading()  # raises PrecisionExhausted when undecidable
        tail = self.terms[1:]
        if not tail and self.trunc == inf:
            out = PuiseuxSeries.t_power(-e, c.inverse())
            return out if prec is None else out.cap(prec)
        if self.trunc == inf:
            if prec is None:
                raise ValueError("an infinite expansion needs a prec")
            trunc = prec
        else:
            trunc = self.trunc - 2 * e
            if prec is not None:
                trunc = min(trunc, prec)
        # u = self / (c t^e) - 1 has positive valuation; sum the geometric
        # series for 1/(1+u) to relative order trunc + e.
        rel = trunc + e
        u = PuiseuxSeries.build(
            [(ei - e, ci * c.inverse()) for ei, ci in tail], rel)
        acc = PuiseuxSeries.one(rel)
        term = PuiseuxSeries.one(rel)
        vu = u.val_lower()
        order = Fraction(0)
        while order < rel and not term.is_zero and term.terms:
            term = (-term * u).cap(rel)
            acc = acc + term
            order += vu
            if not term.terms:
                break
        return acc.scale(c.inverse()).shift(-e).cap(trunc)

    # -- comparison / display -------------------------------------------

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def __hash__(self):
        return hash((self.terms, self.trunc))

    def __bool__(self):
        return bool(self.terms) or self.trunc != inf

    def __str__(self):
        parts = []
        for e, c in self.terms:
            parts.append(_term_str(e, c, first=not parts))
        if self.trunc != inf:
            parts.append(("+ " if parts else "") + f"O(t^{_exp_str(self.trunc)})")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<PuiseuxSeries {self}>"


def _exp_str(e) -> str:
    if isinstance(e, Fraction) and e.denominator != 1:
        return f"({e})"
    return str(e)


def _coeff_str(c) -> str:
    s = str(c)
    if ("+" in s[1:]) or ("-" in s[1:]) or "/" in s:
        return f"({s})"
    return s


def _term_str(e, c, first: bool) -> str:
    neg = False
    if not c.y and c.x < 0:
        neg, c = True, -c
    sign = ("-" if neg else "") if first else ("- " if neg else "+ ")
    if e == 0:
        return f"{sign}{_coeff_str(c)}"
    tpow = "t" if e == 1 else f"t^{_exp_str(e)}"
    if c.is_one:
        return f"{sign}{tpow}"
    return f"{sign}{_coeff_str(c)}*{tpow}"
