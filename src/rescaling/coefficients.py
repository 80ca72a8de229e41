"""Coefficient fields for series arithmetic.

Two realizations of the residue field:

* :class:`GaussianRational` -- exact a + b*i with Fraction components.
  Supports decidable zero tests, hashing, and exact division.
* :class:`ApproxComplex` -- a complex double with an explicit zero
  threshold, for families whose constants are not Gaussian rational.

A single computation never mixes the two; binary operations between them
raise :class:`~rescaling.errors.MixedCoefficients`.  Python ints and
Fractions coerce into either realization, so polynomial code can be written
once against the shared surface (``+ - * /``, ``is_zero``, ``inverse``,
``conjugate``, ``abs2``, ``to_complex``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .config import APPROX_ZERO_THRESHOLD
from .errors import MixedCoefficients

RationalLike = Union[int, Fraction]


class GaussianRational:
    """An element of Q(i), kept in lowest terms by Fraction.

    >>> a = GaussianRational(1, 2)
    >>> b = GaussianRational(Fraction(1, 3))
    >>> print(a * b)
    1/3+2/3i
    >>> print(a * a.inverse())
    1
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def zero(cls) -> GaussianRational:
        return cls(0, 0)

    @classmethod
    def one(cls) -> GaussianRational:
        return cls(1, 0)

    @classmethod
    def coerce(cls, value) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise MixedCoefficients(
            f"cannot coerce {type(value).__name__} into GaussianRational")

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def abs2(self) -> Fraction:
        """Squared modulus, exact."""
        return self.re * self.re + self.im * self.im

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> GaussianRational:
        n = self.abs2()
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = GaussianRational.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if not self.im:
            return _frac_str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "-" if self.im < 0 else "+"
        return f"{_frac_str(self.re)}{sign}{_imag_str(abs(self.im))}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _frac_str(q: Fraction) -> str:
    return str(q)


def _imag_str(q: Fraction) -> str:
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return f"{q}i"


def _as_gaussian(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, ApproxComplex):
        raise MixedCoefficients(
            "exact and approximate coefficients in one operation")
    return None


class ApproxComplex:
    """A complex double carrying the zero threshold it was computed under.

    Anything of magnitude below ``zero_threshold`` is treated as zero, both
    by :attr:`is_zero` and by equality.  Thresholds propagate through
    arithmetic as the max of the operands'.
    """

    __slots__ = ("re", "im", "zero_threshold")

    def __init__(self, re: float = 0.0, im: float = 0.0,
                 zero_threshold: float = APPROX_ZERO_THRESHOLD):
        self.re = float(re)
        self.im = float(im)
        self.zero_threshold = float(zero_threshold)

    @classmethod
    def zero(cls) -> ApproxComplex:
        return cls(0.0, 0.0)

    @classmethod
    def one(cls) -> ApproxComplex:
        return cls(1.0, 0.0)

    @classmethod
    def coerce(cls, value) -> ApproxComplex:
        if isinstance(value, ApproxComplex):
            return value
        if isinstance(value, (int, float, Fraction)):
            return cls(float(value))
        if isinstance(value, complex):
            return cls(value.real, value.imag)
        raise MixedCoefficients(
            f"cannot coerce {type(value).__name__} into ApproxComplex")

    @property
    def is_zero(self) -> bool:
        return abs(complex(self.re, self.im)) < self.zero_threshold

    @property
    def is_one(self) -> bool:
        return abs(complex(self.re - 1.0, self.im)) < self.zero_threshold

    def abs2(self) -> float:
        return self.re * self.re + self.im * self.im

    def conjugate(self) -> ApproxComplex:
        return ApproxComplex(self.re, -self.im, self.zero_threshold)

    def inverse(self) -> ApproxComplex:
        if self.is_zero:
            raise ZeroDivisionError("inverse of (numerically) zero coefficient")
        v = 1.0 / complex(self.re, self.im)
        return ApproxComplex(v.real, v.imag, self.zero_threshold)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def _combine(self, other, value: complex) -> ApproxComplex:
        return ApproxComplex(value.real, value.imag,
                             max(self.zero_threshold, other.zero_threshold))

    def __add__(self, other):
        other = _as_approx(other)
        if other is None:
            return NotImplemented
        return self._combine(other, self.to_complex() + other.to_complex())

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_approx(other)
        if other is None:
            return NotImplemented
        return self._combine(other, self.to_complex() - other.to_complex())

    def __rsub__(self, other):
        other = _as_approx(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_approx(other)
        if other is None:
            return NotImplemented
        return self._combine(other, self.to_complex() * other.to_complex())

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_approx(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_approx(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return ApproxComplex(-self.re, -self.im, self.zero_threshold)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        v = self.to_complex() ** n
        return ApproxComplex(v.real, v.imag, self.zero_threshold)

    def __eq__(self, other):
        other = _as_approx(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero

    __hash__ = None  # float-backed; never used as a dict key

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if abs(self.im) < self.zero_threshold:
            return f"{self.re:.12g}"
        if abs(self.re) < self.zero_threshold:
            return f"{self.im:.12g}i"
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re:.12g}{sign}{abs(self.im):.12g}i"

    def __repr__(self):
        return f"ApproxComplex({self.re!r}, {self.im!r})"


def _as_approx(value):
    if isinstance(value, ApproxComplex):
        return value
    if isinstance(value, (int, float, Fraction)):
        return ApproxComplex(float(value))
    if isinstance(value, complex):
        return ApproxComplex(value.real, value.imag)
    if isinstance(value, GaussianRational):
        raise MixedCoefficients(
            "exact and approximate coefficients in one operation")
    return None


Coefficient = Union[GaussianRational, ApproxComplex]
