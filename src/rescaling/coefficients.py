"""The coefficient field of series arithmetic: the Gaussian rationals.

:class:`GaussianRational` is an exact (x + y*i)/d over Python ints, with
decidable zero tests, hashing and exact division.  Every family the parser
reads lies over Q(i), since decimal literals are read as exact rationals.
Python ints and Fractions coerce into it.  Numeric work outside Q(i), such
as roots of irreducible factors, leaves the field through ``to_complex``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction]


class GaussianRational:
    """An element of Q(i), stored as (x + y*i)/d over Python ints.

    The triple is canonical: d > 0 and gcd(x, y, d) = 1, so equal numbers
    have equal triples.  Integer code may read ``x``, ``y`` and ``d``
    directly and build results with :meth:`from_ints`; ``re`` and ``im``
    give the parts as Fractions.  Arithmetic makes at most one
    ``math.gcd`` call per result.

    >>> a = GaussianRational(1, 2)
    >>> b = GaussianRational(Fraction(1, 3))
    >>> print(a * b)
    1/3+2/3*i
    >>> print(a * a.inverse())
    1
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self.x, self.y, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # both parts are in lowest terms, so gcd(x, y, d) = 1 already
        self.x = re.numerator * (d // re.denominator)
        self.y = im.numerator * (d // im.denominator)
        self.d = d

    @classmethod
    def from_ints(cls, x: int, y: int, d: int) -> GaussianRational:
        """(x + y*i)/d for ints x, y and d > 0, in lowest terms."""
        return _canon(x, y, d)

    @classmethod
    def zero(cls) -> GaussianRational:
        return _make(0, 0, 1)

    @classmethod
    def one(cls) -> GaussianRational:
        return _make(1, 0, 1)

    @classmethod
    def coerce(cls, value) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(
            f"cannot coerce {type(value).__name__} into GaussianRational")

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.d)

    @property
    def is_zero(self) -> bool:
        return not self.x and not self.y

    @property
    def is_one(self) -> bool:
        return self.x == 1 and not self.y and self.d == 1

    def inverse(self) -> GaussianRational:
        x, y, d = self.x, self.y, self.d
        n = x * x + y * y
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _canon(d * x, -d * y, n)

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.x / self.d, self.y / self.d)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gaussian(other)
            if other is None:
                return NotImplemented
        d, od = self.d, other.d
        if d == od:
            return _canon(self.x + other.x, self.y + other.y, d)
        return _canon(self.x * od + other.x * d, self.y * od + other.y * d,
                      d * od)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gaussian(other)
            if other is None:
                return NotImplemented
        d, od = self.d, other.d
        if d == od:
            return _canon(self.x - other.x, self.y - other.y, d)
        return _canon(self.x * od - other.x * d, self.y * od - other.y * d,
                      d * od)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gaussian(other)
            if other is None:
                return NotImplemented
        x, y, ox, oy = self.x, self.y, other.x, other.y
        return _canon(x * ox - y * oy, x * oy + y * ox, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gaussian(other)
            if other is None:
                return NotImplemented
        x, y, ox, oy = self.x, self.y, other.x, other.y
        n = ox * ox + oy * oy
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        od = other.d
        return _canon((x * ox + y * oy) * od, (y * ox - x * oy) * od,
                      self.d * n)

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _make(-self.x, -self.y, self.d)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        x, y, bx, by = 1, 0, self.x, self.y
        k = n
        while k:
            if k & 1:
                x, y = x * bx - y * by, x * by + y * bx
            bx, by = bx * bx - by * by, 2 * bx * by
            k >>= 1
        return _canon(x, y, self.d ** n)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gaussian(other)
            if other is None:
                return NotImplemented
        return self.x == other.x and self.y == other.y and self.d == other.d

    def __hash__(self):
        if self.d == 1:  # hash(Fraction(n)) == hash(n)
            return hash((self.x, self.y))
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return _imag_str(im)
        sign = "-" if im < 0 else "+"
        return f"{re}{sign}{_imag_str(abs(im))}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _make(x: int, y: int, d: int) -> GaussianRational:
    """A GaussianRational from a triple already in lowest terms."""
    g = object.__new__(GaussianRational)
    g.x, g.y, g.d = x, y, d
    return g


def _canon(x: int, y: int, d: int) -> GaussianRational:
    """(x + y*i)/d, d > 0, with the common factor divided out."""
    g = gcd(d, x, y)  # stops early once a partial gcd is 1
    if g != 1:
        x, y, d = x // g, y // g, d // g
    return _make(x, y, d)


def _imag_str(q: Fraction) -> str:
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return f"{q}*i"


def _as_gaussian(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return None
