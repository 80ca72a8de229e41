"""Dense polynomial arithmetic.

Polynomials are lists of coefficients in ascending degree order, all of one
coefficient type.  :func:`padd`, :func:`psub`, :func:`pscale` and
:func:`peval` need only ``+``, ``-`` and ``*``, and :func:`trim` and
:func:`degree` only an ``is_zero`` test besides, so these serve any ring:
residues, Puiseux series, and plain ``complex``, which has no ``is_zero``
and so is never trimmed.  The rest run over the residue field Q(i), as
:class:`~rescaling.coefficients.GaussianRational`, where every zero test is
exact.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

from .coefficients import GaussianRational

Poly = List[GaussianRational]


def trim(p: Sequence[GaussianRational]) -> Poly:
    out = list(p)
    while out and out[-1].is_zero:
        out.pop()
    return out


def degree(p: Sequence[GaussianRational]) -> int:
    """Degree of p, with the zero polynomial mapped to -1."""
    return len(trim(p)) - 1


def is_zero_poly(p: Sequence[GaussianRational]) -> bool:
    return not trim(p)


def padd(p: Sequence[GaussianRational], q: Sequence[GaussianRational]) -> Poly:
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        if i < len(p) and i < len(q):
            out.append(p[i] + q[i])
        elif i < len(p):
            out.append(p[i])
        else:
            out.append(q[i])
    return out


def psub(p: Sequence[GaussianRational], q: Sequence[GaussianRational]) -> Poly:
    return padd(p, [-c for c in q])


def pscale(p: Sequence[GaussianRational], c: GaussianRational) -> Poly:
    return [ci * c for ci in p]


def pmul(p: Sequence[GaussianRational], q: Sequence[GaussianRational]) -> Poly:
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [GaussianRational.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def pdivmod(p: Sequence[GaussianRational],
            q: Sequence[GaussianRational]) -> Tuple[Poly, Poly]:
    """Quotient and remainder of p by q over Q(i), both exact.

    A step subtracts c z^k q from the remainder: it updates the deg q
    entries below the top one, which cancels and is popped.
    """
    q = trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = trim(p)
    lead = q[-1]
    dq = len(q) - 1
    zero = GaussianRational.zero()
    quot: Poly = []
    while len(rem) > dq:
        k = len(rem) - 1 - dq
        c = rem.pop() / lead
        if quot:
            quot[k] = quot[k] + c
        else:
            quot = [zero] * k + [c]
        if not c.is_zero:
            for i in range(dq):
                rem[k + i] = rem[k + i] - q[i] * c
        while rem and rem[-1].is_zero:
            rem.pop()
    return trim(quot), rem


def pdiv_exact(p: Sequence[GaussianRational],
               q: Sequence[GaussianRational]) -> Poly:
    quot, rem = pdivmod(p, q)
    if rem:
        raise ValueError("polynomial division left a remainder")
    return quot


def monic(p: Sequence[GaussianRational]) -> Poly:
    p = trim(p)
    if not p:
        return []
    return pscale(p, p[-1].inverse())


def pgcd(p: Sequence[GaussianRational], q: Sequence[GaussianRational]) -> Poly:
    """Monic gcd over Q(i), by Euclid's algorithm.

    >>> one, z = GaussianRational.one(), GaussianRational.zero()
    >>> [str(c) for c in pgcd([-one, z, one], [one * 2, -one * 3, one])]
    ['-1', '1']
    """
    p, q = trim(p), trim(q)
    if not p:
        return monic(q)
    if not q:
        return monic(p)
    while q:
        _, r = pdivmod(p, q)
        p, q = q, monic(r)
    return monic(p)


def poly_str(p: Sequence[GaussianRational], var: str = "z") -> str:
    """Human-readable form, highest degree first.

    >>> one = GaussianRational.one()
    >>> poly_str([-one, one * 0, one])
    'z^2 - 1'
    """
    p = trim(p)
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c.is_zero:
            continue
        neg = (c.x < 0 and not c.y) or (c.y < 0 and not c.x)
        if neg:
            c = -c
        cs = str(c)
        if ("+" in cs[1:]) or ("-" in cs[1:]):
            cs = f"({cs})"
        if i == 0:
            body = cs
        else:
            zp = var if i == 1 else f"{var}^{i}"
            body = zp if c.is_one else f"{cs}*{zp}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def pderiv(p: Sequence[GaussianRational]) -> Poly:
    return trim([p[i] * i for i in range(1, len(p))])


def peval(p: Sequence[GaussianRational],
          x: GaussianRational) -> GaussianRational:
    if not p:
        return x * 0
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def sylvester(p: Sequence, q: Sequence, zero) -> List[List]:
    """The Sylvester matrix of p and q at their formal degrees m and n:
    n shifted rows of p's coefficients, highest first, then m of q's."""
    m, n = len(p) - 1, len(q) - 1
    pd, qd = list(reversed(p)), list(reversed(q))
    return ([[zero] * i + pd + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + qd + [zero] * (m - 1 - i) for i in range(m)])


def pdet(rows: List[List[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials over Q(i), by
    fraction-free elimination (E. Bareiss, Math. Comp. 22 (1968)).

    Step k sets each entry a_ij below and right of the pivot a_kk to
    (a_kk a_ij - a_ik a_kj) / p, p the previous pivot (1 at first).  By
    Sylvester's identity the new a_ij is the minor of the input on rows
    0..k, i and columns 0..k, j, so every division is exact and the last
    pivot is the determinant.  A zero pivot is swapped with a lower row,
    which flips the sign.  The empty matrix has determinant 1.

    >>> one = GaussianRational.one()
    >>> [str(c) for c in pdet([[[one, one], [one]], [[one], [one, -one]]])]
    ['0', '0', '-1']
    """
    rows = [[trim(a) for a in row] for row in rows]
    n = len(rows)
    sign, prev = 1, [GaussianRational.one()]
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return []
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = pdiv_exact(
                    psub(pmul(top[k], row[j]), pmul(lead, top[j])), prev)
        prev = top[k]
    return prev if sign > 0 else [-c for c in prev]


def roots_numeric(p: Sequence[Union[GaussianRational, complex]]
                  ) -> List[complex]:
    """All complex roots, with multiplicity, by the companion matrix.

    Entries are field coefficients, whose own zero test trims the top, or
    plain complex numbers, trimmed only where exactly zero.  The result is
    ``np.roots``'s, in its order; numpy is loaded only when a factor of
    degree >= 2 is left once the exact zeros at both ends are split off.
    """
    p = list(p)
    while p and (p[-1] == 0 if isinstance(p[-1], complex) else p[-1].is_zero):
        p.pop()
    arr = [c if isinstance(c, complex) else c.to_complex() for c in p]
    while arr and arr[-1] == 0:
        arr.pop()
    low = 0
    while low < len(arr) and arr[low] == 0:
        low += 1
    rest = len(arr) - 1 - low
    if rest <= 0:
        return [0j] * low
    if rest == 1:
        return [_np_quot(-arr[low], arr[-1])] + [0j] * low
    import numpy as np

    return [complex(r) for r in np.roots(arr[::-1])]


def _np_quot(a: complex, b: complex) -> complex:
    """a / b rounded as numpy divides complex numbers (Smith's method with
    one reciprocal), so a linear root matches ``np.roots`` to the bit."""
    if abs(b.real) >= abs(b.imag):
        rat = b.imag / b.real
        scl = 1.0 / (b.real + b.imag * rat)
        return complex((a.real + a.imag * rat) * scl,
                       (a.imag - a.real * rat) * scl)
    rat = b.real / b.imag
    scl = 1.0 / (b.imag + b.real * rat)
    return complex((a.real * rat + a.imag) * scl,
                   (a.imag * rat - a.real) * scl)


def roots_exact(p: Sequence[GaussianRational]) -> Tuple[
        List[Tuple[GaussianRational, int]], List[Tuple[Poly, int]]]:
    """The roots of an exact polynomial in Q(i), by p-adic lifting.

    Returns (linear part, higher part).  The linear part lists every root
    in Q(i) with its multiplicity, ordered by multiplicity, then real part,
    then imaginary part.  The higher part holds, for each multiplicity k
    with roots outside Q(i), the monic product of the factors of p of
    multiplicity k that have no root in Q(i): square-free, but not claimed
    irreducible.

    Yun's algorithm splits p = lc * prod_k s_k^k with each s_k monic,
    square-free and coprime to the others.  Let s = s_k have degree n, and
    let D be the least common denominator of its coefficients, so D*s lies
    in Z[i][z] with leading coefficient D.  Then S(y) = D^(n-1) s(y/D) is
    monic with coefficients in Z[i].  The search below finds every root of
    s in Q(i):

    * A root x of s in Q(i) gives the root y = D*x of S.  S is monic over
      Z[i], so y is integral over Z[i]; Z[i] is integrally closed, so y is
      a Gaussian integer.  By Cauchy's bound, |y| <= 1 + max_{j<n} |S_j|
      <= B = 1 + max_{j<n} (|Re S_j| + |Im S_j|), so |Re y|, |Im y| <= B.
    * For a prime q = 3 (mod 4), Z[i]/(q) is the field F_{q^2}.  The search
      takes the first such q at which every root of S mod q in F_{q^2} is
      simple, found by evaluating S at all q^2 residues.  One exists: S is
      square-free, so its discriminant is a nonzero Gaussian integer, and
      S is monic, so S mod q has degree n and discriminant disc(S) mod q.
      Hence S mod q has a repeated root only when q divides the norm of
      disc(S), which rules out finitely many of the infinitely many primes
      = 3 (mod 4).
    * y mod q is a root of S mod q, simple by the choice of q.  By Hensel's
      lemma a simple root mod q lifts to exactly one root of S mod q^m, so
      Newton's iteration from y mod q reaches y mod q^m.  Once q^m > 2B, y
      is the only Gaussian integer in its class with both parts in [-B, B],
      which the symmetric residues give.
    * A lift of any other root mod q is kept only if x = y/D satisfies
      s(x) = 0 exactly, so nothing but a root is returned.

    >>> one = GaussianRational.one()
    >>> linear, rest = roots_exact([-one * 2, one * 2, -one, one])
    >>> [(str(x), k) for x, k in linear], [(poly_str(f), k) for f, k in rest]
    ([('1', 1)], [('z^2 + 2', 1)])
    """
    p = trim(p)
    if len(p) <= 1:
        return [], []
    one = GaussianRational.one()
    linear: List[Tuple[GaussianRational, int]] = []
    rest: List[Tuple[Poly, int]] = []
    for k, s in _squarefree_parts(p):
        roots = _gaussian_roots(s)
        linear.extend((x, k) for x in roots)
        for x in roots:
            s = pdiv_exact(s, [-x, one])  # monic over monic stays monic
        if len(s) > 1:
            rest.append((s, k))
    linear.sort(key=lambda root: (root[1], root[0].re, root[0].im))
    return linear, rest


def _squarefree_parts(p: Poly) -> List[Tuple[int, Poly]]:
    """Yun's algorithm: the pairs (k, s_k) with s_k of degree >= 1, where
    p = lc * prod_k s_k^k and the s_k are monic, square-free and pairwise
    coprime."""
    b = monic(p)
    db = pderiv(b)
    a = pgcd(b, db)
    b = pdiv_exact(b, a)
    d = psub(pdiv_exact(db, a), pderiv(b))
    parts = []
    k = 1
    while len(b) > 1:
        a = pgcd(b, d)
        b = pdiv_exact(b, a)
        d = psub(pdiv_exact(d, a), pderiv(b))
        if len(a) > 1:
            parts.append((k, a))
        k += 1
    return parts


def _gaussian_roots(s: Poly) -> List[GaussianRational]:
    """The roots in Q(i) of a monic square-free s of degree >= 1; the proof
    that none is missed is in :func:`roots_exact`."""
    n = len(s) - 1
    den = math.lcm(*(c.d for c in s))
    s_int = []  # S_j = D^(n-j) s_j over Z[i], and S_n = 1
    for j, c in enumerate(s[:-1]):
        scale = den ** (n - j) // c.d
        s_int.append((c.x * scale, c.y * scale))
    s_int.append((1, 0))
    ds_int = [(j * a, j * b) for j, (a, b) in enumerate(s_int)][1:]
    bound = 1 + max(abs(a) + abs(b) for a, b in s_int[:-1])
    for q in _primes_3_mod_4():
        residues = _simple_roots_mod(s_int, ds_int, q)
        if residues is not None:
            break
    roots = []
    for r in residues:
        y = _newton_lift(s_int, ds_int, r, q, bound)
        x = GaussianRational.from_ints(y[0], y[1], den)
        if peval(s, x).is_zero:
            roots.append(x)
    return roots


def _primes_3_mod_4():
    q = 3
    while True:
        if all(q % r for r in range(3, math.isqrt(q) + 1, 2)):
            yield q
        q += 4


def _simple_roots_mod(f: List[Tuple[int, int]], df: List[Tuple[int, int]],
                      q: int) -> Optional[List[Tuple[int, int]]]:
    """The roots of f in Z[i]/(q), or None when one of them is repeated."""
    f = [(a % q, b % q) for a, b in f]
    df = [(a % q, b % q) for a, b in df]
    roots = []
    for u in range(q):
        for v in range(q):
            if _geval(f, (u, v), q) == (0, 0):
                if _geval(df, (u, v), q) == (0, 0):
                    return None
                roots.append((u, v))
    return roots


def _newton_lift(f: List[Tuple[int, int]], df: List[Tuple[int, int]],
                 y: Tuple[int, int], q: int, bound: int) -> Tuple[int, int]:
    """Lift a simple root y of f mod q to the Gaussian integer with both
    parts in [-bound, bound] that it is congruent to mod q^m > 2*bound.
    Each Newton step squares the modulus."""
    m = q
    while m <= 2 * bound:
        m *= m
        (u, v), (a, b) = _geval(f, y, m), _geval(df, y, m)
        # f'(y) = a + bi is a unit mod q, with inverse (a - bi)/(a^2 + b^2)
        inv = pow(a * a + b * b, -1, m)
        y = ((y[0] - (u * a + v * b) * inv) % m,
             (y[1] - (v * a - u * b) * inv) % m)
    half = m // 2
    return (y[0] - m if y[0] > half else y[0],
            y[1] - m if y[1] > half else y[1])


def _geval(f: List[Tuple[int, int]], y: Tuple[int, int],
           m: int) -> Tuple[int, int]:
    """f(y) mod m by Horner's rule, both parts in [0, m)."""
    u, v = y
    re = im = 0
    for a, b in reversed(f):
        re, im = (re * u - im * v + a) % m, (re * v + im * u + b) % m
    return re, im
