"""Dense polynomial arithmetic over a coefficient field.

Polynomials are lists of coefficients in ascending degree order, all of one
coefficient type.  These run over residues (exact or approximate), never over
series; the zero test of the coefficient type decides what counts as zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .coefficients import ApproxComplex, Coefficient, GaussianRational

Poly = List[Coefficient]

# Numeric root matching below this distance counts as a common root.  Double
# roots of a double-precision polynomial are located to about 1e-8, so the
# tolerance is kept well above that.
ROOT_MATCH_TOL = 1e-6


def trim(p: Sequence[Coefficient]) -> Poly:
    out = list(p)
    while out and out[-1].is_zero:
        out.pop()
    return out


def degree(p: Sequence[Coefficient]) -> int:
    """Degree of p, with the zero polynomial mapped to -1."""
    return len(trim(p)) - 1


def is_zero_poly(p: Sequence[Coefficient]) -> bool:
    return not trim(p)


def padd(p: Sequence[Coefficient], q: Sequence[Coefficient]) -> Poly:
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


def psub(p: Sequence[Coefficient], q: Sequence[Coefficient]) -> Poly:
    return padd(p, [-c for c in q])


def pscale(p: Sequence[Coefficient], c: Coefficient) -> Poly:
    return [ci * c for ci in p]


def pmul(p: Sequence[Coefficient], q: Sequence[Coefficient]) -> Poly:
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    ftype = type(p[0])
    out = [ftype.zero() for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def pdivmod(p: Sequence[Coefficient],
            q: Sequence[Coefficient]) -> Tuple[Poly, Poly]:
    """Quotient and remainder of p by q over the coefficient field."""
    q = trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    lead = q[-1]
    dq = len(q) - 1
    quot: Poly = []
    while len(trim(rem)) - 1 >= dq and trim(rem):
        rem = trim(rem)
        k = len(rem) - 1 - dq
        c = rem[-1] / lead
        quot = padd(quot, _monomial(c, k))
        rem = psub(rem, pmul(q, _monomial(c, k)))
        rem = rem[:dq + k]  # the leading term cancels by construction
    return trim(quot), trim(rem)


def _monomial(c: Coefficient, k: int) -> Poly:
    return [type(c).zero()] * k + [c]


def pdiv_exact(p: Sequence[Coefficient], q: Sequence[Coefficient]) -> Poly:
    quot, rem = pdivmod(p, q)
    if rem:
        raise ValueError("polynomial division left a remainder")
    return quot


def monic(p: Sequence[Coefficient]) -> Poly:
    p = trim(p)
    if not p:
        return []
    return pscale(p, p[-1].inverse())


def pgcd(p: Sequence[Coefficient], q: Sequence[Coefficient]) -> Poly:
    """Monic gcd.  Euclid for exact coefficients, root matching for doubles.

    >>> one, z = GaussianRational.one(), GaussianRational.zero()
    >>> [str(c) for c in pgcd([-one, z, one], [one * 2, -one * 3, one])]
    ['-1', '1']
    """
    p, q = trim(p), trim(q)
    if not p:
        return monic(q)
    if not q:
        return monic(p)
    if isinstance(p[0], ApproxComplex):
        return _pgcd_numeric(p, q)
    while q:
        _, r = pdivmod(p, q)
        p, q = q, monic(r)
    return monic(p)


def _pgcd_numeric(p: Poly, q: Poly) -> Poly:
    rp = roots_numeric(p)
    rq = list(roots_numeric(q))
    thr = max(c.zero_threshold for c in p + q)
    matched = []
    for r in rp:
        best, best_d = None, ROOT_MATCH_TOL
        for j, s in enumerate(rq):
            if s is not None and abs(r - s) < best_d:
                best, best_d = j, abs(r - s)
        if best is not None:
            matched.append((r + rq[best]) / 2)
            rq[best] = None
    g = [ApproxComplex(1.0, 0.0, thr)]
    for r in matched:
        g = pmul(g, [ApproxComplex(-r.real, -r.imag, thr),
                     ApproxComplex(1.0, 0.0, thr)])
    return g


def poly_str(p: Sequence[Coefficient], var: str = "z") -> str:
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
        neg = isinstance(c, GaussianRational) and not c.im and c.re < 0
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


def pderiv(p: Sequence[Coefficient]) -> Poly:
    return trim([p[i] * i for i in range(1, len(p))])


def peval(p: Sequence[Coefficient], x: Coefficient) -> Coefficient:
    if not p:
        return x * 0
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def presultant(p: Sequence[Coefficient], q: Sequence[Coefficient]) -> Coefficient:
    """Resultant via the Sylvester determinant, degrees taken after trimming."""
    p, q = trim(p), trim(q)
    ftype = type((p or q)[0]) if (p or q) else GaussianRational
    if not p or not q:
        return ftype.zero()
    m, n = len(p) - 1, len(q) - 1
    if m == 0 and n == 0:
        return ftype.one()
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    return field_det(sylvester(p, q, ftype.zero()))


def sylvester(p: Sequence, q: Sequence, zero) -> List[List]:
    """The Sylvester matrix of p and q at their formal degrees m and n:
    n shifted rows of p's coefficients, highest first, then m of q's."""
    m, n = len(p) - 1, len(q) - 1
    pd, qd = list(reversed(p)), list(reversed(q))
    return ([[zero] * i + pd + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + qd + [zero] * (m - 1 - i) for i in range(m)])


def field_det(rows: List[List[Coefficient]]) -> Coefficient:
    """Determinant by Gaussian elimination with magnitude pivoting."""
    n = len(rows)
    rows = [list(r) for r in rows]
    ftype = type(rows[0][0])
    det = ftype.one()
    for col in range(n):
        piv, piv_mag = None, None
        for r in range(col, n):
            mag = rows[r][col].abs2()
            if not rows[r][col].is_zero and (piv is None or mag > piv_mag):
                piv, piv_mag = r, mag
        if piv is None:
            return ftype.zero()
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pivot = rows[col][col]
        det = det * pivot
        inv = pivot.inverse()
        for r in range(col + 1, n):
            if rows[r][col].is_zero:
                continue
            factor = rows[r][col] * inv
            rows[r] = [rows[r][j] - factor * rows[col][j] for j in range(n)]
    return det


def roots_numeric(p: Sequence[Union[Coefficient, complex]]) -> List[complex]:
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


def roots_exact(p: Sequence[Coefficient]) -> Tuple[
        List[Tuple[GaussianRational, int]], List[Tuple[Poly, int]]]:
    """Factor an exact polynomial over Q(i).

    Returns (linear part, higher part): Gaussian rational roots with
    multiplicities, and the irreducible non-linear factors with theirs.
    """
    import sympy

    p = trim(p)
    if len(p) <= 1:
        return [], []
    z = sympy.Symbol("z")
    expr = sum(_to_sympy(c) * z ** i for i, c in enumerate(p))
    poly = sympy.Poly(expr, z, domain="QQ_I")
    _, factors = poly.factor_list()
    roots: List[Tuple[GaussianRational, int]] = []
    rest: List[Tuple[Poly, int]] = []
    for fac, mult in factors:
        cs = fac.all_coeffs()  # descending
        if len(cs) == 2:
            root = _from_sympy(-cs[1] / cs[0])
            roots.append((root, int(mult)))
        else:
            rest.append(([_from_sympy(c) for c in reversed(cs)], int(mult)))
    return roots, rest


def _to_sympy(c: GaussianRational):
    import sympy

    return sympy.Rational(c.re.numerator, c.re.denominator) \
        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)


def _from_sympy(el) -> GaussianRational:
    import sympy

    if hasattr(el, "x") and hasattr(el, "y"):  # domain element a + b*I
        return GaussianRational(
            Fraction(int(el.x.numerator), int(el.x.denominator)),
            Fraction(int(el.y.numerator), int(el.y.denominator)))
    ex = sympy.sympify(el)
    re, im = ex.as_real_imag()
    return GaussianRational(Fraction(int(re.numerator), int(re.denominator)),
                            Fraction(int(im.numerator), int(im.denominator)))
