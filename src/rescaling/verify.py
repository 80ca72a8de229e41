"""Numeric spot-check of a rescaling cycle against its limit.

For a cycle of period q at base frame M with claimed limit G, the conjugated
return map M^-1 o f^q o M should approach G pointwise as t -> 0.  The check
evaluates both sides at concrete parameters on a sphere-covering grid of
points and compares in the chordal metric.

The parameter is sampled as t = s^D, with D the least common multiple of
every exponent denominator in sight, so all series evaluate through integer
powers of s and the approximation error scales like s rather than a
fractional root of it.  Grid points within a fixed chordal margin of a
pullback of the holes (a preimage of a step's hole under the composition of
the step limits before it) are excluded: there the convergence is not
promised.  A negative control (the limit shifted by 1) must fail the same
comparison, otherwise the tolerance was meaningless.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import (ceil, cos, inf, isfinite, isqrt, lcm, log2, log10, pi, sin,
                  sqrt)
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from . import cpoly
from .coefficients import GaussianRational
from .config import (VERIFY_GRID_POINTS, VERIFY_HOLE_MARGIN, VERIFY_MAX_DROP,
                     VERIFY_S_GRID, VERIFY_TOL)
from .errors import GridDegenerate
from .frames import RescalingCycle
from .maps import MapL, ReducedMap, compose_reduced
from .puiseux import PuiseuxSeries

INFINITY = "inf"

Hom = Tuple[complex, complex]


def chordal_hom(p: Hom, q: Hom) -> float:
    """Chordal distance between the points (p0 : p1) and (q0 : q1)."""
    na2 = abs(p[0]) ** 2 + abs(p[1]) ** 2
    nb2 = abs(q[0]) ** 2 + abs(q[1]) ** 2
    if na2 == 0.0 or nb2 == 0.0:
        raise ValueError("chordal distance of the degenerate point (0:0)")
    return abs(p[0] * q[1] - p[1] * q[0]) / sqrt(na2 * nb2)


def sphere_grid(n: int) -> List[complex]:
    """n points covering the sphere evenly, stereographically projected."""
    pts = []
    golden = pi * (3.0 - sqrt(5.0))
    for i in range(n):
        zc = 1.0 - 2.0 * (i + 0.5) / n
        r = sqrt(max(0.0, 1.0 - zc * zc))
        th = golden * i
        pts.append(complex(r * cos(th), r * sin(th)) / (1.0 - zc))
    return pts


def _ramification(fam: MapL, cycle: RescalingCycle) -> int:
    return lcm(cycle.base.h.denominator,
               *(e.denominator for c in fam.coeffs() + (cycle.base.c,)
                 for e, _ in c.terms))


def _resolved(e: Fraction, ram: int) -> int:
    n = e * ram
    if n.denominator != 1:
        raise ValueError("exponent not resolved by the reparametrization")
    return int(n)


def _eval_at_s(series: PuiseuxSeries, sval: complex, ram: int) -> complex:
    """The series at t = sval^ram, in Python complex."""
    total = 0j
    for e, c in series.terms:
        total += c.to_complex() * sval ** _resolved(e, ram)
    return total


def _hom_orbits(num_vals: Sequence[complex], den_vals: Sequence[complex],
                starts: Iterable[Hom], steps: int,
                frame: Optional[Hom] = None,
                targets: Sequence[Sequence[Optional[Hom]]] = ()
                ) -> Union[List[Optional[Hom]], Tuple[List[float], int]]:
    """Each start after ``steps`` applications of the homogeneous map.

    Every image is rescaled so its larger coordinate is 1; an orbit ends
    in None at an image whose coordinates are both 0 or one of which is not
    finite.  Given ``frame`` = (c, t^h), the orbits are not kept: each end
    (z, w) goes on to (z - c w, t^h w), rescaled the same way, and is
    compared in :func:`chordal_hom`'s arithmetic with each target's image
    of its start; the result is then :func:`_max_error`'s, the worst gap
    per target and the number of points dropped.

    The powers z^i and w^k are repeated products from 1, and each term is
    (a_i * z^i) * w^(d-i), summed upward in i from 0, as in the dense loop
    over every i; only the terms with a_i = 0 are left out.

    Claim.  The two loops end an orbit in None at the same step, and
    otherwise in equal (``==``) points: at most the sign of a zero differs.

    Proof.  Call two doubles alike when they are equal or both NaN.  Sums,
    differences and products of alike operands are alike, and so are their
    quotients by one divisor m > 0: the sign of a zero operand decides only
    the sign of a zero result.  abs() ignores signs, and max(x, y) keeps x
    unless y > x.  So it suffices that a step takes alike (z, w) either to
    alike images or to None in both loops.
    (a) Every power z^i, w^k (i, k <= d) finite.  A left-out term is then
    (0 * z^i) * w^k = +-0, and adding +-0 to x gives a double alike to x.
    The sums, hence their absolute values, m, the test for the end and the
    images, are alike.
    (b) Some power not finite.  A product one of whose factors has an
    infinite or NaN part has one too, so z^d or w^d is not finite.  The
    dense numerator holds the terms (a_d z^d) * 1 and (a_0 * 1) w^d, one of
    which is then not finite (0 times infinity is NaN); so is any sum of
    such a term, hence |nz| and m, and the dense loop ends in None.  The
    sparse loop keeps that term if its a is not 0; if a_0 or a_d is 0 it
    tests z^d and w^d itself.
    Last, the frame's rescaling and the comparison take alike inputs to
    alike results, so with ``frame`` the figures are the same.  QED.
    """
    one = 1.0 + 0j
    d = len(num_vals) - 1
    num = [(a, i, d - i) for i, a in enumerate(num_vals) if a]
    den = [(b, i, d - i) for i, b in enumerate(den_vals) if b]
    guard = not (num_vals[0] and num_vals[d])
    zp = [one] * (d + 1)
    wp = zp.copy()
    rise, repeats = range(1, d + 1), range(steps)
    c, th = frame or (0j, one)
    out: List[Optional[Hom]] = []
    worst = [0.0] * len(targets)
    dropped = 0
    for j, (z, w) in enumerate(starts):
        for _ in repeats:
            zn = wn = one
            for i in rise:
                zp[i] = zn = zn * z
                wp[i] = wn = wn * w
            # x - x == 0 exactly when both parts of x are finite
            if guard and not (zn - zn == 0 and wn - wn == 0):
                break
            nz = nw = 0j
            for a, i, k in num:
                nz += a * zp[i] * wp[k]
            for b, i, k in den:
                nw += b * zp[i] * wp[k]
            az, aw = abs(nz), abs(nw)
            m = aw if aw > az else az
            # m is NaN with az, but a NaN aw loses to az
            if not 0.0 < m < inf or aw != aw:
                break
            z, w = nz / m, nw / m
        else:
            if frame is None:
                out.append((z, w))
                continue
            z, w = z - c * w, th * w
            az, aw = abs(z), abs(w)
            m = aw if aw > az else az
            if 0.0 < m < inf:
                z, w = z / m, w / m
                na2 = abs(z) ** 2 + abs(w) ** 2
                for k, imgs in enumerate(targets):
                    q = imgs[j]
                    if q is not None:
                        q0, q1 = q
                        gap = abs(z * q1 - w * q0) / sqrt(
                            na2 * (abs(q0) ** 2 + abs(q1) ** 2))
                        if gap > worst[k]:
                            worst[k] = gap
                    elif k == 0:
                        dropped += 1
                continue
        if frame is None:
            out.append(None)
        dropped += 1
    return out if frame is None else (worst, dropped)


def _images(maps: Sequence[ReducedMap], points: Sequence[complex]
            ) -> List[List[Optional[Hom]]]:
    """Each point's image under each map, normalized as in
    :func:`_hom_orbits`.

    One pass over the points forms each point's powers z^i once for all
    the maps.  Every start has w = 1, and each power w^k is 1 + 0j
    exactly, so a term (a_i * z^i) * w^(d-i) is (a_i * z^i) * (1 + 0j).
    Each map then makes one step of :func:`_hom_orbits` on its own
    coefficients, with the same operations in the same order, so every
    image is bit for bit the one that a pass of that map alone gives.
    """
    one = 1.0 + 0j
    homs, top = [], 0
    for g in maps:
        d = max(cpoly.degree(g.num), cpoly.degree(g.den), 0)
        top = max(top, d)
        num = [c.to_complex() for c in g.num] + [0j] * (d + 1 - len(g.num))
        den = [c.to_complex() for c in g.den] + [0j] * (d + 1 - len(g.den))
        homs.append(([(a, i) for i, a in enumerate(num) if a],
                     [(b, i) for i, b in enumerate(den) if b],
                     d if not (num[0] and num[d]) else None, []))
    zp = [one] * (top + 1)
    for z in points:
        zn = one
        for i in range(1, top + 1):
            zp[i] = zn = zn * z
        for num, den, guard, out in homs:
            # as in _hom_orbits: x - x == 0 exactly when x is finite
            if guard is not None and not zp[guard] - zp[guard] == 0:
                out.append(None)
                continue
            nz = nw = 0j
            for a, i in num:
                nz += a * zp[i] * one
            for b, i in den:
                nw += b * zp[i] * one
            az, aw = abs(nz), abs(nw)
            m = aw if aw > az else az
            out.append((nz / m, nw / m) if 0.0 < m < inf and aw == aw
                       else None)
    return [out for *_, out in homs]


def _step_holes(step_limit: ReducedMap) -> List[object]:
    holes: List[object] = list(cpoly.roots_numeric(list(step_limit.holes)))
    if step_limit.inf_mult > 0:
        holes.append(INFINITY)
    return holes


class VerificationReport(NamedTuple):
    """Grid comparison of the conjugated return map against the limit."""

    period: int
    base: str
    limit: str
    ramification: int
    tol: float
    s_values: List[float]
    t_samples: List[float]
    max_errors: List[float]
    n_points: int
    n_excluded: int
    passed: bool
    control_error: float
    control_rejected: bool

    @property
    def ok(self) -> bool:
        return self.passed and self.control_rejected

    def to_dict(self) -> Dict:
        return {
            "period": self.period,
            "base_frame": self.base,
            "limit": self.limit,
            "ramification": self.ramification,
            "tolerance": self.tol,
            "s_values": self.s_values,
            "t_samples": self.t_samples,
            "max_errors": self.max_errors,
            "points_checked": self.n_points,
            "points_excluded": self.n_excluded,
            "passed": self.passed,
            "control_error": self.control_error,
            "control_rejected": self.control_rejected,
            "ok": self.ok,
        }


def verify_rescaling(fam: MapL, cycle: RescalingCycle,
                     s_grid: Sequence[float] = VERIFY_S_GRID,
                     tol: float = VERIFY_TOL,
                     grid_points: int = VERIFY_GRID_POINTS,
                     ray: complex = 1.0) -> VerificationReport:
    """Compare M^-1 o f^q o M against the cycle limit on a sphere grid.

    Passing means the worst chordal error at the smallest s is within the
    tolerance and the shifted control map is rejected at the same tolerance.
    ``ray`` rotates the sampling direction: s runs along ray * |s|.
    ``grid_points`` must be at least 1, and every entry of ``s_grid``, a
    magnitude |s|, positive and finite.  The family must be exact: a
    truncated series has no value at a sample point.
    """
    if not all(c.is_exact for c in fam.coeffs()):
        raise ValueError("verification of a family with inexact coefficients")
    if grid_points < 1:
        raise ValueError(f"grid size must be >= 1, got {grid_points}")
    if not all(s > 0 and isfinite(s) for s in s_grid):
        raise ValueError(f"s-grid magnitudes must be positive and finite, "
                         f"got {list(s_grid)}")
    limit = cycle.limit
    ram = _ramification(fam, cycle)
    s_grid = sorted(s_grid, reverse=True)
    grid = sphere_grid(grid_points)
    included = _exclude_hole_pullbacks(cycle, grid)
    if len(included) < (1.0 - VERIFY_MAX_DROP) * len(grid):
        raise GridDegenerate(
            f"{len(grid) - len(included)} of {len(grid)} sample points "
            f"fall near hole pullbacks")

    # the control is the limit shifted by 1; it is compared on the orbits
    # of the smallest s, skipping only points where its own image degenerates
    shifted = ReducedMap(cpoly.padd(list(limit.num), list(limit.den)),
                         list(limit.den))
    lim_imgs, ctrl_imgs = _images([limit, shifted], included)
    errors: List[float] = []
    t_samples: List[float] = []
    n_excluded = len(grid) - len(included)
    for k, s_mag in enumerate(s_grid):
        sval = ray * s_mag
        t_samples.append(abs(sval) ** ram)
        targets = [lim_imgs] if k + 1 < len(s_grid) else [lim_imgs, ctrl_imgs]
        errs, dropped = _max_error(fam, cycle, targets, included, sval, ram)
        n_excluded = max(n_excluded, len(grid) - len(included) + dropped)
        if len(included) - dropped < (1.0 - VERIFY_MAX_DROP) * len(grid):
            raise GridDegenerate(
                f"{dropped} degenerate evaluations at s={s_mag}")
        errors.append(errs[0])
    passed = errors[-1] <= tol
    ctrl_err = errs[1]
    return VerificationReport(
        period=cycle.period, base=str(cycle.base),
        limit=str(limit), ramification=ram, tol=tol,
        s_values=list(s_grid), t_samples=t_samples, max_errors=errors,
        n_points=len(included), n_excluded=n_excluded,
        passed=passed, control_error=ctrl_err,
        control_rejected=ctrl_err > tol)


def _exclude_hole_pullbacks(cycle: RescalingCycle,
                            grid: Sequence[complex]) -> List[complex]:
    """Drop grid points near a pullback of a step's holes.

    The exceptional set is finite: the preimages, under each partial
    composition of step limits, of that step's holes.  Points within the
    margin of one of them are not promised to converge.
    """
    exceptional: List[object] = []
    partial: Optional[ReducedMap] = None
    for st in cycle.steps:
        for h in _step_holes(st.limit):
            exceptional.extend(_preimages(partial, h))
        partial = (st.limit if partial is None
                   else compose_reduced(st.limit, partial))
    # each hole as (q0 : q1) with its squared norm; a point's distance to
    # it is chordal_hom's arithmetic on (w : 1), and NaN drops the point
    one = 1.0 + 0j
    holes = [(one, 0j) if e == INFINITY else (complex(e), one)
             for e in exceptional]
    holes = [(q0, q1, abs(q0) ** 2 + abs(q1) ** 2) for q0, q1 in holes]
    kept = []
    for w in grid:
        na2 = abs(w) ** 2 + abs(one) ** 2
        for q0, q1, nb2 in holes:
            if not (abs(w * q1 - one * q0) / sqrt(na2 * nb2)
                    >= VERIFY_HOLE_MARGIN):
                break
        else:
            kept.append(w)
    return kept


def _preimages(partial: Optional[ReducedMap], h: object) -> List[object]:
    """Solutions of partial(z) = h; identity when partial is None."""
    if partial is None:
        return [h]
    num = [c.to_complex() for c in partial.num]
    den = [c.to_complex() for c in partial.den]
    dn, dd = len(num) - 1, len(den) - 1
    out: List[object] = []
    if h == INFINITY:
        out.extend(cpoly.roots_numeric(den))
        if dn > dd:
            out.append(INFINITY)
        return out
    hc = complex(h)
    out.extend(cpoly.roots_numeric(cpoly.psub(num, cpoly.pscale(den, hc))))
    at_inf: object = (INFINITY if dn > dd else
                      0j if dn < dd else num[-1] / den[-1])
    if at_inf != INFINITY and abs(at_inf - hc) < 1e-9:
        out.append(INFINITY)
    return out


def _cancellation_digits(cycle: RescalingCycle, s_mag: float,
                         ram: int) -> float:
    """Decimal digits lost resolving a frame scale below a frame center.

    The return map must separate z - c(t) at size |t|^h from c(t) itself;
    when the gap exceeds float precision the doubles cancel to noise.
    """
    vals = [fr.c.valuation() for fr in cycle.frames if fr.c.terms]
    if not vals:
        return 0.0
    hmax = max(fr.h for fr in cycle.frames)
    return float(hmax - min(vals)) * ram * -log10(s_mag)


def _scale_digits(cycle: RescalingCycle, s_mag: float, ram: int) -> float:
    """Decimal digits an int orbit's shared exponent loses at a frame.

    The figure is the largest e = max(|h|, h - 2 v(c)) over the cycle's
    frames, times -log10|t|; see :func:`_int_orbits`.
    """
    e = max(max(abs(fr.h), fr.h - 2 * fr.c.valuation()) if fr.c.terms
            else abs(fr.h) for fr in cycle.frames)
    return float(e) * ram * -log10(s_mag)


def _max_error(fam: MapL, cycle: RescalingCycle,
               targets: Sequence[Sequence[Optional[Hom]]],
               points: Sequence[complex], sval: complex,
               ram: int) -> Tuple[List[float], int]:
    """Worst chordal gap between the rescaled return map and each target.

    ``targets`` holds, per target map, its image of each point (None where
    degenerate).  A point counts as dropped when its orbit degenerates or
    the first target's image does; later targets only skip it.  The orbits
    run in Python complex when nothing cancels (every frame center is 0,
    or |s| >= 1), and otherwise on Python ints (:func:`_int_orbits`) with
    20 digits beyond the larger of the cancellation and the frames' scale;
    only the final comparison is in floats.  A float orbit is compared as
    soon as it ends, in :func:`_hom_orbits`.
    """
    s_mag = abs(sval)
    digits = _cancellation_digits(cycle, s_mag, ram)
    if digits <= 0:
        num_vals = [_eval_at_s(c, sval, ram) for c in fam.num]
        den_vals = [_eval_at_s(c, sval, ram) for c in fam.den]
        th = sval ** _resolved(cycle.base.h, ram)
        cval = _eval_at_s(cycle.base.c, sval, ram)
        starts = zip([cval + th * w for w in points], repeat(1.0 + 0j))
        return _hom_orbits(num_vals, den_vals, starts, cycle.period,
                           (cval, th), targets)
    digits = max(digits, _scale_digits(cycle, s_mag, ram)) + 20
    images = _int_orbits(fam, cycle, points, sval, ram, digits)
    worst = [0.0] * len(targets)
    dropped = 0
    for j, p in enumerate(images):
        if p is None:
            dropped += 1
            continue
        for k, imgs in enumerate(targets):
            q = imgs[j]
            if q is not None:
                worst[k] = max(worst[k], chordal_hom(p, q))
            elif k == 0:
                dropped += 1
    return worst, dropped


def _int_orbits(fam: MapL, cycle: RescalingCycle, points: Sequence[complex],
                sval: complex, ram: int,
                digits: float) -> List[Optional[Hom]]:
    """Each point's rescaled return-map image, from an orbit on Python ints.

    s is a complex double, so an exact dyadic number: the coefficients of
    P and Q at s, the base center c and t^h are exact Gaussian rationals,
    and one common denominator makes the coefficients Gaussian integers
    (scaling P and Q together leaves the map alone).  The pair (Z, W) of
    z = c + t^h w steps exactly in Z[i]^2.  At the start and after each
    step the four ints are shifted right by one shared amount, so the
    largest keeps p = ceil(digits * log2(10)) bits.  At the end the pair
    (Z - c W, t^h W) is formed exactly and rounded to doubles once.

    Lemma.  Let |t| = |s|^ram < 1 (nothing cancels otherwise, so this
    branch does not run), and let frame j of the cycle have zoom
    exponent h_j and center c_j = sum a_e t^e of valuation v_j (v_j = inf
    when c_j = 0), with C_j = max(1, sum |a_e|) and
    e_j = max(|h_j|, h_j - 2 v_j).  A shift moves the orbit's coordinate
    in frame j by less than 3 C_j^2 |t|^-e_j 2^(3-p) in the chordal metric.

    Proof.  A shift lowers each part by less than one unit while the
    largest keeps at least 2^(p-1), so it moves the point (Z : W) of the
    sphere by less than 2 / (2^(p-1) - 2) <= 2^(3-p).  The frame
    coordinate is the image of (Z : W) under A = [[1, -c_j], [0, t^h_j]].
    Its chordal Lipschitz constant is the ratio of its singular values,
    sigma_1 / sigma_2 = sigma_1^2 / |det A|, at most the squared Frobenius
    norm over |det A|: (1 + |c_j|^2 + |t|^(2 h_j)) / |t|^h_j.  Since
    |c_j| <= C_j |t|^v_j, the numerator is at most
    3 C_j^2 |t|^(2 min(0, v_j, h_j)), and 2 min(0, v_j, h_j) - h_j = -e_j.
    QED.

    Corollary.  Between shifts the orbit is exact, so in frame coordinates
    a displacement is carried along by the rescaled step maps.  Away from
    the holes, which the grid's margin avoids, these converge to the step
    limits, so their chordal Lipschitz constants stay below some L >= 1
    that does not depend on s.  A period-q orbit is shifted q + 1 times, so
    its output moves by less than K 10^(e lambda) 2^-p, with
    K = 24 (q + 1) L^q max_j C_j^2, e = max_j e_j and lambda = -log10|t|.
    ``_scale_digits`` is e lambda; when ``digits`` exceeds it by 20, the
    output is within K 10^-20 of the exact orbit's, and K does not grow as
    s -> 0.  The rounding to doubles at the end is correctly rounded.
    """
    prec = ceil(digits * log2(10))
    s = _exact(sval)

    def at_s(series: PuiseuxSeries) -> GaussianRational:
        total = GaussianRational.zero()
        for e, c in series.terms:
            total += c * s ** _resolved(e, ram)
        return total

    vals = [at_s(c) for c in fam.coeffs()]
    den = lcm(*(v.d for v in vals))
    coeffs = [(v.x * (den // v.d), v.y * (den // v.d)) for v in vals]
    pairs = list(zip(coeffs[:len(fam.num)], coeffs[len(fam.num):]))
    th = s ** _resolved(cycle.base.h, ram)
    c = at_s(cycle.base.c)
    steps = cycle.period
    out: List[Optional[Hom]] = []
    for w in points:
        z0 = c + th * _exact(w)
        p = _shift_to(prec, z0.x, z0.y, z0.d, 0)
        for _ in range(steps):
            if p is None:
                break
            zr, zi, wr, wi = p
            # Horner in Z, with the powers of W beside it
            w_pows = [(1, 0)]
            for _ in pairs[1:]:
                ur, ui = w_pows[-1]
                w_pows.append((ur * wr - ui * wi, ur * wi + ui * wr))
            (ar, ai), (br, bi) = pairs[-1]
            for ((xr, xi), (yr, yi)), (ur, ui) in zip(pairs[-2::-1],
                                                       w_pows[1:]):
                ar, ai = (ar * zr - ai * zi + xr * ur - xi * ui,
                          ar * zi + ai * zr + xr * ui + xi * ur)
                br, bi = (br * zr - bi * zi + yr * ur - yi * ui,
                          br * zi + bi * zr + yr * ui + yi * ur)
            p = _shift_to(prec, ar, ai, br, bi)
        if p is not None:
            zr, zi, wr, wi = p
            # (d_t (d_c Z - C W), d_c T W) for c = C / d_c, t^h = T / d_t
            p = _rounded(th.d * (c.d * zr - c.x * wr + c.y * wi),
                         th.d * (c.d * zi - c.x * wi - c.y * wr),
                         c.d * (th.x * wr - th.y * wi),
                         c.d * (th.x * wi + th.y * wr))
        out.append(p)
    return out


def _exact(v: complex) -> GaussianRational:
    return GaussianRational(Fraction(v.real), Fraction(v.imag))


def _shift_to(prec: int, *parts: int) -> Optional[Tuple[int, ...]]:
    """The parts shifted right together so the largest has ``prec`` bits."""
    top = max(abs(x) for x in parts).bit_length()
    if not top:
        return None
    return tuple(x >> top - prec for x in parts) if top > prec else parts


def _rounded(zr: int, zi: int, wr: int, wi: int) -> Optional[Hom]:
    """(z, w) / max(|z|, |w|) as doubles, each part correctly rounded."""
    n2 = max(zr * zr + zi * zi, wr * wr + wi * wi)
    if not n2:
        return None
    # m = sqrt(n2) 2^k to 128 bits or more, so int / int rounds once
    k = max(0, 128 - n2.bit_length() // 2)
    m = isqrt(n2 << 2 * k)
    return (complex((zr << k) / m, (zi << k) / m),
            complex((wr << k) / m, (wi << k) / m))
