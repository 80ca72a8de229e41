"""Numeric spot-check of a rescaling cycle against its limit.

For a cycle of period q at base frame M with claimed limit G, the conjugated
return map M^-1 o f^q o M should approach G pointwise as t -> 0.  The check
evaluates both sides at concrete parameters on a sphere-covering grid of
points and compares in the chordal metric.

The parameter is sampled as t = s^D, with D the least common multiple of
every exponent denominator in sight, so all series evaluate through integer
powers of s and the approximation error scales like s rather than a
fractional root of it.  Points whose limit-side orbit passes within a fixed
margin of a step's hole divisor are excluded: there the convergence is not
promised.  A negative control (the limit shifted by 1) must fail the same
comparison, otherwise the tolerance was meaningless.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from math import ceil, cos, isfinite, lcm, log10, pi, sin, sqrt
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from . import cpoly
from .config import (VERIFY_GRID_POINTS, VERIFY_HOLE_MARGIN, VERIFY_MAX_DROP,
                     VERIFY_S_GRID, VERIFY_TOL)
from .errors import GridDegenerate
from .frames import RescalingCycle
from .maps import MapL, ReducedMap, compose_reduced
from .puiseux import PuiseuxSeries

INFINITY = "inf"

Hom = Tuple[complex, complex]


def chordal_distance(a, b) -> float:
    """Distance on the sphere; affine complex numbers or the marker "inf".

    >>> chordal_distance(0, "inf")
    1.0
    >>> chordal_distance(1, -1)
    1.0
    """
    pa = (1.0 + 0j, 0j) if a == INFINITY else (complex(a), 1.0 + 0j)
    pb = (1.0 + 0j, 0j) if b == INFINITY else (complex(b), 1.0 + 0j)
    return chordal_hom(pa, pb)


def chordal_hom(p: Hom, q: Hom) -> float:
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


def _coeff_complex(c) -> complex:
    return c.to_complex()


def _coeff_mpc(c):
    """A Gaussian rational as an mpc at the working precision.

    mpf takes no Fraction, so each part enters as numerator / denominator.
    """
    import mpmath
    parts = (c.re.as_integer_ratio(), c.im.as_integer_ratio())
    return mpmath.mpc(*(mpmath.mpf(n) / d for n, d in parts))


def _eval_at_s(series: PuiseuxSeries, sval, ram: int, to_num: Callable):
    """The series at t = sval^ram, its coefficients converted by ``to_num``."""
    total = 0j
    for e, c in series.terms:
        total += to_num(c) * sval ** _resolved(e, ram)
    return total


def _hom_apply(num_vals: Sequence, den_vals: Sequence, p: Hom,
               one) -> Optional[Hom]:
    """The homogeneous map at p, rescaled so its larger coordinate is 1.

    ``one`` is 1 in the field of the orbit, so mpmath orbits meet no Python
    complex constant; each term is (a_i * z^i) * w^(d-i), summed upward.
    """
    z, w = p
    w_pows = [one]
    for _ in num_vals[1:]:
        w_pows.append(w_pows[-1] * w)
    new_z = new_w = 0
    zn = one
    for a, b, wn in zip(num_vals, den_vals, reversed(w_pows)):
        new_z += a * zn * wn
        new_w += b * zn * wn
        zn *= z
    m = max(abs(new_z), abs(new_w))
    if m == 0.0 or not isfinite(m):
        return None
    return (new_z / m, new_w / m)


def _images(g: ReducedMap, points: Sequence[complex]) -> List[Optional[Hom]]:
    """Each point's image under g, normalized as in :func:`_hom_apply`."""
    d = max(cpoly.degree(g.num), cpoly.degree(g.den), 0)
    num = [c.to_complex() for c in g.num] + [0j] * (d + 1 - len(g.num))
    den = [c.to_complex() for c in g.den] + [0j] * (d + 1 - len(g.den))
    one = 1.0 + 0j
    return [_hom_apply(num, den, (w, one), one) for w in points]


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
    lim_imgs, ctrl_imgs = _images(limit, included), _images(shifted, included)
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
    kept = []
    for w in grid:
        p: Hom = (w, 1.0 + 0j)
        if all(_chordal_to(p, e) >= VERIFY_HOLE_MARGIN
               for e in exceptional):
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


def _chordal_to(p: Hom, target) -> float:
    if target == INFINITY:
        return chordal_hom(p, (1.0 + 0j, 0j))
    return chordal_hom(p, (complex(target), 1.0 + 0j))


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


def _max_error(fam: MapL, cycle: RescalingCycle,
               targets: Sequence[Sequence[Optional[Hom]]],
               points: Sequence[complex], sval: complex,
               ram: int) -> Tuple[List[float], int]:
    """Worst chordal gap between the rescaled return map and each target.

    ``targets`` holds, per target map, its image of each point (None where
    degenerate).  A point counts as dropped when its orbit degenerates or
    the first target's image does; later targets only skip it.  The orbit
    runs in Python complex while the frame's cancellation stays within 9
    digits, and otherwise in mpmath complex numbers carrying 20 digits more
    than it cancels; only the final comparison is in floats.
    """
    digits = _cancellation_digits(cycle, abs(sval), ram)
    if digits <= 9.0:
        ctx, to_num, s, one = nullcontext(), _coeff_complex, sval, 1.0 + 0j
    else:
        import mpmath
        ctx = mpmath.workdps(ceil(digits) + 20)
        to_num, s, one = _coeff_mpc, mpmath.mpc(sval), mpmath.mpc(1)
    worst = [0.0] * len(targets)
    dropped = 0
    with ctx:
        num_vals = [_eval_at_s(c, s, ram, to_num) for c in fam.num]
        den_vals = [_eval_at_s(c, s, ram, to_num) for c in fam.den]
        th = s ** _resolved(cycle.base.h, ram)
        cval = _eval_at_s(cycle.base.c, s, ram, to_num)
        for j, w in enumerate(points):
            p: Optional[Hom] = (cval + th * w, one)
            for _ in range(cycle.period):
                p = _hom_apply(num_vals, den_vals, p, one)
                if p is None:
                    break
            if p is None:
                dropped += 1
                continue
            p = (p[0] - cval * p[1], th * p[1])
            m = max(abs(p[0]), abs(p[1]))
            if m == 0.0 or not isfinite(m):
                dropped += 1
                continue
            p = (complex(p[0] / m), complex(p[1] / m))
            for k, imgs in enumerate(targets):
                q = imgs[j]
                if q is not None:
                    worst[k] = max(worst[k], chordal_hom(p, q))
                elif k == 0:
                    dropped += 1
    return worst, dropped
