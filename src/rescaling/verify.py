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

from dataclasses import dataclass
from fractions import Fraction
from math import cos, gcd, isfinite, log10, pi, sin, sqrt
from typing import Dict, List, Optional, Sequence, Tuple

from . import cpoly
from .coefficients import GaussianRational
from .config import (VERIFY_GRID_POINTS, VERIFY_HOLE_MARGIN, VERIFY_MAX_DROP,
                     VERIFY_S_GRID, VERIFY_TAIL_BOUND, VERIFY_TOL)
from .errors import GridDegenerate, RefuseToSample
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


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _ramification(fam: MapL, cycle: RescalingCycle) -> int:
    d = 1
    for c in fam.coeffs():
        for e, _ in c.terms:
            d = _lcm(d, e.denominator)
    d = _lcm(d, cycle.base.h.denominator)
    for e, _ in cycle.base.c.terms:
        d = _lcm(d, e.denominator)
    return d


def _eval_at_s(series: PuiseuxSeries, sval: complex, ram: int) -> complex:
    total = 0j
    for e, c in series.terms:
        n = e * ram
        if n.denominator != 1:
            raise ValueError("exponent not resolved by the reparametrization")
        total += c.to_complex() * sval ** int(n)
    return total


def _tail_gap_ok(series: PuiseuxSeries, s_mag: float, ram: int) -> bool:
    if series.trunc == float("inf"):
        return True
    gap = series.trunc - series.val_lower()
    return s_mag ** (ram * float(gap)) < VERIFY_TAIL_BOUND


def _hom_apply(num_vals: Sequence[complex], den_vals: Sequence[complex],
               p: Hom) -> Optional[Hom]:
    z, w = p
    d = len(num_vals) - 1
    zn = 1.0 + 0j
    powers_z = []
    for _ in range(d + 1):
        powers_z.append(zn)
        zn *= z
    wn = 1.0 + 0j
    powers_w = []
    for _ in range(d + 1):
        powers_w.append(wn)
        wn *= w
    new_z = sum(num_vals[i] * powers_z[i] * powers_w[d - i]
                for i in range(d + 1))
    new_w = sum(den_vals[i] * powers_z[i] * powers_w[d - i]
                for i in range(d + 1))
    m = max(abs(new_z), abs(new_w))
    if m == 0.0 or not isfinite(m):
        return None
    return (new_z / m, new_w / m)


def _reduced_hom(g: ReducedMap) -> Tuple[List[complex], List[complex]]:
    d = max(cpoly.degree(g.num), cpoly.degree(g.den), 0)
    num = [c.to_complex() for c in g.num] + [0j] * (d + 1 - len(g.num))
    den = [c.to_complex() for c in g.den] + [0j] * (d + 1 - len(g.den))
    return num, den


def _step_holes(step_limit: ReducedMap) -> List[object]:
    holes: List[object] = list(cpoly.roots_numeric(list(step_limit.holes)))
    if step_limit.inf_mult > 0:
        holes.append(INFINITY)
    return holes


@dataclass
class VerificationReport:
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
                     ray: complex = 1.0,
                     limit_override: ReducedMap = None) -> VerificationReport:
    """Compare M^-1 o f^q o M against the cycle limit on a sphere grid.

    Passing means the worst chordal error at the smallest s is within the
    tolerance and the shifted control map is rejected at the same tolerance.
    ``ray`` rotates the sampling direction: s runs along ray * |s|.
    """
    limit = cycle.limit if limit_override is None else limit_override
    ram = _ramification(fam, cycle)
    s_grid = sorted(s_grid, reverse=True)
    for s_mag in s_grid:
        bad = [c for c in list(fam.coeffs()) + [cycle.base.c]
               if not _tail_gap_ok(c, s_mag, ram)]
        if bad:
            raise RefuseToSample(
                f"series tail not negligible at s={s_mag} "
                f"(truncation gap {bad[0].trunc - bad[0].val_lower()})")

    grid = sphere_grid(grid_points)
    included = _exclude_hole_pullbacks(cycle, grid)
    if len(included) < (1.0 - VERIFY_MAX_DROP) * len(grid):
        raise GridDegenerate(
            f"{len(grid) - len(included)} of {len(grid)} sample points "
            f"fall near hole pullbacks")

    lim_hom = _reduced_hom(limit)
    errors: List[float] = []
    t_samples: List[float] = []
    n_excluded = len(grid) - len(included)
    for s_mag in s_grid:
        sval = ray * s_mag
        t_samples.append(abs(sval) ** ram)
        err, dropped = _max_error(fam, cycle, lim_hom, included, sval, ram)
        n_excluded = max(n_excluded, len(grid) - len(included) + dropped)
        if len(included) - dropped < (1.0 - VERIFY_MAX_DROP) * len(grid):
            raise GridDegenerate(
                f"{dropped} degenerate evaluations at s={s_mag}")
        errors.append(err)
    passed = errors[-1] <= tol

    shifted = ReducedMap(cpoly.padd(list(limit.num), list(limit.den)),
                         list(limit.den))
    ctrl_hom = _reduced_hom(shifted)
    ctrl_err, _ = _max_error(fam, cycle, ctrl_hom, included,
                             ray * s_grid[-1], ram)
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
    eq = [a - hc * b for a, b in
          zip(num + [0j] * max(0, dd - dn), den + [0j] * max(0, dn - dd))]
    out.extend(cpoly.roots_numeric(eq))
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
               lim_hom: Tuple[List[complex], List[complex]],
               points: Sequence[complex], sval: complex,
               ram: int) -> Tuple[float, int]:
    if (fam.ftype is GaussianRational
            and _cancellation_digits(cycle, abs(sval), ram) > 9.0):
        return _max_error_exact(fam, cycle, lim_hom, points, sval, ram)
    num_vals = [_eval_at_s(c, sval, ram) for c in fam.num]
    den_vals = [_eval_at_s(c, sval, ram) for c in fam.den]
    h = cycle.base.h
    th = sval ** int(h * ram) if (h * ram).denominator == 1 else None
    if th is None:
        raise ValueError("frame exponent not resolved by reparametrization")
    cval = _eval_at_s(cycle.base.c, sval, ram)
    worst = 0.0
    dropped = 0
    for w in points:
        p: Optional[Hom] = (cval + th * w, 1.0 + 0j)
        for _ in range(cycle.period):
            p = _hom_apply(num_vals, den_vals, p)
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
        p = (p[0] / m, p[1] / m)
        q = _hom_apply(lim_hom[0], lim_hom[1], (w, 1.0 + 0j))
        if q is None:
            dropped += 1
            continue
        worst = max(worst, chordal_hom(p, q))
    return worst, dropped


def _gauss_of(z: complex) -> GaussianRational:
    return GaussianRational(Fraction(z.real), Fraction(z.imag))


def _eval_exact(series: PuiseuxSeries, sG: GaussianRational,
                ram: int) -> GaussianRational:
    total = GaussianRational.zero()
    for e, c in series.terms:
        n = e * ram
        if n.denominator != 1:
            raise ValueError("exponent not resolved by the reparametrization")
        total = total + c * sG ** int(n)
    return total


def _hom_apply_exact(num_vals, den_vals, pz, pw):
    # no per-step normalization: exact entries cannot overflow, and the
    # final comparison is scale-free
    d = len(num_vals) - 1
    pzs = [GaussianRational.one()]
    pws = [GaussianRational.one()]
    for _ in range(d):
        pzs.append(pzs[-1] * pz)
        pws.append(pws[-1] * pw)
    nz = GaussianRational.zero()
    nw = GaussianRational.zero()
    for i in range(d + 1):
        mono = pzs[i] * pws[d - i]
        nz = nz + num_vals[i] * mono
        nw = nw + den_vals[i] * mono
    if nz.is_zero and nw.is_zero:
        return None, None
    return nz, nw


def _common_denominator(vals: Sequence[GaussianRational]) -> int:
    d = 1
    for v in vals:
        d = _lcm(d, _lcm(v.re.denominator, v.im.denominator))
    return d


def _max_error_exact(fam: MapL, cycle: RescalingCycle,
                     lim_hom: Tuple[List[complex], List[complex]],
                     points: Sequence[complex], sval: complex,
                     ram: int) -> Tuple[float, int]:
    """Reference orbit in exact arithmetic, floats only for the final metric.

    Denominators are cleared up front so the iteration runs on Gaussian
    integers; a single rational division per point would otherwise turn
    into a gcd on every multiply.
    """
    sG = _gauss_of(complex(sval))
    num_vals = [_eval_exact(c, sG, ram) for c in fam.num]
    den_vals = [_eval_exact(c, sG, ram) for c in fam.den]
    cd = _common_denominator(num_vals + den_vals)
    num_vals = [c * cd for c in num_vals]
    den_vals = [c * cd for c in den_vals]
    h = cycle.base.h
    if (h * ram).denominator != 1:
        raise ValueError("frame exponent not resolved by reparametrization")
    thG = sG ** int(h * ram)
    cG = _eval_exact(cycle.base.c, sG, ram)
    md = _common_denominator([thG, cG])
    worst = 0.0
    dropped = 0
    for w in points:
        wG = _gauss_of(w)
        pz = cG + thG * wG
        pw = GaussianRational(_common_denominator([pz]))
        pz = pz * pw
        for _ in range(cycle.period):
            pz, pw = _hom_apply_exact(num_vals, den_vals, pz, pw)
            if pz is None:
                break
        if pz is None:
            dropped += 1
            continue
        pz, pw = (pz - cG * pw) * md, thG * pw * md
        m = pz if pz.abs2() >= pw.abs2() else pw
        if m.is_zero:
            dropped += 1
            continue
        p = ((pz / m).to_complex(), (pw / m).to_complex())
        q = _hom_apply(lim_hom[0], lim_hom[1], (w, 1.0 + 0j))
        if q is None:
            dropped += 1
            continue
        worst = max(worst, chordal_hom(p, q))
    return worst, dropped
