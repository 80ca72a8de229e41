"""Command line front end.

One subcommand per process, one JSON document on stdout.  Exit codes: 0 on
success, 2 when a consistency assertion or parse error fires, 3 when
precision, termination, or sampling gives out.  The default series
truncation honours the RESCALING_TRUNC environment variable; --trunc
overrides it, and a run that exhausts precision is retried with doubled
truncation a few times before giving up.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import cpoly
from .classify import (DichotomyReport, LimitClassification, PcfReport,
                       classify_limit, quadratic_dichotomy_report)
from .config import PARSE_RETRY_MAX, default_truncation
from .errors import (AdvanceNotTerminating, AssertionFailed, DegenerateFamily,
                     DegreeCapExceeded, GridDegenerate, MixedCoefficients,
                     ParseError, PrecisionExhausted, RamificationCapExceeded,
                     RefuseToSample, ToleranceAmbiguous)
from .famparse import parse_family, parse_frame
from .frames import (FrameClass, RescalingCycle, ScanResult, StepResult,
                     advance, cycle_limit_crosscheck, find_cycle,
                     monomial_seed_scan, period_set_check)
from .maps import MapL, ReducedMap, precompose_affine, reduce_family
from .verify import verify_rescaling

SCHEMA_VERSION = 1

# exit code 2: the input or a checked claim is wrong
_ASSERTION_ERRORS = (AssertionFailed, ParseError, MixedCoefficients,
                     ValueError)
# exit code 3: the computation gave out before reaching an answer
_RESOURCE_ERRORS = (PrecisionExhausted, AdvanceNotTerminating,
                    RamificationCapExceeded, DegreeCapExceeded,
                    ToleranceAmbiguous, DegenerateFamily, GridDegenerate,
                    RefuseToSample)


def _frame_dict(fc: FrameClass) -> Dict:
    return {"h": str(fc.h), "center": str(fc.c)}


def _reduced_dict(r: ReducedMap) -> Dict:
    return {
        "map": str(r),
        "num": [str(c) for c in r.num],
        "den": [str(c) for c in r.den],
        "degree": r.degree,
        "holes": cpoly.poly_str(list(r.holes)) if r.holes else "1",
        "holes_degree": r.holes_degree,
        "inf_mult": r.inf_mult,
    }


def _step_dict(st: StepResult) -> Dict:
    return {
        "source": _frame_dict(st.source),
        "target": _frame_dict(st.target),
        "limit": _reduced_dict(st.limit),
        "corrections": st.n_corrections,
    }


def _cycle_dict(c: RescalingCycle) -> Dict:
    return {
        "period": c.period,
        "degree": c.degree,
        "frames": [_frame_dict(f) for f in c.frames],
        "preperiod_frames": [_frame_dict(f) for f in c.preperiod_frames],
        "steps": [_step_dict(s) for s in c.steps],
        "limit": _reduced_dict(c.limit),
    }


def _pcf_dict(p: PcfReport) -> Dict:
    return {
        "status": p.status,
        "is_monomial": p.is_monomial,
        "orbits": dict(p.orbits),
        "postcritical": None if p.postcritical is None
        else list(p.postcritical),
    }


def _classification_dict(c: LimitClassification) -> Dict:
    return {
        "map": c.map_str,
        "degree": c.degree,
        "multiple_fixed_point": c.multiple_fixed_point,
        "polynomial_like": c.polynomial_like,
        "polynomial_witness": c.polynomial_witness,
        "pcf": _pcf_dict(c.pcf),
    }


def _dichotomy_dict(d: DichotomyReport) -> Dict:
    return {
        "case": d.case,
        "periods": list(d.periods),
        "non_pcf_count": d.non_pcf_count,
        "classifications": [_classification_dict(c)
                            for c in d.classifications],
    }


def _payload(args) -> Dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "family": {"source": args.family, "subst": args.subst},
        "frames": [],
        "cycles": [],
        "verification": [],
        "assertions": [],
    }


def _emit(payload: Dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


Outcome = Tuple[Dict, int]


def _cmd_reduce(args, trunc) -> Outcome:
    fam = parse_family(args.family, args.subst, trunc)
    payload = _payload(args)
    payload["family"]["degree"] = fam.degree
    work = fam
    if args.frame is not None:
        frame = parse_frame(args.frame, trunc, fam.ftype)
        work = precompose_affine(fam, frame)
        payload["frames"].append(
            {"h": str(frame.h), "center": str(frame.c)})
    payload["reduced"] = _reduced_dict(reduce_family(work))
    return payload, 0


def _cmd_advance(args, trunc) -> Outcome:
    fam = parse_family(args.family, args.subst, trunc)
    frame = parse_frame(args.frame, trunc, fam.ftype)
    st = advance(fam, frame)
    payload = _payload(args)
    payload["family"]["degree"] = fam.degree
    payload["frames"] = [_frame_dict(st.source), _frame_dict(st.target)]
    payload["step"] = _step_dict(st)
    return payload, 0


def _cmd_orbit(args, trunc) -> Outcome:
    fam = parse_family(args.family, args.subst, trunc)
    seed = parse_frame(args.frame, trunc, fam.ftype)
    cycle = find_cycle(fam, seed, args.max_steps)
    payload = _payload(args)
    payload["family"]["degree"] = fam.degree
    payload["frames"] = [_frame_dict(f)
                         for f in cycle.preperiod_frames + cycle.frames]
    payload["cycles"] = [_cycle_dict(cycle)]
    payload["assertions"].append(
        {"name": "limit_degree_product", "passed": True})
    code = 0
    if args.crosscheck:
        ok = cycle_limit_crosscheck(fam, cycle)
        payload["assertions"].append(
            {"name": "cycle_limit_crosscheck", "passed": ok})
        code = code or (0 if ok else 2)
    if args.period_max:
        rep = period_set_check(fam, seed, args.period_max)
        payload["period_set"] = {
            "degrees": {str(ell): dg for ell, dg in rep.degrees.items()},
            "law_holds": rep.law_holds,
            "period": rep.period,
        }
        payload["assertions"].append(
            {"name": "period_set_law", "passed": rep.law_holds})
        code = code or (0 if rep.law_holds else 2)
    return payload, code


def _scan_payload(args, trunc) -> Tuple[Dict, MapL, ScanResult]:
    fam = parse_family(args.family, args.subst, trunc)
    res = monomial_seed_scan(fam, args.max_denominator, args.max_steps)
    payload = _payload(args)
    payload["family"]["degree"] = fam.degree
    payload["cycles"] = [_cycle_dict(c) for c in res.cycles]
    payload["scan"] = {
        "max_denominator": args.max_denominator,
        "seeds_scanned": res.seeds_scanned,
        "degree_one_bases": [_frame_dict(c.base) for c in res.degree_one],
        "escaped": [str(h) for h in res.escaped],
        "failed": {str(h): msg for h, msg in res.failed.items()},
    }
    return payload, fam, res


def _cmd_scan(args, trunc) -> Outcome:
    return _scan_payload(args, trunc)[0], 0


def _cmd_verify(args, trunc) -> Outcome:
    fam = parse_family(args.family, args.subst, trunc)
    seed = parse_frame(args.frame, trunc, fam.ftype)
    cycle = find_cycle(fam, seed, args.max_steps)
    s_grid = tuple(float(s) for s in args.s_grid.split(","))
    report = verify_rescaling(fam, cycle, s_grid=s_grid, tol=args.tol,
                              grid_points=args.points)
    payload = _payload(args)
    payload["family"]["degree"] = fam.degree
    payload["cycles"] = [_cycle_dict(cycle)]
    payload["verification"] = [report.to_dict()]
    payload["assertions"] += [
        {"name": "grid_comparison", "passed": report.passed},
        {"name": "negative_control_rejected",
         "passed": report.control_rejected},
    ]
    return payload, 0 if report.ok else 2


def _cmd_report(args, trunc) -> Outcome:
    payload, fam, res = _scan_payload(args, trunc)
    payload["classification"] = [
        _classification_dict(classify_limit(c.limit)) for c in res.cycles]
    if args.dichotomy:
        rep = quadratic_dichotomy_report(res.cycles, fam.degree)
        payload["dichotomy"] = _dichotomy_dict(rep)
    return payload, 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rescaling",
        description="Rescaling limits of one-parameter families of "
                    "rational maps.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("family",
                        help="family in z and t, e.g. 'z^2 + t/z'")
        sp.add_argument("--subst", default=None, metavar="EXPR",
                        help="reparametrize t -> EXPR(t), e.g. 't/(1+t)'")
        sp.add_argument("--trunc", type=int, default=None, metavar="N",
                        help="series truncation order "
                             "(default: RESCALING_TRUNC or 16)")

    sp = sub.add_parser("reduce", help="normalize and reduce in one frame")
    common(sp)
    sp.add_argument("--frame", default=None, metavar="H[,CENTER]",
                    help="frame to precompose, e.g. '1/3' or '2/5, t'")
    sp.set_defaults(fn=_cmd_reduce)

    sp = sub.add_parser("advance", help="push a frame one rescaling step")
    common(sp)
    sp.add_argument("--frame", required=True, metavar="H[,CENTER]")
    sp.set_defaults(fn=_cmd_advance)

    sp = sub.add_parser("orbit", help="advance a seed until its class "
                                      "orbit repeats")
    common(sp)
    sp.add_argument("--frame", required=True, metavar="H[,CENTER]")
    sp.add_argument("--max-steps", type=int, default=64)
    sp.add_argument("--crosscheck", action="store_true",
                    help="re-derive the cycle limit from the iterated "
                         "family")
    sp.add_argument("--period-max", type=int, default=0, metavar="L",
                    help="also compute conjugated iterate degrees up to L")
    sp.set_defaults(fn=_cmd_orbit)

    sp = sub.add_parser("scan", help="seed every monomial frame up to a "
                                     "denominator bound")
    common(sp)
    sp.add_argument("--max-denominator", type=int, required=True)
    sp.add_argument("--max-steps", type=int, default=64)
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("verify", help="compare a cycle against its limit "
                                       "at sample parameters")
    common(sp)
    sp.add_argument("--frame", required=True, metavar="H[,CENTER]")
    sp.add_argument("--max-steps", type=int, default=64)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--s-grid", default="1e-2,1e-3,1e-4",
                    help="comma-separated sample magnitudes")
    sp.add_argument("--points", type=int, default=200,
                    help="sphere grid size")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("report", help="scan, then classify every cycle "
                                       "limit")
    common(sp)
    sp.add_argument("--max-denominator", type=int, required=True)
    sp.add_argument("--max-steps", type=int, default=64)
    sp.add_argument("--dichotomy", action="store_true",
                    help="check the quadratic two-case structure")
    sp.set_defaults(fn=_cmd_report)
    return p


def _error_payload(exc: Exception) -> Dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    details = getattr(exc, "details", None)
    if details is not None:
        out["error"]["details"] = {str(k): str(v)
                                   for k, v in dict(details).items()}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    trunc = Fraction(args.trunc) if args.trunc else default_truncation()
    retries = 0
    while True:
        try:
            payload, code = args.fn(args, trunc)
        except PrecisionExhausted as exc:
            if retries >= PARSE_RETRY_MAX:
                _emit(_error_payload(exc))
                return 3
            retries += 1
            trunc *= 2
            continue
        except _ASSERTION_ERRORS as exc:
            _emit(_error_payload(exc))
            return 2
        except _RESOURCE_ERRORS as exc:
            _emit(_error_payload(exc))
            return 3
        _emit(payload)
        return code


if __name__ == "__main__":
    sys.exit(main())
