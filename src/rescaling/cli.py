"""Command line front end.

One subcommand per process, one JSON document on stdout.  Exit codes: 0 on
success; on a package error, the ``exit_code`` of its class (2 when the input
or a checked claim is wrong, 3 when the computation gave out); 2 on any
other ``ValueError``, a malformed command line among them.  Families and
frames are exact, and the library settles series precision itself, so no
option sets it.  A reader that closes stdout early gets no traceback, and
the exit code stays the command's own.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from .config import (ITERATE_DEGREE_CAP, VERIFY_GRID_POINTS, VERIFY_S_GRID,
                     VERIFY_TOL)
from .errors import RescalingError


def _lazy(name: str):
    """The submodule ``name`` of this package, executed on first use.

    A module that is already imported comes back as it is.  Otherwise its
    module object goes into ``sys.modules`` and onto the package at once,
    as an import would put it there, but its code is compiled and run only
    when an attribute is first read (``importlib.util.LazyLoader``).  So a
    subcommand compiles only the modules it calls, and code that looks the
    modules up in ``sys.modules`` (the benchmark's tracer) still finds them.
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


cpoly, classify, famparse, frames, maps, verify = map(
    _lazy, ("cpoly", "classify", "famparse", "frames", "maps", "verify"))

SCHEMA_VERSION = 1


def _frame_dict(fc: frames.FrameClass) -> Dict:
    return {"h": str(fc.h), "center": str(fc.c)}


def _reduced_dict(r: maps.ReducedMap) -> Dict:
    return {
        "map": str(r),
        "num": [str(c) for c in r.num],
        "den": [str(c) for c in r.den],
        "degree": r.degree,
        "holes": cpoly.poly_str(list(r.holes)) if r.holes else "1",
        "holes_degree": r.holes_degree,
        "inf_mult": r.inf_mult,
    }


def _step_dict(st: frames.StepResult) -> Dict:
    return {
        "source": _frame_dict(st.source),
        "target": _frame_dict(st.target),
        "limit": _reduced_dict(st.limit),
        "corrections": st.n_corrections,
    }


def _cycle_dict(c: frames.RescalingCycle) -> Dict:
    return {
        "period": c.period,
        "degree": c.degree,
        "frames": [_frame_dict(f) for f in c.frames],
        "preperiod_frames": [_frame_dict(f) for f in c.preperiod_frames],
        "steps": [_step_dict(s) for s in c.steps],
        "limit": _reduced_dict(c.limit),
    }


def _pcf_dict(p: classify.PcfReport) -> Dict:
    return {
        "status": p.status,
        "is_monomial": p.is_monomial,
        "orbits": dict(p.orbits),
        "postcritical": None if p.postcritical is None
        else list(p.postcritical),
    }


def _classification_dict(c: classify.LimitClassification) -> Dict:
    return {
        "map": c.map_str,
        "degree": c.degree,
        "multiple_fixed_point": c.multiple_fixed_point,
        "polynomial_like": c.polynomial_like,
        "polynomial_witness": c.polynomial_witness,
        "pcf": _pcf_dict(c.pcf),
    }


def _dichotomy_dict(d: classify.DichotomyReport) -> Dict:
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
    try:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send what is left to devnull, so
        # the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


Outcome = Tuple[Dict, int]


def _cmd_reduce(args) -> Outcome:
    fam = famparse.parse_family(args.family, args.subst)
    payload = _payload(args)
    payload["family"]["degree"] = fam.degree
    work = fam
    if args.frame is not None:
        frame = famparse.parse_frame(args.frame)
        work = maps.precompose_affine(fam, frame)
        payload["frames"].append(
            {"h": str(frame.h), "center": str(frame.c)})
    payload["reduced"] = _reduced_dict(maps.reduce_family(work))
    return payload, 0


def _cmd_advance(args) -> Outcome:
    fam = famparse.parse_family(args.family, args.subst)
    frame = famparse.parse_frame(args.frame)
    st = frames.advance(fam, frame)
    payload = _payload(args)
    payload["family"]["degree"] = fam.degree
    payload["frames"] = [_frame_dict(st.source), _frame_dict(st.target)]
    payload["step"] = _step_dict(st)
    return payload, 0


def _cmd_orbit(args) -> Outcome:
    fam = famparse.parse_family(args.family, args.subst)
    seed = famparse.parse_frame(args.frame)
    cycle = frames.find_cycle(fam, seed, args.max_steps)
    payload = _payload(args)
    payload["family"]["degree"] = fam.degree
    payload["frames"] = [_frame_dict(f)
                         for f in cycle.preperiod_frames + cycle.frames]
    payload["cycles"] = [_cycle_dict(cycle)]
    payload["assertions"].append(
        {"name": "limit_degree_product", "passed": True})
    code = 0
    if args.crosscheck:
        ok = frames.cycle_limit_crosscheck(fam, cycle)
        payload["assertions"].append(
            {"name": "cycle_limit_crosscheck", "passed": ok})
        code = code or (0 if ok else 2)
    if args.period_max:
        rep = frames.period_set_check(fam, seed, args.period_max)
        payload["period_set"] = {
            "degrees": {str(ell): dg for ell, dg in rep.degrees.items()},
            "law_holds": rep.law_holds,
            "period": rep.period,
        }
        payload["assertions"].append(
            {"name": "period_set_law", "passed": rep.law_holds})
        code = code or (0 if rep.law_holds else 2)
    return payload, code


def _scan_payload(args) -> Tuple[Dict, maps.MapL, frames.ScanResult]:
    fam = famparse.parse_family(args.family, args.subst)
    res = frames.monomial_seed_scan(fam, args.max_denominator,
                                    args.max_steps)
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


def _cmd_scan(args) -> Outcome:
    return _scan_payload(args)[0], 0


def _cmd_verify(args) -> Outcome:
    fam = famparse.parse_family(args.family, args.subst)
    seed = famparse.parse_frame(args.frame)
    cycle = frames.find_cycle(fam, seed, args.max_steps)
    s_grid = tuple(float(s) for s in args.s_grid.split(","))
    report = verify.verify_rescaling(fam, cycle, s_grid=s_grid,
                                     tol=args.tol, grid_points=args.points)
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


def _cmd_report(args) -> Outcome:
    payload, fam, res = _scan_payload(args)
    payload["classification"] = [
        _classification_dict(classify.classify_limit(c.limit))
        for c in res.cycles]
    if args.dichotomy:
        rep = classify.quadratic_dichotomy_report(res.cycles, fam.degree)
        payload["dichotomy"] = _dichotomy_dict(rep)
    return payload, 0


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose errors raise ``ValueError``, so a malformed command
    line ends in a JSON error; subparsers are built from the same class."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="rescaling",
        description="Rescaling limits of one-parameter families of "
                    "rational maps.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("family",
                        help="family in z and t, e.g. 'z^2 + t/z'")
        sp.add_argument("--subst", default=None, metavar="EXPR",
                        help="reparametrize t -> EXPR(t), e.g. 't/(1+t)'")

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
                    help="also compute conjugated iterate degrees up to L; "
                         "the check composes the whole family, whose "
                         "degree d must keep d^L within "
                         f"{ITERATE_DEGREE_CAP} (L <= 6 for d = 2, L <= 3 "
                         "for d = 3), or it exits 3 with DegreeCapExceeded")
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
    sp.add_argument("--tol", type=float, default=VERIFY_TOL)
    sp.add_argument("--s-grid", default=",".join(map(str, VERIFY_S_GRID)),
                    help="comma-separated sample magnitudes")
    sp.add_argument("--points", type=int, default=VERIFY_GRID_POINTS,
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
    try:
        args = _build_parser().parse_args(argv)
        payload, code = args.fn(args)
    except RescalingError as exc:
        _emit(_error_payload(exc))
        return exc.exit_code
    except ValueError as exc:
        _emit(_error_payload(exc))
        return 2
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
