"""The benchmark's workloads: fixed command mixes for the `rescaling` CLI.

Each workload is a list of commands that together make one pass.  The mix
is fixed; the seed only fixes the order in which a pass runs them.  Every
command names the check its output must pass (see ``checks.py``) and the
facts, derived by hand from the families, that the check compares against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

QUAD0 = "t - (1+t^2)/z + t/z^2"
QUAD1 = "t - (1+t^2)/z + t/z^2 - t^5"
LATTES = "(z^2-t)^2/(4*z*(z-1)*(z-t))"
MCM = "z^3 + t/z^2"
MCM_FLOAT = "z^3 + 1.0*t/z^2"
CUBIC = ("-(t^3+2*t^2+t+1)/(t*(t+1)^2)*z^3"
         " + (t + (t^3+2*t^2+t+1)/(t*(t+1)^2))*z^2 + 1")

#: family key -> (text, --subst value or None, degree d)
FAMILIES: Dict[str, Tuple[str, Optional[str], int]] = {
    "quad0": (QUAD0, None, 2),
    "quad1": (QUAD1, None, 2),
    "lattes": (LATTES, None, 4),
    "mcm": (MCM, None, 5),
    "mcm_float": (MCM_FLOAT, None, 5),
    "cubic": (CUBIC, None, 3),
    "cubic_shift": (CUBIC, "-1+t", 3),
    "cubic_inv": (CUBIC, "1/t", 3),
}

#: the frame seeding each fixture family's t -> 0 cycle, and its limit
CYCLE_SEEDS: Dict[str, Tuple[str, int, str]] = {
    "quad0": ("1", 2, "(z^2+z-1)/(z-1)"),
    "quad1": ("1", 2, "(z^2+z-1)/(z-1)"),
    "lattes": ("2/5", 2, "-4/z^4"),
    "mcm": ("1/7", 2, "1/z^6"),
    "cubic": ("3", 3, "z^2"),
    "cubic_shift": ("5", 3, "2*z^2"),
    "cubic_inv": ("4", 3, "-2*z^2"),
}

SCAN_DENOMINATOR = 11
LATTES_DENOMINATOR = 7
#: sphere grid sizes: the exact orbit path costs far more per point
EXACT_POINTS = 40
FLOAT_POINTS = 6000


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the exit code it must end with, and its check."""

    label: str
    kind: str
    family: str
    argv: Tuple[str, ...]
    expect_exit: int = 0
    facts: Dict[str, object] = field(default_factory=dict)


def _fam_args(key: str) -> List[str]:
    text, subst, _ = FAMILIES[key]
    return [text] + ([f"--subst={subst}"] if subst else [])


def _cmd(label: str, kind: str, family: str, sub: str, *extra: str,
         expect_exit: int = 0, **facts) -> Command:
    facts.setdefault("degree", FAMILIES[family][2])
    argv = tuple([sub] + _fam_args(family) + list(extra))
    return Command(label, kind, family, argv, expect_exit, facts)


def _scan() -> List[Command]:
    d = str(SCAN_DENOMINATOR)
    return [
        _cmd("scan_mcm", "scan", "mcm", "scan", "--max-denominator", d,
             max_denominator=SCAN_DENOMINATOR),
        _cmd("scan_mcm_float", "scan", "mcm_float", "scan",
             "--max-denominator", d, max_denominator=SCAN_DENOMINATOR),
        _cmd("report_lattes", "report", "lattes", "report",
             "--max-denominator", str(LATTES_DENOMINATOR), "--dichotomy",
             max_denominator=LATTES_DENOMINATOR),
    ]


def _verify() -> List[Command]:
    out = []
    for key, frame, points in (
            ("cubic", "3", EXACT_POINTS),
            ("cubic_inv", "4", EXACT_POINTS),
            ("cubic_shift", "5", EXACT_POINTS),
            ("quad0", "3", EXACT_POINTS),
            ("quad0", "1", FLOAT_POINTS),
            ("mcm", "1/7", FLOAT_POINTS),
            ("lattes", "2/5", FLOAT_POINTS)):
        # quad0 (3): the period-3 cycle, limit z^2 + a with a = 0
        limit = "z^2" if (key, frame) == ("quad0", "3") \
            else CYCLE_SEEDS[key][2]
        out.append(_cmd(f"verify_{key}_{frame.replace('/', '_')}", "verify",
                        key, "verify", "--frame", frame,
                        "--points", str(points), limit=limit))
    return out


def _session() -> List[Command]:
    out = [_cmd(f"reduce_{key}", "reduce", key, "reduce")
           for key in ("quad0", "quad1", "lattes", "mcm", "cubic",
                       "cubic_shift", "cubic_inv")]
    out.append(_cmd("reduce_mcm_frame", "reduce", "mcm", "reduce",
                    "--frame", "1/3"))
    for key, frame in (("mcm", "1/3"), ("mcm", "1/7"), ("lattes", "2/5"),
                       ("quad0", "1"), ("cubic", "3")):
        out.append(_cmd(f"advance_{key}_{frame.replace('/', '_')}",
                        "advance", key, "advance", "--frame", frame))
    for key in ("quad0", "quad1", "lattes", "mcm", "cubic", "cubic_shift",
                "cubic_inv"):
        frame, period, limit = CYCLE_SEEDS[key]
        out.append(_cmd(f"orbit_{key}", "orbit", key, "orbit", "--frame",
                        frame, "--crosscheck", period=period, limit=limit))
    out.append(_cmd("period_quad0", "orbit", "quad0", "orbit", "--frame",
                    "1", "--period-max", "6", period=2,
                    limit=CYCLE_SEEDS["quad0"][2], period_max=6))
    out.append(_cmd("period_quad1", "orbit", "quad1", "orbit", "--frame",
                    "3", "--period-max", "6", period=3, limit="z^2 + 1",
                    period_max=6))
    # the documented escape: from (2, 0) the exponent runs h -> 3h - 1
    out.append(_cmd("escape_cubic", "escape", "cubic", "orbit", "--frame",
                    "2", expect_exit=3))
    return out


WORKLOADS: Dict[str, List[Command]] = {
    "scan": _scan(),
    "verify": _verify(),
    "session": _session(),
}

#: pairs of commands whose outputs must agree with each other
PAIRS: Dict[str, List[Tuple[str, str]]] = {
    "scan": [("scan_mcm", "scan_mcm_float")],
    "verify": [],
    "session": [],
}


def ordered(workload: str, seed: int) -> List[Command]:
    """The workload's commands in the order the seed fixes."""
    cmds = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cmds)
    return cmds
