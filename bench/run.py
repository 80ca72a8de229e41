"""Benchmark of the `rescaling` command line, as users run it.

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing).  With ``--trace 0`` it runs the
workload's commands in a closed loop, one ``rescaling`` subprocess at a
time, in whole passes until the next pass would overrun ``--seconds``, and
reports the end-to-end metrics.  With ``--trace 1`` it runs one plain and
one traced in-process pass (``inproc.py``) and reports the per-layer
metrics.  Every output is checked (``checks.py``).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details, and the spans of a traced run, go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from checks import CheckError, check_pair, checkers
from tracing import layer_metrics
from workloads import PAIRS, WORKLOADS, ordered

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

#: import-only processes at the start of a run, then one per
#: SETUP_EVERY_S seconds of commands; their median is setup_s
SETUP_FIRST = 3
SETUP_EVERY_S = 2.0
#: every child process must end within this many seconds of the start
RUN_BUDGET_S = 170.0


@dataclass
class Run:
    """One command process: its label, exit code, output and cost."""

    label: str
    code: object
    stdout: str
    wall_s: float
    cpu_s: float


class OutOfTime(Exception):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("RESCALING_TRUNC", None)
    return env


def spawn(argv: List[str], env: Dict[str, str], deadline: float
          ) -> Tuple[subprocess.CompletedProcess, float, float]:
    """Run one child to its end; return it with its wall and CPU time."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise OutOfTime(" ".join(argv[:3]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise OutOfTime(" ".join(argv[:3])) from exc
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime
                                                 - before.ru_stime)
    return proc, wall, cpu


class SetupSampler:
    """Wall times of processes that only import the CLI.

    Samples are spread over the run, one whenever ``SETUP_EVERY_S`` of
    command time has passed, so that their median does not hang on the
    load of one moment.
    """

    def __init__(self, env: Dict[str, str], deadline: float):
        self.env, self.deadline = env, deadline
        self.times: List[float] = []
        self.last = 0.0
        self.sample()  # warm-up: compiles bytecode in a fresh checkout
        self.times.clear()
        for _ in range(SETUP_FIRST):
            self.sample()

    def sample(self) -> None:
        argv = [sys.executable, "-c", "import rescaling.cli"]
        proc, wall, _ = spawn(argv, self.env, self.deadline)
        if proc.returncode != 0:
            raise SystemExit(f"importing rescaling.cli failed:\n"
                             f"{proc.stderr}")
        self.times.append(wall)
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.sample()


def run_pass(cmds, env: Dict[str, str], deadline: float,
             setup: SetupSampler) -> Tuple[List[Run], float]:
    runs = []
    start = time.perf_counter()
    for cmd in cmds:
        argv = [sys.executable, "-m", "rescaling.cli", *cmd.argv]
        proc, wall, cpu = spawn(argv, env, deadline)
        runs.append(Run(cmd.label, proc.returncode, proc.stdout, wall, cpu))
        setup.maybe_sample()
    return runs, time.perf_counter() - start


class Checker:
    """Checks outputs once per distinct (command, exit code, stdout)."""

    def __init__(self, workload: str, errors_module):
        self.by_label = {c.label: c for c in WORKLOADS[workload]}
        self.pairs = PAIRS[workload]
        self.checks = checkers(errors_module)
        self.seen: Dict[Tuple, Optional[str]] = {}
        self.problems: List[str] = []

    def failed(self, label: str, code: object) -> bool:
        """An attempt fails when it does not end with its exit code."""
        return code != self.by_label[label].expect_exit

    def _verdict(self, key: Tuple, fn) -> None:
        if key in self.seen:
            return
        try:
            fn()
            self.seen[key] = None
        except (CheckError, KeyError, IndexError, TypeError,
                ValueError) as exc:
            msg = f"{type(exc).__name__}: {exc}"
            self.seen[key] = msg
            self.problems.append(msg)

    def check_pass(self, outputs: List[Tuple[str, object, str]]) -> None:
        docs = {}
        for label, code, stdout in outputs:
            if self.failed(label, code):
                self.problems.append(f"{label}: exit {code}")
                continue
            cmd = self.by_label[label]
            key = (label, code, stdout)
            self._verdict(key, lambda: self.checks[cmd.kind](
                cmd, json.loads(stdout)))
            if self.seen[key] is None:
                docs[label] = json.loads(stdout)
        for a, b in self.pairs:
            if a in docs and b in docs:
                self._verdict(("pair", a, b, json.dumps([docs[a], docs[b]])),
                              lambda: check_pair(docs[a], docs[b],
                                                 f"{a} vs {b}"))

    @property
    def correct(self) -> bool:
        return all(v is None for v in self.seen.values())


def timed_run(workload: str, seed: int, seconds: float, env, deadline,
              checker: Checker) -> Tuple[Dict, Dict]:
    cmds = ordered(workload, seed)
    setup = SetupSampler(env, deadline)
    passes: List[Tuple[List[Run], float]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cmds, env, deadline, setup))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failed = 0
    for runs, _ in passes:
        checker.check_pass([(r.label, r.code, r.stdout) for r in runs])
        failed += sum(1 for r in runs if checker.failed(r.label, r.code))
    # Per command, the fastest of its passes.  The machine is shared, and
    # its speed drifts by up to 1.8x for tens of seconds at a time; a
    # median follows that drift, the minimum follows the program.
    best: Dict[str, Run] = {}
    for runs, _ in passes:
        for r in runs:
            if r.label not in best or r.wall_s < best[r.label].wall_s:
                best[r.label] = r
    walls = [r.wall_s for r in best.values()]
    metrics = {
        "setup_s": (statistics.median(setup.times), "s"),
        "wall_s": (sum(walls), "s"),
        "cpu_s": (sum(r.cpu_s for r in best.values()), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_max_s": (max(walls), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    detail = {
        "setup_s": setup.times,
        "passes": [{"wall_s": w,
                    "commands": [{"label": r.label, "exit": r.code,
                                  "wall_s": r.wall_s, "cpu_s": r.cpu_s}
                                 for r in runs]}
                   for runs, w in passes],
    }
    return {"attempted": sum(len(runs) for runs, _ in passes),
            "failed": failed, "metrics": metrics}, detail


def inproc_pass(workload: str, seed: int, traced: bool, env,
                deadline) -> Dict:
    out = RESULTS / f"inproc-{workload}-{seed}-{int(traced)}.json"
    argv = [sys.executable, str(BENCH / "inproc.py"), "--workload",
            workload, "--seed", str(seed), "--traced", str(int(traced)),
            "--out", str(out)]
    proc, _, _ = spawn(argv, env, deadline)
    if proc.returncode != 0:
        raise SystemExit(f"in-process pass failed:\n{proc.stderr}")
    doc = json.loads(out.read_text())
    out.unlink()
    return doc


def traced_run(workload: str, seed: int, seconds: float, env, deadline,
               checker: Checker) -> Tuple[Dict, Dict]:
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # alternate which side runs first, in whole pairs, within the budget
    plain, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced_first in (False, True):
            for side in (traced_first, not traced_first):
                doc = inproc_pass(workload, seed, side, env, deadline)
                (traced if side else plain).append(doc)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    failed = 0
    for doc in plain + traced:
        outputs = [tuple(o) for o in doc["outputs"]]
        checker.check_pass(outputs)
        failed += sum(1 for label, code, _ in outputs
                      if checker.failed(label, code))
    counts = {json.dumps(doc["counters"], sort_keys=True) for doc in traced}
    if len(counts) != 1:
        raise SystemExit("traced passes disagree on their counters")
    first = traced[0]
    values = layer_metrics(first["spans"], first["counters"],
                           first["distinct_sources"], first["wall_s"],
                           min(d["wall_s"] for d in plain),
                           min(d["wall_s"] for d in traced))
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"per-layer metrics not computed: {sorted(missing)}")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    detail = {"spans": first["spans"], "counters": first["counters"],
              "layers": values,
              "untraced_s": [d["wall_s"] for d in plain],
              "traced_s": [d["wall_s"] for d in traced]}
    attempted = sum(len(d["outputs"]) for d in plain + traced)
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics}, detail


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the rescaling CLI.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    if not (SRC / "rescaling" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'rescaling'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rescaling.errors
    env = child_env()
    RESULTS.mkdir(exist_ok=True)
    checker = Checker(args.workload, rescaling.errors)
    try:
        if args.trace:
            result, detail = traced_run(args.workload, args.seed,
                                        args.seconds, env, deadline, checker)
        else:
            result, detail = timed_run(args.workload, args.seed,
                                       args.seconds, env, deadline, checker)
    except OutOfTime as exc:
        print(f"run budget of {RUN_BUDGET_S} s exhausted at {exc}",
              file=sys.stderr)
        return 3
    for msg in checker.problems:
        print(f"CHECK: {msg}", file=sys.stderr)
    line = {
        "correct": checker.correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in result["metrics"].items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(dict(line, detail=detail)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
