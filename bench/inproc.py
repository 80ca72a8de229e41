"""One in-process pass over a workload: ``rescaling.cli.main`` per command.

Run as a child of ``run.py --trace 1`` in a fresh interpreter, once plain
and once traced, so both passes start from the same warm-up state:

    python3 bench/inproc.py --workload scan --seed 1 --traced 1 --out F

It writes F as JSON: the pass's wall time, each command's exit code and
stdout, and, when traced, the spans and counters.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from rescaling import cli  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import ordered  # noqa: E402


def run_pass(workload: str, seed: int, tracer: Tracer = None) -> dict:
    outputs = []
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for cmd in ordered(workload, seed):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # report it as a failed command
                code = f"{type(exc).__name__}: {exc}"
            outputs.append([cmd.label, code, buf.getvalue()])
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    doc = {"wall_s": wall, "outputs": outputs}
    if tracer is not None:
        doc.update(tracer.export())
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    tracer = Tracer() if args.traced else None
    doc = run_pass(args.workload, args.seed, tracer)
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
