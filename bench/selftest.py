"""Tests of the benchmark itself: its checkers, its span arithmetic, its tracer.

    python3 bench/selftest.py

Run from the root of a source checkout.  Real payloads come from
``rescaling.cli.main`` run in-process on small inputs; each checker must
accept them and reject doctored copies (a shifted limit, a wrong period, a
missing cycle, a broken ledger).
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import types
import unittest
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import rescaling.errors  # noqa: E402
from rescaling import cli, frames, famparse, maps  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from tracing import (Tracer, advance_subtree, layer_metrics,  # noqa: E402
                     self_times, span_self_times)
from workloads import CYCLE_SEEDS, _cmd  # noqa: E402

CHECKS = checks.checkers(rescaling.errors)


@lru_cache(maxsize=None)
def _payload(argv: tuple) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(list(argv))
    return buf.getvalue()


def payload(cmd) -> dict:
    return json.loads(_payload(cmd.argv))


def shift_limit(lim: dict) -> None:
    """Replace a limit g by g + 1, as verify's negative control does."""
    num, den = lim["num"], lim["den"]
    n = max(len(num), len(den))
    num += ["0"] * (n - len(num))
    lim["num"] = [str(checks.coefficient(a) + checks.coefficient(b))
                  for a, b in zip(num, den + ["0"] * (n - len(den)))]


class CheckerTests(unittest.TestCase):

    def assertRejects(self, cmd, doc):
        with self.assertRaises(CheckError):
            CHECKS[cmd.kind](cmd, doc)

    def test_orbit(self):
        frame, period, limit = CYCLE_SEEDS["quad0"]
        cmd = _cmd("o", "orbit", "quad0", "orbit", "--frame", frame,
                   "--crosscheck", period=period, limit=limit)
        doc = payload(cmd)
        CHECKS["orbit"](cmd, doc)
        bad = copy.deepcopy(doc)
        shift_limit(bad["cycles"][0]["limit"])
        self.assertRejects(cmd, bad)
        bad = copy.deepcopy(doc)
        bad["cycles"][0]["period"] = 3
        self.assertRejects(cmd, bad)
        bad = copy.deepcopy(doc)
        bad["cycles"][0]["steps"][0]["limit"]["inf_mult"] += 1
        self.assertRejects(cmd, bad)

    def test_period_set(self):
        cmd = _cmd("p", "orbit", "quad1", "orbit", "--frame", "3",
                   "--period-max", "6", period=3, limit="z^2 + 1",
                   period_max=6)
        doc = payload(cmd)
        CHECKS["orbit"](cmd, doc)
        bad = copy.deepcopy(doc)
        bad["period_set"]["degrees"]["4"] = 2
        self.assertRejects(cmd, bad)

    def test_scan_and_float_spelling(self):
        exact = _cmd("e", "scan", "mcm", "scan", "--max-denominator", "7",
                     max_denominator=7)
        approx = _cmd("f", "scan", "mcm_float", "scan", "--max-denominator",
                      "7", max_denominator=7)
        de, df = payload(exact), payload(approx)
        CHECKS["scan"](exact, de)
        CHECKS["scan"](approx, df)
        checks.check_pair(de, df, "pair")
        pair = [k for k, c in enumerate(de["cycles"])
                if checks.frame_hs(c) == ("1/7", "3/7")][0]
        missing = copy.deepcopy(de)
        del missing["cycles"][pair]
        self.assertRejects(exact, missing)
        with self.assertRaises(CheckError):
            checks.check_pair(missing, df, "pair")
        bad = copy.deepcopy(df)
        shift_limit(bad["cycles"][-1]["limit"])
        self.assertRejects(approx, bad)
        with self.assertRaises(CheckError):
            checks.check_pair(de, bad, "pair")
        bad = copy.deepcopy(de)
        bad["scan"]["seeds_scanned"] -= 1
        self.assertRejects(exact, bad)

    def test_report(self):
        cmd = _cmd("r", "report", "lattes", "report", "--max-denominator",
                   "5", "--dichotomy", max_denominator=5)
        doc = payload(cmd)
        CHECKS["report"](cmd, doc)
        bad = copy.deepcopy(doc)
        for c in bad["classification"]:
            c["pcf"]["status"] = "NotPCF_CertifiedEscape"
        bad["classification"] *= 3
        bad["cycles"] *= 3
        self.assertRejects(cmd, bad)
        bad = copy.deepcopy(doc)
        bad["cycles"] = [c for c in bad["cycles"]
                         if checks.frame_hs(c) != ("2/5", "4/5")]
        self.assertRejects(cmd, bad)

    def test_verify(self):
        cmd = _cmd("v", "verify", "mcm", "verify", "--frame", "1/7",
                   "--points", "60", limit="1/z^6")
        doc = payload(cmd)
        CHECKS["verify"](cmd, doc)
        self.assertLess(checks.reference_error(cmd, doc), 1e-3)
        bad = copy.deepcopy(doc)
        shift_limit(bad["cycles"][0]["limit"])
        self.assertRejects(cmd, bad)
        # the reference orbit alone rejects a limit both sides agree on
        wrong = replace(cmd, facts=dict(cmd.facts, limit="1/z^6 + 1"))
        self.assertGreater(checks.reference_error(wrong, bad), 1e-3)
        bad = copy.deepcopy(doc)
        bad["verification"][0]["control_rejected"] = False
        self.assertRejects(cmd, bad)

    def test_reduce_and_advance(self):
        cmd = _cmd("d", "reduce", "mcm", "reduce")
        doc = payload(cmd)
        CHECKS["reduce"](cmd, doc)
        bad = copy.deepcopy(doc)
        bad["reduced"]["holes_degree"] += 1
        bad["reduced"]["inf_mult"] += 1
        self.assertRejects(cmd, bad)
        cmd = _cmd("a", "advance", "mcm", "advance", "--frame", "1/7")
        doc = payload(cmd)
        CHECKS["advance"](cmd, doc)
        bad = copy.deepcopy(doc)
        bad["step"]["target"]["h"] = "1/7"
        self.assertRejects(cmd, bad)

    def test_escape(self):
        cmd = _cmd("x", "escape", "cubic", "orbit", "--frame", "2",
                   expect_exit=3)
        doc = payload(cmd)
        CHECKS["escape"](cmd, doc)
        bad = copy.deepcopy(doc)
        bad["error"]["type"] = "PrecisionExhausted"
        self.assertRejects(cmd, bad)
        # a certified escape, once it exists, still counts as an escape
        fake = types.SimpleNamespace(
            AdvanceNotTerminating=rescaling.errors.AdvanceNotTerminating,
            CertifiedEscape=type("CertifiedEscape",
                                 (rescaling.errors.AdvanceNotTerminating,),
                                 {}))
        good = copy.deepcopy(doc)
        good["error"]["type"] = "CertifiedEscape"
        checks.checkers(fake)["escape"](cmd, good)


class SpanTests(unittest.TestCase):

    def test_self_time_arithmetic(self):
        spans = [
            ["cli.main", -1, 0.0, 10.0],
            ["frames.advance", 0, 1.0, 4.0],
            ["maps.reduce_family", 1, 2.0, 3.0],
            ["frames.advance", 0, 5.0, 9.0],
            ["maps.reduce_family", 3, 5.5, 6.0],
            ["cpoly.pgcd", 4, 5.6, 5.8],
            ["cli.main", -1, 11.0, 12.0],
        ]
        for got, want in zip(span_self_times(spans),
                             [3.0, 2.0, 1.0, 3.5, 0.3, 0.2, 1.0]):
            self.assertAlmostEqual(got, want)
        agg = self_times(spans)
        self.assertEqual(agg["cli.main"]["calls"], 2)
        self.assertAlmostEqual(agg["cli.main"]["self_s"], 4.0)
        self.assertAlmostEqual(agg["frames.advance"]["self_s"], 5.5)
        self.assertAlmostEqual(agg["frames.advance"]["total_s"], 7.0)
        self.assertAlmostEqual(agg["maps.reduce_family"]["self_s"], 1.3)
        self.assertEqual(advance_subtree(spans),
                         [False, True, True, True, True, True, False])
        m = layer_metrics(spans, {}, 2, pass_s=12.5, untraced_s=10.0,
                          traced_s=12.5)
        self.assertAlmostEqual(m["trace.overhead_s"], 2.5)
        self.assertAlmostEqual(m["trace.overhead_share"], 0.25)
        self.assertAlmostEqual(m["trace.span_coverage"], 11.0 / 12.5)
        self.assertEqual(m["frames.advance.distinct_ratio"], 1.0)
        self.assertAlmostEqual(m["frames.advance.subtree_share"], 1.0)

    def test_every_declared_metric_is_computed(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        m = layer_metrics([["cli.main", -1, 0.0, 1.0]], {}, 0, 1.0, 1.0, 1.0)
        self.assertEqual({x["name"] for x in spec["per_layer"]}, set(m))


class TracerTests(unittest.TestCase):

    def test_wrappers_at_every_binding(self):
        original = frames.advance
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.advance, original)
            self.assertIs(cli.advance, frames.advance)
            self.assertIs(famparse.parse_family, cli.parse_family)
            self.assertIs(maps.precompose_affine, frames.precompose_affine)
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(cli.main(["advance", "z^3 + t/z^2",
                                           "--frame", "1/3"]), 0)
        finally:
            tracer.uninstall()
        self.assertIs(cli.advance, original)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names[0], "cli.main")
        self.assertEqual(names.count("cli.main"), 1)
        self.assertTrue(all(s[1] >= 0 for s in tracer.spans[1:]))
        self.assertEqual(tracer.counters["frames.advance.calls"], 1)
        self.assertGreater(tracer.counters["puiseux.mul.calls"], 0)
        self.assertEqual(tracer.sources, {"(1/3, 0)"})


if __name__ == "__main__":
    unittest.main()
