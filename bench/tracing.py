"""In-memory spans and counters around the public functions of each layer.

The package imports its functions by name (``cli`` holds its own binding of
``frames.advance``, ``frames`` of ``maps.precompose_affine``, and so on), so
a wrapper is installed at every module binding of the original function,
not only at its home.  Spans record (name, parent, start, end) and are kept
in memory until the run ends; hot arithmetic (series and Gaussian-rational
products) is counted, not spanned.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

PACKAGE = "rescaling"

#: (module, function) pairs that get a span, named "module.function"
SPANNED = (
    ("cli", "main"),
    ("famparse", "parse_family"),
    ("famparse", "parse_frame"),
    ("cpoly", "pgcd"),
    ("cpoly", "roots_exact"),
    ("maps", "precompose_affine"),
    ("maps", "gauss_normalize"),
    ("maps", "reduce_family"),
    ("maps", "resultant_valuation"),
    ("maps", "conjugate"),
    ("maps", "compose_families"),
    ("maps", "iterate_family"),
    ("maps", "compose_reduced"),
    ("frames", "advance"),
    ("frames", "find_cycle"),
    ("frames", "monomial_seed_scan"),
    ("frames", "cycle_limit_crosscheck"),
    ("frames", "period_set_check"),
    ("classify", "classify_limit"),
    ("classify", "quadratic_dichotomy_report"),
    ("verify", "verify_rescaling"),
)

#: counted methods: (counter name, module, class, method)
COUNTED = (
    ("puiseux.mul.calls", "puiseux", "PuiseuxSeries", "__mul__"),
    ("puiseux.inverse.calls", "puiseux", "PuiseuxSeries", "inverse"),
    ("coefficients.gauss_mul.calls", "coefficients", "GaussianRational",
     "__mul__"),
)

Span = List  # [name, parent index or -1, start, end]


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.sources: set = set()
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------
    def span(self, name: str, fn: Callable, enter: Optional[Callable] = None,
             leave: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span; ``enter``/``leave`` update counters."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = enter(args) if enter else None
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = clock()
                stack.pop()
                if leave:
                    leave(state, args, None, exc)
                raise
            rec[3] = clock()
            stack.pop()
            if leave:
                leave(state, args, result, None)
            return result
        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------
    @staticmethod
    def _modules() -> Iterable:
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE
                                      or n.startswith(PACKAGE + "."))]

    def rebind(self, original: object, replacement: object) -> int:
        """Point every module binding of ``original`` at ``replacement``."""
        n = 0
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))
                    n += 1
        return n

    def install(self) -> None:
        def module(name):
            return sys.modules[f"{PACKAGE}.{name}"]

        hooks = _hooks(self, module("frames").canonicalize,
                       module("errors").AdvanceNotTerminating)
        for mod, fn in SPANNED:
            name = f"{mod}.{fn}"
            original = getattr(module(mod), fn)
            enter, leave = hooks.get(name, (None, None))
            if not self.rebind(original,
                               self.span(name, original, enter, leave)):
                raise RuntimeError(f"{name} is bound nowhere")
        for name, mod, cls_name, attr in COUNTED:
            cls = getattr(module(mod), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.count(name, original))
            self._undo.append((cls, attr, original))
        max_error = module("verify")._max_error
        self.rebind(max_error, _points_counter(self, max_error))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def export(self) -> Dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "distinct_sources": len(self.sources)}


def _hooks(tracer: Tracer, canonicalize: Callable,
           not_terminating: type) -> Dict[str, Tuple]:
    counters, sources = tracer.counters, tracer.sources

    def advance_enter(args):
        counters["frames.advance.calls"] += 1

    def advance_leave(state, args, step, exc):
        if exc is None:
            counters["frames.corrections"] += step.n_corrections
            sources.add(str(step.source))
        else:
            sources.add(str(canonicalize(args[1])))

    def find_enter(args):
        return counters["frames.advance.calls"]

    def find_leave(start, args, cycle, exc):
        if isinstance(exc, not_terminating):
            counters["frames.escape_advances"] += (
                counters["frames.advance.calls"] - start)

    return {"frames.advance": (advance_enter, advance_leave),
            "frames.find_cycle": (find_enter, find_leave)}


def _points_counter(tracer: Tracer, fn: Callable) -> Callable:
    """Grid points per orbit evaluation: each s value, and the control."""
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(fam, cycle, lim_hom, points, *args, **kwargs):
        counters["verify.points_evaluated"] += len(points)
        return fn(fam, cycle, lim_hom, points, *args, **kwargs)
    return wrapper


# -- aggregation ---------------------------------------------------------

def span_self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so a span's children never overlap.
    """
    selfs = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def self_times(spans: List[Span], selfs: List[float] = None
               ) -> Dict[str, Dict[str, float]]:
    """Calls, total (outermost spans only) and self time per span name."""
    if selfs is None:
        selfs = span_self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for (name, parent, start, end), own in zip(spans, selfs):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own
        if parent < 0 or spans[parent][0] != name:
            agg["total_s"] += end - start
    return out


def advance_subtree(spans: List[Span]) -> List[bool]:
    """Whether each span is a frames.advance span or runs inside one."""
    under: List[bool] = []
    for name, parent, _, _ in spans:
        under.append(name == "frames.advance"
                     or (parent >= 0 and under[parent]))
    return under


def layer_metrics(spans: List[Span], counters: Dict[str, int],
                  distinct_sources: int, pass_s: float, untraced_s: float,
                  traced_s: float) -> Dict[str, float]:
    """Every per-layer metric of the benchmark, by name.

    ``spans`` and ``counters`` come from one traced pass that took
    ``pass_s``; ``untraced_s`` and ``traced_s`` are the typical wall times
    of in-process passes without and with the tracer.
    """
    selfs = span_self_times(spans)
    agg = self_times(spans, selfs)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    m: Dict[str, float] = {}
    for mod, fn in SPANNED:
        name = f"{mod}.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name, _, _, _ in COUNTED:
        m[name] = counters.get(name, 0)
    m["cli.precision_retries"] = (calls("famparse.parse_family")
                                  - calls("cli.main"))
    advances = calls("frames.advance")
    m["frames.advance.distinct_sources"] = distinct_sources
    m["frames.advance.distinct_ratio"] = (distinct_sources / advances
                                          if advances else 0.0)
    under = advance_subtree(spans)
    layer = [i for i, sp in enumerate(spans)
             if sp[0].startswith(("frames.", "maps.", "cpoly."))]
    layer_self = sum(selfs[i] for i in layer)
    m["frames.advance.total_s"] = agg.get("frames.advance", {}).get(
        "total_s", 0.0)
    m["frames.advance.wall_share"] = m["frames.advance.total_s"] / pass_s
    m["frames.advance.subtree_share"] = (
        sum(selfs[i] for i in layer if under[i]) / layer_self
        if layer_self else 0.0)
    for key in ("frames.corrections", "frames.escape_advances",
                "verify.points_evaluated"):
        m[key] = counters.get(key, 0)
    roots = sum(end - start for _, parent, start, end in spans
                if parent < 0)
    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    m["trace.span_coverage"] = roots / pass_s
    return m
