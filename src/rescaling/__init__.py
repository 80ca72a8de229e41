"""Rescaling limits of one-parameter families of rational maps.

A family f_t(z) = P(z, t) / Q(z, t) with Puiseux series coefficients is
viewed through moving affine frames M(z) = c(t) + t^h z.  Reducing the
conjugated family at t = 0 gives a limit map per frame; advancing frames
until the class orbit repeats produces rescaling cycles, whose composed
limits are classified (multiple fixed points, polynomial-like ends,
postcritical finiteness) and numerically spot-checked at small parameters.

Importing the package loads none of its modules: each public name below
is imported from its home module on first access (PEP 562), so a process
compiles only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: home module of each public name
_EXPORTS = {
    "coefficients": ("GaussianRational",),
    "errors": ("AdvanceNotTerminating", "AssertionFailed",
               "DegenerateFamily", "DegreeCapExceeded", "GridDegenerate",
               "ParseError", "PrecisionExhausted", "RescalingError"),
    "puiseux": ("PuiseuxSeries",),
    "maps": ("AffineFrame", "MapL", "ReducedMap", "compose_families",
             "compose_reduced", "conjugate", "gauss_normalize",
             "iterate_family", "precompose_affine", "reduce_family",
             "resultant_series", "resultant_valuation"),
    "frames": ("FrameClass", "PeriodSetReport", "RescalingCycle",
               "ScanResult", "StepResult", "advance", "canonicalize",
               "cycle_limit_crosscheck", "escape_bound", "find_cycle",
               "frame_size", "monomial_seed_scan", "period_set_check"),
    "classify": ("DichotomyReport", "LimitClassification", "PcfReport",
                 "classify_limit", "multiple_fixed_point", "pcf_check",
                 "polynomial_like", "quadratic_dichotomy_report"),
    "verify": ("VerificationReport", "sphere_grid", "verify_rescaling"),
    "famparse": ("parse_family", "parse_frame"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
