"""Output checks for the benchmark's commands.

The expected values come from the families themselves, not from earlier
runs of the program: hand-derived limits, the degree ledger, the
z^(3^m (-2)^(q-m)) law of z^3 + t/z^2, Euler's phi for the seed count, and
for ``verify`` a high-precision orbit of the family text computed with
sympy and mpmath, without the package's parser, series or verifier.  Every
check takes the command and its parsed JSON payload and raises
:class:`CheckError` when the payload is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Dict, List, Sequence, Tuple

import mpmath
import sympy
from sympy.parsing.sympy_parser import parse_expr

from workloads import FAMILIES, Command

Z, T = sympy.symbols("z t")

#: approximate-coefficient results agree with exact ones to this
FLOAT_TOL = 1e-9
#: working precision of the reference orbits
REFERENCE_DPS = 100
#: grid points for the reference orbit, away from 0, 1 and infinity
REFERENCE_POINTS = (0.6 + 0.3j, -0.8 + 0.5j, 0.35 - 0.9j, 1.4 + 1.1j,
                    -1.2 - 0.7j)
#: the exponent where z^3 and t/z^2 balance in a frame (h, 0)
MCM_BALANCE = Fraction(1, 5)


class CheckError(Exception):
    """A payload that contradicts what the family says it must be."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- payload parsing -----------------------------------------------------

def sym(text: str) -> sympy.Expr:
    """A family, limit or center in the CLI's syntax, as a sympy expression."""
    return parse_expr(text.replace("^", "**"),
                      local_dict={"z": Z, "t": T, "i": sympy.I})


def coefficient(text: str) -> sympy.Expr:
    """One printed coefficient: ``a``, ``bi``, ``a+bi`` or ``a-bi``."""
    s = text.strip()
    if not s.endswith("i"):
        return sympy.Rational(Fraction(s))
    body = s[:-1]
    cut = max((k for k, ch in enumerate(body)
               if ch in "+-" and k > 0 and body[k - 1] not in "eE"),
              default=0)
    re_part, im_part = body[:cut], body[cut:]
    im = {"": 1, "+": 1, "-": -1}.get(im_part)
    im = sympy.Rational(Fraction(im_part)) if im is None else im
    re = sympy.Rational(Fraction(re_part)) if re_part else 0
    return re + sympy.I * im


def _trim(coeffs: Sequence[str]) -> List[sympy.Expr]:
    cs = [coefficient(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def payload_map(lim: Dict) -> Tuple[sympy.Expr, sympy.Expr]:
    """(numerator, denominator) of a payload limit, from its coefficients."""
    num, den = _trim(lim["num"]), _trim(lim["den"])
    return (sum(c * Z ** k for k, c in enumerate(num)),
            sum(c * Z ** k for k, c in enumerate(den)))


def text_map(text: str) -> Tuple[sympy.Expr, sympy.Expr]:
    return sympy.fraction(sympy.together(sym(text)))


def map_degree(lim: Dict) -> int:
    """Degree of a reduced map recomputed from its coefficient lists."""
    num, den = _trim(lim["num"]), _trim(lim["den"])
    return max(len(num) - 1, len(den) - 1, 0)


def same_map(a: Tuple, b: Tuple, tol: float = 0.0) -> bool:
    """Whether num_a/den_a = num_b/den_b, within ``tol`` when approximate."""
    diff = sympy.Poly(sympy.expand(a[0] * b[1] - b[0] * a[1]), Z)
    if tol == 0.0:
        return diff.is_zero
    scale = max([abs(complex(c)) for c in
                 sympy.Poly(sympy.expand(a[0] * b[1]), Z).all_coeffs()]
                + [1.0])
    return all(abs(complex(c)) <= tol * scale for c in diff.all_coeffs())


def monomial(e: int) -> Tuple[sympy.Expr, sympy.Expr]:
    return (Z ** e, sympy.Integer(1)) if e >= 0 \
        else (sympy.Integer(1), Z ** -e)


def frame_hs(cycle: Dict) -> Tuple[str, ...]:
    return tuple(f["h"] for f in cycle["frames"])


def seed_count(max_denominator: int) -> int:
    """Seeds p/q in (0, 1) in lowest terms with q <= D: the sum of phi(q)."""
    return sum(1 for q in range(2, max_denominator + 1)
               for p in range(1, q) if gcd(p, q) == 1)


def _is_exact(cmd: Command) -> bool:
    text, subst, _ = FAMILIES[cmd.family]
    return "." not in text + (subst or "")


def _tol(cmd: Command) -> float:
    return 0.0 if _is_exact(cmd) else FLOAT_TOL


# -- shared cycle checks -------------------------------------------------

def check_ledger(lim: Dict, d: int, what: str) -> None:
    """rdeg + deg(holes) + inf_mult = d, with rdeg recomputed."""
    rdeg = map_degree(lim)
    require(rdeg == lim["degree"],
            f"{what}: stated degree {lim['degree']}, coefficients give {rdeg}")
    hdeg = sympy.Poly(sym(lim["holes"]), Z).degree()
    inf_mult = lim["inf_mult"]
    require(hdeg + inf_mult == lim["holes_degree"],
            f"{what}: holes {lim['holes']} and {inf_mult} at infinity, "
            f"stated hole degree {lim['holes_degree']}")
    require(rdeg + hdeg + inf_mult == d,
            f"{what}: ledger {rdeg} + {hdeg} + {inf_mult} != {d}")


def check_cycle(cyc: Dict, d: int, what: str) -> None:
    """Steps chain around the frames, and the degree is their product."""
    q = cyc["period"]
    require(q == len(cyc["frames"]) == len(cyc["steps"]) and q >= 1,
            f"{what}: period {q} with {len(cyc['frames'])} frames and "
            f"{len(cyc['steps'])} steps")
    for k, st in enumerate(cyc["steps"]):
        nxt = cyc["frames"][(k + 1) % q]
        require(st["source"] == cyc["frames"][k] and st["target"] == nxt,
                f"{what}: step {k} goes {st['source']} -> {st['target']}, "
                f"not around the cycle")
        check_ledger(st["limit"], d, f"{what} step {k}")
    product = 1
    for st in cyc["steps"]:
        product *= map_degree(st["limit"])
    deg = map_degree(cyc["limit"])
    require(deg == product == cyc["degree"],
            f"{what}: limit degree {deg} (stated {cyc['degree']}) is not "
            f"the product {product} of the step degrees")


def check_limit(lim: Dict, expected: str, tol: float, what: str) -> None:
    require(same_map(payload_map(lim), text_map(expected), tol),
            f"{what}: limit {lim['map']}, expected {expected}")


def _assertions_pass(doc: Dict, what: str) -> None:
    failed = [a["name"] for a in doc["assertions"] if not a["passed"]]
    require(not failed, f"{what}: assertions failed: {failed}")


def _mcm_law(cyc: Dict, tol: float, what: str) -> None:
    """z^3 in frames below 1/5, 1/z^2 above: the limit is z^(3^m (-2)^(q-m))."""
    hs = [Fraction(h) for h in frame_hs(cyc)]
    require(MCM_BALANCE not in hs, f"{what}: cycle through h = 1/5")
    m = sum(1 for h in hs if h < MCM_BALANCE)
    e = 3 ** m * (-2) ** (len(hs) - m)
    require(same_map(payload_map(cyc["limit"]), monomial(e), tol),
            f"{what}: frames {frame_hs(cyc)} give limit {cyc['limit']['map']}"
            f", the law predicts z^{e}")


def _cycle_by_frames(doc: Dict, hs: Tuple[str, ...], what: str) -> Dict:
    found = [c for c in doc["cycles"] if frame_hs(c) == hs]
    require(len(found) == 1, f"{what}: no cycle through frames {hs}")
    return found[0]


# -- one check per command kind ------------------------------------------

def check_scan(cmd: Command, doc: Dict) -> None:
    what = cmd.label
    D = cmd.facts["max_denominator"]
    d = cmd.facts["degree"]
    scan = doc["scan"]
    require(scan["seeds_scanned"] == seed_count(D),
            f"{what}: {scan['seeds_scanned']} seeds scanned, "
            f"expected {seed_count(D)}")
    require(doc["cycles"], f"{what}: no cycles")
    tol = _tol(cmd)
    for k, cyc in enumerate(doc["cycles"]):
        check_cycle(cyc, d, f"{what} cycle {k}")
        if cmd.family.startswith("mcm"):
            _mcm_law(cyc, tol, f"{what} cycle {k}")
    if cmd.family.startswith("mcm") and D >= 7:
        check_limit(_cycle_by_frames(doc, ("1/7", "3/7"), what)["limit"],
                    "1/z^6", tol, f"{what} {{1/7, 3/7}}")
    if cmd.family == "lattes" and D >= 5:
        check_limit(_cycle_by_frames(doc, ("2/5", "4/5"), what)["limit"],
                    "-4/z^4", tol, f"{what} {{2/5, 4/5}}")


def check_report(cmd: Command, doc: Dict) -> None:
    check_scan(cmd, doc)
    d = cmd.facts["degree"]
    cls = doc["classification"]
    require(len(cls) == len(doc["cycles"]),
            f"{cmd.label}: {len(cls)} classifications for "
            f"{len(doc['cycles'])} cycles")
    non_pcf = sum(1 for c in cls if c["pcf"]["status"].startswith("NotPCF"))
    require(non_pcf <= 2 * d - 2,
            f"{cmd.label}: {non_pcf} non-PCF limits exceed 2d - 2 = "
            f"{2 * d - 2}")
    require("dichotomy" in doc, f"{cmd.label}: no dichotomy report")


def check_verify(cmd: Command, doc: Dict) -> None:
    what = cmd.label
    rep = doc["verification"][0]
    errs = rep["max_errors"]
    require(rep["ok"] and rep["passed"], f"{what}: report not ok")
    require(all(a >= b for a, b in zip(errs, errs[1:])),
            f"{what}: errors {errs} increase as s shrinks")
    require(errs[-1] <= rep["tolerance"],
            f"{what}: error {errs[-1]} above tolerance {rep['tolerance']}")
    require(rep["control_rejected"]
            and rep["control_error"] > rep["tolerance"],
            f"{what}: shifted control not rejected")
    cyc = doc["cycles"][0]
    check_cycle(cyc, cmd.facts["degree"], what)
    check_limit(cyc["limit"], cmd.facts["limit"], _tol(cmd), what)
    worst = reference_error(cmd, doc)
    require(worst <= rep["tolerance"],
            f"{what}: reference orbit is {worst:.3g} from the claimed "
            f"limit, above tolerance {rep['tolerance']}")


def reference_error(cmd: Command, doc: Dict) -> float:
    """Worst chordal distance of t^-h (f^q(c + t^h w) - c) to the limits.

    The family text and the cycle's base frame are evaluated directly with
    mpmath at ``REFERENCE_DPS`` digits, at the smallest sampled s with
    t = s^ramification, and compared with both the payload's limit and the
    hand-derived one.
    """
    text, subst, _ = FAMILIES[cmd.family]
    fam = sym(text)
    if subst:
        fam = fam.subs(T, sym(subst))
    f = sympy.lambdify((Z, T), fam, "mpmath")
    cyc = doc["cycles"][0]
    base = cyc["frames"][0]
    h = Fraction(base["h"])
    center = sympy.lambdify(T, sym(base["center"].split(" + O(")[0]),
                            "mpmath")
    num, den = payload_map(cyc["limit"])
    limits = [sympy.lambdify(Z, num / den, "mpmath"),
              sympy.lambdify(Z, sym(cmd.facts["limit"]), "mpmath")]
    rep = doc["verification"][0]
    worst = 0.0
    with mpmath.workdps(REFERENCE_DPS):
        s = mpmath.mpf(repr(min(rep["s_values"])))
        ram = rep["ramification"]
        t = s ** ram
        th = s ** (mpmath.mpf(h.numerator * ram) / h.denominator)
        c = mpmath.mpmathify(center(t))
        for w in REFERENCE_POINTS:
            x = c + th * mpmath.mpc(w)
            for _ in range(cyc["period"]):
                x = f(x, t)
            y = (x - c) / th
            for g in limits:
                worst = max(worst, float(_chordal(y, g(mpmath.mpc(w)))))
    return worst


def _chordal(a, b):
    return abs(a - b) / mpmath.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))


def check_reduce(cmd: Command, doc: Dict) -> None:
    require(doc["family"]["degree"] == cmd.facts["degree"],
            f"{cmd.label}: family degree {doc['family']['degree']}, "
            f"expected {cmd.facts['degree']}")
    check_ledger(doc["reduced"], cmd.facts["degree"], cmd.label)


def check_advance(cmd: Command, doc: Dict) -> None:
    what = cmd.label
    st = doc["step"]
    frame = cmd.argv[cmd.argv.index("--frame") + 1]
    require(st["source"]["h"] == frame,
            f"{what}: advanced from {st['source']}, not from {frame}")
    check_ledger(st["limit"], cmd.facts["degree"], what)
    require(map_degree(st["limit"]) >= 1, f"{what}: constant step limit")
    if cmd.family == "mcm":
        h = Fraction(frame)
        below = h < MCM_BALANCE
        target = 3 * h if below else 1 - 2 * h
        require(Fraction(st["target"]["h"]) == target,
                f"{what}: target {st['target']['h']}, expected {target}")
        check_limit(st["limit"], "z^3" if below else "1/z^2", 0.0, what)


def check_orbit(cmd: Command, doc: Dict) -> None:
    what = cmd.label
    _assertions_pass(doc, what)
    cyc = doc["cycles"][0]
    require(cyc["period"] == cmd.facts["period"],
            f"{what}: period {cyc['period']}, expected {cmd.facts['period']}")
    check_cycle(cyc, cmd.facts["degree"], what)
    check_limit(cyc["limit"], cmd.facts["limit"], _tol(cmd), what)
    names = {a["name"] for a in doc["assertions"]}
    if "--crosscheck" in cmd.argv:
        require("cycle_limit_crosscheck" in names, f"{what}: no crosscheck")
    ell_max = cmd.facts.get("period_max")
    if ell_max:
        degrees = {int(k): v for k, v in doc["period_set"]["degrees"].items()}
        require(sorted(degrees) == list(range(1, ell_max + 1)),
                f"{what}: iterate degrees for {sorted(degrees)}")
        heavy = [ell for ell, dg in sorted(degrees.items()) if dg >= 2]
        q = cyc["period"]
        require(heavy == list(range(q, ell_max + 1, q)),
                f"{what}: degree >= 2 at {heavy}, not at the multiples of {q}")


def make_escape_check(errors_module) -> Callable[[Command, Dict], None]:
    """The escape must end in AdvanceNotTerminating or a subclass of it."""
    base = errors_module.AdvanceNotTerminating

    def check_escape(cmd: Command, doc: Dict) -> None:
        err = doc.get("error")
        require(err is not None, f"{cmd.label}: no error payload")
        cls = getattr(errors_module, err["type"], None)
        require(isinstance(cls, type) and issubclass(cls, base),
                f"{cmd.label}: error {err['type']} is not an "
                f"AdvanceNotTerminating")
    return check_escape


def check_pair(exact: Dict, approx: Dict, what: str) -> None:
    """Float and exact spellings: same periods, frame exponents and limits."""
    a = {frame_hs(c): c for c in exact["cycles"]}
    b = {frame_hs(c): c for c in approx["cycles"]}
    require(set(a) == set(b),
            f"{what}: cycles {sorted(a)} exact, {sorted(b)} float")
    for hs, c in a.items():
        require(c["period"] == b[hs]["period"],
                f"{what}: period differs at {hs}")
        require(same_map(payload_map(c["limit"]),
                         payload_map(b[hs]["limit"]), FLOAT_TOL),
                f"{what}: limit differs at {hs}: {c['limit']['map']} vs "
                f"{b[hs]['limit']['map']}")


def checkers(errors_module) -> Dict[str, Callable[[Command, Dict], None]]:
    return {
        "scan": check_scan,
        "report": check_report,
        "verify": check_verify,
        "reduce": check_reduce,
        "advance": check_advance,
        "orbit": check_orbit,
        "escape": make_escape_check(errors_module),
    }
