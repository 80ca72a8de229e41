"""Command line interface: JSON payloads and exit codes."""

import importlib
import json
import subprocess
import sys
import time
from math import inf
from pathlib import Path

import pytest

import rescaling
import rescaling.frames as frames_mod
import rescaling.maps as maps_mod
from rescaling import cli, errors, famparse
from rescaling.config import CENTER_HEIGHT_CAP, ITERATE_DEGREE_CAP
from .support import CUBIC, LATTES, MCMULLEN, QUAD0, QUAD1


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_reduce_plain(capsys):
    code, doc = run(capsys, "reduce", MCMULLEN)
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["family"]["degree"] == 5
    r = doc["reduced"]
    assert r["map"] == "z^3"
    assert r["holes"] == "z^2"
    assert r["degree"] + r["holes_degree"] == 5


def test_reduce_prints_negative_imaginary_part(capsys):
    code, doc = run(capsys, "reduce", "z^2 + 3 - 2*i + t")
    assert code == 0
    assert doc["reduced"]["map"] == "z^2 + (3-2*i)"
    assert doc["reduced"]["num"] == ["3-2*i", "0", "1"]


def test_reduce_in_frame(capsys):
    # reduce --frame precomposes only; without the inverse frame on the
    # outside, everything the zoom contracts collapses to the constant 0,
    # and the degree ledger moves entirely into the holes
    code, doc = run(capsys, "reduce", MCMULLEN, "--frame", "1/3")
    assert code == 0
    assert doc["frames"] == [{"h": "1/3", "center": "0"}]
    r = doc["reduced"]
    assert r["map"] == "0"
    assert r["holes"] == "z^2"
    assert r["degree"] + r["holes_degree"] == 5


def test_advance(capsys):
    code, doc = run(capsys, "advance", MCMULLEN, "--frame", "1/3")
    assert code == 0
    st = doc["step"]
    assert st["source"]["h"] == "1/3" and st["target"]["h"] == "1/3"
    assert st["limit"]["map"] == "1/z^2"
    # no finite holes: the empty product renders as 1
    assert st["limit"]["holes"] == "1"
    assert st["corrections"] == 1


def test_orbit_with_crosscheck(capsys):
    code, doc = run(capsys, "orbit", MCMULLEN, "--frame", "1/7",
                    "--crosscheck")
    assert code == 0
    cyc = doc["cycles"][0]
    assert cyc["period"] == 2
    assert cyc["limit"]["map"] == "1/z^6"
    names = {a["name"]: a["passed"] for a in doc["assertions"]}
    assert names["cycle_limit_crosscheck"] is True


def test_orbit_with_period_set(capsys):
    code, doc = run(capsys, "orbit", QUAD0, "--frame", "1",
                    "--period-max", "4")
    assert code == 0
    ps = doc["period_set"]
    assert ps["degrees"] == {"1": 0, "2": 2, "3": 0, "4": 4}
    assert ps["law_holds"] is True and ps["period"] == 2


def test_scan(capsys):
    code, doc = run(capsys, "scan", LATTES, "--max-denominator", "5")
    assert code == 0
    assert doc["scan"]["seeds_scanned"] == 9
    assert len(doc["cycles"]) == 3
    assert doc["scan"]["escaped"] == []
    assert doc["scan"]["failed"] == {}


def test_verify(capsys):
    code, doc = run(capsys, "verify", MCMULLEN, "--frame", "1/3",
                    "--s-grid", "1e-2,1e-3", "--points", "120")
    assert code == 0
    rep = doc["verification"][0]
    assert rep["ok"] is True
    assert len(rep["max_errors"]) == 2
    names = {a["name"] for a in doc["assertions"]}
    assert {"grid_comparison", "negative_control_rejected"} <= names


@pytest.mark.parametrize("argv", [
    ("verify", "--points", "0"),
    ("verify", "--points", "-5"),
    ("orbit", "--period-max", "-2"),
], ids=["points_zero", "points_negative", "period_max_negative"])
def test_empty_check_range_exits_2(capsys, argv):
    # a grid of no points or a period range of no iterates checks nothing,
    # so it must not report a passing assertion
    cmd, *opts = argv
    code, doc = run(capsys, cmd, QUAD0, "--frame", "1", *opts)
    assert code == 2
    assert doc["error"]["type"] == "ValueError"


@pytest.mark.parametrize("grid", ["1e-4,-0.3", "-1e-3", "0", "nan", "inf"])
def test_s_grid_magnitude_must_be_positive_and_finite(capsys, grid):
    code, doc = run(capsys, "verify", QUAD0, "--frame", "1", "--points", "60",
                    f"--s-grid={grid}")
    assert code == 2
    assert doc["error"]["type"] == "ValueError"


def test_s_grid_order_does_not_matter(capsys):
    argv = ("verify", QUAD0, "--frame", "1", "--points", "60")
    code, doc = run(capsys, *argv, "--s-grid=1e-4,0.3")
    assert code == 0
    assert doc["verification"][0]["s_values"] == [0.3, 1e-4]
    assert run(capsys, *argv, "--s-grid=0.3,1e-4") == (code, doc)


# the exit code each package error ends in; a class added to errors must be
# added here
EXIT_CODES = {
    "PrecisionExhausted": 3, "DegenerateFamily": 3,
    "AdvanceNotTerminating": 3, "DegreeCapExceeded": 3, "GridDegenerate": 3,
    "AssertionFailed": 2, "ParseError": 2,
}


def test_exit_code_table_covers_every_error_class():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == set(EXIT_CODES) | {"RescalingError"}


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_error_class_exit_code(capsys, monkeypatch, name):
    def fail(*args, **kwargs):
        raise getattr(errors, name)("boom")

    monkeypatch.setattr(famparse, "parse_family", fail)
    code, doc = run(capsys, "reduce", "z^2")
    assert code == EXIT_CODES[name]
    assert doc["error"] == {"type": name, "message": "boom"}


def test_new_error_class_takes_the_default_exit_code(capsys, monkeypatch):
    class Unlisted(errors.RescalingError):
        pass

    def fail(*args, **kwargs):
        raise Unlisted("boom")

    monkeypatch.setattr(famparse, "parse_family", fail)
    assert run(capsys, "reduce", "z^2") == (
        3, {"schema_version": 1,
            "error": {"type": "Unlisted", "message": "boom"}})


def test_period_max_zero_is_off(capsys):
    code, doc = run(capsys, "orbit", QUAD0, "--frame", "1",
                    "--period-max", "0")
    assert code == 0
    assert "period_set" not in doc


def test_report_with_classification(capsys):
    code, doc = run(capsys, "report", LATTES, "--max-denominator", "5")
    assert code == 0
    statuses = {c["pcf"]["status"] for c in doc["classification"]}
    assert statuses == {"PCF_Certified"}


def test_report_dichotomy_without_cycles(capsys):
    # quadratic cycles sit at integer zooms, outside the fractional scan
    code, doc = run(capsys, "report", QUAD0, "--max-denominator", "3",
                    "--dichotomy")
    assert code == 0
    assert doc["dichotomy"]["case"] is None
    assert doc["dichotomy"]["periods"] == []


def test_parse_error_exits_2(capsys):
    code, doc = run(capsys, "reduce", "z^2 +")
    assert code == 2
    assert doc["error"]["type"] == "ParseError"


@pytest.mark.parametrize("nest", [
    lambda x: "(" * 3000 + x + ")" * 3000,  # the parser recurses per level
    lambda x: x + "*" + "-" * 3000 + x,  # and per unary minus
], ids=["parentheses", "unary_minus"])
def test_deep_nesting_is_a_parse_error(capsys, nest):
    for argv in (("reduce", nest("z")),
                 ("advance", "z^2", "--frame", "1, " + nest("t"))):
        code, doc = run(capsys, *argv)
        assert code == 2
        assert doc["error"] == {"type": "ParseError",
                                "message": "expression nested too deeply"}


def test_long_flat_sum_parses(capsys):
    # a sum is read in a loop, so its length is not a nesting depth
    code, doc = run(capsys, "reduce", "z" + "+z" * 3000)
    assert code == 0
    assert doc["reduced"]["map"] == "3001*z"
    code, doc = run(capsys, "advance", "z^2", "--frame", "2, t" + "+t" * 3000)
    assert code == 0
    assert doc["step"]["source"] == {"h": "2", "center": "3001*t"}
    assert doc["frames"] == run(capsys, "advance", "z^2", "--frame",
                                "2, 3001*t")[1]["frames"]


@pytest.mark.parametrize("family,degree", [
    ("z^99999", 99999),  # expanding this would run past any timeout
    ("(z^2+t)^40", 80),  # an intermediate power
    ("z^3 + t*z^-65", 65),  # a negative power
    ("(z+1)^64*(z+1)", 65),  # the family itself
])
def test_degree_past_cap_is_a_parse_error(capsys, family, degree):
    start = time.monotonic()
    code, doc = run(capsys, "reduce", family)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert doc["error"]["type"] == "ParseError"
    assert doc["error"]["details"] == {"degree": str(degree),
                                       "cap": str(ITERATE_DEGREE_CAP)}


@pytest.mark.parametrize("family, subst", [
    ("z^2 + (1/(t-t))^0", None),
    ("z^2 + (z^99999)^0", None),
    ("z^2 + ((z+1)^70/(1-1))^(0/3)", None),
    ("z^2 + (t^(1/2))^0", "-1+t"),
])
def test_base_raised_to_zero_is_a_parse_error(capsys, family, subst):
    argv = ("reduce", family) + ((f"--subst={subst}",) if subst else ())
    code, doc = run(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "ParseError"


@pytest.mark.parametrize("family", [
    "(z^2+t)/(z^2+t)",
    "(z+1)*(z+t)/((z+t)*(z-1))",
    "(z^2+1.0*t)/(z^2+t)",
])
def test_identically_degenerate_family_exits_3(capsys, family):
    code, doc = run(capsys, "reduce", family)
    assert code == 3
    assert doc["error"]["type"] == "DegenerateFamily"


@pytest.mark.parametrize("argv", [
    ("reduce", "(z+t)/(z+t)"),
    ("orbit", "(z+t)*(z-1)/((z+t)*(z+2))", "--frame", "1"),
], ids=["reduce", "orbit"])
def test_degenerate_family_under_substitution_exits_3(capsys, argv):
    # t -> t/(1+t) is applied exactly, so the shared factor z + t still
    # makes the resultant vanish
    code, doc = run(capsys, *argv, "--subst", "t/(1+t)")
    assert code == 3
    assert doc["error"]["type"] == "DegenerateFamily"


def test_closed_stdout_ends_without_traceback():
    src = str(Path(rescaling.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "rescaling.cli", "reduce", "(z+1)^64"],
        cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the child has written anything
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == ""


def test_escape_exits_3(capsys):
    code, doc = run(capsys, "orbit", CUBIC, "--frame", "2",
                    "--max-steps", "16")
    assert code == 3
    assert doc["error"]["type"] == "AdvanceNotTerminating"


def test_escape_payload_carries_certificate(capsys):
    code, doc = run(capsys, "orbit", CUBIC, "--frame", "2")
    assert code == 3
    err = doc["error"]
    assert err["type"] == "AdvanceNotTerminating"
    assert err["details"] == {"frame": "(-1, 0)", "step": "6", "size": "-1",
                              "bound": "0", "drift": "m -> 3m - 1"}


def test_deeply_ramified_seed_escapes(capsys):
    # no frame of the orbit ramifies beyond the seed's 1/1000, so the escape
    # certificate, not a denominator cap, ends it
    code, doc = run(capsys, "orbit", MCMULLEN, "--frame", "1/1000")
    assert code == 3
    assert doc["error"]["type"] == "AdvanceNotTerminating"
    assert doc["error"]["details"] == {
        "frame": "(-7/250, 0)", "step": "7", "size": "-7/250", "bound": "0",
        "drift": "m -> 3m"}


def test_deeply_ramified_seed_closes_a_cycle(capsys):
    code, doc = run(capsys, "orbit", QUAD0, "--frame", "1/1000")
    assert code == 0
    (cyc,) = doc["cycles"]
    assert cyc["period"] == 2
    assert [(fr["h"], fr["center"]) for fr in cyc["frames"]] == [
        ("1/1000", "0"), ("-1/1000", "0")]


@pytest.mark.parametrize("family, step, height", [
    ("z^2 + 1 + t", "14", "4827"),
    ("(z+1)^4/(z^4+2+t)", "7", "5393"),
    ("(z+1)^10/(z^10+2+t)", "5", "14376"),
])
def test_center_height_guard_ends_wandering_orbit(capsys, family, step,
                                                  height):
    # the residues of the centers run 0 -> 1 -> 2 -> 5 -> 26 -> ... under
    # z^2 + 1, so their height doubles at every advance
    start = time.monotonic()
    code, doc = run(capsys, "orbit", family, "--frame", "1")
    assert time.monotonic() - start < 5
    assert code == 3
    err = doc["error"]
    assert err["type"] == "AdvanceNotTerminating"
    details = err["details"]
    assert (details["step"], details["height"]) == (step, height)
    assert details["cap"] == str(CENTER_HEIGHT_CAP)
    assert details["frame"].startswith("(")


def test_orbit_converging_to_a_fixed_point_ends_at_its_step_cap(capsys):
    # the centers approach the attracting fixed point (1 - sqrt(1 - 4t))/2
    # of z^2 + t, one more correction per advance; advance's lemma bounds
    # each advance's corrections, so only the step cap ends the orbit
    code, doc = run(capsys, "orbit", "z^2 + t", "--frame", "1",
                    "--max-steps", "16")
    assert code == 3
    assert doc["error"] == {
        "type": "AdvanceNotTerminating",
        "message": "no frame class repeated within 16 advances from (1, 0)"}


def test_orbit_with_many_corrections_per_advance_ends_quickly(capsys):
    # every advance after the first makes 9 to 23 corrections, and none of
    # them computes a resultant
    start = time.monotonic()
    code, doc = run(capsys, "orbit",
                    "(-i*z^0 + t^2*z^1)/(1*z^0 + 3*t^(1/2)*z^2)", "--frame=2",
                    "--max-steps", "16")
    assert time.monotonic() - start < 1.2
    assert code == 3
    assert doc["error"] == {
        "type": "AdvanceNotTerminating",
        "message": "no frame class repeated within 16 advances from (2, 0)"}


def test_scan_of_wandering_family_ends_in_one_document(capsys):
    # the height guard stops the orbit from (1/2, 0); no escape is certified
    code, doc = run(capsys, "scan", "z^2 + 1 + t", "--max-denominator", "2")
    assert code == 0
    assert doc["scan"]["escaped"] == []
    assert list(doc["scan"]["failed"]) == ["1/2"]
    assert doc["scan"]["failed"]["1/2"].startswith(
        "AdvanceNotTerminating: advance 14 reached a frame center of height")


def test_scan_of_degree_ten_wandering_family_fails_its_seed(capsys):
    # this family's orbit and scan once ran past a minute in frame work on
    # degree-10 coefficients; the height guard now ends both at advance 5
    start = time.monotonic()
    code, doc = run(capsys, "scan", "(z+1)^10/(z^10+2+t)",
                    "--max-denominator", "2")
    assert time.monotonic() - start < 5
    assert code == 0
    assert doc["cycles"] == [] and doc["scan"]["escaped"] == []
    assert doc["scan"]["failed"] == {"1/2": (
        "AdvanceNotTerminating: advance 5 reached a frame center of height "
        f"14376 bits, past the cap of {CENTER_HEIGHT_CAP}")}


def test_report_and_scan_share_the_scan_object(capsys):
    # every quad0 seed 0 < h < 1 sits on a fixed frame with a Mobius limit
    _, rep = run(capsys, "report", QUAD0, "--max-denominator", "3")
    _, scn = run(capsys, "scan", QUAD0, "--max-denominator", "3")
    assert rep["scan"] == scn["scan"]
    assert [f["h"] for f in rep["scan"]["degree_one_bases"]] \
        == ["1/3", "1/2", "2/3"]


@pytest.mark.parametrize("argv", [
    ("reduce", "--frame", "1"),
    ("advance", "--frame", "1"),
    ("orbit", "--frame", "1"),
    ("verify", "--frame", "1", "--s-grid", "1e-2,1e-3", "--points", "60"),
])
def test_float_family_takes_frames(capsys, argv):
    code, doc = run(capsys, argv[0], QUAD0.replace("1+t^2", "1.0+t^2"),
                    *argv[1:])
    assert code == 0, doc.get("error")
    frames = doc["frames"] or doc["cycles"][0]["frames"]
    assert frames[0] == {"h": "1", "center": "0"}


def test_float_family_verifies_high_cancellation_frame(capsys):
    # at (3, 0) the frame cancels 12 and 16 digits at s = 1e-3 and 1e-4,
    # past double precision; the float spelling must still pass, with the
    # exact spelling's errors
    code, doc = run(capsys, "verify", QUAD0.replace("1+t^2", "1.0+t^2"),
                    "--frame", "3")
    assert code == 0, doc.get("error")
    rep = doc["verification"][0]
    assert rep["ok"] is True
    _, exact = run(capsys, "verify", QUAD0, "--frame", "3")
    want = exact["verification"][0]["max_errors"]
    assert rep["max_errors"] == pytest.approx(want, rel=1e-6)


def test_cli_import_loads_no_numeric_stack():
    src = str(Path(rescaling.__file__).resolve().parents[1])
    probe = ("import sys, rescaling.cli; "
             "print(sorted({'mpmath', 'sympy', 'dataclasses', 'inspect'} "
             "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


LIBRARY = ("cpoly", "classify", "famparse", "frames", "maps", "verify")


def _probe(code, *argv):
    src = str(Path(rescaling.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=src,
                          check=True, capture_output=True, text=True).stdout


def test_cli_import_registers_every_library_module():
    # bench/tracing.py's Tracer.install() reads these from sys.modules
    # right after importing the CLI, before any command has run
    probe = ("import sys, rescaling.cli\n"
             "print(all(f'rescaling.{m}' in sys.modules for m in "
             "sys.argv[1:]))")
    assert _probe(probe, *LIBRARY).split() == ["True"]


@pytest.mark.parametrize("argv, unloaded", [
    (["reduce", QUAD0], ["classify", "frames", "verify"]),
    (["verify", QUAD0, "--frame", "1"], ["classify"]),
], ids=["reduce", "verify"])
def test_a_command_runs_only_the_modules_it_calls(argv, unloaded):
    # type() does not trigger a lazy load; a module that has run is a
    # plain module again
    probe = ("import sys, types, contextlib, io, rescaling.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = rescaling.cli.main(sys.argv[1:])\n"
             "print(code, sorted(m for m in %r if type(sys.modules["
             "f'rescaling.{m}']) is not types.ModuleType))" % (LIBRARY,))
    assert _probe(probe, *argv).strip() == f"0 {sorted(unloaded)}"


def test_lazy_module_is_an_attribute_of_the_package():
    probe = ("import rescaling.cli\n"
             "import rescaling.frames\n"
             "print(rescaling.frames.advance.__name__)")
    assert _probe(probe).split() == ["advance"]


@pytest.mark.parametrize("name", rescaling.__all__)
def test_package_name_is_its_home_module_object(name):
    obj = getattr(rescaling, name)
    assert obj.__module__.startswith("rescaling.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_package_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rescaling.no_such_name
    assert set(rescaling.__all__) <= set(dir(rescaling))


@pytest.mark.parametrize("family, printed", [
    ("(z^2 - i)/z", "(z^2 - i)/z"),
    ("(z^2 - i*z + 1)/z", "(z^2 - i*z + 1)/z"),
    # a non-unit imaginary part prints with its product sign
    ("(z^2 - 2*i*z + 1)/z", "(z^2 - 2*i*z + 1)/z"),
    ("z^2 - 3*i/2", "z^2 - 3/2*i"),
    ("z^2 + 3 - 2*i", "z^2 + (3-2*i)"),
])
def test_printed_map_parses_back_to_the_same_map(capsys, family, printed):
    _, doc = run(capsys, "reduce", family)
    assert doc["reduced"]["map"] == printed
    _, again = run(capsys, "reduce", printed)
    assert again["reduced"] == doc["reduced"]


def test_printed_center_parses_back_as_a_frame(capsys):
    _, doc = run(capsys, "reduce", "z^2", "--frame", "1, 2/5+2*i - 3/5*i*t")
    center = doc["frames"][0]["center"]
    assert center == "(2/5+2*i) + (-3/5*i)*t"
    _, again = run(capsys, "reduce", "z^2", "--frame", f"1, {center}")
    assert again["frames"] == doc["frames"]


@pytest.mark.parametrize("argv", [
    (QUAD0, "--frame", "1"),
    (CUBIC, "--frame", "3", "--points", "40"),
    (MCMULLEN, "--frame", "1/7", "--points", "6000"),
    (LATTES, "--frame", "2/5", "--points", "6000"),
    ("z^2*(z^2 - 2 + t)/(z^2 - 2)", "--frame", "0", "--points", "200"),
], ids=["quad0", "cubic", "mcm", "lattes", "irrational_hole"])
def test_verify_loads_no_numpy(argv):
    # verify loads no module from outside the standard library: its hole
    # and preimage roots come from cpoly's exact splitter and Aberth
    # iteration, cubic (3) cancels up to 20 digits, which its orbits carry
    # on ints, and the 6000-point float grids run on Python complex alone
    src = str(Path(rescaling.__file__).resolve().parents[1])
    probe = ("import sys, contextlib, io\n"
             "before = set(sys.modules)\n"
             "import rescaling.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = rescaling.cli.main(['verify'] + sys.argv[1:])\n"
             "print(code, 'mpmath' in sys.modules, sorted("
             "{m.partition('.')[0] for m in set(sys.modules) - before}"
             " - sys.stdlib_module_names - {'rescaling'}))")
    out = subprocess.run([sys.executable, "-c", probe, *argv], cwd=src,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["0", "False", "[]"]


@pytest.mark.parametrize("family", [LATTES, QUAD0, "z*(z + 1/t)/(i*z + 1)"],
                         ids=["lattes", "quad0", "mil4"])
def test_report_loads_no_sympy(family):
    # the limit maps' exact roots come from p-adic lifting in cpoly, and a
    # critical point outside Q(i) is reported, not found numerically
    src = str(Path(rescaling.__file__).resolve().parents[1])
    probe = ("import sys, contextlib, io, rescaling.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = rescaling.cli.main(['report'] + sys.argv[1:])\n"
             "print(code, sorted({'sympy', 'mpmath'} & set(sys.modules)))")
    argv = [family, "--max-denominator", "7", "--dichotomy"]
    out = subprocess.run([sys.executable, "-c", probe, *argv], cwd=src,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["0", "[]"]


def test_frame_center_keeps_its_terms_up_to_h(capsys):
    # 1/(1-t) has infinitely many terms; in a frame of zoom 0 only 1 counts
    code, doc = run(capsys, "reduce", "z^2", "--frame", "0, 1/(1-t)")
    assert code == 0
    assert doc["frames"][0]["center"] == "1"
    assert doc["reduced"]["map"] == "z^2 + 2*z + 1"


DEEP = "(z*(1-t) - 1)/(t^20*(1-t))"


def test_reduce_in_a_frame_deeper_than_the_default_truncation(capsys):
    code, doc = run(capsys, "reduce", DEEP, "--frame", "20, 1/(1-t)")
    assert code == 0
    assert doc["reduced"]["map"] == "z"


def test_advance_from_a_frame_deeper_than_the_default_truncation(capsys):
    code, doc = run(capsys, "advance", DEEP, "--frame", "20, 1/(1-t)")
    assert code == 0
    assert doc["step"]["target"] == {"h": "0", "center": "0"}
    assert doc["step"]["limit"]["map"] == "z - 1"


@pytest.mark.parametrize("argv", [
    ("reduce", "z", "--bogus"),
    ("verify", QUAD0, "--frame", "1", "--points", "abc"),
], ids=["unknown_flag", "bad_points"])
def test_bad_argument_exits_2(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValueError"
    assert err == ""


@pytest.mark.parametrize("argv", [("--trunc", "0"), ("--trunc", "-5")],
                         ids=["flag_zero", "flag_negative"])
def test_bad_truncation_knob_exits_2(capsys, argv):
    # --trunc is no longer an option: any use of it is an unknown argument
    code = cli.main(["reduce", "z^2+t", *argv])
    out, err = capsys.readouterr()
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "ValueError"
    assert doc["error"]["message"] \
        == "unrecognized arguments: " + " ".join(argv)
    assert err == ""


@pytest.mark.parametrize("sub", ["reduce", "advance", "orbit", "scan",
                                 "verify", "report"])
def test_help_prints_usage_and_exits_0(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: rescaling {sub}")
    assert "--trunc" not in out


def _spy_windows(monkeypatch):
    """The window of every compose_families call the run makes."""
    windows = []
    real = maps_mod.compose_families

    def spy(outer, inner, window):
        windows.append(window)
        return real(outer, inner, window)

    monkeypatch.setattr(maps_mod, "compose_families", spy)
    monkeypatch.setattr(frames_mod, "compose_families", spy)
    return windows


ITERATE_CHECKS = [("--crosscheck",), ("--period-max", "3")]


@pytest.mark.parametrize("argv", ITERATE_CHECKS,
                         ids=["crosscheck", "period_set"])
def test_trunc_flag_wins_over_bad_env_in_iterate_checks(capsys, monkeypatch,
                                                         argv):
    # the flag is gone and RESCALING_TRUNC is not read: a bad value of it
    # leaves the iterate checks passing at their own window
    monkeypatch.setenv("RESCALING_TRUNC", "abc")
    code, doc = run(capsys, "orbit", QUAD0, "--frame", "1", *argv)
    assert code == 0
    assert len(doc["assertions"]) == 2
    assert all(a["passed"] for a in doc["assertions"])


@pytest.mark.parametrize("argv, expected", zip(ITERATE_CHECKS, ([2], [2, 2])),
                         ids=["crosscheck", "period_set"])
def test_trunc_flag_sets_the_iterate_window(capsys, monkeypatch, argv,
                                            expected):
    # quad0 conjugated at frame 1 has coefficient valuations spread over 2,
    # so each check starts at window 2, which certifies at once
    windows = _spy_windows(monkeypatch)
    code, _ = run(capsys, "orbit", QUAD0, "--frame", "1", *argv)
    assert code == 0
    assert windows == expected


def test_precision_retry_widens_the_iterate_window(capsys, monkeypatch):
    # quad1 conjugated at frame 3 has a valuation spread of 8; at window 8
    # the sixth iterate's residue is hidden, so the period-set check doubles
    # its window once and certifies at 16
    windows = _spy_windows(monkeypatch)
    code, doc = run(capsys, "orbit", QUAD1, "--frame", "3",
                    "--period-max", "6")
    assert code == 0 and doc["cycles"][0]["period"] == 3
    assert windows == [8] * 5 + [16] * 5
    assert doc["period_set"] == {
        "degrees": {"1": 0, "2": 0, "3": 2, "4": 0, "5": 0, "6": 4},
        "law_holds": True, "period": 3}


@pytest.mark.parametrize("env", ["abc", "3"])
def test_library_ignores_truncation_env(monkeypatch, env):
    monkeypatch.delenv("RESCALING_TRUNC", raising=False)

    def observe():
        fam = rescaling.parse_family(QUAD0)
        center = rescaling.parse_frame("1, 1/(1-t)").c
        inv = rescaling.PuiseuxSeries.build([(0, 1), (1, -1)], inf).inverse(
            prec=16)
        cyc = rescaling.find_cycle(fam, rescaling.parse_frame("1"))
        return ([(c.terms, c.trunc) for c in fam.coeffs()],
                (center.terms, center.trunc), (inv.terms, inv.trunc),
                rescaling.cycle_limit_crosscheck(fam, cyc))

    unset = observe()
    # the center keeps its exact terms up to t^1; the inverse its prec
    assert unset[1] == (((0, 1), (1, 1)), inf)
    assert unset[2][1] == 16 and unset[3]
    monkeypatch.setenv("RESCALING_TRUNC", env)
    assert observe() == unset


def test_no_module_reads_the_environment():
    package = Path(rescaling.__file__).resolve().parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if "os.environ" in p.read_text()] == []


def test_float_quad0_passes_its_crosscheck(capsys):
    code, doc = run(capsys, "orbit", "t - (1.0+t^2)/z + t/z^2", "--frame",
                    "1", "--crosscheck")
    assert code == 0
    names = {a["name"]: a["passed"] for a in doc["assertions"]}
    assert names["cycle_limit_crosscheck"] is True


def _without_source(doc):
    fam = doc.get("family")
    if fam is None:
        return doc
    return {**doc, "family": {k: v for k, v in fam.items() if k != "source"}}


def run_exact_and_float(capsys, exact_argv, float_argv):
    """Both outcomes, each payload with its family source dropped."""
    code_e, doc_e = run(capsys, *exact_argv)
    code_f, doc_f = run(capsys, *float_argv)
    return (code_e, _without_source(doc_e)), (code_f, _without_source(doc_f))


def test_tiny_decimal_coefficient_is_not_dropped(capsys):
    # 1e-13 sits below any double-precision zero threshold
    exact, spelled = run_exact_and_float(
        capsys, ("orbit", "z^2 + 1/10000000000000*z + t", "--frame", "1"),
        ("orbit", "z^2 + 0.0000000000001*z + t", "--frame", "1"))
    assert spelled == exact
    assert spelled[0] == 0
    assert spelled[1]["cycles"][0]["limit"]["map"] \
        == "1/10000000000000*z + 1"


def test_squared_tiny_decimal_reduces_to_infinity(capsys):
    # the residues share the factor z^2 only when 1e-14 counts as zero
    exact, spelled = run_exact_and_float(
        capsys, ("reduce", "(z+1/10000000)^2/(z^2+t)", "--frame", "1"),
        ("reduce", "(z+0.0000001)^2/(z^2+t)", "--frame", "1"))
    assert spelled == exact
    assert spelled[0] == 0
    assert spelled[1]["reduced"]["map"] == "inf"


def test_squared_tiny_decimal_orbit_fails_no_internal_check(capsys):
    exact, spelled = run_exact_and_float(
        capsys, ("orbit", "(z+1/10000000)^2/(z^2+t)", "--frame", "1"),
        ("orbit", "(z+0.0000001)^2/(z^2+t)", "--frame", "1"))
    assert spelled == exact
    assert spelled[0] == 3
    assert spelled[1]["error"]["type"] == "AdvanceNotTerminating"


# each fixture with one constant spelled as a decimal, its seed frame, and
# a frame center spelled both ways
FLOAT_SPELLINGS = {
    "quad0": (QUAD0, QUAD0.replace("1+t^2", "1.0+t^2"), "1"),
    "mcm": (MCMULLEN, MCMULLEN.replace("t", "1.0*t"), "1/7"),
    "lattes": (LATTES, LATTES.replace("4*", "4.0*"), "2/5"),
}
CENTERS = ("1/2 + 3/4*t^(1/8)", "0.5 + 0.75*t^(1/8)")


@pytest.mark.parametrize("sub", ["reduce", "advance", "orbit", "verify",
                                 "scan"])
@pytest.mark.parametrize("key", sorted(FLOAT_SPELLINGS))
def test_float_spelling_gives_the_exact_payload(capsys, key, sub):
    exact_text, float_text, seed = FLOAT_SPELLINGS[key]

    def argv(text, center):
        return {
            "reduce": ("reduce", text),
            "advance": ("advance", text, "--frame", f"{seed}, {center}"),
            "orbit": ("orbit", text, "--frame", seed, "--crosscheck"),
            "verify": ("verify", text, "--frame", seed, "--points", "60"),
            "scan": ("scan", text, "--max-denominator", "5"),
        }[sub]

    exact, spelled = run_exact_and_float(capsys, argv(exact_text, CENTERS[0]),
                                         argv(float_text, CENTERS[1]))
    assert float_text != exact_text
    assert spelled == exact
