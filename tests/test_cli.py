"""Command line interface: JSON payloads and exit codes."""

import json

import pytest

from rescaling import cli
from .support import CUBIC, LATTES, MCMULLEN, QUAD0


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


def test_trunc_flag(capsys):
    code, doc = run(capsys, "reduce", "z^2 + 1/(1-t)", "--trunc", "8")
    assert code == 0
    assert doc["reduced"]["map"] == "z^2 + 1"
