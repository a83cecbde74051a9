"""Command-line behavior: exit codes, report and CSV artifacts,
byte-level determinism, and the trace subcommand."""

import csv
import json
import subprocess
import sys
import warnings

import pytest

from heismod import expr as E
from heismod.cli import main
from heismod.scenarios import scenario_from_dict

Q0_TEXT = ("conj(z)^2 * (t^2 + (z*conj(z))^2)^(2/3)"
           " / ((z*conj(z))^(4/3) * (t + i*z*conj(z))^2)")


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# run / list-scenarios

def test_list_scenarios_output(capsys):
    assert run_cli("list-scenarios") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == sorted(out)
    assert "annulus-horizontal" in out and "shear" in out
    assert len(out) == 7


def test_run_writes_report_and_csv(tmp_path, capsys):
    report = tmp_path / "report.json"
    table = tmp_path / "conv.csv"
    code = run_cli("run", "shear", "--report", str(report),
                   "--csv", str(table))
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario shear" in out and "[PASS]" in out

    doc = json.loads(report.read_text())
    assert doc["name"] == "shear"
    assert doc["modulus"] == pytest.approx(0.125, rel=1e-9)
    assert {"name", "modulus", "error_estimate", "checks",
            "convergence", "timestamp"} <= set(doc)
    for row in doc["checks"]:
        assert {"name", "pass", "value", "threshold"} <= set(row)

    rows = list(csv.reader(table.open()))
    assert rows[0] == ["tol", "value"]
    assert len(rows) == 4


def test_run_without_report_prints_json(capsys):
    assert run_cli("run", "plane-rectangle") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["modulus"] == pytest.approx(0.5, rel=1e-10)


def test_run_reports_are_byte_identical_modulo_timestamp(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert run_cli("run", "shear", "--report", str(p)) == 0
    docs = [json.loads(p.read_text()) for p in paths]
    for d in docs:
        d.pop("timestamp")
    blobs = [json.dumps(d, indent=2, sort_keys=True) for d in docs]
    assert blobs[0] == blobs[1]


def test_run_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert run_cli("run", str(bad)) == 2
    assert run_cli("run", "missing-builtin") == 2

    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps({
        "name": "wrong-expectation", "space": "plane", "q": "1",
        "foliation": {"phi1": "s + i*p", "s_range": [0, 2],
                      "p_ranges": [[0, 1]]},
        "expected": {"modulus": {"value": 0.75, "rtol": 1e-6}},
    }))
    capsys.readouterr()
    assert run_cli("run", str(failing)) == 1


def test_b2_gate_and_override(tmp_path, capsys):
    # volume of (1+|z|^2)^2 over the shear box: int (1+s^2+p1^2)^2 = 776/45
    scn = {
        "name": "b2-violation", "space": "heisenberg",
        "q": "1 + z*conj(z)",
        "foliation": {"phi1": "s + i*p1", "phi2": "p2 + 2*p1*s",
                      "s_range": [0, 2],
                      "p_ranges": [[0, 1], [0, 1]]},
        "tolerances": {"quad_tol": 1e-7},
        "checks": ["perturbation"],
        "expected": {"volume": {"value": 776.0 / 45.0, "rtol": 1e-6}},
    }
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(scn))
    assert run_cli("run", str(p)) == 1
    assert "KernelResidualHigh" in capsys.readouterr().err
    with pytest.warns(UserWarning):
        assert run_cli("run", str(p), "--override-b2-check") == 0


def _shear_scenario(**over):
    raw = {
        "name": "shear-malformed", "space": "heisenberg", "q": "1",
        "foliation": {"phi1": "s + i*p1", "phi2": "p2 + 2*p1*s",
                      "s_range": [0, 2], "p_ranges": [[0, 1], [0, 1]]},
        "checks": ["b2"],
        "expected": {"modulus": {"value": 0.125, "rtol": 1e-6}},
    }
    raw.update(over)
    return raw


def _plane_scenario(q):
    return {"space": "plane", "q": q,
            "foliation": {"phi1": "s + i*p", "s_range": [0, 1],
                          "p_ranges": [[0, 1]]}}


def _nested(atom, depth=5000):
    return "(" * depth + atom + ")" * depth


def _long_sum(term, n=3000):
    return "+".join([term] * n)


def _gate(value, rtol):
    return {"modulus": {"value": value, "rtol": rtol}}


def _chart(**over):
    return {**_shear_scenario()["foliation"], **over}


@pytest.mark.parametrize("over, fragment", [
    pytest.param({"checks": 5}, "checks must be a list", id="checks-int"),
    pytest.param({"checks": [["b2"]]}, "checks must be strings",
                 id="checks-nested"),
    pytest.param({"checks": "lambda_constancy"}, "checks must be a list",
                 id="checks-string"),
    pytest.param({"tolerances": [1]}, "tolerances must be an object",
                 id="tolerances-list"),
    pytest.param({"expected": [1]}, "expected must be an object",
                 id="expected-list"),
    pytest.param({"foliation": _chart(phi1=5)}, "foliation.phi1",
                 id="phi1-int"),
    pytest.param({"foliation": _chart(phi2=None)}, "foliation.phi2",
                 id="phi2-null"),
    pytest.param({"foliation": _chart(s_range=["0", "2"])}, "ranges",
                 id="range-strings"),
    pytest.param({"expected": _gate("abc", 1e-3)}, "finite real value",
                 id="value-string"),
    pytest.param({"expected": _gate(True, 1e-3)}, "finite real value",
                 id="value-bool"),
    pytest.param({"expected": _gate(0.125, -1)}, "rtol > 0",
                 id="rtol-negative"),
    pytest.param({"expected": _gate(0.125, False)}, "rtol > 0",
                 id="rtol-bool"),
    pytest.param({"q": _nested("z")}, "nests too deeply",
                 id="heisenberg-deep-parens"),
    pytest.param({**_plane_scenario(_nested("w")), "checks": []},
                 "nests too deeply", id="plane-deep-parens"),
])
def test_malformed_scenario_exits_2_without_traceback(tmp_path, capsys,
                                                      over, fragment):
    # in process, so any exception escaping main() fails the test itself
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_shear_scenario(**over)))
    assert run_cli("run", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err
    assert "Traceback" not in err


@pytest.mark.parametrize("over, point", [
    pytest.param({"q": _long_sum("z*0.001")}, {"z": 1.0, "zb": 1.0},
                 id="heisenberg"),
    pytest.param({**_plane_scenario(_long_sum("w*0.001")), "checks": []},
                 {"w": 1.0, "wb": 1.0}, id="plane"),
])
def test_long_sum_scenario_is_accepted(over, point):
    # the parser builds the sum as a left-deep chain 3,000 nodes deep,
    # which every symbolic transform walks without recursing
    scn = scenario_from_dict(_shear_scenario(**over))
    assert E.evaluate(scn.q.coeff, point) == pytest.approx(3.0, rel=1e-12)


def test_long_sum_residual_run_completes(tmp_path, capsys):
    # the terms cancel in pairs, so every derivative of q folds to an
    # exact zero and the B2 residual row passes
    q = "1" + " + z*0.001 - z*0.001" * 1500
    raw = _shear_scenario(q=q, checks=["b2", "legendrian"])
    del raw["expected"]
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    report = tmp_path / "report.json"
    assert run_cli("run", str(path), "--report", str(report)) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads(report.read_text())["checks"]
    assert [r["name"] for r in rows] == ["b2", "legendrian"]
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("argv", [
    pytest.param(("run", "plane-rectangle", "--tol", "nan"), id="tol-nan"),
    pytest.param(("run", "plane-rectangle", "--tol", "-1"), id="tol-neg"),
    pytest.param(("run", "plane-rectangle", "--tol", "5"), id="tol-big"),
    pytest.param(("run", "plane-rectangle", "--rk-tol", "0"),
                 id="run-rk-tol-zero"),
    pytest.param(("trace", "--q", "1", "--start", "0,0,0",
                  "--max-length", "nan"), id="max-length-nan"),
    pytest.param(("trace", "--q", "1", "--start", "0,0,0",
                  "--max-length", "-1"), id="max-length-neg"),
    pytest.param(("trace", "--q", "1", "--start", "0,0,0",
                  "--max-length", "inf"), id="max-length-inf"),
    pytest.param(("trace", "--q", "1", "--start", "0,0,0",
                  "--rk-tol", "-1"), id="trace-rk-tol-neg"),
])
def test_malformed_number_exits_2_without_traceback(capsys, argv):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert argv[-2] in err
    assert "Traceback" not in err


def _collapsed_chart(**over):
    # Phi = (s, 0) ignores both parameters: a legendrian chart whose
    # Jacobian, and with it lambda, vanishes everywhere
    return _shear_scenario(name="collapsed-chart",
                           foliation=_chart(phi1="s", phi2="0"), **over)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _collapsed_planar_chart():
    # Phi = s + sqrt(2) p moves both parameters along one line: the chart
    # passes the injectivity spot check, yet it sweeps no area
    return {"name": "collapsed-planar-chart", "space": "plane", "q": "1",
            "foliation": {"phi1": "s + 1.4142135623730951*p",
                          "s_range": [0, 1], "p_ranges": [[0, 1]]},
            "expected": _gate(1.0, 1e-6)}


def test_collapsed_chart_modulus_exits_1_without_traceback(tmp_path, capsys):
    path = tmp_path / "scn.json"
    for raw in (_collapsed_chart(), _collapsed_planar_chart()):
        path.write_text(json.dumps(raw))
        assert run_cli("run", str(path)) == 1, raw["name"]
        err = capsys.readouterr().err
        assert err.startswith("error: InversionFailure"), err
        assert "Traceback" not in err


def test_divergent_leaf_lengths_exit_1_without_traceback(tmp_path, capsys):
    # leaf lengths int_0^1 ds/s diverge: no modulus to report
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({
        "name": "radial-log", "space": "plane", "q": "w^(-2)",
        "foliation": {"phi1": "s*exp(i*p)", "s_range": [0, 1],
                      "p_ranges": [[0, 1]]},
        "expected": _gate(1.0, 1e-6)}))
    assert run_cli("run", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: NonConvergent"), err
    assert "Traceback" not in err


def test_lambda_spread_on_collapsed_chart_is_strict_json(tmp_path):
    path = tmp_path / "scn.json"
    report = tmp_path / "report.json"
    path.write_text(json.dumps(_collapsed_chart(
        checks=["lambda_constancy"], expected={})))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("run", str(path), "--report", str(report)) == 0
    doc = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert doc["checks"][0]["value"] == 0.0


# ---------------------------------------------------------------------------
# trace

def test_trace_straight_line(tmp_path):
    out = tmp_path / "line.csv"
    code = run_cli("trace", "--q", "1", "--start", "0,0,0",
                   "--max-length", "1.0", "--csv", str(out))
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["s", "re_z", "im_z", "t", "leg_residual"]
    last = [float(x) for x in rows[-1]]
    assert last[0] == pytest.approx(1.0)
    assert last[1] == pytest.approx(1.0, abs=1e-9)   # dz = 1 for q = 1
    assert all(abs(float(r[4])) <= 1e-12 for r in rows[1:])


def test_trace_q0_stays_on_koranyi_sphere(tmp_path):
    out = tmp_path / "arc.csv"
    code = run_cli("trace", "--q", Q0_TEXT, "--start", "1,0,0",
                   "--max-length", "1.0", "--csv", str(out))
    assert code == 0
    rows = list(csv.reader(out.open()))[1:]
    assert len(rows) >= 10
    for r in rows:
        z2 = float(r[1]) ** 2 + float(r[2]) ** 2
        radius = (float(r[3]) ** 2 + z2 ** 2) ** 0.25
        assert radius == pytest.approx(1.0, abs=1e-6)


def test_trace_error_paths(capsys):
    assert run_cli("trace", "--q", "z^2", "--start", "0,0,1") == 1
    assert "ZeroOfQ" in capsys.readouterr().err
    assert run_cli("trace", "--q", "1", "--start", "1,2") == 2
    assert run_cli("trace", "--q", "while(z)", "--start", "0,0,0") == 2


def test_trace_long_sum(capsys):
    q = _long_sum("z*0.001")
    assert run_cli("trace", "--q", q, "--start", "0.5,0,0") == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    rows = list(csv.reader(captured.out.splitlines()))
    assert rows[0] == ["s", "re_z", "im_z", "t", "leg_residual"]
    assert len(rows) > 2


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "heismod.cli",
                           "list-scenarios"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "triple-kernel-residuals" in proc.stdout
