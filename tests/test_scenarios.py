"""Scenario model: validation rejections, built-in registry, runner
behavior, and report determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heismod.errors import ScenarioError
from heismod.qdiff import QuadDiff
from heismod.scenarios import (
    Scenario,
    list_scenarios,
    load_scenario,
    run_scenario,
    _cumulative_simpson,
    scenario_from_dict,
    trace_leaf_deviation,
)

BUILTINS = [
    "annulus-horizontal",
    "annulus-vertical",
    "plane-annulus-circular",
    "plane-annulus-radial",
    "plane-rectangle",
    "shear",
    "triple-kernel-residuals",
]


def shear_dict(**over):
    raw = {
        "name": "shear-test",
        "space": "heisenberg",
        "q": "1",
        "foliation": {
            "phi1": "s + i*p1",
            "phi2": "p2 + 2*p1*s",
            "s_range": [0.0, 2.0],
            "p_ranges": [[0.0, 1.0], [0.0, 1.0]],
        },
        "checks": ["b2", "legendrian"],
    }
    raw.update(over)
    return raw


# ---------------------------------------------------------------------------
# validation

def test_valid_scenario_roundtrip():
    scn = scenario_from_dict(shear_dict())
    assert isinstance(scn, Scenario)
    assert scn.space == "heisenberg"
    assert scn.tolerances["quad_tol"] == 1e-8   # defaults filled in
    assert isinstance(scn.q, QuadDiff)      # parsed once, kept


@pytest.mark.parametrize("mutate, fragment", [
    ({"name": None}, "name"),
    ({"space": "hyperbolic"}, "space"),
    ({"q": 7}, "expression string"),
    ({"foliation": None}, "foliation"),
    ({"checks": ["b3"]}, "unknown check"),
    ({"tolerances": {"speed": 0.1}}, "unknown tolerance"),
    ({"tolerances": {"quad_tol": -1.0}}, "quad_tol"),
    ({"expected": {"area": {"value": 1, "rtol": 1e-6}}}, "unknown expected"),
    ({"expected": {"modulus": 0.125}}, "value and rtol"),
])
def test_rejects_malformed_fields(mutate, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        scenario_from_dict(shear_dict(**mutate))


def test_rejects_bad_ranges_and_expressions():
    raw = shear_dict()
    raw["foliation"]["s_range"] = [2.0, 0.0]
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)
    raw = shear_dict()
    raw["foliation"]["phi1"] = "s + * p1"
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)
    raw = shear_dict(q="frob(z)")
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)


def test_rejects_heisenberg_checks_on_plane():
    raw = {
        "name": "flat", "space": "plane", "q": "1",
        "foliation": {"phi1": "s + i*p", "s_range": [0, 1],
                      "p_ranges": [[0, 1]]},
        "checks": ["b2"],
    }
    with pytest.raises(ScenarioError, match="does not apply"):
        scenario_from_dict(raw)
    raw["checks"] = ["lambda_constancy"]
    raw["foliation"]["phi2"] = "p"
    with pytest.raises(ScenarioError, match="phi2"):
        scenario_from_dict(raw)


def test_plane_needs_single_p_range():
    raw = {
        "name": "flat", "space": "plane", "q": "1",
        "foliation": {"phi1": "s + i*p", "s_range": [0, 1],
                      "p_ranges": [[0, 1], [0, 1]]},
    }
    with pytest.raises(ScenarioError, match="one p range"):
        scenario_from_dict(raw)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=8)
TOP_FIELDS = ("name", "space", "q", "foliation", "tolerances", "checks",
              "expected")
FOLIATION_FIELDS = ("phi1", "phi2", "s_range", "p_ranges")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(TOP_FIELDS + FOLIATION_FIELDS), JSON_VALUES)
def test_one_field_replaced_by_any_json_validates_or_raises(field, value):
    raw = shear_dict(expected={"modulus": {"value": 0.125, "rtol": 1e-6}})
    target = raw["foliation"] if field in FOLIATION_FIELDS else raw
    target[field] = value
    try:
        scn = scenario_from_dict(raw)
    except ScenarioError:
        return
    assert isinstance(scn, Scenario)


# ---------------------------------------------------------------------------
# registry and loading

def test_builtin_registry_is_stable():
    assert list_scenarios() == BUILTINS
    assert list_scenarios() == BUILTINS  # second call identical


def test_load_builtin_and_unknown():
    scn = load_scenario("shear")
    assert scn.name == "shear"
    with pytest.raises(ScenarioError, match="no scenario"):
        load_scenario("no-such-scenario")


def test_load_from_path(tmp_path):
    p = tmp_path / "custom.json"
    p.write_text(json.dumps(shear_dict()))
    assert load_scenario(str(p)).name == "shear-test"
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(bad))


# ---------------------------------------------------------------------------
# runner

def test_run_shear_builtin_passes():
    rep = run_scenario(load_scenario("shear"))
    assert rep.passed
    assert rep.modulus_report.modulus == pytest.approx(0.125, rel=1e-9)
    assert [name for name in (r["name"] for r in rep.checks)] == [
        "b2", "d2prime", "d2doubleprime", "legendrian",
        "lambda_constancy", "admissibility", "expected_leaf_length",
        "expected_modulus", "expected_volume"]
    assert len(rep.convergence) == 3
    tols = [t for t, _ in rep.convergence]
    assert tols == sorted(tols, reverse=True)


def test_run_density_checks_share_the_ladder():
    rep = run_scenario(scenario_from_dict(
        shear_dict(checks=["admissibility", "perturbation"])))
    assert rep.passed
    rows = {r["name"]: r for r in rep.checks}
    assert rows["admissibility"]["value"] == pytest.approx(1.0, rel=1e-10)
    # five renormalized probes of the extremal density, each measured
    # against the ladder's own modulus at 10*tol
    assert rows["perturbation"]["pass"]
    assert 1.0 < rows["perturbation"]["value"] < 1.1


def test_annulus_horizontal_perturbation_row_is_pinned():
    # the five probes run as one batched energy integral; its bits are
    # those of five separate probe energies, over the polar Jacobian
    rep = run_scenario(load_scenario("annulus-horizontal"))
    rows = {r["name"]: r for r in rep.checks}
    assert rows["perturbation"]["pass"]
    assert rows["perturbation"]["value"] == 1.000632106140907


def test_run_skips_modulus_when_unneeded():
    rep = run_scenario(load_scenario("triple-kernel-residuals"))
    assert rep.passed
    assert rep.modulus_report is None
    assert rep.convergence == []
    assert rep.to_json_dict()["modulus"] is None


def test_run_plane_rectangle():
    rep = run_scenario(load_scenario("plane-rectangle"))
    assert rep.passed
    assert rep.modulus_report.modulus == pytest.approx(0.5, rel=1e-10)


def test_failing_expected_flips_exit_state():
    raw = shear_dict(expected={"modulus": {"value": 0.2, "rtol": 1e-6}})
    rep = run_scenario(scenario_from_dict(raw))
    assert not rep.passed
    row = next(r for r in rep.checks if r["name"] == "expected_modulus")
    assert not row["pass"]


def test_report_json_deterministic_modulo_timestamp():
    scn = load_scenario("shear")
    a = run_scenario(scn).to_json_dict()
    b = run_scenario(scn).to_json_dict()
    a.pop("timestamp"), b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_tolerance_overrides_reach_convergence_table():
    rep = run_scenario(load_scenario("shear"), quad_tol=1e-6)
    assert [t for t, _ in rep.convergence] == pytest.approx(
        [1e-4, 1e-5, 1e-6], rel=1e-12)


# ---------------------------------------------------------------------------
# trace comparison helper

def test_trace_matches_vertical_annulus_leaf():
    scn = load_scenario("annulus-vertical")
    dev, resid = trace_leaf_deviation(
        scn.q, scn.foliation, math.pi / 2, math.pi)
    assert dev <= 1e-6
    assert resid <= 1e-8


def test_cumulative_simpson_matches_scipy_bit_for_bit():
    integrate = pytest.importorskip("scipy.integrate")
    # the annulus trace grid shape: 16,385 points, an endpoint blowup
    x = np.linspace(0.02, 1.366, 16385)
    x[1:-1] += 1e-6 * np.sin(37.0 * x[1:-1])     # unequal intervals
    for y in (x ** (-2 / 3), np.cos(5.0 * x) * np.exp(x)):
        want = integrate.cumulative_simpson(y, x=x, initial=0.0)
        assert _cumulative_simpson(y, x).tobytes() == want.tobytes()


def test_import_leaves_scipy_unloaded():
    code = "import sys, heismod; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
