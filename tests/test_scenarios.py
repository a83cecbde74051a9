"""Scenario model: validation rejections, built-in registry, runner
behavior, and report determinism."""

import gc
import json
import math
import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heismod import modulus, scenarios
from heismod.errors import NonConvergent, ScenarioError
from heismod.qdiff import QuadDiff
from heismod.scenarios import (
    PERTURBATION_PROBES,
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
    # the five probes run as one batched energy integral whose p-stages
    # start from one panel per axis (a weighted batch).  Their weights
    # separate into A_0(p) + A_1(p) sin(s), so the s-stage integrates 7
    # leaf moments on one collapsed leaf (1.0006321061409076 when every
    # weight ran on every pair).  The leaf builder integrates that leaf
    # once, at the first pair any call asked for (the first p-edge
    # probe's), where each call used to integrate it again at its own
    # first pair: 1.0006321061430017 then, 1.1e-15 away, where each
    # energy carries a relative estimate of 1.2e-10
    rep = run_scenario(load_scenario("annulus-horizontal"))
    rows = {r["name"]: r for r in rep.checks}
    assert rows["perturbation"]["pass"]
    assert rows["perturbation"]["value"] == 1.0006321061430006


def test_perturbation_probes_are_the_seeded_draws():
    rng = np.random.default_rng(0)
    drawn = []
    for _ in range(5):
        c0, c1, c2 = rng.uniform(-0.4, 0.4, 3)
        cs = rng.uniform(0.3, 1.0)
        drawn.append(f"{c0:.6f} + {cs:.6f}*sin(s) + {c1:.6f}*p1"
                     f" + {c2:.6f}*cos(p2)")
    assert PERTURBATION_PROBES == tuple(drawn)


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


def spied_ladder(monkeypatch):
    """The meta of every modulus_m4 a request makes, and whether a leaf
    store was open for it."""
    metas, real = [], scenarios.modulus_m4

    def spy(*args, **kwargs):
        rep = real(*args, **kwargs)
        metas.append((rep.meta, modulus._STORE.get() is not None))
        return rep
    monkeypatch.setattr(scenarios, "modulus_m4", spy)
    return metas


def test_a_request_integrates_each_leaf_once(monkeypatch):
    # the tightest level runs first; the looser levels read its leaves,
    # where each level integrated them again (15 s-stages, three of
    # them over the same 960 leaves); the p-stage probes no edge of the
    # dead p2-axis, whose one leaf took a stage of its own (5 stages)
    stages, real = [], modulus._s_batched

    def spy(fol, cols_fn, ps, **kwargs):
        stages.append(ps[0].size)
        return real(fol, cols_fn, ps, **kwargs)
    monkeypatch.setattr(modulus, "_s_batched", spy)
    metas = spied_ladder(monkeypatch)
    rep = run_scenario(load_scenario("annulus-vertical"))
    assert len(stages) == 4 and stages.count(960) == 1
    assert rep.modulus_report.modulus == 29.636257682862016
    assert [lv for lv, _ in rep.convergence] == [1e-6, 1e-7, 1e-8]
    # the levels served from the store did no s-stage work
    assert [(m["s_evals"], m["s_points"]) for m, _ in metas] == [
        (360, 234_720), (0, 0), (0, 0)]


@pytest.mark.parametrize("name, entry, p_evals", [
    ("annulus-vertical", "modulus_m4", 1020),
    ("plane-annulus-radial", "modulus_m2", 60)])
def test_the_looser_levels_are_served_the_tight_report(name, entry, p_evals,
                                                       monkeypatch):
    # each looser level ran its own gates, LeafLengthField and p-stage
    # (and on a plane family its own s-stages) to return the tight bits
    built, real_field = [], modulus.LeafLengthField

    class Field(real_field):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(modulus, "LeafLengthField", Field)
    reps, fields, real = [], [], getattr(scenarios, entry)

    def spy(*args, **kwargs):
        before = len(built)
        reps.append(real(*args, **kwargs))
        fields.append(len(built) - before)
        return reps[-1]
    monkeypatch.setattr(scenarios, entry, spy)
    run = run_scenario(load_scenario(name))
    assert [r.meta["p_evals"] for r in reps] == [p_evals, 0, 0]
    assert fields == [1, 0, 0]
    tight = reps[0]
    assert run.modulus_report is tight
    for r in reps[1:]:
        assert r.meta["served_from"] == tight.meta["tol"] < r.meta["tol"]
        assert r.modulus.hex() == tight.modulus.hex()
        assert r.error_estimate.hex() == tight.error_estimate.hex()


@pytest.mark.parametrize("name", ["annulus-vertical", "annulus-horizontal"])
def test_the_b2_row_reads_the_gates_residual(name, monkeypatch):
    # the row evaluated max |B2 q| on the grid again after the gate had
    calls, real = [], modulus._residual_max

    def spy(fol, ex):
        calls.append(ex)
        return real(fol, ex)
    monkeypatch.setattr(modulus, "_residual_max", spy)
    monkeypatch.setattr(scenarios, "_residual_max", spy)
    scn = load_scenario(name)
    run = run_scenario(scn)
    assert calls.count(scn.q.b2_expr) == 1
    row = next(r for r in run.checks if r["name"] == "b2")
    assert row["value"] == run.modulus_report.residual_stats \
        == real(scn.foliation, scn.q.b2_expr)


def dilated(raw, c):
    """A built-in pushed forward by the conformal dilation with factor
    c, its constants spelled out: w -> c*w on the plane, (z, t) ->
    (c*z, c^2*t) on the group, with q' = c^-2 q o (the inverse map)."""
    out = json.loads(json.dumps(raw))
    fol = out["foliation"]
    names = {"w": f"(w/{c!r})"} if raw["space"] == "plane" \
        else {"z": f"(z/{c!r})", "t": f"(t/{c * c!r})"}
    q = re.sub(r"\b(" + "|".join(names) + r")\b",
               lambda m: names[m.group(1)], raw["q"])
    fol["phi1"] = f"{c!r}*({fol['phi1']})"
    if raw["space"] == "heisenberg":
        fol["phi2"] = f"{c * c!r}*({fol['phi2']})"
    out["q"] = f"{c ** -2.0!r}*({q})"
    return out


def test_built_in_reports_do_not_depend_on_the_process_history():
    # nodes die and are built again between requests, without the
    # _conj memos the plans read; no report bit may depend on that
    def reports():
        out = {}
        for name in BUILTINS:
            doc = run_scenario(load_scenario(name)).to_json_dict()
            doc.pop("timestamp")
            out[name] = json.dumps(doc, sort_keys=True)
        return out

    before = reports()
    raws = [json.loads(resources.files("heismod").joinpath(
        "data", f"{name}.json").read_text()) for name in BUILTINS
        if not name.startswith("annulus")]
    for k in range(100):
        raw = dilated(raws[k % len(raws)], 0.5 + 1.5 * ((0.618 * k) % 1.0))
        rep = run_scenario(scenario_from_dict(raw))
        assert rep.passed, (raw["name"], rep.checks)
    gc.collect()
    assert reports() == before


def test_looser_levels_read_the_tight_leaves_not_looser_ones():
    # at quad_tol 0.5 the 50 level integrated its own leaves at rtol 0.5
    # and reported 0.18002965340989574 +- 3.5e-5, 1.3e-4 from the
    # closed form; it now reads the 0.5 level's leaves
    rep = run_scenario(load_scenario("annulus-horizontal"), quad_tol=0.5)
    assert rep.convergence == [[50.0, 0.18016333184361855],
                               [5.0, 0.18016333184361855],
                               [0.5, 0.18016333184361855]]


def test_the_leaf_store_closes_with_its_request(monkeypatch):
    metas = spied_ladder(monkeypatch)
    run_scenario(load_scenario("shear"))
    assert [shared for _, shared in metas] == [True] * 3
    assert modulus._STORE.get() is None
    with pytest.raises(NonConvergent):
        run_scenario(load_scenario("annulus-vertical"), quad_tol=1e-13)
    assert modulus._STORE.get() is None


# ---------------------------------------------------------------------------
# trace comparison helper

@pytest.mark.parametrize("name, dev", [
    ("annulus-vertical", 1.3774812401834428e-09),
    ("annulus-horizontal", 1.7447226922371922e-08)])
def test_trace_runs_once_along_the_leaf(name, dev, monkeypatch):
    # both annuli trace against the tracer's starting direction: the
    # orientation comes from the start tangent, where a forward trace
    # used to run first and be thrown away
    calls, real = [], scenarios.trace_trajectory

    def spy(q, start, orientation, *args, **kwargs):
        calls.append(orientation)
        return real(q, start, orientation, *args, **kwargs)
    monkeypatch.setattr(scenarios, "trace_trajectory", spy)
    scn = load_scenario(name)
    (a0, a1), (b0, b1) = scn.foliation.p_box
    got = trace_leaf_deviation(scn.q, scn.foliation, 0.5 * (a0 + a1),
                               0.5 * (b0 + b1), scn.tolerances["rk_tol"])
    assert calls == [-1]
    assert got == (dev, 0.0)


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


def test_annulus_runs_leave_numpy_ma_and_random_unloaded():
    # np.median imports numpy.ma on its first call and default_rng
    # imports numpy.random: each costs a fresh process milliseconds and
    # megabytes, so no request path takes either
    code = ("import sys\n"
            "from heismod.scenarios import load_scenario, run_scenario\n"
            "for name in ('annulus-vertical', 'annulus-horizontal'):\n"
            "    run_scenario(load_scenario(name))\n"
            "    print(name, 'numpy.ma' in sys.modules,"
            " 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split("\n")[:2] == [
        "annulus-vertical False False", "annulus-horizontal False False"]
