"""Self-checks of the benchmark harness.

    python3 -m pytest bench/test_bench.py
"""

import json
import struct
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from heismod import scenarios  # noqa: E402


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("name", workloads.ANNULUS)
def test_seed0_first_request_is_the_builtin(name):
    family, radius, raw = next(workloads.requests(name, 0))
    assert (family, radius) == (name, 2.0)
    assert raw == workloads.builtin(name)
    text = (ROOT / "src" / "heismod" / "data" / f"{name}.json").read_text()
    assert json.dumps(raw, sort_keys=True) == \
        json.dumps(json.loads(text), sort_keys=True)


def test_streams_are_seeded():
    for w in workloads.WORKLOADS:
        assert next(workloads.requests(w, 7)) == next(workloads.requests(w, 7))
    first = [x[1] for x, _ in zip(workloads.requests("family-sweep", 1),
                                  range(10))]
    other = [x[1] for x, _ in zip(workloads.requests("family-sweep", 2),
                                  range(10))]
    assert first != other


def test_sweep_cycles_cover_every_family():
    stream = workloads.requests("family-sweep", 3)
    for _ in range(4):
        cycle = {next(stream)[0] for _ in workloads.SWEEP_FAMILIES}
        assert cycle == set(workloads.SWEEP_FAMILIES)


def test_horizontal_reference_reproduces_the_pinned_modulus():
    raw = workloads.builtin("annulus-horizontal")
    assert workloads.reference(raw) == raw["expected"]["modulus"]["value"]


@pytest.mark.parametrize("name", ["plane-rectangle", "plane-annulus-radial",
                                  "plane-annulus-circular", "shear"])
def test_references_match_pinned_values(name):
    raw = workloads.builtin(name)
    want = raw["expected"]["modulus"]
    got = workloads.reference(workloads.dilated(raw, 1.37))
    assert abs(got - want["value"]) <= want["rtol"] * want["value"]


@pytest.mark.parametrize("name", ["shear", "plane-annulus-circular"])
def test_traced_request_has_the_same_bits(name):
    raw = workloads.dilated(workloads.builtin(name), 0.73)
    plain = scenarios.run_scenario(scenarios.scenario_from_dict(raw))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        traced = scenarios.run_scenario(scenarios.scenario_from_dict(raw))
    finally:
        tracer.uninstall()
    assert plain.passed and traced.passed
    a, b = plain.modulus_report, traced.modulus_report
    assert _bits(a.modulus) == _bits(b.modulus)
    assert _bits(a.error_estimate) == _bits(b.error_estimate)
    layers = tracer.aggregate([0])
    assert layers["scenarios.run_scenario.calls"] == 1
    assert layers["scenarios.modulus_calls_per_request"] == 3
    assert layers["quadrature.integrate_batch.evals"] > 0
    # uninstall restores every binding site
    assert not hasattr(scenarios.run_scenario, "__wrapped__")


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    times = [float(i) for i in range(100)]
    assert run.tail(times) == (90.0, 89.0)


def _emitted(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "family-sweep",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _emitted(trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want
