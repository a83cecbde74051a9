"""Benchmark launcher: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json):

``annulus-horizontal``, ``annulus-vertical``
    Each request is one full `run_scenario` in a fresh interpreter, as a
    CLI user runs it: the module-level modulus and field caches and the
    cached properties would otherwise turn later requests into warm-cache
    runs.  Requests follow each other until ``--seconds`` have passed
    (at least one).
``family-sweep``
    One long-lived process serves a closed loop of small rewritten
    families for ``--seconds`` after one untimed warm-up cycle.

Before the timed phase, set-up (a fresh interpreter until the first
input is loaded and validated) is measured in separate processes; every
request process adds one more set-up sample.  Workers run one at a time,
with BLAS and OpenMP pinned to one thread.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` the same requests run with the span tracer installed and
the last line carries the per-layer metrics, means per timed request.
A request fails when it raises or any of its check rows fails; the
scenarios' own ``expected`` blocks gate every modulus.  Any failure makes
the run incorrect and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s", "scenario_s": "s", "scenario_s_tail": "s",
    "scenarios_per_s": "1/s", "peak_rss_mb": "MB", "rss_growth_mb": "MB",
    "max_err_ratio": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(job: dict) -> tuple[float, dict | None]:
    """Start one worker, wait for it; (set-up seconds, result or None)."""
    job = dict(job, spawned=time.time())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker exceeded {WORKER_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    ready = json.loads(lines[0])
    result = json.loads(lines[-1]) if len(lines) > 1 else None
    return ready["setup_s"], result


def tail(times: list) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at
    least ten requests beyond it; the maximum below eleven requests."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            dump_dir: Path | None) -> dict:
    """Run the workload; raw per-request records and per-process figures."""
    job = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace}
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(run_worker(dict(job, setup_only=True))[0])
    results = []
    t0 = time.perf_counter()
    k = 0
    while True:
        dump = None
        if dump_dir is not None:
            dump = str(dump_dir / f"{workload}-seed{seed}-{k}.spans.json")
        setup, result = run_worker(dict(job, skip=k, dump=dump))
        setups.append(setup)
        results.append(result)
        k += 1
        if workload == "family-sweep" or \
                time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    return {"setups": setups, "results": results, "wall": wall}


def summarize(workload: str, seed: int, raw: dict, trace: bool) -> dict:
    results = raw["results"]
    records = [r for res in results for r in res["records"]]
    stream = workloads.requests(workload, seed)
    failures, ratios = [], []
    for rec in records:
        _, _, scenario = next(stream)
        if "error" in rec or rec["failed_checks"]:
            failures.append(rec)
            continue
        ref = workloads.reference(scenario)
        if ref is not None and "modulus" in rec:
            ratios.append(abs(rec["modulus"] - ref) / rec["error_estimate"])
    timed = [r["seconds"] for r in records if not r["warmup"]]
    if workload == "family-sweep":
        per_s = len(timed) / results[0]["elapsed_s"]
        # one tail sample per complete cycle of the five families (their
        # mean request time), and the mean over all requests as the
        # typical time: the median of the mix falls in a gap between the
        # families' costs, and the machine's speed shifts for seconds at
        # a time, which moves a median of cycles in jumps
        m = len(workloads.SWEEP_FAMILIES)
        samples = [statistics.fmean(timed[i:i + m])
                   for i in range(0, max(len(timed) - m + 1, 1), m)]
        typical = statistics.fmean(timed)
    else:
        per_s = len(timed) / raw["wall"]
        samples = timed
        typical = statistics.median(samples)
    pct, tail_s = tail(samples)
    out = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "tail_percentile": pct,
        "timed_requests": len(timed),
    }
    if trace:
        layers = [res["layers"] for res in results]
        metrics = {k: statistics.fmean(d[k] for d in layers)
                   for k in layers[0]}
        metrics["trace.scenario_s"] = typical
        out["metrics"] = metrics
        return out
    out["metrics"] = {
        "setup_s": statistics.median(raw["setups"]),
        "scenario_s": typical,
        "scenario_s_tail": tail_s,
        "scenarios_per_s": per_s,
        "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
        "rss_growth_mb": statistics.median(
            res["rss_growth_mb"] for res in results),
        # no ratio only when every request failed: the run is incorrect
        "max_err_ratio": max(ratios, default=0.0),
    }
    return out


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "heismod" / "__init__.py").is_file():
        print(f"no heismod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    dump_dir = None
    if trace:
        dump_dir = HERE / "out"
        dump_dir.mkdir(exist_ok=True)
    try:
        raw = measure(args.workload, args.seed, args.seconds, trace,
                      dump_dir)
    except WorkerFailed as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 2
    summary = summarize(args.workload, args.seed, raw, trace)
    metrics = summary["metrics"]

    for rec in summary["failures"]:
        print(f"FAILED {rec['family']} param={rec['param']!r}: "
              f"{rec.get('error') or rec['failed_checks']}")
    n = summary["attempted"]
    print(f"# {args.workload} seed={args.seed} requests={n} "
          f"timed={summary['timed_requests']} "
          f"failed_fraction={summary['failed'] / n:.6g} "
          f"tail=p{summary['tail_percentile']:.3g}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {_unit(name)}")
    correct = summary["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
