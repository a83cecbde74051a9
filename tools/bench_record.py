"""Record one benchmark snapshot of this checkout as BENCH_<n>.json.

    python3 tools/bench_record.py --out BENCH_<n>.json

Runs `bench/run.py` on every workload of BENCHMARK.json at each of
`SEEDS` for BENCHMARK.json's ``run_seconds`` (end-to-end metrics), then
once more per workload with ``--trace 1`` at the first seed for
`TRACE_SECONDS` (per-layer counters and timings).  Seeds and run
lengths are fixed, so two snapshots differ only in the code and the
machine they ran on.  The file records the commit, the machine, the
Python and numpy versions, the seeds, every run's metrics and, per
workload, each end-to-end metric's median over the seeds.  bench/
itself is only run, never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
TRACE_SECONDS = 1.0


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The last line of one bench/run.py run, with its exit code."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        sys.exit(f"bench/run.py {workload} seed {seed} printed nothing "
                 f"(exit {proc.returncode}): {proc.stderr.strip()}")
    doc = json.loads(lines[-1])
    return {"seed": seed, "exit_code": proc.returncode,
            "correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    workloads = {}
    for w in (entry["name"] for entry in spec["workloads"]):
        runs = [_bench(w, s, seconds, False) for s in SEEDS]
        traced = _bench(w, SEEDS[0], TRACE_SECONDS, True)
        workloads[w] = {
            "median": {k: statistics.median(r["metrics"][k] for r in runs)
                       for k in runs[0]["metrics"]},
            "runs": runs,
            "traced": traced,
        }
        print(f"{w}: " + ", ".join(f"{k} {v:.6g}" for k, v in
                                   workloads[w]["median"].items()))

    doc = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--", "src", "bench")),
        "machine": {"system": platform.system(),
                    "release": platform.release(),
                    "machine": platform.machine(),
                    "processor": _cpu_model(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seeds": list(SEEDS),
        "seconds": seconds,
        "trace_seconds": TRACE_SECONDS,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    bad = [w for w, d in workloads.items()
           if not all(r["correct"] for r in d["runs"] + [d["traced"]])]
    if bad:
        print(f"incorrect runs on {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
