"""One benchmark process: set up heismod, serve requests, report.

`run.py` starts this script with a JSON job on stdin:

``workload``, ``seed``  which request stream (see workloads.py);
``skip``                requests of the stream to pass over first, so
                        the k-th annulus request gets a process of its own;
``seconds``             family-sweep only: length of the timed phase;
``trace``               wrap the layers with the span tracer;
``dump``                where a traced process writes its raw spans;
``setup_only``          exit once the first input is validated;
``spawned``             the launcher's time.time() just before the start.

It prints one line when the first input is loaded and validated, with
the set-up time since ``spawned``, and one line with its results at the
end.  heismod is imported from the ``src`` directory of this checkout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (sits beside this script)

SWEEP_WARMUP = len(workloads.SWEEP_FAMILIES)
# family-sweep reads its memory figures after this many timed requests
# (or at the end of a run that serves fewer), so they do not grow with
# the request rate
SWEEP_MEMORY_REQUESTS = 300


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    job = json.load(sys.stdin)
    stream = workloads.requests(job["workload"], job["seed"])
    for _ in range(job.get("skip", 0)):
        next(stream)
    first = next(stream)

    import heismod
    # called through the module, so the tracer's re-bindings take effect
    from heismod import scenarios

    home = Path(heismod.__file__).resolve().parent
    if home != SRC / "heismod":
        sys.exit(f"heismod was imported from {home}, not from {SRC}")
    scenarios.scenario_from_dict(first[2])
    setup_s = time.time() - job["spawned"]
    print(json.dumps({"ready": True, "setup_s": setup_s}), flush=True)
    if job.get("setup_only"):
        return
    ready_peak = _peak_mb()

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    records, peaks = [], []

    def serve(item, warmup):
        family, param, raw = item
        if tracer is not None:
            tracer.request = len(records)
        rec = {"family": family, "param": param, "warmup": warmup}
        t0 = perf_counter()
        try:
            report = scenarios.run_scenario(
                scenarios.scenario_from_dict(raw))
        except Exception as exc:   # a failed request is counted, not fatal
            rec["seconds"] = perf_counter() - t0
            traceback.print_exc()
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            rec["seconds"] = perf_counter() - t0
            rec["failed_checks"] = [r["name"] for r in report.checks
                                    if not r["pass"]]
            rep = report.modulus_report
            if rep is not None:
                rec["modulus"] = rep.modulus
                rec["error_estimate"] = rep.error_estimate
        records.append(rec)
        peaks.append(_peak_mb())

    if job["workload"] == "family-sweep":
        # one cycle of every family first, so lazy imports and first-call
        # set-up inside the long-lived process are not timed
        serve(first, True)
        for _ in range(SWEEP_WARMUP - 1):
            serve(next(stream), True)
        t_start = perf_counter()
        while perf_counter() - t_start < job["seconds"]:
            serve(next(stream), False)
        elapsed = perf_counter() - t_start
        timed = peaks[SWEEP_WARMUP:SWEEP_WARMUP + SWEEP_MEMORY_REQUESTS]
        peak = timed[-1]
        growth = peak - timed[max(len(timed) // 10 - 1, 0)]
    else:
        serve(first, False)
        elapsed = records[0]["seconds"]
        peak = peaks[-1]
        growth = peak - ready_peak

    result = {"records": records, "elapsed_s": elapsed,
              "peak_rss_mb": peak, "rss_growth_mb": growth}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.aggregate(
            i for i, r in enumerate(records) if not r["warmup"])
        if job.get("dump"):
            tracer.dump(job["dump"])
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
