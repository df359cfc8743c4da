"""One workload in one fresh process: the closed-loop client.

    python3 bench/worker.py --workload census --seed 3 --seconds 30 \
        --trace 0 --batches 0 --out bench/out/census.json

`bench/run.py` starts this with PYTHONPATH pointing at the checkout's `src`
and one BLAS thread.  Every batch runs the same tasks.  A run completes at
least one batch and starts another only while the time already spent plus
the last batch fits in `--seconds`; `--batches` caps the count (0: no cap).
The speed probe (`probe.py`) samples the machine all through the run, and
its time is kept out of task times and spans.  The result, and with
`--trace 1` the spans, are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
import tracing  # noqa: E402
from probe import SpeedProbe  # noqa: E402


def run_task(task: workloads.Task, probe: SpeedProbe) -> Dict:
    """Time one task, less the time the speed probe took inside it; catch
    what it raises so the loop keeps going."""
    t0 = probe.clock()
    try:
        output, error = workloads.execute(task), None
    except Exception as exc:  # every failure is counted, none ends the run
        output, error = None, f"{type(exc).__name__}: {exc}"
    return {"seconds": probe.clock() - t0, "output": output, "error": error}


def assess(task: workloads.Task, outcome: Dict) -> Dict:
    """Task status: pass, fail (the program said so), error (it raised) or
    wrong (it said pass, or has no pass flag, and the benchmark's check
    disagrees)."""
    row = {"kind": task.kind, "label": task.label(), "seconds": outcome["seconds"],
           "problems": [], "margin": None, "value": None}
    if outcome["error"] is not None:
        row.update(status="error", error=outcome["error"])
        return row
    try:
        verdict = workloads.check(task, outcome["output"])
    except Exception as exc:  # an output the checks cannot read is a failed check
        verdict = workloads.Verdict(None, [f"check raised {type(exc).__name__}: {exc}"], [])
    row["problems"] = verdict.problems
    row["margin"] = workloads.margin(verdict.residuals)
    if task.kind == "factorization" and not verdict.problems:
        row["value"] = float(outcome["output"][0])
    if verdict.program_pass is False:
        row["status"] = "fail"
    elif verdict.problems:
        row["status"] = "wrong"
    else:
        row["status"] = "pass"
    return row


def run_batch(tasks: List[workloads.Task], batch: int, tracer: Optional[tracing.Tracer],
              probe: SpeedProbe) -> Dict:
    rows: List[Dict] = []
    probe.sample()  # so that every batch has at least one
    first = len(probe.samples) - 1
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = f"{batch}:{index}"
        outcome = run_task(task, probe)
        if tracer is not None:
            tracer.enabled = False  # the benchmark's own checks are not traced
        rows.append(assess(task, outcome))
        if tracer is not None:
            tracer.enabled = True
    trend = workloads.factorization_trend([(t, r["value"]) for t, r in zip(tasks, rows)])
    for index, problem in trend.items():
        rows[index]["problems"].append(problem)
        if rows[index]["status"] == "pass":
            rows[index]["status"] = "wrong"
    samples = probe.samples[first:]
    return {"seconds": sum(r["seconds"] for r in rows), "tasks": rows,
            "probe_s": statistics.mean(samples), "probe_samples": len(samples)}


def run_workload(workload: str, seed: int, seconds: float, max_batches: int = 0,
                 tracer: Optional[tracing.Tracer] = None) -> Dict:
    """Batches of the same tasks back to back until the time budget or
    `max_batches` is spent."""
    tasks = workloads.plan(workload, seed)
    start = time.perf_counter()
    batches = []
    with SpeedProbe() as probe:
        if tracer is not None:
            tracer.clock = probe.clock
        while True:
            b0 = time.perf_counter()
            batches.append(run_batch(tasks, len(batches), tracer, probe))
            last = time.perf_counter() - b0
            if max_batches and len(batches) >= max_batches:
                break
            if time.perf_counter() - start + last > seconds:
                break
    return {"workload": workload, "seed": seed, "batches": batches}


def versions() -> Dict[str, str]:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--batches", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = run_workload(args.workload, args.seed, args.seconds, args.batches, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["versions"] = versions()
    out = Path(args.out)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        spans_path = out.with_name(out.stem + "-spans.json")
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "task", "error"],
             "spans": tracer.spans}))
        result["spans_file"] = spans_path.name
    out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
