"""Benchmark entry point.

    python3 bench/run.py --workload census --seed 3 --seconds 30 --trace 0

Run from the root of a checkout.  It times fresh-interpreter imports of the
package (set-up), runs the workload in a fresh process (`worker.py`), prints
every metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one batch
untraced and then the same batch traced, each in its own process, and
reports the per-layer metrics plus the tracing overhead.  Every time except
`setup_s` is wall time rescaled to a nominal machine speed by the speed
probe (`probe.py`); the raw wall time is printed and recorded too.  The
exit code is 1
when an output check finds a wrong result, 2 when the checkout has no
program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import workloads  # noqa: E402

SETUP_IMPORT = "import todamirror"
SETUP_REPEATS = 3  # timed imports before the workload, and again after it
CHILD_TIMEOUT_S = 170
KINDS = ("commute", "mirror", "classical_limit", "virasoro", "eigen", "factorization")

END_TO_END = {
    "setup_s": "s", "run_s": "s", "pass_frac": "fraction",
    "residual_margin": "decades", "peak_rss_mb": "MB",
}
PER_LAYER = [
    "cli.self_s",
    "mirror.make_chart.calls", "mirror.make_chart.s", "mirror.phase_in_chart.calls",
    "mirror.phase_in_chart.s", "mirror.chart_checks.s", "mirror.self_s",
    "critical.census.s", "critical.scaling_residual.s", "critical.uv_identity_check.s",
    "critical.residual_checks.s", "critical.continue_to.calls",
    "critical.continue_to.self_s", "critical.continue_to.failed", "critical.track_yield",
    "critical.self_s", "critical.errors.CriticalPointError",
    "critical.errors.ContinuationError", "critical.errors.DegenerateParameterError",
    "critical.errors.other", "critical.degenerate",
    "integrals.eigen_residual.calls", "integrals.eigen_residual.s",
    "integrals.evaluate.calls", "integrals.evaluate.s", "integrals.evaluations",
    "integrals.evals_per_s", "integrals.oracle_s", "integrals.self_s",
    "integrals.nodes_per_axis.max", "integrals.grid_mb.max",
    "operators.commutator.calls", "operators.commutator.s", "operators.build.s",
    "operators.self_s", "exact.terms",
    "semiclassical.verify_classical_limit.calls", "semiclassical.verify_classical_limit.s",
    "semiclassical.self_s",
    "virasoro.quantize.s", "virasoro.commutation_check.s",
    "virasoro.family_bracket_check.s", "virasoro.self_s",
    *[f"{kind}_s" for kind in KINDS], "task_s.p50",
    "trace.overhead_s", "trace.spans",
]


def unit(name: str) -> str:
    special = {**END_TO_END, "critical.track_yield": "ratio",
               "integrals.evals_per_s": "1/s", "integrals.grid_mb.max": "MB"}
    if name in special:
        return special[name]
    if name.endswith("_s") or name.endswith(".s") or name.endswith(".p50"):
        return "s"
    return "count"


def better(name: str) -> str:
    higher = ("pass_frac", "residual_margin", "critical.track_yield", "integrals.evals_per_s")
    return "higher" if name in higher else "lower"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def loadavg() -> Optional[str]:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "todamirror").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def measure_setup(env: Dict[str, str], count: int) -> List[float]:
    """Fresh interpreters from start to a finished import.  The child reads
    the clock itself once the import is done, so neither its exit nor the
    parent's wait is counted."""
    cmd = [sys.executable, "-c", SETUP_IMPORT + "; import time; print(time.time())"]
    times = []
    for _ in range(count):
        start = time.time()
        done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(float(done.stdout) - start)
    return times


def run_worker(args, trace: int, batches: int, env: Dict[str, str]) -> Dict:
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-worker{trace}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--batches", str(batches), "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(out.read_text())


def speed(batch: Dict) -> float:
    """Factor that takes the batch's seconds to the nominal machine speed
    (see probe.py)."""
    return probe.REFERENCE_S / batch["probe_s"]


def batch_median(result: Dict, kind: Optional[str] = None, rescale: bool = True) -> float:
    """Median over the run's batches of the batch's (or one kind's) seconds,
    at the nominal machine speed unless `rescale` is false."""
    return statistics.median(
        sum(t["seconds"] for t in b["tasks"] if kind is None or t["kind"] == kind)
        * (speed(b) if rescale else 1.0)
        for b in result["batches"])


def tasks_of(result: Dict) -> List[Dict]:
    return [t for b in result["batches"] for t in b["tasks"]]


def end_to_end(result: Dict, setup: List[float]) -> Dict[str, float]:
    tasks = tasks_of(result)
    passed = sum(1 for t in tasks if t["status"] == "pass")
    margins = [t["margin"] for t in tasks if t["status"] == "pass" and t["margin"] is not None]
    return {
        "setup_s": statistics.median(setup),
        "run_s": batch_median(result),
        "pass_frac": passed / len(tasks),
        "residual_margin": min(margins) if margins else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(untraced: Dict, traced: Dict) -> Dict[str, float]:
    """Layer metrics from the traced batch, task times from the untraced
    one; every time at the nominal machine speed."""
    factor = speed(traced["batches"][0])
    m = {name: value * factor if unit(name) == "s" else value
         for name, value in traced["layers"].items()}
    m["integrals.evals_per_s"] /= factor
    for kind in KINDS:
        m[f"{kind}_s"] = batch_median(untraced, kind)
    m["task_s.p50"] = statistics.median(
        t["seconds"] * speed(b) for b in untraced["batches"] for t in b["tasks"])
    m["trace.overhead_s"] = batch_median(traced) - batch_median(untraced)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="todamirror benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "todamirror" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'todamirror'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_commit": git_commit(), "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "loadavg_start": loadavg(),
    }
    if args.trace:
        untraced = run_worker(args, 0, 1, env)
        result = run_worker(args, 1, 1, env)
        record.update(run_wall_s=batch_median(untraced, rescale=False),
                      traced_wall_s=batch_median(result, rescale=False))
        metrics = per_layer(untraced, result)
        names = PER_LAYER
    else:
        # the first import compiles bytecode and fills the file cache; half
        # the timed imports come after the workload, so that set-up is
        # sampled at both ends of the run on a machine whose speed drifts
        measure_setup(env, 1)
        setup = measure_setup(env, SETUP_REPEATS)
        result = run_worker(args, 0, 0, env)
        setup += measure_setup(env, SETUP_REPEATS)
        record.update(setup_runs_s=setup, run_wall_s=batch_median(result, rescale=False))
        metrics = end_to_end(result, setup)
        names = list(END_TO_END)
    record.update(loadavg_end=loadavg(), versions=result["versions"],
                  metrics=metrics, batches=result["batches"])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    tasks = tasks_of(result)
    failed = [t for t in tasks if t["status"] != "pass"]
    wrong = [t for t in tasks if t["status"] == "wrong"]
    v = record["versions"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {record['git_commit']}  source {record['source_sha256']}")
    print(f"python {v['python']}  numpy {v['numpy']}  scipy {v['scipy']}  "
          f"nproc {record['nproc']}  blas threads {record['blas_threads']}  "
          f"loadavg {record['loadavg_start']} -> {record['loadavg_end']}")
    print(f"batches {len(result['batches'])}  tasks {len(tasks)}  failed {len(failed)}")
    probe_ms = statistics.median(b["probe_s"] for b in result["batches"]) * 1e3
    print(f"wall seconds per batch {record['run_wall_s']:.6g}  speed probe "
          f"{probe_ms:.4g} ms (nominal {probe.REFERENCE_S * 1e3:g} ms)")
    for t in failed:
        detail = t.get("error") or "; ".join(t["problems"]) or "program reported pass: false"
        print(f"  {t['status']}: {t['label']}: {detail}")
    for name in names:
        print(f"{name} = {metrics[name]:.6g} {unit(name)}")
    print(json.dumps({
        "correct": not wrong, "attempted": len(tasks), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit(name)} for name in names},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
