"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=None, error=None):
    return [name, start, end, parent, "0:0", error]


def test_self_time_arithmetic_on_a_span_tree():
    spans = [
        span("cli.run", 0.0, 10.0),
        span("critical.census", 1.0, 7.0, 0),
        span("critical.continue_to", 2.0, 5.0, 1),
        span("mirror.phase_in_chart", 2.5, 3.0, 2),
        span("critical.census", 5.5, 6.5, 1),
        span("mirror.make_chart", 8.0, 9.5, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [10 - 6 - 1.5, 6 - 3 - 1, 3 - 0.5, 0.5, 1.0, 1.5]
    assert sum(selfs) == 10.0
    # nested spans of one name count once
    assert tracing.outer_time(spans, ["critical.census"]) == 6.0
    assert tracing.outer_time(spans, ["critical.census", "critical.continue_to"]) == 6.0
    assert tracing.layer_self(spans, selfs, "critical.") == 2 + 2.5 + 1.0
    assert tracing.layer_self(spans, selfs, "mirror.") == 2.0


def test_escaped_errors_count_only_errors_leaving_the_layer():
    spans = [
        span("cli.run", 0, 4, None, "CriticalPointError"),
        span("critical.census", 0, 3, 0, "CriticalPointError"),
        span("critical.continue_to", 0, 1, 1, "ContinuationError"),
    ]
    assert dict(tracing.escaped_errors(spans, "critical.")) == {"CriticalPointError": 1}


def test_failing_continuation_is_counted_and_the_run_goes_on(monkeypatch):
    from todamirror import critical

    def broken(*args, **kwargs):
        raise critical.ContinuationError("forced failure")

    monkeypatch.setattr(critical, "continue_to", broken)
    monkeypatch.setattr(workloads, "CENSUS_ANCHOR", 1)
    monkeypatch.setattr(workloads, "CENSUS_SEEDED", 1)
    result = worker.run_workload("census", seed=0, seconds=0, max_batches=1)
    tasks = run.tasks_of(result)
    assert [t["status"] for t in tasks] == ["error", "error"]
    assert all(t["error"].startswith("CriticalPointError") for t in tasks)
    assert run.end_to_end(dict(result, peak_rss_mb=1.0), [0.1])["pass_frac"] == 0.0

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        worker.run_workload("census", seed=0, seconds=0, max_batches=1, tracer=tracer)
    finally:
        uninstall()
    layers = tracing.layer_metrics(tracer)
    assert layers["critical.errors.CriticalPointError"] == 2
    assert layers["critical.continue_to.failed"] == layers["critical.continue_to.calls"] > 0


def test_one_seed_regenerates_identical_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.plan(name, 7) == workloads.plan(name, 7)
    assert workloads.plan("census", 7) != workloads.plan("census", 8)
    assert workloads.plan("quadrature", 7) != workloads.plan("quadrature", 8)


def test_default_law_draws_are_valid():
    import random

    rng = random.Random(3)
    for _ in range(200):
        lam = workloads.draw_lambda(rng, 3)
        assert sum(lam) == 0 and len(set(lam)) == 4 and 0 not in lam
        assert all(Fraction(1, 16) <= q <= 1 for q in workloads.draw_q(rng, 3))


def cli_outcome(task, passed, rows):
    """A finished task whose report says `passed` and holds `rows`."""
    from todamirror import cli

    report = cli.VerificationReport(task=task, params={}, results=rows, residuals=[],
                                    passed=passed, runtime_ms=0, version="test")
    return {"seconds": 0.0, "output": (cli.RunConfig(task=task, n=1), report),
            "error": None}


def test_a_pass_flag_contradicted_by_the_output_is_wrong():
    rows = [{"n": 1, "pair": p, "residual_terms": 0} for p in ("D1,D2", "H,D1", "H,D2")]
    rows[1]["residual_terms"] = 2
    row = worker.assess(workloads.Task("commute", 1), cli_outcome("commute", True, rows))
    assert row["status"] == "wrong" and row["problems"]


def test_an_unreadable_report_is_wrong_if_it_says_pass_and_a_failure_if_not():
    task = workloads.Task("mirror", 1)
    rows = [{"chart": 0, "multiset": True, "relations": True, "phase_consistency": True}]
    row = worker.assess(task, cli_outcome("mirror", True, rows))
    assert row["status"] == "wrong" and "no result row" in row["problems"][-1]
    assert worker.assess(task, cli_outcome("mirror", False, rows))["status"] == "fail"


def test_a_factorization_mismatch_above_tolerance_is_wrong():
    task = workloads.Task("factorization", 2, (1.2, 0.0, -1.2), (1e-4,))
    outcome = {"seconds": 0.0, "output": (2e-3, 1.0, 1.0), "error": None}
    row = worker.assess(task, outcome)
    assert row["status"] == "wrong" and "2.000e-03" in row["problems"][0]


def test_factorization_mismatch_must_fall_with_q():
    task = workloads.Task("factorization", 2, (1.2, 0.0, -1.2), (1e-4,))
    smaller = workloads.Task("factorization", 2, (1.2, 0.0, -1.2), (1e-5,))
    assert workloads.factorization_trend([(task, 8e-4), (smaller, 9e-5)]) == {}
    assert list(workloads.factorization_trend([(task, 8e-4), (smaller, 9e-4)])) == [1]


def test_margin_skips_exact_zeros():
    assert workloads.margin([(0.0, 1e-8), (1e-12, 1e-8), (1e-10, 1e-8)]) == pytest.approx(2.0)
    assert workloads.margin([(0.0, 1e-8)]) is None


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == {n: (run.unit(n), run.better(n)) for n in run.END_TO_END}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {n: (run.unit(n), run.better(n)) for n in run.PER_LAYER}
