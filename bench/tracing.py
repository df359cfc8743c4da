"""Spans around the calls into each module's public functions.

Only a traced run installs the wrappers.  Each function is wrapped at the
binding its caller looks up at call time (`critical.make_chart`,
`integrals.make_chart` and the `mi.make_chart` that `cli` uses are three
bindings of one function), so the program itself is not changed.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# A span is [name, start, end, parent index or None, task id, error type or None].
NAME, START, END, PARENT, TASK, ERROR = range(6)

CRITICAL_ERRORS = ("CriticalPointError", "ContinuationError", "DegenerateParameterError")


class Tracer:
    """In-memory span recorder plus counters taken from returned values."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.task: Optional[str] = None
        self.enabled = True
        self.clock: Callable[[], float] = time.perf_counter
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None,
                    tracer.task, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = tracer.clock()
                tracer.stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced


# -- counters read from returned values ----------------------------------------

def _observe_census(tracer: Tracer, args, result) -> None:
    tracer.counts["critical.records"] += len(result.records)
    tracer.counts["critical.degenerate"] += sum(1 for r in result.records if not r.nondegenerate)


def _grid(tracer: Tracer, n: int, nodes: int, evaluations: int) -> None:
    tracer.counts["integrals.evaluations"] += evaluations
    dim = n * (n + 1) // 2
    tracer.maxima["integrals.nodes_per_axis.max"] = max(
        tracer.maxima["integrals.nodes_per_axis.max"], nodes)
    tracer.maxima["integrals.grid_mb.max"] = max(
        tracer.maxima["integrals.grid_mb.max"], nodes ** dim * 8 / 1e6)


def _observe_eigen(tracer: Tracer, args, result) -> None:
    _grid(tracer, result.n, result.nodes_per_axis, result.evaluations)


def _observe_evaluate(tracer: Tracer, args, result) -> None:
    _grid(tracer, args[0].n, result.nodes_per_axis, result.evaluations)


def _observe_operators(tracer: Tracer, args, result) -> None:
    ops = result if isinstance(result, list) else [result]
    tracer.counts["exact.terms"] += sum(len(c.terms) for op in ops for c in op.terms.values())


# (owner, attribute, span name, observer).  The owner is the module or class
# whose attribute the caller resolves.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("todamirror.cli", "run", "cli.run", None),
    ("todamirror.mirror", "make_chart", "mirror.make_chart", None),
    ("todamirror.critical", "make_chart", "mirror.make_chart", None),
    ("todamirror.integrals", "make_chart", "mirror.make_chart", None),
    ("todamirror.critical", "phase_in_chart", "mirror.phase_in_chart", None),
    ("todamirror.integrals", "phase_in_chart", "mirror.phase_in_chart", None),
    ("todamirror.mirror", "build_graph", "mirror.build_graph", None),
    ("todamirror.mirror", "phase_consistency", "mirror.phase_consistency", None),
    ("todamirror.mirror", "weight_balance_ok", "mirror.weight_balance_ok", None),
    ("todamirror.mirror:SigmaChart", "relations_hold", "mirror.relations_hold", None),
    ("todamirror.mirror:SigmaChart", "rho_multiset_ok", "mirror.rho_multiset_ok", None),
    ("todamirror.mirror:SigmaChart", "report", "mirror.chart_report", None),
    ("todamirror.critical", "census", "critical.census", _observe_census),
    ("todamirror.critical", "scaling_residual", "critical.scaling_residual", None),
    ("todamirror.critical", "uv_identity_check", "critical.uv_identity_check", None),
    ("todamirror.critical", "spectral_check", "critical.spectral_check", None),
    ("todamirror.critical", "to_lagrangian", "critical.to_lagrangian", None),
    ("todamirror.critical", "continue_to", "critical.continue_to", None),
    ("todamirror.critical:CriticalPointRecord", "report", "critical.record_report", None),
    ("todamirror.integrals", "eigen_residual", "integrals.eigen_residual", _observe_eigen),
    ("todamirror.integrals", "evaluate", "integrals.evaluate", _observe_evaluate),
    ("todamirror.integrals", "whittaker_closed_form", "integrals.whittaker_closed_form", None),
    ("todamirror.integrals", "q_to_zero_factorization", "integrals.q_to_zero_factorization", None),
    ("todamirror.operators", "commutator", "operators.commutator", _observe_operators),
    ("todamirror.operators", "toda_operators", "operators.toda_operators", _observe_operators),
    ("todamirror.operators", "build_hamiltonian", "operators.build_hamiltonian", _observe_operators),
    ("todamirror.operators", "toda_polynomials", "operators.toda_polynomials", None),
    ("todamirror.semiclassical", "verify_classical_limit", "semiclassical.verify_classical_limit", None),
    ("todamirror.semiclassical", "stirling_numeric_residual", "semiclassical.stirling_numeric_residual", None),
    ("todamirror.virasoro", "quantize", "virasoro.quantize", None),
    ("todamirror.virasoro", "point_virasoro", "virasoro.point_virasoro", None),
    ("todamirror.virasoro", "loop_d_operator", "virasoro.loop_d_operator", None),
    ("todamirror.virasoro", "commutation_check", "virasoro.commutation_check", None),
    ("todamirror.virasoro", "family_bracket_check", "virasoro.family_bracket_check", None),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns the function that restores the originals."""
    undo = []
    for owner_path, attr, name, observe in TARGETS:
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(name, original, observe))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- span arithmetic ----------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another inside it (one thread), so the
    time they cover is the sum of their durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def outer_time(spans: List[list], names: Iterable[str]) -> float:
    """Wall time inside spans named in `names`, counting nested ones once."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p is not None and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p is None:
            total += s[END] - s[START]
    return total


def calls(spans: List[list], name: str) -> int:
    return sum(1 for s in spans if s[NAME] == name)


def layer_self(spans: List[list], selfs: List[float], prefix: str) -> float:
    return sum(t for s, t in zip(spans, selfs) if s[NAME].startswith(prefix))


def escaped_errors(spans: List[list], prefix: str) -> Dict[str, int]:
    """Exceptions that left the layer: raised by a span of the layer whose
    caller is outside it."""
    out: Dict[str, int] = defaultdict(int)
    for s in spans:
        if s[ERROR] and s[NAME].startswith(prefix):
            if s[PARENT] is None or not spans[s[PARENT]][NAME].startswith(prefix):
                out[s[ERROR]] += 1
    return out


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric the benchmark declares, from one traced run."""
    spans = tracer.spans
    selfs = self_times(spans)
    m: Dict[str, float] = {}
    m["cli.self_s"] = layer_self(spans, selfs, "cli.")

    m["mirror.make_chart.calls"] = calls(spans, "mirror.make_chart")
    m["mirror.make_chart.s"] = outer_time(spans, ["mirror.make_chart"])
    m["mirror.phase_in_chart.calls"] = calls(spans, "mirror.phase_in_chart")
    m["mirror.phase_in_chart.s"] = outer_time(spans, ["mirror.phase_in_chart"])
    m["mirror.chart_checks.s"] = outer_time(spans, [
        "mirror.relations_hold", "mirror.rho_multiset_ok",
        "mirror.phase_consistency", "mirror.weight_balance_ok"])
    m["mirror.self_s"] = layer_self(spans, selfs, "mirror.")

    for fn in ("census", "scaling_residual", "uv_identity_check"):
        m[f"critical.{fn}.s"] = outer_time(spans, [f"critical.{fn}"])
    m["critical.residual_checks.s"] = outer_time(
        spans, ["critical.spectral_check", "critical.to_lagrangian"])
    tracks = calls(spans, "critical.continue_to")
    m["critical.continue_to.calls"] = tracks
    m["critical.continue_to.self_s"] = sum(
        t for s, t in zip(spans, selfs) if s[NAME] == "critical.continue_to")
    m["critical.continue_to.failed"] = sum(
        1 for s in spans if s[NAME] == "critical.continue_to" and s[ERROR])
    m["critical.track_yield"] = tracer.counts["critical.records"] / tracks if tracks else 0.0
    m["critical.self_s"] = layer_self(spans, selfs, "critical.")
    errors = escaped_errors(spans, "critical.")
    for name in CRITICAL_ERRORS:
        m[f"critical.errors.{name}"] = errors.pop(name, 0)
    m["critical.errors.other"] = sum(errors.values())
    m["critical.degenerate"] = tracer.counts["critical.degenerate"]

    m["integrals.eigen_residual.calls"] = calls(spans, "integrals.eigen_residual")
    m["integrals.eigen_residual.s"] = outer_time(spans, ["integrals.eigen_residual"])
    m["integrals.evaluate.calls"] = calls(spans, "integrals.evaluate")
    m["integrals.evaluate.s"] = outer_time(spans, ["integrals.evaluate"])
    m["integrals.evaluations"] = tracer.counts["integrals.evaluations"]
    kernel_s = outer_time(spans, ["integrals.eigen_residual", "integrals.evaluate"])
    m["integrals.evals_per_s"] = m["integrals.evaluations"] / kernel_s if kernel_s else 0.0
    m["integrals.oracle_s"] = outer_time(spans, ["integrals.whittaker_closed_form"])
    m["integrals.self_s"] = layer_self(spans, selfs, "integrals.")
    m["integrals.nodes_per_axis.max"] = tracer.maxima["integrals.nodes_per_axis.max"]
    m["integrals.grid_mb.max"] = tracer.maxima["integrals.grid_mb.max"]

    m["operators.commutator.calls"] = calls(spans, "operators.commutator")
    m["operators.commutator.s"] = outer_time(spans, ["operators.commutator"])
    m["operators.build.s"] = outer_time(spans, [
        "operators.toda_operators", "operators.build_hamiltonian", "operators.toda_polynomials"])
    m["operators.self_s"] = layer_self(spans, selfs, "operators.")
    m["exact.terms"] = tracer.counts["exact.terms"]

    m["semiclassical.verify_classical_limit.calls"] = calls(
        spans, "semiclassical.verify_classical_limit")
    m["semiclassical.verify_classical_limit.s"] = outer_time(
        spans, ["semiclassical.verify_classical_limit"])
    m["semiclassical.self_s"] = layer_self(spans, selfs, "semiclassical.")

    for fn in ("quantize", "commutation_check", "family_bracket_check"):
        m[f"virasoro.{fn}.s"] = outer_time(spans, [f"virasoro.{fn}"])
    m["virasoro.self_s"] = layer_self(spans, selfs, "virasoro.")
    m["trace.spans"] = len(spans)
    return {k: float(v) for k, v in m.items()}
