"""Benchmark workloads: seeded inputs, the tasks that run them, output checks.

Each workload is one closed-loop client: one process, one thread, tasks run
back to back, the next one starting when the previous one returns.  A task is
one `todamirror.cli.run(RunConfig(...))` call, or one public library call
where the CLI has no task for the computation (the q -> 0 factorisation).

Inputs come only from the workload seed: `plan(workload, seed)` gives the
same tasks for the same arguments and never looks at the program.  See
README.md in this directory for why each workload exists and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

WHY = {
    "census": "n = 3 critical tasks on default-law draws: Newton continuation "
              "over all 24 charts plus chart construction; no quadrature, "
              "almost no operator algebra; about 1 draw in 10 fails",
    "exact": "commute and mirror at n = 5, classical-limit at n = 3, virasoro: "
             "exact rational algebra only, each chart built once and checked "
             "exactly",
    "quadrature": "eigen tasks at n = 2 and n = 1 (Bessel oracle) plus the "
                  "criterion-6 q -> 0 factorisation points: the tensor "
                  "trapezoid kernel of integrals",
}
WORKLOADS = tuple(WHY)

CENSUS_N = 3
# Tasks per batch.  Task cost varies with the draw: an n = 3 census task
# takes 0.3-3 s, and an n = 2 eigen task 0.3 or 3 s by whether its grid
# stops at 65 or 129 nodes per axis, which flips under lambda changes of
# 1/256.  A batch of fully seeded draws therefore moves its run time by more
# than the bounds from one seed to the next.  So part of each sweep is an
# anchor: draws from the same law but from a stream that ignores --seed,
# which gives every seed, and every commit, the same core of work.  The
# seeded draws keep a change from being tuned to fixed inputs.  The n = 2
# eigen tasks are all anchors (one seeded draw alone moved run_s by 15%);
# the quadrature sweep that follows the seed is the n = 1 one.
CENSUS_ANCHOR, CENSUS_SEEDED = 10, 1
EIGEN_N2_ANCHOR = 6
EIGEN_N1_SEEDED = 16
HBAR = -1.0
# criterion 6 of the acceptance suite: (n, lambda, q values, largest first)
FACTORIZATION_POINTS: Tuple[Tuple[int, Tuple[float, ...], Tuple[float, ...]], ...] = (
    (1, (0.6, -0.6), (1e-4, 1e-6)),
    (2, (1.2, 0.0, -1.2), (1e-4, 1e-5)),
)
TOL_FACTORIZATION = 1e-3
# the n = 1 closed form against scipy's K_nu; they agree to ~1e-13
TOL_BESSEL_KV = 1e-10
MIN_PAIRWISE_DISTANCE = 1e-6


@dataclass(frozen=True)
class Task:
    """One unit of closed-loop work.  `kind` names the task kind whose time
    is summed into `<kind>_s`; `lam` and `q` are exact rationals for CLI
    tasks and floats for the factorisation call."""

    kind: str
    n: int
    lam: Optional[Tuple] = None
    q: Optional[Tuple] = None
    seed: int = 0

    def label(self) -> str:
        parts = [self.kind, f"n={self.n}"]
        if self.lam is not None:
            parts.append("lam=" + ",".join(str(x) for x in self.lam))
        if self.q is not None:
            parts.append("q=" + ",".join(str(x) for x in self.q))
        return " ".join(parts)


def draw_lambda(rng: random.Random, n: int) -> Tuple[Fraction, ...]:
    """The CLI's default law: lam_i = a/b, a in [-8, 8], b in [9, 16],
    lam_n = -sum, redrawn until distinct and nonzero."""
    while True:
        lam = [Fraction(rng.randint(-8, 8), rng.randint(9, 16)) for _ in range(n)]
        lam.append(-sum(lam))
        if len(set(lam)) == n + 1 and all(x != 0 for x in lam):
            return tuple(lam)


def draw_q(rng: random.Random, n: int) -> Tuple[Fraction, ...]:
    """The CLI's default law: q_i = k/16, k in [1, 16]."""
    return tuple(Fraction(rng.randint(1, 16), 16) for _ in range(n))


def plan(workload: str, seed: int) -> List[Task]:
    """The tasks of one batch.  Every batch of a run repeats them."""
    anchor = random.Random(f"{workload}:anchor")
    seeded = random.Random(f"{workload}:{seed}")

    if workload == "census":
        return [Task("critical", CENSUS_N, draw_lambda(rng, CENSUS_N), draw_q(rng, CENSUS_N))
                for rng, k in ((anchor, CENSUS_ANCHOR), (seeded, CENSUS_SEEDED))
                for _ in range(k)]
    if workload == "exact":
        return [Task("commute", 5), Task("mirror", 5), Task("classical_limit", 3),
                Task("virasoro", 2, seed=seeded.randrange(1 << 30))]
    if workload == "quadrature":
        one = (Fraction(1), Fraction(1))
        tasks = [Task("eigen", 2, draw_lambda(anchor, 2), one)
                 for _ in range(EIGEN_N2_ANCHOR)]
        tasks += [Task("eigen", 1, draw_lambda(seeded, 1), draw_q(seeded, 1))
                  for _ in range(EIGEN_N1_SEEDED)]
        tasks += [Task("factorization", n, lam, (q,))
                  for n, lam, qs in FACTORIZATION_POINTS for q in qs]
        return tasks
    raise ValueError(f"unknown workload {workload!r}")


CLI_TASK = {"critical": "critical", "commute": "commute", "mirror": "mirror",
            "classical_limit": "classical-limit", "virasoro": "virasoro",
            "eigen": "eigen"}


def execute(task: Task):
    """Run one task through the program; returns what `check` inspects."""
    from todamirror import cli, integrals, mirror

    if task.kind == "factorization":
        chart = mirror.make_chart(mirror.build_graph(task.n), (0,) * task.n)
        return integrals.q_to_zero_factorization(task.n, task.lam, HBAR, chart, task.q[0])
    cfg = cli.RunConfig(task=CLI_TASK[task.kind], n=task.n,
                        lam=list(task.lam) if task.lam is not None else None,
                        q=list(task.q) if task.q is not None else None,
                        seed=task.seed)
    return cfg, cli.run(cfg)


@dataclass
class Verdict:
    """The program's own pass flag (None for a call that has none), what the
    benchmark's checks found, and (residual, tolerance) pairs for the
    accuracy-headroom metric."""

    program_pass: Optional[bool]
    problems: List[str]
    residuals: List[Tuple[float, float]]


def margin(residuals: Sequence[Tuple[float, float]]) -> Optional[float]:
    """Smallest log10(tolerance / residual) over finite positive residuals,
    in decades.  An exact zero has unbounded headroom and is skipped."""
    vals = [math.log10(tol / r) for r, tol in residuals
            if math.isfinite(r) and r > 0 and tol > 0]
    return min(vals) if vals else None


def check(task: Task, output) -> Verdict:
    if task.kind == "factorization":
        mismatch = float(output[0])
        problems = [] if mismatch < TOL_FACTORIZATION else [
            f"factorisation mismatch {mismatch:.3e} >= {TOL_FACTORIZATION:g}"]
        return Verdict(None, problems, [(mismatch, TOL_FACTORIZATION)])
    cfg, report = output
    doc = report.to_dict()
    verdict = Verdict(bool(doc["pass"]), [], [])
    try:
        CHECKS[task.kind](task, cfg, doc["results"], verdict)
    except Exception as exc:  # a report the checks cannot read is a failed check
        verdict.problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return verdict


def _row(rows, key: str, value=None) -> Dict:
    """The first result row that has `key` (equal to `value` if given)."""
    for r in rows:
        if key in r and (value is None or r[key] == value):
            return r
    raise KeyError(f"no result row with {key}" + ("" if value is None else f" = {value}"))


def _check_critical(task, cfg, rows, v: Verdict) -> None:
    records = [r for r in rows if "k_sequence" in r]
    summary = _row(rows, "min_pairwise_distance")
    scaling = _row(rows, "check", "quasi_homogeneity")
    expected = math.factorial(task.n + 1)
    if len(records) != expected:
        v.problems.append(f"{len(records)} critical points, expected {expected}")
    if len({tuple(r["permutation"]) for r in records}) != expected:
        v.problems.append("chart permutations are not all distinct")
    if not all(r["nondegenerate"] for r in records):
        v.problems.append("degenerate critical point")
    if not summary["min_pairwise_distance"] > MIN_PAIRWISE_DISTANCE:
        v.problems.append(f"min pairwise distance {summary['min_pairwise_distance']:.3e}")
    for r in records:
        v.residuals.append((float(r["spectral_residual"]), cfg.tol_spectral))
        v.residuals.extend((float(x), cfg.tol_spectral) for x in r["lagrangian_residuals"])
    if any(not r < tol for r, tol in v.residuals):
        v.problems.append("spectral or relation residual above tolerance")
    v.residuals.append((float(scaling["residual"]), cfg.tol_scaling))


def _check_commute(task, cfg, rows, v: Verdict) -> None:
    expected = sum(m * (m + 1) // 2 + m + 1 for m in range(1, task.n + 1))
    if len(rows) != expected:
        v.problems.append(f"{len(rows)} commutators, expected {expected}")
    bad = [r["pair"] for r in rows if r["residual_terms"] != 0]
    if bad:
        v.problems.append(f"nonzero commutators {bad[:4]}")


def _check_mirror(task, cfg, rows, v: Verdict) -> None:
    expected = math.factorial(task.n + 1)
    charts = [r for r in rows if "chart" in r]
    if len(charts) != expected:
        v.problems.append(f"{len(charts)} charts, expected {expected}")
    if not all(r["multiset"] and r["relations"] and r["phase_consistency"] for r in charts):
        v.problems.append("chart check failed")
    if not _row(rows, "check", "weight_balance")["pass"]:
        v.problems.append("weight balance failed")
    count = _row(rows, "check", "permutation_bijection")["count"]
    if count != expected:
        v.problems.append(f"{count} permutations, expected {expected}")


def _check_classical_limit(task, cfg, rows, v: Verdict) -> None:
    perms = [r for r in rows if "permutation" in r]
    expected = sum(math.factorial(m + 1) for m in range(1, task.n + 1))
    if len(perms) != expected:
        v.problems.append(f"{len(perms)} fixed points, expected {expected}")
    if not all(r["match"] and r["orthogonal"] for r in perms):
        v.problems.append("classical-limit series mismatch")
    for r in rows:
        if r.get("check") == "stirling_numeric":
            v.residuals.append((float(r["error"]), float(r["bound"])))
            if not r["error"] <= r["bound"]:
                v.problems.append(f"Stirling remainder above bound at z={r['z']}")


def _check_virasoro(task, cfg, rows, v: Verdict) -> None:
    if not rows or not all(r["pass"] for r in rows):
        v.problems.append("Virasoro check failed")


def _check_eigen(task, cfg, rows, v: Verdict) -> None:
    tol = cfg.tol_eigen_n1 if task.n == 1 else cfg.tol_eigen_n2
    ops = [float(r["residual"]) for r in rows if "operator" in r]
    if len(ops) != task.n + 1:
        v.problems.append(f"{len(ops)} operator residuals, expected {task.n + 1}")
    if not all(r < tol for r in ops):
        v.problems.append("eigenvalue residual above tolerance")
    v.residuals.extend((r, tol) for r in ops)
    if task.n == 1:
        oracle = float(_row(rows, "check", "bessel_oracle")["relative_error"])
        v.residuals.append((oracle, cfg.tol_oracle))
        if not oracle < cfg.tol_oracle:
            v.problems.append(f"quadrature vs oracle {oracle:.3e}")
        rel = bessel_oracle_error(float(task.lam[0]), float(task.q[0]), cfg.hbar)
        if not rel < TOL_BESSEL_KV:
            v.problems.append(f"cosh-integral oracle vs scipy kv {rel:.3e}")


def bessel_oracle_error(lam0: float, q: float, hbar: float) -> float:
    """The package's n = 1 closed form against 2 K_nu(z) from scipy."""
    from scipy.special import kv
    from todamirror import integrals

    ref = 2.0 * float(kv(-2.0 * lam0 / hbar, -2.0 * math.sqrt(q) / hbar))
    return abs(integrals.whittaker_closed_form(lam0, q, hbar) - ref) / abs(ref)


CHECKS = {"critical": _check_critical, "commute": _check_commute,
          "mirror": _check_mirror, "classical_limit": _check_classical_limit,
          "virasoro": _check_virasoro, "eigen": _check_eigen}


def factorization_trend(entries: Sequence[Tuple[Task, Optional[float]]]) -> Dict[int, str]:
    """Criterion 6 also needs the mismatch to fall with q.  `entries` are
    (task, mismatch) in plan order; returns {index: problem} for each task
    whose mismatch did not fall below that of the larger q before it."""
    problems: Dict[int, str] = {}
    last: Dict[Tuple, Tuple[float, float]] = {}
    for idx, (task, mismatch) in enumerate(entries):
        if task.kind != "factorization" or mismatch is None:
            continue
        key = (task.n, task.lam)
        if key in last:
            q_prev, m_prev = last[key]
            if not mismatch < m_prev:
                problems[idx] = (f"mismatch {mismatch:.3e} at q={task.q[0]:g} does not "
                                 f"fall below {m_prev:.3e} at q={q_prev:g}")
        last[key] = (task.q[0], mismatch)
    return problems
