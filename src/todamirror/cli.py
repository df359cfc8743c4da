"""Command-line front end and machine-readable reporting.

Subcommands: commute | mirror | critical | eigen | classical-limit |
virasoro | all.  Exit code 0 when every residual passes its tolerance, 1 on
failure (a solver failure in `critical` is reported as a `failure` row, and
a failed check in its `failed` list), 2 on invalid input.  Reports serialize
deterministically (same config and seed give the same content) with
rationals as "num/den" strings and complex numbers as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import shlex
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .exact import format_rational, parse_rational
from . import operators as ops
from . import mirror as mi
from . import critical as cr
from . import integrals as ig
from . import semiclassical as sc
from . import virasoro as vi

TASKS = ("commute", "mirror", "critical", "eigen", "classical-limit", "virasoro", "all")


class InvalidInput(ValueError):
    pass


@dataclass
class RunConfig:
    task: str
    n: int = 2
    lam: Optional[List[Fraction]] = None
    q: Optional[List[Fraction]] = None
    hbar: float = -1.0
    truncation: int = 4
    stirling_order: int = 4
    tol_spectral: float = 1e-8
    tol_eigen_n1: float = 1e-8
    tol_eigen_n2: float = 1e-8
    tol_oracle: float = 1e-8
    tol_scaling: float = 1e-8
    chart: Optional[Tuple[int, ...]] = None
    seed: int = 0
    output: Optional[str] = None
    fmt: str = "json"
    argv: List[str] = field(default_factory=list)

    def validate(self) -> None:
        if self.task not in TASKS:
            raise InvalidInput(f"unknown task {self.task!r}")
        if self.n < 1:
            raise InvalidInput("n must be >= 1")
        if self.lam is not None:
            if len(self.lam) != self.n + 1:
                raise InvalidInput(f"lambda needs {self.n + 1} entries")
            if sum(self.lam) != 0:
                raise InvalidInput("lambda must sum to zero exactly")
            if self.task in ("critical", "eigen") and len(set(self.lam)) != self.n + 1:
                raise InvalidInput("lambda entries must be distinct for this task")
        if self.q is not None:
            if len(self.q) != self.n:
                raise InvalidInput(f"q needs {self.n} entries")
            if any(x <= 0 for x in self.q):
                raise InvalidInput("q entries must be positive")
        if self.hbar >= 0:
            raise InvalidInput("hbar must be negative")
        if self.fmt not in ("json", "text"):
            raise InvalidInput("format must be json or text")
        if self.task == "eigen" and self.n > 2:
            raise InvalidInput("eigen quadrature supports n <= 2")
        if self.chart is not None and self.chart not in mi.all_k_sequences(self.n):
            raise InvalidInput(f"{list(self.chart)} is not a k-sequence for n = {self.n}")


@dataclass
class VerificationReport:
    task: str
    params: dict
    results: List[dict]
    residuals: List[float]
    passed: bool
    runtime_ms: int
    version: str
    warnings: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        summary = {
            "max": max(self.residuals) if self.residuals else None,
            "median": (sorted(self.residuals)[len(self.residuals) // 2]
                       if self.residuals else None),
        }
        return {
            "task": self.task,
            "params": self.params,
            "results": self.results,
            "residuals": {"values": self.residuals, **summary},
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
            "version": self.version,
            "warnings": self.warnings,
        }


def emit_report(report: VerificationReport, fmt: str) -> str:
    doc = report.to_dict()
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            lines.append(f"{prefix} = {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix} = {json.dumps(value)}")

    walk("", doc)
    return "\n".join(lines) + "\n"


def _fractions(text: str) -> List[Fraction]:
    return [parse_rational(tok) for tok in text.split(",") if tok.strip()]


def _default_lambda(n: int, seed: int) -> List[Fraction]:
    rng = random.Random(seed)
    while True:
        lam = [Fraction(rng.randint(-8, 8), rng.randint(9, 16)) for _ in range(n)]
        lam.append(-sum(lam))
        if len(set(lam)) == n + 1 and all(x != 0 for x in lam):
            return lam


def _default_q(n: int, seed: int) -> List[Fraction]:
    rng = random.Random(seed + 1)
    return [Fraction(rng.randint(1, 16), 16) for _ in range(n)]


# ---------------------------------------------------------------------------
# Task runners: each returns (results, residuals, passed, warnings).
# ---------------------------------------------------------------------------

def run_commute(cfg: RunConfig):
    results, residuals = [], []
    for n in range(1, cfg.n + 1):
        d_ops = ops.toda_operators(n)
        ham = ops.build_hamiltonian(n)
        for i in range(len(d_ops)):
            for j in range(i + 1, len(d_ops)):
                comm = ops.commutator(d_ops[i], d_ops[j])
                results.append({"n": n, "pair": f"D{i+1},D{j+1}",
                                "residual_terms": len(comm.terms)})
                residuals.append(float(len(comm.terms)))
        for i in range(len(d_ops)):
            comm = ops.commutator(ham, d_ops[i])
            results.append({"n": n, "pair": f"H,D{i+1}",
                            "residual_terms": len(comm.terms)})
            residuals.append(float(len(comm.terms)))
    return results, residuals, all(r == 0 for r in residuals), []


def run_mirror(cfg: RunConfig):
    results, residuals = [], []
    graph = mi.build_graph(cfg.n)
    ok = mi.weight_balance_ok(graph)
    results.append({"check": "weight_balance", "pass": ok})
    residuals.append(0.0 if ok else 1.0)
    perms = set()
    for kseq in mi.all_k_sequences(cfg.n):
        chart = mi.make_chart(graph, kseq)
        flags = {
            "multiset": chart.rho_multiset_ok(),
            "relations": chart.relations_hold(),
            "phase_consistency": mi.phase_consistency(chart),
        }
        perms.add(chart.permutation)
        results.append({"chart": chart.report(), **flags})
        residuals.append(0.0 if all(flags.values()) else 1.0)
    bijection = len(perms) == math.factorial(cfg.n + 1)
    results.append({"check": "permutation_bijection", "count": len(perms),
                    "pass": bijection})
    residuals.append(0.0 if bijection else 1.0)
    return results, residuals, all(r == 0 for r in residuals), []


def run_critical(cfg: RunConfig):
    lam = cfg.lam or _default_lambda(cfg.n, cfg.seed)
    q = cfg.q or _default_q(cfg.n, cfg.seed)
    lam_f = [float(x) for x in lam]
    q_f = [float(x) for x in q]
    stage = "census"
    try:
        census = cr.census(cfg.n, lam_f, q_f)
        stage = "quasi_homogeneity"
        scaling = max(cr.scaling_residual(census.records, c) for c in (2.0, 1.0 / 3.0))
    except (cr.ContinuationError, cr.CriticalPointError, cr.DegenerateParameterError) as exc:
        chart = list(exc.chart) if exc.chart is not None else None
        failure = {"stage": stage, "chart": chart, "error": type(exc).__name__,
                   "message": str(exc)}
        return [{"failure": failure}], [], False, []
    results = []
    for rec, point in zip(census.records, census.points):
        row = rec.report()
        row["spectral_residual"] = point.max_residual
        row["lagrangian_residuals"] = point.residuals
        results.append(row)
    uv = cr.uv_identity_check(cfg.n)
    degenerate = [list(r.chart.kseq) for r in census.records if not r.nondegenerate]
    checks = {
        "count": census.count == census.expected,
        "distinct": census.min_pairwise_distance > cr.COLLISION_DISTANCE,
        "nondegenerate": not degenerate,
        "spectral": census.max_spectral_residual < cfg.tol_spectral,
        "lagrangian": census.max_lagrangian_residual < cfg.tol_spectral,
        "scaling": scaling < cfg.tol_scaling,
        "uv_identity": uv,
    }
    failed = [name for name, ok in checks.items() if not ok]
    results.append({
        "count": census.count, "expected": census.expected,
        "min_pairwise_distance": census.min_pairwise_distance,
        "all_nondegenerate": census.all_nondegenerate,
        "degenerate_charts": degenerate, "failed": failed,
    })
    results.append({"check": "quasi_homogeneity", "residual": scaling})
    results.append({"check": "uv_identity", "pass": uv})
    residuals = [census.max_spectral_residual, census.max_lagrangian_residual, scaling]
    return results, residuals, not failed, []


def run_eigen(cfg: RunConfig):
    lam = cfg.lam or ([Fraction(1, 2), Fraction(-1, 2)] if cfg.n == 1
                      else _default_lambda(cfg.n, cfg.seed))
    q = cfg.q or [Fraction(1)] * cfg.n
    lam_f = [float(x) for x in lam]
    x = [math.log(float(v)) for v in q]
    t = [0.0] * (cfg.n + 1)
    for i in range(1, cfg.n + 1):
        t[i] = t[i - 1] + x[i - 1]
    shift = sum(t) / (cfg.n + 1)
    t = [v - shift for v in t]
    chart = mi.make_chart(mi.build_graph(cfg.n), cfg.chart) if cfg.chart else None
    rep = ig.eigen_residual(cfg.n, lam_f, cfg.hbar, t, chart=chart)
    results = [{"operator": f"D{i+1}", "residual": float(r)}
               for i, r in enumerate(rep.residuals)]
    residuals = [float(r) for r in rep.residuals]
    tol = cfg.tol_eigen_n1 if cfg.n == 1 else cfg.tol_eigen_n2
    passed = all(r < tol for r in residuals)
    warnings = []
    if cfg.n == 1:
        oracle = ig.whittaker_closed_form(lam_f[0], float(q[0]), cfg.hbar)
        rel = float(abs(rep.base_value - oracle) / abs(oracle))
        results.append({"check": "bessel_oracle", "relative_error": rel})
        residuals.append(rel)
        passed = passed and rel < cfg.tol_oracle
    results.append({"quadrature": {"nodes_per_axis": rep.nodes_per_axis,
                                   "evaluations": rep.evaluations,
                                   "levels": rep.levels, "error": rep.error}})
    return results, residuals, passed, warnings


def run_classical_limit(cfg: RunConfig):
    results, residuals = [], []
    for n in range(1, cfg.n + 1):
        for perm in itertools.permutations(range(n + 1)):
            rep = sc.verify_classical_limit(n, perm, cfg.stirling_order)
            results.append({"n": n, "permutation": list(perm), "match": rep.match,
                            "orthogonal": rep.orthogonal,
                            "first_mismatch": rep.first_mismatch})
            residuals.append(0.0 if rep.ok else 1.0)
    for z in (5.0, 10.0):
        err, bound = sc.stirling_numeric_residual(cfg.stirling_order, z)
        results.append({"check": "stirling_numeric", "z": z, "error": err,
                        "bound": bound, "pass": err <= bound})
        residuals.append(0.0 if err <= bound else 1.0)
    return results, residuals, all(r == 0 for r in residuals), []


def run_virasoro(cfg: RunConfig):
    results, residuals = [], []
    M = max(cfg.truncation, 4)
    for m in (-1, 0, 1, 2):
        same = vi.quantize(vi.loop_d_operator(m), M) == vi.point_virasoro(m, M)
        results.append({"check": "quantize_matches_table", "m": m, "pass": same})
        residuals.append(0.0 if same else 1.0)
    for m in (-1, 0, 1, 2):
        for mp in (-1, 0, 1, 2):
            if m >= mp or m + mp < -1:
                continue
            r = vi.commutation_check(m, mp, max_index=M)
            results.append({"check": "commutator", "pair": [m, mp],
                            "window": r.window,
                            "scalar": format_rational(r.scalar),
                            "expected": format_rational(r.expected_scalar),
                            "leftover_terms": r.leftover_terms,
                            "pass": r.ok})
            residuals.append(0.0 if r.ok else 1.0)
    rng = random.Random(cfg.seed)
    for N in (1, 2, 3):
        mu = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(N)]
        rho = [[Fraction(0)] * N for _ in range(N)]
        for i in range(N):
            for j in range(i):
                rho[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for m in (-1, 0, 1, 2):
            for mp in (-1, 0, 1, 2):
                if m >= mp or m + mp < -1:
                    continue
                res = vi.family_bracket_check(mu, rho, m, mp, range(-6, 7))
                results.append({"check": "family_bracket", "N": N, "pair": [m, mp],
                                "coefficient": res.coefficient, "pass": res.exact})
                residuals.append(0.0 if res.exact else 1.0)
    return results, residuals, all(r == 0 for r in residuals), []


def run_all(cfg: RunConfig):
    import dataclasses

    results, residuals, warnings = [], [], []
    passed = True
    for task, runner in (("commute", run_commute), ("mirror", run_mirror),
                         ("critical", run_critical), ("eigen", run_eigen),
                         ("classical-limit", run_classical_limit),
                         ("virasoro", run_virasoro)):
        sub_cfg = cfg
        if task == "eigen" and cfg.n > 2:
            # the quadrature engine is desk scale; cap the suite's eigen leg
            sub_cfg = dataclasses.replace(cfg, n=2, lam=None, q=None)
            warnings.append("eigen subtask capped at n = 2 (quadrature scale)")
        r, res, ok, warn = runner(sub_cfg)
        results.append({"task": task, "pass": bool(ok),
                        "max_residual": float(max(res)) if res else None})
        residuals.extend(res)
        warnings.extend(warn)
        passed = passed and ok
    return results, residuals, passed, warnings


RUNNERS = {
    "commute": run_commute,
    "mirror": run_mirror,
    "critical": run_critical,
    "eigen": run_eigen,
    "classical-limit": run_classical_limit,
    "virasoro": run_virasoro,
    "all": run_all,
}


def run(cfg: RunConfig) -> VerificationReport:
    cfg.validate()
    t0 = time.monotonic()
    results, residuals, passed, warnings = RUNNERS[cfg.task](cfg)
    if not results:
        warnings = warnings + ["no results produced; pass is vacuous"]
        passed = True
    params = {
        "n": cfg.n,
        "lambda": [format_rational(x) for x in cfg.lam] if cfg.lam else None,
        "q": [format_rational(x) for x in cfg.q] if cfg.q else None,
        "hbar": cfg.hbar,
        "truncation": cfg.truncation,
        "stirling_order": cfg.stirling_order,
        "seed": cfg.seed,
        "tolerances": {
            "spectral": cfg.tol_spectral,
            "eigen_n1": cfg.tol_eigen_n1,
            "eigen_n2": cfg.tol_eigen_n2,
            "oracle": cfg.tol_oracle,
            "scaling": cfg.tol_scaling,
        },
        "command": " ".join(shlex.quote(a) for a in cfg.argv),
    }
    return VerificationReport(
        task=cfg.task, params=params, results=results,
        residuals=[float(r) for r in residuals], passed=bool(passed),
        runtime_ms=int((time.monotonic() - t0) * 1000),
        version=__version__, warnings=warnings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="todamirror",
        description="Verification suite for the quantum Toda lattice and its "
                    "equivariant mirror construction.")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task)
        if task == "all":
            p.add_argument("--config", type=str, default=None,
                           help="key=value file with defaults; flags override")
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--lambda", dest="lam", type=str, default=None,
                       help="comma-separated rationals summing to 0, e.g. 1/4,1/8,-3/8")
        p.add_argument("--q", type=str, default=None,
                       help="comma-separated positive rationals")
        p.add_argument("--hbar", type=float, default=-1.0)
        p.add_argument("--truncation", type=int, default=4)
        p.add_argument("--stirling-order", type=int, default=4)
        p.add_argument("--chart", type=str, default=None,
                       help="comma-separated k-sequence selecting one chart")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", type=str, default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
        for name, default in (("tol-spectral", 1e-8), ("tol-eigen-n1", 1e-8),
                              ("tol-eigen-n2", 1e-8), ("tol-oracle", 1e-8),
                              ("tol-scaling", 1e-8)):
            p.add_argument(f"--{name}", type=float, default=default)
    return parser


def _apply_config_file(args: argparse.Namespace, argv: Sequence[str]) -> None:
    """Fill in values from a key=value file; explicit flags win."""
    path = getattr(args, "config", None)
    if not path:
        return
    explicit = {tok.split("=")[0].lstrip("-").replace("-", "_")
                for tok in argv if tok.startswith("--")}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidInput(f"config line is not key=value: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key in explicit or not hasattr(args, key):
                continue
            current = getattr(args, key)
            try:
                if isinstance(current, int) and not isinstance(current, bool):
                    setattr(args, key, int(value))
                elif isinstance(current, float):
                    setattr(args, key, float(value))
                else:
                    setattr(args, key, value)
            except ValueError as exc:
                raise InvalidInput(f"config value for {key} is not valid: {value!r}") from exc


def config_from_args(args: argparse.Namespace, argv: Sequence[str]) -> RunConfig:
    try:
        lam = _fractions(args.lam) if args.lam else None
        q = _fractions(args.q) if args.q else None
        chart = tuple(int(x) for x in args.chart.split(",")) if args.chart else None
    except ValueError as exc:
        raise InvalidInput(f"cannot parse a number: {exc}") from exc
    return RunConfig(
        task=args.task,
        n=args.n,
        lam=lam,
        q=q,
        hbar=args.hbar,
        truncation=args.truncation,
        stirling_order=args.stirling_order,
        tol_spectral=args.tol_spectral,
        tol_eigen_n1=args.tol_eigen_n1,
        tol_eigen_n2=args.tol_eigen_n2,
        tol_oracle=args.tol_oracle,
        tol_scaling=args.tol_scaling,
        chart=chart,
        seed=args.seed,
        output=args.output,
        fmt=args.fmt,
        argv=list(argv),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _apply_config_file(args, argv)
        cfg = config_from_args(args, ["todamirror"] + argv)
        report = run(cfg)
    except (InvalidInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = emit_report(report, cfg.fmt)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
