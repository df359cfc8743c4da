"""Command-line front end and machine-readable reporting.

Subcommands: commute | mirror | critical | eigen | classical-limit |
virasoro | all, each taking the flags of the settings its task reads and
`--output FILE`.  The report is one line of JSON with sorted keys, on stdout
or in FILE.  Its `checks` map each check name to whether it passed (a
residual against its `RunConfig` tolerance, an exact identity, or a solver
stage that raised, which also leaves one `failure` row), and `pass` is
their conjunction.  Exit code 0 when every check passed, 1 when one failed,
2 on invalid input or an unwritable `--output`.
Reports serialize deterministically (same config and seed give the same
content), rationals as "num/den" strings, complex numbers as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import random
import shlex
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .exact import format_rational, parse_rational
from . import operators as ops
from . import mirror as mi
from . import critical as cr
from . import integrals as ig
from . import semiclassical as sc
from . import virasoro as vi


class InvalidInput(ValueError):
    pass


def rationals(text: str) -> List[Fraction]:
    return [parse_rational(tok) for tok in text.split(",") if tok.strip()]


def kseq(text: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


# Every setting: RunConfig field -> (key, parser of its value, help).  The
# key names the setting in the report's params; the flag is "--" + key with
# "-" for "_".
FLAGS = {
    "n": ("n", int, None),
    "lam": ("lambda", rationals, "comma-separated rationals summing to 0, e.g. 1/4,1/8,-3/8"),
    "q": ("q", rationals, "comma-separated positive rationals"),
    "hbar": ("hbar", float, None),
    "truncation": ("truncation", int, None),
    "stirling_order": ("stirling_order", int, None),
    "chart": ("chart", kseq, "comma-separated k-sequence selecting one chart"),
    "seed": ("seed", int, None),
}

# The settings each task reads.  Its subcommand takes these flags and no
# other, `validate` checks these and no other, and params echoes these.
SETTINGS = {
    "commute": ("n",),
    "mirror": ("n",),
    "critical": ("n", "lam", "q", "seed"),
    "eigen": ("n", "lam", "q", "hbar", "chart", "seed"),
    "classical-limit": ("n", "stirling_order"),
    "virasoro": ("truncation", "seed"),
    "all": tuple(name for name in FLAGS if name != "chart"),
}
TASKS = tuple(SETTINGS)


@dataclass
class RunConfig:
    task: str
    n: int = 2
    lam: Optional[List[Fraction]] = None
    q: Optional[List[Fraction]] = None
    hbar: float = -1.0
    truncation: int = 4
    stirling_order: int = 4
    chart: Optional[Tuple[int, ...]] = None
    seed: int = 0
    argv: List[str] = field(default_factory=list)
    # The gates' tolerances: constants, not settings, so no run can loosen a
    # check; they may only get tighter, by a change to this code.  They stay
    # on the config because the runners and the benchmark's margins read them
    # from it.
    tol_spectral: ClassVar[float] = 1e-8
    tol_scaling: ClassVar[float] = 1e-8
    tol_eigen_n1: ClassVar[float] = 1e-8
    tol_eigen_n2: ClassVar[float] = 1e-8
    tol_oracle: ClassVar[float] = 1e-8

    def validate(self) -> None:
        """Check the settings the task reads; the others are never used."""
        if self.task not in SETTINGS:
            raise InvalidInput(f"unknown task {self.task!r}")
        read = SETTINGS[self.task]
        if "n" in read and self.n < 1:
            raise InvalidInput("n must be >= 1")
        if "lam" in read and self.lam is not None:
            if len(self.lam) != self.n + 1 or len(set(self.lam)) != self.n + 1:
                raise InvalidInput(f"lambda needs {self.n + 1} distinct entries")
            if sum(self.lam) != 0:
                raise InvalidInput("lambda must sum to zero exactly")
        if "q" in read and self.q is not None and (
                len(self.q) != self.n or any(x <= 0 for x in self.q)):
            raise InvalidInput(f"q needs {self.n} positive entries")
        if "hbar" in read and self.hbar >= 0:
            raise InvalidInput("hbar must be negative")
        for name in ("truncation", "stirling_order"):
            if name in read and getattr(self, name) < 1:
                raise InvalidInput(f"{FLAGS[name][0]} must be >= 1")
        if self.task == "eigen" and self.n > ig.MAX_N:
            raise InvalidInput(f"eigen quadrature supports n <= {ig.MAX_N}")
        if "chart" in read and self.chart is not None and self.chart not in mi.all_k_sequences(self.n):
            raise InvalidInput(f"{list(self.chart)} is not a k-sequence for n = {self.n}")


@dataclass
class VerificationReport:
    task: str
    params: dict
    results: List[dict]
    checks: Dict[str, bool]
    runtime_ms: int
    version: str

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "params": self.params,
            "results": self.results,
            "checks": self.checks,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
            "version": self.version,
        }


def _default_lambda(n: int, seed: int) -> List[Fraction]:
    rng = random.Random(seed)
    while True:
        lam = [Fraction(rng.randint(-8, 8), rng.randint(9, 16)) for _ in range(n)]
        lam.append(-sum(lam))
        if len(set(lam)) == n + 1 and all(x != 0 for x in lam):
            return lam


def resolve_defaults(cfg: RunConfig) -> RunConfig:
    """`cfg` with the lambda and q a critical or eigen run uses when none is
    given: critical draws both from the seed; eigen draws lambda likewise
    (but takes (1/2, -1/2) at n = 1) and takes q = 1."""
    if cfg.task not in ("critical", "eigen"):
        return cfg
    lam, q, rng = cfg.lam, cfg.q, random.Random(cfg.seed + 1)
    if lam is None:
        lam = ([Fraction(1, 2), Fraction(-1, 2)] if cfg.task == "eigen" and cfg.n == 1
               else _default_lambda(cfg.n, cfg.seed))
    if q is None:
        q = ([Fraction(1)] * cfg.n if cfg.task == "eigen"
             else [Fraction(rng.randint(1, 16), 16) for _ in range(cfg.n)])
    return dataclasses.replace(cfg, lam=lam, q=q)


def _echo(cfg: RunConfig, names: Sequence[str]) -> dict:
    """The settings `names` under their params keys, rationals as num/den."""
    out = {FLAGS[name][0]: getattr(cfg, name) for name in names}
    for key in ("lambda", "q"):
        if out.get(key) is not None:
            out[key] = [format_rational(x) for x in out[key]]
    return out


def _failure(stage: str, exc: Exception, **where):
    """A runner's outcome when a solver stage raises: one `failure` row, and
    the stage as the one failed check."""
    failure = {"stage": stage, **where, "error": type(exc).__name__, "message": str(exc)}
    return [{"failure": failure}], {stage: False}


# ---------------------------------------------------------------------------
# Task runners: each returns (results, checks), checks = {check name: passed}.
# ---------------------------------------------------------------------------

def run_commute(cfg: RunConfig):
    results = []
    for n in range(1, cfg.n + 1):
        d_ops = ops.toda_operators(n)
        ham = ops.build_hamiltonian(n)
        pairs = [(f"D{i+1},D{j+1}", d_ops[i], d_ops[j])
                 for i in range(len(d_ops)) for j in range(i + 1, len(d_ops))]
        pairs += [(f"H,D{i+1}", ham, d) for i, d in enumerate(d_ops)]
        for name, a, b in pairs:
            results.append({"n": n, "pair": name,
                            "residual_terms": len(ops.commutator(a, b).terms)})
    return results, {"residual_terms": all(r["residual_terms"] == 0 for r in results)}


def run_mirror(cfg: RunConfig):
    graph = mi.build_graph(cfg.n)
    checks = {"weight_balance": mi.weight_balance_ok(graph)}
    charts, perms = [], set()
    for kseq in mi.all_k_sequences(cfg.n):
        chart = mi.make_chart(graph, kseq)
        flags = {
            "multiset": chart.rho_multiset_ok(),
            "relations": chart.relations_hold(),
            "phase_consistency": mi.phase_consistency(chart),
        }
        perms.add(chart.permutation)
        charts.append({"chart": chart.report(), **flags})
    for name in ("multiset", "relations", "phase_consistency"):
        checks[name] = all(row[name] for row in charts)
    checks["permutation_bijection"] = len(perms) == math.factorial(cfg.n + 1)
    results = [{"check": "weight_balance", "pass": checks["weight_balance"]}, *charts,
               {"check": "permutation_bijection", "count": len(perms),
                "pass": checks["permutation_bijection"]}]
    return results, checks


def run_critical(cfg: RunConfig):
    lam_f = [float(x) for x in cfg.lam]
    q_f = [float(x) for x in cfg.q]
    stage = "census"
    try:
        census = cr.census(cfg.n, lam_f, q_f)
        stage = "quasi_homogeneity"
        scaling = max(cr.scaling_residual(census.records, c) for c in (2.0, 1.0 / 3.0))
    except (cr.ContinuationError, cr.CriticalPointError, cr.DegenerateParameterError) as exc:
        return _failure(stage, exc, chart=list(exc.chart) if exc.chart is not None else None)
    results = []
    for rec, point in zip(census.records, census.points):
        row = rec.report()
        row["spectral_residual"] = point.max_residual
        row["lagrangian_residuals"] = point.residuals
        results.append(row)
    degenerate = [list(r.chart.kseq) for r in census.records if not r.nondegenerate]
    # (n+1)! distinct points hold once census returns: it raises otherwise
    checks = {
        "nondegenerate": not degenerate,
        "spectral": census.max_spectral_residual < cfg.tol_spectral,
        "scaling": scaling < cfg.tol_scaling,
        "uv_identity": cr.uv_identity_check(cfg.n),
    }
    results.append({"min_pairwise_distance": census.min_pairwise_distance,
                    "degenerate_charts": degenerate})
    results.append({"check": "quasi_homogeneity", "residual": scaling})
    results.append({"check": "continuation", **census.continuation})
    return results, checks


def run_eigen(cfg: RunConfig):
    chart = mi.make_chart(mi.build_graph(cfg.n), cfg.chart or (0,) * cfg.n)
    task = ig.IntegralTask(n=cfg.n, lam=cfg.lam, hbar=cfg.hbar, chart=chart, q=cfg.q)
    stage = "quadrature"
    try:
        rep = ig.eigen_residual(task)
        if cfg.n == 1:
            stage = "bessel_oracle"
            oracle = ig.whittaker_closed_form(task.lam[0], task.q[0], cfg.hbar)
    except ig.QuadratureError as exc:
        return _failure(stage, exc)
    results = [{"operator": f"D{i+1}", "residual": float(r)}
               for i, r in enumerate(rep.residuals)]
    tol = cfg.tol_eigen_n1 if cfg.n == 1 else cfg.tol_eigen_n2
    checks = {"residual": all(r < tol for r in rep.residuals)}
    if cfg.n == 1:
        rel = float(abs(rep.base_value - oracle) / abs(oracle))
        results.append({"check": "bessel_oracle", "relative_error": rel})
        checks["bessel_oracle"] = rel < cfg.tol_oracle
    results.append({"quadrature": {"nodes_per_axis": rep.nodes_per_axis,
                                   "evaluations": rep.evaluations,
                                   "levels": rep.levels, "error": rep.error}})
    return results, checks


def run_classical_limit(cfg: RunConfig):
    fixed_points = []
    for n in range(1, cfg.n + 1):
        for perm in itertools.permutations(range(n + 1)):
            rep = sc.verify_classical_limit(n, perm, cfg.stirling_order)
            fixed_points.append({"n": n, "permutation": list(perm), "match": rep.match,
                                 "orthogonal": rep.orthogonal,
                                 "first_mismatch": rep.first_mismatch})
    stirling = []
    for z in (5.0, 10.0):
        err, bound, ok = sc.stirling_numeric_residual(cfg.stirling_order, z)
        stirling.append({"check": "stirling_numeric", "z": z, "error": err,
                         "bound": bound, "pass": ok})
    checks = {name: all(row[name] for row in fixed_points) for name in ("match", "orthogonal")}
    checks["stirling_numeric"] = all(row["pass"] for row in stirling)
    return fixed_points + stirling, checks


# the mode pairs m < m' with m + m' >= -1 among -1..2
_MODE_PAIRS = [(m, mp) for m in range(-1, 3) for mp in range(-1, 3) if m < mp and m + mp >= -1]


def run_virasoro(cfg: RunConfig):
    results = []
    for m in (-1, 0, 1, 2):
        same = (vi.quantize(vi.loop_d_operator(m), cfg.truncation)
                == vi.point_virasoro(m, cfg.truncation))
        results.append({"check": "quantize_matches_table", "m": m, "pass": same})
    for m, mp in _MODE_PAIRS:
        r = vi.commutation_check(m, mp, max_index=cfg.truncation)
        results.append({"check": "commutator", "pair": [m, mp], "window": r.window,
                        "scalar": format_rational(r.scalar),
                        "expected": format_rational(r.expected_scalar),
                        "leftover_terms": r.leftover_terms, "pass": r.ok})
    rng = random.Random(cfg.seed)
    for N in (1, 2, 3):
        mu = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(N)]
        rho = [[Fraction(0)] * N for _ in range(N)]
        for i in range(N):
            for j in range(i):
                rho[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for m, mp in _MODE_PAIRS:
            res = vi.family_bracket_check(mu, rho, m, mp, range(-6, 7))
            results.append({"check": "family_bracket", "N": N, "pair": [m, mp],
                            "coefficient": res.coefficient, "pass": res.exact})
    checks = {name: all(row["pass"] for row in results if row["check"] == name)
              for name in ("quantize_matches_table", "commutator", "family_bracket")}
    return results, checks


def run_all(cfg: RunConfig):
    """One row per leg: the leg's checks and the n, lambda and q it ran at."""
    results, checks = [], {}
    shared = {name: getattr(cfg, name) for name in SETTINGS["all"]}
    for task in TASKS[:-1]:
        sub_cfg = RunConfig(task=task, **shared)
        if task == "eigen" and cfg.n > ig.MAX_N:
            # the quadrature engine is desk scale; cap the suite's eigen leg
            sub_cfg = dataclasses.replace(sub_cfg, n=ig.MAX_N, lam=None, q=None)
        sub_cfg = resolve_defaults(sub_cfg)
        _, leg = RUNNERS[task](sub_cfg)
        checks[task] = all(leg.values())
        echoed = [name for name in ("n", "lam", "q") if name in SETTINGS[task]]
        results.append({"task": task, "checks": leg, **_echo(sub_cfg, echoed)})
    return results, checks


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
    cfg = resolve_defaults(cfg)
    results, checks = RUNNERS[cfg.task](cfg)
    params = {**_echo(cfg, SETTINGS[cfg.task]),
              "command": " ".join(shlex.quote(a) for a in cfg.argv)}
    return VerificationReport(
        task=cfg.task, params=params, results=results, checks=checks,
        runtime_ms=int((time.monotonic() - t0) * 1000), version=__version__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="todamirror",
        description="Verification suite for the quantum Toda lattice and its "
                    "equivariant mirror construction.")
    sub = parser.add_subparsers(dest="task", required=True)
    for task, names in SETTINGS.items():
        p = sub.add_parser(task, allow_abbrev=False)
        for name in names:
            key, kind, text = FLAGS[name]
            p.add_argument("--" + key.replace("_", "-"), dest=name, type=kind, help=text)
        p.add_argument("--output", type=str, default=None, help="write the report to this file")
    return parser


def config_from_args(args: argparse.Namespace, argv: Sequence[str]) -> RunConfig:
    """The flags given, and RunConfig's defaults for the others."""
    settings = {name: getattr(args, name) for name in SETTINGS[args.task]
                if getattr(args, name) is not None}
    return RunConfig(task=args.task, **settings, argv=list(argv))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    cfg = config_from_args(args, ["todamirror"] + argv)
    # parse, validate, open, run: invalid input or an unwritable --output
    # exits 2 before any of the run's work
    try:
        cfg.validate()
        out = open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout)
    except (InvalidInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        report = run(cfg)
        # no indent: only then does json use its C encoder
        fh.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
