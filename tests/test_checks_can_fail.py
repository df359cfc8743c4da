"""Every check a report names can fail for the reason it names.

Each row of `MUTATIONS` names a check the CLI reports, a mutation of the
program or its data, and the run it breaks.  Under the mutation that check,
and no other, must fail.  Two more tests assert that the table covers every
check name the mirror and eigen reports carry, so a new check there without a
mutation row fails the suite.
"""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

from todamirror import cli
from todamirror import critical as cr
from todamirror import integrals as ig
from todamirror import mirror as mi
from todamirror import semiclassical as sc
from todamirror.exact import LaurentPolynomial as LP

MIRROR_N = 2
CRITICAL_RUN = cli.RunConfig(task="critical", n=2,
                             lam=[Fraction(1, 4), Fraction(1, 8), Fraction(-3, 8)],
                             q=[Fraction(1), Fraction(1)])
CLASSICAL_LIMIT_RUN = cli.RunConfig(task="classical-limit", n=2)
# n = 1 is the eigen run that reports all three of its checks
EIGEN_RUN = cli.RunConfig(task="eigen", n=1, lam=[Fraction(1, 4), Fraction(-1, 4)],
                          q=[Fraction(1)], hbar=-1.0)


def _mutate_charts(mutate):
    """Install a `make_chart` that applies `mutate` to every chart it builds."""
    def install(monkeypatch):
        make = mi.make_chart

        def mutated(graph, kseq):
            chart = make(graph, kseq)
            mutate(chart)
            return chart

        monkeypatch.setattr(mi, "make_chart", mutated)
    return install


def _swap_second_row_rho(chart):
    # row 2 of rho feeds no other check: phase_consistency reads row 1 only
    rho = chart.rho
    rho[(2, 0)], rho[(2, 1)] = rho[(2, 1)], rho[(2, 0)]


def _shift_exponents_of_opposite_weights(chart):
    # u[1,1] and v[1,0] carry weights lam_0/2 and -lam_0/2, so E^T W does not
    # move, but the roof over q_1 and the box at (1, 0) do
    for name in ("u[1,1]", "v[1,0]"):
        chart.E[chart.row_of[name], 0] += 1


def _negate_one_sigma(chart):
    # lam_a - lam_b -> lam_b - lam_a: still a unit difference
    p = chart.positions[0]
    chart.sigma[p] = -chart.sigma[p]


def _ignore_k1(chart):
    # the letter 0 read at slot 0 whatever k_1 is
    chart.permutation = (0,) + tuple(x for x in chart.permutation if x)


def _drop_last_gradient_term(monkeypatch):
    # forget the v[k+1, i-1] edge of every interior vertex
    gradient = mi.MirrorGraph._gradient
    monkeypatch.setattr(mi.MirrorGraph, "_gradient",
                        lambda self, combos: gradient(self, combos[:-1]))


def _mutate_first_record(mutate):
    """Install a `_Lanes.records` that applies `mutate` to the first record of
    every batch.  `scaling_residual` reads its re-solved side through
    `critical_values`, not `records`, so only the census records change."""
    def install(monkeypatch):
        records = cr._Lanes.records

        def mutated(self, ends):
            out = records(self, ends)
            mutate(out[0])
            return out

        monkeypatch.setattr(cr._Lanes, "records", mutated)
    return install


def _nudge_first_edge(record):
    name = sorted(record.edge_values)[0]
    record.edge_values[name] *= 1 + 1e-6


def _nudge_critical_value(record):
    record.u_sigma *= 1 + 1e-6


def _rho_1_not_linear_in_lambda(monkeypatch):
    # rho enters the critical value, not the gradient, so the census points
    # stay put; at q = (1, 1) the base value does not see rho either, and only
    # the scaled solve at c^2 q does
    phase = cr.phase_in_chart

    def mutated(chart, lam):
        ph = phase(chart, lam)
        rho = ph.rho.copy()
        rho[0] += 1e-4 * lam[0] ** 2
        return dataclasses.replace(ph, rho=rho)

    monkeypatch.setattr(cr, "phase_in_chart", mutated)


def _shift_lam_0(monkeypatch):
    lam_poly = cr._lam_poly
    monkeypatch.setattr(cr, "_lam_poly", lambda k, n: lam_poly(k, n) + LP.constant(k == 0))


def _nudge_numeric_stirling_coefficient(monkeypatch):
    # gamma_stirling_tail also feeds the exact `match`, so the nudged first
    # coefficient is seen by the numeric check's calls only
    residual, tail = sc.stirling_numeric_residual, sc.gamma_stirling_tail

    def nudged(K):
        coeffs = tail(K)
        coeffs[0] *= 1 + Fraction(1, 10 ** 6)
        return coeffs

    def mutated(K, z):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(sc, "gamma_stirling_tail", nudged)
            return residual(K, z)

    monkeypatch.setattr(sc, "stirling_numeric_residual", mutated)


def _shift_eigenvalues(monkeypatch):
    # integrals' own name for sigma_i: the oracle row never reads it
    sigma = ig.elementary_symmetric_sigma
    monkeypatch.setattr(ig, "elementary_symmetric_sigma",
                        lambda lam: [s + 1e-6 for s in sigma(lam)])


def _nudge_bessel_closed_form(monkeypatch):
    closed_form = ig.whittaker_closed_form
    monkeypatch.setattr(ig, "whittaker_closed_form",
                        lambda *args: closed_form(*args) * (1 + 1e-6))


def _one_doubling(monkeypatch):
    monkeypatch.setattr(ig, "_MAX_DOUBLINGS", 1)


# (subcommand, check, mutation name, install(monkeypatch)).  `nondegenerate`
# has no row: its only failing input today is the n = 4 default draw, a
# spurious flag that ROADMAP item 4 replaces with a certificate.
MUTATIONS = (
    ("mirror", "multiset", "swap two rho entries of row 2", _mutate_charts(_swap_second_row_rho)),
    ("mirror", "relations", "add one to two exponent rows of opposite weight",
     _mutate_charts(_shift_exponents_of_opposite_weights)),
    ("mirror", "phase_consistency", "negate one sigma entry", _mutate_charts(_negate_one_sigma)),
    ("mirror", "permutation_bijection", "permutation that ignores k_1", _mutate_charts(_ignore_k1)),
    ("mirror", "weight_balance", "gradient without its last edge", _drop_last_gradient_term),
    ("critical", "spectral", "scale one edge value of one point by 1 + 1e-6",
     _mutate_first_record(_nudge_first_edge)),
    ("critical", "scaling", "scale one critical value by 1 + 1e-6",
     _mutate_first_record(_nudge_critical_value)),
    ("critical", "scaling", "add 1e-4 lambda_0^2 to rho_1 of every chart phase",
     _rho_1_not_linear_in_lambda),
    ("critical", "uv_identity", "add 1 to lambda_0 in the symbolic identity", _shift_lam_0),
    ("classical-limit", "stirling_numeric", "first Stirling coefficient off by 1e-6, numeric "
     "check only", _nudge_numeric_stirling_coefficient),
    ("eigen", "residual", "every sigma_i off by 1e-6 inside eigen_residual", _shift_eigenvalues),
    ("eigen", "bessel_oracle", "n = 1 closed form off by 1e-6 relative", _nudge_bessel_closed_form),
    ("eigen", "quadrature", "one doubling level allowed", _one_doubling),
)


def _mirror_checks(results):
    """{check name: passed} over the rows of a mirror report."""
    checks = {}
    for row in results:
        if "check" in row:
            checks[row["check"]] = row["pass"]
        else:
            for name, ok in row.items():
                if name != "chart":
                    checks[name] = checks.get(name, True) and ok
    return checks


def _run_mirror():
    results, _, passed, _ = cli.run_mirror(cli.RunConfig(task="mirror", n=MIRROR_N))
    return _mirror_checks(results), passed


def _run_critical():
    results, _, passed, _ = cli.run_critical(CRITICAL_RUN)
    summary = next(row for row in results if "failed" in row)
    return dict.fromkeys(summary["failed"], False), passed


def _run_classical_limit():
    results, _, passed, _ = cli.run_classical_limit(CLASSICAL_LIMIT_RUN)
    checks = {}
    for row in results:
        pairs = ([(row["check"], row["pass"])] if "check" in row
                 else [("match", row["match"]), ("orthogonal", row["orthogonal"])])
        for name, ok in pairs:
            checks[name] = checks.get(name, True) and ok
    return checks, passed


def _run_eigen():
    """An operator row at or above its tolerance fails `residual`; a failure
    row fails its stage."""
    results, _, passed, _ = cli.run_eigen(EIGEN_RUN)
    checks = {}
    for row in results:
        if "operator" in row:
            checks["residual"] = checks.get("residual", True) and \
                row["residual"] < EIGEN_RUN.tol_eigen_n1
        elif "check" in row:
            checks[row["check"]] = row["relative_error"] < EIGEN_RUN.tol_oracle
        elif "failure" in row:
            checks[row["failure"]["stage"]] = False
    return checks, passed


RUN = {"mirror": _run_mirror, "critical": _run_critical, "classical-limit": _run_classical_limit,
       "eigen": _run_eigen}


def _ids(rows):
    """task-check for each row; a further row of the same check gets -2, -3..."""
    seen = Counter()
    out = []
    for task, check, _, _ in rows:
        seen[task, check] += 1
        count = seen[task, check]
        out.append(f"{task}-{check}" + (f"-{count}" if count > 1 else ""))
    return out


@pytest.mark.parametrize("task, check, name, install", MUTATIONS, ids=_ids(MUTATIONS))
def test_mutation_fails_exactly_its_check(monkeypatch, task, check, name, install):
    install(monkeypatch)
    checks, passed = RUN[task]()
    assert not passed, name
    assert {c for c, ok in checks.items() if not ok} == {check}, name


def test_every_eigen_check_has_a_mutation():
    checks, passed = _run_eigen()
    assert passed and checks == {"residual": True, "bessel_oracle": True}
    # `quadrature` is reported only as a failure row
    assert set(checks) | {"quadrature"} == {check for task, check, _, _ in MUTATIONS
                                            if task == "eigen"}


def test_every_mirror_check_has_a_mutation():
    checks, passed = _run_mirror()
    assert passed and all(checks.values())
    assert set(checks) == {check for task, check, _, _ in MUTATIONS if task == "mirror"}
