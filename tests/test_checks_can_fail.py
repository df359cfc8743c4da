"""Every check a report names can fail for the reason it names.

Each row of `MUTATIONS` names a check the CLI reports, a mutation of the
program or its data, and the run it breaks.  Under the mutation that check,
and no other, must fail.  Three more tests assert that the checks each task reports
are the table's checks plus the committed `BLIND` ones (eigen and mirror
have one test each, the other tasks share one), so a new check without a
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
from todamirror import operators as ops
from todamirror import semiclassical as sc
from todamirror import virasoro as vi
from todamirror.exact import LaurentPolynomial as LP

# the run each task's mutations break; n = 1 is the eigen run that reports
# both its checks
RUNS = {
    "commute": cli.RunConfig(task="commute", n=2),
    "mirror": cli.RunConfig(task="mirror", n=2),
    "critical": cli.RunConfig(task="critical", n=2,
                              lam=[Fraction(1, 4), Fraction(1, 8), Fraction(-3, 8)],
                              q=[Fraction(1), Fraction(1)]),
    "eigen": cli.RunConfig(task="eigen", n=1, lam=[Fraction(1, 4), Fraction(-1, 4)],
                           q=[Fraction(1)], hbar=-1.0),
    "classical-limit": cli.RunConfig(task="classical-limit", n=2),
    "virasoro": cli.RunConfig(task="virasoro"),
}


def reported_checks(task):
    return cli.run(RUNS[task]).to_dict()["checks"]


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


def _double_potential(monkeypatch):
    # (hbar^2/2) sum d^2/dt_i^2 - 2 sum q_i commutes with no D_i but D_1
    build = ops.build_hamiltonian

    def doubled(n):
        ham = build(n)
        potential = ham.terms[(0,) * (n + 1)]
        return ham + ops.DifferentialOperator.multiplication(n, potential)

    monkeypatch.setattr(ops, "build_hamiltonian", doubled)


def _drop_central_term(monkeypatch):
    # every bracket loses its central term, so [L_m, L_-m] misses its (m - m')/16
    commutator = vi.QuadraticOperator.commutator

    def mutated(self, other):
        out = commutator(self, other)
        out.const = Fraction(0)
        return out

    monkeypatch.setattr(vi.QuadraticOperator, "commutator", mutated)


def _double_tabulated_loop_operators(monkeypatch):
    # commutation_check quantizes D_m only for m + m' = 3, outside the table
    loop = vi.loop_d_operator
    monkeypatch.setattr(vi, "loop_d_operator",
                        lambda m: loop(m).scale(2) if m <= 2 else loop(m))


# (subcommand, check, mutation name, install(monkeypatch)).
MUTATIONS = (
    ("commute", "residual_terms", "potential of H doubled", _double_potential),
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
    ("virasoro", "commutator", "central term of every quantized bracket set to 0",
     _drop_central_term),
    ("virasoro", "quantize_matches_table", "D_m doubled for m <= 2",
     _double_tabulated_loop_operators),
)

# (subcommand, check, why no mutation can trip it yet, the ROADMAP item that
# removes it).  A check leaves BLIND only with its mutation row.
BLIND = (
    ("critical", "nondegenerate", "its only failing input is the n = 4 default draw, a "
     "spurious flag that a certified census replaces", 8),
    ("classical-limit", "match", "sums the same terms in two orders", 12),
    ("classical-limit", "orthogonal", "holds because b is odd", 12),
    ("virasoro", "family_bracket", "holds for any mu and rho", 11),
)

# stages a task reports only when they raise: eigen's quadrature
STAGES = {"eigen": {"quadrature"}}


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
    checks = reported_checks(task)
    assert {c for c, ok in checks.items() if not ok} == {check}, name


def _assert_covered(task):
    """The checks `task` reports all pass and are its mutation rows plus its
    blind ones."""
    checks = reported_checks(task)
    assert all(checks.values()), (task, checks)
    mutated = {check for t, check, _, _ in MUTATIONS if t == task}
    blind = {check for t, check, _, _ in BLIND if t == task}
    assert not mutated & blind, task
    assert set(checks) | STAGES.get(task, set()) == mutated | blind, task
    return checks


def test_every_eigen_check_has_a_mutation():
    checks = _assert_covered("eigen")
    assert set(checks) == {"residual", "bessel_oracle"}


def test_every_mirror_check_has_a_mutation():
    _assert_covered("mirror")
    assert not any(t == "mirror" for t, _, _, _ in BLIND)


def test_every_reported_check_has_a_mutation_or_is_blind():
    assert set(RUNS) == set(cli.TASKS) - {"all"}
    # eigen and mirror have the two tests above
    for task in set(RUNS) - {"eigen", "mirror"}:
        _assert_covered(task)
