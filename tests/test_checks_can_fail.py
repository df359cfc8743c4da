"""Every check a report names can fail for the reason it names.

Each row of `MUTATIONS` names a check the CLI reports, a mutation of the
program or its data, and the run it breaks.  Under the mutation that check,
and no other, must fail.  A second test asserts that the table covers every
check name the report carries, so a new check without a mutation row fails
the suite.
"""

import pytest

from todamirror import cli
from todamirror import mirror as mi

MIRROR_N = 2


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


# (subcommand, check, mutation name, install(monkeypatch))
MUTATIONS = (
    ("mirror", "multiset", "swap two rho entries of row 2", _mutate_charts(_swap_second_row_rho)),
    ("mirror", "relations", "add one to two exponent rows of opposite weight",
     _mutate_charts(_shift_exponents_of_opposite_weights)),
    ("mirror", "phase_consistency", "negate one sigma entry", _mutate_charts(_negate_one_sigma)),
    ("mirror", "permutation_bijection", "permutation that ignores k_1", _mutate_charts(_ignore_k1)),
    ("mirror", "weight_balance", "gradient without its last edge", _drop_last_gradient_term),
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


@pytest.mark.parametrize("task, check, name, install", MUTATIONS,
                         ids=[f"{row[0]}-{row[1]}" for row in MUTATIONS])
def test_mutation_fails_exactly_its_check(monkeypatch, task, check, name, install):
    install(monkeypatch)
    checks, passed = _run_mirror()
    assert not passed, name
    assert {c for c, ok in checks.items() if not ok} == {check}, name


def test_every_mirror_check_has_a_mutation():
    checks, passed = _run_mirror()
    assert passed and all(checks.values())
    assert set(checks) == {check for task, check, _, _ in MUTATIONS if task == "mirror"}
