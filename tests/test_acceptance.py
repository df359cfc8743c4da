"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
tolerance is pinned here and nowhere else.
"""

import itertools
import math
import random
from fractions import Fraction as F

from todamirror import critical as cr
from todamirror import integrals as ig
from todamirror import mirror as mi
from todamirror import operators as ops
from todamirror import semiclassical as sc
from todamirror import virasoro as vi


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _random_draw(n: int, rng: random.Random):
    while True:
        lam = [F(rng.randint(-8, 8), rng.randint(9, 16)) for _ in range(n)]
        lam.append(-sum(lam))
        if len(set(lam)) == n + 1 and all(x != 0 for x in lam):
            q = [F(rng.randint(1, 16), 16) for _ in range(n)]
            return [float(x) for x in lam], [float(x) for x in q]


def test_criterion_1_toda_commutativity():
    ok = True
    for n in range(1, 6):
        d = ops.toda_operators(n)
        ham = ops.build_hamiltonian(n)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                ok = ok and ops.commutator(d[i], d[j]).is_zero()
            ok = ok and ops.commutator(ham, d[i]).is_zero()
    _report("criterion 1: [D_i, D_j] = 0 and [H, D_i] = 0 exactly, n = 1..5", ok)


def test_criterion_2_critical_point_census():
    rng = random.Random(20260810)
    ok, worst = True, ""
    for n in (1, 2, 3):
        for trial in range(3):
            lam, q = _random_draw(n, rng)
            c = cr.census(n, lam, q)
            good = (len(c.records) == math.factorial(n + 1)
                    and len({r.chart.permutation for r in c.records}) == len(c.records)
                    and all(r.nondegenerate for r in c.records)
                    and c.min_pairwise_distance > 1e-6)
            if not good:
                worst = f"n={n} trial={trial}"
            ok = ok and good
    _report("criterion 2: (n+1)! distinct nondegenerate critical points, "
            "3 random draws each for n = 1..3", ok, worst)


def test_criterion_3_spectral_identity():
    rng = random.Random(20260810)
    worst_spec, worst_lagr = 0.0, 0.0
    for n in (1, 2, 3):
        for _ in range(3):
            lam, q = _random_draw(n, rng)
            c = cr.census(n, lam, q)
            worst_spec = max(worst_spec, max(cr.spectral_check(r) for r in c.records))
            worst_lagr = max(worst_lagr, max(max(pt.residuals) for pt in c.points))
    ok = worst_spec < 1e-8 and worst_lagr < 1e-8
    _report("criterion 3: spectral identity and relation residuals < 1e-8",
            ok, f"spectral {worst_spec:.2e}, relations {worst_lagr:.2e}")


def test_criterion_4_uv_identity():
    ok = all(cr.uv_identity_check(n) for n in (1, 2, 3))
    _report("criterion 4: row-factorisation matrix identity exact, n = 1..3, all k", ok)


def test_criterion_5_eigenvalue_equations():
    # n = 1 against both quadrature and the cosh-integral oracle
    ok, det = True, []
    lam0, q = 0.5, 1.0
    ch1 = mi.make_chart(mi.build_graph(1), (0,))
    rep = ig.eigen_residual(ig.IntegralTask(n=1, lam=(lam0, -lam0), hbar=-1.0, chart=ch1, q=(q,)))
    oracle = ig.whittaker_closed_form(lam0, q, -1.0)
    rel = abs(rep.base_value - oracle) / abs(oracle)
    ok = ok and max(rep.residuals) < 1e-8 and rel < 1e-8
    det.append(f"n=1 residual {max(rep.residuals):.2e} oracle {rel:.2e}")
    # n = 2 at one generic point
    ch2 = mi.make_chart(mi.build_graph(2), (0, 0))
    rep2 = ig.eigen_residual(ig.IntegralTask(n=2, lam=(0.25, 0.125, -0.375), hbar=-1.0,
                                             chart=ch2, q=(1.0, 1.0)))
    ok = ok and all(r < 1e-8 for r in rep2.residuals)
    det.append(f"n=2 residuals {['%.1e' % r for r in rep2.residuals]}")
    _report("criterion 5: eigenvalue equations (n=1 < 1e-8 + oracle < 1e-8; "
            "n=2 < 1e-8)", ok, "; ".join(det))


def test_criterion_6_q_to_zero_factorization():
    ok, det = True, []
    lam1 = (0.6, -0.6)
    ch1 = mi.make_chart(mi.build_graph(1), (0,))
    m4, _, _ = ig.q_to_zero_factorization(1, lam1, -1.0, ch1, 1e-4)
    m6, _, _ = ig.q_to_zero_factorization(1, lam1, -1.0, ch1, 1e-6)
    ok = ok and m4 < 1e-3 and m6 < m4
    det.append(f"n=1: {m4:.1e} -> {m6:.1e}")
    lam2 = (1.2, 0.0, -1.2)
    ch2 = mi.make_chart(mi.build_graph(2), (0, 0))
    n4, _, _ = ig.q_to_zero_factorization(2, lam2, -1.0, ch2, 1e-4)
    n5, _, _ = ig.q_to_zero_factorization(2, lam2, -1.0, ch2, 1e-5)
    ok = ok and n4 < 1e-3 and n5 < n4
    det.append(f"n=2: {n4:.1e} -> {n5:.1e}")
    _report("criterion 6: q -> 0 factorisation mismatch < 1e-3 and decreasing",
            ok, "; ".join(det))


def test_criterion_7_classical_limit_exact():
    ok = True
    for n in (1, 2, 3):
        for perm in itertools.permutations(range(n + 1)):
            rep = sc.verify_classical_limit(n, perm, 4)
            ok = ok and rep.match and rep.orthogonal
    _report("criterion 7: classical-limit series identity exact through "
            "hbar^7, all permutations, n = 1..3", ok)


def test_criterion_8_quasi_homogeneity():
    worst = 0.0
    for n, lam, q in ((1, (0.5, -0.5), (1.0,)),
                      (2, (0.25, 0.125, -0.375), (1.0, 1.0))):
        records = cr.all_critical_points(n, lam, q)
        for c in (2.0, 1.0 / 3.0):
            worst = max(worst, cr.scaling_residual(records, c))
    _report("criterion 8: u(c^2 q, c lam) = c u(q, lam) to 1e-8, "
            "n <= 2, all charts, c in {2, 1/3}", worst < 1e-8, f"worst {worst:.2e}")


def test_criterion_9_virasoro_algebra():
    ok, det = True, []
    for m in (-1, 0, 1, 2):
        ok = ok and vi.quantize(vi.loop_d_operator(m), 8) == vi.point_virasoro(m, 8)
    det.append("quantize == closed forms")
    for m in (-1, 0, 1, 2):
        for mp in (-1, 0, 1, 2):
            if m == mp or m + mp < -1:
                continue
            r = vi.commutation_check(m, mp, max_index=4)
            ok = ok and r.ok
    det.append("commutator scalars forced exactly")
    rng = random.Random(7)
    for N in (1, 2, 3):
        mu = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(N)]
        rho = [[F(0)] * N for _ in range(N)]
        for i in range(N):
            for j in range(i):
                rho[i][j] = F(rng.randint(-3, 3), rng.randint(1, 3))
        for m in (-1, 0, 1, 2):
            for mp in (-1, 0, 1, 2):
                if m >= mp or m + mp < -1:
                    continue
                ok = ok and vi.family_bracket_check(mu, rho, m, mp, range(-6, 7)).exact
    det.append("family bracket exact, N <= 3")
    _report("criterion 9: Virasoro quantization / commutators / family bracket",
            ok, "; ".join(det))


def test_criterion_10_projective_line_example():
    rep = ig.cp1_example_check(0.5, (0.5, 1.0, 2.0))
    ok = rep.derivative_match < 1e-8 and rep.momentum_match < 1e-8
    _report("criterion 10: closed-form critical values on the 3-point q grid "
            "(t-derivative and momentum matches < 1e-8)", ok,
            f"d/dt {rep.derivative_match:.1e}, du/dt-p {rep.momentum_match:.1e}")
