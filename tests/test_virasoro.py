"""Loop-space quantization and the Virasoro commutation relations."""

import random
from fractions import Fraction as F

import pytest

from todamirror import virasoro as vi


def test_omega_antisymmetry_random():
    rng = random.Random(3)
    eta = [[F(1)]]
    for _ in range(40):
        f = {(0, rng.randint(-5, 5)): F(rng.randint(-5, 5), rng.randint(1, 5))
             for _ in range(3)}
        g = {(0, rng.randint(-5, 5)): F(rng.randint(-5, 5), rng.randint(1, 5))
             for _ in range(3)}
        assert vi.omega(f, g, eta) == -vi.omega(g, f, eta)


def test_darboux_pairing_is_canonical():
    eta = [[F(2), F(1)], [F(1), F(3)]]
    eta_inv = vi._invert_exact(eta)
    for m in range(3):
        for mp in range(3):
            for a in range(2):
                for b in range(2):
                    val = vi.omega(vi.darboux_p(m, a, eta_inv),
                                   vi.darboux_q(mp, b), eta)
                    assert val == (F(1) if (m, a) == (mp, b) else F(0))


def test_quantize_zero_operator():
    z = vi.LoopOperator(1, lambda a, k: {})
    assert vi.quantize(z, 4) == vi.QuadraticOperator(1)


def test_quantize_matches_closed_forms():
    for m in (-1, 0, 1, 2):
        assert vi.quantize(vi.loop_d_operator(m), 8) == vi.point_virasoro(m, 8)


def test_closed_form_coefficients_m_minus1_0_1():
    # the m = -1, 0, 1 closed forms, frozen coefficientwise
    op = vi.point_virasoro(-1, 3)
    assert op.qq == {((0, 0), (0, 0)): F(1, 2)}
    assert op.qd == {((m + 1, 0), (m, 0)): F(1) for m in range(3)}

    op0 = vi.point_virasoro(0, 3)
    assert op0.qd == {((m, 0), (m, 0)): F(2 * m + 1, 2) for m in range(4)}

    op1 = vi.point_virasoro(1, 3)
    assert op1.dd == {((0, 0), (0, 0)): F(1, 8)}
    assert op1.qd == {((m, 0), (m + 1, 0)): F(2 * m + 1, 2) * F(2 * m + 3, 2)
                      for m in range(3)}


def test_l2_shift_coefficients_and_bracket_pinned_mixed_term():
    # q d coefficients (m+1/2)(m+3/2)(m+5/2); the eps d0 d1 coefficient is
    # pinned to 3/8 by [L_2, L_-1] = 3 L_1 together with L_1's eps/8 term
    op2 = vi.point_virasoro(2, 4)
    assert op2.qd == {((m, 0), (m + 2, 0)):
                      F(2 * m + 1, 2) * F(2 * m + 3, 2) * F(2 * m + 5, 2)
                      for m in range(3)}
    assert op2.dd == {((0, 0), (1, 0)): F(3, 8)}
    r = vi.commutation_check(2, -1)
    assert r.ok and r.scalar == 0


def test_cc2_string_example():
    t = vi.multiplication_by_hbar_power(2, -1)
    eta = [[F(1), F(0)], [F(0), F(1)]]
    assert vi.quantize(t, 6) == vi.string_operator(eta, 6)


def test_string_operator_general_eta():
    eta = [[F(0), F(1)], [F(1), F(0)]]
    t = vi.multiplication_by_hbar_power(2, -1)
    assert vi.quantize(t, 6, eta=eta) == vi.string_operator(eta, 6)


def test_commutation_relations_all_pairs():
    for m in (-1, 0, 1, 2):
        for mp in (-1, 0, 1, 2):
            if m == mp or m + mp < -1:
                continue
            r = vi.commutation_check(m, mp)
            assert r.leftover_terms == 0
            assert r.scalar == r.expected_scalar == \
                (F(m - mp, 16) if m + mp == 0 else F(0))


def test_central_scalar_examples():
    assert vi.commutation_check(1, -1).scalar == F(1, 8)
    assert vi.commutation_check(0, 1).scalar == F(0)
    assert vi.commutation_check(2, -1).scalar == F(0)


def test_window_audit():
    a = vi.commutation_check(1, -1, max_index=4)
    b = vi.commutation_check(1, -1, max_index=8)
    assert (a.window, b.window) == (11, 15)
    assert a.scalar == b.scalar == F(1, 8)
    assert a.leftover_terms == b.leftover_terms == 0


def test_commutator_weyl_identities():
    # hand-checked normal orderings, at N = 2 so that the Darboux index
    # carries a basis label, independent of the Virasoro tables
    a, b = (0, 0), (0, 1)
    Q = vi.QuadraticOperator
    dd_ab, qq_ab = Q(2, dd={(a, b): F(1)}), Q(2, qq={(a, b): F(1)})
    # [eps d_a d_b, q_a q_b / eps] = q_a d_a + q_b d_b + 1
    assert dd_ab.commutator(qq_ab) == Q(2, const=F(1), qd={(a, a): F(1), (b, b): F(1)})
    assert qq_ab.commutator(dd_ab) == Q(2, const=F(-1), qd={(a, a): F(-1), (b, b): F(-1)})
    # [eps d_a^2, q_a^2 / eps] = 4 q_a d_a + 2
    assert Q(2, dd={(a, a): F(1)}).commutator(Q(2, qq={(a, a): F(1)})) == \
        Q(2, const=F(2), qd={(a, a): F(4)})
    # [q_a d_b, q_b d_a] = q_a d_a - q_b d_b
    assert Q(2, qd={(a, b): F(1)}).commutator(Q(2, qd={(b, a): F(1)})) == \
        Q(2, qd={(a, a): F(1), (b, b): F(-1)})
    # disjoint indices commute
    assert dd_ab.commutator(Q(2, qq={((1, 0), (1, 1)): F(1)})) == Q(2)


def _mutate_table(monkeypatch, m, block, key, value):
    table = vi.point_virasoro

    def point_virasoro(mm, truncation):
        op = table(mm, truncation)
        if mm == m:
            getattr(op, block)[key] = value
        return op

    monkeypatch.setattr(vi, "point_virasoro", point_virasoro)


def test_wrong_l1_central_coefficient_fails_on_scalar(monkeypatch):
    # eps/8 -> 3/16 in L_1 moves the central term of [L_1, L_-1] to 3/16
    # (and leaves q0 d0 / 8 behind)
    _mutate_table(monkeypatch, 1, "dd", ((0, 0), (0, 0)), F(3, 16))
    r = vi.commutation_check(1, -1)
    assert r.scalar == F(3, 16) != r.expected_scalar
    assert r.leftover_terms == 1
    assert not r.ok


def test_wrong_l2_mixed_coefficient_fails_on_leftover_terms(monkeypatch):
    # the 3/8 of eps d0 d1 in L_2 is forced by [L_2, L_-1] = 3 L_1; at 3/4
    # the residual keeps 3/8 (eps d0^2 + q0 d1) and no central term
    _mutate_table(monkeypatch, 2, "dd", ((0, 0), (1, 0)), F(3, 4))
    r = vi.commutation_check(2, -1)
    assert r.scalar == r.expected_scalar == 0
    assert r.leftover_terms == 2
    assert not r.ok


def test_family_reduces_to_point_case():
    for m in (-1, 0, 1, 2):
        fam = vi.family_operator([F(0)], [[F(0)]], m)
        assert fam.equals_on_window(vi.loop_d_operator(m), range(-8, 9))


def test_family_m_minus1_is_inverse_hbar_and_string():
    eta = [[F(0), F(1)], [F(1), F(0)]]
    mu = [F(-1, 2), F(1, 2)]
    rho = [[F(0), F(0)], [F(2), F(0)]]
    fam = vi.family_operator(mu, rho, -1)
    assert fam.equals_on_window(vi.multiplication_by_hbar_power(2, -1), range(-6, 7))
    assert vi.quantize(fam, 6, eta=eta) == vi.string_operator(eta, 6)


def test_family_bracket_random_mu_rho():
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
                res = vi.family_bracket_check(mu, rho, m, mp, range(-6, 7))
                # matrix-level bracket closes with coefficient (mp - m); the
                # quantized relation carries (m - mp)
                assert res.exact and res.coefficient == mp - m


def test_family_bracket_sign_is_pinned():
    # the bracket is (mp - m) L_{m+mp}, never (m - mp) L_{m+mp}
    rng = random.Random(11)
    window = range(-6, 7)
    for N in (1, 2, 3):
        mu = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(N)]
        rho = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if j < i else F(0)
                for j in range(N)] for i in range(N)]
        for m, mp in ((-1, 0), (-1, 1), (0, 1), (0, 2), (1, 2)):
            bracket = vi.family_operator(mu, rho, m).commutator(vi.family_operator(mu, rho, mp))
            target = vi.family_operator(mu, rho, m + mp)
            assert not bracket.equals_on_window(target.scale(F(m - mp)), window)
            assert bracket.equals_on_window(target.scale(F(mp - m)), window)


def test_noncommuting_mu_rho():
    # mu diagonal and rho nilpotent genuinely fail to commute as matrices
    mu = [F(1), F(2)]
    rho = [[F(0), F(0)], [F(1), F(0)]]
    lhs = [[mu[i] * rho[i][j] for j in range(2)] for i in range(2)]
    rhs = [[rho[i][j] * mu[j] for j in range(2)] for i in range(2)]
    assert lhs != rhs
    res = vi.family_bracket_check(mu, rho, -1, 1, range(-5, 6))
    assert res.exact


def test_non_symplectic_rejected_with_pair():
    bad = vi.family_operator([F(1, 2), F(1, 3)], [[F(0), F(0)], [F(1), F(0)]], 0)
    with pytest.raises(vi.VirasoroError, match="basis pair"):
        vi.quantize(bad, 3)


def test_eta_compatible_family_quantizes():
    eta = [[F(0), F(1)], [F(1), F(0)]]
    mu = [F(-1, 2), F(1, 2)]   # anti-self-adjoint for the antidiagonal pairing
    rho = [[F(0), F(0)], [F(2), F(0)]]   # self-adjoint for it
    for m in (-1, 0, 1):
        vi.quantize(vi.family_operator(mu, rho, m), 4, eta=eta)
