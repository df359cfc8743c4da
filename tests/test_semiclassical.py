"""Stationary phase and the exact classical-limit identities."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from todamirror import critical as cr
from todamirror import integrals as ig
from todamirror import mirror as mi
from todamirror import semiclassical as sc
from todamirror.exact import HbarSeries

LAM1 = (0.5, -0.5)


def test_stirling_tail_frozen_coefficients():
    # B_2/(2*1) = 1/12, B_4/(4*3) = -1/360, B_6/(6*5) = 1/1260
    assert sc.gamma_stirling_tail(3) == [F(1, 12), F(-1, 360), F(1, 1260)]


def test_fixed_point_weights():
    fp = sc.FixedPointData.from_permutation(1, (0, 1))
    assert len(fp.weights) == 1
    assert fp.weights[0] == mi.LambdaForm([F(-1), F(1)])  # lam_1 - lam_0
    fp3 = sc.FixedPointData.from_permutation(3, (0, 1, 2, 3))
    assert len(fp3.weights) == 6


def test_single_weight_b_series():
    # one weight: b = sum_k B_2k/(2k(2k-1)) (hbar/chi)^{2k-1}
    fp = sc.FixedPointData.from_permutation(1, (0, 1))
    b = sc.classical_limit_b(fp, 3)
    tail = sc.gamma_stirling_tail(3)
    for i, c in enumerate(tail, start=1):
        coeff = b.coefficient(2 * i - 1)
        assert coeff.terms == {(-(2 * i - 1),): c}


def test_b_is_odd_and_degree_graded():
    fp = sc.FixedPointData.from_permutation(2, (1, 0, 2))
    b = sc.classical_limit_b(fp, 4)
    assert (b + b.negate_hbar()).is_zero()
    for k in range(1, 5):
        coeff = b.coefficient(2 * k - 1)
        for exps in coeff.terms:
            assert sum(exps) == -(2 * k - 1)


def test_classical_limit_exact_all_permutations():
    for n in (1, 2, 3):
        for perm in itertools.permutations(range(n + 1)):
            rep = sc.verify_classical_limit(n, perm, 4)
            assert rep.match and rep.orthogonal, (n, perm)
            assert rep.first_mismatch is None


def test_stirling_numeric_sanity():
    # DLMF 5.11(ii): the remainder has the sign of the first omitted term and
    # is smaller, at every order the CLI may be asked for
    for K in range(1, 13):
        for z in (2.0, 5.0, 10.0, 20.0, 50.0):
            err, bound, ok = sc.stirling_numeric_residual(K, z)
            assert ok and 0 < err < bound, (K, z)
    for z in (5.0, 10.0):
        assert sc.stirling_numeric_residual(4, z)[0] < 1e-9


# |ln Gamma(z) - Stirling sum through order K| from 50-digit mpmath.loggamma,
# rounded once to float; the float64 formula misses them by up to 1.8e-15
STIRLING_REMAINDERS = {
    (4, 5): 3.961703985124012e-10, (4, 10): 8.23188716786779e-13,
    (5, 10): 1.8562124964062774e-14, (6, 10): 6.131442112064015e-16,
    (8, 10): 1.6692237755317325e-18, (12, 10): 1.888923361084913e-22,
}


def test_stirling_numeric_residual_is_exact_at_integers():
    for (K, z), remainder in STIRLING_REMAINDERS.items():
        err, bound, ok = sc.stirling_numeric_residual(K, float(z))
        assert err == remainder and ok
        assert bound == float(abs(sc.gamma_stirling_tail(K + 1)[K]) / F(z) ** (2 * K + 1))
    for z in (5.5, 0.0, -3.0):
        with pytest.raises(ValueError, match="positive integer"):
            sc.stirling_numeric_residual(4, z)


def test_stationary_leading_scalar_case():
    rec = cr.continue_to(mi.make_chart(mi.build_graph(1), (0,)), LAM1, (1.0,))
    lead = sc.stationary_leading(rec, sc.amplitude_one)
    # log-Hessian here is v + q/v at the real positive critical point
    v = rec.coordinates[0].real
    assert abs(lead - 1.0 / math.sqrt(v + 1.0 / v)) < 1e-10


def test_laplace_consistency_small_hbar():
    ch = mi.make_chart(mi.build_graph(1), (0,))
    rec = cr.continue_to(ch, LAM1, (1.0,))
    val = ig.evaluate(ig.IntegralTask(n=1, lam=LAM1, hbar=-0.125, chart=ch,
                                      q=(1.0,))).value
    assert sc.laplace_consistency(rec, val, -0.125) < 5e-2


@pytest.mark.parametrize("n, lam", [(1, LAM1), (2, (0.25, 0.125, -0.375))], ids=["n1", "n2"])
def test_stationary_leading_scaling_of_columns(n, lam):
    # lam -> c lam, q -> c^2 q: an amplitude of homogeneity degree m scales
    # the leading term by c^{m - d/2}, d = n(n+1)/2, chart by chart
    c, d = 2.0, n * (n + 1) // 2
    base = cr.all_critical_points(n, lam, (1.0,) * n)
    scaled = cr.all_critical_points(n, [c * x for x in lam], (c * c,) * n)
    for m, amp in ((0, sc.amplitude_one), (1, sc.amplitude_p(0))):
        ratio = [sc.stationary_leading(s, amp) / sc.stationary_leading(b, amp)
                 for b, s in zip(base, scaled)]
        assert np.allclose(ratio, c ** (m - d / 2))


def test_stationary_leading_nonequivariant_limit_finite():
    vals = []
    for eps in (1e-2, 5e-3):
        records = cr.all_critical_points(1, (eps, -eps), (1.0,))
        vals.append(np.array([sc.stationary_leading(r, sc.amplitude_one) for r in records]))
        assert np.all(np.isfinite(vals[-1]))
    assert np.max(np.abs(np.abs(vals[0]) - np.abs(vals[1]))) < 1e-3


def test_degenerate_record_rejected():
    rec = cr.continue_to(mi.make_chart(mi.build_graph(1), (0,)), LAM1, (1.0,))
    object.__setattr__ if False else setattr(rec, "nondegenerate", False)
    with pytest.raises(sc.SemiclassicalError):
        sc.stationary_leading(rec, sc.amplitude_one)


def test_zero_series_helpers():
    z = HbarSeries.zero(5)
    assert (z + z).is_zero()
