"""Oscillatory integrals: quadrature vs oracles, eigenvalue residuals,
q -> 0 factorisation, and the projective-line example."""

import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp

from todamirror import cli
from todamirror import critical as cr
from todamirror import integrals as ig
from todamirror import mirror as mi
from todamirror import operators as ops


def chart(n, kseq):
    return mi.make_chart(mi.build_graph(n), kseq)


def task(n, lam, q, hbar=-1.0, kseq=None):
    kseq = kseq if kseq is not None else (0,) * n
    return ig.IntegralTask(n=n, lam=lam, hbar=hbar, chart=chart(n, kseq), q=q)


def test_bessel_oracle_against_scipy():
    for nu, z in ((0.0, 2.0), (0.5, 2.0), (1.0, 3.0), (0.25, 0.5), (2.0, 1.0)):
        assert abs(ig.bessel_k_cosh(nu, z) - sp.kv(nu, z)) < 1e-12 * sp.kv(nu, z)


def test_value_matches_bessel_k_zero_weight():
    r = ig.evaluate(task(1, (0.0, 0.0), (1.0,)))
    assert abs(r.value - 2 * ig.bessel_k_cosh(0.0, 2.0)) < 1e-10 * r.value
    assert abs(r.value - 0.2278) < 1e-4
    assert r.value > 0


def test_value_matches_bessel_k_half():
    r = ig.evaluate(task(1, (0.25, -0.25), (1.0,)))
    assert abs(r.value - 2 * ig.bessel_k_cosh(0.5, 2.0)) < 1e-10 * r.value


def test_value_is_chart_independent():
    a = ig.evaluate(task(1, (0.25, -0.25), (1.0,), kseq=(0,))).value
    b = ig.evaluate(task(1, (0.25, -0.25), (1.0,), kseq=(1,))).value
    assert abs(a - b) < 1e-10 * a


def test_positive_contour_positive_value():
    for lam0 in (0.0, 0.5):
        for q in (0.5, 2.0):
            assert ig.evaluate(task(1, (lam0, -lam0), (q,))).value > 0


def test_error_estimate_within_tolerance():
    r = ig.evaluate(task(1, (0.5, -0.5), (1.0,)))
    assert r.error <= 1e-10                 # relative, at the default tolerance
    assert r.value == math.exp(r.f_ref / -1.0) * float(r.sums[0]) * r.cell


def test_eigen_residuals_n1_grid():
    # D_1 telescopes to zero on functions of t_1 - t_0; D_2 via quadrature
    for lam0 in (0.0, 0.25, 0.5):
        for q in (0.5, 1.0, 2.0):
            rep = ig.eigen_residual(task(1, (lam0, -lam0), (q,)))
            assert rep.residuals[0] == 0.0
            assert rep.residuals[1] < 1e-8
            oracle = ig.whittaker_closed_form(lam0, q, -1.0)
            assert abs(rep.base_value - oracle) < 1e-8 * oracle


def dense_weight_grid(phase, lnq, center, box, m, f_ref, hbar):
    """The trapezoid grid by full-size broadcasting: every monomial over every axis."""
    d = phase.dim
    axes = box_axes(center, box, m)
    view = [(None,) * k + (slice(None),) + (None,) * (d - 1 - k) for k in range(d)]
    grid = np.zeros((m,) * d)
    for a, b in zip(phase.A, phase.B):
        term = np.full((m,) * d, float(b @ lnq))
        for k in range(d):
            term = term + a[k] * axes[k][view[k]]
        grid += np.exp(term)
    for k in range(d):
        grid = grid + phase.sigma[k] * axes[k][view[k]]
    grid = np.exp((grid - f_ref) / hbar)
    for k in range(d):
        for end in (0, m - 1):
            grid[(slice(None),) * k + (end,)] *= 0.5
    return grid


def grid_box(n, kseq, lam, q, hbar=-1.0):
    """The phase, ln q, the peak and the box (lo, hi) around it that
    _converged_sums uses."""
    phase = mi.phase_in_chart(chart(n, kseq), lam)
    lnq = np.log(np.array(q))
    s_star, _ = ig._real_peak(phase, lnq)
    f_star = float(phase.value(s_star, lnq))
    box = ig._sublevel_box(phase, lnq, s_star, f_star, abs(hbar) * math.log(1e22))
    return phase, lnq, s_star, box, f_star


def box_axes(center, box, m):
    return [np.linspace(c - lo, c + hi, m) for c, lo, hi in zip(center, *box)]


def moment_exps(phase, lnq, n, hbar=-1.0):
    """The moment exponents k.A that eigen_residual sums: k = 0 first, then
    every k its amplitudes use."""
    amps = [ig._operator_amplitude(p, phase, lnq, hbar) for p in ops.toda_polynomials(n)]
    zero = (0,) * len(phase.B)
    return np.array([zero] + sorted(set().union(*amps) - {zero}), dtype=float) @ phase.A


def dense_moments(grid, axes, exps):
    """Each moment of a full weight grid: contract with exp(a_k s_k), last axis first."""
    out = []
    for a in exps:
        moment = grid
        for k in reversed(range(len(axes))):
            moment = moment @ np.exp(a[k] * axes[k])
        out.append(float(moment))
    return np.array(out)


def test_trapezoid_sums_match_the_dense_grid():
    sizes = (17, 65, 129)
    # at least one size leaves a ragged last slab of axis-0 rows
    assert any(m % max(1, ig._SLAB_NODES // m ** 2) for m in sizes)
    lam, q = (0.25, 0.125, -0.375), (0.75, 1.25)
    # a box narrowed to 1/8 puts real weight on the end halves
    boxes = [(m, 1.0) for m in sizes] + [(17, 0.125)]
    cases = [(2, k, lam, q, m, scale) for k in mi.all_k_sequences(2) for m, scale in boxes]
    cases.append((1, (0,), (0.25, -0.25), (0.5,), 513, 1.0))
    # the q = 1e-5 factorisation box doubled, where most nodes lie below the
    # kernel's exponent floor (28% on the box itself); the dense reference
    # exponentiates them unfloored
    small_q = (1e-5, 1e-5)
    cases += [(2, (0, 0), (1.2, 0.0, -1.2), small_q, m, 2.0) for m in (65, 129)]
    for n, kseq, lam_, q_, m, scale in cases:
        phase, lnq, center, box, f_ref = grid_box(n, kseq, lam_, q_)
        box = tuple(scale * side for side in box)
        axes, exps = box_axes(center, box, m), moment_exps(phase, lnq, n)
        sums = ig._trapezoid_sums(phase, lnq, axes, [True] * phase.dim, exps, f_ref, -1.0)
        grid = dense_weight_grid(phase, lnq, center, box, m, f_ref, -1.0)
        dense = dense_moments(grid, axes, exps)
        assert np.all(np.abs(sums - dense) <= 1e-14 * dense), (kseq, q_, m)
        if q_ == small_q:
            assert np.mean(grid < math.exp(ig._EXP_FLOOR)) > 0.5, m
    # spot nodes against the phase itself in 40 digits (a float reference
    # rounds as a float kernel does), each a one-node grid without end halves
    phase, lnq, center, box, f_ref = grid_box(2, (1, 0), lam, q)
    m, c = 65, 32
    axes = box_axes(center, box, m)
    for node in ((c, c, c), (c + 3, c - 2, c + 1), (c - 5, c, c + 4), (0, c, c), (c, m - 1, c)):
        s = np.array([axes[k][i] for k, i in enumerate(node)])
        got, = ig._trapezoid_sums(phase, lnq, [s[k:k + 1] for k in range(3)], [False] * 3,
                                  np.zeros((1, 3)), f_ref, -1.0)
        expected = decimal_weight(phase, s, lnq, f_ref, -1.0)
        assert abs(got - expected) <= 1e-13 * expected, node


def decimal_weight(phase, s, lnq, f_ref, hbar):
    """exp((f(s) - f_ref)/hbar) in 40-digit decimal from the float inputs,
    each converted exactly."""
    with localcontext() as ctx:
        ctx.prec = 40

        def dot(u, v):
            return sum(Decimal(float(x)) * Decimal(float(y)) for x, y in zip(u, v))

        f = (sum((dot(a, s) + dot(b, lnq)).exp() for a, b in zip(phase.A, phase.B))
             + dot(phase.sigma, s))
        return float(((f - Decimal(f_ref)) / Decimal(hbar)).exp())


def test_a_separated_factor_that_overflows_is_refused():
    # chart (0, 0)'s monomial 5 has exponents (1, -1, -1): the kernel keeps it
    # as e^{s_0} times a plane e^{b - s_1 - s_2}, which overflows at s_1, s_2
    # near -400 though e_5 itself is finite there
    phase, lnq, center, box, f_ref = grid_box(2, (0, 0), (0.25, 0.125, -0.375), (1.0, 1.0))
    assert phase.A[5].tolist() == [1.0, -1.0, -1.0]
    near = [np.linspace(399.0, 401.0, 5), np.linspace(-401.0, -399.0, 5)]
    zero = np.zeros((1, 3))
    for axes in ([near[0], near[1], near[1]], [near[1], near[1], near[1]]):
        with pytest.raises(ig.QuadratureError, match="monomial 5"):
            ig._trapezoid_sums(phase, lnq, axes, [True] * 3, zero, f_ref, -1.0)
    # where both factors stay finite (the plane underflows to 0) every sum is
    # finite: no 0 * inf reaches it
    for axes in ([near[0]] * 3, [near[1], near[0], near[0]]):
        sums = ig._trapezoid_sums(phase, lnq, axes, [True] * 3, zero, f_ref, -1.0)
        assert np.isfinite(sums).all()


def test_a_level_is_the_level_before_plus_its_new_nodes():
    phase, lnq, center, box, f_ref = grid_box(2, (0, 1), (0.25, 0.125, -0.375), (0.75, 1.25))
    exps = moment_exps(phase, lnq, 2)
    for m in (17, 65):
        fine = box_axes(center, box, 2 * m - 1)
        parts = list(ig._new_nodes(fine))
        assert sum(math.prod(map(len, sub)) for sub, _ in parts) == (2 * m - 1) ** 3 - m ** 3
        nested = ig._trapezoid_sums(phase, lnq, box_axes(center, box, m), [True] * 3,
                                    exps, f_ref, -1.0)
        for sub, halved in parts:
            nested = nested + ig._trapezoid_sums(phase, lnq, sub, halved, exps, f_ref, -1.0)
        full = ig._trapezoid_sums(phase, lnq, fine, [True] * 3, exps, f_ref, -1.0)
        assert np.all(np.abs(nested - full) <= 1e-14 * full), m


def face_minimum(phase, lnq, k, c, start):
    """The minimum of f on the plane s_k = c and f's gradient there, by Newton
    over the other axes from start, damped (Armijo) until the gradient along
    the plane is small."""
    keep = np.arange(phase.dim) != k
    b = phase.B @ lnq

    def f(s):
        return np.exp(np.minimum(phase.A @ s + b, 700.0)).sum() + phase.sigma @ s

    s = start.copy()
    s[k] = c
    for _ in range(100):
        g = phase.gradient(s, lnq)
        if np.abs(g[keep]).max(initial=0.0) <= 1e-13 * abs(g[k]):
            return s, g
        step = np.zeros(phase.dim)
        step[keep] = np.linalg.solve(phase.hessian(s, lnq)[np.ix_(keep, keep)], -g[keep])
        t = 1.0
        while (np.abs(g[keep]).max() > 1e-6 * abs(g[k])
               and f(s + t * step) > f(s) + t * (g @ step) / 4 and t > 1e-12):
            t /= 2
        s = s + t * step
    raise AssertionError(f"no minimum on the face s_{k} = {c}")


def test_every_peak_meets_the_census_tolerance():
    # the peak search stops where the census's Newton does: |grad f|_inf at
    # most NEWTON_TOL or the rounding floor of the gradient sum.  Every chart
    # at the CLI's default draws for n = 1, 2 (seeds 0-7, their q, q = 1 and
    # small q) and at the factorisation points.  A search that settled for
    # |grad f|_inf < 1e-6 once its descent of f stalled left 96 of these 208
    # peaks above it.  At n = 2 and q = 1e-22 or 1e-30 the peak lies up to 70
    # from the search's start s = 0, which steps capped at 0.5 do not reach;
    # chart (1, 0) at q = 1e-60 or 1e30 has no peak the search can find, and
    # must say so as a QuadratureError
    points = [(1, (0.6, -0.6), (q,)) for q in (1e-4, 1e-6)]
    points += [(2, (1.2, 0.0, -1.2), (q, q)) for q in (1e-4, 1e-5)]
    points += [(2, lam, (q, q)) for lam in ((0.25, 0.125, -0.375), (1.2, 0.0, -1.2))
               for q in (1e-22, 1e-30)]
    for n in (1, 2):
        for seed in range(8):
            cfg = cli.resolve_defaults(cli.RunConfig(task="critical", n=n, seed=seed))
            points += [(n, cfg.lam, q) for q in (cfg.q, (1.0,) * n, (1e-4,) * n)]
    for n, lam, q in points:
        lnq = np.log(np.array(q, dtype=float))
        for kseq in mi.all_k_sequences(n):
            phase = mi.phase_in_chart(chart(n, kseq), [float(x) for x in lam])
            e = phase.exponentials(ig._real_peak(phase, lnq)[0], lnq)
            terms = np.abs(phase.A).T @ e + np.abs(phase.sigma)
            tol = max(cr.NEWTON_TOL, cr.FLOOR_FACTOR * np.finfo(float).eps * terms.max())
            assert np.abs(phase.A.T @ e + phase.sigma).max() <= tol, (n, lam, q, kseq)
    phase = mi.phase_in_chart(chart(2, (1, 0)), (0.25, 0.125, -0.375))
    for q in (1e-60, 1e30):
        with pytest.raises(ig.QuadratureError, match="peak search"):
            ig._real_peak(phase, np.log(np.array([q, q])))


def test_the_peak_is_the_census_positive_point():
    # f is strictly convex on the real cycle, so exactly one census record has
    # every edge value in the right half-plane (real to rounding), and in every
    # chart the quadrature's peak is that point: its edge values
    # exp(A s* + B ln q) and its u = f(s*) + rho . ln q, to 1e-10 relative.
    # CLI default draws, n = 1, 2, seeds 0-7
    for n in (1, 2):
        for seed in range(8):
            cfg = cli.resolve_defaults(cli.RunConfig(task="critical", n=n, seed=seed))
            lam, q = [float(x) for x in cfg.lam], [float(x) for x in cfg.q]
            records = cr.census(n, lam, q).records
            positive = [r for r in records
                        if all(v.real > 0 for v in r.edge_values.values())]
            assert len(positive) == 1, (n, seed)
            point = positive[0]
            assert all(abs(v.imag) <= 1e-14 * abs(v) for v in point.edge_values.values())
            lnq = np.log(np.array(q))
            for kseq in mi.all_k_sequences(n):
                ch = chart(n, kseq)
                phase = mi.phase_in_chart(ch, lam)
                peak, _ = ig._real_peak(phase, lnq)
                for name, e in zip(ch.row_of, phase.exponentials(peak, lnq)):
                    expect = point.edge_values[name]
                    assert abs(e - expect) <= 1e-10 * abs(expect), (n, seed, kseq, name)
                u = phase.value(peak, lnq) + phase.rho @ lnq
                assert abs(u - point.u_sigma) <= 1e-10 * abs(point.u_sigma), (n, seed, kseq)


def test_a_stalled_peak_search_reports_its_gradient(monkeypatch):
    # a step along +grad f never lowers |grad f|_inf of a convex f, so the
    # line search stalls on its first step
    phase = mi.phase_in_chart(chart(1, (0,)), (0.25, -0.25))
    monkeypatch.setattr(ig.np.linalg, "solve", lambda h, g: -g)
    with pytest.raises(ig.QuadratureError, match=r"stalled at \|grad f\|_inf = "):
        ig._real_peak(phase, np.zeros(1))


@pytest.mark.parametrize("n, kseq, lam, q, hbar", [
    (2, (0, 0), (0.25, 0.125, -0.375), (1.0, 1.0), -1.0),
    (2, (2, 1), (0.25, 0.125, -0.375), (1.0, 1.0), -1.0),
    (2, (0, 0), (0.25, 0.125, -0.375), (1.0, 1.0), -100.0),
    (2, (0, 0), (1.2, 0.0, -1.2), (1e-4, 1e-4), -1.0),
    (1, (0,), (0.25, -0.25), (1.0,), -1.0),
])
def test_box_bounds_the_sublevel_set(n, kseq, lam, q, hbar):
    phase, lnq, s_star, (lo, hi), f_star = grid_box(n, kseq, lam, q, hbar)
    T = abs(hbar) * math.log(1e22)
    assert np.all(lo > 0) and np.all(hi > 0)
    # along 200 random directions, where f - f* reaches T lies in the box
    u = np.random.default_rng(3).standard_normal((200, phase.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)

    def excess(r):
        s = s_star + r[:, None] * u
        return np.exp(s @ phase.A.T + phase.B @ lnq).sum(axis=1) + s @ phase.sigma - f_star

    low, high = np.zeros(200), np.ones(200)
    while np.any(excess(high) < T):
        high = np.where(excess(high) < T, 2 * high, high)
    for _ in range(60):
        mid = (low + high) / 2
        below = excess(mid) < T
        low, high = np.where(below, mid, low), np.where(below, high, mid)
    reach = high[:, None] * u
    assert np.all(reach <= hi + 1e-9) and np.all(-reach <= lo + 1e-9)
    # each face touches the set: on its plane f - f* comes down to T exactly,
    # at a point where grad f is normal to the face
    for k in range(phase.dim):
        for sign, c in ((1, s_star[k] + hi[k]), (-1, s_star[k] - lo[k])):
            s, g = face_minimum(phase, lnq, k, c, s_star)
            assert abs(float(phase.value(s, lnq)) - f_star - T) <= 1e-9 * (1 + T), (k, sign)
            assert np.sign(g[k]) == sign
            assert np.abs(np.delete(g, k)).max(initial=0.0) <= 1e-9 * abs(g[k]), (k, sign)


def test_nodes_stay_off_the_subnormal_exp():
    # the kernel floors each node's exponent before its exp, so no exp it
    # takes underflows, here or in the moment vectors
    with np.errstate(under="raise"):
        ig.evaluate(task(2, (1.2, 0.0, -1.2), (1e-5, 1e-5)))
        ig.eigen_residual(task(2, (0.25, 0.125, -0.375), (1.0, 1.0)))


def test_trapezoid_sums_hold_no_grid():
    phase, lnq, center, box, f_ref = grid_box(2, (0, 0), (0.25, 0.125, -0.375), (1.0, 1.0))
    exps = moment_exps(phase, lnq, 2)
    assert exps.shape == (15, 3)
    axes = box_axes(center, box, 129)           # a 129^3 grid would be 17.2 MB
    tracemalloc.start()
    try:
        ig._trapezoid_sums(phase, lnq, axes, [True] * 3, exps, f_ref, -1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_eigen_residuals_n2_generic_point():
    rep = ig.eigen_residual(task(2, (0.25, 0.125, -0.375), (1.0, 1.0)))
    assert all(r < 1e-8 for r in rep.residuals)
    assert max(rep.residuals) < 1e-13       # no mass is cut off the box
    # the doubling loop from 17 nodes per axis evaluates each node once
    levels = [17]
    while levels[-1] < rep.nodes_per_axis:
        levels.append(2 * levels[-1] - 1)
    assert rep.evaluations == rep.nodes_per_axis ** 3
    assert rep.levels == len(levels)
    # the eigen doubling tolerance; the 65^3 and 129^3 integrals agree to the
    # last bit here, so the difference can be exactly 0
    assert rep.error <= 1e-11


@pytest.mark.parametrize("n, lam", [(1, (0.25, -0.25)), (2, (0.25, 0.125, -0.375))])
def test_eigen_residuals_do_not_depend_on_the_order_of_amplitude_terms(monkeypatch, n, lam):
    # each residual is rounding in a cancellation: a plain sum of the moment
    # terms moved the n = 2 residuals when the terms came in reverse order
    forward = ig.eigen_residual(task(n, lam, (1.0,) * n)).residuals
    amplitude = ig._operator_amplitude
    monkeypatch.setattr(ig, "_operator_amplitude",
                        lambda *args: dict(reversed(list(amplitude(*args).items()))))
    assert ig.eigen_residual(task(n, lam, (1.0,) * n)).residuals == forward
    assert forward[0] == 0.0                 # the D_1 row is 0 by construction


@pytest.mark.parametrize("n, lam", [(1, (0.25, -0.25)), (2, (0.25, 0.125, -0.375))])
def test_eigen_residual_detects_shifted_eigenvalues(monkeypatch, n, lam):
    delta = 1e-6
    exact_sigma = ig.elementary_symmetric_sigma
    monkeypatch.setattr(ig, "elementary_symmetric_sigma",
                        lambda lams: [s + delta for s in exact_sigma(lams)])
    rep = ig.eigen_residual(task(n, lam, (1.0,) * n))
    assert all(abs(r - delta) < 0.1 * delta for r in rep.residuals)


def test_one_variable_factors():
    assert abs(ig.one_variable_factor(1.0, -1.0) - 1.0) < 1e-12
    assert abs(ig.one_variable_factor(0.5, -1.0) - math.sqrt(math.pi)) < 1e-12
    # quadrature cross-check of the Gamma value on one axis
    val = ig.evaluate(task(1, (0.25, -0.25), (1e-9,), kseq=(0,))).value
    # at tiny q the integral is the one-variable factor with c = sigma(1,0)
    ch = chart(1, (0,))
    c = float(ch.sigma[(1, 0)].evaluate((0.25, -0.25)))
    assert c / -1.0 == 0.5
    assert abs(val - ig.one_variable_factor(c / -1.0, -1.0)) < 1e-4 * val


def test_admissible_charts():
    def admissible_charts(n, lam):
        return [k for k in mi.all_k_sequences(n)
                if ig.admissible(mi.phase_in_chart(chart(n, k), lam), -1.0)]

    assert admissible_charts(1, (0.6, -0.6)) == [(0,)]
    assert admissible_charts(1, (-0.6, 0.6)) == [(1,)]
    assert (0, 0) in admissible_charts(2, (1.2, 0.0, -1.2))


def test_factorization_n1():
    lam = (0.6, -0.6)
    ch = chart(1, (0,))
    m4, _, _ = ig.q_to_zero_factorization(1, lam, -1.0, ch, 1e-4)
    m6, _, _ = ig.q_to_zero_factorization(1, lam, -1.0, ch, 1e-6)
    assert m4 < 1e-3
    assert m6 < m4


def test_factorization_rejects_inadmissible_chart():
    with pytest.raises(ValueError):
        ig.q_to_zero_factorization(1, (0.6, -0.6), -1.0, chart(1, (1,)), 1e-4)


@pytest.mark.slow
def test_factorization_n2():
    lam = (1.2, 0.0, -1.2)
    ch = chart(2, (0, 0))
    m4, _, _ = ig.q_to_zero_factorization(2, lam, -1.0, ch, 1e-4)
    m5, _, _ = ig.q_to_zero_factorization(2, lam, -1.0, ch, 1e-5)
    assert m4 < 1e-3
    assert m5 < m4


def test_cp1_example():
    # n = 1, t = ln q: at each census record du/dt = sum_m B_m e_m + rho is the
    # momentum p = +/-sqrt(lam0^2 + q) and the t-derivative of the closed form
    # 2p + lam0 ln(lam1 + p) + lam1 ln(lam0 + p), lam1 = -lam0, dp/dt = q/(2p)
    lam0 = 0.5
    lam = (lam0, -lam0)
    for q in (0.5, 1.0, 2.0):
        root = math.sqrt(lam0 ** 2 + q)
        for rec in cr.census(1, lam, (q,)).records:
            phase = mi.phase_in_chart(rec.chart, lam)
            du = sum(b * rec.edge_values[name]
                     for b, name in zip(phase.B[:, 0], rec.chart.row_of)) + phase.rho[0]
            p = min((root, -root), key=lambda v: abs(du - v))
            closed = (2.0 + lam0 / complex(p - lam0) - lam0 / complex(lam0 + p)) * q / (2.0 * p)
            assert abs(du - closed) < 1e-8
            assert abs(du - p) < 1e-8


def test_cp1_momentum_branch_algebra():
    lam0, q = 0.5, 1.3
    p_plus = math.sqrt(lam0 ** 2 + q)
    p_minus = -p_plus
    assert abs(p_plus + p_minus) == 0
    assert abs(p_plus * p_minus - (-lam0 ** 2 - q)) < 1e-12


def test_task_validation():
    t = task(1, (Fraction(1, 2), Fraction(-1, 2)), (Fraction(2),))
    assert t.lam == (0.5, -0.5) and t.q == (2.0,)
    # the checks ran once, when the task was made; it cannot be changed after
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.hbar = 1.0


BAD_TASKS = [   # (overrides of a good n = 1 task, the refusal it must get)
    pytest.param(dict(hbar=0.0), "hbar must be negative", id="hbar=0"),
    pytest.param(dict(hbar=1.0), "hbar must be negative", id="hbar=1"),
    pytest.param(dict(n=2, lam=(0.25, 0.125, -0.375), q=(1.0, 1.0), hbar=1.0),
                 "hbar must be negative", id="hbar=1,n=2"),
    pytest.param(dict(lam=(0.5, -0.4)), "sum to zero", id="lambda-sum"),
    # the census's rule: |sum| <= 1e-12 max(1, max |lambda|)
    pytest.param(dict(lam=(0.5, -0.5 + 1e-10)), "sum to zero", id="lambda-sum-1e-10"),
    pytest.param(dict(lam=(0.5, -0.25, -0.25)), "lambda must have length 2", id="lambda-length"),
    pytest.param(dict(q=(1.0, 1.0)), "q must be a positive vector", id="q-length"),
    pytest.param(dict(q=(0.0,)), "q must be a positive vector", id="q=0"),
    pytest.param(dict(q=(-1.0,)), "q must be a positive vector", id="q<0"),
    pytest.param(dict(n=3, lam=(0.4, 0.1, -0.2, -0.3), q=(1.0,) * 3), "desk scale", id="n=3"),
    pytest.param(dict(kseq=(0, 0)), "chart is for n = 2", id="chart-n"),
]


@pytest.mark.parametrize("entry", [ig.evaluate, ig.eigen_residual], ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad, refusal", BAD_TASKS)
def test_bad_input_is_refused_before_any_node(entry, bad, refusal, monkeypatch):
    def no_nodes(*args):
        raise AssertionError("a node was evaluated")

    monkeypatch.setattr(ig, "_trapezoid_sums", no_nodes)
    kw = {"n": 1, "lam": (0.5, -0.5), "q": (1.0,), "hbar": -1.0, **bad}
    kseq = kw.pop("kseq", (0,) * kw["n"])
    with pytest.raises(ValueError, match=refusal):
        entry(ig.IntegralTask(chart=chart(len(kseq), kseq), **kw))


def test_quadrature_nonconvergence_reported(monkeypatch):
    monkeypatch.setattr(ig, "_MAX_DOUBLINGS", 1)
    with pytest.raises(ig.QuadratureError, match="doubling"):
        ig.evaluate(task(2, (0.25, 0.125, -0.375), (1.0, 1.0)))


def test_decay_check_reports_offending_face():
    # one exponential on axis 0 only; axis 1 has a runaway linear term
    phase = mi.ChartPhase(A=np.array([[1.0, 0.0]]), B=np.zeros((1, 0)),
                          sigma=np.array([0.5, -1.0]), rho=np.zeros(0))
    # its Hessian is singular at s = 0, which names the flat axis
    with pytest.raises(ig.QuadratureError, match="boundary face") as exc:
        ig._sublevel_box(phase, np.zeros(0), np.zeros(2), 1.0, math.log(1e22))
    assert "axis 1" in str(exc.value)


def test_dimension_guards():
    # both entry points take an IntegralTask, and none exists at n = 3
    for entry in (ig.evaluate, ig.eigen_residual):
        with pytest.raises(ValueError, match="desk scale"):
            entry(ig.IntegralTask(n=3, lam=(0.4, 0.1, -0.2, -0.3), hbar=-1.0,
                                  chart=chart(3, (0, 0, 0)), q=(1.0, 1.0, 1.0)))
