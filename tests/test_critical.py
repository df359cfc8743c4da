"""Critical-point continuation, spectral identity, Lagrangian map, UV identity."""

import cmath
import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from todamirror import cli
from todamirror import critical as cr
from todamirror import mirror as mi
from todamirror.exact import LaurentPolynomial

LAM1 = (0.5, -0.5)


def chart(n, kseq):
    return mi.make_chart(mi.build_graph(n), kseq)


def test_start_point_one_variable():
    # x + c ln x has its critical point at x = -c; c = -1 gives x = 1
    ch = chart(1, (0,))
    s = mi.phase_in_chart(ch, (-0.5, 0.5)).start_point()  # sigma(1,0) = 1 -> w = -1
    assert np.allclose(np.exp(s), [-1.0])
    s2 = mi.phase_in_chart(ch, LAM1).start_point()        # sigma = -1 -> w = 1
    assert np.allclose(np.exp(s2), [1.0])


def test_start_point_rejects_degenerate_lambda():
    ch = chart(1, (0,))
    with pytest.raises(cr.DegenerateParameterError):
        mi.phase_in_chart(ch, (0.0, 0.0)).start_point()


def test_n1_critical_roots_and_hessian():
    # u-chart: critical u solves u^2 + 2 lam0 u - q = 0
    rec = cr.continue_to(chart(1, (1,)), LAM1, (1.0,))
    u = rec.coordinates[0]
    assert abs(u - (-0.5 - math.sqrt(5) / 2)) < 1e-10
    # f = u + q/u + sigma ln u, so d^2f/ds^2 = u + q/u at s = ln u
    assert abs(rec.log_hessian[0, 0] - (-math.sqrt(5))) < 1e-10
    assert abs(rec.log_hessian_det - (-math.sqrt(5))) < 1e-10
    rec_v = cr.continue_to(chart(1, (0,)), LAM1, (1.0,))
    v = rec_v.coordinates[0]
    assert abs(v - (0.5 + math.sqrt(5) / 2)) < 1e-10
    # same point of the torus seen from both charts: u * v = q
    assert abs(rec_v.edge_values["u[1,0]"] * v - 1.0) < 1e-10


def test_q_to_zero_limit_of_critical_value():
    ch = chart(1, (1,))
    sig = float(ch.sigma[(1, 0)].evaluate(LAM1))
    expect = -sig + sig * cmath.log(complex(-sig))
    for qs in (1e-3, 1e-5):
        rec = cr.continue_to(ch, LAM1, (qs,))
        shifted = rec.u_sigma - float(ch.rho[(1, 0)].evaluate(LAM1)) * math.log(qs)
        assert abs(shifted - expect) < 5 * qs


def test_spectral_identity_n1_hand_values():
    # both n = 1 charts: A_1 - lam_0 I = [[p0, q], [-1, p1]] has trace
    # sigma_1 = 0 and determinant sigma_2 = lam_0 lam_1 = -1/4
    for kseq in ((0,), (1,)):
        rec = cr.continue_to(chart(1, kseq), LAM1, (1.0,))
        lp = cr.to_lagrangian(rec)
        m = np.array([[lp.p[0], lp.q[0]], [-1.0, lp.p[1]]])
        assert abs(np.trace(m)) < 1e-10
        assert abs(np.linalg.det(m) - (-0.25)) < 1e-10
        assert cr.spectral_check(rec) < 1e-10


def test_lagrangian_hand_values():
    for kseq in ((0,), (1,)):
        rec = cr.continue_to(chart(1, kseq), LAM1, (1.0,))
        lp = cr.to_lagrangian(rec)
        assert abs(lp.p[0] + lp.p[1]) < 1e-10
        assert abs(lp.p[0] * lp.p[1] + lp.q[0] - (-0.25)) < 1e-10
        assert lp.max_residual < 1e-10
        assert cr.spectral_check(rec) == lp.max_residual


def test_census_counts():
    for n, lam, q in ((1, LAM1, (1.0,)),
                      (2, (0.25, 0.125, -0.375), (1.0, 1.0)),
                      (3, (0.4, 0.1, -0.2, -0.3), (0.7, 1.1, 0.9))):
        c = cr.census(n, lam, q)
        assert len(c.records) == len(c.points) == math.factorial(n + 1)
        assert len({r.chart.permutation for r in c.records}) == math.factorial(n + 1)
        assert all(r.nondegenerate for r in c.records)
        assert c.min_pairwise_distance > 1e-6
        assert c.max_spectral_residual < 1e-8
        assert max(max(pt.residuals) for pt in c.points) < 1e-8


def test_fiber_cardinality_matches_projection_degree():
    # distinct p-vectors over a fixed q: the fiber has (n+1)! points
    records = cr.all_critical_points(2, (0.25, 0.125, -0.375), (0.8, 1.3))
    ps = [tuple(np.round(cr.to_lagrangian(r).p, 8)) for r in records]
    assert len(set(ps)) == 6


def test_merged_residual_sees_a_perturbed_edge():
    # the spectral identity and the Toda relations are one residual; a
    # relative 1e-6 error on any row-1 edge of any record must show in it
    lam, q = (0.25, 0.125, -0.375), (1.0, 1.0)
    c = cr.census(2, lam, q)
    assert c.max_spectral_residual == max(max(pt.residuals) for pt in c.points) < 1e-8
    for rec in c.records:
        for name in (e for e in rec.edge_values if e.startswith(("u[1,", "v[1,"))):
            edges = dict(rec.edge_values, **{name: rec.edge_values[name] * (1 + 1e-6)})
            bent = dataclasses.replace(rec, edge_values=edges)
            assert cr.spectral_check(bent) > 1e-8, (rec.chart.kseq, name)
            assert cr.to_lagrangian(bent).max_residual > 1e-8, (rec.chart.kseq, name)
    cfg = cli.RunConfig(task="critical", n=2, lam=[Fraction(x) for x in lam],
                        q=[Fraction(x) for x in q])
    rows = [r for r in cli.run(cfg).to_dict()["results"] if "lagrangian_residuals" in r]
    assert len(rows) == 6
    assert all(r["spectral_residual"] == max(r["lagrangian_residuals"]) for r in rows)


def test_nonequivariant_point_satisfies_unshifted_relations():
    # at lam -> 0 the p-values satisfy D_i(p, q) = 0
    records = cr.all_critical_points(1, (1e-7, -1e-7), (1.0,))
    for rec in records:
        lp = cr.to_lagrangian(rec)
        toda = np.array([[lp.p[0], lp.q[0]], [-1.0, lp.p[1]]])
        coeffs = np.poly(-toda)[1:]
        assert np.max(np.abs(coeffs)) < 1e-5


def test_scaling_law():
    fiber1 = cr.all_critical_points(1, LAM1, (1.0,))
    fiber2 = cr.all_critical_points(2, (0.25, 0.125, -0.375), (1.0, 1.0))
    for c in (2.0, 1.0 / 3.0):
        assert cr.scaling_residual(fiber1, c) < 1e-8
        assert cr.scaling_residual(fiber2, c) < 1e-8


def test_scaling_check_fails_on_a_wrong_critical_value():
    records = cr.all_critical_points(2, (0.25, 0.125, -0.375), (1.0, 1.0))
    assert cr.scaling_residual(records, 2.0) < 1e-8
    records[3] = dataclasses.replace(records[3], u_sigma=records[3].u_sigma + 1e-6)
    assert cr.scaling_residual(records, 2.0) > 1e-8


@pytest.mark.parametrize("n, lam, q", [
    (2, (0.25, 0.125, -0.375), (1.0, 1.0)),
    (3, (0.4, 0.1, -0.2, -0.3), (0.7, 1.1, 0.9)),
], ids=["n2", "n3"])
def test_scaling_check_sees_a_sigma_not_linear_in_lambda(n, lam, q, monkeypatch):
    # sigma -> c sigma + c^2 eps moves the scaled critical point off s + ln c:
    # the re-solve must find the point it moves to, not echo the start
    phase = cr.phase_in_chart

    def mutated(chart, lam):
        ph = phase(chart, lam)
        sigma = ph.sigma.copy()
        sigma[0] += 1e-4 * lam[0] ** 2
        return dataclasses.replace(ph, sigma=sigma)

    monkeypatch.setattr(cr, "phase_in_chart", mutated)
    records = cr.all_critical_points(n, lam, q)
    solves, newton = [], cr._Lanes._newton

    def recording(self, rows, s, c, *rest):
        out = newton(self, rows, s, c, *rest)
        solves.append((self, s, out[0]))
        return out

    monkeypatch.setattr(cr._Lanes, "_newton", recording)
    for c in (2.0, 1.0 / 3.0):
        solves.clear()
        assert cr.scaling_residual(records, c) > 1e-8
        # one Newton solve left s + ln c for the point a track from q = 0 reaches
        [(lanes, start, solved)] = solves
        assert np.max(np.abs(solved - start)) > 1e-8
        assert np.max(np.abs(solved - lanes.track().s)) < 1e-10


def test_batched_lanes_match_single_tracks():
    # a lane's track must not depend on the other lanes of its batch
    n, lam, q = 3, (0.4, 0.1, -0.2, -0.3), (0.7, 1.1, 0.9)
    graph = mi.build_graph(n)
    charts = [mi.make_chart(graph, k) for k in mi.all_k_sequences(n)]
    lanes = cr._Lanes(charts, lam, q)
    ends = lanes.track()
    assert ends.errors == [None] * len(charts)
    for ch, rec in zip(charts, lanes.records(ends)):
        single = cr.continue_to(ch, lam, q)
        assert abs(rec.u_sigma - single.u_sigma) < 1e-10
        assert np.max(np.abs(rec.s - single.s)) < 1e-10
        assert abs(rec.sqrt_log_hessian_det - single.sqrt_log_hessian_det) < 1e-10


def fractions(text):
    return [float(Fraction(x)) for x in text.split(",")]


@pytest.mark.parametrize("lam", ["4/15,3/16,-2/5,-13/240", "3/5,-5/11,-2/5,14/55"])
def test_sqrt_hessian_det_starts_on_the_stated_branch(lam):
    # at q -> 0 the log-Hessian is diag(-sigma): its continued square root is
    # +sqrt(prod(-sigma)), or +i sqrt|prod(-sigma)| when the product is negative
    for rec in cr.all_critical_points(3, fractions(lam), (1e-9,) * 3):
        prod = np.prod(-mi.phase_in_chart(rec.chart, fractions(lam)).sigma)
        want = math.sqrt(prod) if prod > 0 else 1j * math.sqrt(-prod)
        assert abs(rec.sqrt_log_hessian_det - want) < 1e-5 * abs(want), rec.chart.kseq


@pytest.mark.parametrize("lam, q, kseq, root", [
    ("4/15,3/16,-2/5,-13/240", "1/4,1/8,15/16", (1, 0, 1), 0.9413 + 0.4199j),
    ("3/5,-5/11,-2/5,14/55", "3/16,1/8,3/4", (1, 2, 1), 0.5558j),
])
def test_sqrt_hessian_det_on_a_negative_start(lam, q, kseq, root):
    # prod(-sigma) < 0 for these charts; a continuation of log det in 20,000
    # equal steps of theta along the census path reaches the same root
    rec = cr.continue_to(chart(3, kseq), fractions(lam), fractions(q))
    assert abs(rec.sqrt_log_hessian_det - root) < 1e-4


def default_draw(n, seed):
    """The CLI's default (lambda, q) of a critical run for a seed, as floats."""
    cfg = cli.resolve_defaults(cli.RunConfig("critical", n=n, seed=seed))
    return [float(x) for x in cfg.lam], [float(x) for x in cfg.q]


def test_path_correctors_are_capped_and_the_solve_at_q_is_not(monkeypatch):
    # a path step's corrector gets _PATH_NEWTON_STEPS steps, unless it retries
    # a failed corrector of its lane; the solve at the target q and the scaling
    # re-solve get _NEWTON_STEPS.  On this draw some correctors run into the
    # cap, and their halved steps still arrive.
    calls, newton = [], cr._Lanes._newton

    def recording(self, rows, s, c, limit):
        out = newton(self, rows, s, c, limit)
        calls.append((rows.copy(), np.broadcast_to(limit, len(rows)).copy(), out[4]))
        return out

    monkeypatch.setattr(cr._Lanes, "_newton", recording)
    n, (lam, q) = 3, default_draw(3, 25)
    lanes = cr._Lanes([chart(n, k) for k in mi.all_k_sequences(n)], lam, q)
    ends = lanes.track()
    assert ends.errors == [None] * len(lanes.charts)
    assert ends.rounds == len(calls) and ends.solves == lanes.solves
    for lane in range(len(lanes.charts)):
        mine = [(int(lim[r]), whys[r]) for rows, lim, whys in calls
                for r in (rows == lane).nonzero()[0]]
        limits = [lim for lim, _ in mine]
        assert limits[:-1] == [cr._NEWTON_STEPS if i and mine[i - 1][1] else cr._PATH_NEWTON_STEPS
                               for i in range(len(mine) - 1)]
        assert limits[-1] == cr._NEWTON_STEPS
    capped = [why for _, lim, whys in calls for cap, why in zip(lim, whys)
              if cap == cr._PATH_NEWTON_STEPS and why and why.startswith("Newton did not reach")]
    assert capped and ends.halvings >= len(capped)
    calls.clear()
    cr.scaling_residual(lanes.records(ends), 2.0)
    [(_, limits, _)] = calls
    assert np.all(limits == cr._NEWTON_STEPS)


def test_start_tangent_matches_a_small_step():
    # at q = 0 the predictor is explicit; a Newton solve a little way along
    # the path, at theta = 1e-6, must move each lane by theta times it
    n, (lam, q) = 3, default_draw(3, 0)
    lanes = cr._Lanes([chart(n, k) for k in mi.all_k_sequences(n)], lam, q)
    theta, count = 1e-6, len(lanes.charts)
    s, _, _, _, why = lanes._newton(np.arange(count), lanes.start,
                                    lanes.bq + np.log(cr._tau(theta)) * lanes.qdeg, cr._NEWTON_STEPS)
    assert why == [None] * count
    tangent = lanes.start_tangent()
    error = np.abs((s - lanes.start) / theta - tangent).max(axis=1)
    assert np.all(error <= 1e-4 * np.abs(tangent).max(axis=1))


def test_proposed_path_steps_stay_inside_the_jump_bound(monkeypatch):
    # every path corrector starts from a predicted point within
    # PREDICTED_MOVE * JUMP_BOUND of its lane's last accepted point, which is
    # the last earlier solve of the lane at a smaller theta (a rejected step
    # is retried at a smaller theta than its own)
    calls, newton = [], cr._Lanes._newton

    def recording(self, rows, s, c, limit):
        out = newton(self, rows, s, c, limit)
        calls.append((rows.copy(), s.copy(), c.copy(), out[0]))
        return out

    monkeypatch.setattr(cr._Lanes, "_newton", recording)
    n, (lam, q) = 3, default_draw(3, 25)
    lanes = cr._Lanes([chart(n, k) for k in mi.all_k_sequences(n)], lam, q)
    assert lanes.track().errors == [None] * len(lanes.charts)
    one = (lanes.qdeg == 1).argmax(axis=1)   # a q-degree-one monomial per lane
    moves = []
    for lane, m in enumerate(one):
        seen = [(0.0, lanes.start[lane])]
        mine = [(y[r], c[r, m], s[r]) for rows, y, c, s in calls for r in (rows == lane).nonzero()[0]]
        for y, c, s in mine[:-1]:   # the last is the solve at q itself
            theta = np.exp(c - lanes.bq[lane, m]).real
            base = next(point for th, point in reversed(seen) if th < theta)
            moves.append(np.abs(y - base).max())
            seen.append((theta, s))
    # up to the rounding of the step as (theta + step) - theta
    assert max(moves) <= cr.PREDICTED_MOVE * cr.JUMP_BOUND * (1 + 1e-12)
    assert len(moves) > len(lanes.charts) and max(moves) > 0.9 * cr.PREDICTED_MOVE * cr.JUMP_BOUND


def test_a_lane_meeting_tol_on_its_last_allowed_step_has_converged(monkeypatch):
    # count the steps Newton takes from off a census point (one Hessian solve
    # per accepted point, the start included), then allow exactly that many
    lam, q = (0.25, 0.125, -0.375), (1.0, 1.0)
    record = cr.all_critical_points(2, lam, q)[0]
    lanes = cr._Lanes([record.chart], lam, q)
    rows, start, c = np.arange(1), record.s[None, :] + 0.3, lanes.bq.astype(complex)
    sizes, solve = [], cr._solve
    monkeypatch.setattr(cr, "_solve", lambda h, rhs: sizes.append(len(h)) or solve(h, rhs))
    s, gnorm, _, _, why = lanes._newton(rows, start, c, cr._NEWTON_STEPS)
    steps = sum(sizes) - 1
    assert why == [None] and steps >= 3
    s_at, gnorm_at, _, _, why_at = lanes._newton(rows, start, c, steps)
    assert why_at == [None] and np.array_equal(s_at, s) and np.array_equal(gnorm_at, gnorm)
    _, _, _, _, why_short = lanes._newton(rows, start, c, steps - 1)
    assert why_short[0].startswith("Newton did not reach tol")


# u_sigma labels a critical point by the chart whose lane reaches it, so the
# labels depend on the path and on the step control that follows it.  The
# values were computed with every Newton solve allowed 100 steps.
CENSUS_LABELS = json.loads((Path(__file__).parent / "data" / "census_labels.json").read_text())


@pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (3, 2), (4, 0)],
                         ids=["n3-seed0", "n3-seed1", "n3-seed2", "n4-seed0"])
def test_census_labels_are_pinned(n, seed):
    labels = CENSUS_LABELS[f"n{n}-seed{seed}"]
    records = cr.all_critical_points(n, *default_draw(n, seed))
    assert sorted(labels) == sorted(",".join(map(str, r.chart.kseq)) for r in records)
    for r in records:
        expect = complex(*labels[",".join(map(str, r.chart.kseq))])
        assert abs(r.u_sigma - expect) <= 1e-9 * abs(expect), r.chart.kseq


# The seed-11 draw of the census benchmark: chart (3,1,0) has |w| ~ 4e3,
# where the gradient's rounding floor lies above an absolute 1e-12.
LARGE_W_LAM = (1 / 15, -8 / 15, -1 / 5, 2 / 3)
LARGE_W_Q = (7 / 8, 15 / 16, 1 / 4)


@pytest.mark.parametrize("n, seeds", [(3, range(40)), (4, range(10))], ids=["n3", "n4"])
def test_census_holds_across_seeds(n, seeds):
    # the gate is the whole sweep: never shrink it or re-seed round a failure
    bad = []
    for seed in seeds:
        lam, q = default_draw(n, seed)
        # census raises unless all (n+1)! lanes arrive at distinct points
        try:
            c = cr.census(n, lam, q)
        except cr.CriticalPointError as exc:
            bad.append((seed, str(exc)))
            continue
        if not c.max_spectral_residual < 1e-8:
            bad.append((seed, c.max_spectral_residual))
    assert bad == []


@pytest.mark.parametrize("n, lam, q", [
    *((3, *default_draw(3, seed)) for seed in (3, 27, 30)),
    *((4, *default_draw(4, seed)) for seed in (5, 7)),
    (3, LARGE_W_LAM, LARGE_W_Q),
], ids=["n3-seed3", "n3-seed27", "n3-seed30", "n4-seed5", "n4-seed7", "n3-large-w"])
def test_scaling_law_on_hard_draws(n, lam, q):
    # draws where the former detour ladder needed a repair or failed
    records = cr.all_critical_points(n, lam, q)
    for c in (2.0, 1.0 / 3.0):
        assert cr.scaling_residual(records, c) < 1e-8


def test_jump_bound_keeps_lanes_on_their_sheets(monkeypatch):
    # with the looser bound of the former detour ladder (which also loosens
    # the predicted-move cap), two lanes of this draw land on one sheet
    monkeypatch.setattr(cr, "JUMP_BOUND", 1.5)
    with pytest.raises(cr.CriticalPointError) as err:
        cr.all_critical_points(3, *default_draw(3, 30))
    assert "(0, 0, 1)" in str(err.value) and "(2, 1, 1)" in str(err.value)


def test_newton_floor_lets_large_w_lanes_converge(monkeypatch):
    # without the rounding floor Newton stalls just above 1e-12 on chart
    # (3,1,0) and step halving runs out
    monkeypatch.setattr(cr, "FLOOR_FACTOR", 0)
    with pytest.raises(cr.CriticalPointError) as err:
        cr.all_critical_points(3, LARGE_W_LAM, LARGE_W_Q)
    assert err.value.chart == (3, 1, 0)


@pytest.mark.parametrize("n, lam, q", [
    (2, (0.25, 0.125, -0.375), (1.0, 1.0)),
    (3, *(tuple(v) for v in default_draw(3, 0))),
])
def test_lane_kernel_agrees_with_the_chart_phase(n, lam, q):
    # the lockstep kernel evaluates f, grad f and the Hessian with its own
    # stacked loops; at every record the shared chart phase must agree
    lnq = np.log(q)
    for rec in cr.all_critical_points(n, lam, q):
        phase = mi.phase_in_chart(rec.chart, lam)
        assert abs(phase.value(rec.s, lnq) + phase.rho @ lnq - rec.u_sigma) < 1e-12
        assert np.max(np.abs(phase.gradient(rec.s, lnq))) <= 1e-10
        assert np.max(np.abs(phase.hessian(rec.s, lnq) - rec.log_hessian)) < 1e-10


def test_census_counts_distinct_points(monkeypatch):
    # a record that repeats another's point is a collision, named by charts
    lam, q = (0.25, 0.125, -0.375), (1.0, 1.0)
    assert cr.census(2, lam, q).min_pairwise_distance > 1e-6
    records = cr._Lanes.records

    def repeat(lanes, ends):
        out = records(lanes, ends)
        out[5] = dataclasses.replace(out[5], edge_values=out[2].edge_values)
        return out

    monkeypatch.setattr(cr._Lanes, "records", repeat)
    kseqs = cr.all_k_sequences(2)
    with pytest.raises(cr.CriticalPointError, match="one point") as err:
        cr.census(2, lam, q)
    assert f"{kseqs[2]} and {kseqs[5]}" in str(err.value)


# The 11 draws of the census benchmark's seed-1 batch, each with its fiber's
# least pairwise sup-distance as a float hex: one distance matrix per census
# must give the same value to the bit.
CENSUS_SEED1 = [
    ("-6/13,-1/6,-3/13,67/78", "3/8,5/8,3/16", "0x1.e92fd6e93b58bp-2"),
    ("-5/11,1/7,-1/2,125/154", "7/8,1/16,1/16", "0x1.0494b24266af2p-2"),
    ("-7/12,-5/11,1/16,515/528", "9/16,13/16,3/4", "0x1.47be08a4ee0f9p-1"),
    ("-5/16,1/6,1/3,-3/16", "13/16,15/16,7/16", "0x1.397ab5e89436ep+0"),
    ("-3/11,4/11,5/16,-71/176", "3/8,11/16,5/16", "0x1.e2c8474b60a0ap-1"),
    ("4/15,3/16,-2/5,-13/240", "1/4,1/8,15/16", "0x1.1459bc6f6e8d8p-1"),
    ("2/5,6/13,5/16,-1221/1040", "3/8,1/2,7/8", "0x1.d79f0be2a524ep-1"),
    ("3/5,-5/11,-2/5,14/55", "3/16,1/8,3/4", "0x1.614bcd9ad04cfp-3"),
    ("2/3,1/13,-3/7,-86/273", "13/16,1/4,11/16", "0x1.6126e11e72ed6p-1"),
    ("1/4,1/2,5/16,-17/16", "5/8,5/16,1/16", "0x1.366399e262e57p-1"),
    ("1/12,-1/3,-4/9,25/36", "1/16,7/16,7/16", "0x1.ed2139ce39524p-2"),
]


def test_census_builds_the_distance_matrix_once(monkeypatch):
    calls = []
    sup_distances = cr._sup_distances
    monkeypatch.setattr(cr, "_sup_distances",
                        lambda records: calls.append(len(records)) or sup_distances(records))
    for lam, q, least in CENSUS_SEED1:
        calls.clear()
        census = cr.census(3, [float(Fraction(x)) for x in lam.split(",")],
                           [float(Fraction(x)) for x in q.split(",")])
        assert calls == [24]
        assert census.min_pairwise_distance == float.fromhex(least), lam


def test_rejects_bad_q():
    with pytest.raises(cr.DegenerateParameterError):
        cr.continue_to(chart(1, (0,)), LAM1, (-1.0,))
    with pytest.raises(cr.DegenerateParameterError):
        cr.continue_to(chart(1, (0,)), (0.3, -0.2), (1.0,))


def test_uv_factorization_presubstitution():
    for n in (1, 2, 3):
        assert cr.uv_factorization_exact(n)


def test_uv_identity_exact():
    for n in (1, 2, 3):
        assert cr.uv_identity_check(n)


@pytest.mark.parametrize("n", [2, 3])
def test_uv_identity_fails_on_a_shifted_lambda(n, monkeypatch):
    lam_poly = cr._lam_poly
    for i in range(n + 1):
        shift = lambda k, m, i=i: lam_poly(k, m) + LaurentPolynomial.constant(k == i)
        monkeypatch.setattr(cr, "_lam_poly", shift)
        assert not cr.uv_identity_check(n), i


@pytest.mark.parametrize("n", [1, 2, 3])
def test_uv_identity_fails_on_a_common_lambda_shift(n, monkeypatch):
    # only differences of lambda enter the blocks; the sum(lam) = 0 row sees it
    lam_poly = cr._lam_poly
    monkeypatch.setattr(cr, "_lam_poly",
                        lambda k, m: lam_poly(k, m) + LaurentPolynomial.constant(1))
    assert not cr.uv_identity_check(n)


@pytest.mark.parametrize("n", [2, 3])
def test_uv_identity_fails_on_a_doubled_edge_monomial(n, monkeypatch):
    substitution = cr._chart_substitution
    names = list(cr.make_chart(cr.MirrorGraph(n), (0,) * n).row_of)
    missed = []
    for name in names:
        def doubled(chart, name=name):
            table = substitution(chart)
            table[name] = table[name] + table[name]
            return table
        monkeypatch.setattr(cr, "_chart_substitution", doubled)
        if cr.uv_identity_check(n):
            missed.append(name)
    # the two outer edges of row 1 enter both sides linearly (see the docstring)
    assert sorted(missed) == ["u[1,0]", f"v[1,{n - 1}]"]


def test_uv_identity_alternate_chart():
    assert cr.uv_identity_check(2, kseq=(0, 0))


def test_record_report_is_json_friendly():
    import json
    rec = cr.continue_to(chart(1, (0,)), LAM1, (1.0,))
    json.dumps(rec.report())


def test_uv_identity_cost_guard():
    # No size guard: the check runs past the former n <= 4 limit.
    for n in (5, 6):
        assert cr.uv_identity_check(n)
