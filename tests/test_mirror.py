"""Mirror graph, weights, charts, and the phase-function bookkeeping."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from todamirror import mirror as mi
from todamirror.mirror import LambdaForm
from todamirror.semiclassical import FixedPointData


def lam_form(n, entries):
    return LambdaForm([F(x) for x in entries])


def _random_coeffs(rng, n):
    # sparse, so that some draws are units or zero
    return [F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.5 else F(0)
            for _ in range(n + 1)]


def test_lambda_form_matches_fraction_arithmetic():
    # plain Fraction tuples as the oracle for the integer representation
    rng = random.Random(20261018)
    for n in range(1, 6):
        for _ in range(60):
            a, b = _random_coeffs(rng, n), _random_coeffs(rng, n)
            c = F(rng.randint(-6, 6), rng.randint(1, 6))
            fa, fb = LambdaForm(a), LambdaForm(b)
            assert fa.coeffs == tuple(a)
            assert (fa + fb).coeffs == tuple(x + y for x, y in zip(a, b))
            assert (fa - fb).coeffs == tuple(x - y for x, y in zip(a, b))
            assert (-fa).coeffs == tuple(-x for x in a)
            assert fa.scale(c).coeffs == tuple(c * x for x in a)
            assert fa.reduce_last().coeffs == tuple(x - a[-1] for x in a[:-1]) + (0,)
            hits = [i for i, x in enumerate(a) if x != 0]
            unit = hits[0] if len(hits) == 1 and a[hits[0]] == 1 else None
            assert fa.unit_index() == unit
            exact = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 1)]
            assert fa.evaluate(exact) == sum(x * v for x, v in zip(a, exact))
            floats = [rng.uniform(-2.0, 2.0) for _ in range(n + 1)]
            assert fa.evaluate(floats) == sum(float(x) * v for x, v in zip(a, floats))
            assert fa.report() == [f"{x.numerator}/{x.denominator}" for x in a]
            # equal forms reached by different routes are equal and hash equal
            for route in ((fa + fb) - fb, -(-fa), LambdaForm([2 * x for x in a]).scale(F(1, 2))):
                assert route == fa and hash(route) == hash(fa)
            if c != 0:
                assert fa.scale(c).scale(1 / c) == fa
                assert hash(fa.scale(c).scale(1 / c)) == hash(fa)
            assert fa - fa == LambdaForm.zero(n)
        for i in range(n + 1):
            unit = LambdaForm.unit(n, i)
            half = unit.scale(F(1, 2))
            assert half + half == unit and hash(half + half) == hash(unit)
            assert unit.unit_index() == i
            assert half.unit_index() is None and unit.scale(2).unit_index() is None


def test_graph_counts():
    expected = {1: (3, 2, 0, 1, 1), 2: (6, 6, 1, 2, 3), 3: (10, 12, 3, 3, 6)}
    for n, (v, e, boxes, roofs, dim) in expected.items():
        g = mi.build_graph(n)
        assert len(g.vertices) == v
        assert len(g.edges) == e
        assert len(g.boxes) == boxes
        assert len(g.roofs) == roofs
        assert g.dimension == dim


def test_box_and_roof_indices_n2():
    g = mi.build_graph(2)
    assert g.boxes == [("v[1,0]", "u[1,1]", "u[2,0]", "v[2,0]")]
    assert g.roofs == [("u[1,0]", "v[1,0]", 1), ("u[1,1]", "v[1,1]", 2)]


def test_weights_n1():
    g = mi.build_graph(1)
    assert g.weights["u[1,0]"] == lam_form(1, (1, 0))
    assert g.weights["v[1,0]"] == lam_form(1, (-1, 0))


def test_weights_n2_all_six():
    g = mi.build_graph(2)
    half = F(1, 2)
    assert g.weights["u[1,0]"] == lam_form(2, (1, 0, 0))
    assert g.weights["u[2,0]"] == lam_form(2, (half, 1, 0))
    assert g.weights["v[2,0]"] == lam_form(2, (-half, -1, 0))
    assert g.weights["v[1,1]"] == lam_form(2, (-1, 0, 0))
    assert g.weights["u[1,1]"] == lam_form(2, (half, 0, 0))
    assert g.weights["v[1,0]"] == lam_form(2, (-half, 0, 0))


def test_weight_balance():
    for n in (1, 2, 3, 4):
        assert mi.weight_balance_ok(mi.build_graph(n))


def test_weight_balance_needs_trace_constraint_at_corner():
    # at the bottom-left corner the balance only holds after sum(lam) = 0
    g = mi.build_graph(2)
    _, lam = g.gradient_at(2, 0)
    target = LambdaForm.unit(2, 1) - LambdaForm.unit(2, 2)
    assert lam != target
    assert lam.reduce_last() == target.reduce_last()


def test_top_row_gradient_uses_row_one_edges_only():
    g = mi.build_graph(2)
    edges, _ = g.top_gradient(1)
    assert edges == {"u[1,1]": -1, "v[1,0]": 1}
    edges0, _ = g.top_gradient(0)
    assert edges0 == {"u[1,0]": -1}


def test_rho_table_reproduces_reference_chart():
    # n = 3, k-sequence (1, 2, 0)
    ch = mi.make_chart(mi.build_graph(3), (1, 2, 0))
    expected = {
        (4, 0): (0, 0, 0, 1), (3, 1): (0, 0, 1, 1), (2, 2): (0, 1, 1, 1),
        (3, 0): (0, 0, 1, 0), (2, 0): (0, 0, 1, 0), (2, 1): (0, 0, 1, 1),
        (1, 0): (0, 0, 1, 0), (1, 1): (1, 0, 1, 0), (1, 2): (1, 0, 1, 1),
    }
    for key, entries in expected.items():
        assert ch.rho[key] == lam_form(3, entries), key
    assert ch.permutation == (2, 0, 3, 1)


def test_chart_count_and_permutation_bijection():
    for n in (1, 2, 3, 4):
        g = mi.build_graph(n)
        charts = [mi.make_chart(g, k) for k in mi.all_k_sequences(n)]
        assert len(charts) == math.factorial(n + 1)
        assert len({c.permutation for c in charts}) == math.factorial(n + 1)


def test_rho_multiset_property_all_charts():
    for n in (1, 2, 3, 4):
        g = mi.build_graph(n)
        for k in mi.all_k_sequences(n):
            assert mi.make_chart(g, k).rho_multiset_ok()


def test_chart_exponents_are_the_fixed_point_weights():
    # the sigma(i, j) of a chart are the Gamma arguments of its q -> 0 term;
    # they must be the cotangent weights of the chart's fixed point, and for
    # n <= 3 no other fixed point has the same weights
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n + 1)))
        weights = {p: Counter(FixedPointData.from_permutation(n, p).weights) for p in perms}
        g = mi.build_graph(n)
        for ch in [mi.make_chart(g, k) for k in mi.all_k_sequences(n)]:
            sigma = Counter(ch.sigma.values())
            assert sigma == weights[ch.permutation], ch.kseq
            if n <= 3:
                assert [p for p in perms if weights[p] == sigma] == [ch.permutation], ch.kseq


def test_eliminated_monomials_satisfy_relations():
    for n in (1, 2, 3, 4):
        g = mi.build_graph(n)
        for k in mi.all_k_sequences(n):
            assert mi.make_chart(g, k).relations_hold()


def test_non_unit_pivot_is_rejected(monkeypatch):
    # a doubled incidence vector breaks total unimodularity
    g = mi.build_graph(2)
    incidence = g.edge_t_vector
    monkeypatch.setattr(g, "edge_t_vector",
                        lambda name: {v: 2 * c for v, c in incidence(name).items()})
    with pytest.raises(mi.MonomialSolveError, match="non-unit pivot"):
        mi.make_chart(g, (0, 0))


def test_chart_exponent_matrices_are_pinned():
    # every E for n <= 5, as the integer Gauss-Jordan elimination gave them
    digest, count = hashlib.sha256(), 0
    for n in range(1, 6):
        g = mi.build_graph(n)
        for k in mi.all_k_sequences(n):
            digest.update(np.ascontiguousarray(mi.make_chart(g, k).E, dtype="<i8").tobytes())
            count += 1
    assert count == 872
    assert digest.hexdigest() == (
        "9e7bd650640b088bce34b5151e26cb3bfe8f47e6dfd24fd6a6ca8fb7b515986a")


def test_chart_reports_are_pinned():
    # every report (k-sequence, permutation, rho, sigma) for n <= 5, as the
    # LambdaForm table builders gave them
    digest, count = hashlib.sha256(), 0
    for n in range(1, 6):
        g = mi.build_graph(n)
        for k in mi.all_k_sequences(n):
            digest.update(json.dumps(mi.make_chart(g, k).report(), sort_keys=True).encode())
            count += 1
    assert count == 872
    assert digest.hexdigest() == (
        "dab8c3705d8fcfe024563b7d94c3044dae1aeeb3e635630af4473cacd9fb5dd8")


def test_eliminated_monomials_have_q_factor():
    for n in (1, 2, 3, 4):
        g = mi.build_graph(n)
        for k in mi.all_k_sequences(n):
            ch = mi.make_chart(g, k)
            for mono in ch.eliminated.values():
                assert mono.q_degree() >= 1


def test_phase_consistency_all_charts():
    for n in (1, 2, 3, 4):
        g = mi.build_graph(n)
        for k in mi.all_k_sequences(n):
            assert mi.phase_consistency(mi.make_chart(g, k))


def test_perturbed_edge_weight_fails_phase_consistency(monkeypatch):
    # a weight change off the trace direction shifts every chart's log part
    for n in (2, 3):
        g = mi.build_graph(n)
        charts = [mi.make_chart(g, k) for k in mi.all_k_sequences(n)]
        for name, weight in list(g.weights.items()):
            monkeypatch.setitem(g.weights, name, weight + LambdaForm.unit(n, 0).scale(F(1, 2)))
            assert not any(mi.phase_consistency(ch) for ch in charts), name
            monkeypatch.setitem(g.weights, name, weight)
        assert all(mi.phase_consistency(ch) for ch in charts)


def test_perturbed_exponent_fails_relations():
    for n in (2, 3):
        g = mi.build_graph(n)
        for k in mi.all_k_sequences(n):
            ch = mi.make_chart(g, k)
            dim = len(ch.positions)
            for row in range(dim, 2 * dim):
                for col in range(ch.E.shape[1]):
                    ch.E[row, col] += 1
                    assert not ch.relations_hold(), (k, row, col)
                    ch.E[row, col] -= 1
            assert ch.relations_hold()


def test_swapped_rho_entries_fail_multiset():
    for n in (2, 3):
        g = mi.build_graph(n)
        for k in mi.all_k_sequences(n):
            ch = mi.make_chart(g, k)
            for i in range(1, n + 2):
                for j1 in range(-1, n - i + 2):
                    for j2 in range(j1 + 1, n - i + 2):
                        a, b = (i, j1), (i, j2)
                        ch.rho[a], ch.rho[b] = ch.rho[b], ch.rho[a]
                        assert not ch.rho_multiset_ok(), (k, a, b)
                        ch.rho[a], ch.rho[b] = ch.rho[b], ch.rho[a]
            assert ch.rho_multiset_ok()


def test_n1_chart_hand_values():
    g = mi.build_graph(1)
    ch = mi.make_chart(g, (1,))
    assert ch.chart_edges[(1, 0)] == "u[1,0]"
    mono = ch.eliminated["v[1,0]"]
    assert dict(mono.w_exps) == {(1, 0): -1}
    assert mono.q_exps == (1,)
    # sigma(1,0) = 2 lam_0 after the trace constraint; chart constant lam_1 ln q
    assert ch.sigma[(1, 0)].reduce_last() == lam_form(1, (2, 0))
    assert ch.rho[(1, 0)] == lam_form(1, (0, 1))
    assert ch.permutation == (1, 0)


def test_invalid_k_sequence_rejected():
    g = mi.build_graph(2)
    with pytest.raises(mi.MirrorModelError):
        mi.make_chart(g, (5, 0))
    with pytest.raises(mi.MirrorModelError):
        mi.make_chart(g, (0,))


def test_chart_report_shape():
    ch = mi.make_chart(mi.build_graph(2), (1, 0))
    rep = ch.report()
    assert rep["k_sequence"] == [1, 0]
    assert sorted(rep["permutation"]) == [0, 1, 2]
    assert "1,0" in rep["rho"] and "1,0" in rep["exponents"]


def test_chart_coordinates_are_unimodular_on_fiber():
    # chart log-coordinates differ from the non-top vertex coordinates by a
    # determinant +-1 integer matrix, so the volume form is +- prod dw/w
    for n in (1, 2, 3):
        g = mi.build_graph(n)
        non_top = [v for v in g.vertices if v[0] > 0]
        for k in mi.all_k_sequences(n):
            ch = mi.make_chart(g, k)
            rows = []
            for p in ch.positions:
                vec = g.edge_t_vector(ch.chart_edges[p])
                rows.append([vec.get(v, 0) for v in non_top])
            det = round(float(np.linalg.det(np.array(rows, dtype=float))))
            assert det in (1, -1)


def test_vertex_phase_numeric_matches_chart_phase():
    # pick free values for chart variables and q, reconstruct vertex
    # coordinates, and compare the two numeric phase evaluations
    import math
    from todamirror.mirror import phase_in_chart

    n = 2
    g = mi.build_graph(n)
    lam = (0.25, 0.125, -0.375)
    for kseq in ((1, 0), (0, 1), (2, 1)):
        ch = mi.make_chart(g, kseq)
        rng = np.random.default_rng(42)
        w = rng.uniform(0.5, 2.0, size=len(ch.positions))
        q = rng.uniform(0.5, 2.0, size=n)
        s = np.log(w)
        lnq = np.log(q)

        # vertex coordinates solving the edge equations: root the top row via
        # q and propagate down each u-edge log
        t = {}
        t[(0, 0)] = 0.0
        for j in range(1, n + 1):
            t[(0, j)] = t[(0, j - 1)] + lnq[j - 1]
        # remaining vertices from edge values: T_{i,j} = T_{i-1,j} + ln u_{ij}
        def edge_log(name):
            mono = ch.edge_monomial(name)
            val = sum(e * s[ch.position_index[p]] for p, e in mono.w_exps)
            val += sum(b * lnq[k] for k, b in enumerate(mono.q_exps))
            return val
        for i in range(1, n + 1):
            for j in range(n - i + 1):
                t[(i, j)] = t[(i - 1, j)] + edge_log(f"u[{i},{j}]")

        f_vertex = g.phase_value(t, lam)
        phase = phase_in_chart(ch, lam)
        f_chart = float(phase.value(s, lnq)) + float(phase.rho @ lnq)
        assert abs(f_vertex - f_chart) < 1e-10 * max(1.0, abs(f_vertex))
