"""Exact-algebra layer: ring axioms, Bernoulli convention, series inverses."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from todamirror.exact import (
    ExactAlgebraError,
    HbarSeries,
    LaurentPolynomial as LP,
    bernoulli,
    char_coeffs,
    elementary_symmetric_sigma,
)


def bernoulli_series_oracle(kmax):
    """Invert x/(1 - e^{-x}) term by term; the independent reference."""
    N = kmax + 2
    g = [F((-1) ** k, math.factorial(k + 1)) for k in range(N)]  # (1-e^{-x})/x
    c = [F(0)] * N
    c[0] = 1 / g[0]
    for j in range(1, N):
        c[j] = -sum(g[i] * c[j - i] for i in range(1, j + 1)) / g[0]
    return {k: c[k] * math.factorial(k) for k in range(2, kmax + 1, 2)}


def test_bernoulli_against_series_inversion():
    oracle = bernoulli_series_oracle(12)
    for k, val in oracle.items():
        assert bernoulli(k) == val


def test_bernoulli_frozen_values():
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(6) == F(1, 42)


def test_bernoulli_rejects_bad_input():
    for bad in (0, -2, 3, 7, 1):
        with pytest.raises(ExactAlgebraError):
            bernoulli(bad)


def test_bernoulli_recurrence():
    # with B_0 = 1, B_1 = +1/2 the alternating-sign binomial sum vanishes
    def b_plus(j):
        if j == 0:
            return F(1)
        if j == 1:
            return F(1, 2)
        return bernoulli(j) if j % 2 == 0 else F(0)
    for m in range(1, 13):
        total = sum(F((-1) ** j) * math.comb(m + 1, j) * b_plus(j)
                    for j in range(m + 1))
        assert total == 0


def test_elementary_symmetric_examples():
    assert elementary_symmetric_sigma([F(0), F(0)]) == [F(0), F(0)]
    assert elementary_symmetric_sigma([F(1), F(-1)]) == [F(0), F(-1)]
    assert elementary_symmetric_sigma([F(1), F(2), F(-3)]) == [F(0), F(-7), F(6)]


def test_elementary_symmetric_defining_identity():
    rng = random.Random(11)
    for _ in range(20):
        lams = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)]
        sig = elementary_symmetric_sigma(lams)
        x = F(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = x ** 4 + sum(sig[i - 1] * x ** (4 - i) for i in range(1, 5))
        rhs = math.prod((x - l for l in lams), start=F(1))
        assert lhs == rhs


def _toda_shape(diag, upper, x):
    """M + xI for M with `diag` on the diagonal, `upper` above it, -1 below."""
    m = len(diag)
    return [[diag[i] + x if j == i else upper[i] if j == i + 1 else F(-1) if j == i - 1 else F(0)
             for j in range(m)] for i in range(m)]


def _fraction_det(rows):
    """Determinant by Gaussian elimination over Fractions."""
    a, det = [list(r) for r in rows], F(1)
    for i in range(len(a)):
        pivot = next((r for r in range(i, len(a)) if a[r][i] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != i:
            a[i], a[pivot], det = a[pivot], a[i], -det
        det *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


def test_char_coeffs_against_fraction_determinants():
    rng = random.Random(3)
    for m in range(1, 8):
        for _ in range(4):
            diag = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(m)]
            upper = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(m - 1)]
            coeffs = char_coeffs(diag, upper)
            assert len(coeffs) == m
            for _ in range(3):
                x = F(rng.randint(-5, 5), rng.randint(1, 4))
                value = x ** m + sum(c * x ** (m - i) for i, c in enumerate(coeffs, start=1))
                assert _fraction_det(_toda_shape(diag, upper, x)) == value


def test_char_coeffs_against_eigenvalues():
    # np.poly goes through the eigenvalues of -M: an independent numeric route
    rng = np.random.default_rng(5)
    for m in range(1, 8):
        for _ in range(20):
            diag = rng.normal(size=m) + 1j * rng.normal(size=m)
            upper = rng.normal(size=m - 1) + 1j * rng.normal(size=m - 1)
            expect = np.poly(-np.array(_toda_shape(diag, upper, 0), dtype=complex))[1:]
            got = np.array(char_coeffs([complex(d) for d in diag], [complex(u) for u in upper]))
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


def random_poly(rng, nvars=4, nterms=4):
    names = [f"z{i}" for i in range(nvars)]
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(-3, 3) for _ in range(nvars))
        terms[exps] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return LP(names, terms)


def test_ring_axioms_random():
    rng = random.Random(2024)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + LP.zero() == a
        assert a * LP.constant(1) == a


def test_arithmetic_results_are_canonical():
    # +, *, - and ** skip the public constructor's checks; each result must be
    # what that constructor makes of it: sorted, pruned, nonzero Fractions
    rng = random.Random(77)
    x, y = LP.variable("x"), LP.variable("y")
    cases = [(x + y) - y, x * y * y ** -1, (x + y) * (x - y) + y ** 2, -(x - x)]
    for _ in range(30):
        a, b = random_poly(rng), random_poly(rng, nvars=rng.randint(1, 4))
        cases += [a + b, a - b, a * b, -a, a ** 2, b ** -1 if len(b.terms) == 1 else b ** 3,
                  (a + b) - b]
    for p in cases:
        rebuilt = LP(p.variables, dict(p.terms))
        assert p == rebuilt and hash(p) == hash(rebuilt)
        assert p.variables == rebuilt.variables
        assert all(type(c) is F and c != 0 for c in p.terms.values())
    assert ((x + y) - y).variables == ("x",)
    assert (x * y * y ** -1).variables == ("x",)
    assert (-(x - x)).variables == ()


def test_polynomial_substitution_and_evaluation():
    x, y = LP.variable("x"), LP.variable("y")
    p = x * x * y + 2 * x - 3
    assert p.subs("x", y) == y ** 2 * y + 2 * y - 3
    assert p.evaluate({"x": F(2), "y": F(3)}) == 12 + 4 - 3


def test_monomial_inverse_and_negative_powers():
    m = LP.monomial({"u": 2, "v": -1}, F(3, 2))
    assert m * m.inverse() == LP.constant(1)
    assert m ** -2 == (m.inverse()) ** 2
    with pytest.raises(ExactAlgebraError):
        (LP.variable("u") + 1).inverse()


def test_canonical_text_form():
    p = LP.monomial({"b": 2}, F(1, 2)) + LP.monomial({"a": 1}, F(-3)) + 1
    # graded-lex descending with num/den coefficients
    assert p.canonical_str() == "1/2*b^2 + -3/1*a + 1/1"
    assert LP.zero().canonical_str() == "0"


def test_series_identities():
    one = HbarSeries.constant(1, 8)
    assert HbarSeries.zero(8).exp() == one

    c = LP.variable("c")
    s = HbarSeries(1, [c], 5)
    assert s.exp().log() == s

    h = HbarSeries(1, [LP.constant(1)], 8)
    assert h.exp() * (-h).exp() == one


def test_series_valuation_guards():
    bad = HbarSeries.constant(1, 5)
    with pytest.raises(ExactAlgebraError):
        bad.exp()
    with pytest.raises(ExactAlgebraError):
        HbarSeries(1, [LP.constant(2)], 5).log()


def test_series_exp_log_random_roundtrip():
    rng = random.Random(5)
    for _ in range(10):
        coeffs = [LP.constant(F(rng.randint(-4, 4), rng.randint(1, 4))) for _ in range(4)]
        s = HbarSeries(1, coeffs, 6)
        assert s.exp().log() == s
        assert (s.exp() * (-s).exp()) == HbarSeries.constant(1, 6)


def test_series_negate_hbar():
    s = HbarSeries(1, [LP.constant(2), LP.constant(3)], 4)
    t = s.negate_hbar()
    assert t.coefficient(1) == LP.constant(-2)
    assert t.coefficient(2) == LP.constant(3)
