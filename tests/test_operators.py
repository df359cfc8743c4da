"""Toda operators: matrix build, substitution, composition, commutativity."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from todamirror import operators as ops
from todamirror.exact import LaurentPolynomial as LP, char_coeffs


def test_toda_matrix_small():
    p0, p1, p2, q1, q2 = (LP.variable(v) for v in ("p0", "p1", "p2", "q1", "q2"))
    m = ops.tridiagonal([p0, p1], [q1])
    assert m == [[p0, q1], [LP.constant(-1), p1]]
    m2 = ops.tridiagonal([p0, p1, p2], [q1, q2])
    assert [m2[i][i] for i in range(3)] == [p0, p1, p2]
    assert m2[0][1] == q1 and m2[1][2] == q2
    assert m2[1][0] == m2[2][1] == LP.constant(-1)
    assert m2[0][2].is_zero() and m2[2][0].is_zero()


def test_charpoly_n1_hand_expansion():
    # det [[p0 + x, q1], [-1, p1 + x]] = x^2 + (p0 + p1) x + (p0 p1 + q1)
    p0, p1, q1 = (LP.variable(v) for v in ("p0", "p1", "q1"))
    assert char_coeffs([p0, p1], [q1]) == [p0 + p1, p0 * p1 + q1]


# sha256 of every D_i's canonical text, n = 1..6, as the former determinant
# route (det(A + xI) over p, q and x, split by x-degree) gave them
TODA_DIGESTS = {
    1: "4e0ecf751bd8277347f0a850b986947612d902c95f4b9c3e82315e5da3529f07",
    2: "ef99ea8b95e5971b433a4bbf211a49fbe072d2fc7fcfbe684d184f47f63998b1",
    3: "31dabe31945e7e2f3397037c787b3d19946f538823d1e190b5f4d9ad03cc2d98",
    4: "ee80d96578c635225d07d871063cc79dfacb1e98640d30aa716c39ea2ffb2a2f",
    5: "780ca409c962f2af37b4d167b0f626c65c25c44ef4225eb2f07dc823e2c71655",
    6: "e0b5bc8b39d808577f59a13a45d8294f09f36767bdfe5a8807bfa628472f0dfe",
}


@pytest.mark.parametrize("n", sorted(TODA_DIGESTS))
def test_toda_polynomials_are_pinned(n):
    polys = ops.toda_polynomials(n)
    text = "\n".join(f"D{i + 1} {k} {polys[i][k].canonical_str()}"
                     for i in range(len(polys)) for k in sorted(polys[i]))
    assert hashlib.sha256(text.encode()).hexdigest() == TODA_DIGESTS[n]


def test_toda_operator_closed_forms():
    d = ops.toda_operators(1)
    n = 1
    assert d[0].terms == {(1, 0): LP.constant(1), (0, 1): LP.constant(1)}
    assert d[1].terms == {(1, 1): LP.constant(1), (0, 0): LP.variable("q1")}

    d2 = ops.toda_operators(2)
    assert d2[1].terms == {
        (1, 1, 0): LP.constant(1), (1, 0, 1): LP.constant(1),
        (0, 1, 1): LP.constant(1),
        (0, 0, 0): LP.variable("q1") + LP.variable("q2"),
    }


def test_first_operator_is_trace():
    for n in (1, 2, 3):
        d1 = ops.toda_operators(n)[0]
        expect = {}
        for i in range(n + 1):
            k = [0] * (n + 1)
            k[i] = 1
            expect[tuple(k)] = LP.constant(1)
        assert d1.terms == expect


def test_top_operator_at_q_zero_is_derivative_product():
    for n in (1, 2, 3):
        top = ops.toda_operators(n)[n]
        at_zero = {}
        for kappa, coeff in top.terms.items():
            c = coeff
            for i in range(1, n + 1):
                c = c.subs(f"q{i}", 0)
            if not c.is_zero():
                at_zero[kappa] = c
        assert at_zero == {(1,) * (n + 1): LP.constant(1)}


def test_hamiltonian_closed_form_and_relation():
    h = ops.build_hamiltonian(1)
    assert h.terms[(2, 0)] == LP.constant(F(1, 2))
    assert h.terms[(0, 2)] == LP.constant(F(1, 2))
    assert h.terms[(0, 0)] == -LP.variable("q1")

    d = ops.toda_operators(1)
    assert ops.compose(d[0], d[0]) * F(1, 2) - d[1] == h

    h2 = ops.build_hamiltonian(2)
    assert h2.terms[(0, 0, 0)] == -(LP.variable("q1") + LP.variable("q2"))


def test_leibniz_examples():
    q1 = ops.DifferentialOperator.multiplication(1, LP.variable("q1"))
    d1 = ops.DifferentialOperator.partial(1, 1)
    d0 = ops.DifferentialOperator.partial(1, 0)
    hq = LP.variable("q1") * LP.variable("hbar")

    prod = ops.compose(d1, q1)
    assert prod.terms == {(0, 1): LP.variable("q1"), (0, 0): hq}
    prod0 = ops.compose(d0, q1)
    assert prod0.terms == {(1, 0): LP.variable("q1"), (0, 0): -hq}

    ident = ops.DifferentialOperator.identity(1)
    assert ops.compose(ident, prod) == prod
    assert ops.commutator(d1, q1).terms == {(0, 0): hq}


def test_leibniz_negative_exponent():
    # hbar d_1 . q_1^{-1} = q_1^{-1} hbar d_1 - hbar q_1^{-1}
    q1_inv = ops.DifferentialOperator.multiplication(1, LP.monomial({"q1": -1}))
    d1 = ops.DifferentialOperator.partial(1, 1)
    assert ops.compose(d1, q1_inv).terms == {
        (0, 1): LP.monomial({"q1": -1}), (0, 0): -LP.monomial({"q1": -1, "hbar": 1})}


def random_operator(rng, n, nterms=5, laurent=False):
    """With `laurent`, q-exponents go negative and lam0, constant in t, appears."""
    terms = {}
    for _ in range(nterms):
        kappa = tuple(rng.randint(0, 2) for _ in range(n + 1))
        exps = {f"q{i}": rng.randint(-2 if laurent else 0, 2) for i in range(1, n + 1)}
        exps["hbar"] = rng.randint(0, 1)
        if laurent:
            exps["lam0"] = rng.randint(0, 1)
        coeff = LP.monomial(exps, F(rng.randint(-5, 5), rng.randint(1, 4)))
        terms[kappa] = terms.get(kappa, LP.zero()) + coeff
    return ops.DifferentialOperator(n, terms)


def test_compose_associative_random():
    rng = random.Random(99)
    for _ in range(12):
        n = rng.choice((1, 2))
        a, b, c = (random_operator(rng, n) for _ in range(3))
        assert ops.compose(ops.compose(a, b), c) == ops.compose(a, ops.compose(b, c))


def apply_to_symbol(op, phi, k):
    """op applied to phi * e^{k.t}, phi a Laurent polynomial in the q_i, hbar
    and lam0, through hbar d/dt_i (q^m e^{k.t}) = hbar (k_i + m_i - m_{i+1})
    q^m e^{k.t} with m_0 = m_{n+1} = 0.  Returns the new phi."""
    out = LP.zero()
    for kappa, coeff in op.terms.items():
        for e, c in phi.terms.items():
            exps = dict(zip(phi.variables, e))
            m = [exps.get(f"q{i}", 0) for i in range(op.n + 2)]
            for i, k_i in enumerate(kappa):
                c *= (k[i] + m[i] - m[i + 1]) ** k_i
            exps["hbar"] = exps.get("hbar", 0) + sum(kappa)
            out = out + coeff * LP.monomial(exps, c)
    return out


def test_compose_matches_action_on_exponential_symbols():
    rng = random.Random(2026)
    for _ in range(12):
        n = rng.randint(1, 3)
        a, b = (random_operator(rng, n, nterms=4, laurent=True) for _ in range(2))
        ab = ops.compose(a, b)
        phi = LP.zero()
        for _ in range(3):
            exps = {f"q{i}": rng.randint(-2, 2) for i in range(1, n + 1)}
            exps["lam0"] = rng.randint(0, 1)
            phi = phi + LP.monomial(exps, rng.randint(1, 3))
        for k in [(0,) * (n + 1)] + [tuple(rng.randint(-3, 3) for _ in range(n + 1))
                                     for _ in range(3)]:
            assert apply_to_symbol(ab, phi, k) == apply_to_symbol(a, apply_to_symbol(b, phi, k), k)


def test_operator_serialization():
    d2 = ops.toda_operators(1)[1]
    text = d2.canonical_str()
    assert "d0^1 d1^1" in text and "q1" in text


def test_perturbed_operator_fails_to_commute():
    bump = LP.variable("hbar") * LP.variable("q1")
    for n in range(1, 6):
        d = ops.toda_operators(n)
        d2 = d[1] + ops.DifferentialOperator.multiplication(n, bump)
        assert not ops.commutator(ops.build_hamiltonian(n), d2).is_zero()


def test_commutator_is_the_difference_of_products():
    # a commutator drops the d = 0 Leibniz terms, which a . b and b . a share
    rng = random.Random(31)
    pairs = [tuple(random_operator(rng, n, nterms=4, laurent=True) for _ in range(2))
             for n in [rng.randint(1, 3) for _ in range(12)]]
    hq1 = LP.variable("hbar") * LP.variable("q1")
    for n in (1, 2, 3):
        qs = [ops.DifferentialOperator.multiplication(n, LP.monomial({f"q{j}": e}))
              for j in range(1, n + 1) for e in (1, -2)]
        pairs += [(ops.DifferentialOperator.partial(n, i), q) for i in range(n + 1) for q in qs]
        d2 = ops.toda_operators(n)[1] + ops.DifferentialOperator.multiplication(n, hq1)
        pairs.append((ops.build_hamiltonian(n), d2))
    nonzero = 0
    for a, b in pairs:
        comm = ops.commutator(a, b)
        assert comm == ops.compose(a, b) - ops.compose(b, a)
        nonzero += not comm.is_zero()
    assert nonzero > len(pairs) // 2
