"""Quantum Toda operators and normal-ordered differential-operator algebra.

Operators act on functions of t_0..t_n.  Coefficients live in the Laurent
ring generated by hbar and q_i = e^{t_i - t_{i-1}}; the derivation rule
``hbar d/dt_i (q_j) = hbar (delta_{ij} - delta_{i,j-1}) q_j`` is all the
noncommutativity there is.  Any other coefficient variable is constant in t.

Closed form.  On a monomial q^m (q_0 = q_{n+1} = 1, so m_0 = m_{n+1} = 0),
``hbar d/dt_i q^m = hbar w_i q^m`` with w_i = m_i - m_{i+1}.  Hence
(hbar d)^alpha q^m = w^alpha hbar^|alpha| q^m, and for one pair of monomials

    (hbar d)^kappa q^m (hbar d)^mu
        = sum_{nu <= kappa} binom(kappa, nu) w^(kappa - nu) hbar^|kappa - nu|
          q^m (hbar d)^(nu + mu),

a sum that factorises axis by axis.

Kernel.  `compose` and `commutator` write both operands once as flat terms
(kappa, exponent vector over one shared layout, integer numerator), the layout
being the coefficient variables plus hbar and the numerators taken over each
operand's common denominator.  Every product of terms is added to one dict
keyed by (kappa_out, extra hbar power, exponent vector), with int values; a
commutator subtracts b . a in the same dict.  The d = 0 term of a pair,
c_a c_b q^(m_a + m_b) (hbar d)^(kappa + mu), is the same in a . b and in
b . a, so a commutator never expands it.  Exact Fractions and one
`LaurentPolynomial` per output kappa are built only at the boundary, and
only for the accumulators that are not 0 (for the commuting Toda operators,
none are).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Dict, List, Mapping, Sequence, Tuple

from .exact import ExactAlgebraError, LaurentPolynomial, char_coeffs, variable_order

HBAR = "hbar"


def q_name(i: int) -> str:
    return f"q{i}"


def p_name(i: int) -> str:
    return f"p{i}"


class DifferentialOperator:
    """Normal-ordered operator sum_kappa c_kappa(q, hbar) (hbar d/dt)^kappa.

    Coefficients sit strictly to the left of the derivatives; composition
    re-normal-orders exactly via the Leibniz rule.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Tuple[int, ...], LaurentPolynomial]):
        clean: Dict[Tuple[int, ...], LaurentPolynomial] = {}
        for kappa, c in terms.items():
            if len(kappa) != n + 1 or any(k < 0 for k in kappa):
                raise ExactAlgebraError(f"bad derivative exponent vector {kappa}")
            if isinstance(c, (int, Fraction)):
                c = LaurentPolynomial.constant(c)
            if not c.is_zero():
                clean[tuple(kappa)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("DifferentialOperator is immutable")

    @classmethod
    def identity(cls, n: int) -> "DifferentialOperator":
        return cls(n, {(0,) * (n + 1): LaurentPolynomial.constant(1)})

    @classmethod
    def zero(cls, n: int) -> "DifferentialOperator":
        return cls(n, {})

    @classmethod
    def partial(cls, n: int, i: int) -> "DifferentialOperator":
        """The operator hbar d/dt_i."""
        kappa = [0] * (n + 1)
        kappa[i] = 1
        return cls(n, {tuple(kappa): LaurentPolynomial.constant(1)})

    @classmethod
    def multiplication(cls, n: int, coeff: LaurentPolynomial) -> "DifferentialOperator":
        return cls(n, {(0,) * (n + 1): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        if self.n != other.n:
            raise ExactAlgebraError("operator size mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, LaurentPolynomial.zero()) + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return DifferentialOperator(self.n, out)

    def __neg__(self) -> "DifferentialOperator":
        return DifferentialOperator(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        return self + (-other)

    def __mul__(self, scalar) -> "DifferentialOperator":
        return DifferentialOperator(self.n, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, DifferentialOperator) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        raise TypeError("DifferentialOperator is unhashable")

    def canonical_str(self) -> str:
        if not self.terms:
            return "0"
        def key(k):
            return (sum(k), k)
        parts = []
        for kappa in sorted(self.terms, key=key, reverse=True):
            mono = " ".join(f"d{i}^{k}" for i, k in enumerate(kappa) if k)
            c = self.terms[kappa].canonical_str()
            parts.append(f"({c}) {mono}".strip())
        return " + ".join(parts)

    def __repr__(self):
        return f"DifferentialOperator({self.canonical_str()})"


def _flat_terms(op: DifferentialOperator, index: Mapping[str, int],
                axes: Sequence[Tuple[int, int]]) -> Tuple[list, int]:
    """The terms of `op` as (kappa, exponents over the shared layout, weights
    w, integer numerator), with the common denominator of its coefficients."""
    den = 1
    for c in op.terms.values():
        for v in c.terms.values():
            den = math.lcm(den, v.denominator)
    flat = []
    for kappa, c in op.terms.items():
        slots = [index[v] for v in c.variables]
        for e, v in c.terms.items():
            vec = [0] * (len(index) + 1)  # the trailing 0 is every absent q_j
            for slot, x in zip(slots, e):
                vec[slot] = x
            w = tuple(vec[i] - vec[j] for i, j in axes)
            flat.append((kappa, tuple(vec[:-1]), w, v.numerator * (den // v.denominator)))
    return flat, den


def _leibniz(kappa: Tuple[int, ...], mu: Tuple[int, ...], w: Tuple[int, ...],
             identity: bool = True) -> list:
    """(hbar d)^kappa q^m (hbar d)^mu as (kappa_out, extra hbar power, integer
    factor) triples: the closed form's terms, with d = kappa - nu taken one
    axis at a time, skipping the axes where kappa_i or w_i is 0.  Without
    `identity` the d = 0 term (kappa + mu, 0, 1) is left out."""
    moved = [(i, k, w_i) for i, (k, w_i) in enumerate(zip(kappa, w)) if k and w_i]
    if not (moved or identity):
        return []
    out = [(tuple(map(add, kappa, mu)), 0, 1)]
    for i, k, w_i in moved:
        out = [(ko[:i] + (ko[i] - d,) + ko[i + 1:], dh + d, f * math.comb(k, d) * w_i ** d)
               for ko, dh, f in out for d in range(k + 1)]
    return out if identity else out[1:]


def _normal_ordered(a: DifferentialOperator, b: DifferentialOperator,
                    commute: bool) -> DifferentialOperator:
    """a . b, or a . b - b . a when `commute`, on the shared layout: the
    coefficient variables of both operands plus hbar, in the global order."""
    if a.n != b.n:
        raise ExactAlgebraError("operator size mismatch")
    names = {HBAR}
    for c in (*a.terms.values(), *b.terms.values()):
        names.update(c.variables)
    layout = tuple(sorted(names, key=variable_order))
    index = {v: i for i, v in enumerate(layout)}
    qslots = [index.get(q_name(i), -1) for i in range(a.n + 2)]
    axes = list(zip(qslots, qslots[1:]))  # w_i = m_i - m_{i+1}, i = 0..n
    a_flat, a_den = _flat_terms(a, index, axes)
    b_flat, b_den = _flat_terms(b, index, axes)
    acc: Dict[tuple, int] = {}
    products = [(a_flat, b_flat, 1)] + ([(b_flat, a_flat, -1)] if commute else [])
    for left, right, sign in products:
        by_kappa: Dict[Tuple[int, ...], list] = {}
        for kappa, e, _, c in left:
            by_kappa.setdefault(kappa, []).append((e, c))
        for kappa, left_terms in by_kappa.items():
            expansions = [(e, sign * c, leibniz) for mu, e, w, c in right
                          for leibniz in (_leibniz(kappa, mu, w, not commute),) if leibniz]
            for ea, ca in left_terms:
                for eb, cb, leibniz in expansions:
                    e = tuple(map(add, ea, eb))
                    c = ca * cb
                    for ko, dh, f in leibniz:
                        key = (ko, dh, e)
                        acc[key] = acc.get(key, 0) + c * f
    # the boundary: fold the extra hbar powers in; build nonzero polynomials only
    h = index[HBAR]
    terms: Dict[Tuple[int, ...], Dict[tuple, int]] = {}
    for (ko, dh, e), v in acc.items():
        if v:
            e = e[:h] + (e[h] + dh,) + e[h + 1:] if dh else e
            t = terms.setdefault(ko, {})
            t[e] = t.get(e, 0) + v
    den = a_den * b_den
    return DifferentialOperator(a.n, {
        ko: LaurentPolynomial(layout, {e: Fraction(v, den) for e, v in t.items() if v})
        for ko, t in terms.items() if any(t.values())})


def compose(a: DifferentialOperator, b: DifferentialOperator) -> DifferentialOperator:
    """Normal-ordered product a . b."""
    return _normal_ordered(a, b, commute=False)


def commutator(a: DifferentialOperator, b: DifferentialOperator) -> DifferentialOperator:
    """a . b - b . a, with both products in one accumulator."""
    return _normal_ordered(a, b, commute=True)


# ---------------------------------------------------------------------------
# The characteristic coefficients of the Toda matrix: the operators D_i.
# ---------------------------------------------------------------------------

def toda_polynomials(n: int) -> List[Dict[Tuple[int, ...], LaurentPolynomial]]:
    """The commutative polynomials D_1..D_{n+1}: det(A + xI) = x^{n+1} +
    sum_i D_i x^{n+1-i} for the Toda matrix A with p_0..p_n on the diagonal,
    q_1..q_n above it and -1 below.

    Each entry maps a p-exponent vector (always 0/1 here) to its coefficient,
    a polynomial in q_1..q_n.
    """
    pvars = [p_name(i) for i in range(n + 1)]
    by_i: List[Dict[Tuple[int, ...], LaurentPolynomial]] = []
    for det in char_coeffs([LaurentPolynomial.variable(p) for p in pvars],
                           [LaurentPolynomial.variable(q_name(i)) for i in range(1, n + 1)]):
        bucket: Dict[Tuple[int, ...], LaurentPolynomial] = {}
        for e, c in det.terms.items():
            exps = dict(zip(det.variables, e))
            kappa = tuple(exps.get(p, 0) for p in pvars)
            qexps = {v: x for v, x in exps.items() if v.startswith("q") and x}
            mono = LaurentPolynomial.monomial(qexps, c)
            bucket[kappa] = bucket.get(kappa, LaurentPolynomial.zero()) + mono
        by_i.append(bucket)
    return by_i


def toda_operators(n: int) -> List[DifferentialOperator]:
    """D_1..D_{n+1} with p_i replaced by hbar d/dt_i, coefficients on the left."""
    return [DifferentialOperator(n, poly) for poly in toda_polynomials(n)]


def build_hamiltonian(n: int) -> DifferentialOperator:
    """H = (hbar^2/2) sum_i d^2/dt_i^2 - sum_i q_i."""
    terms: Dict[Tuple[int, ...], LaurentPolynomial] = {}
    for i in range(n + 1):
        kappa = [0] * (n + 1)
        kappa[i] = 2
        terms[tuple(kappa)] = LaurentPolynomial.constant(Fraction(1, 2))
    terms[(0,) * (n + 1)] = -sum((LaurentPolynomial.variable(q_name(i)) for i in range(1, n + 1)),
                                 LaurentPolynomial.zero())
    return DifferentialOperator(n, terms)


# ---------------------------------------------------------------------------
# Exact matrix helpers (used by the UV identity check).
# ---------------------------------------------------------------------------

Matrix = List[List[LaurentPolynomial]]


def tridiagonal(diag: Sequence[LaurentPolynomial], upper: Sequence[LaurentPolynomial]) -> Matrix:
    """The Toda shape: `diag` on the diagonal, `upper` on the superdiagonal,
    -1 on the subdiagonal and 0 elsewhere."""
    zero, minus_one = LaurentPolynomial.zero(), LaurentPolynomial.constant(-1)
    mat = [[zero] * len(diag) for _ in diag]
    for i, d in enumerate(diag):
        mat[i][i] = d
    for i, e in enumerate(upper):
        mat[i][i + 1] = e
        mat[i + 1][i] = minus_one
    return mat


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum((x * y for x, y in zip(row, col)), LaurentPolynomial.zero())
             for col in zip(*b)] for row in a]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_scalar_diag(size: int, scalar: LaurentPolynomial) -> Matrix:
    zero = LaurentPolynomial.zero()
    return [[scalar if i == j else zero for j in range(size)] for i in range(size)]
