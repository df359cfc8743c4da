"""Quantization of quadratic Hamiltonians on the symplectic loop space and
the Virasoro operator family.

Elements of H((hbar)) are finitely supported maps (basis index, hbar power)
-> Fraction.  The symplectic form is

    Omega(f, g) = sum_k (-1)^k (f_k, g_{-1-k})_eta,

the Darboux convention putting q_m at hbar^m (m >= 0) and p_m at
hbar^{-1-m} with sign (-1)^{m+1}.  Quantization sends the quadratic function
(1/2) Omega(f, Tf) to a differential operator on polynomials in the q's via
p p -> eps dd, p q -> q d, q q -> q q / eps, with monomial coefficients
carried over verbatim.  Everything is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exact import LaurentPolynomial

EPS = "eps"

LoopElement = Dict[Tuple[int, int], Fraction]      # (alpha, hbar power) -> coeff
DarbouxIndex = Tuple[int, int]                     # (mode m, basis index alpha)


class VirasoroError(ValueError):
    pass


def q_var(m: int, alpha: int, N: int) -> str:
    return f"Q{m}" if N == 1 else f"Q{m}_{alpha}"


# ---------------------------------------------------------------------------
# Loop-space operators.
# ---------------------------------------------------------------------------

class LoopOperator:
    """Linear operator on H((hbar)) with exact finite action on basis vectors."""

    def __init__(self, N: int, action: Callable[[int, int], LoopElement]):
        self.N = N
        self._action = action
        self._cache: Dict[Tuple[int, int], LoopElement] = {}

    def act_basis(self, alpha: int, k: int) -> LoopElement:
        key = (alpha, k)
        if key not in self._cache:
            self._cache[key] = {kk: v for kk, v in self._action(alpha, k).items() if v != 0}
        return self._cache[key]

    def act(self, elem: LoopElement) -> LoopElement:
        out: Dict[Tuple[int, int], Fraction] = {}
        for (alpha, k), c in elem.items():
            for key, v in self.act_basis(alpha, k).items():
                out[key] = out.get(key, Fraction(0)) + c * v
        return {k: v for k, v in out.items() if v != 0}

    def compose(self, other: "LoopOperator") -> "LoopOperator":
        return LoopOperator(self.N, lambda a, k: self.act(other.act_basis(a, k)))

    def __add__(self, other: "LoopOperator") -> "LoopOperator":
        def act(a, k):
            out = dict(self.act_basis(a, k))
            for key, v in other.act_basis(a, k).items():
                out[key] = out.get(key, Fraction(0)) + v
            return out
        return LoopOperator(self.N, act)

    def scale(self, c: Fraction) -> "LoopOperator":
        c = Fraction(c)
        return LoopOperator(self.N, lambda a, k: {key: c * v for key, v in self.act_basis(a, k).items()})

    def commutator(self, other: "LoopOperator") -> "LoopOperator":
        return self.compose(other) + other.compose(self).scale(Fraction(-1))

    def equals_on_window(self, other: "LoopOperator", window: Sequence[int]) -> bool:
        for alpha in range(self.N):
            for k in window:
                if self.act_basis(alpha, k) != other.act_basis(alpha, k):
                    return False
        return True


def multiplication_by_hbar_power(N: int, power: int) -> LoopOperator:
    return LoopOperator(N, lambda a, k: {(a, k + power): Fraction(1)})


def loop_d_operator(m: int, N: int = 1) -> LoopOperator:
    """D_m = hbar^{-1/2} D^{m+1} hbar^{-1/2}: hbar^k -> prod_r (k+1/2+r) hbar^{k+m}."""
    if m < -1:
        raise VirasoroError("m >= -1 required")

    def act(alpha: int, k: int) -> LoopElement:
        c = Fraction(1)
        for r in range(m + 1):
            c *= Fraction(2 * k + 1, 2) + r
        return {(alpha, k + m): c}

    return LoopOperator(N, act)


def family_operator(mu: Sequence[Fraction], rho: Sequence[Sequence[Fraction]],
                    m: int) -> LoopOperator:
    """hbar^{-1/2} (hbar d/dhbar hbar - mu hbar + rho)^{m+1} hbar^{-1/2}.

    mu is diagonal (a vector), rho an arbitrary N x N matrix (strictly
    triangular in the intended use).  The three summands do not commute; the
    product is expanded by acting (m+1) times on half-integer powers.
    """
    if m < -1:
        raise VirasoroError("m >= -1 required")
    N = len(mu)
    mu = [Fraction(x) for x in mu]
    rho = [[Fraction(x) for x in row] for row in rho]

    def act(alpha: int, k: int) -> LoopElement:
        # state over (basis index, exponent e in hbar^{e - 1/2})
        state: Dict[Tuple[int, int], Fraction] = {(alpha, k): Fraction(1)}
        for _ in range(m + 1):
            nxt: Dict[Tuple[int, int], Fraction] = {}
            for (a, e), c in state.items():
                # D on hbar^{e - 1/2}: factor (e + 1/2), exponent e + 1
                key = (a, e + 1)
                nxt[key] = nxt.get(key, Fraction(0)) + c * (Fraction(2 * e + 1, 2))
                # -mu hbar
                key = (a, e + 1)
                nxt[key] = nxt.get(key, Fraction(0)) - c * mu[a]
                # rho
                for b in range(N):
                    if rho[b][a]:
                        key = (b, e)
                        nxt[key] = nxt.get(key, Fraction(0)) + c * rho[b][a]
            state = {kk: v for kk, v in nxt.items() if v != 0}
        return {(a, e - 1): c for (a, e), c in state.items()}

    return LoopOperator(N, act)


# ---------------------------------------------------------------------------
# Symplectic structure and quantization.
# ---------------------------------------------------------------------------

def omega(f: LoopElement, g: LoopElement, eta: Sequence[Sequence[Fraction]]) -> Fraction:
    """Omega(f, g) = residue of (f(-hbar), g(hbar))."""
    out = Fraction(0)
    for (alpha, k), a in f.items():
        for (beta, l), b in g.items():
            if k + l == -1 and eta[alpha][beta] != 0:
                out += Fraction(-1) ** k * a * b * eta[alpha][beta]
    return out


def darboux_q(m: int, alpha: int) -> LoopElement:
    return {(alpha, m): Fraction(1)}


def darboux_p(m: int, alpha: int,
              eta_inv: Optional[Sequence[Sequence[Fraction]]] = None) -> LoopElement:
    """p_m^alpha sits on the eta-dual basis vector so that Omega(p, q) = delta."""
    sign = Fraction(-1) ** (m + 1)
    if eta_inv is None:
        return {(alpha, -1 - m): sign}
    return {(beta, -1 - m): sign * eta_inv[alpha][beta]
            for beta in range(len(eta_inv)) if eta_inv[alpha][beta] != 0}


def _invert_exact(mat: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)]
           + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise VirasoroError("pairing matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def check_infinitesimal_symplectic(op: LoopOperator, eta: Sequence[Sequence[Fraction]],
                                   k_window: Sequence[int]) -> Optional[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """First violating basis pair of Omega(Tf, g) + Omega(f, Tg) = 0, if any."""
    N = op.N
    basis = [(alpha, k) for alpha in range(N) for k in k_window]
    for (a1, k1) in basis:
        e1 = {(a1, k1): Fraction(1)}
        t1 = op.act_basis(a1, k1)
        for (a2, k2) in basis:
            e2 = {(a2, k2): Fraction(1)}
            t2 = op.act_basis(a2, k2)
            if omega(t1, e2, eta) + omega(e1, t2, eta) != 0:
                return ((a1, k1), (a2, k2))
    return None


@dataclass
class QuadraticOperator:
    """Quantized quadratic Hamiltonian acting on polynomials in the q's.

    Blocks store monomial coefficients: dd is eps * d_i d_j with i <= j, qd
    is q_i d_j, qq is q_i q_j / eps with i <= j, plus a central constant.
    """

    N: int
    const: Fraction = Fraction(0)
    dd: Dict[Tuple[DarbouxIndex, DarbouxIndex], Fraction] = field(default_factory=dict)
    qd: Dict[Tuple[DarbouxIndex, DarbouxIndex], Fraction] = field(default_factory=dict)
    qq: Dict[Tuple[DarbouxIndex, DarbouxIndex], Fraction] = field(default_factory=dict)

    def _clean(self) -> "QuadraticOperator":
        self.dd = {k: v for k, v in self.dd.items() if v != 0}
        self.qd = {k: v for k, v in self.qd.items() if v != 0}
        self.qq = {k: v for k, v in self.qq.items() if v != 0}
        return self

    def apply(self, poly: LaurentPolynomial) -> LaurentPolynomial:
        out = LaurentPolynomial.zero()
        if self.const:
            out = out + poly * self.const
        eps = LaurentPolynomial.variable(EPS)
        for ((m1, a1), (m2, a2)), c in self.dd.items():
            term = poly.derivative(q_var(m1, a1, self.N)).derivative(q_var(m2, a2, self.N))
            if not term.is_zero():
                out = out + eps * term * c
        for ((m1, a1), (m2, a2)), c in self.qd.items():
            term = poly.derivative(q_var(m2, a2, self.N))
            if not term.is_zero():
                out = out + LaurentPolynomial.variable(q_var(m1, a1, self.N)) * term * c
        for ((m1, a1), (m2, a2)), c in self.qq.items():
            v1, v2 = q_var(m1, a1, self.N), q_var(m2, a2, self.N)
            exps = {v1: 2, EPS: -1} if v1 == v2 else {v1: 1, v2: 1, EPS: -1}
            out = out + LaurentPolynomial.monomial(exps, c) * poly
        return out

    def __add__(self, other: "QuadraticOperator") -> "QuadraticOperator":
        result = QuadraticOperator(self.N, self.const + other.const,
                                   dict(self.dd), dict(self.qd), dict(self.qq))
        for src, dst in ((other.dd, result.dd), (other.qd, result.qd), (other.qq, result.qq)):
            for k, v in src.items():
                dst[k] = dst.get(k, Fraction(0)) + v
        return result._clean()

    def scale(self, c: Fraction) -> "QuadraticOperator":
        c = Fraction(c)
        return QuadraticOperator(
            self.N, self.const * c,
            {k: v * c for k, v in self.dd.items()},
            {k: v * c for k, v in self.qd.items()},
            {k: v * c for k, v in self.qq.items()})._clean()

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadraticOperator):
            return NotImplemented
        return (self.N == other.N and self.const == other.const
                and self._clean().dd == other._clean().dd
                and self.qd == other.qd and self.qq == other.qq)

    def blocks_report(self) -> dict:
        def fmt(block):
            return {f"{k[0]}|{k[1]}": f"{v.numerator}/{v.denominator}"
                    for k, v in sorted(block.items())}
        return {"const": f"{self.const.numerator}/{self.const.denominator}",
                "dd": fmt(self.dd), "qd": fmt(self.qd), "qq": fmt(self.qq)}


def quantize(op: LoopOperator, truncation: int,
             eta: Optional[Sequence[Sequence[Fraction]]] = None,
             check_symplectic: bool = True) -> QuadraticOperator:
    """Quantize an infinitesimally symplectic T through mode index `truncation`.

    The quadratic function is (1/2) Omega(f, Tf); its monomial coefficients
    are read off on the Darboux basis and mapped through the substitution
    rule.  A non-symplectic T is rejected with the violating basis pair.
    """
    N = op.N
    eta = eta if eta is not None else [[Fraction(1 if i == j else 0) for j in range(N)]
                                       for i in range(N)]
    if check_symplectic:
        window = range(-truncation - 3, truncation + 3)
        bad = check_infinitesimal_symplectic(op, eta, window)
        if bad is not None:
            raise VirasoroError(f"operator is not infinitesimally symplectic at basis pair {bad}")

    indices: List[Tuple[str, int, int]] = []
    for m in range(truncation + 1):
        for alpha in range(N):
            indices.append(("p", m, alpha))
            indices.append(("q", m, alpha))

    eta_inv = _invert_exact(eta)

    def basis_elem(idx: Tuple[str, int, int]) -> LoopElement:
        kind, m, alpha = idx
        return darboux_p(m, alpha, eta_inv) if kind == "p" else darboux_q(m, alpha)

    t_images = {idx: op.act(basis_elem(idx)) for idx in indices}

    quad: Dict[Tuple[Tuple[str, int, int], Tuple[str, int, int]], Fraction] = {}
    for i, idx1 in enumerate(indices):
        for idx2 in indices[i:]:
            if idx1 == idx2:
                c = Fraction(1, 2) * omega(basis_elem(idx1), t_images[idx1], eta)
            else:
                c = Fraction(1, 2) * (omega(basis_elem(idx1), t_images[idx2], eta)
                                      + omega(basis_elem(idx2), t_images[idx1], eta))
            if c != 0:
                quad[(idx1, idx2)] = c

    out = QuadraticOperator(N)
    for (idx1, idx2), c in quad.items():
        kinds = (idx1[0], idx2[0])
        i1, i2 = (idx1[1], idx1[2]), (idx2[1], idx2[2])
        if kinds == ("p", "p"):
            key = tuple(sorted((i1, i2)))
            out.dd[key] = out.dd.get(key, Fraction(0)) + c
        elif kinds == ("q", "q"):
            key = tuple(sorted((i1, i2)))
            out.qq[key] = out.qq.get(key, Fraction(0)) + c
        else:
            # p q or q p monomial: operator c * q_j d_i
            (pi, qi) = (i1, i2) if kinds == ("p", "q") else (i2, i1)
            out.qd[(qi, pi)] = out.qd.get((qi, pi), Fraction(0)) + c
    return out._clean()


# ---------------------------------------------------------------------------
# The explicit point operators.
# ---------------------------------------------------------------------------

def point_virasoro(m: int, truncation: int) -> QuadraticOperator:
    """L_m for the point target, m in -1..2, truncated at mode `truncation`.

    These are the closed forms the quantization rule produces.  The mixed
    eps d0 d1 coefficient of the m = 2 operator is 3/8: together with the
    eps/8 term of L_1 that value is forced by [L_2, L_-1] = 3 L_1, and it is
    what `quantize` yields (a 3/4 variant fails the bracket).
    """
    M = truncation
    out = QuadraticOperator(1)
    half = Fraction(1, 2)
    if m == -1:
        out.qq[((0, 0), (0, 0))] = half
        for mm in range(M):
            out.qd[((mm + 1, 0), (mm, 0))] = Fraction(1)
    elif m == 0:
        for mm in range(M + 1):
            out.qd[((mm, 0), (mm, 0))] = mm + half
    elif m == 1:
        out.dd[((0, 0), (0, 0))] = Fraction(1, 8)
        for mm in range(M):
            out.qd[((mm, 0), (mm + 1, 0))] = (mm + half) * (mm + Fraction(3, 2))
    elif m == 2:
        out.dd[((0, 0), (1, 0))] = Fraction(3, 8)
        for mm in range(M - 1):
            out.qd[((mm, 0), (mm + 2, 0))] = \
                (mm + half) * (mm + Fraction(3, 2)) * (mm + Fraction(5, 2))
    else:
        raise VirasoroError("point operators tabulated for m in -1..2")
    return out._clean()


def string_operator(eta: Sequence[Sequence[Fraction]], truncation: int) -> QuadraticOperator:
    """Quantization of 1/hbar: sum q_0 q_0 eta / (2 eps) + sum q_m d_{m-1}."""
    N = len(eta)
    out = QuadraticOperator(N)
    for a in range(N):
        for b in range(a, N):
            if eta[a][b] != 0:
                out.qq[((0, a), (0, b))] = (Fraction(1, 2) if a == b else Fraction(1)) * Fraction(eta[a][b])
    for m in range(1, truncation + 1):
        for a in range(N):
            out.qd[((m, a), (m - 1, a))] = Fraction(1)
    return out._clean()


# ---------------------------------------------------------------------------
# Commutator harnesses.
# ---------------------------------------------------------------------------

def q_monomials(max_degree: int, max_index: int, N: int = 1) -> List[LaurentPolynomial]:
    """All q-monomials of total degree <= max_degree in modes 0..max_index."""
    gens = [q_var(m, a, N) for m in range(max_index + 1) for a in range(N)]
    out = [LaurentPolynomial.constant(1)]
    for deg in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(gens, deg):
            exps: Dict[str, int] = {}
            for g in combo:
                exps[g] = exps.get(g, 0) + 1
            out.append(LaurentPolynomial.monomial(exps))
    return out


@dataclass
class CommutationResult:
    m: int
    mp: int
    scalar: Optional[Fraction]        # residual scalar when uniform, else None
    uniform: bool
    expected_scalar: Fraction
    monomials_checked: int
    window: int = 0
    max_mismatch: Fraction = Fraction(0)   # sup-norm of (residual - scalar*P)

    @property
    def ok(self) -> bool:
        return self.uniform and self.scalar == self.expected_scalar

    def classification(self) -> str:
        if self.uniform:
            return "zero" if self.scalar == 0 else "scalar"
        return "operator"


def commutation_check(m: int, mp: int, max_index: int = 4, degree: int = 3,
                      operator_window: Optional[int] = None) -> CommutationResult:
    """[L_m, L_mp] - (m - mp) L_{m+mp} on all small q-monomials.

    The residual must be multiplication by one scalar, the central shift
    (m - mp)/16 when m + mp = 0 and zero otherwise.
    """
    if m + mp < -1:
        raise VirasoroError("m + mp >= -1 required")
    W = operator_window if operator_window is not None else max_index + degree + 4

    def reference(mm: int) -> QuadraticOperator:
        if -1 <= mm <= 2:
            return point_virasoro(mm, W)
        return quantize(loop_d_operator(mm), W)

    A, B, C = reference(m), reference(mp), reference(m + mp)
    expected = Fraction(m - mp, 16) if m + mp == 0 else Fraction(0)

    scalar: Optional[Fraction] = None
    uniform = True
    mismatch = Fraction(0)
    monos = q_monomials(degree, max_index)
    for P in monos:
        r = A.apply(B.apply(P)) - B.apply(A.apply(P)) - C.apply(P) * (m - mp)
        if r.is_zero():
            c = Fraction(0)
        else:
            # candidate scalar: coefficient of P's monomial inside r
            _, rterms, pterms = r._aligned(P)
            pkey, pcoeff = next(iter(pterms.items()))
            c = rterms.get(pkey, Fraction(0)) / pcoeff
        leftover = r - P * c
        if not leftover.is_zero():
            uniform = False
            mismatch = max(mismatch, max(abs(v) for v in leftover.terms.values()))
        elif scalar is None:
            scalar = c
        elif scalar != c:
            uniform = False
    return CommutationResult(m=m, mp=mp, scalar=scalar if uniform else None,
                             uniform=uniform, expected_scalar=expected,
                             monomials_checked=len(monos), window=W,
                             max_mismatch=mismatch)


@dataclass
class FamilyBracketResult:
    m: int
    mp: int
    exact: bool
    coefficient: int      # [L_m, L_mp] = coefficient * L_{m+mp} on the window


def family_bracket_check(mu: Sequence[Fraction], rho: Sequence[Sequence[Fraction]],
                         m: int, mp: int, k_window: Sequence[int]) -> FamilyBracketResult:
    """Exact bracket of the unquantized family operators on a basis window.

    With this dilation convention the matrix-level bracket closes with
    coefficient (mp - m): [L_m, L_mp] = (mp - m) L_{m+mp}; conjugation by
    hbar^mu hbar^{-rho} preserves it.  (Quantization flips the sign, giving
    the (m - mp) relation the hatted operators satisfy.)
    """
    if m + mp < -1:
        raise VirasoroError("m + mp >= -1 required")
    a = family_operator(mu, rho, m)
    b = family_operator(mu, rho, mp)
    c = family_operator(mu, rho, m + mp)
    exact = a.commutator(b).equals_on_window(c.scale(Fraction(mp - m)), k_window)
    return FamilyBracketResult(m=m, mp=mp, exact=exact, coefficient=mp - m if exact else 0)
