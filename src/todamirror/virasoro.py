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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

LoopElement = Dict[Tuple[int, int], Fraction]      # (alpha, hbar power) -> coeff
DarbouxIndex = Tuple[int, int]                     # (mode m, basis index alpha)


class VirasoroError(ValueError):
    pass


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


def loop_d_operator(m: int) -> LoopOperator:
    """D_m = hbar^{-1/2} D^{m+1} hbar^{-1/2}: hbar^k -> prod_r (k+1/2+r) hbar^{k+m},
    the point (mu = rho = 0) member of `family_operator`."""
    return family_operator([0], [[0]], m)


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


def darboux_p(m: int, alpha: int, eta_inv: Sequence[Sequence[Fraction]]) -> LoopElement:
    """p_m^alpha sits on the eta-dual basis vector so that Omega(p, q) = delta."""
    sign = Fraction(-1) ** (m + 1)
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


def _contractions(beta: Counter, gamma: Counter
                  ) -> Iterator[Tuple[int, Tuple[DarbouxIndex, ...], Tuple[DarbouxIndex, ...]]]:
    """The kappa != 0 terms of d^beta q^gamma as (weight, q indices, d indices)."""
    common = sorted(beta.keys() & gamma.keys())
    for kappa in itertools.product(*(range(min(beta[i], gamma[i]) + 1) for i in common)):
        if not any(kappa):
            continue
        w = 1
        for i, k in zip(common, kappa):
            w *= comb(beta[i], k) * comb(gamma[i], k) * factorial(k)
        gone = Counter(dict(zip(common, kappa)))
        yield w, tuple((gamma - gone).elements()), tuple((beta - gone).elements())


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

    def _terms(self) -> Iterator[Tuple[Fraction, Tuple[DarbouxIndex, ...], Tuple[DarbouxIndex, ...]]]:
        """Every non-central term as (coefficient, q indices, d indices)."""
        for (i, j), c in self.dd.items():
            yield c, (), (i, j)
        for (i, j), c in self.qd.items():
            yield c, (i,), (j,)
        for (i, j), c in self.qq.items():
            yield c, (i, j), ()

    def _add_term(self, c: Fraction, qs: Sequence[DarbouxIndex],
                  ds: Sequence[DarbouxIndex]) -> None:
        """Add c q^qs d^ds (two factors in all, or none) to its block."""
        if not qs and not ds:
            self.const += c
            return
        if not qs:
            block, key = self.dd, tuple(sorted(ds))
        elif not ds:
            block, key = self.qq, tuple(sorted(qs))
        else:
            block, key = self.qd, (qs[0], ds[0])
        block[key] = block.get(key, Fraction(0)) + c

    def commutator(self, other: "QuadraticOperator") -> "QuadraticOperator":
        """The exact normal-ordered [self, other], for any N.

        Moving d^beta of a left term past q^gamma of a right term uses the
        Weyl rule per Darboux index,

            d^beta q^gamma = sum_kappa C(beta, kappa) C(gamma, kappa) kappa!
                             q^(gamma - kappa) d^(beta - kappa).

        The kappa = 0 products are the same in both orders and cancel, so
        only contracted products are formed.  A quadratic bracket is again
        quadratic (one contraction) plus a central term (two); the eps
        powers balance on their own, as each block carries eps^(#d - #q)/2.
        """
        out = QuadraticOperator(self.N)
        for sign, left, right in ((1, self, other), (-1, other, self)):
            for c1, q1, d1 in left._terms():
                for c2, q2, d2 in right._terms():
                    for w, qs, ds in _contractions(Counter(d1), Counter(q2)):
                        out._add_term(sign * w * c1 * c2, q1 + qs, ds + d2)
        return out._clean()

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
             eta: Optional[Sequence[Sequence[Fraction]]] = None) -> QuadraticOperator:
    """Quantize an infinitesimally symplectic T through mode index `truncation`.

    The quadratic function is (1/2) Omega(f, Tf); its monomial coefficients
    are read off on the Darboux basis and mapped through the substitution
    rule.  A non-symplectic T is rejected with the violating basis pair.
    """
    N = op.N
    eta = eta if eta is not None else [[Fraction(1 if i == j else 0) for j in range(N)]
                                       for i in range(N)]
    bad = check_infinitesimal_symplectic(op, eta, range(-truncation - 3, truncation + 3))
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

    out = QuadraticOperator(N)
    for i, idx1 in enumerate(indices):
        for idx2 in indices[i:]:
            if idx1 == idx2:
                c = Fraction(1, 2) * omega(basis_elem(idx1), t_images[idx1], eta)
            else:
                c = Fraction(1, 2) * (omega(basis_elem(idx1), t_images[idx2], eta)
                                      + omega(basis_elem(idx2), t_images[idx1], eta))
            if c != 0:
                # p -> d and q -> q; a p q monomial becomes c q_j d_i
                ps = [(m, a) for kind, m, a in (idx1, idx2) if kind == "p"]
                qs = [(m, a) for kind, m, a in (idx1, idx2) if kind == "q"]
                out._add_term(c, qs, ps)
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

@dataclass
class CommutationResult:
    m: int
    mp: int
    scalar: Fraction             # central term of the residual operator
    expected_scalar: Fraction
    leftover_terms: int          # residual dd/qd/qq terms with every mode <= max_index
    window: int                  # truncation mode of the operators

    @property
    def ok(self) -> bool:
        return self.leftover_terms == 0 and self.scalar == self.expected_scalar


def commutation_check(m: int, mp: int, max_index: int = 4) -> CommutationResult:
    """The residual r = [L_m, L_mp] - (m - mp) L_{m+mp} as one exact operator.

    r must be central: the shift (m - mp)/16 when m + mp = 0, zero
    otherwise.  The operators are truncated at mode W = max_index + 7, which
    leaves boundary terms in r near mode W only, so r is judged on its
    terms whose modes are all <= max_index.
    """
    if m + mp < -1:
        raise VirasoroError("m + mp >= -1 required")
    W = max_index + 7

    def reference(mm: int) -> QuadraticOperator:
        if -1 <= mm <= 2:
            return point_virasoro(mm, W)
        return quantize(loop_d_operator(mm), W)

    r = reference(m).commutator(reference(mp)) + reference(m + mp).scale(mp - m)
    leftover = sum(1 for block in (r.dd, r.qd, r.qq) for key in block
                   if all(mode <= max_index for mode, _ in key))
    expected = Fraction(m - mp, 16) if m + mp == 0 else Fraction(0)
    return CommutationResult(m=m, mp=mp, scalar=r.const, expected_scalar=expected,
                             leftover_terms=leftover, window=W)


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
