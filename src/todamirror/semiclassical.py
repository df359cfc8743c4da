"""Stationary-phase leading asymptotics and the exact classical-limit checks.

The q -> 0 limit of the rescaled oscillatory integrals is a product of Gamma
factors over the cotangent weights of a torus-fixed point; its Stirling
expansion must reproduce, coefficient by coefficient, the Bernoulli series
that defines the diagonal of the asymptotic fundamental solution at q = 0.
Each weight is modelled as an independent Laurent symbol, so the identity is
checked exactly, with no rational-function arithmetic and no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .exact import HbarSeries, LaurentPolynomial, bernoulli
from .mirror import LambdaForm
from . import critical as crit


class SemiclassicalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Fixed-point weight data.
# ---------------------------------------------------------------------------

@dataclass
class FixedPointData:
    """Cotangent weights at the fixed point labelled by a permutation.

    The weights are lam_{sigma(i)} - lam_{sigma(j)} over pairs i > j; there
    are n(n+1)/2 of them and N_l is the sum of their (-l)-th powers.
    """

    n: int
    permutation: Tuple[int, ...]
    weights: List[LambdaForm]

    @classmethod
    def from_permutation(cls, n: int, permutation: Sequence[int]) -> "FixedPointData":
        perm = tuple(permutation)
        if sorted(perm) != list(range(n + 1)):
            raise SemiclassicalError(f"not a permutation of 0..{n}: {perm}")
        weights = [LambdaForm.unit(n, perm[i]) - LambdaForm.unit(n, perm[j])
                   for i in range(n + 1) for j in range(i)]
        return cls(n=n, permutation=perm, weights=weights)

    def weight_symbols(self) -> List[LaurentPolynomial]:
        return [LaurentPolynomial.variable(f"chi{k}") for k in range(len(self.weights))]

    def n_l_symbolic(self, l: int) -> LaurentPolynomial:
        """N_l = sum_j chi_j^{-l} over formal weight symbols."""
        return sum((LaurentPolynomial.monomial({f"chi{k}": -l}) for k in range(len(self.weights))),
                   LaurentPolynomial.zero())


# ---------------------------------------------------------------------------
# Stirling tail and the Bernoulli diagonal series.
# ---------------------------------------------------------------------------

def gamma_stirling_tail(K: int) -> List[Fraction]:
    """Coefficients c_i of the asymptotic tail sum_i c_i z^{1-2i} of ln Gamma.

    c_i = B_{2i} / (2i (2i-1)); the rest of the expansion
    (z - 1/2) ln z - z + ln(2 pi)/2 is elementary and not tabulated here.
    """
    if K < 1:
        raise SemiclassicalError("K must be >= 1")
    return [bernoulli(2 * i) / Fraction(2 * i * (2 * i - 1)) for i in range(1, K + 1)]


def stirling_tail_series(weights: Sequence[LaurentPolynomial], K: int) -> HbarSeries:
    """sum over weights of the Stirling tail at z = weight/hbar, through hbar^{2K-1}.

    The hbar^{2i-1} coefficient is c_i sum_w w^{1-2i}, summed in one
    polynomial per power while w^{1-2i} steps down by w^{-2}."""
    coeffs = gamma_stirling_tail(K)
    sums = [LaurentPolynomial.zero() for _ in coeffs]
    for w in weights:
        power, step = w ** -1, w ** -2
        for i, c in enumerate(coeffs):
            sums[i] = sums[i] + power * c
            power = power * step
    odd = [p for s in sums for p in (s, LaurentPolynomial.zero())]
    return HbarSeries(1, odd[:-1], 2 * K - 1)


def classical_limit_b(fp: FixedPointData, K: int) -> HbarSeries:
    """The diagonal entry b(hbar) = sum_k N_{2k-1} (B_{2k}/2k) hbar^{2k-1}/(2k-1)
    over the weight symbols, through hbar^{2K-1}."""
    order = 2 * K - 1
    out = HbarSeries.zero(order)
    for k in range(1, K + 1):
        factor = bernoulli(2 * k) / Fraction(2 * k) / Fraction(2 * k - 1)
        out = out + HbarSeries.hbar_term(fp.n_l_symbolic(2 * k - 1) * factor, 2 * k - 1, order)
    return out


@dataclass
class ClassicalLimitReport:
    permutation: Tuple[int, ...]
    order: int
    match: bool
    orthogonal: bool
    first_mismatch: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.match and self.orthogonal


def verify_classical_limit(n: int, permutation: Sequence[int], K: int) -> ClassicalLimitReport:
    """Exact test of the q = 0 diagonal against the Gamma-product Stirling tail.

    `orthogonal` is the oddness b(hbar) + b(-hbar) = 0, which makes exp(b)
    orthogonal at q = 0: exp(b(hbar)) exp(b(-hbar)) = exp(0) = 1.
    """
    fp = FixedPointData.from_permutation(n, permutation)
    b = classical_limit_b(fp, K)
    tail = stirling_tail_series(fp.weight_symbols(), K)
    match = (b == tail)
    first = None if match else next(
        (e for e in range(1, 2 * K) if b.coefficient(e) != tail.coefficient(e)), None)
    return ClassicalLimitReport(permutation=fp.permutation, order=2 * K - 1,
                                match=match, orthogonal=(b + b.negate_hbar()).is_zero(),
                                first_mismatch=first)


# The numeric Stirling check runs in decimal: in float64 the rounding of
# ln 9! (an ulp of 12.8 is 1.8e-15) exceeds the true remainder at z = 10
# from order 5 on.  60 digits leave the remainder exact to far below its
# smallest value, about 1e-22 at order 12.
_DIGITS = 60
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974945")


def stirling_numeric_residual(K: int, z: float) -> Tuple[float, float, bool]:
    """|R_K(z)|, |t_{K+1}(z)| and whether 0 < R_K / t_{K+1} < 1, at a
    positive integer z.

    R_K is ln Gamma(z) = ln (z - 1)! minus the Stirling sum through
    c_K z^{1-2K}, and t_{K+1} = c_{K+1} z^{-1-2K} is the first omitted term.
    For real z > 0 the remainder has the sign of t_{K+1} and is smaller in
    magnitude (DLMF 5.11(ii)); all of it is computed in 60-digit decimal."""
    if z != int(z) or z < 1:
        raise ValueError(f"z must be a positive integer, got {z}")
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        x = Decimal(int(z))
        terms = [Decimal(c.numerator) / c.denominator * x ** (1 - 2 * i)
                 for i, c in enumerate(gamma_stirling_tail(K + 1), start=1)]
        partial = (x - Decimal("0.5")) * x.ln() - x + (2 * _PI).ln() / 2 + sum(terms[:K])
        remainder = Decimal(math.factorial(int(z) - 1)).ln() - partial
        ratio = remainder / terms[K]
        return abs(float(remainder)), abs(float(terms[K])), 0 < ratio < 1


# ---------------------------------------------------------------------------
# Stationary-phase leading terms.
# ---------------------------------------------------------------------------

Amplitude = Callable[[crit.CriticalPointRecord], complex]


def amplitude_one(record: crit.CriticalPointRecord) -> complex:
    return 1.0 + 0.0j


def amplitude_p(i: int) -> Amplitude:
    def amp(record: crit.CriticalPointRecord) -> complex:
        return crit.to_lagrangian(record).p[i]
    amp.__name__ = f"p{i}"
    return amp


def stationary_leading(record: crit.CriticalPointRecord, amplitude: Amplitude) -> complex:
    """amplitude(crit) / sqrt(det Hessian), branch continued from q -> 0.

    The Hessian is taken in the log coordinates in which the volume form is
    translation-invariant; that is the determinant entering the stationary
    phase expansion of the integral.
    """
    if not record.nondegenerate:
        raise SemiclassicalError("record is degenerate")
    return complex(amplitude(record)) / record.sqrt_log_hessian_det
