"""Exact symbolic core: rationals, multivariate Laurent polynomials, and
truncated power series in hbar.

Coefficients are `fractions.Fraction` throughout; nothing in this module ever
rounds.  Numeric modules convert to floating point at their own boundary, so
every identity checked against this layer is checked bit-exactly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple, Union

ScalarLike = Union[int, Fraction]


class ExactAlgebraError(ValueError):
    """Invalid request in the exact layer (domain or valuation violation)."""


# Session-global variable interning.  The first registration of a name fixes
# its slot; exponent vectors are thereby comparable across all modules.
_VAR_ORDER: Dict[str, int] = {}


def variable_order(name: str) -> int:
    if name not in _VAR_ORDER:
        _VAR_ORDER[name] = len(_VAR_ORDER)
    return _VAR_ORDER[name]


def _coerce_scalar(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise ExactAlgebraError(f"not an exact scalar: {c!r}")


class LaurentPolynomial:
    """Multivariate Laurent polynomial over the rationals.

    Terms are stored as a map from integer exponent vectors (negative entries
    allowed) to nonzero Fraction coefficients.  The variable tuple is sorted
    by the session-global order and pruned of unused names, so two equal
    polynomials have identical representations.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Tuple[int, ...], Fraction]):
        variables = tuple(variables)
        for v in variables:
            variable_order(v)
        clean: Dict[Tuple[int, ...], Fraction] = {}
        for exps, c in terms.items():
            c = _coerce_scalar(c)
            if c == 0:
                continue
            if len(exps) != len(variables):
                raise ExactAlgebraError("exponent vector length mismatch")
            clean[tuple(exps)] = c
        # sort variables by global order
        order = sorted(range(len(variables)), key=lambda i: variable_order(variables[i]))
        if order != list(range(len(variables))):
            variables = tuple(variables[i] for i in order)
            clean = {tuple(e[i] for i in order): c for e, c in clean.items()}
        self._set_pruned(variables, clean)

    @classmethod
    def _of(cls, variables: Tuple[str, ...],
            terms: Dict[Tuple[int, ...], Fraction]) -> "LaurentPolynomial":
        """The polynomial of `terms` as arithmetic leaves them: variables sorted
        by the global order and nonzero Fraction values, so nothing is checked."""
        out = object.__new__(cls)
        out._set_pruned(variables, terms)
        return out

    def _set_pruned(self, variables: Tuple[str, ...], terms: Dict[Tuple[int, ...], Fraction]):
        """Store `terms` without the variables that no term uses."""
        if variables:
            used = [i for i in range(len(variables)) if any(e[i] for e in terms)]
            if len(used) != len(variables):
                variables = tuple(variables[i] for i in used)
                terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        _set_variables(self, variables)
        _set_terms(self, terms)

    def __setattr__(self, *a):  # immutable after construction
        raise AttributeError("LaurentPolynomial is immutable")

    # ---- constructors ----
    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls((), {})

    @classmethod
    def constant(cls, c: ScalarLike) -> "LaurentPolynomial":
        c = _coerce_scalar(c)
        return cls((), {(): c} if c != 0 else {})

    @classmethod
    def variable(cls, name: str) -> "LaurentPolynomial":
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff: ScalarLike = 1) -> "LaurentPolynomial":
        names = tuple(exps)
        return cls(names, {tuple(exps[n] for n in names): _coerce_scalar(coeff)})

    # ---- predicates / accessors ----
    def is_zero(self) -> bool:
        return not self.terms

    def as_constant(self) -> Fraction:
        if self.variables:
            raise ExactAlgebraError(f"not a constant: {self}")
        return self.terms.get((), Fraction(0))

    # ---- alignment ----
    def _aligned(self, other: "LaurentPolynomial"):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        merged = sorted(set(self.variables) | set(other.variables), key=variable_order)
        merged = tuple(merged)

        def remap(poly: "LaurentPolynomial"):
            idx = [merged.index(v) for v in poly.variables]
            out: Dict[Tuple[int, ...], Fraction] = {}
            for e, c in poly.terms.items():
                vec = [0] * len(merged)
                for pos, ev in zip(idx, e):
                    vec[pos] = ev
                out[tuple(vec)] = c
            return out

        return merged, remap(self), remap(other)

    # ---- arithmetic ----
    def __add__(self, other) -> "LaurentPolynomial":
        other = _as_poly(other)
        variables, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
        return LaurentPolynomial._of(variables, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._of(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "LaurentPolynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "LaurentPolynomial":
        other = _as_poly(other)
        variables, a, b = self._aligned(other)
        out: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(operator.add, e1, e2))
                if e in out:
                    s = out[e] + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                else:
                    out[e] = c1 * c2
        return LaurentPolynomial._of(variables, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentPolynomial":
        c = _coerce_scalar(other)
        if c == 0:
            raise ZeroDivisionError
        return LaurentPolynomial(self.variables, {e: v / c for e, v in self.terms.items()})

    def inverse(self) -> "LaurentPolynomial":
        """Inverse of a single-term Laurent monomial."""
        if len(self.terms) != 1:
            raise ExactAlgebraError("only monomials are invertible")
        (e, c), = self.terms.items()
        return LaurentPolynomial(self.variables, {tuple(-x for x in e): 1 / c})

    def __pow__(self, k: int) -> "LaurentPolynomial":
        if not isinstance(k, int):
            raise ExactAlgebraError("exponent must be an int")
        if k < 0:
            return self.inverse() ** (-k)
        result = LaurentPolynomial.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # ---- substitution / evaluation ----
    def subs(self, name: str, value) -> "LaurentPolynomial":
        """Substitute `value` (scalar or polynomial) for the variable `name`.

        Negative exponents of `name` require `value` to be an invertible
        monomial.
        """
        if name not in self.variables:
            return self
        value = _as_poly(value)
        i = self.variables.index(name)
        rest_vars = tuple(v for j, v in enumerate(self.variables) if j != i)
        total = LaurentPolynomial.zero()
        pow_cache: Dict[int, LaurentPolynomial] = {}

        def vpow(k: int) -> LaurentPolynomial:
            if k not in pow_cache:
                pow_cache[k] = value ** k
            return pow_cache[k]

        for e, c in self.terms.items():
            rest = tuple(x for j, x in enumerate(e) if j != i)
            base = LaurentPolynomial(rest_vars, {rest: c})
            total = total + base * vpow(e[i])
        return total

    def evaluate(self, assign: Mapping[str, object]):
        """Evaluate at the given assignment (must cover all variables).

        Returns a Fraction when every value is exact, otherwise a complex.
        """
        missing = [v for v in self.variables if v not in assign]
        if missing:
            raise ExactAlgebraError(f"missing values for {missing}")
        vals = [assign[v] for v in self.variables]
        exact = all(isinstance(v, (int, Fraction)) for v in vals)
        if exact:
            acc = Fraction(0)
            for e, c in self.terms.items():
                t = c
                for v, k in zip(vals, e):
                    t *= Fraction(v) ** k
                acc += t
            return acc
        cvals = [complex(v) for v in vals]
        accc = 0j
        for e, c in self.terms.items():
            t = complex(c)
            for v, k in zip(cvals, e):
                t *= v ** k
            accc += t
        return accc

    # ---- canonical text ----
    def canonical_str(self) -> str:
        """Deterministic text form: graded-lex descending, coeffs as num/den."""
        if not self.terms:
            return "0"
        def key(e):
            return (sum(e), e)
        parts = []
        for e in sorted(self.terms, key=key, reverse=True):
            c = self.terms[e]
            factors = [f"{c.numerator}/{c.denominator}"]
            for v, k in zip(self.variables, e):
                if k == 0:
                    continue
                factors.append(v if k == 1 else f"{v}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPolynomial({self.canonical_str()})"


_set_variables = LaurentPolynomial.variables.__set__
_set_terms = LaurentPolynomial.terms.__set__


def _as_poly(x) -> LaurentPolynomial:
    if isinstance(x, LaurentPolynomial):
        return x
    return LaurentPolynomial.constant(_coerce_scalar(x))


# ---------------------------------------------------------------------------
# Truncated series in hbar with LaurentPolynomial coefficients.
# ---------------------------------------------------------------------------

class HbarSeries:
    """Truncated series ``sum_{e=low}^{order} c_e hbar^e + O(hbar^{order+1})``.

    Arithmetic is exact through the (common) truncation order.  `exp` needs a
    strictly positive valuation; `log` an argument of the form 1 + O(hbar).
    """

    __slots__ = ("low", "coeffs", "order")

    def __init__(self, low: int, coeffs: Sequence, order: int):
        coeffs = [_as_poly(c) for c in coeffs]
        # drop tracked range above the order
        if low + len(coeffs) - 1 > order:
            coeffs = coeffs[: order - low + 1]
        while coeffs and coeffs[0].is_zero():
            coeffs = coeffs[1:]
            low += 1
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        if not coeffs:
            low = order + 1
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, *a):
        raise AttributeError("HbarSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "HbarSeries":
        return cls(order + 1, (), order)

    @classmethod
    def constant(cls, c, order: int) -> "HbarSeries":
        return cls(0, (c,), order)

    @classmethod
    def hbar_term(cls, coeff, exponent: int, order: int) -> "HbarSeries":
        return cls(exponent, (coeff,), order)

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        """Lowest exponent with a nonzero coefficient (order+1 when zero)."""
        return self.low if self.coeffs else self.order + 1

    def coefficient(self, e: int) -> LaurentPolynomial:
        if e > self.order:
            raise ExactAlgebraError(f"coefficient {e} beyond truncation {self.order}")
        if e < self.low or e >= self.low + len(self.coeffs):
            return LaurentPolynomial.zero()
        return self.coeffs[e - self.low]

    def __add__(self, other) -> "HbarSeries":
        other = _as_series(other, self.order)
        order = min(self.order, other.order)
        lo = min(self.valuation(), other.valuation())
        if lo > order:
            return HbarSeries.zero(order)
        return HbarSeries(lo, [self.coefficient(e) + other.coefficient(e)
                               for e in range(lo, order + 1)], order)

    __radd__ = __add__

    def __neg__(self) -> "HbarSeries":
        return HbarSeries(self.low, [-c for c in self.coeffs], self.order)

    def __sub__(self, other) -> "HbarSeries":
        return self + (-_as_series(other, self.order))

    def __mul__(self, other) -> "HbarSeries":
        if isinstance(other, (int, Fraction, LaurentPolynomial)):
            other_poly = _as_poly(other)
            return HbarSeries(self.low, [c * other_poly for c in self.coeffs], self.order)
        if self.is_zero() or other.is_zero():
            return HbarSeries.zero(min(self.order, other.order))
        order = min(self.order + other.low, other.order + self.low)
        lo = self.low + other.low
        size = order - lo + 1
        acc = [LaurentPolynomial.zero() for _ in range(max(size, 0))]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                e = self.low + i + other.low + j
                if e > order:
                    continue
                acc[e - lo] = acc[e - lo] + a * b
        return HbarSeries(lo, acc, order)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "HbarSeries":
        if k < 0:
            raise ExactAlgebraError("negative series powers not supported")
        out = HbarSeries.constant(1, self.order)
        for _ in range(k):
            out = out * self
        return out

    def exp(self) -> "HbarSeries":
        """exp of a series with strictly positive hbar-valuation."""
        if not self.is_zero() and self.valuation() < 1:
            raise ExactAlgebraError("exp requires positive hbar-valuation")
        out = HbarSeries.constant(1, self.order)
        power = HbarSeries.constant(1, self.order)
        for k in range(1, self.order + 1):
            power = power * self
            if power.is_zero():
                break
            out = out + power * Fraction(1, math.factorial(k))
        return out

    def log(self) -> "HbarSeries":
        """log of a series of the form 1 + O(hbar)."""
        if self.coefficient(0) != LaurentPolynomial.constant(1) or self.valuation() < 0:
            raise ExactAlgebraError("log requires argument 1 + O(hbar)")
        x = self - 1
        out = HbarSeries.zero(self.order)
        power = HbarSeries.constant(1, self.order)
        for k in range(1, self.order + 1):
            power = power * x
            if power.is_zero():
                break
            out = out + power * Fraction((-1) ** (k + 1), k)
        return out

    def negate_hbar(self) -> "HbarSeries":
        """The series with hbar replaced by -hbar."""
        coeffs = [c if (self.low + i) % 2 == 0 else -c for i, c in enumerate(self.coeffs)]
        return HbarSeries(self.low, coeffs, self.order)

    def __eq__(self, other) -> bool:
        """Agreement of all coefficients through the common truncation order."""
        other = _as_series(other, self.order)
        order = min(self.order, other.order)
        lo = min(self.valuation(), other.valuation())
        for e in range(lo, order + 1):
            if self.coefficient(e) != other.coefficient(e):
                return False
        return True

    def __hash__(self):
        raise TypeError("HbarSeries is unhashable")

    def canonical_str(self) -> str:
        if self.is_zero():
            return f"0 + O(hbar^{self.order + 1})"
        parts = [f"({c.canonical_str()})*hbar^{self.low + i}"
                 for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(parts) + f" + O(hbar^{self.order + 1})"

    def __repr__(self):
        return f"HbarSeries({self.canonical_str()})"


def _as_series(x, order: int) -> HbarSeries:
    if isinstance(x, HbarSeries):
        return x
    return HbarSeries.constant(x, order)


# ---------------------------------------------------------------------------
# Small exact utilities used throughout.
# ---------------------------------------------------------------------------

def char_coeffs(diag: Sequence, upper: Sequence) -> List:
    """c_1..c_m with det(M + xI) = x^m + c_1 x^{m-1} + ... + c_m, for the
    m-square M with `diag` on its diagonal, `upper` above it and -1 below,
    over Fractions, Laurent polynomials or complex numbers: the continuant
    det_k = (x + d_k) det_{k-1} + u_{k-1} det_{k-2} of its leading blocks,
    each kept as its coefficients below the leading 1.  d_k det_{k-1} comes
    first in each sum, which fixes the order of Laurent terms and so the float
    summation order of `integrals.eigen_residual`."""
    older, old = [], []
    for d, u in zip(diag, [0, *upper]):
        new = [d * b + a for a, b in zip(old + [0], [1] + old)]
        new[1:] = [a + u * b for a, b in zip(new[1:], [1] + older)]
        older, old = old, new
    return old


def elementary_symmetric_sigma(lams: Sequence) -> List:
    """Signed elementary symmetric values sigma_1..sigma_{n+1}.

    Defined by  x^{n+1} + sigma_1 x^n + ... + sigma_{n+1} = prod_i (x - lam_i),
    the characteristic coefficients of diag(-lam).
    Accepts Fractions or ring elements (e.g. LaurentPolynomial).
    """
    return char_coeffs([-lam for lam in lams], [0] * (len(lams) - 1))


_BERNOULLI_CACHE: List[Fraction] = [Fraction(1)]


def _bernoulli_minus(m: int) -> Fraction:
    """Bernoulli numbers with B_1 = -1/2 via the defining recurrence."""
    while len(_BERNOULLI_CACHE) <= m:
        k = len(_BERNOULLI_CACHE)
        s = sum(Fraction(math.comb(k + 1, j)) * _BERNOULLI_CACHE[j] for j in range(k))
        _BERNOULLI_CACHE.append(-s / (k + 1))
    return _BERNOULLI_CACHE[m]


def bernoulli(k: int) -> Fraction:
    """Even Bernoulli number B_k from x/(1-e^{-x}) = 1 + x/2 + sum B_2k x^2k/(2k)!.

    Only even k >= 2 are defined by this generating function; anything else is
    rejected.
    """
    if not isinstance(k, int) or k < 2 or k % 2 != 0:
        raise ExactAlgebraError(f"bernoulli defined for even k >= 2, got {k!r}")
    return _bernoulli_minus(k)


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or integer/decimal text into an exact Fraction; bad
    text, a zero denominator included, raises ValueError."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text.strip()!r}") from exc


def format_rational(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"
