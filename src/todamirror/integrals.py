"""Numerical evaluation of the mirror oscillatory integrals and the
eigenvalue-equation residuals.

The contour is the positive real subtorus in chart coordinates; after the
substitution w = e^s each axis becomes the whole real line and the integrand
e^{f/hbar} (hbar < 0) is a positive, log-concave bump: f is convex in s, so
there is a unique real peak and trapezoid sums on nested grids converge
geometrically.  Everything is deterministic; no Monte Carlo anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact import LaurentPolynomial, elementary_symmetric_sigma
from .mirror import (
    ChartPhase,
    MirrorGraph,
    SigmaChart,
    make_chart,
    phase_in_chart,
)
from . import operators as ops
from . import critical as crit


class QuadratureError(RuntimeError):
    """Non-convergence or integrand divergence at a boundary face."""


# Absolute floor of the doubling test; the relative tolerance governs.
ABS_TOL = 1e-300
# Nodes per slab of the trapezoid kernel (whole axis-0 rows, at least one):
# the per-slab temporaries stay cache-sized.
_SLAB_NODES = 1 << 16
# Largest float64 grid one doubling level may allocate: 513^3 nodes
# (1.08 GB) fit, 1025^3 (8.6 GB) does not.
_GRID_BYTES = 1 << 31


@dataclass
class IntegralTask:
    n: int
    lam: Tuple[float, ...]
    hbar: float
    chart: SigmaChart
    q: Tuple[float, ...]
    rel_tol: float = 1e-10
    max_doublings: int = 12
    include_prefactor: bool = True             # multiply by prod q_i^{rho/hbar}

    def __post_init__(self):
        if self.n > 2:
            raise ValueError("iterated quadrature is desk scale; n <= 2")
        self.lam = tuple(float(x) for x in self.lam)
        if abs(sum(self.lam)) > 1e-9:
            raise ValueError("lambda must sum to zero")
        if self.hbar >= 0:
            raise ValueError("hbar must be negative")
        self.q = tuple(float(x) for x in self.q)
        if any(x <= 0 for x in self.q):
            raise ValueError("q must be positive")


@dataclass
class QuadratureResult:
    value: float
    error: float
    evaluations: int
    nodes_per_axis: int = 0
    log_scale: float = 0.0   # the factored-out exponent: value = exp(log_scale) * raw


@dataclass
class WeightGrid:
    """The converged trapezoid grid of exp((f - f_ref)/hbar) on a peak-centred
    box: its axes, the weighted integrand values, the cell volume, the
    integral (grid sum times cell), its doubling error, and the integrand
    evaluations and grids built by the whole doubling loop."""
    axes: List[np.ndarray]
    weights: np.ndarray
    cell: float
    f_ref: float
    value: float
    error: float
    evaluations: int
    levels: int

    @property
    def nodes(self) -> int:
        return len(self.axes[0])


def _real_peak(phase: ChartPhase, lnq: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Unique real minimum of the convex phase f(s)."""
    s = np.zeros(phase.dim)
    for _ in range(200):
        g = phase.gradient(s, lnq)
        if np.max(np.abs(g)) < tol:
            return s
        try:
            step = np.linalg.solve(phase.hessian(s, lnq), -g)
        except np.linalg.LinAlgError as exc:
            raise QuadratureError(f"singular Hessian at the peak search: {exc}") from exc
        f0 = phase.value(s, lnq)
        t = 1.0
        while t > 1e-14:
            s_try = s + t * step
            f_try = phase.value(s_try, lnq)
            if np.isfinite(f_try) and f_try < f0:
                s = s_try
                break
            t /= 2
        else:
            # descent stalled at float resolution; the point is good enough
            # for grid centering as long as the gradient is already small
            if np.max(np.abs(g)) < 1e-6:
                return s
            raise QuadratureError("peak line search stalled (no interior minimum?)")
    raise QuadratureError("peak search did not converge")


def _decay_check(phase: ChartPhase, lnq: np.ndarray, s_star: np.ndarray,
                 f_star: float, reach: float = 40.0) -> None:
    """Verify f grows along every boundary ray; report the offending face."""
    d = phase.dim
    dirs: List[Tuple[str, np.ndarray]] = []
    for k in range(d):
        for sgn in (+1.0, -1.0):
            e = np.zeros(d)
            e[k] = sgn
            dirs.append((f"axis {k} {'+' if sgn > 0 else '-'}", e))
    rng = np.random.default_rng(1234)  # fixed probe directions, deterministic
    for i in range(4 * d):
        v = rng.standard_normal(d)
        dirs.append((f"ray {i}", v / np.linalg.norm(v)))
    for name, e in dirs:
        f_far = float(phase.value(s_star + reach * e, lnq))
        if not np.isfinite(f_far) or f_far < f_star + 1.0:
            raise QuadratureError(
                f"integrand fails to decay at boundary face ({name})")


def _axis_halfwidths(phase: ChartPhase, lnq: np.ndarray, s_star: np.ndarray,
                     f_star: float, threshold: float) -> np.ndarray:
    """Per-axis S with f(s* +/- S e_k) - f* >= threshold (tail bound)."""
    d = phase.dim
    out = np.zeros(d)

    def excess(k: int, t: float) -> float:
        s = s_star.copy()
        s[k] += t
        return float(phase.value(s, lnq)) - f_star

    for k in range(d):
        width = 0.0
        for sgn in (+1.0, -1.0):
            t = 1.0
            while excess(k, sgn * t) < threshold:
                t *= 1.6
                if t > 1e4:
                    raise QuadratureError(f"no decay along axis {k}")
            width = max(width, t)
        out[k] = width
    return out


def _weight_grid(phase: ChartPhase, lnq: np.ndarray, center: np.ndarray,
                 halfwidth: np.ndarray, m: int, f_ref: float,
                 hbar: float) -> Tuple[List[np.ndarray], np.ndarray, float]:
    """Axes, trapezoid-weighted exp((f - f_ref)/hbar) and cell volume of the
    box center +/- halfwidth with m nodes per axis.

    Each monomial exp(b_m + A_m . s) is exponentiated only over the axes
    where A_m is nonzero and broadcast into the grid, which is filled in
    slabs of whole axis-0 rows; the grid is the only full-size array.  Each
    node sees the float operations of the dense formula in the same order
    (b_m + a_mk s_k in axis order, monomials in row order, then sigma_k s_k,
    - f_ref, / hbar, exp, the trapezoid halves), less only the exact
    additions of 0 * s_k, so the grid is bitwise the dense one.
    """
    d = phase.dim
    axes = [np.linspace(center[k] - halfwidth[k], center[k] + halfwidth[k], m)
            for k in range(d)]

    def along(k: int, v: np.ndarray) -> np.ndarray:
        return v.reshape((1,) * k + (-1,) + (1,) * (d - 1 - k))

    b_ln = [float(b @ lnq) for b in phase.B]
    grid = np.empty((m,) * d)
    step = max(1, _SLAB_NODES // m ** (d - 1))
    for r0 in range(0, m, step):
        rows = slice(r0, r0 + step)
        local = [axes[0][rows]] + axes[1:]
        slab = grid[rows]
        for idx, (a, b) in enumerate(zip(phase.A, b_ln)):
            term = np.full((1,) * d, b)
            for k in np.flatnonzero(a):
                term = term + along(k, a[k] * local[k])
            np.exp(term, out=term)
            if idx == 0:
                slab[...] = term
            else:
                slab += term
        for k in np.flatnonzero(phase.sigma):
            slab += along(k, phase.sigma[k] * local[k])
        slab -= f_ref
        slab /= hbar
        np.exp(slab, out=slab)
    # trapezoid weights: 1/2 at the two endpoints of each axis
    for k in range(d):
        sl = [slice(None)] * d
        sl[k] = 0
        grid[tuple(sl)] *= 0.5
        sl[k] = m - 1
        grid[tuple(sl)] *= 0.5
    steps = [(2.0 * halfwidth[k]) / (m - 1) for k in range(d)]
    return axes, grid, math.prod(steps)


def _converged_grid(phase: ChartPhase, lnq: np.ndarray, hbar: float,
                    rel_tol: float, max_doublings: int) -> WeightGrid:
    """Double the nodes per axis from 17 until two trapezoid sums agree to
    rel_tol; each unconverged grid is dropped before the next is built, and
    a grid over the memory budget is refused before it is allocated."""
    s_star = _real_peak(phase, lnq)
    f_star = float(phase.value(s_star, lnq))
    _decay_check(phase, lnq, s_star, f_star)
    # e^{(f - f*)/hbar} <= eps once f - f* >= |hbar| ln(1/eps)
    threshold = abs(hbar) * math.log(1e22)
    widths = _axis_halfwidths(phase, lnq, s_star, f_star, threshold)
    nodes, prev, total_evals = 17, None, 0
    for level in range(1, max_doublings + 1):
        if 8 * nodes ** phase.dim > _GRID_BYTES:
            raise QuadratureError(f"a grid of {nodes}^{phase.dim} nodes exceeds the "
                                  f"{_GRID_BYTES}-byte memory budget")
        axes, grid, cell = _weight_grid(phase, lnq, s_star, widths, nodes, f_star, hbar)
        raw = float(grid.sum()) * cell
        total_evals += nodes ** phase.dim
        if prev is not None:
            err = abs(raw - prev)
            if err <= max(ABS_TOL, rel_tol * abs(raw)):
                return WeightGrid(axes, grid, cell, f_star, raw, err, total_evals, level)
        del axes, grid
        prev = raw
        nodes = 2 * (nodes - 1) + 1
    raise QuadratureError(f"quadrature did not converge within {max_doublings} doublings")


def evaluate(task: IntegralTask) -> QuadratureResult:
    """The chart integral of e^{f/hbar} over the positive subtorus.

    The returned value includes the prefactor prod q_i^{rho_{1,i-1}/hbar}
    unless include_prefactor is False (the q -> 0 factorisation check needs
    the bare integral).
    """
    phase = phase_in_chart(task.chart, task.lam)
    lnq = np.log(np.array(task.q))
    grid = _converged_grid(phase, lnq, task.hbar, task.rel_tol, task.max_doublings)
    log_scale = grid.f_ref / task.hbar
    if task.include_prefactor:
        log_scale += float(phase.rho @ lnq) / task.hbar
    return QuadratureResult(value=math.exp(log_scale) * grid.value,
                            error=grid.error * math.exp(log_scale),
                            evaluations=grid.evaluations,
                            nodes_per_axis=grid.nodes, log_scale=log_scale)


# ---------------------------------------------------------------------------
# Eigenvalue residuals by exact amplitudes.
# ---------------------------------------------------------------------------
#
# In chart coordinates F(s, x) = sum_m e_m + sigma . s + rho . x with
# e_m = exp(A_m . s + B_m . x) and x = ln q, and s does not depend on x, so
# (hbar d/dt_j)(g e^{F/hbar}) = (hbar d/dt_j g + pi_j g) e^{F/hbar} with
# pi_j = dF/dt_j = sum_m (B_m . T_j) e_m + rho . T_j, where T_j is
# d/dt_j = d/dx_j - d/dx_{j+1} in x.  An amplitude is a finite sum
# sum_k c_k e^k, e^k = prod_m e_m^{k_m}, stored as {k: c_k}.

Amplitude = Dict[Tuple[int, ...], float]


def _t_derivative(amp: Amplitude, bt: List[float], rt: float, hbar: float) -> Amplitude:
    """(hbar d/dt_j + pi_j) amp, with bt_m = B_m . T_j and rt = rho . T_j."""
    out: Amplitude = {}
    for k, c in amp.items():
        out[k] = out.get(k, 0.0) + c * (hbar * sum(e * b for e, b in zip(k, bt)) + rt)
        for m, b in enumerate(bt):
            if b:
                km = k[:m] + (k[m] + 1,) + k[m + 1:]
                out[km] = out.get(km, 0.0) + c * b
    return out


def _operator_amplitude(poly: Dict[Tuple[int, ...], LaurentPolynomial],
                        phase: ChartPhase, x: np.ndarray, hbar: float) -> Amplitude:
    """The amplitude P with D e^{F/hbar} = P e^{F/hbar}, coefficients taken at q = e^x."""
    n = len(x)
    t_dirs = np.eye(n + 1, n, k=-1) - np.eye(n + 1, n)   # row j: d/dt_j in x
    bt, rt = (phase.B @ t_dirs.T).T.tolist(), (phase.rho @ t_dirs.T).tolist()
    q_assign = {f"q{i}": math.exp(x[i - 1]) for i in range(1, n + 1)}
    total: Amplitude = {}
    for kappa, coeff in poly.items():
        c = complex(coeff.evaluate(q_assign)).real if coeff.variables \
            else float(coeff.as_constant())
        amp: Amplitude = {(0,) * len(phase.B): c}
        for j, power in enumerate(kappa):
            for _ in range(power):
                amp = _t_derivative(amp, bt[j], rt[j], hbar)
        for k, v in amp.items():
            total[k] = total.get(k, 0.0) + v
    return total


@dataclass
class EigenReport:
    n: int
    lam: Tuple[float, ...]
    q: Tuple[float, ...]
    hbar: float
    residuals: List[float]
    base_value: float
    evaluations: int
    nodes_per_axis: int
    levels: int      # trapezoid grids built by the doubling loop
    error: float     # its last doubling difference, relative to the base integral

    def max_residual(self) -> float:
        return max(self.residuals)


def eigen_residual(n: int, lam: Sequence[float], hbar: float,
                   t_base: Sequence[float], rel_tol: float = 1e-11,
                   chart: Optional[SigmaChart] = None,
                   max_doublings: int = 12) -> EigenReport:
    """Relative residuals |D_i I - sigma_i I| / |I| at t_base.

    Each D_i - sigma_i acts on e^{F/hbar} as multiplication by an exact
    amplitude (differentiation under the integral sign), so every residual
    is one pass over the converged trapezoid grid of the base integral.
    """
    if n > 2:
        raise ValueError("iterated quadrature is desk scale; n <= 2")
    lam = tuple(float(x) for x in lam)
    t_base = tuple(float(x) for x in t_base)
    if abs(sum(t_base)) > 1e-9:
        raise ValueError("t must sum to zero")
    graph = MirrorGraph(n)
    chart = chart or make_chart(graph, (0,) * n)
    x = np.array([t_base[i] - t_base[i - 1] for i in range(1, n + 1)])

    phase = phase_in_chart(chart, lam)
    grid = _converged_grid(phase, x, hbar, rel_tol, max_doublings)

    zero = (0,) * len(phase.B)

    def moment(k: Tuple[int, ...]) -> float:
        """Grid sum of weight * e^k; e^k is separable in s."""
        ka = np.array(k, dtype=float)
        out = grid.weights
        for axis, a in reversed(list(enumerate(ka @ phase.A))):
            out = out @ np.exp(a * grid.axes[axis])
        return float(out) * math.exp(float(ka @ phase.B @ x))

    amplitudes = [_operator_amplitude(poly, phase, x, hbar)
                  for poly in ops.toda_polynomials(n)]
    moments = {k: moment(k) for k in {zero}.union(*amplitudes)}
    base = moments[zero]
    residuals = [abs(sum(c * moments[k] for k, c in amp.items()) - sigma * base) / abs(base)
                 for amp, sigma in zip(amplitudes, elementary_symmetric_sigma(lam))]
    base_value = math.exp((grid.f_ref + float(phase.rho @ x)) / hbar) * base * grid.cell
    return EigenReport(n=n, lam=lam, q=tuple(math.exp(v) for v in x), hbar=hbar,
                       residuals=residuals, base_value=base_value,
                       evaluations=grid.evaluations, nodes_per_axis=grid.nodes,
                       levels=grid.levels, error=grid.error / abs(grid.value))


# ---------------------------------------------------------------------------
# Bessel oracle and the n = 1 closed form.
# ---------------------------------------------------------------------------

def bessel_k_cosh(nu: float, z: float, rel_tol: float = 1e-13) -> float:
    """K_nu(z) = int_0^inf e^{-z cosh t} cosh(nu t) dt by doubling trapezoid."""
    if z <= 0:
        raise ValueError("z must be positive")
    nu = abs(float(nu))
    upper = 1.0
    while z * (math.cosh(upper) - 1.0) - nu * upper < 60.0:
        upper += 1.0
        if upper > 700:
            raise QuadratureError("Bessel integral tail did not close")

    def g(t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
            return np.exp(-z * np.cosh(t)) * np.cosh(nu * t)

    m = 65
    prev = None
    for _ in range(22):
        ts = np.linspace(0.0, upper, m)
        vals = g(ts)
        vals[0] *= 0.5
        vals[-1] *= 0.5
        cur = float(vals.sum()) * (upper / (m - 1))
        if not math.isfinite(cur):  # doubling keeps every node, so it never recovers
            raise QuadratureError(f"Bessel integrand overflows at nu = {nu:g}, z = {z:g}")
        if prev is not None and abs(cur - prev) <= rel_tol * abs(cur):
            return cur
        prev = cur
        m = 2 * (m - 1) + 1
    raise QuadratureError("Bessel quadrature did not converge")


def whittaker_closed_form(lam0: float, q: float, hbar: float) -> float:
    """The n = 1 integral equals 2 K_{-2 lam0/hbar}(-2 sqrt(q)/hbar)."""
    return 2.0 * bessel_k_cosh(-2.0 * lam0 / hbar, -2.0 * math.sqrt(q) / hbar)


# ---------------------------------------------------------------------------
# q -> 0 factorisation against the one-variable Gamma values.
# ---------------------------------------------------------------------------

def admissible(phase: ChartPhase, hbar: float) -> bool:
    """Every exponent sigma(i,j)/hbar of the chart is positive."""
    return bool((phase.sigma / hbar > 0).all())


def one_variable_factor(c_over_hbar: float, hbar: float) -> float:
    """int_0^inf e^{w/hbar} w^{c/hbar} dw/w = Gamma(c/hbar) (-hbar)^{c/hbar}."""
    return math.gamma(c_over_hbar) * (-hbar) ** c_over_hbar


def q_to_zero_factorization(n: int, lam: Sequence[float], hbar: float,
                            chart: SigmaChart, q_small: float,
                            rel_tol: float = 1e-10) -> Tuple[float, float, float]:
    """Relative mismatch between the rescaled integral at small q and the
    product of one-variable Gamma factors.  Returns (mismatch, value, product)."""
    phase = phase_in_chart(chart, lam)
    if not admissible(phase, hbar):
        raise ValueError("chart is not admissible at this lambda (sigma/hbar <= 0)")
    task = IntegralTask(n=n, lam=lam, hbar=hbar, chart=chart,
                        q=(q_small,) * n, include_prefactor=False, rel_tol=rel_tol)
    value = evaluate(task).value
    product = 1.0
    for s in phase.sigma:
        product *= one_variable_factor(s / hbar, hbar)
    return abs(value - product) / abs(product), value, product


# ---------------------------------------------------------------------------
# The projective-line worked example.
# ---------------------------------------------------------------------------

@dataclass
class Cp1Report:
    derivative_match: float   # max |d/dt (u_sigma - closed form)|
    momentum_match: float     # max |du/dt - p|


def _closed_form_derivative(lam0: float, p: float, q: float) -> complex:
    """d/dt of 2p + lam0 ln(lam1 + p) + lam1 ln(lam0 + p) with lam1 = -lam0,
    t = ln q and dp/dt = q/(2p), by the chain rule."""
    lam1 = -lam0
    return (2.0 + lam0 / complex(lam1 + p) + lam1 / complex(lam0 + p)) * q / (2.0 * p)


def cp1_example_check(lam0: float, q_grid: Sequence[float]) -> Cp1Report:
    """Critical values of the n = 1 phase against the closed form.

    With p = +/- sqrt(lam0^2 + q) the closed form 2p + lam0 ln(lam1 + p)
    + lam1 ln(lam0 + p) matches u_sigma up to a q-independent constant, and
    du/dt = p (t = ln q).  By the envelope identity du_sigma/dt is dF/dt at
    the critical point, sum_m B_m e_m + rho, so no difference quotient is
    taken.
    """
    if lam0 == 0:
        raise ValueError("lam0 must be nonzero")
    lam = (lam0, -lam0)

    derivative_match = 0.0
    momentum_match = 0.0
    # both charts of each fiber in one batch; assign each chart the momentum
    # branch that matches its du/dt
    for q in q_grid:
        lnq = np.array([math.log(q)])
        root = math.sqrt(lam0 ** 2 + q)
        for rec in crit.all_critical_points(1, lam, (q,)):
            phase = phase_in_chart(rec.chart, lam)
            du = complex((phase.B.T @ phase.exponentials(rec.s, lnq) + phase.rho)[0])
            p = min((root, -root), key=lambda v: abs(du - v))
            momentum_match = max(momentum_match, abs(du - p))
            derivative_match = max(derivative_match,
                                   abs(du - _closed_form_derivative(lam0, p, q)))
    return Cp1Report(derivative_match=derivative_match, momentum_match=momentum_match)
