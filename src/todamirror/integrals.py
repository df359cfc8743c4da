"""Numerical evaluation of the mirror oscillatory integrals and the
eigenvalue-equation residuals.

The contour is the positive real subtorus in chart coordinates; after the
substitution w = e^s each axis becomes the whole real line and the integrand
e^{f/hbar} (hbar < 0) is a positive, log-concave bump: f is convex in s, so
there is a unique real peak and trapezoid sums on nested grids converge
geometrically.  Everything is deterministic; no Monte Carlo anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .exact import LaurentPolynomial, elementary_symmetric_sigma
# make_chart is looked up here by bench/tracing.py, which wraps it per module
from .mirror import ChartPhase, SigmaChart, make_chart, phase_in_chart
from . import operators as ops


class QuadratureError(RuntimeError):
    """Non-convergence or integrand divergence at a boundary face."""


# Relative tolerance of the doubling test: the bare integral, and the eigen
# moment sums, whose residuals are cancellations between sums of size |I|.
_REL_TOL = 1e-10
_EIGEN_REL_TOL = 1e-11
# Most doubling levels (17 to 2^15 + 1 nodes per axis).  At d = 1 the level
# budget alone would allow 2^28-node axes, and the kernel holds K x (nodes
# per axis) moment vectors.
_MAX_DOUBLINGS = 12
# Nodes per slab of the trapezoid kernel (whole axis-0 rows, at least one):
# the per-slab temporaries stay cache-sized.
_SLAB_NODES = 1 << 16
# Largest n the tensor trapezoid reaches: n = 3 has 6 axes.
MAX_N = 2
# Most nodes one doubling level may evaluate, which bounds the time a level
# that does not converge can take.  At about 1.3e8 nodes/s (n = 2 with the 15
# eigen moments, one core of a 2-vCPU Xeon VM) a 513^3 level takes about 1 s;
# 1025^3 (about 8 s) is refused.
_LEVEL_NODES = 1 << 28
# Floor of the integrand's exponent (f - f_ref)/hbar before its exp: numpy's
# exp is several times slower below about -708, and over a hundred times
# slower where its result is subnormal.
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class IntegralTask:
    """One integral of e^{f/hbar} over the positive contour of a chart, the
    only input of evaluate and eigen_residual.  It is checked whole when it
    is made, so a bad input never reaches a node."""
    n: int
    lam: Tuple[float, ...]
    hbar: float
    chart: SigmaChart
    q: Tuple[float, ...]

    def __post_init__(self):
        if self.n > MAX_N:
            raise ValueError(f"iterated quadrature is desk scale; n <= {MAX_N}")
        lam, q = tuple(float(x) for x in self.lam), tuple(float(x) for x in self.q)
        if len(lam) != self.n + 1 or len(q) != self.n:
            raise ValueError(f"n = {self.n} needs {self.n + 1} lambda and {self.n} q entries")
        if abs(sum(lam)) > 1e-9:
            raise ValueError("lambda must sum to zero")
        if not self.hbar < 0:
            raise ValueError("hbar must be negative")
        if not all(x > 0 for x in q):
            raise ValueError("q must be positive")
        if self.chart.n != self.n:
            raise ValueError(f"the chart is for n = {self.chart.n}, not {self.n}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "q", q)


@dataclass
class QuadratureResult:
    """A converged doubling level: the integral of e^{f/hbar}, its last
    doubling difference relative to it, the nodes evaluated, the nodes per
    axis and the levels built, and each moment row's trapezoid sum (row 0
    the integrand) in units of e^{f_ref/hbar}, so value = e^{f_ref/hbar}
    sums[0] cell."""
    value: float
    error: float
    evaluations: int
    nodes_per_axis: int
    levels: int
    sums: np.ndarray
    cell: float
    f_ref: float


def _real_peak(phase: ChartPhase, lnq: np.ndarray) -> np.ndarray:
    """Unique real minimum of the convex phase f(s)."""
    s = np.zeros(phase.dim)
    for _ in range(200):
        g = phase.gradient(s, lnq)
        if np.max(np.abs(g)) < 1e-12:
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
            # descent stalled at float resolution: a small gradient centres the box well enough
            if np.max(np.abs(g)) < 1e-6:
                return s
            raise QuadratureError("peak line search stalled (no interior minimum?)")
    raise QuadratureError("peak search did not converge")


def _sublevel_box(phase: ChartPhase, lnq: np.ndarray, s_star: np.ndarray,
                  f_star: float, T: float) -> Tuple[np.ndarray, np.ndarray]:
    """lo, hi >= 0 such that [s* - lo, s* + hi] is the bounding box of the
    convex set {f - f* <= T}.

    Its face along +/-e_k touches the set where grad f = +/-mu e_k and
    ln((f - f*)/T) = 0.  One batched Newton in (s, mu) starts from the
    extremes s* +/- mu_k H^-1 e_k of the quadratic model at s* and halves each
    step until 0 < f - f* <= 2T at its end.  Where the set is unbounded Newton
    fails, and the error names the face (the flattest axis if H is singular).

    The box serves eigen_residual's moment rows, weighted by e^{a.(s - s*)}:
    (f - f*)/|hbar| reaches T/|hbar| = 50.66 on the set's boundary and grows at
    least linearly beyond it (f is convex), while a.(s - s*) <= 32.8-34.7 at
    the box corners of the six n = 2 benchmark anchors.  Widening T by
    35 |hbar| moves no anchor residual beyond rounding (<= 4.3e-15).
    """
    d = phase.dim
    normals = np.vstack([np.eye(d), -np.eye(d)])      # face j's outward normal

    def at(s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:   # exponentials, f - f* per row
        e = np.exp(np.minimum(s @ phase.A.T + phase.B @ lnq, 700.0))    # over 700 is far out
        return e, e.sum(axis=1) + s @ phase.sigma - f_star

    H = phase.hessian(s_star, lnq)
    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        raise QuadratureError(f"integrand fails to decay at boundary face "
                              f"(axis {np.argmin(np.diag(H))}): singular Hessian at the peak") from None
    mu = np.tile(np.sqrt(2 * T / np.diag(cov)), 2)
    x = np.column_stack([np.tile(s_star, (2 * d, 1)), np.zeros(2 * d)])
    step = np.column_stack([mu[:, None] * (normals @ cov), mu])
    for _ in range(100):
        for _ in range(64):
            e, excess = at(x[:, :d] + step[:, :d])
            far = ~((excess > 0) & (excess <= 2 * T))
            if not far.any():
                break
            step[far] /= 2
        x = x + step
        s, nu = x[:, :d], x[:, d]
        grad = e @ phase.A + phase.sigma
        r = np.column_stack([grad - nu[:, None] * normals, np.log(excess / T)])
        ok = (np.abs(r[:, :d]).max(axis=1) <= 1e-12 * (1 + nu)) & (np.abs(r[:, d]) <= 1e-12) & (nu > 0)
        if ok.all():
            return s_star - s[d:].diagonal(), s[:d].diagonal() - s_star
        jac = np.zeros((2 * d, d + 1, d + 1))
        jac[:, :d, :d] = (phase.A.T * e[:, None, :]) @ phase.A
        jac[:, :d, d] = -normals
        jac[:, d, :d] = grad / excess[:, None]
        try:
            step = np.linalg.solve(jac, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
    j = int(np.argmin(ok))
    raise QuadratureError(f"integrand fails to decay at boundary face (axis {j % d} {'+-'[j // d]})")


def _trapezoid_sums(phase: ChartPhase, lnq: np.ndarray, axes: Sequence[np.ndarray],
                    halved: Sequence[bool], exps: np.ndarray, f_ref: float,
                    hbar: float) -> np.ndarray:
    """For each row a of exps (K x d), the sum over the tensor grid of axes of
    exp((f - f_ref)/hbar) prod_k t_k exp(a_k s_k); t_k is 1/2 at the two end
    nodes of a halved axis and 1 elsewhere.

    Every term of (f - f_ref)/hbar that depends on one axis only is summed
    once per call into that axis's line: l_k = (sum of the monomials e_m with
    support {k} + sigma_k s_k, less f_ref on axis 0) / hbar.  A node's exponent
    is the sum of its lines less exp(b_m - ln|hbar| + A_m . s) = e_m/|hbar| for
    each monomial on two or more axes (one of six at n = 2, none at n = 1).
    The exponent is floored at _EXP_FLOOR before its exp, which keeps numpy's
    exp off its slow and subnormal paths: the box is cut where the integrand
    falls to e^-50.7, so a node below e^-700, some 280 decades further down,
    adds nothing any sum can see.  One reusable slab of whole axis-0 rows is
    filled at a time and contracted at once with the vectors t_k exp(a_k s_k),
    last axis first: nothing of grid size exists.
    """
    d = len(axes)
    vecs = [np.exp(np.outer(exps[:, k], ax)) for k, ax in enumerate(axes)]
    for v, half in zip(vecs, halved):
        if half:
            v[:, [0, -1]] *= 0.5

    def along(k: int, v: np.ndarray) -> np.ndarray:
        return v.reshape((1,) * k + (-1,) + (1,) * (d - 1 - k))

    def plane(head, parts: Sequence[np.ndarray]):
        # head + sum_k parts[k](s_k) over the axes after axis 0, summed once
        # per call: a slab then adds its axis-0 part over contiguous planes
        for k in range(1, d):
            head = head + along(k, parts[k])
        return head

    lines = [np.zeros(len(ax)) for ax in axes]
    multi = []      # (axis-0 part, plane) of b_m - ln|hbar| + A_m . s, per multi-axis monomial
    for a, b in zip(phase.A, phase.B @ lnq):
        support = np.flatnonzero(a)
        if len(support) > 1:
            multi.append((a[0] * axes[0],
                          plane(b - math.log(-hbar), [a[k] * ax for k, ax in enumerate(axes)])))
        else:
            k = support[0] if len(support) else 0
            lines[k] += np.exp(b + a[k] * axes[k])
    lines = [line + phase.sigma[k] * ax for k, (line, ax) in enumerate(zip(lines, axes))]
    lines[0] -= f_ref
    lines = [line / hbar for line in lines]
    line_plane = plane(0.0, lines)
    inner = tuple(len(ax) for ax in axes[1:])
    step = max(1, _SLAB_NODES // math.prod(inner))
    buf = np.empty((step,) + inner)
    term_buf = np.empty_like(buf) if multi else None
    total = np.zeros(len(exps))
    for r0 in range(0, len(axes[0]), step):
        rows = slice(r0, r0 + step)
        size = len(lines[0][rows])
        slab = np.add(along(0, lines[0][rows]), line_plane, out=buf[:size])
        for axis0, m_plane in multi:
            term = np.add(along(0, axis0[rows]), m_plane, out=term_buf[:size])
            slab -= np.exp(term, out=term)
        np.maximum(slab, _EXP_FLOOR, out=slab)
        np.exp(slab, out=slab)
        slab_vecs = [vecs[0][:, rows]] + vecs[1:]
        out = slab @ slab_vecs[-1].T
        for v in reversed(slab_vecs[:-1]):
            out = np.einsum("...jK,Kj->...K", out, v)
        total += out
    return total


def _new_nodes(axes: Sequence[np.ndarray]):
    """The 2^d - 1 parity sublattices holding a doubled grid's new nodes, with
    the halved flags of their axes (end nodes lie only on even sub-axes)."""
    for parity in itertools.product((0, 1), repeat=len(axes)):
        if any(parity):
            yield [ax[p::2] for ax, p in zip(axes, parity)], [p == 0 for p in parity]


def _converged_sums(phase: ChartPhase, lnq: np.ndarray, hbar: float, rel_tol: float,
                    exps: np.ndarray) -> QuadratureResult:
    """Double the nodes per axis from 17 until two trapezoid integrals agree
    to rel_tol (row 0 of exps must be zero: its sum is the integral).  A level
    keeps the nodes and trapezoid weights of the one before and adds only its
    new nodes, so each node is evaluated once; a level over the node budget
    is refused before any of it is evaluated."""
    s_star = _real_peak(phase, lnq)
    f_star = float(phase.value(s_star, lnq))
    # e^{(f - f*)/hbar} <= 1e-22 outside the box
    lo, hi = _sublevel_box(phase, lnq, s_star, f_star, abs(hbar) * math.log(1e22))
    d = phase.dim
    nodes, prev, sums = 17, None, np.zeros(len(exps))
    for level in range(1, _MAX_DOUBLINGS + 1):
        if nodes ** d > _LEVEL_NODES:
            raise QuadratureError(f"{nodes}^{d} nodes exceed the {_LEVEL_NODES}-node level budget")
        axes = [np.linspace(s_star[k] - lo[k], s_star[k] + hi[k], nodes) for k in range(d)]
        for sub, halved in _new_nodes(axes) if level > 1 else [(axes, [True] * d)]:
            sums += _trapezoid_sums(phase, lnq, sub, halved, exps, f_star, hbar)
        cell = math.prod(((lo + hi) / (nodes - 1)).tolist())
        raw = float(sums[0]) * cell
        if prev is not None:
            err = abs(raw - prev)
            if err <= rel_tol * abs(raw):
                return QuadratureResult(
                    value=math.exp(f_star / hbar) * raw, error=err / abs(raw),
                    evaluations=nodes ** d, nodes_per_axis=nodes, levels=level,
                    sums=sums, cell=cell, f_ref=f_star)
        prev = raw
        nodes = 2 * (nodes - 1) + 1
    raise QuadratureError(f"quadrature did not converge within {_MAX_DOUBLINGS} doublings")


def evaluate(task: IntegralTask) -> QuadratureResult:
    """The chart integral of e^{f/hbar} over the positive subtorus, without
    the prefactor prod q_i^{rho_{1,i-1}/hbar} of the Whittaker function
    (eigen_residual's base_value carries it)."""
    phase = phase_in_chart(task.chart, task.lam)
    return _converged_sums(phase, np.log(np.array(task.q)), task.hbar, _REL_TOL,
                           np.zeros((1, phase.dim)))


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
    residuals: List[float]
    base_value: float
    evaluations: int
    nodes_per_axis: int
    levels: int      # trapezoid grids built by the doubling loop
    error: float     # its last doubling difference, relative to the base integral


def eigen_residual(task: IntegralTask) -> EigenReport:
    """Relative residuals |D_i I - sigma_i I| / |I| of the task's integral.

    Each D_i - sigma_i acts on e^{F/hbar} as multiplication by an exact
    amplitude (differentiation under the integral sign), so every residual
    combines moment sums streamed with the base integral by one doubling loop.
    """
    phase = phase_in_chart(task.chart, task.lam)
    x = np.log(np.array(task.q))
    amplitudes = [_operator_amplitude(poly, phase, x, task.hbar)
                  for poly in ops.toda_polynomials(task.n)]
    zero = (0,) * len(phase.B)
    keys = [zero] + sorted(set().union(*amplitudes) - {zero})
    # e^k is separable in s: its s-part is a moment exponent, its x-part a constant
    kas = np.array(keys, dtype=float)
    conv = _converged_sums(phase, x, task.hbar, _EIGEN_REL_TOL, kas @ phase.A)
    moments = {k: float(total) * math.exp(float(ka @ phase.B @ x))
               for k, ka, total in zip(keys, kas, conv.sums)}
    base = moments[zero]
    # fsum: a residual is rounding in a cancellation, so it must not depend
    # on the order of the amplitude's terms
    residuals = [abs(math.fsum([*(c * moments[k] for k, c in amp.items()), -sigma * base]))
                 / abs(base)
                 for amp, sigma in zip(amplitudes, elementary_symmetric_sigma(task.lam))]
    base_value = math.exp((conv.f_ref + float(phase.rho @ x)) / task.hbar) * base * conv.cell
    return EigenReport(n=task.n, residuals=residuals, base_value=base_value,
                       evaluations=conv.evaluations, nodes_per_axis=conv.nodes_per_axis,
                       levels=conv.levels, error=conv.error)


# ---------------------------------------------------------------------------
# Bessel oracle and the n = 1 closed form.
# ---------------------------------------------------------------------------

def bessel_k_cosh(nu: float, z: float) -> float:
    """K_nu(z) = int_0^inf e^{-z cosh t} cosh(nu t) dt by doubling trapezoid,
    to 1e-13 relative."""
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

    m, prev = 65, None
    for _ in range(22):
        vals = g(np.linspace(0.0, upper, m))
        vals[[0, -1]] *= 0.5
        cur = float(vals.sum()) * (upper / (m - 1))
        if not math.isfinite(cur):  # doubling keeps every node, so it never recovers
            raise QuadratureError(f"Bessel integrand overflows at nu = {nu:g}, z = {z:g}")
        if prev is not None and abs(cur - prev) <= 1e-13 * abs(cur):
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
                            chart: SigmaChart, q_small: float) -> Tuple[float, float, float]:
    """Relative mismatch between the rescaled integral at small q and the
    product of one-variable Gamma factors.  Returns (mismatch, value, product)."""
    task = IntegralTask(n=n, lam=lam, hbar=hbar, chart=chart, q=(q_small,) * n)
    phase = phase_in_chart(chart, task.lam)
    if not admissible(phase, hbar):
        raise ValueError("chart is not admissible at this lambda (sigma/hbar <= 0)")
    value = evaluate(task).value
    product = math.prod(one_variable_factor(s / hbar, hbar) for s in phase.sigma)
    return abs(value - product) / abs(product), value, product

