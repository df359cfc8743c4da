"""Critical points of the phase function.

Each chart contributes exactly one critical point, found by Newton
continuation along one fixed path tau(theta) * q from the explicit tau = 0
limit w_ij = -sigma(i, j); the charts of a fiber are tracked together, one
lane of a lockstep batch each.  Continuation along a path that avoids the
branch points is a bijection on sheets, so two charts landing on one point
means the tracker jumped sheets: that, like a lane that does not arrive, is
an error naming the charts, never a cue to re-run them on another path.

Records carry the Hessian in log coordinates s = ln w (the volume form is
translation-invariant in s, so it is the one entering stationary-phase
prefactors and the nondegeneracy flag), the critical value, and all edge
values for chart-independent comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact import LaurentPolynomial
from .mirror import (
    ChartFailure,
    DegenerateParameterError,
    Edge,
    MirrorGraph,
    SigmaChart,
    all_k_sequences,
    make_chart,
    phase_in_chart,
)
from . import operators as ops


class ContinuationError(ChartFailure, RuntimeError):
    """Newton continuation failed (divergence or a caustic on the path)."""


class CriticalPointError(ChartFailure, RuntimeError):
    """The critical-point set is defective: a chart did not arrive, or two
    charts landed on one point."""


# Height of the lifted ray tau(theta) = theta + i*PATH_LIFT*sin(pi*theta).
# The plain real ray can hit a fold, a real zero of det Hessian where two
# real critical points collide and Newton tracking silently hops sheets; the
# complex lift misses folds generically and lands on the same real endpoint.
PATH_LIFT = 0.12

# Step control.  A path step is rejected (and halved) when the solution moves
# by more than JUMP_BOUND in sup-norm of s, or when the log-Hessian
# determinant changes by more than a factor e^DET_JUMP_BOUND.  A looser jump
# bound lets a lane cross onto a neighbouring sheet.
JUMP_BOUND = 0.5
DET_JUMP_BOUND = 1.5
# The first path step, as a fraction of the path.
FIRST_STEP = 1.0 / 8
# Newton converges when |grad f|_inf is at most max(NEWTON_TOL, FLOOR_FACTOR *
# eps * the largest sum of absolute gradient terms) at the accepted point: the
# second term is the rounding floor of the gradient sum, which exceeds
# NEWTON_TOL when some |w| is in the thousands.
NEWTON_TOL = 1e-12
FLOOR_FACTOR = 512

# Two records closer than this (sup-distance of all edge values) are one point.
COLLISION_DISTANCE = 1e-6


@dataclass
class LagrangianPoint:
    p: List[complex]
    q: List[complex]
    residuals: List[float] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


@dataclass
class CriticalPointRecord:
    chart: SigmaChart
    lam: Tuple[float, ...]
    q: Tuple[float, ...]
    s: np.ndarray                      # log coordinates of the solution
    coordinates: np.ndarray            # chart coordinates w = exp(s)
    u_sigma: complex                   # critical value of f_q (rho ln q included)
    gradient_norm: float
    log_hessian: np.ndarray            # s-coordinate Hessian
    log_hessian_det: complex
    sqrt_log_hessian_det: complex      # branch continued from q -> 0
    nondegenerate: bool
    edge_values: Dict[str, complex]

    def report(self) -> dict:
        return {
            "k_sequence": list(self.chart.kseq),
            "permutation": list(self.chart.permutation),
            "coordinates": [[z.real, z.imag] for z in self.coordinates.tolist()],
            "u_sigma": [self.u_sigma.real, self.u_sigma.imag],
            "log_hessian_det": [self.log_hessian_det.real, self.log_hessian_det.imag],
            "gradient_norm": self.gradient_norm,
            "nondegenerate": self.nondegenerate,
        }


def _check_lambda(lam: Sequence[float], n: int) -> Tuple[float, ...]:
    lam = tuple(float(x) for x in lam)
    if len(lam) != n + 1:
        raise DegenerateParameterError(f"lambda must have length {n + 1}")
    if abs(sum(lam)) > 1e-12 * max(1.0, max(abs(x) for x in lam)):
        raise DegenerateParameterError("lambda must sum to zero")
    return lam


def _check_q(q: Sequence[float], n: int) -> Tuple[float, ...]:
    q = tuple(float(x) for x in q)
    if len(q) != n or any(x <= 0 for x in q):
        raise DegenerateParameterError("q must be a positive vector of length n")
    return q


# ---------------------------------------------------------------------------
# Lockstep continuation.  A lane is one chart's phase at one (lambda, q) on
# the path tau(theta) * q.  All lanes of a batch share the dimension d and the
# 2d monomials, so the phase data stack into (L, 2d, d) arrays.  Every tick
# evaluates gradients on every running lane, and each lane then takes the next
# move of exactly the control logic of a single track: predictor, step
# halving, det-ratio and jump rejection, damped Newton line search.  Lanes
# never wait for each other inside a Newton solve, so a batch costs about as
# many ticks as its busiest lane takes Newton steps.
# ---------------------------------------------------------------------------

# A Newton solve takes at most _NEWTON_STEPS steps; its line search tries
# t = 1, 1/2, ..., 2^-20 before it gives up.
_NEWTON_STEPS = 100
_TRIALS = 21
_STEPS = 0.5 ** np.arange(_TRIALS)


def _solve(h: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked h x = rhs; the second result flags exactly singular lanes."""
    try:
        return np.linalg.solve(h, rhs[..., None])[..., 0], np.zeros(len(h), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(rhs)
        singular = np.zeros(len(h), dtype=bool)
        for k in range(len(h)):
            try:
                x[k] = np.linalg.solve(h[k], rhs[k])
            except np.linalg.LinAlgError:
                singular[k] = True
        return x, singular


def _tau(theta: np.ndarray) -> np.ndarray:
    return theta + 1j * (PATH_LIFT * np.sin(np.pi * theta))


@dataclass
class _Endpoints:
    """Per-lane result of `_Lanes.track`: the solution, its gradient norm and
    log-Hessian, the continued log det of that Hessian, and None or the
    reason the lane failed."""

    s: np.ndarray
    gnorm: np.ndarray
    h: np.ndarray
    log_det: np.ndarray
    errors: List[Optional[str]]


class _Running:
    """State of the running lanes of one track, one row per lane; rows are
    dropped as lanes finish."""

    def __init__(self, **arrays: np.ndarray):
        self.__dict__.update(arrays)

    def keep(self, rows: np.ndarray) -> None:
        for name, value in vars(self).items():
            setattr(self, name, value[rows])


class _Lanes:
    """The phases of some charts at one (lambda, q), stacked as lanes.

    Along the path ln q becomes ln q + ln tau, which adds ln tau times the
    q-degree of each monomial to the exponents B ln q of the chart phase."""

    def __init__(self, charts: Sequence[SigmaChart], lam: Sequence[float],
                 q: Sequence[float]):
        self.charts = list(charts)
        n = self.charts[0].n
        self.lam = _check_lambda(lam, n)
        self.q = _check_q(q, n)
        self.phases = [phase_in_chart(ch, self.lam) for ch in self.charts]
        self.start = np.stack([ph.start_point() for ph in self.phases])   # (L, d)
        self.A = np.stack([ph.A for ph in self.phases])                  # (L, 2d, d)
        B = np.stack([ph.B for ph in self.phases])                       # (L, 2d, n)
        self.sigma = np.stack([ph.sigma for ph in self.phases])          # (L, d)
        self.lnq = np.log(np.array(self.q))
        self.bq = B @ self.lnq
        self.qdeg = B.sum(axis=2)

    def track(self, at: Optional[np.ndarray] = None) -> _Endpoints:
        """Track every lane along tau(theta) * q from the explicit q = 0 start
        to the target q; or, given one point per lane `at`, enter at theta = 1
        and run only the final Newton solve at the target q from those points.

        Per lane: Euler predictor, damped Newton (each step backtracking on
        the gradient norm), step halving on Newton failure
        and on a jump of det(log-Hessian) or of the solution.  The log of that
        determinant is continued along the path, so square roots stay on the
        branch that is positive at a positive q = 0 limit; a solve from `at`
        has no path, and its log det is only the log of the determinant.
        """
        start = self.start if at is None else np.asarray(at, dtype=complex)
        count, dim = self.A.shape[0], self.A.shape[2]
        ends = _Endpoints(np.zeros((count, dim), dtype=complex), np.full(count, np.inf),
                          np.zeros((count, dim, dim), dtype=complex),
                          np.zeros(count, dtype=complex), [None] * count)
        A = self.A.astype(complex)
        det0 = np.linalg.det(np.stack([np.diag(-x.astype(complex)) for x in self.sigma]))
        run = _Running(
            lane=np.arange(count), A=A, At=np.ascontiguousarray(A.transpose(0, 2, 1)),
            absA=np.abs(self.A), abs_sigma=np.abs(self.sigma),
            bq=self.bq, qdeg=self.qdeg, sigma=self.sigma,
            # path: accepted point, its theta, next step, det tracking, predictor
            path=start, theta=np.full(count, float(at is not None)),
            step=np.full(count, FIRST_STEP),
            prev_det=det0, log_det=np.log(det0), final=np.zeros(count, dtype=bool),
            pred=np.zeros((count, dim), dtype=complex), pred_norm=np.full(count, np.inf),
            # Newton solve at theta_next: start point y, iterate s, direction
            # dirn, the next line-search step t and the tolerance at s
            th_next=np.zeros(count), c=np.zeros(self.bq.shape, dtype=complex),
            y=start.copy(), s=start.copy(), gnorm=np.full(count, np.inf),
            dirn=np.zeros((count, dim), dtype=complex), t=np.ones(count),
            tol=np.full(count, NEWTON_TOL),
            it=np.zeros(count, dtype=int), fresh=np.zeros(count, dtype=bool))
        if at is None:
            self._attempt(run, np.ones(count, dtype=bool))
        else:
            self._polish(run, np.ones(count, dtype=bool))
        with np.errstate(all="ignore"):
            while run.lane.size:
                finished = self._tick(run, ends)
                if finished is not None and finished.any():
                    run.keep(~finished)
        return ends

    @staticmethod
    def _attempt(run: _Running, rows: np.ndarray) -> None:
        """Start a Newton solve at theta + step from the predicted point."""
        theta = run.theta[rows]
        th_next = np.minimum(1.0, theta + run.step[rows])
        dtheta = th_next - theta
        use = run.pred_norm[rows] * dtheta <= 1.0
        path = run.path[rows]
        run.y[rows] = np.where(use[:, None], path + dtheta[:, None] * run.pred[rows], path)
        run.th_next[rows] = th_next
        run.c[rows] = run.bq[rows] + np.log(_tau(th_next))[:, None] * run.qdeg[rows]
        run.fresh[rows] = True
        run.it[rows] = -1   # taking the start point counts as step 0

    @staticmethod
    def _polish(run: _Running, rows: np.ndarray) -> None:
        """Start the final Newton solve at the target q itself, from the
        lane's path point."""
        run.final[rows] = True
        run.c[rows] = run.bq[rows]
        run.y[rows] = run.path[rows]
        run.fresh[rows] = True
        run.it[rows] = -1

    def _tick(self, run: _Running, ends: _Endpoints) -> Optional[np.ndarray]:
        """One round of gradient evaluations on every running lane and the
        move that follows; returns the rows whose lanes finished, or None.

        A fresh Newton start evaluates its start point.  A lane in a line
        search evaluates a window of its next trial steps t, t/2, t/4, ... at
        once and moves to the first one that lowers the gradient norm: the
        point a one-by-one backtracking search would accept.  The Newton
        tolerance is the one taken at the lane's last accepted point."""
        count = run.lane.size
        width = min(_TRIALS, max(4, 64 // count))
        fresh = run.fresh
        any_fresh = fresh.any()
        t = run.t[:, None] * _STEPS[:width]
        trial = run.dirn[:, None, :] * t[:, :, None]
        trial += run.s[:, None, :]
        if any_fresh:
            trial[fresh, 0] = run.y[fresh]
        z = np.matmul(trial, run.At)
        z += run.c[:, None, :]
        vals = np.exp(z, out=z)
        g = np.matmul(vals, run.A)
        g += run.sigma[:, None, :]
        norm = np.abs(g).max(axis=2)
        # NaN compares false, so a non-finite trial point is never taken
        ok = norm < run.gnorm[:, None]
        ok |= norm <= run.tol[:, None]
        ok &= t >= _STEPS[-1]
        if any_fresh:
            ok[fresh] = _STEPS[:width] == 1.0
        rows = np.arange(count)
        pick = ok.argmax(axis=1)
        acc = ok[rows, pick]
        vals, g, norm = vals[rows, pick], g[rows, pick], norm[rows, pick]
        np.copyto(run.s, trial[rows, pick], where=acc[:, None])
        np.copyto(run.gnorm, norm, where=acc)
        terms = np.matmul(np.abs(vals)[:, None, :], run.absA)[:, 0] + run.abs_sigma
        floor = FLOOR_FACTOR * np.finfo(float).eps * terms.max(axis=1)
        np.copyto(run.tol, np.maximum(NEWTON_TOL, floor), where=acc)
        run.it += acc
        if any_fresh:
            run.fresh = np.zeros(count, dtype=bool)
        # no step in the window lowered the norm: move the window on
        miss = ~acc
        np.multiply(run.t, 0.5 ** width, out=run.t, where=miss)
        stalled = miss & (run.t < _STEPS[-1])
        bad = (run.it >= _NEWTON_STEPS) | (acc & ~np.isfinite(norm))
        conv = acc & (norm <= run.tol) & ~bad
        more = acc & ~conv & ~bad

        # one stacked solve: next Newton directions, and the Euler predictor
        # ds/dtheta = -H^{-1} d(grad f)/dtheta at every converged path point
        h = np.matmul(run.At * vals[:, None, :], run.A)
        newton = more.nonzero()[0]
        conv_path = (conv & ~run.final).nonzero()[0]
        singular = None
        if conv_path.size:
            theta = run.th_next[conv_path]
            dtau = 1.0 + 1j * PATH_LIFT * np.pi * np.cos(np.pi * theta)
            dg = np.matmul((vals[conv_path] * run.qdeg[conv_path])[:, None, :],
                           run.A[conv_path])[:, 0] * (dtau / _tau(theta))[:, None]
            x, sing = _solve(h[np.concatenate((newton, conv_path))],
                             -np.concatenate((g[newton], dg)))
            dirn, ds, singular = x[:newton.size], x[newton.size:], sing[:newton.size]
            ds_ok = ~sing[newton.size:] & np.isfinite(ds).all(axis=1)
        elif newton.size:
            dirn, singular = _solve(h[newton], -g[newton])
        if newton.size:
            size = np.abs(dirn).max(axis=1)
            run.dirn[newton] = dirn * np.where(size > 0.5, 0.5 / size, 1.0)[:, None]
            run.t[newton] = 1.0
            if singular.any():
                bad[newton[singular]] = True

        if not (conv.any() or bad.any() or stalled.any()):
            return None
        finished = np.zeros(count, dtype=bool)
        restart = np.zeros(count, dtype=bool)

        # Newton failures: halve the path step, or give up at the target
        for r in (bad | stalled).nonzero()[0]:
            kseq = self.charts[run.lane[r]].kseq
            if run.final[r]:
                if stalled[r]:
                    why = "Newton line search failed"
                elif not np.isfinite(norm[r]):
                    why = "Newton iterate escaped to non-finite values"
                elif run.it[r] >= _NEWTON_STEPS:
                    why = f"Newton did not reach tol={run.tol[r]:.1e}"
                else:
                    why = "singular Hessian on the path"
                ends.errors[run.lane[r]] = f"{why} at the target q for chart {kseq}"
                finished[r] = True
                continue
            run.step[r] /= 2
            if run.step[r] < 1e-13:
                ends.errors[run.lane[r]] = (f"step halving exhausted at theta={run.theta[r]} "
                                            f"for chart {kseq}")
                finished[r] = True
            else:
                restart[r] = True

        # converged at the target q: the lane is done
        done = (conv & run.final).nonzero()[0]
        if done.size:
            lane = run.lane[done]
            ends.s[lane], ends.gnorm[lane], ends.h[lane] = run.s[done], run.gnorm[done], h[done]
            ends.log_det[lane] = run.log_det[done] + np.log(np.linalg.det(h[done])
                                                            / run.prev_det[done])
            finished[done] = True

        if conv_path.size:
            # converged on the path: accept theta_next unless det(H) or s jumped
            rows = conv_path
            det = np.linalg.det(h[rows])
            for r, at in zip(rows[det == 0], run.th_next[rows[det == 0]]):
                kseq = self.charts[run.lane[r]].kseq
                ends.errors[run.lane[r]] = (f"Hessian singular at theta={at} (caustic) "
                                            f"for chart {kseq}")
                finished[r] = True
            ratio = det / run.prev_det[rows]
            jump = np.abs(run.s[rows] - run.path[rows]).max(axis=1)
            reject = ((np.abs(np.log(ratio)) > DET_JUMP_BOUND) | (jump > JUMP_BOUND))
            reject &= run.step[rows] > 1e-11
            reject &= det != 0
            run.step[rows[reject]] /= 2
            restart[rows[reject]] = True
            take = ~reject & (det != 0)
            rows, ds, ds_ok = rows[take], ds[take], ds_ok[take]
            run.log_det[rows] += np.log(ratio[take])
            run.prev_det[rows] = det[take]
            run.path[rows] = run.s[rows]
            run.theta[rows] = run.th_next[rows]
            inner = run.theta[rows] < 1.0
            grow = rows[inner]
            run.step[grow] = np.minimum(run.step[grow] * 1.5, 1.0 - run.theta[grow])
            run.pred[grow] = np.where(ds_ok[inner, None], ds[inner], 0.0)
            run.pred_norm[grow] = np.where(ds_ok[inner], np.abs(ds[inner]).max(axis=1), np.inf)
            restart[grow] = True
            # theta = 1: polish at the target q itself, from the point reached
            self._polish(run, rows[~inner])
        if restart.any():
            self._attempt(run, restart)
        return finished

    def critical_values(self, s: np.ndarray) -> np.ndarray:
        """u_sigma = f(s) + rho . ln q per lane."""
        return np.array([ph.value(x, self.lnq) + ph.rho @ self.lnq
                         for ph, x in zip(self.phases, s)])

    def records(self, ends: _Endpoints) -> List[CriticalPointRecord]:
        """The record of every lane; call it once every lane has arrived."""
        s, h_s, dim = ends.s, ends.h, ends.s.shape[1]
        vals = np.array([ph.exponentials(x, self.lnq) for ph, x in zip(self.phases, s)])
        w = vals[:, :dim]  # the first d monomials are the chart variables
        det_s = np.linalg.det(h_s)
        u = self.critical_values(s)
        # Nondegeneracy on the row-scaled log-Hessian.  The log coordinates
        # are the translation-invariant ones (the volume form is flat there),
        # so this measure is blind to the spread of the w values themselves;
        # a chart with one tiny w would otherwise fail the threshold with a
        # perfectly regular critical point.
        scale = np.max(np.abs(h_s), axis=2)
        scale[scale == 0] = 1.0
        det_scaled = np.linalg.det(h_s / scale[:, :, None])
        out = []
        for k, chart in enumerate(self.charts):
            names = list(chart.row_of)  # the rows of A, in order
            out.append(CriticalPointRecord(
                chart=chart, lam=self.lam, q=self.q,
                s=s[k], coordinates=w[k], u_sigma=complex(u[k]),
                gradient_norm=float(ends.gnorm[k]),
                log_hessian=h_s[k], log_hessian_det=complex(det_s[k]),
                sqrt_log_hessian_det=complex(np.exp(ends.log_det[k] / 2)),
                nondegenerate=bool(abs(det_scaled[k]) > 1e-8),
                edge_values={nm: complex(v) for nm, v in zip(names, vals[k])},
            ))
        return out


def continue_to(chart: SigmaChart, lam: Sequence[float],
                q_target: Sequence[float]) -> CriticalPointRecord:
    """Track one chart's critical point from q = 0 to q_target, as a batch of
    one lane on the path of `all_critical_points`.

    The square root of the log-Hessian determinant is continued along the
    same path, with the positive root at the real q = 0 limit when that
    determinant is positive and the principal root otherwise.
    """
    lanes = _Lanes([chart], lam, q_target)
    ends = lanes.track()
    if ends.errors[0] is not None:
        raise ContinuationError(f"continuation failed for chart {chart.kseq}: "
                                f"{ends.errors[0]}", chart.kseq)
    return lanes.records(ends)[0]


def _sup_distances(records: Sequence[CriticalPointRecord]) -> np.ndarray:
    """Sup-distance of every pair a < b of records over all edge values, as a
    C x C matrix with inf on and below the diagonal."""
    names = sorted(records[0].edge_values)
    edges = np.array([[r.edge_values[nm] for nm in names] for r in records])
    count = len(edges)
    dist = np.full((count, count), np.inf)
    # row blocks keep the broadcast near 2^20 entries: one block up to n = 4
    rows = max(1, (1 << 20) // max(1, edges.size))
    for a in range(0, count, rows):
        dist[a:a + rows] = np.abs(edges[a:a + rows, None, :] - edges[None, :, :]).max(axis=2)
    dist[np.tril_indices(count)] = np.inf
    return dist


def all_critical_points(n: int, lam: Sequence[float],
                        q: Sequence[float]) -> List[CriticalPointRecord]:
    """One record per chart, in k-sequence order.

    All charts are tracked as one batch on one path.  A lane that does not
    arrive, or two records that are one point of the mirror torus (a sheet
    jump: continuation off the branch points is a bijection on sheets),
    raises CriticalPointError naming the charts.
    """
    return _distinct_critical_points(n, lam, q)[0]


def _distinct_critical_points(n: int, lam: Sequence[float], q: Sequence[float]
                              ) -> Tuple[List[CriticalPointRecord], float]:
    """`all_critical_points` with the least sup-distance of its records,
    which the collision check has already computed."""
    graph = MirrorGraph(n)
    kseqs = all_k_sequences(n)
    lanes = _Lanes([make_chart(graph, k) for k in kseqs], lam, q)
    ends = lanes.track()
    failed = [k for k, error in enumerate(ends.errors) if error is not None]
    if failed:
        raise CriticalPointError(
            f"continuation failed for chart(s) {[kseqs[k] for k in failed]}: "
            f"{ends.errors[failed[0]]}", kseqs[failed[0]])
    records = lanes.records(ends)
    dist = _sup_distances(records)
    close = np.argwhere(dist < COLLISION_DISTANCE)
    if close.size:
        pairs = ", ".join(f"{kseqs[a]} and {kseqs[b]}" for a, b in close.tolist())
        raise CriticalPointError(f"charts land on one point (a sheet jump): {pairs}",
                                 kseqs[close[0][0]])
    return records, float(np.min(dist, initial=math.inf))


@dataclass
class CensusResult:
    """The records of a fiber, which `all_critical_points` has already
    checked to be (n+1)! distinct points, with their Lagrangian images."""
    records: List[CriticalPointRecord]
    points: List[LagrangianPoint]      # to_lagrangian of each record
    min_pairwise_distance: float
    max_spectral_residual: float


def census(n: int, lam: Sequence[float], q: Sequence[float]) -> CensusResult:
    """Every record of the fiber with its point on the Lagrangian variety.

    The spectral identity and the Toda relations are one identity, read in
    edge and in (p, q) coordinates, so one maximum over those points is the
    residual of both."""
    records, min_distance = _distinct_critical_points(n, lam, q)
    points = [to_lagrangian(r) for r in records]
    return CensusResult(
        records=records,
        points=points,
        min_pairwise_distance=min_distance,
        max_spectral_residual=max(pt.max_residual for pt in points),
    )


# ---------------------------------------------------------------------------
# Spectral identity and the map to the Lagrangian variety.
# ---------------------------------------------------------------------------

def _a_matrix(n: int, k: int, sub: Callable[[str], ops.T],
              const: Callable[[int], ops.T] = LaurentPolynomial.constant) -> List[List[ops.T]]:
    """The (n-k+2)-square row matrix A_k over the ring of the edge values
    `sub` returns: diagonal (-u_{k0}, v_{k0} - u_{k1}, ..., v_{k,n-k}),
    superdiagonal u_{kj} v_{kj}, subdiagonal -1.  A_{n+1} is the 1x1 zero
    matrix."""
    if k == n + 1:
        return ops.tridiagonal([const(0)], [], const)
    u = [sub(Edge("u", k, j).name) for j in range(n - k + 1)]
    v = [sub(Edge("v", k, j).name) for j in range(n - k + 1)]
    diag = [-u[0]] + [v[j] - u[j + 1] for j in range(n - k)] + [v[n - k]]
    return ops.tridiagonal(diag, [a * b for a, b in zip(u, v)], const)


def row_matrix(record: CriticalPointRecord, k: int = 1) -> np.ndarray:
    """A_k at the record's edge values."""
    return np.array(_a_matrix(record.chart.n, k, record.edge_values.__getitem__, complex))


def _char_coeffs(m: np.ndarray) -> np.ndarray:
    """Coefficients c_1..c_size with det(M + xI) = x^size + sum c_i x^{size-i}."""
    return np.poly(-m)[1:]


def spectral_check(record: CriticalPointRecord) -> float:
    """Max deviation of det(A_1 - lam_0 I + xI) from prod (x - lam_i): the
    largest relation residual of `to_lagrangian`."""
    return to_lagrangian(record).max_residual


def to_lagrangian(record: CriticalPointRecord) -> LagrangianPoint:
    """Image of the critical point in Spec C[p, q^{pm}] / (D_i(p,q) - sigma_i).

    p and q are the diagonal and superdiagonal of A_1 - lam_0 I; the shift
    makes the relations D_i(p, q) = sigma_i hold on the nose, so their
    residuals are those of det(A_1 - lam_0 I + xI) = prod (x - lam_i),
    coefficient by coefficient.
    """
    m = row_matrix(record, 1) - record.lam[0] * np.eye(record.chart.n + 1)
    target = np.poly(np.array(record.lam))[1:]
    residuals = [float(abs(a - b)) for a, b in zip(_char_coeffs(m), target)]
    return LagrangianPoint(p=[complex(x) for x in np.diag(m)],
                           q=[complex(x) for x in np.diag(m, 1)], residuals=residuals)


def scaling_residual(records: Sequence[CriticalPointRecord], c: float) -> float:
    """Relative failure of u_sigma(c^2 q, c lam) = c u_sigma(q, lam) over the
    records of one fiber.

    w -> c w and q -> c^2 q scale every monomial of the phase by c, so for a
    quasi-homogeneous phase the scaled problem's gradient and Hessian are c
    times the base ones and its critical point is s + ln c.  Newton solves
    the scaled problem at (c lam, c^2 q), started from each record's
    s + ln c with no path, and the critical value it reaches is checked
    against c * u_sigma.  A sigma that does not scale with lam moves that
    solution, and a rho that does not moves the value.
    """
    base = records[0]
    lanes = _Lanes([r.chart for r in records], [c * x for x in base.lam],
                   [c * c * x for x in base.q])
    ends = lanes.track(np.stack([r.s for r in records]) + math.log(c))
    for r, error in zip(records, ends.errors):
        if error is not None:
            raise ContinuationError(
                f"scaling check failed for chart {r.chart.kseq}: {error}", r.chart.kseq)
    scaled = lanes.critical_values(ends.s)
    expect = c * np.array([r.u_sigma for r in records])
    return float(np.max(np.abs(scaled - expect) / np.maximum(1.0, np.abs(expect))))


# ---------------------------------------------------------------------------
# The symbolic U_k V_k factorisation identity.
# ---------------------------------------------------------------------------

def _lam_poly(i: int, n: int) -> LaurentPolynomial:
    """lam_i with lam_n eliminated through sum(lam) = 0."""
    if i < n:
        return LaurentPolynomial.variable(f"lam{i}")
    return -sum((LaurentPolynomial.variable(f"lam{j}") for j in range(n)), LaurentPolynomial.zero())


def _chart_substitution(chart: SigmaChart) -> Dict[str, LaurentPolynomial]:
    """Every edge as a Laurent monomial in the chart's own edge names and q."""
    symbols = list(chart.chart_edges.values()) + [f"q{k + 1}" for k in range(chart.n)]
    return {name: LaurentPolynomial.monomial({x: e for x, e in zip(symbols, row) if e})
            for name, row in zip(chart.row_of, chart.E.tolist())}


def _u_factor(n: int, k: int, sub) -> ops.Matrix:
    """u_{k,0}, ..., u_{k,n-k}, 0 on the diagonal and 1 below it."""
    one, zero = LaurentPolynomial.constant(1), LaurentPolynomial.zero()
    m = [[one if j == i - 1 else zero for j in range(n - k + 2)] for i in range(n - k + 2)]
    for i in range(n - k + 1):
        m[i][i] = sub(Edge("u", k, i).name)
    return m


def _v_factor(n: int, k: int, sub) -> ops.Matrix:
    """-1 on the diagonal and v_{k,0}, ..., v_{k,n-k} above it."""
    minus_one, zero = LaurentPolynomial.constant(-1), LaurentPolynomial.zero()
    m = [[minus_one if j == i else zero for j in range(n - k + 2)] for i in range(n - k + 2)]
    for i in range(n - k + 1):
        m[i][i + 1] = sub(Edge("v", k, i).name)
    return m


def uv_factorization_exact(n: int) -> bool:
    """A_k = U_k V_k identically in the free edge symbols, for k = 1..n."""
    sub = LaurentPolynomial.variable
    for k in range(1, n + 1):
        lhs = _a_matrix(n, k, sub)
        rhs = ops.mat_mul(_u_factor(n, k, sub), _v_factor(n, k, sub))
        if not ops.mat_is_zero(ops.mat_sub(lhs, rhs)):
            return False
    return True


def uv_identity_check(n: int, kseq: Optional[Sequence[int]] = None) -> bool:
    """The factorisation step behind the eigenvalue equations, exactly.

    For every k: V_k U_k - lam_{k-1} I equals the bordered A_{k+1} block
    minus diag(df/dT_{k,i}, 0), as Laurent polynomials after replacing the
    eliminated edges of a chart by their monomials (so the box relations
    hold identically) and lam_n by -(lam_0 + ... + lam_{n-1}).

    Only differences lam_{k-1} - lam_k enter the blocks, so a common shift
    of every lam_k cancels there; a last row checks sum(lam) = 0.  A wrong
    lam_k, or a wrong coefficient on any edge monomial but two, makes it
    False.  u_{1,0} and v_{1,n-1} enter both sides linearly, so scaling
    either cancels; `SigmaChart.relations_hold` checks their monomials.
    """
    if not uv_factorization_exact(n):
        return False
    graph = MirrorGraph(n)
    chart = make_chart(graph, kseq if kseq is not None else tuple(
        n - i + 1 for i in range(1, n + 1)))
    table = _chart_substitution(chart)
    sub = lambda name: table[name]

    for k in range(1, n + 1):
        size = n - k + 2
        vu = ops.mat_mul(_v_factor(n, k, sub), _u_factor(n, k, sub))
        lhs = ops.mat_sub(vu, ops.mat_scalar_diag(size, _lam_poly(k - 1, n)))

        zero, lam_k = LaurentPolynomial.zero(), _lam_poly(k, n)
        block = [[a - lam_k if i == j else a for j, a in enumerate(row)] + [zero]
                 for i, row in enumerate(_a_matrix(n, k + 1, sub))]
        block.append([zero] * (size - 2) + [LaurentPolynomial.constant(-1), -_lam_poly(k - 1, n)])

        for i in range(size - 1):
            edge_coeffs, lam_part = graph.gradient_at(k, i)
            terms = [sign * table[name] for name, sign in edge_coeffs.items()]
            terms += [LaurentPolynomial.monomial({f"lam{idx}": 1}, c)
                      for idx, c in enumerate(lam_part.reduce_last().coeffs[:-1]) if c != 0]
            block[i][i] = block[i][i] - sum(terms, LaurentPolynomial.zero())

        if not ops.mat_is_zero(ops.mat_sub(lhs, block)):
            return False
    return sum((_lam_poly(k, n) for k in range(n + 1)), LaurentPolynomial.zero()).is_zero()
