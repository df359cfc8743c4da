"""Critical points of the phase function.

Each chart contributes exactly one critical point, found by Newton
continuation along one fixed path tau(theta) * q from the explicit tau = 0
limit w_ij = -sigma(i, j).  The charts of a fiber are tracked together, one
lane each: a per-lane path loop (`_Lanes.track`) around one batched damped
Newton (`_Lanes._newton`), which the quasi-homogeneity check and the
quadrature's real peak (`integrals._real_peak`, one lane from s = 0) also
call directly.  Continuation along a path that avoids the branch points is a
bijection on sheets, so two charts landing on one point means the tracker
jumped sheets: that, like a lane that does not arrive, is an error naming
the charts, never a cue to re-run them on another path.

Records carry the Hessian in log coordinates s = ln w (the volume form is
translation-invariant in s, so it is the one entering stationary-phase
prefactors and the nondegeneracy flag), the critical value, and all edge
values for chart-independent comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact import LaurentPolynomial, char_coeffs, elementary_symmetric_sigma
from .mirror import (
    ChartFailure,
    ChartPhase,
    DegenerateParameterError,
    Edge,
    MirrorGraph,
    SigmaChart,
    all_k_sequences,
    check_lambda,
    check_q,
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
# Every step is sized from its predictor: its predicted move |dtheta ds/dtheta|_inf
# is at most PREDICTED_MOVE * JUMP_BOUND, so a step the predictor already sees
# jumping is never tried.
PREDICTED_MOVE = 0.8
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


# Batched continuation: `_Lanes._newton` solves any set of lanes at fixed
# exponents, and `_Lanes.track` is the path loop around it; the scaling
# re-solve and the quadrature's peak call it directly.  A Newton step is
# capped at 0.5 in sup-norm on every lane but the peak's, and its line search
# tries t = 1, 1/2, ..., 2^-46 (about 1e-14) before it gives up.  The peak
# lane starts from s = 0, and its peak may lie 70 away (n = 2, q = 1e-30): f
# is convex on the real cycle, so full Newton steps get there, where 100 steps
# capped at 0.5 cannot.  With the floor at 2^-20, the line search gives up on
# 11 of 24 such n = 2 peaks (every chart, q = 1e-22 and 1e-30, two lambdas);
# 2^-46 finds them all, and it moves no census record or counter (n = 3 seeds
# 0-39, n = 4 seeds 0-9).  A lane's solve fails when its step count reaches
# its limit short of the tolerance: _NEWTON_STEPS for the peak, the solve at
# the target q, the scaling re-solve and the retry of a failed path corrector,
# and _PATH_NEWTON_STEPS for any other path corrector, where failing only
# halves the step.  A lane that finishes at a point takes no Hessian solve
# there.  Every lane of a round waits for its slowest solve; a census's charts
# share one MirrorGraph(n).  Measured with predictor-sized steps and the limit
# 100 on every solve, over n = 3 seeds 0-39, n = 4 seeds 0-9 and the census
# benchmark's batches 1-10: accepted correctors took a median of 4 steps and 7
# at the 99th percentile; 197 of 73,982 took more than 8 (at most 55), and 28
# failing ones ran all 100.  Batched Newton steps: 26,666 at limit 100, 24,267
# at 8.  Without the full-limit retry, one lane of the large-w draw of census
# batch 11 creeps at 8 (3,473 rounds against 98): near its singular
# log-Hessian every capped corrector stalls just above its tolerance.
_NEWTON_STEPS = 100
_PATH_NEWTON_STEPS = 8
_TRIALS = 47
_STEPS = 0.5 ** np.arange(_TRIALS)
_EPS = np.finfo(float).eps


def _solve(h: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked h x = rhs; the second result flags exactly singular lanes."""
    try:
        return np.linalg.solve(h, rhs[..., None])[..., 0], np.zeros(len(h), dtype=bool)
    except np.linalg.LinAlgError:
        if len(h) == 1:
            return np.zeros_like(rhs), np.ones(1, dtype=bool)
        half = len(h) // 2   # bisect down to the singular lanes
        parts = _solve(h[:half], rhs[:half]), _solve(h[half:], rhs[half:])
        return tuple(np.concatenate(pair) for pair in zip(*parts))


def _tau(theta: np.ndarray) -> np.ndarray:
    return theta + 1j * (PATH_LIFT * np.sin(np.pi * theta))


def _dtau(theta: np.ndarray) -> np.ndarray:
    return 1.0 + 1j * PATH_LIFT * np.pi * np.cos(np.pi * theta)


@dataclass
class _Endpoints:
    """Per lane of `_Lanes.track`: the solution, its gradient norm and
    log-Hessian, that Hessian's continued log det, and None or why it failed;
    for the whole batch, its path rounds, batched Newton steps, those steps
    summed over the lanes each carried, and step halvings."""

    s: np.ndarray
    gnorm: np.ndarray
    h: np.ndarray
    log_det: np.ndarray
    errors: List[Optional[str]]
    rounds: int
    solves: int
    lane_steps: int
    halvings: int


class _Lanes:
    """The phases of some charts at one (lambda, q), stacked as lanes: they
    share d and the 2d monomials, so their phase data stack into (L, 2d, d)
    arrays.  Along the path ln q becomes ln q + ln tau, which adds ln tau
    times the q-degree of each monomial to the exponents B ln q.  The caller
    checks lambda and q and builds the phases."""

    def __init__(self, phases: Sequence[ChartPhase], q: Sequence[float]):
        self.phases, self.q = list(phases), q
        self.charts, self.lam = [ph.chart for ph in self.phases], self.phases[0].lam
        A = np.stack([ph.A for ph in self.phases])                       # (L, 2d, d)
        self.A, self.absA = A.astype(complex), np.abs(A)
        self.At = np.ascontiguousarray(self.A.transpose(0, 2, 1))
        B = np.stack([ph.B for ph in self.phases])                       # (L, 2d, n)
        self.sigma = np.stack([ph.sigma for ph in self.phases])          # (L, d)
        self.lnq = np.log(np.array(self.q))
        self.bq, self.qdeg = B @ self.lnq, B.sum(axis=2)
        self.solves = self.lane_steps = 0   # `_newton`'s batched steps, and their lanes

    @cached_property
    def start(self) -> np.ndarray:
        """The q = 0 critical point of every lane, (L, d): the path's start."""
        return np.stack([ph.start_point() for ph in self.phases])

    @np.errstate(all="ignore")
    def _newton(self, rows: np.ndarray, s: np.ndarray, c: np.ndarray, limit, cap=0.5):
        """Damped Newton on the lanes `rows` at exponent offsets c from s, until
        each lane converges or fails, a lane failing when its `limit`-th (per
        lane) step does not meet the tolerance; per lane s, |grad f|_inf, the
        monomial values, the Hessian, and None or why it failed.  A lane's
        first round takes s itself; each later round takes the first of its
        next steps t, t/2, ... that lowers |grad f| or meets the tolerance of
        its last point, the step's sup-norm first cut to the lane's `cap`.
        Only a lane that steps on solves for its direction."""
        count, limit, cap = len(rows), np.full(len(rows), limit), np.full(len(rows), cap)
        s_end, gnorm_end, why = s.copy(), np.full(count, np.inf), [None] * count
        vals_end = np.zeros((count, self.A.shape[1]), dtype=complex)
        # one row per lane still searching; rows drop out as their lanes finish
        lane, A, At, absA = np.arange(count), self.A[rows], self.At[rows], self.absA[rows]
        sigma, s, dirn, gnorm = self.sigma[rows], s.copy(), np.zeros_like(s), np.full(count, np.inf)
        tol, t, it, vals = np.zeros(count), np.ones(count), np.full(count, -1), vals_end.copy()
        while lane.size:
            self.solves += 1
            self.lane_steps += lane.size
            width = min(_TRIALS, max(4, 64 // lane.size))
            steps = t[:, None] * _STEPS[:width]
            trial = dirn[:, None, :] * steps[:, :, None] + s[:, None, :]
            v = np.exp(np.matmul(trial, At) + c[:, None, :])
            g = np.matmul(v, A) + sigma[:, None, :]
            norm = np.abs(g).max(axis=2)
            # NaN compares false, so a non-finite trial point is never taken
            ok = ((norm < gnorm[:, None]) | (norm <= tol[:, None])) & (steps >= _STEPS[-1])
            ok[:, 0] |= it < 0
            pick = ok.argmax(axis=1)
            acc = ok[np.arange(lane.size), pick]
            a = acc.nonzero()[0]
            s[a], gnorm[a], vals[a] = trial[a, pick[a]], norm[a, pick[a]], v[a, pick[a]]
            it[a] += 1
            t[~acc] *= 0.5 ** width
            terms = np.matmul(np.abs(vals[a])[:, None, :], absA[a])[:, 0] + np.abs(sigma[a])
            tol[a] = np.maximum(NEWTON_TOL, FLOOR_FACTOR * _EPS * terms.max(axis=1))
            # a lane at a new point converged, failed, or takes a new direction
            finite = np.isfinite(gnorm)
            done = acc & (~finite | (gnorm <= tol) | (it >= limit)) | (t < _STEPS[-1])
            b = a[~done[a]]   # only a lane that steps on needs its Hessian solved
            x, singular = _solve(np.matmul(At[b] * vals[b][:, None, :], A[b]), -g[b, pick[b]])
            size = np.abs(x).max(axis=1)
            dirn[b] = x * np.where(size > cap[b], cap[b] / size, 1.0)[:, None]
            t[b], done[b[singular]] = 1.0, True
            for k in done.nonzero()[0]:
                s_end[lane[k]], gnorm_end[lane[k]], vals_end[lane[k]] = s[k], gnorm[k], vals[k]
                why[lane[k]] = ("Newton line search failed" if not acc[k] else
                                "Newton iterate escaped to non-finite values" if not finite[k] else
                                None if gnorm[k] <= tol[k] else
                                f"Newton did not reach tol={tol[k]:.1e}" if it[k] >= limit[k]
                                else "singular Hessian on the path")
            if done.any():
                lane, A, At, absA, sigma, c, s, vals, dirn, gnorm, tol, t, it, limit, cap = (
                    x[~done] for x in (lane, A, At, absA, sigma, c, s, vals, dirn, gnorm,
                                       tol, t, it, limit, cap))
        h = np.matmul(self.At[rows] * vals_end[:, None, :], self.A[rows])
        return s_end, gnorm_end, vals_end, h, why

    def start_tangent(self) -> np.ndarray:
        """ds/dtheta at theta = 0 per lane: there the log-Hessian is diag(-sigma)
        and only the q-degree-one monomials move the gradient, by tau'(0) times
        their values at the start point."""
        first = np.exp(np.matmul(self.start[:, None, :], self.At)[:, 0] + self.bq) * (self.qdeg == 1)
        return np.matmul(first[:, None, :], self.A)[:, 0] * _dtau(0.0) / self.sigma

    @np.errstate(all="ignore")
    def track(self) -> _Endpoints:
        """Track every lane along tau(theta) * q from q = 0, then solve once at
        q itself: each round moves every unfinished lane by its Euler predictor
        ds/dtheta in one `_newton` call, and halves a step that fails or jumps
        in s or in log det H.  Each step is sized from its own predictor: after
        an accepted step, step <- min(1.5 step, 1 - theta, PREDICTED_MOVE *
        JUMP_BOUND / |ds/dtheta|_inf), so the predicted move stays inside the
        jump bound the step is checked against.  At q = 0 the log-Hessian is
        diag(-sigma) and only the q-degree-one monomials move the gradient, so
        the first step has a predictor too.  log det H starts at
        log prod(-sigma) with imaginary part 0 or pi, so its square root starts
        at +sqrt or +i sqrt|prod(-sigma)|.  A path step's corrector fails after
        _PATH_NEWTON_STEPS Newton steps, so a slow corrector costs its lane a
        halved step instead of holding the round for _NEWTON_STEPS; the retry
        of that halved step, like the solve at q, gets _NEWTON_STEPS, so a
        corrector that stalls just above its tolerance cannot make its lane
        creep."""
        count, dim = self.start.shape
        path, theta, cap = self.start.copy(), np.zeros(count), PREDICTED_MOVE * JUMP_BOUND
        det = np.prod(-self.sigma, axis=1).astype(complex)
        log_det, gnorm, errors = np.log(det), np.full(count, np.inf), [None] * count
        h, pred = np.zeros((count, dim, dim), complex), self.start_tangent()
        step = np.fmin(FIRST_STEP, cap / np.abs(pred).max(axis=1))
        live, rounds, halvings = np.arange(count), 0, 0
        solves, lane_steps = self.solves, self.lane_steps
        retry = np.zeros(count, dtype=bool)
        while live.size:
            rounds += 1
            # a step on along the path; at theta = 1, the target q itself
            final = theta[live] >= 1.0
            th = np.minimum(1.0, theta[live] + step[live])
            dth = th - theta[live]
            use = np.isfinite(pred[live]).all(axis=1)[:, None]  # NaN: no predictor
            y = np.where(use, path[live] + dth[:, None] * pred[live], path[live])
            ln_tau = np.where(final, 0.0, np.log(_tau(th)))
            s, gn, vals, hs, why = self._newton(
                live, y, self.bq[live] + ln_tau[:, None] * self.qdeg[live],
                np.where(final | retry[live], _NEWTON_STEPS, _PATH_NEWTON_STEPS))
            new_det = np.linalg.det(hs)
            log_ratio = np.log(new_det / det[live])
            failed = np.array([w is not None for w in why])
            caustic = ~failed & ~final & (new_det == 0)
            # on the path, a jump of det(H) or of s rejects the step
            reject = (np.abs(log_ratio) > DET_JUMP_BOUND) | (
                np.abs(s - path[live]).max(axis=1) > JUMP_BOUND)
            reject &= ~failed & ~final & ~caustic & (step[live] > 1e-11)
            halve = (failed & ~final) | reject
            retry[live] = failed & ~final
            step[live[halve]] /= 2
            halvings += int(halve.sum())
            out = (failed & (final | (step[live] < 1e-13))) | caustic
            for r in out.nonzero()[0]:
                errors[live[r]] = (f"{why[r]} at the target q" if final[r] else
                                   f"Hessian singular at theta={th[r]} (caustic)" if caustic[r]
                                   else f"step halving exhausted at theta={theta[live[r]]}"
                                   ) + f" for chart {self.charts[live[r]].kseq}"
            take = ~failed & ~caustic & ~reject
            k = live[take]
            det[k], path[k], theta[k], gnorm[k], h[k], log_det[k] = (
                new_det[take], s[take], th[take], gn[take], hs[take], log_det[k] + log_ratio[take])
            # ds/dtheta = -H^{-1} d(grad f)/dtheta predicts the next point
            inner = take & (th < 1.0)
            k, at = live[inner], th[inner]
            dg = np.matmul((vals[inner] * self.qdeg[k])[:, None, :],
                           self.A[k])[:, 0] * (_dtau(at) / _tau(at))[:, None]
            ds, singular = _solve(hs[inner], -dg)
            pred[k] = np.where(singular[:, None] | ~np.isfinite(ds), np.nan, ds)
            step[k] = np.fmin(np.minimum(step[k] * 1.5, 1.0 - at),
                              cap / np.abs(pred[k]).max(axis=1))
            live = live[~(final | out)]
        return _Endpoints(path, gnorm, h, log_det, errors, rounds, self.solves - solves,
                          self.lane_steps - lane_steps, halvings)

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
    one lane on the path of `census`.

    The square root of the log-Hessian determinant is continued along the
    same path from its q = 0 value prod(-sigma): the positive root when that
    product is positive, and +i times the root of its modulus when negative.
    """
    lam, q = check_lambda(lam, chart.n), check_q(q_target, chart.n)
    lanes = _Lanes([phase_in_chart(chart, lam)], q)
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


@dataclass
class CensusResult:
    """The (n+1)! distinct records of a fiber with their Lagrangian images."""
    records: List[CriticalPointRecord]
    points: List[LagrangianPoint]      # to_lagrangian of each record
    min_pairwise_distance: float
    max_spectral_residual: float
    continuation: Dict[str, int]       # rounds, solves, halvings, lanes, lane_steps


def census(n: int, lam: Sequence[float], q: Sequence[float]) -> CensusResult:
    """One record per chart, in k-sequence order, each with its point on the
    Lagrangian variety.

    All charts are tracked as one batch on one path.  A lane that does not
    arrive, or two records that are one point of the mirror torus (a sheet
    jump: continuation off the branch points is a bijection on sheets),
    raises CriticalPointError naming the charts.  The spectral identity and
    the Toda relations are one identity, read in edge and in (p, q)
    coordinates, so one maximum over those points is the residual of both.
    """
    kseqs, graph = all_k_sequences(n), MirrorGraph(n)   # one graph for every chart
    lam, q = check_lambda(lam, n), check_q(q, n)
    lanes = _Lanes([phase_in_chart(make_chart(graph, k), lam) for k in kseqs], q)
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
    points = [to_lagrangian(r) for r in records]
    return CensusResult(
        records=records,
        points=points,
        min_pairwise_distance=float(np.min(dist, initial=math.inf)),
        max_spectral_residual=max(pt.max_residual for pt in points),
        continuation={"rounds": ends.rounds, "solves": ends.solves, "halvings": ends.halvings,
                      "lanes": len(kseqs), "lane_steps": ends.lane_steps},
    )


# ---------------------------------------------------------------------------
# Spectral identity and the map to the Lagrangian variety.
# ---------------------------------------------------------------------------

def _row_entries(n: int, k: int, sub: Callable[[str], object]) -> Tuple[list, list]:
    """The diagonal (-u_{k0}, v_{k0} - u_{k1}, ..., v_{k,n-k}) and the
    superdiagonal u_{kj} v_{kj} of the (n-k+2)-square row matrix A_k, over
    the ring of the edge values `sub` returns; A_k has -1 below its diagonal."""
    u = [sub(Edge("u", k, j).name) for j in range(n - k + 1)]
    v = [sub(Edge("v", k, j).name) for j in range(n - k + 1)]
    diag = [-u[0]] + [v[j] - u[j + 1] for j in range(n - k)] + [v[n - k]]
    return diag, [a * b for a, b in zip(u, v)]


def _a_matrix(n: int, k: int, sub: Callable[[str], LaurentPolynomial]) -> ops.Matrix:
    """The row matrix A_k over Laurent polynomials; A_{n+1} is the 1x1 zero
    matrix."""
    if k == n + 1:
        return [[LaurentPolynomial.zero()]]
    return ops.tridiagonal(*_row_entries(n, k, sub))


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
    diag, q = _row_entries(record.chart.n, 1, record.edge_values.__getitem__)
    p = [d - record.lam[0] for d in diag]
    residuals = [float(abs(a - b)) for a, b in
                 zip(char_coeffs(p, q), elementary_symmetric_sigma(record.lam))]
    return LagrangianPoint(p=p, q=q, residuals=residuals)


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
    base, n = records[0], records[0].chart.n
    lam, q = check_lambda([c * x for x in base.lam], n), check_q([c * c * x for x in base.q], n)
    lanes = _Lanes([phase_in_chart(r.chart, lam) for r in records], q)
    s, _, _, _, why = lanes._newton(np.arange(len(records)),
                                    np.stack([r.s for r in records]) + math.log(c),
                                    lanes.bq.astype(complex), _NEWTON_STEPS)
    for r, error in zip(records, why):
        if error is not None:
            raise ContinuationError(f"scaling check failed for chart {r.chart.kseq}: "
                                    f"{error} at the target q", r.chart.kseq)
    scaled = lanes.critical_values(s)
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


def uv_identity_check(n: int) -> bool:
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
    chart = make_chart(graph, tuple(n - i + 1 for i in range(1, n + 1)))
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
