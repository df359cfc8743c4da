"""Triangular mirror graph, equivariant edge weights, phase function, and
sigma-charts.

Vertices (i, j) satisfy i, j >= 0 and i + j <= n, with i counting diagonals
down from the top row and j running along each diagonal.  Edge u_{ij} points
from (i-1, j) to (i, j); edge v_{ij} points from (i, j) to (i-1, j+1).  The
relations

    box:   v_{i,j} u_{i,j+1} = u_{i+1,j} v_{i+1,j}
    roof:  u_{1,j} v_{1,j}   = q_{j+1}

cut out a torus of dimension n(n+1)/2 on which the phase function lives.
A sigma-chart is a unimodular change of the vertex log-coordinates: it
supplies monomials and log-coefficients, and `phase_in_chart(chart, lam)`
turns them into the one numeric phase (`ChartPhase`) that continuation,
quadrature and the checks all read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .exact import format_rational


class MirrorModelError(ValueError):
    """Structural failure while building the graph or a chart."""


class MonomialSolveError(MirrorModelError):
    """The monomial relations could not be solved for a chart (graph bug)."""


class ChartFailure:
    """Mixin for solver failures: `chart` is the k-sequence at fault, if any."""

    def __init__(self, message: str = "", chart: Optional[Sequence[int]] = None):
        super().__init__(message)
        self.chart = tuple(chart) if chart is not None else None


class DegenerateParameterError(ChartFailure, ValueError):
    """lambda is too degenerate for the requested construction."""


# ---------------------------------------------------------------------------
# Linear forms in lam_0..lam_n.
# ---------------------------------------------------------------------------

class LambdaForm:
    """Exact linear form c_0 lam_0 + ... + c_n lam_n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction]):
        object.__setattr__(self, "coeffs", tuple(
            c if type(c) is Fraction else Fraction(c) for c in coeffs))

    def __setattr__(self, *a):
        raise AttributeError("LambdaForm is immutable")

    @classmethod
    def zero(cls, n: int) -> "LambdaForm":
        return cls((Fraction(0),) * (n + 1))

    @classmethod
    def unit(cls, n: int, i: int) -> "LambdaForm":
        c = [Fraction(0)] * (n + 1)
        c[i] = Fraction(1)
        return cls(c)

    def __add__(self, other: "LambdaForm") -> "LambdaForm":
        return LambdaForm([a + b if b else a for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "LambdaForm") -> "LambdaForm":
        return LambdaForm([a - b if b else a for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "LambdaForm":
        return LambdaForm([-a for a in self.coeffs])

    def scale(self, c) -> "LambdaForm":
        c = Fraction(c)
        return LambdaForm([c * a if a else a for a in self.coeffs])

    def __eq__(self, other) -> bool:
        return isinstance(other, LambdaForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def unit_index(self) -> Optional[int]:
        """Index i when the form is exactly lam_i, else None."""
        hits = [i for i, c in enumerate(self.coeffs) if c != 0]
        if len(hits) == 1 and self.coeffs[hits[0]] == 1:
            return hits[0]
        return None

    def reduce_last(self) -> "LambdaForm":
        """Substitute lam_n = -(lam_0 + ... + lam_{n-1}); last slot becomes 0."""
        cn = self.coeffs[-1]
        if cn == 0:
            return self
        out = [c - cn for c in self.coeffs[:-1]]
        out.append(Fraction(0))
        return LambdaForm(out)

    def evaluate(self, lam: Sequence) -> object:
        acc = None
        for c, v in zip(self.coeffs, lam):
            term = v * c if isinstance(v, (int, Fraction)) else float(c) * v
            acc = term if acc is None else acc + term
        return acc if acc is not None else Fraction(0)

    def report(self) -> List[str]:
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self):
        terms = [f"{c}*lam{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "LambdaForm(" + (" + ".join(terms) if terms else "0") + ")"


# ---------------------------------------------------------------------------
# Graph.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    kind: str  # "u" or "v"
    i: int
    j: int

    @property
    def name(self) -> str:
        return f"{self.kind}[{self.i},{self.j}]"

    @property
    def tail(self) -> Tuple[int, int]:
        return (self.i - 1, self.j) if self.kind == "u" else (self.i, self.j)

    @property
    def head(self) -> Tuple[int, int]:
        return (self.i, self.j) if self.kind == "u" else (self.i - 1, self.j + 1)


class MirrorGraph:
    """The weighted triangular graph for a given n."""

    def __init__(self, n: int):
        if n < 1:
            raise MirrorModelError("n must be >= 1")
        self.n = n
        self.vertices: List[Tuple[int, int]] = [
            (i, j) for i in range(n + 1) for j in range(n - i + 1)
        ]
        self.edges: Dict[str, Edge] = {}
        for i in range(1, n + 1):
            for j in range(n - i + 1):
                for kind in ("u", "v"):
                    e = Edge(kind, i, j)
                    self.edges[e.name] = e
        # box at (i, j): v_{i,j} u_{i,j+1} = u_{i+1,j} v_{i+1,j}
        self.boxes: List[Tuple[str, str, str, str]] = [
            (Edge("v", i, j).name, Edge("u", i, j + 1).name,
             Edge("u", i + 1, j).name, Edge("v", i + 1, j).name)
            for i in range(1, n) for j in range(n - i)
        ]
        # roof over top box j: u_{1,j} v_{1,j} = q_{j+1}
        self.roofs: List[Tuple[str, str, int]] = [
            (Edge("u", 1, j).name, Edge("v", 1, j).name, j + 1)
            for j in range(n)
        ]
        self.weights: Dict[str, LambdaForm] = {
            name: self._weight(e) for name, e in self.edges.items()
        }
        self.dimension = n * (n + 1) // 2

    def _weight(self, e: Edge) -> LambdaForm:
        n = self.n
        half = Fraction(1, 2)
        outer = LambdaForm.unit(n, e.i - 1)
        for j in range(e.i - 1):
            outer = outer + LambdaForm.unit(n, j).scale(half)
        if e.kind == "u":
            if e.j == 0:
                return outer
            return LambdaForm.unit(n, e.i - 1).scale(half)
        # v-edge
        if e.i + e.j == n:
            return -outer
        return -LambdaForm.unit(n, e.i - 1).scale(half)

    # ---- phase function in vertex coordinates ----
    def gradient_at(self, k: int, i: int) -> Tuple[Dict[str, int], LambdaForm]:
        """d f / d T_{k,i} as (edge coefficients, lambda part), k >= 1.

        Missing edges at the boundary contribute nothing.
        """
        if not (1 <= k <= self.n and 0 <= i <= self.n - k):
            raise MirrorModelError(f"no interior vertex ({k},{i})")
        combos = [("u", k, i, +1), ("v", k, i, -1),
                  ("u", k + 1, i, -1), ("v", k + 1, i - 1, +1)]
        edge_coeffs: Dict[str, int] = {}
        lam = LambdaForm.zero(self.n)
        for kind, a, b, sign in combos:
            name = Edge(kind, a, b).name
            if name in self.edges:
                edge_coeffs[name] = sign
                lam = lam + self.weights[name].scale(sign)
        return edge_coeffs, lam

    def top_gradient(self, j: int) -> Tuple[Dict[str, int], LambdaForm]:
        """d f / d t_j (top-row vertex (0, j)): only row-1 edges appear."""
        combos = [("u", 1, j, -1), ("v", 1, j - 1, +1)]
        edge_coeffs: Dict[str, int] = {}
        lam = LambdaForm.zero(self.n)
        for kind, a, b, sign in combos:
            name = Edge(kind, a, b).name
            if name in self.edges:
                edge_coeffs[name] = sign
                lam = lam + self.weights[name].scale(sign)
        return edge_coeffs, lam

    def edge_t_vector(self, name: str) -> Dict[Tuple[int, int], int]:
        """log of the edge as an integer combination of vertex coordinates."""
        e = self.edges[name]
        vec: Dict[Tuple[int, int], int] = {}
        vec[e.head] = vec.get(e.head, 0) + 1
        vec[e.tail] = vec.get(e.tail, 0) - 1
        return {k: v for k, v in vec.items() if v != 0}

    def phase_value(self, t_coords: Mapping[Tuple[int, int], float],
                    lam: Sequence[float]) -> float:
        """Numeric phase at given vertex coordinates (edges all positive)."""
        total = 0.0
        for name in self.edges:
            log_edge = sum(c * t_coords[v] for v, c in self.edge_t_vector(name).items())
            weight = float(self.weights[name].evaluate(lam))
            total += math.exp(log_edge) + weight * log_edge
        return total

    def q_t_vector(self, k: int) -> Dict[Tuple[int, int], int]:
        """log q_k = t_k - t_{k-1} in vertex coordinates."""
        return {(0, k): 1, (0, k - 1): -1}


def build_graph(n: int) -> MirrorGraph:
    return MirrorGraph(n)


# ---------------------------------------------------------------------------
# Sigma-charts.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartMonomial:
    """Monomial prod w_{ij}^{a_{ij}} prod q_k^{b_k} in chart variables."""

    w_exps: Tuple[Tuple[Tuple[int, int], int], ...]  # ((i,j), exponent) pairs
    q_exps: Tuple[int, ...]

    def q_degree(self) -> int:
        return sum(self.q_exps)


class SigmaChart:
    """Coordinate chart selected by a k-sequence.

    In row i the first k_i slots take the u-edge as coordinate, the rest the
    v-edge.  The chart carries the weight table rho, the log-coefficients
    sigma(i, j) of the phase, the permutation the chart induces, and exact
    monomial expressions for every eliminated edge.
    """

    def __init__(self, graph: MirrorGraph, kseq: Sequence[int]):
        n = graph.n
        kseq = tuple(kseq)
        if len(kseq) != n or any(not (0 <= kseq[i - 1] <= n - i + 1) for i in range(1, n + 1)):
            raise MirrorModelError(f"invalid k-sequence {kseq} for n={n}")
        self.graph = graph
        self.n = n
        self.kseq = kseq
        self.positions: List[Tuple[int, int]] = [
            (i, j) for i in range(1, n + 1) for j in range(n - i + 1)
        ]
        self.position_index = {p: k for k, p in enumerate(self.positions)}
        self.chart_edges: Dict[Tuple[int, int], str] = {}
        self.partner_edges: Dict[Tuple[int, int], str] = {}
        for (i, j) in self.positions:
            chosen = "u" if j < kseq[i - 1] else "v"
            other = "v" if chosen == "u" else "u"
            self.chart_edges[(i, j)] = Edge(chosen, i, j).name
            self.partner_edges[(i, j)] = Edge(other, i, j).name
        self.rho = self._rho_table()
        self.sigma = self._sigma_table()
        self.permutation = self._permutation()
        self.eliminated = self._solve_eliminated()

    # ---- rho / sigma / permutation ----
    def _rho_table(self) -> Dict[Tuple[int, int], LambdaForm]:
        n = self.n
        rho: Dict[Tuple[int, int], LambdaForm] = {}
        for i in range(n + 1, 0, -1):
            rho[(i, -1)] = LambdaForm.zero(n)
            top = LambdaForm.zero(n)
            for k in range(i - 1, n + 1):
                top = top + LambdaForm.unit(n, k)
            rho[(i, n - i + 1)] = top
            for j in range(0, n - i + 1):
                if i == n + 1:
                    continue
                if self.chart_edges[(i, j)].startswith("u"):
                    rho[(i, j)] = rho[(i + 1, j)]
                else:
                    rho[(i, j)] = rho[(i + 1, j - 1)] + LambdaForm.unit(n, i - 1)
        return rho

    def _sigma_table(self) -> Dict[Tuple[int, int], LambdaForm]:
        n = self.n
        out: Dict[Tuple[int, int], LambdaForm] = {}
        for (i, j) in self.positions:
            lam = LambdaForm.unit(n, i - 1)
            if j < self.kseq[i - 1]:
                out[(i, j)] = lam - (self.rho[(i, j)] - self.rho[(i, j - 1)])
            else:
                out[(i, j)] = -lam + (self.rho[(i, j + 1)] - self.rho[(i, j)])
        return out

    def _permutation(self) -> Tuple[int, ...]:
        perm = []
        for j in range(self.n + 1):
            diff = self.rho[(1, j)] - self.rho[(1, j - 1)]
            idx = diff.unit_index()
            if idx is None:
                raise MirrorModelError(
                    f"rho differences of chart {self.kseq} do not define a permutation")
            perm.append(idx)
        if sorted(perm) != list(range(self.n + 1)):
            raise MirrorModelError(f"chart {self.kseq} gave a non-permutation {perm}")
        return tuple(perm)

    def rho_multiset_ok(self) -> bool:
        """{rho_{i,j} - rho_{i,j-1}} must equal {lam_{i-1}, ..., lam_n} rowwise."""
        n = self.n
        for i in range(1, n + 2):
            diffs = sorted(
                (self.rho[(i, j)] - self.rho[(i, j - 1)]).coeffs
                for j in range(0, n - i + 2)
            )
            expect = sorted(LambdaForm.unit(n, k).coeffs for k in range(i - 1, n + 1))
            if diffs != expect:
                return False
        return True

    # ---- eliminated-edge monomials ----
    def _solve_eliminated(self) -> Dict[str, ChartMonomial]:
        graph, n = self.graph, self.n
        vindex = {v: k for k, v in enumerate(graph.vertices)}
        ncols = len(self.positions) + n

        def as_column(tvec: Mapping[Tuple[int, int], int]) -> List[int]:
            col = [0] * len(vindex)
            for v, c in tvec.items():
                col[vindex[v]] = c
            return col

        cols = [as_column(graph.edge_t_vector(self.chart_edges[p])) for p in self.positions]
        cols += [as_column(graph.q_t_vector(k)) for k in range(1, n + 1)]
        targets = {p: as_column(graph.edge_t_vector(self.partner_edges[p]))
                   for p in self.positions}

        # Gauss-Jordan elimination in integers.  Every column is the
        # head-minus-tail incidence vector of an edge of a directed graph, so
        # the system is totally unimodular: each pivot is +-1 and no fraction
        # ever appears.  A larger pivot means the graph itself is wrong.
        nrows = len(vindex)
        aug = [[cols[c][r] for c in range(ncols)] + [targets[p][r] for p in self.positions]
               for r in range(nrows)]
        row = 0
        for col in range(ncols):
            piv = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
            if piv is None:
                raise MonomialSolveError(f"chart {self.kseq}: rank deficiency at column {col}")
            aug[row], aug[piv] = aug[piv], aug[row]
            unit = aug[row][col]
            if unit not in (1, -1):
                raise MonomialSolveError(
                    f"chart {self.kseq}: non-unit pivot {unit} at column {col}")
            if unit == -1:
                aug[row] = [-x for x in aug[row]]
            for r in range(nrows):
                if r != row and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
            row += 1
        for r in range(row, nrows):
            if any(x != 0 for x in aug[r][ncols:]):
                raise MonomialSolveError(f"chart {self.kseq}: inconsistent relation system")

        out: Dict[str, ChartMonomial] = {}
        for t, p in enumerate(self.positions):
            sol = [aug[r][ncols + t] for r in range(ncols)]
            w_exps = tuple(
                (self.positions[c], sol[c])
                for c in range(len(self.positions)) if sol[c] != 0
            )
            q_exps = tuple(sol[len(self.positions) + k] for k in range(n))
            out[self.partner_edges[p]] = ChartMonomial(w_exps, q_exps)
        return out

    def edge_monomial(self, name: str) -> ChartMonomial:
        """Any edge as a monomial in chart variables and q."""
        for p, chart_name in self.chart_edges.items():
            if chart_name == name:
                return ChartMonomial(((p, 1),), (0,) * self.n)
        return self.eliminated[name]

    def relations_hold(self) -> bool:
        """Substituting the monomials turns every box/roof into an identity."""
        n = self.n

        def total(name: str) -> Tuple[Tuple[Tuple[int, int], int], ...]:
            m = self.edge_monomial(name)
            return m

        def combine(m1: ChartMonomial, m2: ChartMonomial):
            w: Dict[Tuple[int, int], int] = dict(m1.w_exps)
            for k, v in m2.w_exps:
                w[k] = w.get(k, 0) + v
            w = {k: v for k, v in w.items() if v != 0}
            q = tuple(a + b for a, b in zip(m1.q_exps, m2.q_exps))
            return w, q

        for (vname, uname, u2name, v2name) in self.graph.boxes:
            lhs = combine(total(vname), total(uname))
            rhs = combine(total(u2name), total(v2name))
            if lhs != rhs:
                return False
        for (uname, vname, qk) in self.graph.roofs:
            lhs = combine(total(uname), total(vname))
            qvec = tuple(1 if k == qk - 1 else 0 for k in range(n))
            if lhs != ({}, qvec):
                return False
        return True

    def report(self) -> dict:
        """Machine-readable chart summary."""
        return {
            "k_sequence": list(self.kseq),
            "permutation": list(self.permutation),
            "rho": {
                f"{i},{j}": self.rho[(i, j)].report()
                for (i, j) in sorted(self.rho)
            },
            "exponents": {
                f"{i},{j}": self.sigma[(i, j)].report()
                for (i, j) in sorted(self.sigma)
            },
        }


def make_chart(graph: MirrorGraph, kseq: Sequence[int]) -> SigmaChart:
    return SigmaChart(graph, kseq)


def all_k_sequences(n: int) -> List[Tuple[int, ...]]:
    ranges = [range(n - i + 2) for i in range(1, n + 1)]
    return [tuple(k) for k in itertools.product(*ranges)]


def enumerate_charts(graph: MirrorGraph) -> List[SigmaChart]:
    return [SigmaChart(graph, k) for k in all_k_sequences(graph.n)]


# ---------------------------------------------------------------------------
# Phase function in a chart.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChartPhase:
    """The phase in one chart at one lambda, in log coordinates s = ln w:

        f(s) = sum_m exp(A_m . s + B_m . ln q) + sigma . s,

    and the critical value adds rho . ln q.  The rows of A and B are the
    monomials: the d chart variables w_ij themselves, then their eliminated
    partners r_ij(w, q).  sigma(i, j) and rho_{1,i-1} are the chart's
    log-coefficients evaluated at lambda.  Every numeric consumer (Newton
    continuation, quadrature, the checks) reads f, its exponentials, its
    gradient and its Hessian from here.
    """

    A: np.ndarray                        # (2d, d) exponents of w
    B: np.ndarray                        # (2d, n) exponents of q
    sigma: np.ndarray                    # (d,)
    rho: np.ndarray                      # (n,)
    chart: Optional[SigmaChart] = None
    lam: Tuple[float, ...] = ()

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def exponentials(self, s: np.ndarray, lnq: np.ndarray) -> np.ndarray:
        return np.exp(self.A @ s + self.B @ lnq)

    def value(self, s: np.ndarray, lnq: np.ndarray) -> np.ndarray:
        return self.exponentials(s, lnq).sum() + self.sigma @ s

    def gradient(self, s: np.ndarray, lnq: np.ndarray) -> np.ndarray:
        return self.A.T @ self.exponentials(s, lnq) + self.sigma

    def hessian(self, s: np.ndarray, lnq: np.ndarray) -> np.ndarray:
        return (self.A.T * self.exponentials(s, lnq)) @ self.A

    def start_point(self) -> np.ndarray:
        """Log coordinates of the q = 0 critical point, w_ij = -sigma(i, j).

        x + c ln x has its unique critical point at x = -c, so each chart
        factor starts there; a vanishing exponent makes the start degenerate.
        """
        small = np.abs(self.sigma) < 1e-12
        if small.any():
            p = self.chart.positions[int(small.argmax())]
            raise DegenerateParameterError(
                f"exponent sigma{p} vanishes at lambda={self.lam}; "
                "critical start point undefined (choose generic lambda)", self.chart.kseq)
        return np.log((-self.sigma).astype(complex))


def phase_in_chart(chart: SigmaChart, lam: Sequence[float]) -> ChartPhase:
    """The chart's phase at lambda; every eliminated edge must carry q."""
    lam = tuple(float(x) for x in lam)
    if len(lam) != chart.n + 1:
        raise MirrorModelError("lambda vector has wrong length")
    dim = len(chart.positions)
    A = np.zeros((2 * dim, dim))
    B = np.zeros((2 * dim, chart.n))
    A[:dim] = np.eye(dim)
    for k, p in enumerate(chart.positions):
        r = chart.eliminated[chart.partner_edges[p]]
        if r.q_degree() < 1:
            raise MonomialSolveError(
                f"chart {chart.kseq}: eliminated edge at {p} carries no q factor")
        for pos, e in r.w_exps:
            A[dim + k, chart.position_index[pos]] = e
        B[dim + k] = r.q_exps
    sigma = np.array([float(chart.sigma[p].evaluate(lam)) for p in chart.positions])
    rho = np.array([float(chart.rho[(1, i)].evaluate(lam)) for i in range(chart.n)])
    return ChartPhase(A, B, sigma, rho, chart, lam)


# ---------------------------------------------------------------------------
# Exact consistency between vertex and chart descriptions.
# ---------------------------------------------------------------------------

def phase_consistency(chart: SigmaChart) -> bool:
    """The chart expression equals the vertex-coordinate phase, exactly.

    Exponential parts agree by construction (chart variable plus partner at
    every slot); here the log parts are compared as lambda-forms after the
    substitution lam_n = -(lam_0 + ... + lam_{n-1}).
    """
    graph, n = chart.graph, chart.n
    # coefficient of ln w_p and of ln q_k implied by the edge weights
    w_acc: Dict[Tuple[int, int], LambdaForm] = {p: LambdaForm.zero(n) for p in chart.positions}
    q_acc: List[LambdaForm] = [LambdaForm.zero(n) for _ in range(n)]
    for name, weight in graph.weights.items():
        mono = chart.edge_monomial(name)
        for pos, e in mono.w_exps:
            w_acc[pos] = w_acc[pos] + weight.scale(e)
        for k, e in enumerate(mono.q_exps):
            if e:
                q_acc[k] = q_acc[k] + weight.scale(e)
    for k, p in enumerate(chart.positions):
        if w_acc[p].reduce_last() != chart.sigma[p].reduce_last():
            return False
    for k in range(n):
        if q_acc[k].reduce_last() != chart.rho[(1, k)].reduce_last():
            return False
    return True


def weight_balance_ok(graph: MirrorGraph) -> bool:
    """lambda part of df/dT_{k,i} is lam_{k-1} - lam_k after sum(lam) = 0."""
    n = graph.n
    for k in range(1, n + 1):
        for i in range(n - k + 1):
            _, lam = graph.gradient_at(k, i)
            target = LambdaForm.unit(n, k - 1) - LambdaForm.unit(n, k)
            if lam.reduce_last() != target.reduce_last():
                return False
    return True
