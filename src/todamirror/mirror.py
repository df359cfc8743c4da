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

The chart layer is integer arithmetic.  A `LambdaForm` is one int tuple
`num` over one positive int `den`, reduced by their gcd.  A chart's tables
come from insertion words: w_{n+1} = [n], and w_i is w_{i+1} with the letter
i - 1 inserted at slot k_i.  rho(i, j) sums lam over the first j + 1 letters
of w_i, sigma(i, j) is the unit difference lam_{i-1} - lam_{w_i[j]} (u-slot)
or lam_{w_i[j+1]} - lam_{i-1} (v-slot), and the permutation is w_1.  The
forms are shared, immutable entries of tables on the `MirrorGraph` (the
(n+1)^2 unit differences and the subset sums), which also holds everything
else that depends only on n: the slot positions, edge names, the box/roof
matrix R and the report keys.  Each chart solves its monomial relations
once, by substitution from the top row down, into one int64 exponent matrix
E: a row per edge (the d chart edges, then their eliminated partners) and a
column per chart variable w_0..w_{d-1}, then q_1..q_n.
`eliminated`, `edge_monomial` and `phase_in_chart` read E, and the exact
checks are integer matrix identities on it: R E = [0; e_{q_k}] for the
box/roof matrix R, and E^T W = [sigma; rho_1] for the edge weights W after
lam_n = -(lam_0 + ... + lam_{n-1}).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np


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


def check_lambda(lam: Sequence[float], n: int) -> Tuple[float, ...]:
    """lambda as n + 1 floats summing to zero, to rounding of its largest entry."""
    lam = tuple(float(x) for x in lam)
    if len(lam) != n + 1:
        raise DegenerateParameterError(f"lambda must have length {n + 1}")
    if abs(sum(lam)) > 1e-12 * max(1.0, max(abs(x) for x in lam)):
        raise DegenerateParameterError("lambda must sum to zero")
    return lam


def check_q(q: Sequence[float], n: int) -> Tuple[float, ...]:
    """q as n positive floats."""
    q = tuple(float(x) for x in q)
    if len(q) != n or any(x <= 0 for x in q):
        raise DegenerateParameterError("q must be a positive vector of length n")
    return q


# ---------------------------------------------------------------------------
# Linear forms in lam_0..lam_n.
# ---------------------------------------------------------------------------

class LambdaForm:
    """Exact linear form (num_0 lam_0 + ... + num_n lam_n) / den.

    `num` is a tuple of ints and `den` a positive int, reduced by their
    common gcd, so equal forms store equal data and `==`/`hash` compare it.
    `coeffs` gives the coefficients as Fractions.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Sequence[Fraction]):
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        # lowest-terms coefficients over the lcm of their denominators are
        # already coprime to it
        _set_num(self, tuple(c.numerator * (den // c.denominator) for c in coeffs))
        _set_den(self, den)

    @staticmethod
    def _of(num: Tuple[int, ...], den: int = 1) -> "LambdaForm":
        """The form num / den (den > 0), reduced."""
        g = math.gcd(den, *num) if den != 1 else 1
        if g != 1:
            num, den = tuple(x // g for x in num), den // g
        out = object.__new__(LambdaForm)
        _set_num(out, num)
        _set_den(out, den)
        return out

    def __setattr__(self, *a):
        raise AttributeError("LambdaForm is immutable")

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    @classmethod
    def zero(cls, n: int) -> "LambdaForm":
        return cls._of((0,) * (n + 1))

    @classmethod
    def unit(cls, n: int, i: int) -> "LambdaForm":
        return cls._of((0,) * i + (1,) + (0,) * (n - i))

    def _combine(self, other: "LambdaForm", op) -> "LambdaForm":
        a, b, den = self.num, other.num, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            a = tuple(x * (den // self.den) for x in a)
            b = tuple(x * (den // other.den) for x in b)
        return LambdaForm._of(tuple(map(op, a, b)), den)

    def __add__(self, other: "LambdaForm") -> "LambdaForm":
        return self._combine(other, operator.add)

    def __sub__(self, other: "LambdaForm") -> "LambdaForm":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "LambdaForm":
        return LambdaForm._of(tuple(-x for x in self.num), self.den)

    def scale(self, c) -> "LambdaForm":
        c = Fraction(c)
        return LambdaForm._of(tuple(x * c.numerator for x in self.num),
                              self.den * c.denominator)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LambdaForm) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def reduce_last(self) -> "LambdaForm":
        """Substitute lam_n = -(lam_0 + ... + lam_{n-1}); last slot becomes 0."""
        cn = self.num[-1]
        if cn == 0:
            return self
        return LambdaForm._of(tuple(x - cn for x in self.num[:-1]) + (0,), self.den)

    def evaluate(self, lam: Sequence) -> object:
        acc = None
        for c, v in zip(self.coeffs, lam):
            term = v * c if isinstance(v, (int, Fraction)) else float(c) * v
            acc = term if acc is None else acc + term
        return acc if acc is not None else Fraction(0)

    def report(self) -> List[str]:
        """Each coefficient as "p/q" in lowest terms, as `format_rational`."""
        return list(_form_text(self.num, self.den))

    def __repr__(self):
        terms = [f"{c}*lam{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "LambdaForm(" + (" + ".join(terms) if terms else "0") + ")"


_set_num = LambdaForm.num.__set__
_set_den = LambdaForm.den.__set__


@functools.lru_cache(maxsize=1 << 12)
def _form_text(num: Tuple[int, ...], den: int) -> Tuple[str, ...]:
    """`LambdaForm.report` of num / den; the charts of one n share a few
    hundred forms."""
    return tuple(f"{x // math.gcd(x, den)}/{den // math.gcd(x, den)}" for x in num)


def _form_matrix(forms: List[LambdaForm]) -> Tuple[np.ndarray, int]:
    """The forms as integer rows over their common denominator: (M, den)."""
    den = math.lcm(*(f.den for f in forms))
    return np.array([f.num if f.den == den else [x * (den // f.den) for x in f.num]
                     for f in forms], dtype=np.int64), den


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
        self.dimension = d = n * (n + 1) // 2
        self.edge_row = {name: k for k, name in enumerate(self.edges)}
        self._weight_rows: Optional[tuple] = None
        # ---- what every chart of this graph shares ----
        # slot c = positions[c] is a non-top vertex (i, j), which owns the
        # edges u[i,j] and v[i,j] (edges 2c and 2c + 1)
        self.positions: Tuple[Tuple[int, int], ...] = tuple(self.vertices[n + 1:])
        self.position_index = {p: c for c, p in enumerate(self.positions)}
        names = list(self.edges)
        self.slot_edges = tuple(zip(names[0::2], names[1::2]))
        self.vertex_index = {v: k for k, v in enumerate(self.vertices)}
        self.heads, self.tails = np.array([(self.vertex_index[e.head], self.vertex_index[e.tail])
                                           for e in self.edges.values()], dtype=np.int64).T
        # vertex log-coordinates over w_0..w_{d-1}, q_1..q_n: the top row
        # from ln q_k = t_(0,k) - t_(0,k-1) with t_(0,0) = 0
        self.top_rows = np.zeros((len(self.vertices), d + n), dtype=np.int64)
        self.top_rows[1:n + 1, d:] = np.tri(n, dtype=np.int64)
        self.chart_rows = np.eye(d, d + n, dtype=np.int64)  # E's rows for w_0..w_{d-1}
        # the sigma entries: lam_a - lam_b, by [a][b]
        self.unit_differences = [[LambdaForm._of(tuple((k == a) - (k == b) for k in range(n + 1)))
                                  for b in range(n + 1)] for a in range(n + 1)]
        # rho steps: unit_rows[m] holds the units e_m, ..., e_n as int tuples
        self.unit_rows = [{tuple(int(x == k) for x in range(n + 1)) for k in range(m, n + 1)}
                          for m in range(n + 1)]
        # the rho entries: sums of lam_k over subsets, by bit mask, on demand
        self._subset_forms: Dict[int, LambdaForm] = {}
        # box/roof relations in log form, v + u - u' - v' and u + v, over the
        # edges in graph order, and R E's target: 0 on a box, e_{q_k} on a roof
        self.relations = np.zeros((len(self.boxes) + len(self.roofs), len(names)), dtype=np.int64)
        self.relation_target = np.zeros((len(self.relations), d + n), dtype=np.int64)
        for r, box in enumerate(self.boxes):
            for name, sign in zip(box, (1, 1, -1, -1)):
                self.relations[r, self.edge_row[name]] += sign
        for r, (u, v, qk) in enumerate(self.roofs, len(self.boxes)):
            self.relations[r, [self.edge_row[u], self.edge_row[v]]] = 1
            self.relation_target[r, d + qk - 1] = 1
        # chart report keys, sorted as (i, j)
        self.rho_keys = tuple((p, f"{p[0]},{p[1]}") for p in sorted(
            (i, j) for i in range(1, n + 2) for j in range(-1, n - i + 2)))
        self.sigma_keys = tuple((p, f"{p[0]},{p[1]}") for p in self.positions)

    def subset_form(self, mask: int) -> LambdaForm:
        """The sum of lam_k over the bits k of `mask`."""
        form = self._subset_forms.get(mask)
        if form is None:
            form = self._subset_forms[mask] = LambdaForm._of(
                tuple((mask >> k) & 1 for k in range(self.n + 1)))
        return form

    def weight_matrix(self) -> Tuple[np.ndarray, int]:
        """The edge weights as integer rows over their common denominator, in
        edge order (row `edge_row[name]`): (M, den), rebuilt only when
        `weights` changes."""
        forms = tuple(self.weights.values())
        if self._weight_rows is None or self._weight_rows[0] != forms:
            self._weight_rows = (forms, *_form_matrix(list(forms)))
        return self._weight_rows[1:]

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
        return self._gradient([("u", k, i, +1), ("v", k, i, -1),
                               ("u", k + 1, i, -1), ("v", k + 1, i - 1, +1)])

    def _gradient(self, combos) -> Tuple[Dict[str, int], LambdaForm]:
        """The signed edges among `combos` that exist, and their signed weights."""
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
        return {e.head: 1, e.tail: -1}

    def phase_value(self, t_coords: Mapping[Tuple[int, int], float],
                    lam: Sequence[float]) -> float:
        """Numeric phase at given vertex coordinates (edges all positive)."""
        total = 0.0
        for name in self.edges:
            log_edge = sum(c * t_coords[v] for v, c in self.edge_t_vector(name).items())
            weight = float(self.weights[name].evaluate(lam))
            total += math.exp(log_edge) + weight * log_edge
        return total


def build_graph(n: int) -> MirrorGraph:
    return MirrorGraph(n)


# ---------------------------------------------------------------------------
# Sigma-charts.
# ---------------------------------------------------------------------------

class ChartMonomial:
    """Monomial prod w_{ij}^{a_{ij}} prod q_k^{b_k}: a view of one row of E."""

    __slots__ = ("row", "positions")

    def __init__(self, row: np.ndarray, positions: Sequence[Tuple[int, int]]):
        self.row = row
        self.positions = positions

    @property
    def w_exps(self) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        """((i, j), exponent) pairs with a nonzero exponent."""
        return tuple((p, e) for p, e in zip(self.positions, self.row.tolist()) if e)

    @property
    def q_exps(self) -> Tuple[int, ...]:
        return tuple(self.row[len(self.positions):].tolist())

    def q_degree(self) -> int:
        return sum(self.q_exps)


class SigmaChart:
    """Coordinate chart selected by a k-sequence.

    In row i the first k_i slots take the u-edge as coordinate, the rest the
    v-edge.  The chart carries the weight table rho, the log-coefficients
    sigma(i, j) of the phase, the permutation the chart induces, and the
    exponent matrix E: row k < d is the chart edge at positions[k] (the
    variable w_k itself), row d + k its eliminated partner, and the columns
    are the exponents of w_0..w_{d-1} followed by those of q_1..q_n.

    rho, sigma and the permutation come from the insertion words w_i (see
    the module docstring): row i's rho-differences are lam_{w_i[0]}, ...,
    lam_{w_i[n-i+1]}.
    """

    def __init__(self, graph: MirrorGraph, kseq: Sequence[int]):
        n = graph.n
        kseq = tuple(kseq)
        if len(kseq) != n or any(not (0 <= kseq[i - 1] <= n - i + 1) for i in range(1, n + 1)):
            raise MirrorModelError(f"invalid k-sequence {kseq} for n={n}")
        self.graph = graph
        self.n = n
        self.kseq = kseq
        self.positions = graph.positions
        self.position_index = graph.position_index
        self.chart_edges: Dict[Tuple[int, int], str] = {}
        self.partner_edges: Dict[Tuple[int, int], str] = {}
        # row r of E is graph edge row_edges[r]; slot c owns edges 2c (u), 2c + 1 (v)
        chart_rows, partner_rows = [], []
        for c, ((i, j), (u, v)) in enumerate(zip(self.positions, graph.slot_edges)):
            on_u = j < kseq[i - 1]
            self.chart_edges[(i, j)], self.partner_edges[(i, j)] = (u, v) if on_u else (v, u)
            chart_rows.append(2 * c + 1 - on_u)
            partner_rows.append(2 * c + on_u)
        self.row_edges = np.array(chart_rows + partner_rows)
        # edge name -> row of E
        self.row_of: Dict[str, int] = {
            name: k for k, name in enumerate(itertools.chain(
                self.chart_edges.values(), self.partner_edges.values()))
        }
        # w_{n+1} is [] with n inserted at slot 0, so k_{n+1} = 0
        diff, ks = graph.unit_differences, kseq + (0,)
        self.rho: Dict[Tuple[int, int], LambdaForm] = {}
        self.sigma: Dict[Tuple[int, int], LambdaForm] = {}
        word: List[int] = []
        for i in range(n + 1, 0, -1):
            word.insert(ks[i - 1], i - 1)
            mask = 0
            self.rho[(i, -1)] = graph.subset_form(0)
            for j, letter in enumerate(word):
                mask |= 1 << letter
                self.rho[(i, j)] = graph.subset_form(mask)
            for j in range(n - i + 1):
                self.sigma[(i, j)] = (diff[i - 1][word[j]] if j < ks[i - 1]
                                      else diff[word[j + 1]][i - 1])
        self.permutation = tuple(word)
        self.E = self._solve_eliminated()

    def log_coefficients(self) -> Tuple[np.ndarray, int]:
        """[sigma; rho_{1,.}] (sigma in position order, then rho_{1,0..n-1})
        as integer rows over their common denominator: (M, den)."""
        return _form_matrix([self.sigma[p] for p in self.positions]
                            + [self.rho[(1, k)] for k in range(self.n)])

    def rho_multiset_ok(self) -> bool:
        """{rho_{i,j} - rho_{i,j-1}} must equal {lam_{i-1}, ..., lam_n} rowwise.

        b - a is lam_k exactly when a and b share a denominator D and their
        numerators differ by D e_k, so each row is compared as integer steps.
        """
        n, rho, units = self.n, self.rho, self.graph.unit_rows
        for i in range(1, n + 2):
            row = [rho[(i, j)] for j in range(-1, n - i + 2)]
            den = row[0].den
            if any(f.den != den for f in row):
                return False
            steps = {tuple(map(operator.sub, b.num, a.num)) for a, b in zip(row, row[1:])}
            # n - i + 2 steps against as many distinct units: equal sets are
            # equal multisets
            if steps != (units[i - 1] if den == 1 else
                         {tuple(den * x for x in e) for e in units[i - 1]}):
                return False
        return True

    # ---- the exponent matrix ----
    def _solve_eliminated(self) -> np.ndarray:
        """E by substitution from the top row down: each vertex log-coordinate
        t_v as an int row over w_0..w_{d-1}, q_1..q_n.

        The top row is the graph's; the chart edge at (i, j) joins vertex
        (i, j) to a parent in row i - 1, so t_(i,j) is its parent's row +-
        e_w; a partner edge's row is head minus tail.  Log-edges are incidence
        vectors, so the pivot on the solved vertex is +-1 unless the graph
        itself is wrong."""
        graph = self.graph
        t, index = graph.top_rows.copy(), graph.vertex_index
        for c, p in enumerate(self.positions):
            tvec = graph.edge_t_vector(self.chart_edges[p])
            unit = tvec.pop(p, 0)
            if unit not in (1, -1):
                raise MonomialSolveError(
                    f"chart {self.kseq}: non-unit pivot {unit} at vertex {p}")
            (parent, x), = tvec.items()
            row = t[index[p]]  # t_p = unit * (e_c - x t_parent)
            np.multiply(t[index[parent]], -unit * x, out=row)
            row[c] += unit
        partners = self.row_edges[len(self.positions):]
        return np.concatenate((graph.chart_rows,
                               t[graph.heads[partners]] - t[graph.tails[partners]]))

    @property
    def eliminated(self) -> Dict[str, ChartMonomial]:
        """Every eliminated edge as a monomial in chart variables and q."""
        dim = len(self.positions)
        return {name: ChartMonomial(self.E[dim + k], self.positions)
                for k, name in enumerate(self.partner_edges.values())}

    def edge_monomial(self, name: str) -> ChartMonomial:
        """Any edge as a monomial in chart variables and q."""
        return ChartMonomial(self.E[self.row_of[name]], self.positions)

    def relations_hold(self) -> bool:
        """Substituting the monomials turns every box/roof into an identity:
        with the graph's relation matrix R (a row per relation in log form, a
        column per edge), R E must vanish on the boxes and be e_{q_k} on each
        roof."""
        graph = self.graph
        return np.array_equal(graph.relations[:, self.row_edges] @ self.E, graph.relation_target)

    def report(self) -> dict:
        """Machine-readable chart summary."""
        rho, sigma = self.rho, self.sigma
        return {
            "k_sequence": list(self.kseq),
            "permutation": list(self.permutation),
            "rho": {key: rho[p].report() for p, key in self.graph.rho_keys},
            "exponents": {key: sigma[p].report() for p, key in self.graph.sigma_keys},
        }


def make_chart(graph: MirrorGraph, kseq: Sequence[int]) -> SigmaChart:
    return SigmaChart(graph, kseq)


def all_k_sequences(n: int) -> List[Tuple[int, ...]]:
    ranges = [range(n - i + 2) for i in range(1, n + 1)]
    return [tuple(k) for k in itertools.product(*ranges)]


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
    no_q = np.flatnonzero(chart.E[dim:, dim:].sum(axis=1) < 1)
    if no_q.size:
        raise MonomialSolveError(f"chart {chart.kseq}: eliminated edge at "
                                 f"{chart.positions[no_q[0]]} carries no q factor")
    A = chart.E[:, :dim].astype(float, order="C")
    B = chart.E[:, dim:].astype(float, order="C")
    # each sigma is a two-term unit difference, so this is the rounded
    # lam_a - lam_b itself
    forms, den = chart.log_coefficients()
    values = forms @ np.array(lam) / den
    return ChartPhase(A, B, values[:dim], values[dim:], chart, lam)


# ---------------------------------------------------------------------------
# Exact consistency between vertex and chart descriptions.
# ---------------------------------------------------------------------------

def phase_consistency(chart: SigmaChart) -> bool:
    """The chart expression equals the vertex-coordinate phase, exactly.

    Exponential parts agree by construction (chart variable plus partner at
    every slot).  With W the edge weights in E's row order, sum_e weight_e ln e
    has coefficient (E^T W)_c on the c-th chart variable or ln q_k; it must
    equal [sigma; rho_{1,.}] after lam_n = -(lam_0 + ... + lam_{n-1}), compared
    as integer matrices over a common denominator.
    """
    graph = chart.graph
    weights, wden = graph.weight_matrix()
    weights = weights[chart.row_edges]
    target, tden = chart.log_coefficients()
    lhs, rhs = chart.E.T @ weights * tden, target * wden
    return np.array_equal(lhs[:, :-1] - lhs[:, -1:], rhs[:, :-1] - rhs[:, -1:])


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
