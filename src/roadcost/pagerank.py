"""Trip-conditioned transition matrices on the dual graph and their
stationary distributions (weighted PageRank with damping factor 1).

Transition probabilities are Laplace smoothed: the probability of continuing
from segment u into segment v is (count(u, v) + 1) / (count(u, *) + out(u)),
where counts come from consecutive edge pairs observed in trips. A vertex
with no trips therefore falls back to the uniform 1/out(u) of the unweighted
random walk.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError
from .graph import DualGraph
from .trips import TripSet

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10
# grid-like duals mix slowly (spectral gap ~ 1/diameter^2); 1e-10 on a
# 100k-segment network needs a few tens of thousands of iterations
DEFAULT_MAX_ITERS = 100_000


@dataclass
class TransitionMatrix:
    """Row-stochastic transition matrix over dual vertices for one tag.

    ``matrix`` holds the explicit probabilities on the dual-edge sparsity
    pattern. Dead-end rows (dual vertices with no outgoing dual edge) are
    kept implicit: the ``dangling`` mask marks them and they behave as a
    uniform 1/n row everywhere the matrix is applied.
    """

    tag: int
    matrix: sp.csr_matrix
    dangling: np.ndarray
    edge_probs: Optional[np.ndarray] = None  # aligned with the dual edge list
    _mt: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n):
            raise ValueError("transition matrix must be square")
        if self.dangling.shape != (n,):
            raise ValueError("dangling mask must have one flag per dual vertex")
        self._mt = self.matrix.T.tocsr()

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_dense(cls, dense: np.ndarray, tag: int = 0) -> "TransitionMatrix":
        """Wrap an explicit matrix; all-zero rows are treated as dead ends."""
        dense = np.asarray(dense, dtype=float)
        row_sums = dense.sum(axis=1)
        dangling = row_sums == 0
        if not np.allclose(row_sums[~dangling], 1.0, atol=1e-9):
            raise ValueError("non-empty rows must sum to 1")
        return cls(tag=tag, matrix=sp.csr_matrix(dense), dangling=dangling)

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        """Return M^T v including the implicit uniform dead-end rows."""
        out = self._mt @ v
        if self.dangling.any():
            out = out + v[self.dangling].sum() / self.n
        return out

    def row_sums(self) -> np.ndarray:
        sums = np.asarray(self.matrix.sum(axis=1)).ravel()
        sums[self.dangling] = 1.0
        return sums

    def dense(self) -> np.ndarray:
        """Materialize the full matrix, dead-end repair included."""
        out = self.matrix.toarray()
        out[self.dangling, :] = 1.0 / self.n
        return out


@dataclass(frozen=True)
class PageRankVector:
    """Stationary distribution over dual vertices for one tag."""

    tag: int
    values: np.ndarray
    iterations: int = 0
    residual: float = 0.0


def dual_weights(dual: DualGraph, trips_k: TripSet, tag: int = 0) -> TransitionMatrix:
    """Laplace-smoothed transition probabilities for one tag's trips.

    Each consecutive record pair inside a trip that matches an existing dual
    edge contributes one occurrence; a trip looping through the same
    junction twice contributes twice.
    """
    n = dual.n_vertices
    table = trips_k.table
    same_trip = table.trip[1:] == table.trip[:-1]
    pairs = table.edge[:-1][same_trip] * n + table.edge[1:][same_trip]
    pairs = pairs[np.isin(pairs, dual.edge_keys)]
    counts = np.bincount(np.searchsorted(dual.edge_keys, pairs), minlength=dual.n_edges)

    out_deg = dual.out_degrees()
    row_totals = np.bincount(dual.edge_src, weights=counts, minlength=n)
    denom = (row_totals + out_deg)[dual.edge_src]
    probs = (counts + 1.0) / denom

    matrix = sp.csr_matrix(
        (probs, dual.edge_dst, dual.out_indptr), shape=(n, n)
    )
    return TransitionMatrix(
        tag=tag, matrix=matrix, dangling=np.asarray(out_deg == 0), edge_probs=probs
    )


def transition_matrices(dual: DualGraph, partitions: Sequence[TripSet]) -> list[TransitionMatrix]:
    """One transition matrix per tag from already-partitioned trips."""
    return [dual_weights(dual, trips_k, tag=k) for k, trips_k in enumerate(partitions)]


def _power_iteration(
    apply_t, n: int, tol: float, max_iters: int
) -> tuple[np.ndarray, int, float]:
    """Iterate v <- M^T v from uniform until ||M^T v - v||_1 <= tol.

    When the residual stops decreasing for 10 consecutive iterations
    (periodic chains oscillate), switches to averaged updates
    v <- (v + M^T v) / 2, which keeps the same stationary distribution.
    """
    v = np.full(n, 1.0 / n)
    history: list[float] = []
    averaging = False
    for it in range(max_iters):
        w = apply_t(v)
        residual = float(np.abs(w - v).sum())
        if residual <= tol:
            return v, it, residual
        s = w.sum()
        if s <= 0:
            raise ConvergenceError("mass vanished during power iteration", np.inf, it)
        w = w / s
        history.append(residual)
        if not averaging and len(history) >= 11:
            recent = history[-11:]
            if all(b >= a for a, b in zip(recent, recent[1:])):
                averaging = True
                logger.debug("power iteration oscillating; switching to averaged updates")
        v = 0.5 * (v + w) if averaging else w
    raise ConvergenceError(
        "power iteration did not converge",
        history[-1] if history else float("inf"),
        max_iters,
    )


def _closed_classes(m: TransitionMatrix) -> tuple[np.ndarray, list[np.ndarray]]:
    """Strongly connected components of the repaired chain and the closed ones.

    A dead-end row reaches every vertex, so it is modeled with one virtual
    relay vertex instead of n explicit edges. A component is closed when no
    probability leaves it.
    """
    n = m.n
    coo = m.matrix.tocoo()
    rows, cols = list(coo.row), list(coo.col)
    dangling_idx = np.nonzero(m.dangling)[0]
    if len(dangling_idx):
        virtual = n
        rows += list(dangling_idx) + [virtual] * n
        cols += [virtual] * len(dangling_idx) + list(range(n))
        size = n + 1
    else:
        size = n
    pattern = sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(size, size)
    )
    _, labels_full = connected_components(pattern, directed=True, connection="strong")
    labels = labels_full[:n]

    open_labels = set()
    for u, v in zip(coo.row, coo.col):
        if labels[u] != labels[v]:
            open_labels.add(labels[u])
    for u in dangling_idx:
        members = labels == labels[u]
        if members.sum() < n:
            open_labels.add(labels[u])
    closed = [
        np.nonzero(labels == lab)[0]
        for lab in np.unique(labels)
        if lab not in open_labels
    ]
    return labels, closed


def pagerank(
    m: TransitionMatrix,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> PageRankVector:
    """Stationary distribution of the dual-graph chain by power iteration.

    The returned vector v satisfies ||M^T v - v||_1 <= tol and sums to 1.
    On a reducible chain (disconnected networks) the stationary mass is
    computed per closed component and combined proportionally to component
    size; transient vertices get zero and a warning lists them.
    """
    n = m.n
    if n == 0:
        raise ValueError("empty transition matrix")
    labels, closed = _closed_classes(m)
    if len(closed) == 1 and len(closed[0]) == n:
        v, iters, residual = _power_iteration(m.apply_transpose, n, tol, max_iters)
        return PageRankVector(tag=m.tag, values=v, iterations=iters, residual=residual)

    recurrent = np.zeros(n, dtype=bool)
    for members in closed:
        recurrent[members] = True
    transient = np.nonzero(~recurrent)[0]
    logger.warning(
        "dual graph is reducible: %d closed component(s), %d unreachable "
        "(transient) dual vertices %s get zero mass",
        len(closed),
        len(transient),
        transient[:10].tolist(),
    )

    total = sum(len(c) for c in closed)
    v = np.zeros(n)
    iters_total = 0
    for members in closed:
        scale = len(members) / total
        sub = m.matrix[members][:, members].tocsr()
        pi, iters, _ = _power_iteration(lambda x: sub.T @ x, len(members), tol, max_iters)
        v[members] = scale * pi
        iters_total += iters
    residual = float(np.abs(m.apply_transpose(v) - v).sum())
    if residual > tol:
        raise ConvergenceError("combined stationary vector misses tolerance", residual, iters_total)
    return PageRankVector(tag=m.tag, values=v, iterations=iters_total, residual=residual)


def pagerank_stats(pr: PageRankVector) -> tuple[np.ndarray, float]:
    """Histogram of normalized PageRank values over 100 buckets.

    Values are scaled so the maximum maps to 100; bucket b (1-based) counts
    vertices with scaled value in (b-1, b]. Returns (percentages, max value);
    the percentages sum to 100. Zero entries (possible only on reducible
    graphs) land in the first bucket.
    """
    values = pr.values
    vmax = float(values.max()) if len(values) else 0.0
    if vmax <= 0:
        raise ValueError("PageRank vector has no positive entries")
    scaled = np.minimum(100.0 * values / vmax, 100.0)
    buckets = np.maximum(np.ceil(scaled).astype(int), 1)
    histogram = np.bincount(buckets, minlength=101)[1:101].astype(float)
    return 100.0 * histogram / len(values), vmax


@dataclass(frozen=True)
class DegreeStats:
    """Dual-graph degree summary: sizes, extreme degrees, average degree."""

    n_vertices: int
    n_edges: int
    max_in: int
    max_out: int
    avg_degree: float
    in_hist: np.ndarray
    out_hist: np.ndarray


def degree_stats(dual: DualGraph) -> DegreeStats:
    """Degree statistics of the dual adjacency; average degree is |E'|/|V'|."""
    ins = dual.in_degrees()
    outs = dual.out_degrees()
    return DegreeStats(
        n_vertices=dual.n_vertices,
        n_edges=dual.n_edges,
        max_in=int(ins.max(initial=0)),
        max_out=int(outs.max(initial=0)),
        avg_degree=dual.n_edges / dual.n_vertices if dual.n_vertices else 0.0,
        in_hist=np.bincount(ins),
        out_hist=np.bincount(outs),
    )
