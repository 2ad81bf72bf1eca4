"""Trip-conditioned transition matrices on the dual graph and their
stationary distributions (weighted PageRank with damping factor 1).

Transition probabilities are Laplace smoothed: the probability of continuing
from segment u into segment v is (count(u, v) + 1) / (count(u, *) + out(u)),
where counts come from consecutive edge pairs observed in trips. A vertex
with no trips therefore falls back to the uniform 1/out(u) of the unweighted
random walk.

With damping 1, power iteration on a grid-like dual needs on the order of
diameter^2 steps. The stationary vector is instead solved exactly, by one
sparse LU factorization that covers every closed class of the chain: pinning
one unknown of each class to 1 and dropping its equation turns the singular
(I - P^T) v = 0 into a regular system (Stewart, Introduction to the
Numerical Solution of Markov Chains, 1994, ch. 2-3).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import ConvergenceError
from .graph import DualGraph
from .trips import TripSet

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10


@dataclass
class TransitionMatrix:
    """Row-stochastic transition matrix over dual vertices for one tag.

    ``matrix`` holds the explicit probabilities on the dual-edge sparsity
    pattern, its ``data`` in dual-edge order. Dead-end rows (dual vertices
    with no outgoing dual edge) store no entry: the ``dangling`` mask marks
    them and they behave as a uniform 1/n row everywhere the matrix is applied.
    """

    tag: int
    matrix: sp.csr_matrix

    def __post_init__(self):
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n):
            raise ValueError("transition matrix must be square")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def dangling(self) -> np.ndarray:
        """The dead-end rows: those with no stored entry."""
        return np.diff(self.matrix.indptr) == 0

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        """Return M^T v including the implicit uniform dead-end rows."""
        out = self.matrix.T @ v
        dangling = self.dangling
        if dangling.any():
            out = out + v[dangling].sum() / self.n
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
    """Stationary distribution over dual vertices for one tag.

    ``iterations`` counts refinement steps after the direct solve;
    ``residual`` is ||M^T v - v||_1.
    """

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
    found = np.searchsorted(dual.edge_keys, pairs)
    hit = found < dual.n_edges  # a key above the largest dual key lands past the end
    hit[hit] = dual.edge_keys[found[hit]] == pairs[hit]
    counts = np.bincount(found[hit], minlength=dual.n_edges)

    out_deg = dual.out_degrees()
    row_totals = np.bincount(dual.edge_src, weights=counts, minlength=n)
    denom = (row_totals + out_deg)[dual.edge_src]
    probs = (counts + 1.0) / denom

    matrix = sp.csr_matrix((probs, dual.edge_dst, dual.out_indptr), shape=(n, n))
    return TransitionMatrix(tag=tag, matrix=matrix)


def transition_matrices(dual: DualGraph, partitions: Sequence[TripSet]) -> list[TransitionMatrix]:
    """One transition matrix per tag from already-partitioned trips."""
    return [dual_weights(dual, trips_k, tag=k) for k, trips_k in enumerate(partitions)]


def _closed_classes(m: TransitionMatrix) -> np.ndarray:
    """Label of each dual vertex's closed class of the repaired chain, -1 for
    transient vertices.

    A dead-end row reaches every vertex, so it is modeled with one virtual
    relay vertex instead of n explicit edges. A class is closed when no
    probability leaves it; a class holding a dead end is closed only when it
    is the whole chain.
    """
    n = m.n
    coo = m.matrix.tocoo()
    rows, cols = coo.row, coo.col
    dangling_idx = np.flatnonzero(m.dangling)
    if len(dangling_idx):
        rows = np.concatenate([rows, dangling_idx, np.full(n, n)])
        cols = np.concatenate([cols, np.full(len(dangling_idx), n), np.arange(n)])
    size = n + 1 if len(dangling_idx) else n
    pattern = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(size, size))
    n_labels, labels_full = connected_components(pattern, directed=True, connection="strong")
    labels = labels_full[:n]

    open_ = np.zeros(n_labels, dtype=bool)
    src, dst = labels[coo.row], labels[coo.col]
    open_[src[src != dst]] = True
    class_size = np.bincount(labels, minlength=n_labels)
    open_[labels[dangling_idx][class_size[labels[dangling_idx]] < n]] = True
    return np.where(open_[labels], -1, labels)


def pagerank(m: TransitionMatrix, tol: float = DEFAULT_TOL, max_iters: int = 3) -> PageRankVector:
    """Stationary distribution of the dual-graph chain by one sparse LU.

    The returned vector v satisfies ||M^T v - v||_1 <= tol and sums to 1.
    No probability leaves a closed class, so I - P^T on the closed vertices
    is block diagonal: one factor solves every class, with each class's
    first member pinned to 1 and its row and column dropped. A class holding
    a dead end is the whole chain, and its relay vertex is pinned instead: it
    enters only b = 1/n, never the factor. Each class carries mass in
    proportion to its size; transient vertices get zero and a warning lists
    them. When v misses tol, up to max_iters steps of iterative refinement
    against the factor follow (``iterations`` counts them). Raises
    ConvergenceError when tol is still missed or a non-finite value appears.
    """
    n = m.n
    if n == 0:
        raise ValueError("empty transition matrix")
    labels = _closed_classes(m)
    closed = np.flatnonzero(labels >= 0)
    _, first, cls, sizes = np.unique(
        labels[closed], return_index=True, return_inverse=True, return_counts=True
    )
    total = len(closed)
    if len(sizes) > 1 or total < n:
        transient = np.flatnonzero(labels < 0)
        logger.warning(
            "dual graph is reducible: %d closed component(s), %d unreachable "
            "(transient) dual vertices %s get zero mass",
            len(sizes),
            len(transient),
            transient[:10].tolist(),
        )

    sub = m.matrix if total == n else m.matrix[closed][:, closed]
    a = sp.identity(total, format="csc") - sub.T
    free = np.ones(total, dtype=bool)
    if m.dangling[closed].any():
        b = np.full(n, 1.0 / n)
    else:
        free[first] = False
        a, b = a[free][:, free], (sub.T @ (~free).astype(float))[free]
    lu = splu(a, permc_spec="COLAMD", panel_size=1, relax=1)
    x = lu.solve(b)
    by_class = np.argsort(cls, kind="stable")
    steps = 0
    while True:
        full = np.ones(total)
        full[free] = x
        # one ndarray.sum per class over its members in ascending order keeps
        # numpy's pairwise rounding, which a bincount of all classes changes
        parts = np.split(full[by_class], np.cumsum(sizes)[:-1])
        sums = np.array([part.sum() for part in parts])
        v = np.zeros(n)
        v[closed] = full * (sizes / total / sums)[cls]
        residual = float(np.abs(m.apply_transpose(v) - v).sum())
        if not np.isfinite(residual):
            raise ConvergenceError("stationary solve produced a non-finite value", residual, steps)
        if residual <= tol:
            return PageRankVector(tag=m.tag, values=v, iterations=steps, residual=residual)
        if steps >= max_iters:
            raise ConvergenceError("stationary solve misses tolerance", residual, steps)
        x = x + lu.solve(b - a @ x)
        steps += 1


def pagerank_stats(pr: PageRankVector) -> np.ndarray:
    """Histogram of normalized PageRank values over 100 buckets.

    Values are scaled so the maximum maps to 100; bucket b (1-based) counts
    vertices with scaled value in (b-1, b]. Returns the percentages, which
    sum to 100. Zero entries (possible only on reducible graphs) land in the
    first bucket.
    """
    values = pr.values
    vmax = float(values.max()) if len(values) else 0.0
    if vmax <= 0:
        raise ValueError("PageRank vector has no positive entries")
    scaled = np.minimum(100.0 * values / vmax, 100.0)
    buckets = np.maximum(np.ceil(scaled).astype(int), 1)
    histogram = np.bincount(buckets, minlength=101)[1:101].astype(float)
    return 100.0 * histogram / len(values)


@dataclass(frozen=True)
class DegreeStats:
    """Dual-graph degree summary: sizes, extreme degrees, average degree."""

    n_vertices: int
    n_edges: int
    max_in: int
    max_out: int
    avg_degree: float


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
    )
