"""Trip-conditioned transition matrices on the dual graph and their
stationary distributions (weighted PageRank with damping factor 1).

Transition probabilities are Laplace smoothed: the probability of continuing
from segment u into segment v is (count(u, v) + 1) / (count(u, *) + out(u)),
where counts come from consecutive edge pairs observed in trips. A vertex
with no trips therefore falls back to the uniform 1/out(u) of the unweighted
random walk.

With damping 1, power iteration on a grid-like dual needs on the order of
diameter^2 steps. The stationary vector is instead solved exactly, one sparse
LU factorization per closed class of the chain: pinning one unknown to 1 and
dropping its equation turns the singular (I - P^T) v = 0 into a regular
system (Stewart, Introduction to the Numerical Solution of Markov Chains,
1994, ch. 2-3).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

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
    pattern. Dead-end rows (dual vertices with no outgoing dual edge) are
    kept implicit: the ``dangling`` mask marks them and they behave as a
    uniform 1/n row everywhere the matrix is applied.
    """

    tag: int
    matrix: sp.csr_matrix
    dangling: np.ndarray
    edge_probs: Optional[np.ndarray] = None  # aligned with the dual edge list

    def __post_init__(self):
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n):
            raise ValueError("transition matrix must be square")
        if self.dangling.shape != (n,):
            raise ValueError("dangling mask must have one flag per dual vertex")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply_transpose(self, v: np.ndarray) -> np.ndarray:
        """Return M^T v including the implicit uniform dead-end rows."""
        out = self.matrix.T @ v
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

    matrix = sp.csr_matrix(
        (probs, dual.edge_dst, dual.out_indptr), shape=(n, n)
    )
    return TransitionMatrix(
        tag=tag, matrix=matrix, dangling=np.asarray(out_deg == 0), edge_probs=probs
    )


def transition_matrices(dual: DualGraph, partitions: Sequence[TripSet]) -> list[TransitionMatrix]:
    """One transition matrix per tag from already-partitioned trips."""
    return [dual_weights(dual, trips_k, tag=k) for k, trips_k in enumerate(partitions)]


def _closed_classes(m: TransitionMatrix) -> list[np.ndarray]:
    """Members of each closed class of the repaired chain.

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
    return [np.flatnonzero(labels == lab) for lab in np.flatnonzero(~open_)]


def _pinned_system(
    m: TransitionMatrix, members: np.ndarray
) -> tuple[sp.csc_matrix, np.ndarray, bool]:
    """(I - P^T) x = 0 on one closed class with one unknown pinned to 1.

    Returns (A, b, relay). A class holding a dead end is the whole chain, and
    the pinned unknown is its relay vertex: the relay's uniform row enters
    only b = 1/n, never the factor, and x is the class vector. Otherwise the
    first member is pinned, its row and column are dropped, and x is the
    class vector without that member.
    """
    sub = m.matrix if len(members) == m.n else m.matrix[members][:, members]
    a = sp.identity(len(members), format="csc") - sub.T
    if m.dangling[members].any():
        return a, np.full(len(members), 1.0 / len(members)), True
    return a[1:, 1:], sub[0].toarray().ravel()[1:], False


def pagerank(m: TransitionMatrix, tol: float = DEFAULT_TOL, max_iters: int = 3) -> PageRankVector:
    """Stationary distribution of the dual-graph chain by one sparse LU per
    closed class.

    The returned vector v satisfies ||M^T v - v||_1 <= tol and sums to 1.
    Each closed class is solved exactly with one unknown pinned, then
    normalized; when the combined vector misses tol, up to max_iters steps
    of iterative refinement against the same factors follow
    (``iterations`` counts them). On a reducible chain (disconnected
    networks) the class vectors are combined proportionally to class size;
    transient vertices get zero and a warning lists them. Raises
    ConvergenceError when tol is still missed or a non-finite value appears.
    """
    n = m.n
    if n == 0:
        raise ValueError("empty transition matrix")
    closed = _closed_classes(m)
    total = sum(len(c) for c in closed)
    if len(closed) > 1 or total < n:
        transient = np.setdiff1d(np.arange(n), np.concatenate(closed))
        logger.warning(
            "dual graph is reducible: %d closed component(s), %d unreachable "
            "(transient) dual vertices %s get zero mass",
            len(closed),
            len(transient),
            transient[:10].tolist(),
        )

    systems = []
    for members in closed:
        a, b, relay = _pinned_system(m, members)
        lu = splu(a, permc_spec="COLAMD", panel_size=1, relax=1)
        systems.append((members, a, b, relay, lu))
    xs = [lu.solve(b) for _, _, b, _, lu in systems]
    steps = 0
    while True:
        v = np.zeros(n)
        for (members, _, _, relay, _), x in zip(systems, xs):
            full = x if relay else np.concatenate(([1.0], x))
            v[members] = full * (len(members) / total / full.sum())
        residual = float(np.abs(m.apply_transpose(v) - v).sum())
        if not np.isfinite(residual):
            raise ConvergenceError("stationary solve produced a non-finite value", residual, steps)
        if residual <= tol:
            return PageRankVector(tag=m.tag, values=v, iterations=steps, residual=residual)
        if steps >= max_iters:
            raise ConvergenceError("stationary solve misses tolerance", residual, steps)
        xs = [x + lu.solve(b - a @ x) for (_, a, b, _, lu), x in zip(systems, xs)]
        steps += 1


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
