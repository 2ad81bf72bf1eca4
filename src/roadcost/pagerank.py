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

P's pattern alone decides the closed classes, the pinned unknowns, the
structure of the pinned I - P^T and its column order (the symbolic half of a
sparse direct solve; Davis, Direct Methods for Sparse Linear Systems, 2006,
ch. 4-6). Smoothing makes every dual edge's probability positive, so every
tag's chain on one dual graph has the dual's pattern: a ChainPattern holds
it, DualGraph.chain_pattern builds one per dual, and every tag and fold on
that dual shares it. The first factor orders the columns (COLAMD) and then
relabels the structure into that order, each column's rows in the first
factor's stored sequence, which SuperLU follows for its pivots and updates.
Every later factor is numeric only, and the vectors equal a fresh pattern's
bitwise. Per tag on 2 vCPUs, a later call takes 0.9 ms at 12x12 (1.9 ms
before), 7 ms at 30x30 (9.5-10) and 13-14 ms at 40x40 (18-19); the first call
on a fresh dual costs what every call did before, plus the relabel (0.5-1.2
ms at 40x40).
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
# SuperLU settings of every factor in the package: no supernodes and
# one-column panels, which suit small sparse factors.
SPLU_OPTIONS = dict(panel_size=1, relax=1)


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
    junction twice contributes twice. The pair (e, f) matches one when
    heads[e] == tails[f], and that dual edge is number
    out_indptr[e] + tail_rank[f] (see DualGraph): no search.
    """
    n = dual.n_vertices
    graph, table = dual.graph, trips_k.table
    e, f = table.edge[:-1], table.edge[1:]
    pair = (table.trip[1:] == table.trip[:-1]) & (graph.heads[e] == graph.tails[f])
    e, f = e[pair], f[pair]
    counts = np.bincount(dual.out_indptr[e] + dual.tail_rank[f], minlength=dual.n_edges)

    row_totals = np.bincount(e, minlength=n)  # count(u, *): the pairs leaving u
    denom = (row_totals + dual.out_degrees())[dual.edge_src]
    probs = (counts + 1.0) / denom

    matrix = sp.csr_matrix((probs, dual.edge_dst, dual.out_indptr), shape=(n, n))
    return TransitionMatrix(tag=tag, matrix=matrix)


def transition_matrices(dual: DualGraph, partitions: Sequence[TripSet]) -> list[TransitionMatrix]:
    """One transition matrix per tag from already-partitioned trips."""
    return [dual_weights(dual, trips_k, tag=k) for k, trips_k in enumerate(partitions)]


def _closed_classes(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Label of each vertex's closed class of the repaired chain with the CSR
    pattern (indptr, indices), -1 for transient vertices; ``rows`` holds each
    entry's row.

    A dead-end row reaches every vertex, so it is modeled with one virtual
    relay vertex instead of n explicit edges. A class is closed when no
    probability leaves it; a class holding a dead end is closed only when it
    is the whole chain.
    """
    n = len(indptr) - 1
    dangling_idx = np.flatnonzero(np.diff(indptr) == 0)
    if len(dangling_idx):
        src = np.concatenate([rows, dangling_idx, np.full(n, n)])
        dst = np.concatenate([indices, np.full(len(dangling_idx), n), np.arange(n)])
        pattern = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(n + 1, n + 1))
    else:
        pattern = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    n_labels, labels_full = connected_components(pattern, directed=True, connection="strong")
    labels = labels_full[:n]

    open_ = np.zeros(n_labels, dtype=bool)
    src, dst = labels[rows], labels[indices]
    open_[src[src != dst]] = True
    class_size = np.bincount(labels, minlength=n_labels)
    open_[labels[dangling_idx][class_size[labels[dangling_idx]] < n]] = True
    return np.where(open_[labels], -1, labels)


class ChainPattern:
    """What P's CSR structure (each row's columns ascending, once each) alone
    decides about the stationary solve, shared by every chain with that
    structure (see the module doc): the closed classes with the dead-end
    relay, the pinned unknowns and class bookkeeping, the CSC structure of the
    pinned I - P^T with each entry's position in P.data, the entries of P
    that make up b. The first factor relabels the unknowns into its column
    order. Maps are int32; one closed class keeps no per-class arrays.
    Building it logs the reducible-graph warning. Only the first factor
    changes it: once that has run, concurrent chains may share the pattern.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        n = len(indptr) - 1
        if n == 0:
            raise ValueError("empty transition matrix")
        self.indptr, self.indices = indptr, indices
        rows = np.repeat(np.arange(n), np.diff(indptr))
        if (np.diff(rows * n + indices) <= 0).any():
            raise ValueError("each row of the pattern must list its columns ascending, once")
        labels = _closed_classes(indptr, indices, rows)
        closed = np.flatnonzero(labels >= 0)
        _, first, cls, sizes = np.unique(
            labels[closed], return_index=True, return_inverse=True, return_counts=True
        )
        if len(sizes) > 1 or len(closed) < n:
            transient = np.flatnonzero(labels < 0)
            logger.warning(
                "dual graph is reducible: %d closed component(s), %d unreachable "
                "(transient) dual vertices %s get zero mass",
                len(sizes),
                len(transient),
                transient[:10].tolist(),
            )
        self.n, self.total = n, len(closed)
        self._closed = None if len(closed) == n else closed.astype(np.int32)
        self._classes = None  # (cls, sizes, by_class) when there is more than one class
        if len(sizes) > 1:
            self._classes = (cls.astype(np.int32), sizes, np.argsort(cls, kind="stable"))
        self._relay = bool((np.diff(indptr)[closed] == 0).any())
        free = labels >= 0
        if not self._relay:  # the relay is pinned instead: it enters only b = 1/n
            free[closed[first]] = False
        pinned = (labels >= 0) & ~free
        self._slots = np.flatnonzero(free[closed]).astype(np.int32)  # x's places among closed
        pos, f = np.cumsum(free) - 1, len(self._slots)  # each free vertex's unknown
        keep = free[rows] & free[indices]
        off = np.flatnonzero(keep & (rows != indices))
        col, row = pos[rows[off]], pos[indices[off]]
        # column j: its off-diagonal entries in P's row order, the diagonal among them
        self._a_indptr = np.zeros(f + 1, dtype=np.int32)
        np.cumsum(np.bincount(col, minlength=f) + 1, out=self._a_indptr[1:])
        at = np.arange(len(off)) + col + (row > col)
        diagonal = self._a_indptr[:-1] + np.bincount(col[row < col], minlength=f)
        self._a_indices = np.empty(len(off) + f, dtype=np.int32)
        self._a_indices[at], self._a_indices[diagonal] = row, np.arange(f)
        # each entry's place in [-P.data, 1 - P.data[self._loops], 1.0]
        self._loops = np.flatnonzero(keep & (rows == indices)).astype(np.int32)
        self._gather = np.empty(len(off) + f, dtype=np.int32)
        self._gather[at], self._gather[diagonal] = off, len(indices) + len(self._loops)
        self._gather[diagonal[pos[rows[self._loops]]]] = len(indices) + np.arange(len(self._loops))
        to_b = np.flatnonzero(pinned[rows] & free[indices])  # P from pinned to free
        self._b_src, self._b_row = to_b.astype(np.int32), pos[indices[to_b]].astype(np.int32)
        self._permc = "COLAMD"  # NATURAL once the structure stands in the first factor's order

    def factor(self, data: np.ndarray):
        """(a, b, lu, slots) of the pinned system a x = b for the probabilities
        ``data``, P.data of a chain with this pattern; ``slots`` places x among
        the closed vertices for stationary."""
        f, slots = len(self._slots), self._slots
        values = np.concatenate([-data, 1.0 - data[self._loops], [1.0]])[self._gather]
        a = sp.csc_matrix((values, self._a_indices, self._a_indptr), shape=(f, f))
        # no duplicates, but relabelled rows are not sorted: splu must not sort
        # them, as SuperLU's pivots and updates follow their stored sequence
        a.has_canonical_format = True
        if self._relay:
            b = np.full(f, 1.0 / self.n)
        else:
            b = np.bincount(self._b_row, weights=data[self._b_src], minlength=f)
        lu = splu(a, permc_spec=self._permc, **SPLU_OPTIONS)
        if self._permc == "COLAMD":  # the first factor: relabel into its order
            perm, order = lu.perm_c, np.argsort(lu.perm_c)
            entries = np.arange(len(self._gather))
            t = sp.csr_matrix((entries, perm[self._a_indices], self._a_indptr), shape=(f, f))[order]
            self._a_indptr, self._a_indices = t.indptr, t.indices
            self._gather, self._slots = self._gather[t.data], self._slots[order]
            self._b_row = perm[self._b_row]
            self._permc = "NATURAL"
        return a, b, lu, slots

    def stationary(self, x: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """The vector over all n vertices from a factor's unknowns x and its
        slots: each class carries mass in proportion to its size, transients
        none."""
        full = np.ones(self.total)
        full[slots] = x
        if self._classes is None:  # the general formula's size / total / sum is 1 / sum
            values = full * (1.0 / full.sum())
        else:
            cls, sizes, by_class = self._classes
            # one ndarray.sum per class over its members in ascending order keeps
            # numpy's pairwise rounding, which a bincount of all classes changes
            parts = np.split(full[by_class], np.cumsum(sizes)[:-1])
            sums = np.array([part.sum() for part in parts])
            values = full * (sizes / self.total / sums)[cls]
        if self._closed is None:
            return values
        v = np.zeros(self.n)
        v[self._closed] = values
        return v


def pagerank(
    m: TransitionMatrix,
    tol: float = DEFAULT_TOL,
    max_iters: int = 3,
    pattern: Optional[ChainPattern] = None,
) -> PageRankVector:
    """Stationary distribution of the dual-graph chain by one sparse LU.

    The returned vector v satisfies ||M^T v - v||_1 <= tol and sums to 1.
    No probability leaves a closed class, so I - P^T on the closed vertices
    is block diagonal: one factor solves every class, with each class's
    first member pinned to 1 and its row and column dropped. A class holding
    a dead end is the whole chain, and its relay vertex is pinned instead: it
    enters only b = 1/n, never the factor. Each class carries mass in
    proportion to its size; transient vertices get zero and a warning lists
    them. ``pattern`` is m's ChainPattern, shared by the chains of one dual
    graph (a ValueError when m's pattern differs); without it m gets a
    private one. When v misses tol, up to max_iters steps of iterative
    refinement against the factor follow (``iterations`` counts them).
    Raises ConvergenceError when tol is still missed or a non-finite value
    appears.
    """
    if pattern is None:
        pattern = ChainPattern(m.matrix.indptr, m.matrix.indices)
    elif not (
        np.array_equal(m.matrix.indptr, pattern.indptr)
        and np.array_equal(m.matrix.indices, pattern.indices)
    ):
        raise ValueError("the chain pattern belongs to another transition matrix")
    a, b, lu, slots = pattern.factor(m.matrix.data)
    x = lu.solve(b)
    steps = 0
    while True:
        v = pattern.stationary(x, slots)
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
