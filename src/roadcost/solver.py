"""Objective assembly and the regularized least-squares solve.

The unknown cost vector d minimizes

    ||c - Q^T d||^2 + alpha * d^T L_A d + beta * d^T L_B d + gamma * ||d||^2

where Q maps cost variables to trip costs, L_A is the graph Laplacian of the
flow-similarity matrix (segments with similar stationary flow are pulled
together), and L_B is the Laplacian of the directional-adjacency matrix
(consecutive segments in the same tag are pulled together, opposite
directions of one physical road excluded). Setting the gradient to zero
gives the SPD system (Q Q^T + alpha L_A + beta L_B + gamma I) d = Q c.
solve_weights solves it by preconditioned conjugate gradient, applying the
operator and forming the preconditioner's D itself; TripSpacePattern is the
only state a solve shares with others on the same Q.

A links every pair of a tag's segments whose PageRank ratio min/max reaches
the threshold, at every network size. The solve never forms it:
SimilarityLaplacian applies A in linear time from sorted PageRank values,
as window sums cut from prefix sums, packed for all tags at once into a
gather matrix G, one prefix sum per row and a window matrix F. Nor does the
annotated mask: A's connected components are the runs of similar sorted
values, read off the same window bounds as labels
(SimilarityLaplacian.components). B's links are fixed by the dual graph and
the highway split, so AdjacencyPattern, one per dual, holds L_B's sorted
structure and B's components as labels too; each build fills L_B by one
gather and one row-sum reduction. annotated_mask looks up one set of
labels, or joins the two in one graph search over them.

At grid-search sizes a CG step costs more in per-call overhead than in
arithmetic, so the operator's product is one vector that compiled kernels
add into (_operator): it starts as (gamma + alpha diag(L_A)) x, csc_matvec
adds Q (Q^T x), csr_matvec beta L_B x, and two more csr_matvec calls, with a
cumsum between them, -alpha A x; L_B's and F's values are scaled once per
solve. The kernels are the ones behind scipy's own @, called straight from
scipy.sparse._sparsetools: csr_matvec and csc_matvec add their matrix's
product onto y's prior value, term by term. Q^T x and Q_m^T x take
csr_matvec over the rows of Q^T and Q_m^T (_matvec). Q y takes csc_matvec
over Q^T's rows: Q's many empty rows cost nothing, and each sum adds Q's row
in sorted order. The preconditioner's Q_m y does the same over Q_m^T's rows
(_matvec_t, from zero) in every factor, on Q_m as built, in trip order. That
module is private: it is imported once, with this module, so a scipy without
it fails at import, and tests pin both kernels bitwise to @ and to adding
onto y, so a scipy whose kernels differ fails the tests.

The preconditioner is P = D + Q Q^T with D = gamma + alpha diag(L_A) + beta
diag(L_B): it inverts the misfit term exactly, so CG is left with only the
off-diagonal Laplacian coupling. Q Q^T is never formed: each product with
the operator is one scaling, five kernel calls and one cumsum, and P^-1 v is
read off one sparse LU in trip space, of the SPD matrix S = I + Q_m^T D'^-1
Q_m (Woodbury; see TripSpacePattern). S factors stably under any symmetric
ordering without pivoting. That factor fills as trips overlap. When an
estimate of its fill, taken from Q's row counts before anything is factored,
exceeds PRECONDITIONER_FILL_LIMIT times 2 nnz(Q) + n + t, every trip folds
into D' instead: P is then the operator's own diagonal, the Jacobi
preconditioner (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed.,
2003, sec. 10.2), applied by the same code with no S to factor.

Solves with the same Q (the objective variants, a grid of coefficients)
differ only in D, so TripSpacePattern keeps what Q alone decides: Q_m, the
fill-reducing order of the first factor and, from the second factor on, a
map of S's sparse product term by term, in that order. Every later S is then
one gather and one bincount, bitwise the sparse product's, and its factor is
numeric only, with the same fill. Each solve still factors its own D: the
preconditioner is the same matrix as before.

A solve may also start from a guess x0 instead of zero. A grid of
coefficients moves the solution a little from one point to the next, so
starting each solve from its neighbour's solution saves CG iterations
(path-following, as in Friedman, Hastie & Tibshirani, J. Stat. Softw. 33,
2010). The stop test stays relative to ||Q c||, and the guess is tested
before the first step, so a start that already meets tol costs no step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import ConvergenceError
from .pagerank import SPLU_OPTIONS, PageRankVector, TransitionMatrix
from .trips import build_q  # noqa: F401  (public path: roadcost.solver.build_q)

DEFAULT_CG_TOL = 1e-8
# Largest estimated fill of the preconditioner's factor, per unit of
# 2 nnz(Q) + n + t, that is still factored (TripSpacePattern.factored); above
# it every trip folds into D'. Evaluate's four solves on 30x30 (dataset seed
# 6, 2 vCPUs): at 7,000 training trips (estimate 3.98) 1.3-1.5 s factored,
# while F1 misses tol in 69,600 iterations with every trip folded; at 10,000
# (5.58) 3.9-4.0 s factored against 0.59-0.76 s folded.
PRECONDITIONER_FILL_LIMIT = 6.0
# SuperLU settings of every preconditioner factor: the package's, with
# diagonal pivots (S is SPD).
_SPLU_OPTIONS = dict(SPLU_OPTIONS, diag_pivot_thresh=0.0, options={"SymmetricMode": True})
# Longest vector whose dot product is one BLAS call (_dot): below the length
# at which OpenBLAS splits a dot product across threads.
_DOT_SLICE = 8192


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x @ y for float vectors, with the same bits on any number of BLAS threads.

    OpenBLAS splits a dot product longer than about 10,000 entries across
    its threads, and a sum split in two rounds differently from one. So a
    vector longer than _DOT_SLICE entries is taken in consecutive slices of
    that length, whose dot products add left to right; a shorter one is one
    dot product, as np.linalg.norm forms it, at the same cost.
    """
    if len(x) <= _DOT_SLICE:
        return float(x @ y)
    total = 0.0
    for start in range(0, len(x), _DOT_SLICE):
        total += float(x[start : start + _DOT_SLICE] @ y[start : start + _DOT_SLICE])
    return total


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x), sqrt(x @ x), by _dot."""
    return math.sqrt(_dot(x, x))


def _matvec(a: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """a @ x for a float CSR matrix a and a float vector x, by the kernel @ calls.

    Bitwise a @ x without @'s dispatch, which costs about 2 us a call.
    """
    rows, cols = a.shape
    y = np.zeros(rows)
    csr_matvec(rows, cols, a.indptr, a.indices, a.data, x, y)
    return y


def _matvec_t(at: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """a @ x from at = a^T in CSR, whose arrays are a's CSC ones, by csc_matvec.

    The kernel walks at's rows, so a Q with many empty rows costs only its
    trips. Each y_i adds its terms from zero in the order of at's rows; a
    CSR row of a lists the same terms, so this is bitwise a @ x when every
    row of a lists its columns ascending, as a canonical CSR matrix does.
    """
    cols, rows = at.shape
    y = np.zeros(rows)
    csc_matvec(rows, cols, at.indptr, at.indices, at.data, x, y)
    return y


def _similarity_windows(pageranks: Sequence[PageRankVector], threshold: float):
    """Per tag: (index, sv, lo, hi) of its entries with positive PageRank.

    ``index`` holds their flat indices sorted by value (stable) and ``sv``
    their values. Sorted position i is similar, min/max >= threshold, to
    exactly the positions j != i in [lo[i], hi[i]): the ratio is monotone
    along sorted values, so the window is contiguous. searchsorted on
    sv * threshold and sv / threshold finds it up to rounding; the ratio test
    then settles each boundary, where product and ratio can differ by an ulp.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"similarity threshold must be in (0, 1], got {threshold}")
    ne = len(pageranks[0].values)
    lengths = [len(pr.values) for pr in pageranks]
    if lengths.count(ne) != len(lengths):
        raise ValueError(f"PageRank vectors must have equal lengths, got {lengths}")
    windows = []
    for k, pr in enumerate(pageranks):
        if pr.tag != k:
            raise ValueError("PageRank vectors must be ordered by tag")
        positive = np.flatnonzero(pr.values > 0)
        order = positive[np.argsort(pr.values[positive], kind="stable")]
        sv = pr.values[order]
        n = len(sv)
        pos, last = np.arange(n), max(n - 1, 0)
        lo = np.searchsorted(sv, sv * threshold, side="left")
        hi = np.searchsorted(sv, sv / threshold, side="right")
        while True:
            lo_up = (lo < pos) & (sv[lo.clip(max=last)] / sv < threshold)
            lo_down = (lo > 0) & (sv[lo - 1] / sv >= threshold)
            hi_up = (hi < n) & (sv / sv[hi.clip(max=last)] >= threshold)
            hi_down = (hi > pos + 1) & (sv / sv[hi - 1] < threshold)
            if not (lo_up | lo_down | hi_up | hi_down).any():
                break
            lo += lo_up.astype(int) - lo_down
            hi += hi_up.astype(int) - hi_down
        windows.append((k * ne + order, sv, lo, hi))
    return windows


def build_a(
    pageranks: Sequence[PageRankVector],
    threshold: float,
    method: str = "exact",
) -> sp.csr_matrix:
    """Block-diagonal flow-similarity matrix over all (edge, tag) entries.

    Within each tag's block, entry (i, j) is the PageRank ratio min/max of
    edges i and j when it reaches the threshold, else 0; the diagonal stays
    0. Where PageRank values crowd together that is quadratic in the edge
    count, so the pipeline applies L_A through SimilarityLaplacian instead;
    this explicit matrix is its reference. "exact" is the only ``method``.
    """
    if method != "exact":
        raise ValueError(f"unknown similarity method {method!r}")
    rows, cols, data = [], [], []
    for index, sv, lo, _ in _similarity_windows(pageranks, threshold):
        counts = np.arange(len(sv)) - lo  # partners below each sorted position
        upper = np.repeat(np.arange(len(sv)), counts)
        offsets = np.repeat(counts.cumsum() - counts, counts)
        lower = np.arange(len(upper)) - offsets + lo[upper]
        sims = sv[lower] / sv[upper]
        rows += [index[lower], index[upper]]
        cols += [index[upper], index[lower]]
        data += [sims, sims]
    size = len(pageranks) * len(pageranks[0].values)
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )


class SimilarityLaplacian:
    """L_A = diag(A 1) - A for build_a's matrix A, applied without forming A.

    Within a tag, with positive PageRank values v sorted, the entries
    similar to position i fill its window [lo_i, hi_i), and the weight
    min/max is v_j / v_i below i and v_i / v_j above it (ties weigh 1). So

        (A x)_i = sum_{lo_i <= j < i} v_j x_j / v_i + v_i sum_{i < j < hi_i} x_j / v_j,

    two window sums cut from prefix sums, O(n) per product. The lower sum
    accumulates upward and the upper one downward, so each window holds the
    heaviest terms of its prefix. Entries with zero PageRank (transient dual
    vertices) have zero rows.

    A x is y += F cumsum(G x), three calls on one packed layout of every
    tag, built once: 2 x tags rows of a leading zero, then a tag's terms,
    then padding. Row k holds tag k's v_j x_j ascending, row tags + k its
    x_j / v_j descending. G, a CSR gather matrix, fills the layout from x;
    one np.cumsum along its rows forms every prefix sum; F, a CSR window
    matrix, adds each window of y_i as its two ends, with the values -1/v_i
    and +1/v_i for the lower window and -v_i and +v_i for the upper one. An
    empty window's two ends are one prefix sum, with values 0, and an entry
    with zero PageRank has an empty row. ``accumulator`` scales F's values
    once, so a CG step adds -alpha A x into the vector it is building, with
    no array of its own (solve_weights). Each prefix sum starts at its row's
    leading zero, and padding only follows real terms, so the sums are the
    ones a tag-by-tag loop forms.
    """

    def __init__(self, pageranks: Sequence[PageRankVector], threshold: float):
        n = len(pageranks) * len(pageranks[0].values)
        self.shape = (n, n)
        windows = _similarity_windows(pageranks, threshold)
        counts = [len(sv) for _, sv, _, _ in windows]
        tags, width = len(windows), max(counts) + 1
        self._rows = (2 * tags, width)
        # G: columns 1..m of row k gather tag k's v_j x_j ascending, those of
        # row tags + k its x_j / v_j descending; other slots are empty rows
        entries, weights = np.zeros((2, tags, width), dtype=np.int32), np.zeros((2, tags, width))
        gathered = np.zeros((2, tags, width), dtype=bool)
        for k, (index, sv, _, _) in enumerate(windows):
            m = len(sv)
            entries[0, k, 1 : m + 1], weights[0, k, 1 : m + 1] = index, sv
            entries[1, k, 1 : m + 1], weights[1, k, 1 : m + 1] = index[::-1], 1 / sv[::-1]
            gathered[:, k, 1 : m + 1] = True
        size = entries.size
        self._gather = sp.csr_matrix(
            (weights[gathered], entries[gathered], np.r_[0, np.cumsum(gathered)].astype(np.int32)),
            shape=(size, n),
        )
        # F: four entries in the row of each positive entry, the ends of its
        # windows in the prefix sums, lower (S_lo, S_i) then upper (D_m-hi,
        # D_m-1-i), where column c of a row sums the c terms before it. An
        # empty window's ends meet, and their values are 0, so they add
        # exactly 0 to y_i. The rows are formed in sorted order, tag after
        # tag, and then taken in entry order.
        index, sv, lo, hi = (np.concatenate(parts) for parts in zip(*windows))
        pos, m = np.concatenate([np.arange(k) for k in counts]), np.repeat(counts, counts)
        below = np.repeat(np.arange(tags) * width, counts)
        above = below + tags * width
        self._joined = hi > pos + 1  # each sorted entry is similar to the next
        inverse, upper = np.where(lo < pos, 1 / sv, 0.0), np.where(self._joined, sv, 0.0)
        ends = np.column_stack([below + lo, below + pos, above + m - hi, above + m - 1 - pos])
        values = np.column_stack([-inverse, inverse, -upper, upper])
        rank = np.full(n, -1)  # each entry's sorted row, -1 for zero PageRank
        rank[index] = np.arange(len(sv))
        positive = rank >= 0
        rank = rank[positive]
        self._window = sp.csr_matrix(
            (
                values.take(rank, axis=0).ravel(),
                ends.astype(np.int32).take(rank, axis=0).ravel(),
                np.r_[0, 4 * np.cumsum(positive)].astype(np.int32),
            ),
            shape=(n, size),
        )
        self._sorted = index
        self._degree = np.zeros(n)
        self._add(np.ones(n), self._degree, self._window.data)

    def _add(self, x: np.ndarray, y: np.ndarray, window: np.ndarray) -> None:
        """y += F cumsum(G x) in place, with ``window`` as F's values."""
        g, f = self._gather, self._window
        sums = np.zeros(g.shape[0])
        csr_matvec(*g.shape, g.indptr, g.indices, g.data, x, sums)
        rows = sums.reshape(self._rows)
        np.cumsum(rows, axis=1, out=rows)
        csr_matvec(*f.shape, f.indptr, f.indices, window, sums, y)

    def accumulator(self, scale: float):
        """A function of (x, y) that adds scale * A x into y in place.

        x and y are float vectors of the operator's length, y contiguous.
        F's values are scaled here, once, so each call is the three calls of
        the product alone.
        """
        window = self._window.data * scale
        return lambda x, y: self._add(x, y, window)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = self._degree * x
        self._add(x, y, -self._window.data)
        return y

    def diagonal(self) -> np.ndarray:
        return self._degree.copy()

    @property
    def pairs(self) -> int:
        """nnz(A): the sum of the window sizes, each the distance between the
        two ends F stores for it."""
        ends = self._window.indices
        return int((ends[1::2] - ends[::2]).sum())

    def components(self) -> np.ndarray:
        """A's connected components: each entry's label, an entry of its component.

        The components of a threshold graph on sorted one-dimensional values
        are its maximal runs of consecutive similar values: sorted entry i
        joins i + 1 when its window reaches past it, hi_i > i + 1. So each
        run of a tag's sorted entries gets the label of its least entry, in
        linear time. A tag's last entry joins nothing, so runs never cross
        tags. An entry with zero PageRank is in no pair and keeps its own
        index.
        """
        starts = np.ones(len(self._sorted), dtype=bool)
        starts[1:] = ~self._joined[:-1]
        head = np.where(starts, np.arange(len(starts)), 0)
        np.maximum.accumulate(head, out=head)  # each sorted entry's run start
        labels = np.arange(self.shape[0])
        labels[self._sorted] = self._sorted[head]
        return labels


def _check_on_dual(
    transitions: Sequence[TransitionMatrix], out_indptr: np.ndarray, edge_dst: np.ndarray
) -> None:
    """Raise unless the matrices are ordered by tag and each holds the dual's
    edges (out_indptr, edge_dst) as its CSR structure."""
    for k, tm in enumerate(transitions):
        if tm.tag != k:
            raise ValueError("transition matrices must be ordered by tag")
        m = tm.matrix
        if not all(map(np.array_equal, (m.indptr, m.indices), (out_indptr, edge_dst))):
            raise ValueError("transition matrix is not on the dual graph's edges")


def build_b(
    transitions: Sequence[TransitionMatrix],
    dual,
    is_highway: np.ndarray,
) -> sp.csr_matrix:
    """Block-diagonal directional-adjacency matrix over all (edge, tag) entries.

    Within tag k, entry (i, j) is the larger of the two directed transition
    probabilities between segments i and j, with two exclusions: reverse
    pairs (the two directions of one physical road) and pairs straddling the
    highway/urban split. At most one direction of a non-reverse pair can
    carry probability, so the matrix is symmetric by construction.
    """
    _check_on_dual(transitions, dual.out_indptr, dual.edge_dst)
    ne = dual.n_vertices
    n_tags = len(transitions)
    keep = ~dual.reverse_mask & (
        is_highway[dual.edge_src] == is_highway[dual.edge_dst]
    )
    src = dual.edge_src[keep]
    dst = dual.edge_dst[keep]
    rows, cols, data = [], [], []
    for k, tm in enumerate(transitions):
        w = tm.matrix.data[keep]
        base = k * ne
        rows.append(base + src)
        cols.append(base + dst)
        data.append(w)
        rows.append(base + dst)
        cols.append(base + src)
        data.append(w)
    size = n_tags * ne
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )


def laplacian(s: sp.spmatrix) -> sp.csr_matrix:
    """Graph Laplacian of a symmetric non-negative matrix: diag(row sums) - S."""
    s = s.tocsr()
    if (s != s.T).nnz:
        raise ValueError("Laplacian input must be symmetric")
    if s.nnz and s.data.min() < 0:
        raise ValueError("Laplacian input must be non-negative")
    row_sums = np.asarray(s.sum(axis=1)).ravel()
    return (sp.diags(row_sums) - s).tocsr()


class AdjacencyPattern:
    """What the dual graph and the highway split decide about B, for every build.

    B keeps the dual edges that are not a reverse pair and join two segments
    of one highway class, in every tag, and Laplace smoothing gives each of
    them a positive probability. So B links the same entries whatever the
    trips, and L_B = laplacian(build_b(...)) has one sorted CSR structure
    per dual: each kept edge's two off-diagonal slots, and a diagonal slot
    in every row with a B link (a row without one stores nothing, as the
    subtraction in ``laplacian`` drops a zero). No two kept edges join the
    same pair of segments, so no slot sums two of them.

    ``laplacian(transitions)`` fills that structure: one gather of every
    tag's kept probabilities in B's CSR order, whose negation fills the
    off-diagonal slots, and one ``np.add.reduceat`` over each linked row's
    values, which fills the diagonal ones. That reduceat is the one
    scipy's row sum makes, on the same values in the same order, so the
    result is bitwise ``laplacian(build_b(...))``, which stays as its
    reference. ``components`` holds B's connected components, a label in
    [0, n) per entry that is an entry of its component, as
    SimilarityLaplacian.components() does for A. Nothing changes after
    construction, so builds on any thread may share one pattern.
    """

    def __init__(self, dual, is_highway: np.ndarray, n_tags: int):
        ne, m = dual.n_vertices, dual.n_edges
        n = n_tags * ne
        self.shape = (n, n)
        kept = np.flatnonzero(
            ~dual.reverse_mask & (is_highway[dual.edge_src] == is_highway[dual.edge_dst])
        )
        # one tag's B: both directions of every kept edge, by row, then column
        rows = np.concatenate([dual.edge_src[kept], dual.edge_dst[kept]])
        cols = np.concatenate([dual.edge_dst[kept], dual.edge_src[kept]])
        order = np.argsort(rows * ne + cols)  # no two entries share a key
        rows, cols, edges = rows[order], cols[order], np.tile(kept, 2)[order]
        links = np.bincount(rows, minlength=ne)
        adjacency = sp.csr_matrix(
            (np.ones(len(rows)), cols, np.r_[0, np.cumsum(links)]), shape=(ne, ne)
        )
        linked = np.flatnonzero(links)
        # L_B's row: its B links, and its diagonal after the links below it
        indptr = np.r_[0, np.cumsum(links + (links > 0))]
        diagonal = indptr[linked] + np.bincount(rows[cols < rows], minlength=ne)[linked]
        off = indptr[rows] + np.arange(len(rows)) - adjacency.indptr[rows] + (cols > rows)
        # for every tag: its B values' places in the P data of all tags, its
        # linked rows' starts among those values, and their slots in L_B
        tags, nb, nl = np.arange(n_tags)[:, None], len(rows), indptr[-1]
        self._gather = (edges + m * tags).ravel()
        self._starts = (adjacency.indptr[linked] + nb * tags).ravel()
        self._off = (off + nl * tags).ravel()
        self._diagonal = (diagonal + nl * tags).ravel()
        indices = np.empty(nl, dtype=np.int64)
        indices[off], indices[diagonal] = cols, linked
        # scipy casts the index arrays to int32 where they fit, as in laplacian's result
        structure = sp.csr_matrix(
            (
                np.zeros(nl * n_tags),
                (indices + ne * tags).ravel(),
                np.r_[(indptr[:-1] + nl * tags).ravel(), nl * n_tags],
            ),
            shape=self.shape,
        )
        self._indices, self._indptr = structure.indices, structure.indptr
        self._dual_edges, self._n_tags = (dual.out_indptr, dual.edge_dst), n_tags
        labels = connected_components(adjacency, directed=False)[1]
        _, first = np.unique(labels, return_index=True)  # each component's least entry
        self.components = (first[labels] + ne * tags).ravel()
        for array in (self._indices, self._indptr, self.components):
            array.flags.writeable = False

    def laplacian(self, transitions: Sequence[TransitionMatrix]) -> sp.csr_matrix:
        """L_B for the dual's transition matrices, one per tag in tag order.

        Bitwise laplacian(build_b(transitions, dual, is_highway)), and raises
        as build_b does on a matrix out of order or off the dual's edges.
        """
        if len(transitions) != self._n_tags:
            raise ValueError(f"expected {self._n_tags} transition matrices, got {len(transitions)}")
        _check_on_dual(transitions, *self._dual_edges)
        values = np.concatenate([tm.matrix.data for tm in transitions]).take(self._gather)
        data = np.empty(len(self._indices))
        data[self._off] = -values
        if len(values):  # B's row sums, over all tags' values in B's CSR order
            data[self._diagonal] = np.add.reduceat(values, self._starts)
        return sp.csr_matrix((data, self._indices, self._indptr), shape=self.shape)


class _TripSpaceFactor:
    """Applies P^-1 = (D' + Q_m Q_m^T)^-1 from D' and an LU of S = I + Q_m^T D'^-1 Q_m.

    Q_m^T v and Q_m y are read off Q_m^T's rows (_matvec, _matvec_t). A
    later factor's S stands in the first factor's order: Q_m^T v is gathered
    into it by ``order``, the inverse of its ``perm_c``, and the solution back.
    """

    def __init__(self, d: np.ndarray, qmt: sp.csr_matrix, lu, perm_c=None, order=None):
        self.d, self.qmt, self.lu, self.perm_c, self.order = d, qmt, lu, perm_c, order
        self.nnz = 0 if lu is None else lu.nnz

    def solve(self, v: np.ndarray) -> np.ndarray:
        if self.lu is None:  # every trip folded: P = D'
            return v / self.d
        u = _matvec(self.qmt, v / self.d)
        y = self.lu.solve(u) if self.order is None else self.lu.solve(u[self.order])[self.perm_c]
        return (v - _matvec_t(self.qmt, y)) / self.d


class _ProductMap:
    """S = I + Q_m^T D'^-1 Q_m from D' alone, for one fixed Q_m.

    S_kl sums q_ik * (q_il / d_i) over the unknowns i that trips k and l
    share. Each term pairs two entries of row i of Q_m: every entry (i, k)
    gives r_i terms in a row, one per entry (i, l), with r_i the trips of
    Q_m through unknown i. For each term, ``right`` holds the position of
    q_il in Q_m's data and ``slot`` the position of S_kl in S's sorted CSC,
    each trip k labelled perm_c[k]. The terms run unknown by unknown, i
    ascending. csr_matmat sums each S_kl in the order of row k of Q_m^T,
    whose unknowns ascend too. So one bincount, adding from zero, gives S
    bitwise as the sparse product does.
    The map holds 8 bytes for each of the sum_i r_i^2 terms.
    """

    def __init__(self, qm: sp.csr_matrix, perm_c: np.ndarray):
        t = qm.shape[1]
        self.data = qm.data
        self.trips_per_unknown = np.diff(qm.indptr)
        self.terms_per_entry = np.repeat(self.trips_per_unknown, self.trips_per_unknown)
        ends = np.cumsum(self.terms_per_entry)
        # q_il sits at row i's start plus the term's rank among its entry's terms
        shift = np.repeat(qm.indptr[:-1], self.trips_per_unknown) - ends + self.terms_per_entry
        self.right = np.repeat(shift.astype(np.int32), self.terms_per_entry)
        self.right += np.arange(len(self.right), dtype=np.int32)
        # S_kl's key l * t + k sorts as S's sorted CSC: by column, then row. I
        # puts every diagonal entry in S, whether or not a term adds to it.
        key = np.int32 if t * t <= np.iinfo(np.int32).max else np.int64
        trips = perm_c.astype(key)[qm.indices]
        keys = np.empty(len(self.right) + t, dtype=key)
        np.multiply(trips[self.right], t, out=keys[:-t])
        keys[:-t] += np.repeat(trips, self.terms_per_entry)
        keys[-t:] = np.arange(t, dtype=key) * key(t + 1)
        order = np.argsort(keys)
        keys = keys[order]
        first = np.r_[True, keys[1:] != keys[:-1]]
        slot = np.empty(len(keys), dtype=np.int32)
        slot[order] = np.cumsum(first, dtype=np.int32) - 1
        self.slot, self.diagonal = slot[:-t], slot[-t:]
        keys = keys[first]
        column = keys // t
        self.indices = (keys - column * t).astype(np.int32)
        self.indptr = np.r_[0, np.cumsum(np.bincount(column, minlength=t))].astype(np.int32)
        self.shape = (t, t)

    def matrix(self, d: np.ndarray) -> sp.csc_matrix:
        """S for D' = diag(d)."""
        scaled = self.data / np.repeat(d, self.trips_per_unknown)
        terms = np.repeat(self.data, self.terms_per_entry)
        terms *= scaled[self.right]  # q_ik * (q_il / d_i), as csr_matmat multiplies
        # (astype: bincount of no terms at all returns integers)
        values = np.bincount(self.slot, terms, len(self.indices)).astype(float, copy=False)
        values[self.diagonal] += 1.0
        return sp.csc_matrix((values, self.indices, self.indptr), shape=self.shape)


class TripSpacePattern:
    """What Q alone decides about the preconditioner, shared by Q's solves.

    A trip through one unknown adds only to the diagonal of Q Q^T, so D' = D
    + its q^2 absorbs it exactly; Q_m keeps the other trips, and P = D' +
    Q_m Q_m^T. By the Woodbury identity (Hager, SIAM Review 31, 1989), P^-1 v
    = D'^-1 (v - Q_m S^-1 Q_m^T D'^-1 v) with the t_m x t_m SPD matrix S =
    I + Q_m^T D'^-1 Q_m. Where D'_i is small next to (Q_m Q_m^T)_ii, the
    difference cancels (Yip, SIAM J. Sci. Stat. Comput. 7, 1986) and loses
    about eps (Q_m Q_m^T)_ii / D'_i, which CG's iterations make up; the fold
    keeps D'_i >= q^2 wherever a trip runs through unknown i alone.

    With r_i trips through unknown i, sum_i r_i^2 bounds S's nonzeros before
    its LU fills it. Above PRECONDITIONER_FILL_LIMIT times 2 nnz(Q) + n + t
    (the nonzeros of the bordered matrix [[D, Q], [Q^T, -I]] the limit was
    set on), ``factored`` is False and every trip folds: D' = D + diag(Q
    Q^T), Q_m is empty and P^-1 v = v / D'. ``fill_estimate`` is the estimate per unit.

    The first factor orders S (SuperLU MMD on S^T + S), whose values come
    from the sparse product Q_m^T (D'^-1 Q_m), and keeps that order, perm_c.
    The second maps S's product term by term into it (_ProductMap), so
    every later S arrives ordered, is one gather and one bincount, and
    factors numerically only, with the same fill. The map holds 8 bytes for
    each of the sum_i r_i^2 terms, plus S's sorted structure: 0.61 MB for
    2,000 training trips on 30x30; a pattern that factors once builds none.
    Factors change only the order and the map, never Q_m. No factor is kept.
    """

    def __init__(self, q: sp.csr_matrix):
        n, t = q.shape
        self.q, q = q, q.tocsr()
        self.qt = q.T.tocsr()
        trips_per_unknown = q.getnnz(axis=1).astype(np.int64)
        fill = np.dot(trips_per_unknown, trips_per_unknown)  # integers: no BLAS call
        self.fill_estimate = float(fill / (2 * q.nnz + n + t))
        self.factored = self.fill_estimate <= PRECONDITIONER_FILL_LIMIT
        unknowns_per_trip = np.diff(self.qt.indptr)
        folded = unknowns_per_trip == 1 if self.factored else np.ones(t, dtype=bool)
        self._fold = None  # D' - D: the q^2 of each folded trip's entries
        self._qm, self._qmt = q, self.qt
        if folded.any():
            at = np.repeat(folded, unknowns_per_trip)
            self._fold = np.bincount(self.qt.indices[at], self.qt.data[at] ** 2, n)
            kept = np.flatnonzero(~folded & (unknowns_per_trip > 1))
            self._qm, self._qmt = q[:, kept], self.qt[kept]
        self._perm = None  # the first factor's perm_c and its inverse
        self._map = None  # S's _ProductMap, from the second factor on

    def factor(self, diag: np.ndarray) -> _TripSpaceFactor:
        """A factor of D + Q Q^T with D = diag(diag): its solve(v) solves that system.

        The first call orders S and factors it; the second maps S's product
        into that order; later calls reuse both. Raises RuntimeError on a
        non-finite D' (S = I + ... never meets the zero pivot a NaN would
        give), before anything is built or factored.
        """
        d = diag if self._fold is None else diag + self._fold  # no n-array when nothing folds
        if not np.isfinite(d).all():
            raise RuntimeError("non-finite diagonal")
        qm, qmt = self._qm, self._qmt
        if qm.shape[1] == 0:
            return _TripSpaceFactor(d, qmt, None)
        if self._perm is None:  # the first factor: order S
            scaled = sp.csr_matrix(
                (qm.data / np.repeat(d, np.diff(qm.indptr)), qm.indices, qm.indptr),
                shape=qm.shape,
            )
            s = (qmt @ scaled + sp.identity(qm.shape[1], format="csr")).tocsc()
            lu = splu(s, permc_spec="MMD_AT_PLUS_A", **_SPLU_OPTIONS)
            perm_c = lu.perm_c.copy()  # SuperLU's own array would keep its factor alive
            self._perm = perm_c, np.argsort(perm_c)
            return _TripSpaceFactor(d, qmt, lu)
        if self._map is None:  # the second factor
            self._map = _ProductMap(qm, self._perm[0])
        lu = splu(self._map.matrix(d), permc_spec="NATURAL", **_SPLU_OPTIONS)
        return _TripSpaceFactor(d, qmt, lu, *self._perm)


@dataclass(frozen=True)
class SolveInfo:
    iterations: int
    residual: float  # relative, ||M d - Q c|| / ||Q c||
    factor_nnz: int = 0  # nonzeros of S's L + U (0: no solve, or every trip folded into D')


def _operator(qt: sp.csr_matrix, l_a, l_b, alpha: float, beta: float, gamma: float):
    """M = Q Q^T + alpha L_A + beta L_B + gamma I from Q^T: its D and a product.

    D = gamma + alpha diag(L_A) + beta diag(L_B) is the preconditioner's.
    M x is one vector that compiled kernels add into (Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., 2003, ch. 6 and 9). It
    starts as gamma x, plus alpha diag(L_A) x for a SimilarityLaplacian,
    whose accumulator then adds -alpha A x. csc_matvec over Q^T's rows adds
    Q (Q^T x), and csr_matvec each sparse Laplacian whole, on its values
    scaled once here. Only the terms whose coefficient is non-zero are read.
    """
    diag = np.full(qt.shape[1], gamma)
    start, adds = gamma, []
    for scale, laplacian in ((alpha, l_a), (beta, l_b)):
        if not scale:
            continue
        diagonal = scale * laplacian.diagonal()
        diag += diagonal
        if isinstance(laplacian, SimilarityLaplacian):
            start = start + diagonal
            adds.append(laplacian.accumulator(-scale))
        else:
            lap = laplacian.tocsr()
            data = lap.data.astype(float) * scale  # the kernel adds into y as float64
            adds.append(partial(csr_matvec, *lap.shape, lap.indptr, lap.indices, data))
    trips, n = qt.shape

    def apply(x: np.ndarray) -> np.ndarray:
        y = start * x
        csc_matvec(n, trips, qt.indptr, qt.indices, qt.data, _matvec(qt, x), y)
        for add in adds:
            add(x, y)
        return y

    return diag, apply


def solve_weights(
    q: sp.csr_matrix,
    costs: np.ndarray,
    l_a: Optional[sp.spmatrix | SimilarityLaplacian],
    l_b: Optional[sp.csr_matrix],
    alpha: float,
    beta: float,
    gamma: float,
    tol: float = DEFAULT_CG_TOL,
    pattern: Optional[TripSpacePattern] = None,
    x0: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, SolveInfo]:
    """Minimize the full objective by preconditioned CG on its normal system.

    alpha, beta and gamma must be finite, alpha and beta non-negative and
    gamma positive: gamma makes the operator positive definite and the
    minimizer unique. Each call factors its own preconditioner (see the
    module docstring); past the fill limit that factor is the diagonal D'
    alone. Pass ``pattern``, Q's TripSpacePattern, to share Q^T, Q_m, the
    fold and the factor's ordering with other solves on the same Q: after
    the first, each factor is numeric only. Pass
    ``x0``, a finite vector with one entry per unknown, to start CG there
    instead of at zero (a warm start from the solution of a nearby system);
    the stop test does not change, so the result meets the same tol.
    Returns the cost vector and solve statistics; raises ConvergenceError
    when the relative residual does not reach tol within 10 iterations per
    unknown, at the first non-finite residual, and before factoring when D
    is not finite.
    """
    if not np.isfinite([alpha, beta, gamma]).all():
        raise ValueError("alpha, beta and gamma must be finite")
    if gamma <= 0:
        raise ValueError("gamma must be positive for a positive-definite system")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    if pattern is None:
        pattern = TripSpacePattern(q)
    elif pattern.q is not q:
        raise ValueError("the trip-space pattern belongs to another Q")
    if alpha and l_a is None:
        raise ValueError("alpha > 0 requires a similarity Laplacian")
    if beta and l_b is None:
        raise ValueError("beta > 0 requires an adjacency Laplacian")
    n = q.shape[0]
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
        if not np.isfinite(x0).all():
            raise ValueError("x0 must be finite")
    b = q @ np.asarray(costs, dtype=float)
    b_norm = _norm(b)
    if b_norm == 0.0:
        return np.zeros(n), SolveInfo(iterations=0, residual=0.0)

    diag, apply = _operator(pattern.qt, l_a, l_b, alpha, beta, gamma)
    try:
        factor = pattern.factor(diag)
    except RuntimeError as err:  # a non-finite D, or a zero pivot from SuperLU
        raise ConvergenceError(f"preconditioner factorization failed: {err}", 1.0, 0) from err

    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
        res_norm = b_norm
    else:
        x = x0.copy()
        r = b - apply(x)
        res_norm = _norm(r)
    p, rz, iterations = None, 0.0, 0
    while True:
        if not np.isfinite(res_norm):
            raise ConvergenceError(
                "conjugate gradient hit a non-finite residual (non-finite costs or matrices?)",
                res_norm / b_norm,
                iterations,
            )
        if res_norm <= tol * b_norm:
            true_r = b - apply(x)
            true_norm = _norm(true_r)
            if true_norm <= tol * b_norm:
                return x, SolveInfo(
                    iterations=iterations, residual=true_norm / b_norm, factor_nnz=factor.nnz
                )
            r = true_r  # recurrence drifted; restart from the true residual
            res_norm = true_norm
        if iterations >= 10 * n:
            raise ConvergenceError(
                "conjugate gradient did not converge", res_norm / b_norm, iterations
            )
        z = factor.solve(r)
        rz_new = _dot(r, z)
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        ap = apply(p)
        p_ap = _dot(p, ap)
        if p_ap <= 0:
            raise ConvergenceError(
                "conjugate gradient broke down (operator not positive definite?)",
                res_norm / b_norm,
                iterations,
            )
        step = rz / p_ap
        x += step * p
        r -= step * ap
        iterations += 1
        res_norm = _norm(r)


@dataclass(frozen=True)
class ObjectiveTerms:
    """The objective split into its four terms plus the weighted total."""

    rss: float
    similarity_penalty: float
    adjacency_penalty: float
    l2: float
    total: float


def objective_terms(
    d: np.ndarray,
    q: sp.csr_matrix,
    costs: np.ndarray,
    l_a: Optional[sp.spmatrix | SimilarityLaplacian],
    l_b: Optional[sp.csr_matrix],
    alpha: float,
    beta: float,
    gamma: float,
) -> ObjectiveTerms:
    """Evaluate every objective term at a given cost vector."""
    residual = np.asarray(costs, dtype=float) - q.T @ d
    rss = _dot(residual, residual)
    sim = _dot(d, l_a @ d) if l_a is not None else 0.0
    adj = _dot(d, l_b @ d) if l_b is not None else 0.0
    l2 = _dot(d, d)
    return ObjectiveTerms(
        rss=rss,
        similarity_penalty=sim,
        adjacency_penalty=adj,
        l2=l2,
        total=rss + alpha * sim + beta * adj + gamma * l2,
    )


def annotated_mask(
    q: sp.csr_matrix,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Entries of the cost vector that actually receive information.

    An entry is annotated when it is reachable from some trip-touched entry
    through nonzero entries of the active constraint matrices; everything
    else solves to zero under the ridge term alone. With no constraints this
    reduces to plain trip coverage.

    ``a`` and ``b`` hold A's and B's connected components, as labels in
    [0, n), one per entry, each an entry of its own component
    (SimilarityLaplacian.components, AdjacencyPattern.components). One alone
    is looked up as it stands. With both, entries join where a chain of A
    and B links joins them: one connected_components call over the graph
    that links each entry to its A label and to its B label, two links a
    row, so its CSR needs no sort. Every entry of an A component links to
    the same entry of it, and so for B, so the graph's components are
    exactly those chains.
    """
    seeds = np.asarray(q.getnnz(axis=1) > 0)
    if (a is None and b is None) or not seeds.any():
        return seeds
    n = len(seeds)
    if a is None or b is None:
        labels = np.asarray(a if b is None else b)
    else:
        links = sp.csr_matrix(
            (np.ones(2 * n), np.column_stack([a, b]).ravel(), np.arange(0, 2 * n + 1, 2)),
            shape=(n, n),
        )
        labels = connected_components(links, directed=False)[1]
    hit = np.zeros(n, dtype=bool)  # components holding a seed
    hit[labels[seeds]] = True
    return hit[labels]
