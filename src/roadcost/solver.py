"""Objective assembly and the regularized least-squares solve.

The unknown cost vector d minimizes

    ||c - Q^T d||^2 + alpha * d^T L_A d + beta * d^T L_B d + gamma * ||d||^2

where Q maps cost variables to trip costs, L_A is the graph Laplacian of the
flow-similarity matrix (segments with similar stationary flow are pulled
together), and L_B is the Laplacian of the directional-adjacency matrix
(consecutive segments in the same tag are pulled together, opposite
directions of one physical road excluded). Setting the gradient to zero
gives the SPD system (Q Q^T + alpha L_A + beta L_B + gamma I) d = Q c,
solved matrix-free by conjugate gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError
from .pagerank import PageRankVector, TransitionMatrix
from .trips import build_q  # noqa: F401  (public path: roadcost.solver.build_q)

DEFAULT_CG_TOL = 1e-8
EXACT_SIMILARITY_LIMIT = 2000


def similarity(pr_i: float, pr_j: float) -> float:
    """Flow similarity of two segments: ratio of their PageRank values in (0, 1]."""
    if pr_i <= 0 or pr_j <= 0:
        raise ValueError("similarity needs positive PageRank values")
    return min(pr_i, pr_j) / max(pr_i, pr_j)


def _similar_pairs_exact(values: np.ndarray, threshold: float):
    """All index pairs whose value ratio meets the threshold.

    Sorted two-pointer construction: cost is linear in the output size, but
    the output itself is quadratic when many values coincide, so this path
    is reserved for small edge counts.
    """
    positive = np.nonzero(values > 0)[0]
    order = positive[np.argsort(values[positive], kind="stable")]
    sv = values[order]
    n = len(sv)
    if n < 2:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    starts = np.searchsorted(sv, sv * threshold, side="left")
    counts = np.maximum(np.arange(n) - starts, 0)
    total = int(counts.sum())
    jj = np.repeat(np.arange(n), counts)
    offsets = np.repeat(counts.cumsum() - counts, counts)
    tt = np.arange(total) - offsets + starts[jj]
    sims = sv[tt] / sv[jj]
    keep = sims >= threshold
    return order[tt[keep]], order[jj[keep]], sims[keep]


def _similar_pairs_sweep(values: np.ndarray, threshold: float):
    """Consecutive pairs in PageRank-sorted order whose ratio meets the threshold.

    Linear-size under-approximation of the all-pairs construction: runs of
    similar values stay chained together through their neighbors, which
    preserves the connected similarity structure without the quadratic
    blow-up of dense value clusters.
    """
    positive = np.nonzero(values > 0)[0]
    order = positive[np.argsort(values[positive], kind="stable")]
    sv = values[order]
    if len(sv) < 2:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    sims = sv[:-1] / sv[1:]
    keep = sims >= threshold
    return order[:-1][keep], order[1:][keep], sims[keep]


def build_a(
    pageranks: Sequence[PageRankVector],
    threshold: float,
    method: str = "auto",
) -> sp.csr_matrix:
    """Block-diagonal flow-similarity matrix over all (edge, tag) entries.

    Within each tag's block, entry (i, j) is the PageRank ratio of edges i
    and j when it reaches the threshold, else 0; the diagonal stays 0.
    ``method`` selects the pair construction: "exact" (all qualifying
    pairs), "sweep" (consecutive sorted pairs only), or "auto" (exact up to
    2000 edges, sweep beyond).
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"similarity threshold must be in (0, 1], got {threshold}")
    n_tags = len(pageranks)
    ne = len(pageranks[0].values)
    if method == "auto":
        method = "exact" if ne <= EXACT_SIMILARITY_LIMIT else "sweep"
    if method not in ("exact", "sweep"):
        raise ValueError(f"unknown similarity method {method!r}")
    builder = _similar_pairs_exact if method == "exact" else _similar_pairs_sweep

    rows, cols, data = [], [], []
    for k, pr in enumerate(pageranks):
        if pr.tag != k:
            raise ValueError("PageRank vectors must be ordered by tag")
        lo, hi, sims = builder(pr.values, threshold)
        base = k * ne
        rows.append(base + lo)
        cols.append(base + hi)
        data.append(sims)
        rows.append(base + hi)
        cols.append(base + lo)
        data.append(sims)
    size = n_tags * ne
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )


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
    ne = dual.n_vertices
    n_tags = len(transitions)
    keep = ~dual.reverse_mask & (
        is_highway[dual.edge_src] == is_highway[dual.edge_dst]
    )
    src = dual.edge_src[keep]
    dst = dual.edge_dst[keep]
    rows, cols, data = [], [], []
    for k, tm in enumerate(transitions):
        if tm.tag != k:
            raise ValueError("transition matrices must be ordered by tag")
        if tm.edge_probs is None:
            raise ValueError("transition matrix lacks dual-edge-aligned probabilities")
        w = tm.edge_probs[keep]
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


@dataclass
class SystemOperator:
    """Matrix-free application of Q Q^T + alpha L_A + beta L_B + gamma I.

    Q Q^T is dense whenever trips overlap heavily, so it is never
    materialized; each application costs a handful of sparse mat-vecs.
    """

    q: sp.csr_matrix
    l_a: Optional[sp.csr_matrix]
    l_b: Optional[sp.csr_matrix]
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        self._qt = self.q.T.tocsr()
        if self.alpha and self.l_a is None:
            raise ValueError("alpha > 0 requires a similarity Laplacian")
        if self.beta and self.l_b is None:
            raise ValueError("beta > 0 requires an adjacency Laplacian")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.q @ (self._qt @ x)
        if self.alpha:
            y += self.alpha * (self.l_a @ x)
        if self.beta:
            y += self.beta * (self.l_b @ x)
        y += self.gamma * x
        return y


@dataclass(frozen=True)
class SolveInfo:
    iterations: int
    residual: float  # relative, ||M d - Q c|| / ||Q c||


def solve_weights(
    q: sp.csr_matrix,
    costs: np.ndarray,
    l_a: Optional[sp.csr_matrix],
    l_b: Optional[sp.csr_matrix],
    alpha: float,
    beta: float,
    gamma: float,
    tol: float = DEFAULT_CG_TOL,
    max_iters: Optional[int] = None,
) -> tuple[np.ndarray, SolveInfo]:
    """Minimize the full objective by conjugate gradient on its normal system.

    gamma must be positive: it makes the operator positive definite and the
    minimizer unique. Returns the cost vector and solve statistics; raises
    ConvergenceError when the relative residual does not reach tol within
    max_iters (default 10x the number of unknowns), and at the first
    non-finite residual.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive for a positive-definite system")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    op = SystemOperator(q=q, l_a=l_a, l_b=l_b, alpha=alpha, beta=beta, gamma=gamma)
    b = q @ np.asarray(costs, dtype=float)
    b_norm = float(np.linalg.norm(b))
    n = op.n
    if max_iters is None:
        max_iters = 10 * n
    if b_norm == 0.0:
        return np.zeros(n), SolveInfo(iterations=0, residual=0.0)

    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    iterations = 0
    res_norm = b_norm
    while iterations < max_iters:
        if not np.isfinite(res_norm):
            raise ConvergenceError(
                "conjugate gradient hit a non-finite residual (non-finite costs or matrices?)",
                res_norm / b_norm,
                iterations,
            )
        ap = op.apply(p)
        p_ap = float(p @ ap)
        if p_ap <= 0:
            raise ConvergenceError(
                "conjugate gradient broke down (operator not positive definite?)",
                res_norm / b_norm,
                iterations,
            )
        step = rr / p_ap
        x += step * p
        r -= step * ap
        iterations += 1
        res_norm = float(np.linalg.norm(r))
        if res_norm <= tol * b_norm:
            true_r = b - op.apply(x)
            true_norm = float(np.linalg.norm(true_r))
            if true_norm <= tol * b_norm:
                return x, SolveInfo(iterations=iterations, residual=true_norm / b_norm)
            r = true_r  # recurrence drifted; restart from the true residual
            res_norm = true_norm
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise ConvergenceError(
        "conjugate gradient did not converge", res_norm / b_norm, iterations
    )


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
    l_a: Optional[sp.csr_matrix],
    l_b: Optional[sp.csr_matrix],
    alpha: float,
    beta: float,
    gamma: float,
) -> ObjectiveTerms:
    """Evaluate every objective term at a given cost vector."""
    residual = np.asarray(costs, dtype=float) - q.T @ d
    rss = float(residual @ residual)
    sim = float(d @ (l_a @ d)) if l_a is not None else 0.0
    adj = float(d @ (l_b @ d)) if l_b is not None else 0.0
    l2 = float(d @ d)
    return ObjectiveTerms(
        rss=rss,
        similarity_penalty=sim,
        adjacency_penalty=adj,
        l2=l2,
        total=rss + alpha * sim + beta * adj + gamma * l2,
    )


def annotated_mask(
    q: sp.csr_matrix,
    a: Optional[sp.spmatrix] = None,
    b: Optional[sp.spmatrix] = None,
) -> np.ndarray:
    """Entries of the cost vector that actually receive information.

    An entry is annotated when it is reachable from some trip-touched entry
    through nonzero entries of the active constraint matrices; everything
    else solves to zero under the ridge term alone. With no constraints this
    reduces to plain trip coverage.
    """
    seeds = np.asarray(q.getnnz(axis=1) > 0)
    pattern = None
    for m in (a, b):
        if m is not None and m.nnz:
            pattern = m if pattern is None else pattern + m
    if pattern is None or not seeds.any():
        return seeds
    _, labels = connected_components(pattern, directed=False)
    seed_labels = np.unique(labels[seeds])
    return np.isin(labels, seed_labels)
