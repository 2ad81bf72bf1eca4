"""Accuracy and coverage metrics, objective-variant comparison, baselines."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .config import RunConfig
from .graph import DAY_CLASSES, CostVector, DualGraph, RoadGraph
from .pagerank import pagerank, transition_matrices
from .solver import (
    AugmentedPattern,
    SimilarityLaplacian,
    SolveInfo,
    annotated_mask,
    build_b,
    build_q,
    laplacian,
    solve_weights,
)
from .trips import TripSet, partition_by_tag, split_trips, trip_costs


def ssl(trips: TripSet, graph: RoadGraph, costs: CostVector) -> float:
    """Sum of squared loss between actual and estimated trip costs."""
    return float(np.sum((trips.costs() - trip_costs(trips, graph, costs)) ** 2))


def alr_curve(trips: TripSet, graph: RoadGraph, costs: CostVector) -> list[tuple[int, float]]:
    """Fraction of trips whose absolute loss ratio, |estimated - actual| / actual,
    stays within each threshold of 1, 2, ..., 100 percent."""
    actual = trips.costs()
    if np.any(actual <= 0):
        raise ValueError("absolute loss ratio needs a positive actual cost")
    ratios = np.abs(trip_costs(trips, graph, costs) - actual) / actual
    return [
        (pct, float(np.mean(ratios <= pct / 100.0)) if len(ratios) else 0.0)
        for pct in range(1, 101)
    ]


def edge_coverage(graph: RoadGraph, entry_mask: np.ndarray) -> float:
    """Fraction of edges with at least one annotated (edge, tag) entry."""
    if entry_mask.shape != (graph.n_entries,):
        raise ValueError("entry mask must cover every (edge, tag) entry")
    per_edge = entry_mask.reshape(graph.n_tags, graph.n_edges).any(axis=0)
    return float(per_edge.mean()) if graph.n_edges else 0.0


def speed_limit_baseline(graph: RoadGraph, lam: float = 1.0) -> CostVector:
    """Travel-time weights derived from speed limits, in seconds per meter.

    Urban edges (``graph.is_highway`` false) get lambda * length / speed to
    reflect driving below the limit; highways get length / speed. An edge
    without a limit is urban and counts as 50 km/h. The result is identical
    across tags.
    """
    if lam < 1:
        raise ValueError("lambda must be at least 1")
    seconds_per_meter = 3.6 / np.nan_to_num(graph.speed_limits, nan=50.0)
    per_edge = np.where(graph.is_highway(), seconds_per_meter, lam * seconds_per_meter)
    return CostVector(np.tile(per_edge, graph.n_tags), graph.n_edges, graph.n_tags)


@dataclass(frozen=True)
class EvalReport:
    """Held-out accuracy and coverage of the four objective variants."""

    ssl_per_variant: dict[str, float]
    ratios: dict[str, float]  # SSL relative to F1
    coverage_per_variant: dict[str, float]
    alr_curve: list[tuple[int, float]]
    solve_info: dict[str, SolveInfo] = field(default_factory=dict)


@dataclass
class ConstraintMatrices:
    """Q, the similarity Laplacian, the adjacency matrix, its Laplacian, and Q's pattern."""

    q: sp.csr_matrix
    l_a: SimilarityLaplacian
    b: sp.csr_matrix
    l_b: sp.csr_matrix
    pattern: AugmentedPattern  # Q's: one factor ordering for every solve here
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def mask(self, use_a: bool, use_b: bool) -> np.ndarray:
        """Annotated mask under the active constraints, computed once per pair.

        The mask depends only on Q and on which of A and B are active, not on
        their coefficients, so every solve with the same active set shares it.
        The array is read-only for that reason.
        """
        key = (bool(use_a), bool(use_b))
        if key not in self._masks:
            mask = annotated_mask(self.q, self.a if key[0] else None, self.b if key[1] else None)
            mask.flags.writeable = False
            self._masks[key] = mask
        return self._masks[key]

    @property
    def a(self) -> sp.csr_matrix:
        """A sparse graph with the similarity matrix's connected components."""
        return self.l_a.chain()


def build_constraints(
    train: TripSet, graph: RoadGraph, dual: DualGraph, config: RunConfig
) -> ConstraintMatrices:
    """Assemble every matrix the variant solves share for one training set."""
    partitions = partition_by_tag(train, graph.tag_schedule)
    transitions = transition_matrices(dual, partitions)
    prs = [pagerank(tm, tol=config.pr_tol) for tm in transitions]
    l_a = SimilarityLaplacian(prs, config.similarity_threshold)
    b = build_b(transitions, dual, graph.is_highway(config.highway_cutoff_kmh))
    q = build_q(train, graph)
    return ConstraintMatrices(q=q, l_a=l_a, b=b, l_b=laplacian(b), pattern=AugmentedPattern(q))


def solve_variant(
    matrices: ConstraintMatrices,
    train_costs: np.ndarray,
    graph: RoadGraph,
    config: RunConfig,
    variant: str,
    *,
    x0: Optional[np.ndarray] = None,
) -> tuple[CostVector, np.ndarray, SolveInfo]:
    """Solve one objective variant; returns weights, annotated mask, stats.

    ``x0``, keyword only, is CG's starting guess (see solve_weights).
    """
    alpha, beta = config.variant_coefficients(variant)
    values, info = solve_weights(
        matrices.q,
        train_costs,
        matrices.l_a if alpha else None,
        matrices.l_b if beta else None,
        alpha,
        beta,
        config.gamma,
        tol=config.cg_tol,
        pattern=matrices.pattern,
        x0=x0,
    )
    mask = matrices.mask(bool(alpha), bool(beta))
    weights = CostVector(np.where(mask, values, 0.0), graph.n_edges, graph.n_tags)
    return weights, mask, info


def run_comparison(
    train: TripSet,
    test: TripSet,
    graph: RoadGraph,
    dual: DualGraph,
    config: RunConfig,
    variants: Sequence[str] = ("F1", "F2", "F3", "F4"),
) -> EvalReport:
    """Fit every objective variant on the training set, score on the test set.

    All variants share the same constraint matrices and training data; only
    the (alpha, beta) coefficients differ, so SSL ratios isolate the effect
    of each penalty term. The loss-ratio curve reports the last variant, so
    every test trip needs a positive cost; that is checked, with the variant
    names, before any fit.
    """
    if not variants:
        raise ValueError("run_comparison needs at least one variant")
    for variant in variants:
        config.variant_coefficients(variant)  # raises on an unknown variant
    zero_cost = np.flatnonzero(test.costs() <= 0)
    if len(zero_cost):
        table = test.table
        first = np.searchsorted(table.trip, zero_cost[0])  # the trip's first record
        raise ValueError(
            f"{len(zero_cost)} test trip(s) have cost 0, but the absolute loss ratio "
            f"needs a positive actual cost; first: test trip {zero_cost[0]}, starting on "
            f"edge {graph.edge_ids[table.edge[first]]!r} on a "
            f"{DAY_CLASSES[table.day[first]]} at minute {float(table.enter[first]):g}"
        )
    matrices = build_constraints(train, graph, dual, config)
    train_costs = train.costs()

    ssl_per, coverage_per, infos, weights_per = {}, {}, {}, {}
    for variant in variants:
        weights, mask, info = solve_variant(matrices, train_costs, graph, config, variant)
        ssl_per[variant] = ssl(test, graph, weights)
        coverage_per[variant] = edge_coverage(graph, mask)
        infos[variant] = info
        weights_per[variant] = weights

    base = ssl_per.get("F1")
    ratios = {
        v: (value / base if base else float("nan")) for v, value in ssl_per.items()
    }
    curve_variant = variants[-1]
    curve = alr_curve(test, graph, weights_per[curve_variant]) if len(test) else []
    return EvalReport(
        ssl_per_variant=ssl_per,
        ratios=ratios,
        coverage_per_variant=coverage_per,
        alr_curve=curve,
        solve_info=infos,
    )


def grid_search(
    trips: TripSet,
    graph: RoadGraph,
    dual: DualGraph,
    base_config: RunConfig,
    alphas: Sequence[float] = (0.1, 1.0, 10.0),
    betas: Sequence[float] = (0.1, 1.0, 10.0),
    gammas: Sequence[float] = (1e-4,),
    n_folds: int = 3,
    variant: str = "F4",
    seed: Optional[int] = None,
) -> tuple[RunConfig, list[dict]]:
    """Pick (alpha, beta, gamma) by k-fold cross-validated held-out SSL.

    The constraint matrices depend only on the fold's training trips, so
    each fold assembles them once and reuses them across the whole grid.
    Within a fold the combinations are visited in snake order: alpha by
    alpha, with the (beta, gamma) pairs reversed on every other alpha, so a
    new alpha starts at the pair the last one ended on. Each solve starts CG
    from the previous one's masked weights (folds differ in Q, so each fold
    starts from zero). Where CG stops depends on where it starts, within
    cg_tol; at the default 1e-8 the residual leaves mean SSL values of the
    order of 1e-3 relative off the exact minimizer's, warm or cold, so
    combinations whose scores are that close (a near-tie) can be picked
    either way.

    Every combination's configuration and the variant are checked before
    any fold is fitted. Returns the best configuration and the full score
    table (mean SSL over folds per combination, alpha-major),
    deterministically for a fixed seed.
    """
    seed = base_config.seed if seed is None else seed
    if n_folds < 2:
        raise ValueError(f"cross-validation needs at least 2 folds, got {n_folds}")
    n = len(trips)
    if n < n_folds:
        raise ValueError(f"{n} trips cannot form {n_folds} folds")
    if not min(len(alphas), len(betas), len(gammas)):
        raise ValueError(
            "the grid needs at least one value each of alpha, beta and gamma, got "
            f"alphas={tuple(alphas)}, betas={tuple(betas)}, gammas={tuple(gammas)}"
        )
    base_config.variant_coefficients(variant)  # raises on an unknown variant
    combos = [
        (alpha, beta, gamma) for alpha in alphas for beta in betas for gamma in gammas
    ]
    configs = {  # builds, and so checks, every combination's settings
        combo: replace(base_config, alpha=combo[0], beta=combo[1], gamma=combo[2])
        for combo in combos
    }
    inner = [(beta, gamma) for beta in betas for gamma in gammas]
    snake = [
        (alpha, *pair)
        for i, alpha in enumerate(alphas)
        for pair in (inner[::-1] if i % 2 else inner)
    ]
    order = np.random.default_rng(seed).permutation(n)
    folds = [order[k::n_folds] for k in range(n_folds)]

    scores = {combo: [] for combo in combos}
    for k in range(n_folds):
        in_val = np.zeros(n, dtype=bool)
        in_val[folds[k]] = True
        fold_train = trips.subset(np.flatnonzero(~in_val))
        fold_val = trips.subset(np.flatnonzero(in_val))
        matrices = build_constraints(fold_train, graph, dual, base_config)
        train_costs = fold_train.costs()
        start = None
        for combo in snake:
            weights, _, _ = solve_variant(
                matrices, train_costs, graph, configs[combo], variant, x0=start
            )
            scores[combo].append(ssl(fold_val, graph, weights))
            start = weights.values

    table = [
        {
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "mean_ssl": float(np.mean(scores[(alpha, beta, gamma)])),
        }
        for alpha, beta, gamma in combos
    ]
    best = min(table, key=lambda row: row["mean_ssl"])
    best_config = replace(
        base_config, alpha=best["alpha"], beta=best["beta"], gamma=best["gamma"]
    )
    return best_config, table


def pool_fractions(values: Iterable) -> tuple[float, ...]:
    """Training-pool fractions as floats; each must lie in (0, 1]."""
    fractions = tuple(float(v) for v in values)
    bad = [f for f in fractions if not 0 < f <= 1]
    if bad:
        raise ValueError(f"training-pool fractions must be in (0, 1], got {bad}")
    return fractions


def training_size_sweep(
    trips: TripSet,
    graph: RoadGraph,
    dual: DualGraph,
    config: RunConfig,
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    test_fraction: float = 0.2,
    variant: str = "F4",
    seed: Optional[int] = None,
) -> list[tuple[float, float]]:
    """Held-out SSL as the training pool is subsampled at several fractions.

    Reserves a fixed test set, then reuses prefixes of one shuffled training
    pool so larger fractions strictly contain smaller ones.
    """
    fractions = pool_fractions(fractions)
    seed = config.seed if seed is None else seed
    pool, test = split_trips(trips, 1.0 - test_fraction, seed)
    order = np.random.default_rng(seed + 1).permutation(len(pool))
    results = []
    for fraction in fractions:
        n = max(1, int(round(fraction * len(pool))))
        subset = pool.subset(order[:n])
        matrices = build_constraints(subset, graph, dual, config)
        weights, _, _ = solve_variant(matrices, subset.costs(), graph, config, variant)
        results.append((float(fraction), ssl(test, graph, weights)))
    return results
