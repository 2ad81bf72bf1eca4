import re
import weakref

import numpy as np
import pytest

import roadcost.evaluation as evaluation
import roadcost.solver as solver
from roadcost.config import VARIANTS, RunConfig
from roadcost.evaluation import (
    alr_curve,
    build_constraints,
    edge_coverage,
    grid_search,
    run_comparison,
    solve_variant,
    speed_limit_baseline,
    ssl,
    training_size_sweep,
)
from roadcost.graph import CostVector, RoadGraph, build_dual
from roadcost.pagerank import pagerank, transition_matrices
from roadcost.solver import annotated_mask, build_a, solve_weights
from roadcost.synth import SyntheticSpec, generate_synthetic
from roadcost.trips import LinkRecord, Trip, TripSet, partition_by_tag, split_trips

from conftest import entry, make_trip, tripset


def _unit_graph(schedule, lengths=(100.0,), limits=None):
    vertices = [f"v{i}" for i in range(len(lengths) + 1)]
    edges = [(vertices[i], vertices[i + 1]) for i in range(len(lengths))]
    return RoadGraph.from_edges(vertices, edges, lengths, schedule, speed_limits=limits)


class TestSsl:
    def test_perfect_weights(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule)
        d = CostVector(np.array([0.05]), 1, 1)
        trip = Trip((LinkRecord(0, "weekday", 100.0, 101.0),), 5.0)
        assert ssl(tripset(trip), g, d) == 0.0

    def test_single_residual(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule)
        d = CostVector(np.array([0.07]), 1, 1)  # estimate 7, actual 10
        trip = Trip((LinkRecord(0, "weekday", 100.0, 101.0),), 10.0)
        assert ssl(tripset(trip), g, d) == pytest.approx(9.0)

    def test_sum_of_squares(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule)
        d = CostVector(np.array([0.0]), 1, 1)
        trips = tripset(
            Trip((LinkRecord(0, "weekday", 100.0, 101.0),), 1.0),
            Trip((LinkRecord(0, "weekday", 200.0, 201.0),), 2.0),
        )
        assert ssl(trips, g, d) == pytest.approx(5.0)


def _one_trip_curve(schedule, weight, actual):
    """The loss-ratio curve of one 100 m trip, as {percent: fraction}."""
    d = CostVector(np.array([weight]), 1, 1)
    trip = Trip((LinkRecord(0, "weekday", 0.0, 1.0),), actual)
    return dict(alr_curve(tripset(trip), _unit_graph(schedule), d))


class TestAlr:
    # 100 m at these weights costs 125, 100 and 50 exactly, and the ratios
    # 0.25 and 0.5 equal their thresholds exactly
    def test_overestimate(self, single_tag_schedule):
        curve = _one_trip_curve(single_tag_schedule, 1.25, 100.0)
        assert (curve[24], curve[25]) == (0.0, 1.0)

    def test_exact_estimate(self, single_tag_schedule):
        assert _one_trip_curve(single_tag_schedule, 1.0, 100.0)[1] == 1.0

    def test_underestimate(self, single_tag_schedule):
        curve = _one_trip_curve(single_tag_schedule, 0.5, 100.0)
        assert (curve[49], curve[50]) == (0.0, 1.0)

    def test_zero_actual_rejected(self, single_tag_schedule):
        with pytest.raises(ValueError, match="positive actual cost"):
            _one_trip_curve(single_tag_schedule, 0.5, 0.0)

    def test_curve_is_cdf(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule)
        d = CostVector(np.array([0.9]), 1, 1)
        trips = tripset(
            *[
                Trip((LinkRecord(0, "weekday", 0.0, 1.0),), actual)
                for actual in (60.0, 80.0, 90.0, 95.0, 120.0)
            ]
        )
        curve = alr_curve(trips, g, d)
        fractions = [f for _, f in curve]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert curve[-1][1] == 1.0
        assert [pct for pct, _ in curve] == list(range(1, 101))


class TestEdgeCoverage:
    def test_full(self, junction_graph):
        mask = np.ones(junction_graph.n_entries, dtype=bool)
        assert edge_coverage(junction_graph, mask) == 1.0

    def test_any_tag_counts(self, junction_graph):
        mask = np.zeros(junction_graph.n_entries, dtype=bool)
        mask[entry(junction_graph, 0, 1)] = True  # edge 0 only in tag 1
        assert edge_coverage(junction_graph, mask) == pytest.approx(1 / 5)

    def test_shape_contract(self, junction_graph):
        with pytest.raises(ValueError):
            edge_coverage(junction_graph, np.ones(3, dtype=bool))


class TestSpeedLimitBaseline:
    def test_urban_weight(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule, lengths=(100.0,), limits=[50.0])
        base = speed_limit_baseline(g, lam=1.0)
        assert base.values[0] * 100.0 == pytest.approx(7.2)  # seconds for 100 m

    def test_lambda_scales_urban(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule, lengths=(100.0,), limits=[50.0])
        base = speed_limit_baseline(g, lam=2.0)
        assert base.values[0] * 100.0 == pytest.approx(14.4)

    def test_highway_not_scaled(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule, lengths=(100.0,), limits=[110.0])
        assert speed_limit_baseline(g, lam=2.0).values[0] == pytest.approx(3.6 / 110.0)

    def test_missing_limit_uses_default(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule, lengths=(100.0, 100.0), limits=[None, 50.0])
        base = speed_limit_baseline(g, lam=2.0)
        assert base.values[0] == base.values[1] == 2.0 * 3.6 / 50.0

    def test_splits_where_the_adjacency_penalty_does(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule, lengths=(100.0,) * 4, limits=[None, 80.0, 89.9, 90.0])
        scaled = speed_limit_baseline(g, lam=2.0).values != speed_limit_baseline(g).values
        assert scaled.tolist() == (~g.is_highway()).tolist() == [True, True, True, False]

    def test_identical_across_tags(self, two_tag_schedule):
        g = _unit_graph(two_tag_schedule, lengths=(100.0,), limits=[80.0])
        base = speed_limit_baseline(g, lam=1.5)
        assert base.values[0] == base.values[1]

    def test_lambda_below_one_rejected(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule, limits=[50.0])
        with pytest.raises(ValueError, match="lambda"):
            speed_limit_baseline(g, lam=0.5)


@pytest.fixture(scope="module")
def small_experiment():
    spec = SyntheticSpec(rows=6, cols=6, n_trips=60, trip_len=(3, 7), coverage=0.4, noise=0.05)
    graph, truth, trips = generate_synthetic(spec, seed=11)
    dual = build_dual(graph)
    train, test = split_trips(trips, 0.5, seed=12)
    return graph, dual, truth, trips, train, test


class TestRunComparison:
    def test_f1_ratio_is_one(self, small_experiment):
        graph, dual, _, _, train, test = small_experiment
        report = run_comparison(train, test, graph, dual, RunConfig())
        assert report.ratios["F1"] == 1.0

    def test_coverage_orderings(self, small_experiment):
        graph, dual, _, _, train, test = small_experiment
        report = run_comparison(train, test, graph, dual, RunConfig())
        cov = report.coverage_per_variant
        assert cov["F1"] <= cov["F2"] <= cov["F4"]
        assert cov["F1"] <= cov["F3"] <= cov["F4"]
        # adjacency reaches everything on a strongly connected grid
        assert cov["F3"] == 1.0 and cov["F4"] == 1.0

    def test_f1_training_fit_beats_zero_weights(self, small_experiment):
        graph, dual, _, _, train, test = small_experiment
        report = run_comparison(train, train, graph, dual, RunConfig(gamma=1e-8))
        zero = CostVector.zeros(graph)
        assert report.ssl_per_variant["F1"] <= ssl(train, graph, zero)

    def test_unknown_variant_rejected(self, small_experiment):
        graph, dual, _, _, train, test = small_experiment
        with pytest.raises(ValueError, match="variant"):
            run_comparison(train, test, graph, dual, RunConfig(), variants=("F9",))

    @pytest.mark.parametrize(
        "variants,message",
        [
            (("F1", "F9"), "unknown variant 'F9': must be one of ['F1', 'F2', 'F3', 'F4']"),
            ((), "run_comparison needs at least one variant"),
        ],
    )
    def test_variants_checked_before_any_fit(
        self, small_experiment, monkeypatch, variants, message
    ):
        graph, dual, _, _, train, test = small_experiment

        def no_fit(*args, **kwargs):
            raise AssertionError("variants are checked before any fit")

        monkeypatch.setattr(evaluation, "build_constraints", no_fit)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_comparison(train, test, graph, dual, RunConfig(), variants=variants)

    def test_zero_cost_message_names_the_first_record(self, small_experiment):
        graph, dual, _, _, train, _ = small_experiment
        trips = tripset(
            Trip((LinkRecord(1, "weekday", 600.0, 601.0), LinkRecord(2, "weekday", 601.0, 603.0)),
                 2.0),
            Trip((LinkRecord(3, "weekend", 1000.5, 1002.0),), 0.0),
            Trip((LinkRecord(5, "weekday", 30.0, 31.0), LinkRecord(6, "weekday", 31.0, 32.0)),
                 0.0),
        )
        with pytest.raises(ValueError) as err:
            run_comparison(train, trips.subset([0, 2, 1]), graph, dual, RunConfig())
        assert str(err.value) == (
            "2 test trip(s) have cost 0, but the absolute loss ratio needs a positive "
            f"actual cost; first: test trip 1, starting on edge {graph.edge_ids[5]!r} "
            "on a weekday at minute 30"
        )

    def test_deterministic(self, small_experiment):
        graph, dual, _, _, train, test = small_experiment
        r1 = run_comparison(train, test, graph, dual, RunConfig(), variants=("F1", "F4"))
        r2 = run_comparison(train, test, graph, dual, RunConfig(), variants=("F1", "F4"))
        assert r1.ssl_per_variant == r2.ssl_per_variant


def test_training_size_sweep_shape(small_experiment):
    graph, dual, _, trips, _, _ = small_experiment
    results = training_size_sweep(
        trips, graph, dual, RunConfig(), fractions=(0.5, 1.0), test_fraction=0.25, seed=5
    )
    assert [f for f, _ in results] == [0.5, 1.0]
    assert all(s >= 0 for _, s in results)


@pytest.mark.parametrize("fractions", [(0.0,), (0.5, 1.5), (-2.0,), (float("nan"),)])
def test_training_size_sweep_rejects_fractions_outside_unit_interval(
    small_experiment, fractions, monkeypatch
):
    graph, dual, _, trips, _, _ = small_experiment

    def no_fit(*args, **kwargs):
        raise AssertionError("build_constraints called")

    monkeypatch.setattr("roadcost.evaluation.build_constraints", no_fit)
    with pytest.raises(ValueError, match=r"fractions must be in \(0, 1\]"):
        training_size_sweep(trips, graph, dual, RunConfig(), fractions=fractions)


class TestGridSearch:
    def test_picks_grid_minimum(self, small_experiment):
        graph, dual, _, trips, _, _ = small_experiment
        best, table = grid_search(
            trips, graph, dual, RunConfig(),
            alphas=(0.1, 1.0), betas=(0.5, 4.0), gammas=(1e-4,),
            n_folds=3, seed=8,
        )
        assert len(table) == 4
        best_row = min(table, key=lambda r: r["mean_ssl"])
        assert best.alpha == best_row["alpha"]
        assert best.beta == best_row["beta"]

    def test_deterministic(self, small_experiment):
        graph, dual, _, trips, _, _ = small_experiment
        _, t1 = grid_search(trips, graph, dual, RunConfig(), alphas=(1.0,),
                            betas=(1.0, 2.0), n_folds=2, seed=8)
        _, t2 = grid_search(trips, graph, dual, RunConfig(), alphas=(1.0,),
                            betas=(1.0, 2.0), n_folds=2, seed=8)
        assert t1 == t2

    def test_too_few_trips(self, small_experiment):
        graph, dual, _, _, _, _ = small_experiment
        tiny = TripSet(tuple())
        with pytest.raises(ValueError, match="folds"):
            grid_search(tiny, graph, dual, RunConfig(), n_folds=3)

    @pytest.mark.parametrize("n_folds", [1, 0, -2])
    def test_fewer_than_two_folds_rejected(self, small_experiment, monkeypatch, n_folds):
        graph, dual, _, trips, _, _ = small_experiment

        def no_fit(*args, **kwargs):
            raise AssertionError("folds are checked before any fit")

        monkeypatch.setattr(evaluation, "build_constraints", no_fit)
        with pytest.raises(ValueError, match=f"at least 2 folds, got {n_folds}"):
            grid_search(trips, graph, dual, RunConfig(), n_folds=n_folds)

    @pytest.mark.parametrize(
        "grid,message",
        [
            (dict(alphas=()), "at least one value each of alpha, beta and gamma, got "
                              "alphas=(), betas=(0.1, 1.0, 10.0), gammas=(0.0001,)"),
            (dict(betas=[]), "betas=()"),
            (dict(gammas=()), "gammas=()"),
            (dict(variant="F9"), "unknown variant 'F9': must be one of ['F1', 'F2', 'F3', 'F4']"),
            (dict(betas=(1.0, -1.0)), "beta must be finite and non-negative, got -1.0"),
            (dict(gammas=(1e-4, 0.0)), "gamma must be positive and finite, got 0.0"),
        ],
        ids=["no-alpha", "no-beta", "no-gamma", "variant", "negative-beta", "zero-gamma"],
    )
    def test_bad_grid_rejected_before_any_fit(self, small_experiment, monkeypatch, grid, message):
        graph, dual, _, trips, _, _ = small_experiment

        def no_fit(*args, **kwargs):
            raise AssertionError("the grid is checked before any fit")

        monkeypatch.setattr(evaluation, "build_constraints", no_fit)
        with pytest.raises(ValueError, match=re.escape(message)):
            grid_search(trips, graph, dual, RunConfig(), **grid)

    def test_snake_order_with_warm_starts_within_each_fold(self, small_experiment, monkeypatch):
        graph, dual, _, trips, _, _ = small_experiment
        calls, solve = [], evaluation.solve_variant

        def recording(matrices, costs, graph, config, variant, *, x0=None):
            calls.append(((config.alpha, config.beta, config.gamma), x0))
            return solve(matrices, costs, graph, config, variant, x0=x0)

        monkeypatch.setattr(evaluation, "solve_variant", recording)
        _, table = grid_search(trips, graph, dual, RunConfig(), alphas=(0.1, 1.0, 10.0),
                               betas=(0.5, 4.0), gammas=(1e-4, 1e-2), n_folds=2, seed=8)
        inner = [(0.5, 1e-4), (0.5, 1e-2), (4.0, 1e-4), (4.0, 1e-2)]
        snake = [(a, *pair) for a, pairs in zip((0.1, 1.0, 10.0), (inner, inner[::-1], inner))
                 for pair in pairs]
        assert [combo for combo, _ in calls] == 2 * snake
        starts = [x0 for _, x0 in calls]
        assert starts[0] is None and starts[12] is None  # each fold starts from zero
        assert all(x0 is not None for x0 in starts[1:12] + starts[13:])
        assert [(r["alpha"], r["beta"], r["gamma"]) for r in table] == sorted(snake)

    def test_one_mask_per_fold(self, small_experiment, monkeypatch):
        graph, dual, _, trips, _, _ = small_experiment
        calls = []

        def counting_mask(*args, **kwargs):
            calls.append(args)
            return annotated_mask(*args, **kwargs)

        monkeypatch.setattr(evaluation, "annotated_mask", counting_mask)
        grid_search(trips, graph, dual, RunConfig(), n_folds=3, seed=8)
        assert len(calls) == 3  # 9 (alpha, beta) solves per fold share one F4 mask

    def test_preconditioned_solves_stay_short(self, monkeypatch):
        # plain CG took 169-688 iterations per solve on this dataset
        spec = SyntheticSpec(rows=12, cols=12, n_trips=144, coverage=0.3, noise=0.05)
        graph, _, trips = generate_synthetic(spec, seed=1)
        iterations = []
        solve = evaluation.solve_weights

        def recording_solve(*args, **kwargs):
            d, info = solve(*args, **kwargs)
            iterations.append(info.iterations)
            return d, info

        monkeypatch.setattr(evaluation, "solve_weights", recording_solve)
        grid_search(trips, graph, build_dual(graph), RunConfig(seed=1))
        assert len(iterations) == 27
        assert max(iterations) <= 50
        # each solve starts from its grid neighbour's weights: 544 in total from zero
        assert sum(iterations) <= 400


def _dense_grid(trips, graph, dual, config, combos, n_folds=3):
    """grid_search's mean SSL per combination, each fold's F4 system solved densely."""
    order = np.random.default_rng(config.seed).permutation(len(trips))
    scores = {combo: [] for combo in combos}
    for k in range(n_folds):
        val = np.sort(order[k::n_folds])
        train = trips.subset(np.setdiff1d(np.arange(len(trips)), val))
        m = build_constraints(train, graph, dual, config)
        n = m.q.shape[0]
        qq, l_b = (m.q @ m.q.T).toarray(), m.l_b.toarray()
        l_a = np.column_stack([m.l_a @ e for e in np.eye(n)])
        rhs, mask = m.q @ train.costs(), m.mask(True, True)
        for alpha, beta, gamma in combos:
            d = np.linalg.solve(qq + alpha * l_a + beta * l_b + gamma * np.eye(n), rhs)
            weights = CostVector(np.where(mask, d, 0.0), graph.n_edges, graph.n_tags)
            scores[alpha, beta, gamma].append(ssl(trips.subset(val), graph, weights))
    return {combo: float(np.mean(s)) for combo, s in scores.items()}


@pytest.mark.parametrize("seed", [1, 6])
def test_grid_search_matches_the_dense_reference(seed):
    # CG stops at cg_tol 1e-8 on the residual, which leaves each mean SSL
    # up to about 5e-3 relative off the exact minimizer's (warm or cold)
    spec = SyntheticSpec(rows=12, cols=12, n_trips=144, coverage=0.3, noise=0.05)
    graph, _, trips = generate_synthetic(spec, seed=seed)
    dual, config = build_dual(graph), RunConfig(seed=seed)
    best, table = grid_search(trips, graph, dual, config)
    combos = [(a, b, 1e-4) for a in (0.1, 1.0, 10.0) for b in (0.1, 1.0, 10.0)]
    assert [(row["alpha"], row["beta"], row["gamma"]) for row in table] == combos
    reference = _dense_grid(trips, graph, dual, config, combos)
    for row, combo in zip(table, combos):
        assert row["mean_ssl"] == pytest.approx(reference[combo], rel=1e-2)
    first, second = sorted(reference, key=reference.get)[:2]
    if reference[second] - reference[first] >= 1e-3 * reference[first]:  # not a near-tie
        assert (best.alpha, best.beta, best.gamma) == first


@pytest.mark.parametrize("n_trips,factored", [(144, True), (4000, False)])
def test_trip_overlap_selects_the_solve_path(n_trips, factored):
    # 2,000 training trips on a 12x12 grid put about 15 on each unknown,
    # where plain CG beats the preconditioner's factor
    spec = SyntheticSpec(rows=12, cols=12, n_trips=n_trips, coverage=0.3, noise=0.05)
    graph, _, trips = generate_synthetic(spec, seed=1)
    train, _ = split_trips(trips, 0.5, seed=1)
    config = RunConfig(seed=1)
    matrices = build_constraints(train, graph, build_dual(graph), config)
    _, _, info = solve_variant(matrices, train.costs(), graph, config, "F4")
    assert (info.factor_nnz > 0) == factored
    assert info.residual <= config.cg_tol


def _grid12(n_trips=144):
    spec = SyntheticSpec(rows=12, cols=12, n_trips=n_trips, coverage=0.3, noise=0.05)
    graph, _, trips = generate_synthetic(spec, seed=1)
    return graph, build_dual(graph), *split_trips(trips, 0.5, seed=1)


class TestSharedOrdering:
    def test_variants_keep_the_iterations_of_fresh_factors(self):
        graph, dual, train, _ = _grid12()
        config = RunConfig(seed=1)
        matrices = build_constraints(train, graph, dual, config)
        for variant in VARIANTS:
            alpha, beta = config.variant_coefficients(variant)
            _, _, shared = solve_variant(matrices, train.costs(), graph, config, variant)
            _, fresh = solve_weights(
                matrices.q, train.costs(), matrices.l_a if alpha else None,
                matrices.l_b if beta else None, alpha, beta, config.gamma, tol=config.cg_tol,
            )
            assert (shared.iterations, shared.factor_nnz) == (fresh.iterations, fresh.factor_nnz)
            assert shared.factor_nnz > 0

    def test_one_ordering_per_comparison(self, splu_calls):
        graph, dual, train, test = _grid12()
        run_comparison(train, test, graph, dual, RunConfig(seed=1))
        assert splu_calls == ["MMD_AT_PLUS_A"] + 3 * ["NATURAL"]

    def test_one_ordering_per_fold(self, splu_calls):
        spec = SyntheticSpec(rows=12, cols=12, n_trips=144, coverage=0.3, noise=0.05)
        graph, _, trips = generate_synthetic(spec, seed=1)
        grid_search(trips, graph, build_dual(graph), RunConfig(seed=1), n_folds=3)
        assert splu_calls.count("MMD_AT_PLUS_A") == 3
        assert splu_calls.count("NATURAL") == 24
        assert len(splu_calls) == 27

    def test_gated_training_set_never_factors(self, splu_calls):
        graph, dual, train, test = _grid12(n_trips=4000)
        report = run_comparison(train, test, graph, dual, RunConfig(seed=1))
        assert splu_calls == []
        assert all(info.factor_nnz == 0 for info in report.solve_info.values())

    def test_no_factor_outlives_its_solve(self, monkeypatch):
        class Tracked:
            """Forwards to a SuperLU factor; unlike it, takes weak references."""

            def __init__(self, lu):
                self._lu = lu

            def __getattr__(self, name):
                return getattr(self._lu, name)

        refs, factor = [], solver.splu

        def tracking(*args, **kwargs):
            lu = Tracked(factor(*args, **kwargs))
            refs.append(weakref.ref(lu))
            return lu

        monkeypatch.setattr(solver, "splu", tracking)
        graph, dual, train, _ = _grid12()
        config = RunConfig(seed=1)
        matrices = build_constraints(train, graph, dual, config)
        for k, variant in enumerate(VARIANTS, start=1):
            solve_variant(matrices, train.costs(), graph, config, variant)
            assert len(refs) == k
            assert all(ref() is None for ref in refs)


class TestConstraintMask:
    def test_matches_annotated_mask_per_active_set(self, small_experiment):
        graph, dual, _, _, train, _ = small_experiment
        matrices = build_constraints(train, graph, dual, RunConfig())
        for use_a in (False, True):
            for use_b in (False, True):
                mask = matrices.mask(use_a, use_b)
                expected = annotated_mask(
                    matrices.q, matrices.a if use_a else None, matrices.b if use_b else None
                )
                assert np.array_equal(mask, expected)
                assert matrices.mask(use_a, use_b) is mask
                assert not mask.flags.writeable

    @pytest.mark.parametrize("instance", ["small_experiment", "grid12"])
    def test_matches_the_exact_similarity_graph(self, instance, small_experiment):
        if instance == "grid12":
            spec = SyntheticSpec(rows=12, cols=12, n_trips=144, coverage=0.3, noise=0.05)
            graph, _, trips = generate_synthetic(spec, seed=1)
            dual, train = build_dual(graph), split_trips(trips, 0.5, seed=1)[0]
        else:
            graph, dual, _, _, train, _ = small_experiment
        config = RunConfig()
        matrices = build_constraints(train, graph, dual, config)
        transitions = transition_matrices(dual, partition_by_tag(train, graph.tag_schedule))
        prs = [pagerank(tm, tol=config.pr_tol) for tm in transitions]
        a = build_a(prs, config.similarity_threshold, method="exact")
        masks = set()
        for use_a in (False, True):
            for use_b in (False, True):
                expected = annotated_mask(
                    matrices.q, a if use_a else None, matrices.b if use_b else None
                )
                assert np.array_equal(matrices.mask(use_a, use_b), expected)
                masks.add(expected.tobytes())
        assert len(masks) > 1  # the active set matters on this instance
