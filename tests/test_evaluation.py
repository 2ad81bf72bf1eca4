import numpy as np
import pytest

import roadcost.evaluation as evaluation
from roadcost.config import RunConfig
from roadcost.evaluation import (
    alr,
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
from roadcost.solver import annotated_mask
from roadcost.synth import SyntheticSpec, generate_synthetic
from roadcost.trips import LinkRecord, Trip, TripSet, split_trips

from conftest import make_trip, tripset


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


class TestAlr:
    def test_overestimate(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule)
        d = CostVector(np.array([1.30]), 1, 1)
        trip = Trip((LinkRecord(0, "weekday", 0.0, 1.0),), 100.0)
        assert alr(trip, g, d) == pytest.approx(0.30)

    def test_exact_estimate(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule)
        d = CostVector(np.array([1.0]), 1, 1)
        trip = Trip((LinkRecord(0, "weekday", 0.0, 1.0),), 100.0)
        assert alr(trip, g, d) == 0.0

    def test_underestimate(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule)
        d = CostVector(np.array([0.50]), 1, 1)
        trip = Trip((LinkRecord(0, "weekday", 0.0, 1.0),), 100.0)
        assert alr(trip, g, d) == pytest.approx(0.5)

    def test_zero_actual_rejected(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule)
        d = CostVector(np.array([0.5]), 1, 1)
        trip = Trip((LinkRecord(0, "weekday", 0.0, 1.0),), 0.0)
        with pytest.raises(ValueError, match="positive actual cost"):
            alr(trip, g, d)

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
        mask[junction_graph.entry_index(0, 1)] = True  # edge 0 only in tag 1
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
        base = speed_limit_baseline(g, lam=1.0, default_kmh=50.0)
        assert base.values[0] == base.values[1]

    def test_identical_across_tags(self, two_tag_schedule):
        g = _unit_graph(two_tag_schedule, lengths=(100.0,), limits=[80.0])
        base = speed_limit_baseline(g, lam=1.5)
        assert base.values[0] == base.values[1]

    def test_lambda_below_one_rejected(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule, limits=[50.0])
        with pytest.raises(ValueError, match="lambda"):
            speed_limit_baseline(g, lam=0.5)

    def test_bad_default_rejected(self, single_tag_schedule):
        g = _unit_graph(single_tag_schedule, limits=[50.0])
        with pytest.raises(ValueError, match="default"):
            speed_limit_baseline(g, default_kmh=0.0)


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
