import logging

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roadcost.errors import ConvergenceError
from roadcost.graph import WEEKDAY, RoadGraph, build_dual
from roadcost.pagerank import (
    TransitionMatrix,
    degree_stats,
    dual_weights,
    pagerank,
    pagerank_stats,
    transition_matrices,
)
from roadcost.synth import SyntheticSpec, generate_synthetic
from roadcost.trips import TripSet, partition_by_tag

from conftest import make_trip, stationary_bruteforce, tripset


def _dense_transitions(dense: np.ndarray) -> TransitionMatrix:
    """A tag-0 transition matrix holding ``dense``; all-zero rows are dead ends."""
    return TransitionMatrix(tag=0, matrix=sp.csr_matrix(dense), dangling=~dense.any(axis=1))


def _junction_trips(n_bc: int, n_bd: int, n_ba: int, start: float) -> TripSet:
    """Two-leg trips entering junction B via AB and continuing to BC/BD/BA."""
    trips = []
    trips += [make_trip([0, 2], start=start) for _ in range(n_bc)]
    trips += [make_trip([0, 4], start=start) for _ in range(n_bd)]
    trips += [make_trip([0, 1], start=start) for _ in range(n_ba)]
    return tripset(*trips)


def dual_weights_loop(dual, trips: TripSet) -> np.ndarray:
    """Transition probabilities along the dual edge list, counted one record
    pair at a time."""
    index = {pair: k for k, pair in enumerate(zip(dual.edge_src.tolist(), dual.edge_dst.tolist()))}
    counts = [0] * dual.n_edges
    for trip in trips:
        for a, b in zip(trip.records, trip.records[1:]):
            if (a.edge, b.edge) in index:
                counts[index[a.edge, b.edge]] += 1
    probs = []
    for u in range(dual.n_vertices):
        row = range(dual.out_indptr[u], dual.out_indptr[u + 1])
        total = sum(counts[k] for k in row) + len(row)
        probs += [(counts[k] + 1) / total for k in row]
    return np.array(probs)


class TestDualWeights:
    @pytest.mark.parametrize(
        "walks",
        [
            [[4, 3]],  # BD -> CB: no dual edge, and a key above the largest dual key
            [[2, 0], [1, 4], [3, 0]],  # record pairs that are not dual edges
            [[0, 2, 3, 1, 0, 2]],  # through junction B twice: AB -> BC counts twice
        ],
    )
    def test_counts_match_the_loop(self, junction_graph, walks):
        dual = build_dual(junction_graph)
        trips = tripset(*(make_trip(walk, start=430.0) for walk in walks))
        assert dual_weights(dual, trips).edge_probs.tolist() == (
            dual_weights_loop(dual, trips).tolist()
        )

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=7), max_size=8))
    def test_random_walks_match_the_loop(self, junction_graph, walks):
        dual = build_dual(junction_graph)
        trips = tripset(*(make_trip(walk) for walk in walks))
        assert dual_weights(dual, trips).edge_probs.tolist() == (
            dual_weights_loop(dual, trips).tolist()
        )

    def test_dual_without_edges(self, two_tag_schedule):
        g = RoadGraph.from_edges(["A", "B"], [("A", "B")], [10.0], two_tag_schedule)
        dual = build_dual(g)
        m = dual_weights(dual, tripset(make_trip([0, 0])))
        assert dual.n_edges == 0 and m.edge_probs.shape == (0,)
        assert m.matrix.nnz == 0 and m.dangling.tolist() == [True]

    def test_smoothed_peak_weights(self, junction_graph):
        dual = build_dual(junction_graph)
        m = dual_weights(dual, _junction_trips(30, 10, 0, start=430.0))
        assert m.matrix[0, 2] == 31 / 43
        assert m.matrix[0, 4] == 11 / 43
        assert m.matrix[0, 1] == 1 / 43

    def test_smoothed_offpeak_weights(self, junction_graph):
        dual = build_dual(junction_graph)
        m = dual_weights(dual, _junction_trips(5, 5, 0, start=100.0))
        assert m.matrix[0, 2] == 6 / 13
        assert m.matrix[0, 4] == 6 / 13
        assert m.matrix[0, 1] == 1 / 13

    def test_no_trips_gives_uniform_walk(self, junction_graph):
        dual = build_dual(junction_graph)
        m = dual_weights(dual, TripSet(()))
        # exact equality with the unweighted random walk
        assert m.matrix[0, 1] == m.matrix[0, 2] == m.matrix[0, 4] == 1 / 3
        assert m.matrix[1, 0] == 1.0
        assert m.matrix[3, 1] == m.matrix[3, 2] == m.matrix[3, 4] == 1 / 3

    def test_occurrence_counting(self, junction_graph):
        # one trip passing AB->BC twice counts two occurrences
        dual = build_dual(junction_graph)
        trip = make_trip([0, 2, 3, 0, 2], start=500.0)
        m = dual_weights(dual, tripset(trip))
        # counts: AB->BC 2, CB->... wait BC->CB 1, CB->AB not a dual edge
        assert m.matrix[0, 2] == (2 + 1) / (2 + 3)

    def test_non_adjacent_records_ignored(self, junction_graph):
        # records jumping BD -> CB share no junction: no dual edge, no count
        dual = build_dual(junction_graph)
        trip = make_trip([4, 3], start=500.0)
        m = dual_weights(dual, tripset(trip))
        assert m.matrix[3, 1] == 1 / 3  # CB row stays uniform

    def test_rows_stochastic(self, junction_graph):
        dual = build_dual(junction_graph)
        m = dual_weights(dual, _junction_trips(7, 3, 1, start=430.0))
        assert np.allclose(m.row_sums(), 1.0, atol=1e-12)
        assert m.matrix.data.min() > 0

    def test_dead_end_repair(self, junction_graph):
        dual = build_dual(junction_graph)
        m = dual_weights(dual, TripSet(()))
        assert m.dangling.tolist() == [False, False, False, False, True]
        dense = m.dense()
        assert np.allclose(dense[4], 1 / 5)
        assert np.allclose(dense.sum(axis=1), 1.0)

    def test_sparsity_pattern_is_dual_adjacency(self, junction_graph):
        dual = build_dual(junction_graph)
        m = dual_weights(dual, _junction_trips(3, 1, 0, start=430.0))
        assert m.matrix.nnz == dual.n_edges
        coo = m.matrix.tocoo()
        assert set(zip(coo.row.tolist(), coo.col.tolist())) == set(
            zip(dual.edge_src.tolist(), dual.edge_dst.tolist())
        )


class TestPagerank:
    def test_two_cycle(self):
        m = _dense_transitions(np.array([[0.0, 1.0], [1.0, 0.0]]))
        pr = pagerank(m)
        assert pr.values == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_three_cycle(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 2] = dense[2, 0] = 1.0
        pr = pagerank(_dense_transitions(dense))
        assert pr.values == pytest.approx([1 / 3] * 3, abs=1e-10)

    def test_two_state_chain(self):
        m = _dense_transitions(np.array([[0.0, 1.0], [0.5, 0.5]]))
        pr = pagerank(m)
        assert pr.values == pytest.approx([1 / 3, 2 / 3], abs=1e-9)

    def test_fixed_point_contract(self, junction_graph):
        dual = build_dual(junction_graph)
        m = dual_weights(dual, _junction_trips(30, 10, 0, start=430.0))
        pr = pagerank(m, tol=1e-10)
        assert np.abs(m.apply_transpose(pr.values) - pr.values).sum() <= 1e-10
        assert pr.values.sum() == pytest.approx(1.0, abs=1e-10)
        assert (pr.values > 0).all()

    def test_oscillation_averaging(self):
        # period-2 chain between unequal-degree sides: plain power iteration
        # oscillates here; the periodic-chain regression
        dense = np.array(
            [
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0],
            ]
        )
        pr = pagerank(_dense_transitions(dense), tol=1e-12)
        oracle = stationary_bruteforce(dense)
        assert pr.values == pytest.approx(oracle, abs=1e-10)

    def test_refinement_cap_raises(self, grid20_transitions):
        # rounding leaves a residual above 0, so tol=0 is out of reach of
        # any number of refinement steps
        with pytest.raises(ConvergenceError) as err:
            pagerank(grid20_transitions[0], tol=0.0, max_iters=2)
        assert err.value.residual > 0
        assert err.value.iterations == 2

    def test_non_finite_probability_raises(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [np.nan, 0.5]]))
        m = TransitionMatrix(tag=0, matrix=matrix, dangling=np.zeros(2, dtype=bool))
        with pytest.raises(ConvergenceError, match="non-finite"):
            pagerank(m)

    def test_dead_end_chain_pins_relay(self):
        # 0 -> 1 -> 2 -> 3 with a branch back to 0; 3 dangles, so the only
        # closed class is the whole chain and the relay is the pinned unknown
        dense = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [0.2, 0.0, 0.8, 0.0],
                [0.0, 0.3, 0.0, 0.7],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        m = _dense_transitions(dense)
        pr = pagerank(m, tol=1e-14)
        assert np.abs(pr.values - stationary_bruteforce(m.dense())).max() <= 1e-14
        assert pr.iterations == 0

    def test_dead_end_outside_closed_class_is_transient(self):
        # 0 is absorbing; the dead end 1 jumps uniformly, so it leaks into 0
        # without any explicit edge leaving it
        m = _dense_transitions(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert pagerank(m).values.tolist() == [1.0, 0.0]

    def test_two_closed_classes_and_transients(self, caplog):
        # closed {0, 1} and {2, 3, 4}; 5 and 6 are transient and feed both
        dense = np.zeros((7, 7))
        dense[0, 1] = dense[1, 0] = dense[2, 3] = dense[4, 2] = 1.0
        dense[3, 4], dense[3, 2] = 0.5, 0.5
        dense[5, 0], dense[5, 6] = 0.5, 0.5
        dense[6, 2], dense[6, 5] = 0.9, 0.1
        m = _dense_transitions(dense)
        with caplog.at_level(logging.WARNING, logger="roadcost.pagerank"):
            pr = pagerank(m, tol=1e-14)
        assert "2 closed component(s), 2 unreachable" in caplog.text
        # each class carries mass in proportion to its size, 2/5 and 3/5
        expected = [0.2, 0.2, 0.6 * 0.4, 0.6 * 0.4, 0.6 * 0.2, 0.0, 0.0]
        assert pr.values == pytest.approx(expected, abs=1e-15)

    def test_periodic_class_with_transients(self):
        # closed class {0, 1, 3} has period 2 and an uneven stationary vector;
        # 2 and 4 are transient (power iteration on the class oscillated here)
        dense = np.zeros((5, 5))
        dense[0, 1] = dense[3, 1] = dense[4, 3] = 1.0
        dense[1, 0], dense[1, 3] = 0.9, 0.1
        dense[2, 0], dense[2, 3] = 0.7, 0.3
        pr = pagerank(_dense_transitions(dense), tol=1e-14)
        assert pr.values == pytest.approx([0.45, 0.5, 0.0, 0.05, 0.0], abs=1e-15)

    def test_grid_solve_is_exact(self, grid20_transitions):
        for m in grid20_transitions:
            pr = pagerank(m)
            assert np.abs(m.apply_transpose(pr.values) - pr.values).sum() <= 1e-13
            assert pr.values.sum() == pytest.approx(1.0, abs=1e-13)
            assert pr.iterations == 0

    def test_reducible_graph_warns_and_zeroes_transients(self, two_tag_schedule, caplog):
        # two islands: a 2-cycle A<->B and a path C->D (D dangles)
        g = RoadGraph.from_edges(
            ["A", "B", "C", "D"],
            [("A", "B"), ("B", "A"), ("C", "D")],
            [10.0, 10.0, 10.0],
            two_tag_schedule,
        )
        dual = build_dual(g)
        m = dual_weights(dual, TripSet(()))
        with caplog.at_level(logging.WARNING, logger="roadcost.pagerank"):
            pr = pagerank(m)
        assert "reducible" in caplog.text
        assert pr.values.sum() == pytest.approx(1.0, abs=1e-10)
        resid = np.abs(m.apply_transpose(pr.values) - pr.values).sum()
        assert resid <= 1e-10

    def test_small_graph_oracle(self, two_tag_schedule):
        # random primal graphs with <= 8 edges; unichain cases compare
        # against the brute-force stationary solve
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(40):
            m = _random_transition(rng, two_tag_schedule)
            if m is None:
                continue
            pr = pagerank(m, tol=1e-13, max_iters=200_000)
            oracle = stationary_bruteforce(m.dense())
            assert np.abs(pr.values - oracle).max() <= 1e-8
            checked += 1
        assert checked >= 20


@pytest.fixture(scope="module")
def grid20_transitions():
    graph, _, trips = generate_synthetic(SyntheticSpec(rows=20, cols=20, n_trips=400), seed=1)
    return transition_matrices(build_dual(graph), partition_by_tag(trips, graph.tag_schedule))


def _random_transition(rng, schedule):
    """Random small dual chain, or None when the repaired chain is multichain."""
    nv = int(rng.integers(2, 5))
    vertices = [f"v{i}" for i in range(nv)]
    candidates = [(a, b) for a in vertices for b in vertices if a != b]
    rng.shuffle(candidates)
    ne = int(rng.integers(2, 9))
    edges = candidates[:ne]
    if len(edges) < 2:
        return None
    g = RoadGraph.from_edges(vertices, edges, np.ones(len(edges)) * 10, schedule)
    dual = build_dual(g)
    if dual.n_vertices > 8:
        return None
    trips = []
    for _ in range(int(rng.integers(0, 12))):
        start_edge = int(rng.integers(g.n_edges))
        walk = [start_edge]
        for _ in range(int(rng.integers(1, 4))):
            options = np.nonzero(g.tails == g.heads[walk[-1]])[0]
            if len(options) == 0:
                break
            walk.append(int(rng.choice(options)))
        trips.append(make_trip(walk, start=200.0 + rng.uniform(0, 600)))
    m = dual_weights(dual, tripset(*trips))
    return m if _is_unichain(m.dense()) else None


def _is_unichain(dense: np.ndarray) -> bool:
    """Exactly one closed communicating class (independent of the library)."""
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(dense > 0, directed=True, connection="strong")
    closed = 0
    for lab in range(n_comp):
        members = labels == lab
        if not dense[members][:, ~members].any():
            closed += 1
    return closed == 1


class TestPagerankStats:
    def test_uniform_vector(self):
        from roadcost.pagerank import PageRankVector

        pr = PageRankVector(tag=0, values=np.full(7, 1 / 7))
        pct, vmax = pagerank_stats(pr)
        assert pct[99] == pytest.approx(100.0)
        assert pct[:99].sum() == 0.0
        assert vmax == pytest.approx(1 / 7)

    def test_three_level_vector(self):
        from roadcost.pagerank import PageRankVector

        pr = PageRankVector(tag=0, values=np.array([0.5, 0.25, 0.25]))
        pct, _ = pagerank_stats(pr)
        assert pct[49] == pytest.approx(100 * 2 / 3)  # bucket 50
        assert pct[99] == pytest.approx(100 * 1 / 3)  # bucket 100
        assert pct.sum() == pytest.approx(100.0, abs=1e-9)

    def test_single_vertex(self):
        from roadcost.pagerank import PageRankVector

        pct, _ = pagerank_stats(PageRankVector(tag=0, values=np.array([1.0])))
        assert pct[99] == 100.0

    def test_zero_vector_rejected(self):
        from roadcost.pagerank import PageRankVector

        with pytest.raises(ValueError):
            pagerank_stats(PageRankVector(tag=0, values=np.zeros(3)))


class TestDegreeStats:
    def test_three_cycle(self, two_tag_schedule):
        g = RoadGraph.from_edges(
            ["A", "B", "C"],
            [("A", "B"), ("B", "C"), ("C", "A")],
            [10.0] * 3,
            two_tag_schedule,
        )
        stats = degree_stats(build_dual(g))
        assert stats.max_in == 1 and stats.max_out == 1
        assert stats.avg_degree == pytest.approx(1.0)

    def test_star_out_degree(self, junction_graph):
        stats = degree_stats(build_dual(junction_graph))
        assert stats.max_out == 3  # AB and CB each continue 3 ways
        assert stats.n_vertices == 5 and stats.n_edges == 8
        assert stats.avg_degree == pytest.approx(8 / 5)
        assert stats.in_hist.sum() == stats.n_vertices


def test_transition_matrices_per_tag(junction_graph):
    from roadcost.trips import partition_by_tag

    trips = tripset(
        make_trip([0, 2], start=430.0),  # peak
        make_trip([0, 4], start=100.0),  # offpeak
    )
    partitions = partition_by_tag(trips, junction_graph.tag_schedule)
    ms = transition_matrices(build_dual(junction_graph), partitions)
    assert [m.tag for m in ms] == [0, 1]
    assert ms[1].matrix[0, 2] == (1 + 1) / (1 + 3)  # peak trip AB->BC
    assert ms[0].matrix[0, 4] == (1 + 1) / (1 + 3)  # offpeak trip AB->BD
