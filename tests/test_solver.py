import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from roadcost.config import RunConfig
from roadcost.errors import ConvergenceError
from roadcost.evaluation import build_constraints
from roadcost.graph import WEEKDAY, CostVector, RoadGraph, TagSchedule, build_dual
from roadcost.pagerank import PageRankVector, dual_weights, pagerank, transition_matrices
from roadcost.solver import (
    PRECONDITIONER_FILL_LIMIT,
    AugmentedPattern,
    SimilarityLaplacian,
    annotated_mask,
    build_a,
    build_b,
    build_q,
    laplacian,
    objective_terms,
    solve_weights,
)
from roadcost.synth import SyntheticSpec, generate_synthetic
from roadcost.trips import LinkRecord, Trip, TripSet, partition_by_tag, trip_cost

from conftest import entry, make_trip, tripset


def similarity_penalty_oracle(prs, d, threshold):
    """Pairwise sum over unordered edge pairs, recomputed from PageRank values."""
    ne = len(prs[0].values)
    total = 0.0
    for k, pr in enumerate(prs):
        for i in range(ne):
            for j in range(i + 1, ne):
                pi, pj = pr.values[i], pr.values[j]
                if pi <= 0 or pj <= 0:
                    continue
                s = min(pi, pj) / max(pi, pj)
                if s >= threshold:
                    total += s * (d[k * ne + i] - d[k * ne + j]) ** 2
    return total


def adjacency_penalty_oracle(transitions, dual, is_highway, d):
    """Directed sum over dual edges, reverse pairs and cross-category excluded."""
    ne = dual.n_vertices
    total = 0.0
    for k, tm in enumerate(transitions):
        for idx in range(dual.n_edges):
            u, v = int(dual.edge_src[idx]), int(dual.edge_dst[idx])
            if dual.reverse_mask[idx] or is_highway[u] != is_highway[v]:
                continue
            total += tm.edge_probs[idx] * (d[k * ne + u] - d[k * ne + v]) ** 2
    return total


def random_instance(seed, n_vertices=(3, 6), n_edges_max=20, n_tags=2):
    """Random primal graph + trips + transition structure for property tests."""
    rng = np.random.default_rng(seed)
    schedule = TagSchedule(
        tags=tuple(f"T{k}" for k in range(n_tags)),
        rules=tuple(
            (WEEKDAY, 1440.0 * k / n_tags, 1440.0 * (k + 1) / n_tags, k)
            for k in range(n_tags)
        )
        + (("weekend", 0.0, 1440.0, 0),),
    )
    nv = int(rng.integers(*n_vertices))
    vertices = [f"v{i}" for i in range(nv)]
    candidates = [(a, b) for a in vertices for b in vertices if a != b]
    rng.shuffle(candidates)
    ne = int(rng.integers(2, min(len(candidates), n_edges_max) + 1))
    edges = candidates[:ne]
    graph = RoadGraph.from_edges(
        vertices,
        edges,
        rng.uniform(20, 200, size=ne),
        schedule,
        speed_limits=rng.choice([50.0, 110.0], size=ne).tolist(),
    )
    dual = build_dual(graph)
    trips = []
    for _ in range(int(rng.integers(2, 15))):
        start_edge = int(rng.integers(graph.n_edges))
        walk = [start_edge]
        for _ in range(int(rng.integers(0, 4))):
            options = np.nonzero(graph.tails == graph.heads[walk[-1]])[0]
            if len(options) == 0:
                break
            walk.append(int(rng.choice(options)))
        start = rng.uniform(0, 1433 - len(walk))
        trips.append(make_trip(walk, start=start, cost=rng.uniform(1, 50)))
    return graph, dual, tripset(*trips), rng


class TestBuildQ:
    def test_single_full_record(self, junction_graph):
        trips = tripset(Trip((LinkRecord(0, WEEKDAY, 100.0, 101.0),), 5.0))
        q = build_q(trips, junction_graph)
        col = q.toarray()[:, 0]
        assert col[entry(junction_graph, 0, 0)] == 100.0
        assert np.count_nonzero(col) == 1

    def test_straddling_record(self, junction_graph):
        trips = tripset(Trip((LinkRecord(2, WEEKDAY, 410.0, 425.0),), 5.0))
        q = build_q(trips, junction_graph).toarray()[:, 0]
        length = junction_graph.lengths[2]
        assert q[entry(junction_graph, 2, 0)] == pytest.approx(length * 10 / 15)
        assert q[entry(junction_graph, 2, 1)] == pytest.approx(length * 5 / 15)

    def test_repeat_traversal_accumulates(self, junction_graph):
        records = (
            LinkRecord(0, WEEKDAY, 100.0, 101.0),
            LinkRecord(0, WEEKDAY, 200.0, 201.0),
        )
        q = build_q(tripset(Trip(records, 0.0)), junction_graph).toarray()[:, 0]
        assert q[entry(junction_graph, 0, 0)] == 200.0

    def test_matches_trip_cost_model(self):
        for seed in range(10):
            graph, dual, trips, rng = random_instance(seed)
            q = build_q(trips, graph)
            d = rng.uniform(0, 1, graph.n_entries)
            estimated = q.T @ d
            cv = CostVector(d, graph.n_edges, graph.n_tags)
            direct = np.array([trip_cost(t, graph, cv) for t in trips])
            np.testing.assert_allclose(estimated, direct, rtol=1e-9)


def _prs(values_per_tag):
    return [
        PageRankVector(tag=k, values=np.asarray(v, dtype=float))
        for k, v in enumerate(values_per_tag)
    ]


class TestBuildA:
    def test_all_equal_gives_complete_block(self):
        a = build_a(_prs([[0.2, 0.2, 0.2]]), threshold=0.95, method="exact")
        dense = a.toarray()
        assert np.array_equal(dense, np.ones((3, 3)) - np.eye(3))

    def test_below_threshold_zeroed(self):
        a = build_a(_prs([[0.2, 0.1]]), threshold=0.95, method="exact")
        assert a.nnz == 0

    def test_three_edge_example(self):
        a = build_a(_prs([[1.00, 0.96, 0.50]]), threshold=0.95, method="exact")
        dense = a.toarray()
        assert dense[0, 1] == pytest.approx(0.96)
        assert dense[1, 0] == pytest.approx(0.96)
        dense[0, 1] = dense[1, 0] = 0.0
        assert not dense.any()

    def test_block_diagonal_no_cross_tag_coupling(self):
        a = build_a(_prs([[0.2, 0.2], [0.3, 0.3]]), threshold=0.9, method="exact")
        dense = a.toarray()
        assert not dense[:2, 2:].any()
        assert not dense[2:, :2].any()
        assert dense[0, 1] == 1.0 and dense[2, 3] == 1.0

    def test_symmetry_random(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.01, 1.0, 40)
        a = build_a(_prs([values]), threshold=0.8, method="exact")
        assert (a != a.T).nnz == 0
        assert np.all(a.diagonal() == 0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            build_a(_prs([[0.5]]), threshold=0.0)

    @pytest.mark.parametrize("method", ["sweep", "auto"])
    def test_exact_is_the_only_method(self, method):
        with pytest.raises(ValueError, match="method"):
            build_a(_prs([[0.5, 0.5]]), threshold=0.9, method=method)


# (smaller, larger, threshold): the ratio test and searchsorted on the product
# or the quotient disagree by an ulp at the window's edge
ULP_PAIRS = {
    "ratio-fails-product-passes": (0.0008330179786091529, 0.0008768610301148979, 0.95),
    "ratio-passes-product-fails": (0.00626613568117995, 0.008951622401685644, 0.7),
    "ratio-passes-quotient-fails": (0.0054034206658504745, 0.007719172379786393, 0.7),
}


def _grid_pageranks(rows=12, seed=1):
    spec = SyntheticSpec(rows=rows, cols=rows, n_trips=144, coverage=0.3, noise=0.05)
    graph, _, trips = generate_synthetic(spec, seed=seed)
    transitions = transition_matrices(build_dual(graph), partition_by_tag(trips, graph.tag_schedule))
    return [pagerank(tm) for tm in transitions]


def _assert_matches_exact(prs, threshold, rng):
    op = SimilarityLaplacian(prs, threshold)
    lap = laplacian(build_a(prs, threshold, method="exact"))
    assert op.shape == lap.shape
    scale = max(np.abs(lap.diagonal()).max(), 1.0)
    assert np.abs(op.diagonal() - lap.diagonal()).max() <= 1e-12 * scale
    for x in (rng.standard_normal(lap.shape[0]), np.arange(lap.shape[0], dtype=float)):
        expected = lap @ x
        assert np.linalg.norm(op @ x - expected) <= 1e-12 * max(np.linalg.norm(expected), 1.0)


class TestSimilarityLaplacian:
    @pytest.mark.parametrize("threshold", [0.5, 0.8, 0.95])
    def test_matches_exact_laplacian_on_random_instances(self, threshold):
        for seed in range(12):
            graph, dual, trips, rng = random_instance(seed)
            transitions = transition_matrices(dual, partition_by_tag(trips, graph.tag_schedule))
            _assert_matches_exact([pagerank(tm) for tm in transitions], threshold, rng)

    def test_matches_exact_laplacian_on_grid(self):
        _assert_matches_exact(_grid_pageranks(), 0.95, np.random.default_rng(0))

    def test_all_values_equal_is_complete_graph(self):
        op = SimilarityLaplacian(_prs([[0.25] * 4]), 0.95)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_allclose(op @ x, 4 * x - x.sum(), rtol=1e-15, atol=1e-15)
        assert op.diagonal().tolist() == [3.0] * 4

    def test_zero_pagerank_entries_are_in_no_pair(self):
        prs = _prs([[0.0, 0.3, 0.3, 0.0, 0.4], [0.5, 0.0, 0.5, 0.0, 0.0]])
        op = SimilarityLaplacian(prs, 0.7)
        assert op.diagonal()[[0, 3, 6, 8, 9]].tolist() == [0.0] * 5
        for zero in (0, 3, 6, 8, 9):
            unit = np.zeros(10)
            unit[zero] = 1.0
            assert not (op @ unit).any()
        _assert_matches_exact(prs, 0.7, np.random.default_rng(1))

    def test_one_positive_value(self):
        op = SimilarityLaplacian(_prs([[0.0, 0.5, 0.0]]), 0.5)
        assert not (op @ np.array([1.0, 2.0, 3.0])).any()
        assert not op.diagonal().any()
        assert op.chain().nnz == 0

    def test_threshold_one_links_ties_only(self):
        values = [0.2, 0.5, 0.2, np.nextafter(0.2, 1), 0.5, 0.1]
        op = SimilarityLaplacian(_prs([values]), 1.0)
        np.testing.assert_allclose(op.diagonal(), [1, 1, 1, 0, 1, 0], rtol=1e-15)
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        np.testing.assert_allclose(op @ x, [1 - 4, 2 - 16, 4 - 1, 0, 16 - 2, 0], rtol=1e-15)
        _assert_matches_exact(_prs([values]), 1.0, np.random.default_rng(2))

    @pytest.mark.parametrize("smaller,larger,threshold", ULP_PAIRS.values(), ids=ULP_PAIRS)
    def test_window_edge_follows_the_ratio_test(self, smaller, larger, threshold):
        similar = smaller / larger >= threshold
        values = [larger, 0.5, smaller]
        op = SimilarityLaplacian(_prs([values]), threshold)
        weight = smaller / larger if similar else 0.0
        assert op.diagonal().tolist() == [weight, 0.0, weight]
        x = np.array([1.0, 0.0, -1.0])
        np.testing.assert_allclose(op @ x, [2 * weight, 0.0, -2 * weight], rtol=1e-15)
        assert build_a(_prs([values]), threshold, method="exact").nnz == 2 * similar
        assert op.chain().nnz == similar

    def test_bad_threshold_and_tag_order(self):
        with pytest.raises(ValueError, match="threshold"):
            SimilarityLaplacian(_prs([[0.5]]), 1.5)
        with pytest.raises(ValueError, match="ordered by tag"):
            SimilarityLaplacian(_prs([[0.5], [0.5]])[::-1], 0.9)


class TestBuildB:
    def _setup(self, junction_graph, n_bc=30, n_bd=10):
        dual = build_dual(junction_graph)
        trips = tripset(
            *[make_trip([0, 2], start=430.0) for _ in range(n_bc)],
            *[make_trip([0, 4], start=430.0) for _ in range(n_bd)],
        )
        partitions = partition_by_tag(trips, junction_graph.tag_schedule)
        transitions = transition_matrices(dual, partitions)
        return dual, transitions

    def test_reverse_pair_zeroed(self, junction_graph):
        dual, transitions = self._setup(junction_graph)
        b = build_b(transitions, dual, np.zeros(5, dtype=bool))
        ne = 5
        peak = 1
        assert b[peak * ne + 0, peak * ne + 1] == 0.0  # AB-BA reverse pair

    def test_directed_weight_kept(self, junction_graph):
        dual, transitions = self._setup(junction_graph)
        b = build_b(transitions, dual, np.zeros(5, dtype=bool))
        ne, peak = 5, 1
        assert b[peak * ne + 0, peak * ne + 2] == 31 / 43  # max(W(AB,BC), 0)
        assert b[peak * ne + 2, peak * ne + 0] == 31 / 43  # symmetric

    def test_cross_category_zeroed(self, junction_graph):
        dual, transitions = self._setup(junction_graph)
        is_highway = np.array([False, False, True, True, False])  # BC/CB highway
        b = build_b(transitions, dual, is_highway)
        ne, peak = 5, 1
        assert b[peak * ne + 0, peak * ne + 2] == 0.0
        assert b[peak * ne + 0, peak * ne + 4] == 11 / 43  # AB->BD both urban

    def test_symmetric_and_block_diagonal(self, junction_graph):
        dual, transitions = self._setup(junction_graph)
        b = build_b(transitions, dual, np.zeros(5, dtype=bool))
        assert (b != b.T).nnz == 0
        dense = b.toarray()
        assert not dense[:5, 5:].any()


class TestLaplacian:
    def test_two_node_matrix(self):
        lap = laplacian(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.array_equal(lap.toarray(), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_quadratic_form_matches_pairwise_sum(self):
        lap = laplacian(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        d = np.array([3.0, 1.0])
        # one term per unordered pair: S[0,1] * (3 - 1)^2
        assert d @ (lap @ d) == pytest.approx(1.0 * (3 - 1) ** 2)

    def test_zero_matrix(self):
        lap = laplacian(sp.csr_matrix((3, 3)))
        assert lap.nnz == 0
        d = np.arange(3.0)
        assert d @ (lap @ d) == 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            laplacian(sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            laplacian(sp.csr_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]])))

    def test_rows_sum_to_zero_and_psd(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(0, 1, (8, 8))
        sym = (raw + raw.T) / 2
        np.fill_diagonal(sym, 0.0)
        lap = laplacian(sp.csr_matrix(sym))
        assert np.allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(lap.toarray())
        assert eigenvalues.min() >= -1e-10


class TestQuadraticFormEquivalence:
    def test_similarity_penalty_matches_oracle(self):
        threshold = 0.8
        for seed in range(12):
            graph, dual, trips, rng = random_instance(seed)
            partitions = partition_by_tag(trips, graph.tag_schedule)
            transitions = transition_matrices(dual, partitions)
            prs = [pagerank(tm) for tm in transitions]
            d = rng.uniform(-1, 1, graph.n_entries)
            expected = similarity_penalty_oracle(prs, d, threshold)
            exact = laplacian(build_a(prs, threshold, method="exact"))
            for lap in (exact, SimilarityLaplacian(prs, threshold)):
                assert d @ (lap @ d) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_adjacency_penalty_matches_oracle(self):
        for seed in range(12):
            graph, dual, trips, rng = random_instance(seed + 100)
            partitions = partition_by_tag(trips, graph.tag_schedule)
            transitions = transition_matrices(dual, partitions)
            is_highway = graph.is_highway()
            b = build_b(transitions, dual, is_highway)
            lap = laplacian(b)
            d = rng.uniform(-1, 1, graph.n_entries)
            expected = adjacency_penalty_oracle(transitions, dual, is_highway, d)
            assert d @ (lap @ d) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def _random_similarity(rng, n, density):
    raw = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < density)
    sym = (raw + raw.T) / 2
    np.fill_diagonal(sym, 0.0)
    return sp.csr_matrix(sym)


def _tiny_system():
    """1 edge, 1 tag, 1 trip fully covering the edge (length 1 m, cost 2)."""
    q = sp.csr_matrix(np.array([[1.0]]))
    return q, np.array([2.0])


class TestSolve:
    def test_one_by_one_system(self):
        q, c = _tiny_system()
        d, info = solve_weights(q, c, None, None, 0.0, 0.0, 0.01)
        assert d[0] == pytest.approx(2 / 1.01, rel=1e-10)
        assert info.residual <= 1e-8

    def test_zero_costs_give_zero_vector(self):
        q = sp.csr_matrix(np.array([[1.0, 0.5], [0.0, 2.0]]))
        d, info = solve_weights(q, np.zeros(2), None, None, 0.0, 0.0, 0.1)
        assert np.array_equal(d, np.zeros(2))
        assert info.iterations == 0

    def test_similarity_coupling_propagates(self):
        # two edges, similarity 1, only the first observed
        q = sp.csr_matrix(np.array([[1.0], [0.0]]))
        lap = laplacian(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        d, _ = solve_weights(q, np.array([1.0]), lap, None, 1e4, 0.0, 1e-6, tol=1e-12)
        assert d[0] == pytest.approx(1.0, abs=1e-3)
        assert d[1] == pytest.approx(1.0, abs=1e-3)

    def test_gamma_zero_rejected(self):
        q, c = _tiny_system()
        with pytest.raises(ValueError, match="gamma"):
            solve_weights(q, c, None, None, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "alpha,beta,gamma",
        [(np.inf, 0.0, 0.1), (0.0, np.inf, 0.1), (0.0, 0.0, np.inf), (np.nan, 0.0, 0.1),
         (0.0, np.nan, 0.1), (0.0, 0.0, np.nan)],
    )
    def test_non_finite_coefficients_rejected(self, alpha, beta, gamma):
        q, c = _tiny_system()
        lap = laplacian(sp.csr_matrix((q.shape[0], q.shape[0])))
        with pytest.raises(ValueError, match="finite"):
            solve_weights(q, c, lap, lap, alpha, beta, gamma)

    def test_matches_dense_solve(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(5, 50)), int(rng.integers(3, 30))
            q = sp.csr_matrix(rng.uniform(0, 2, (n, m)) * (rng.random((n, m)) < 0.3))
            raw_a = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.2)
            sym_a = (raw_a + raw_a.T) / 2
            np.fill_diagonal(sym_a, 0.0)
            raw_b = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.2)
            sym_b = (raw_b + raw_b.T) / 2
            np.fill_diagonal(sym_b, 0.0)
            l_a, l_b = laplacian(sp.csr_matrix(sym_a)), laplacian(sp.csr_matrix(sym_b))
            alpha, beta = rng.uniform(0, 2), rng.uniform(0, 2)
            gamma = rng.uniform(1e-3, 1.0)
            c = rng.uniform(-1, 1, m)
            d, _ = solve_weights(q, c, l_a, l_b, alpha, beta, gamma, tol=1e-12)
            dense = (
                (q @ q.T).toarray() + alpha * l_a.toarray() + beta * l_b.toarray()
                + gamma * np.eye(n)
            )
            expected = np.linalg.solve(dense, q @ c)
            assert np.linalg.norm(d - expected) <= 1e-7 * np.linalg.norm(expected)

    def test_non_convergence_raises(self):
        # the preconditioner inverts Q Q^T and the diagonal, not the Laplacian
        # coupling, so two steps cannot reach 1e-14 on this system
        rng = np.random.default_rng(2)
        q = sp.csr_matrix(rng.uniform(0, 1, (30, 6)) * (rng.random((30, 6)) < 0.5))
        l_a = laplacian(_random_similarity(rng, 30, 0.3))
        l_b = laplacian(_random_similarity(rng, 30, 0.3))
        with pytest.raises(ConvergenceError) as err:
            solve_weights(q, rng.uniform(0, 1, 6), l_a, l_b, 1.0, 2.0, 1e-3,
                          tol=1e-14, max_iters=2)
        assert err.value.residual > 0
        assert err.value.iterations == 2

    def test_unregularized_solves_in_one_iteration(self):
        # alpha = beta = 0: the preconditioner is the system itself
        rng = np.random.default_rng(4)
        q = sp.csr_matrix(rng.uniform(0, 1, (10, 6)))
        d, info = solve_weights(q, rng.uniform(0, 1, 6), None, None, 0.0, 0.0, 0.1)
        assert info.iterations == 1
        assert info.residual <= 1e-8
        assert info.factor_nnz > 0

    @pytest.mark.parametrize(
        "n,t,gamma",
        [(8, 20, 0.1), (20, 6, 1e-10)],
        ids=["more-trips-than-unknowns", "tiny-gamma"],
    )
    def test_preconditioned_matches_dense(self, n, t, gamma):
        rng = np.random.default_rng(n + t)
        q = sp.csr_matrix(rng.uniform(0, 2, (n, t)) * (rng.random((n, t)) < 0.4))
        path = sp.diags(np.ones(n - 1), 1)  # keeps L_A connected, so tiny gamma is harmless
        l_a = laplacian(_random_similarity(rng, n, 0.2) + path + path.T)
        l_b = laplacian(_random_similarity(rng, n, 0.2))
        c = rng.uniform(0.5, 2, t)
        d, info = solve_weights(q, c, l_a, l_b, 0.7, 1.3, gamma, tol=1e-12)
        dense = (
            (q @ q.T).toarray() + 0.7 * l_a.toarray() + 1.3 * l_b.toarray()
            + gamma * np.eye(n)
        )
        expected = np.linalg.solve(dense, q @ c)
        assert np.linalg.norm(d - expected) <= 1e-7 * np.linalg.norm(expected)
        assert info.factor_nnz > 0

    def test_non_finite_costs_stop_at_once(self):
        rng = np.random.default_rng(2)
        q = sp.csr_matrix(rng.uniform(0, 1, (10, 6)))
        costs = rng.uniform(0, 1, 6)
        costs[3] = np.nan
        with pytest.raises(ConvergenceError, match="non-finite residual") as err:
            solve_weights(q, costs, None, None, 0.0, 0.0, 1e-8)
        assert err.value.iterations == 0

    def test_non_finite_matrix_stops_before_iterating(self):
        q, c = _tiny_system()
        lap = sp.csr_matrix(np.array([[np.nan]]))
        with pytest.raises(ConvergenceError, match="factorization") as err:
            solve_weights(q, c, lap, None, 1.0, 0.0, 0.1)
        assert err.value.iterations == 0

    def test_fill_estimate_decides_the_factor(self):
        # every trip covers all 4 unknowns: the estimate 4 t^2 is held against
        # the limit times the augmented matrix's 2 (4 t) + 4 + t nonzeros
        def factored(t):
            return AugmentedPattern(sp.csr_matrix(np.ones((4, t)))).factored

        t_max = max(t for t in range(1, 1000)
                    if 4 * t * t <= PRECONDITIONER_FILL_LIMIT * (9 * t + 4))
        assert factored(t_max)
        assert not factored(t_max + 1)

    def test_heavy_overlap_runs_plain_cg(self):
        # 60 trips over 12 unknowns, each through about 40 of them: the factor
        # is skipped and plain CG still reaches the exact minimizer
        rng = np.random.default_rng(9)
        n, t = 12, 60
        q = sp.csr_matrix(rng.uniform(0.5, 2, (n, t)) * (rng.random((n, t)) < 0.7))
        l_a = laplacian(_random_similarity(rng, n, 0.3))
        c = rng.uniform(0.5, 2, t)
        assert not AugmentedPattern(q).factored
        d, info = solve_weights(q, c, l_a, None, 0.5, 0.0, 1e-4, tol=1e-12)
        dense = (q @ q.T).toarray() + 0.5 * l_a.toarray() + 1e-4 * np.eye(n)
        expected = np.linalg.solve(dense, q @ c)
        assert np.linalg.norm(d - expected) <= 1e-7 * np.linalg.norm(expected)
        assert info.factor_nnz == 0
        assert 1 < info.iterations <= n + 2  # CG's finite termination, with rounding slack

    def test_spd_property(self):
        # the system is Q Q^T + alpha L_A + gamma I, SPD with smallest eigenvalue
        # at least gamma; the preconditioned and the plain CG path both reach
        # its dense solution
        rng = np.random.default_rng(21)
        q = sp.csr_matrix(rng.uniform(0, 2, (15, 8)) * (rng.random((15, 8)) < 0.4))
        raw = rng.uniform(0, 1, (15, 15)) * (rng.random((15, 15)) < 0.3)
        sym = (raw + raw.T) / 2
        np.fill_diagonal(sym, 0.0)
        lap = laplacian(sp.csr_matrix(sym))
        gamma = 0.3
        dense = (q @ q.T).toarray() + 1.2 * lap.toarray() + gamma * np.eye(15)
        assert np.linalg.eigvalsh(dense).min() >= gamma * (1 - 1e-12)
        c = rng.uniform(0.5, 2, 8)
        expected = np.linalg.solve(dense, q @ c)
        for factored in (True, False):
            pattern = AugmentedPattern(q)
            pattern.factored = factored
            d, info = solve_weights(q, c, lap, None, 1.2, 0.0, gamma, tol=1e-12, pattern=pattern)
            assert np.linalg.norm(d - expected) <= 1e-9 * np.linalg.norm(expected)
            assert (info.factor_nnz > 0) == factored


def _grid_q():
    spec = SyntheticSpec(rows=12, cols=12, n_trips=144, coverage=0.3, noise=0.05)
    graph, _, trips = generate_synthetic(spec, seed=1)
    return build_q(trips, graph), trips.costs()


class TestAugmentedPattern:
    def test_reused_ordering_keeps_the_fill_and_the_solve(self, splu_calls):
        q, _ = _grid_q()
        n, t = q.shape
        rng = np.random.default_rng(5)
        pattern = AugmentedPattern(q)
        pattern.factor(np.full(n, 1e-4))
        for _ in range(4):
            diag = 10.0 ** rng.uniform(-4, 1, n)  # gamma up to gamma + alpha L_A + beta L_B
            reused = pattern.factor(diag)
            fresh = AugmentedPattern(q).factor(diag)
            assert reused.nnz == fresh.nnz
            for _ in range(3):
                v = np.concatenate((rng.standard_normal(n), np.zeros(t)))
                expected = fresh.solve(v)[:n]
                got = reused.solve(v)[:n]
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        assert splu_calls == ["MMD_AT_PLUS_A"] + 4 * ["NATURAL", "MMD_AT_PLUS_A"]

    def test_non_finite_diagonal_on_the_reused_ordering(self, splu_calls):
        q, c = _grid_q()
        n = q.shape[0]
        pattern = AugmentedPattern(q)
        lap = sp.csr_matrix((n, n))
        solve_weights(q, c, lap, None, 1.0, 0.0, 0.1, pattern=pattern)
        lap = sp.diags(np.r_[np.nan, np.zeros(n - 1)]).tocsr()
        with pytest.raises(ConvergenceError, match="preconditioner factorization failed") as err:
            solve_weights(q, c, lap, None, 1.0, 0.0, 0.1, pattern=pattern)
        assert err.value.iterations == 0
        assert splu_calls == ["MMD_AT_PLUS_A", "NATURAL"]

    def test_pattern_of_another_q_rejected(self):
        q, c = _tiny_system()
        with pytest.raises(ValueError, match="another Q"):
            solve_weights(q, c, None, None, 0.0, 0.0, 0.1, pattern=AugmentedPattern(q.copy()))


def _cold_cg(q, costs, l_a, l_b, alpha, beta, gamma, tol):
    """The preconditioned CG loop as it ran before warm starts, step for step."""
    pattern = AugmentedPattern(q)
    qt, n = pattern.qt, q.shape[0]
    diag = np.full(n, gamma)
    if alpha:
        diag += alpha * l_a.diagonal()
    if beta:
        diag += beta * l_b.diagonal()
    lu, pad = pattern.factor(diag), np.zeros(q.shape[1])

    def apply(x):
        y = q @ (qt @ x)
        if alpha:
            y += alpha * (l_a @ x)
        if beta:
            y += beta * (l_b @ x)
        y += gamma * x
        return y

    def precondition(v):
        return lu.solve(np.concatenate((v, pad)))[:n]

    b = q @ np.asarray(costs, dtype=float)
    b_norm = float(np.linalg.norm(b))
    x, r = np.zeros(n), b.copy()
    p = precondition(r).copy()
    rz = float(r @ p)
    iterations = 0
    while True:
        ap = apply(p)
        step = rz / float(p @ ap)
        x += step * p
        r -= step * ap
        iterations += 1
        if float(np.linalg.norm(r)) <= tol * b_norm:
            true_r = b - apply(x)
            if float(np.linalg.norm(true_r)) <= tol * b_norm:
                return x, iterations
            r = true_r
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new


def _grid_system():
    """Q, costs and the Laplacians of a 12x12 training set, 144 trips."""
    spec = SyntheticSpec(rows=12, cols=12, n_trips=144, coverage=0.3, noise=0.05)
    graph, _, trips = generate_synthetic(spec, seed=1)
    m = build_constraints(trips, graph, build_dual(graph), RunConfig(seed=1))
    return m.q, trips.costs(), m.l_a, m.l_b


class TestWarmStart:
    @pytest.mark.parametrize(
        "x0", [np.zeros(3), np.zeros((2, 1)), np.array([np.nan, 0.0]), np.array([0.0, np.inf])]
    )
    def test_bad_start_rejected_before_factoring(self, splu_calls, x0):
        q = sp.csr_matrix(np.array([[1.0, 0.5], [0.0, 2.0]]))
        with pytest.raises(ValueError, match="x0 must"):
            solve_weights(q, np.ones(2), None, None, 0.0, 0.0, 0.1, x0=x0)
        assert splu_calls == []

    def test_exact_start_takes_no_step(self):
        # (1 + 1) d = 1 * 2: d = 1 leaves a residual of exactly zero, where
        # a first CG step would divide by p.Ap = 0
        q = sp.csr_matrix(np.array([[1.0]]))
        d, info = solve_weights(q, np.array([2.0]), None, None, 0.0, 0.0, 1.0,
                                tol=1e-14, x0=np.array([1.0]))
        assert d.tolist() == [1.0]
        assert (info.iterations, info.residual) == (0, 0.0)

    def test_converged_start_takes_no_step(self):
        q, c, l_a, l_b = _grid_system()
        d, cold = solve_weights(q, c, l_a, l_b, 1.0, 1.0, 1e-4)
        again, warm = solve_weights(q, c, l_a, l_b, 1.0, 1.0, 1e-4, x0=d)
        assert cold.iterations > 0
        assert warm.iterations == 0
        assert warm.residual <= 1e-8
        assert np.array_equal(again, d)

    def test_warm_and_cold_agree_within_the_tolerance(self):
        # both residuals are at most tol ||Qc||, so each solution is within
        # tol ||Qc|| / lambda_min of the exact one
        q, c, l_a, l_b = _grid_system()
        n, tol = q.shape[0], 1e-10
        neighbour, _ = solve_weights(q, c, l_a, l_b, 0.1, 1.0, 1e-4, tol=tol)
        cold, cold_info = solve_weights(q, c, l_a, l_b, 1.0, 1.0, 1e-4, tol=tol)
        warm, warm_info = solve_weights(q, c, l_a, l_b, 1.0, 1.0, 1e-4, tol=tol, x0=neighbour)
        dense = (
            (q @ q.T).toarray() + np.column_stack([l_a @ e for e in np.eye(n)])
            + l_b.toarray() + 1e-4 * np.eye(n)
        )
        lambda_min = np.linalg.eigvalsh(dense)[0]
        reach = 2 * tol * np.linalg.norm(q @ c) / lambda_min
        assert np.linalg.norm(warm - cold) <= reach
        assert max(cold_info.residual, warm_info.residual) <= tol
        assert warm_info.iterations < cold_info.iterations

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 1.0)], ids=["F1", "F4"])
    def test_no_start_runs_the_cold_loop_bit_for_bit(self, alpha, beta):
        q, c, l_a, l_b = _grid_system()
        l_a, l_b = (l_a if alpha else None), (l_b if beta else None)
        d, info = solve_weights(q, c, l_a, l_b, alpha, beta, 1e-4)
        expected, iterations = _cold_cg(q, c, l_a, l_b, alpha, beta, 1e-4, 1e-8)
        assert d.tobytes() == expected.tobytes()
        assert info.iterations == iterations


class TestObjectiveTerms:
    def test_perfect_fit_no_regularizers(self):
        q = sp.csr_matrix(np.array([[2.0], [0.0]]))
        d = np.array([1.5, 0.0])
        terms = objective_terms(d, q, np.array([3.0]), None, None, 0.0, 0.0, 0.0)
        assert terms.rss == 0.0
        assert terms.total == 0.0

    def test_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(17)
        n, m = 12, 6
        q = sp.csr_matrix(rng.uniform(0, 1, (n, m)) * (rng.random((n, m)) < 0.5))
        raw = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.3)
        sym = (raw + raw.T) / 2
        np.fill_diagonal(sym, 0.0)
        lap = laplacian(sp.csr_matrix(sym))
        alpha, gamma = 0.7, 0.05
        c = rng.uniform(0, 1, m)
        d_hat, _ = solve_weights(q, c, lap, None, alpha, 0.0, gamma, tol=1e-13)

        def objective(x):
            return objective_terms(x, q, c, lap, None, alpha, 0.0, gamma).total

        h = 1e-6
        grad = np.zeros(n)
        for i in range(n):
            up, down = d_hat.copy(), d_hat.copy()
            up[i] += h
            down[i] -= h
            grad[i] = (objective(up) - objective(down)) / (2 * h)
        assert np.abs(grad).max() <= 1e-5 * (1 + np.abs(q @ c).max())

    def test_total_composition(self):
        q = sp.csr_matrix(np.array([[1.0], [1.0]]))
        lap = laplacian(sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]])))
        d = np.array([1.0, 3.0])
        terms = objective_terms(d, q, np.array([1.0]), lap, None, 0.5, 0.0, 0.1)
        assert terms.rss == pytest.approx((1 - 4.0) ** 2)
        assert terms.similarity_penalty == pytest.approx(2 * (1 - 3) ** 2)
        assert terms.l2 == pytest.approx(10.0)
        assert terms.total == pytest.approx(terms.rss + 0.5 * terms.similarity_penalty + 0.1 * terms.l2)


class TestAnnotatedMask:
    def test_plain_trip_coverage(self):
        q = sp.csr_matrix(np.array([[1.0], [0.0], [0.0]]))
        mask = annotated_mask(q)
        assert mask.tolist() == [True, False, False]

    def test_reachability_through_similarity(self):
        q = sp.csr_matrix(np.array([[1.0], [0.0], [0.0]]))
        a = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        mask = annotated_mask(q, a=a)
        assert mask.tolist() == [True, True, True]

    def test_disconnected_entry_stays_unannotated(self):
        q = sp.csr_matrix(np.array([[1.0], [0.0], [0.0]]))
        a = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))
        mask = annotated_mask(q, a=a)
        assert mask.tolist() == [True, True, False]

    def test_constraints_union(self):
        q = sp.csr_matrix(np.array([[1.0], [0.0], [0.0], [0.0]]))
        a = sp.csr_matrix(
            np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float)
        )
        b = sp.csr_matrix(
            np.array([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=float)
        )
        assert annotated_mask(q, a=a).tolist() == [True, True, False, False]
        assert annotated_mask(q, b=b).tolist() == [True, False, False, False]
        assert annotated_mask(q, a=a, b=b).tolist() == [True, True, True, False]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_component_membership_reference(self, seed):
        n = 60
        q = sp.random(n, 8, density=0.03, format="csr", random_state=seed)
        a = sp.random(n, n, density=0.02, format="csr", random_state=seed + 100)
        a = a + a.T
        labels = connected_components(a, directed=False)[1]
        seeds = q.getnnz(axis=1) > 0
        want = np.isin(labels, np.unique(labels[seeds]))
        got = annotated_mask(q, a=a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
