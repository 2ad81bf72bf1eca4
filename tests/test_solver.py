from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
from scipy.sparse.csgraph import connected_components

from roadcost import solver
from roadcost.config import RunConfig
from roadcost.errors import ConvergenceError
from roadcost.evaluation import build_constraints
from roadcost.graph import (
    WEEKDAY,
    WEEKEND,
    CostVector,
    RoadGraph,
    TagSchedule,
    build_dual,
    peak_offpeak_schedule,
)
from roadcost.pagerank import (
    PageRankVector,
    TransitionMatrix,
    dual_weights,
    pagerank,
    transition_matrices,
)
from roadcost.solver import (
    PRECONDITIONER_FILL_LIMIT,
    SimilarityLaplacian,
    TripSpacePattern,
    annotated_mask,
    build_a,
    build_b,
    build_q,
    laplacian,
    objective_terms,
    solve_weights,
)
from roadcost.synth import SyntheticSpec, generate_synthetic
from roadcost.trips import LinkRecord, Trip, TripSet, partition_by_tag, split_trips, trip_cost

from conftest import (
    attribute_state,
    changed_attributes,
    component_labels,
    entry,
    graph_mask,
    make_trip,
    multigraph_edges,
    tripset,
)


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
            total += tm.matrix.data[idx] * (d[k * ne + u] - d[k * ne + v]) ** 2
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
    a = build_a(prs, threshold, method="exact")
    lap = laplacian(a)
    assert op.shape == lap.shape
    assert op.pairs == a.nnz
    scale = max(np.abs(lap.diagonal()).max(), 1.0)
    assert np.abs(op.diagonal() - lap.diagonal()).max() <= 1e-12 * scale
    for x in (rng.standard_normal(lap.shape[0]), np.arange(lap.shape[0], dtype=float)):
        expected = lap @ x
        assert np.linalg.norm(op @ x - expected) <= 1e-12 * max(np.linalg.norm(expected), 1.0)


def _per_tag_adjacency(windows, x, y, sign):
    """Adds sign * A x into y tag by tag, as SimilarityLaplacian's kernels do:
    each tag's two prefix sums from a leading zero, then the four window ends
    of each positive entry added to y_i one at a time, lower window first,
    with the values of an empty window's ends 0. The bitwise reference of
    the packed product."""
    for index, sv, lo, hi in windows:
        m, pos, xs = len(sv), np.arange(len(sv)), x[index]
        below, above = np.zeros(m + 1), np.zeros(m + 1)
        below[1:] += sv * xs
        above[1:] += (1 / sv * xs)[::-1]
        np.cumsum(below, out=below)
        np.cumsum(above, out=above)
        inverse, upper = np.where(lo < pos, 1 / sv, 0.0), np.where(hi > pos + 1, sv, 0.0)
        for value, end in [
            (-inverse, below[lo]),
            (inverse, below[pos]),
            (-upper, above[m - hi]),
            (upper, above[m - 1 - pos]),
        ]:
            y[index] += (sign * value) * end


def _same_partition(x, y) -> bool:
    """Whether two labellings of the same entries group them alike."""
    pairs = np.unique(np.stack([x, y]), axis=1).shape[1]
    return pairs == len(np.unique(x)) == len(np.unique(y))


@st.composite
def _similarity_instances(draw):
    """1-3 tags whose positive counts differ, with ties and zero PageRank, a
    threshold that may be 1, and an x rich in +0.0 and -0.0."""
    ne = draw(st.integers(1, 10))
    value = st.one_of(st.just(0.0), st.sampled_from([0.125, 0.25, 0.5]), st.floats(1e-3, 1.0))
    tags = draw(st.lists(st.lists(value, min_size=ne, max_size=ne), min_size=1, max_size=3))
    threshold = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))
    size = ne * len(tags)
    signed_zeros = st.sampled_from([0.0, -0.0]).map(lambda zero: [zero] * size)
    x = draw(st.one_of(st.lists(entry, min_size=size, max_size=size), signed_zeros))
    return _prs(tags), threshold, np.array(x)


class TestSimilarityLaplacian:
    @settings(max_examples=300, deadline=None)
    @given(instance=_similarity_instances())
    # tag 0 has one entry fewer than tag 1, so its rows are padded, and every
    # x_j is -0.0: the signs of zero follow the kernels' sums
    @example(instance=(_prs([[0.5, 0.5, 0.5, 0.0], [0.25, 0.5, 0.25, 0.5]]), 1.0, -np.zeros(8)))
    def test_packed_layout_is_bitwise_the_per_tag_loop(self, instance):
        prs, threshold, x = instance
        op = SimilarityLaplacian(prs, threshold)
        windows = solver._similarity_windows(prs, threshold)
        n = op.shape[0]
        degree = np.zeros(n)
        _per_tag_adjacency(windows, np.ones(n), degree, 1.0)
        assert op.diagonal().tobytes() == degree.tobytes()
        expected = degree * x
        _per_tag_adjacency(windows, x, expected, -1.0)
        assert (op @ x).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(instance=_similarity_instances())
    # ties at threshold 1, zero PageRank, and a tag whose runs are split by a
    # value just above a tie
    @example(instance=(_prs([[0.25, 0.0, 0.25, np.nextafter(0.25, 1), 0.5, 0.5]]), 1.0, None))
    def test_components_are_the_exact_graphs(self, instance):
        prs, threshold, _ = instance
        labels = SimilarityLaplacian(prs, threshold).components()
        n = len(labels)
        # each label is an entry of its own component
        assert ((0 <= labels) & (labels < n)).all() and (labels[labels] == labels).all()
        assert _same_partition(labels, component_labels(build_a(prs, threshold)))

    @pytest.mark.parametrize("lengths", [(2, 3), (3, 2)])
    def test_unequal_lengths_rejected(self, lengths):
        prs = _prs([np.full(k, 0.5) for k in lengths])
        message = rf"equal lengths, got \[{lengths[0]}, {lengths[1]}\]"
        with pytest.raises(ValueError, match=message):
            SimilarityLaplacian(prs, 0.9)
        with pytest.raises(ValueError, match=message):
            build_a(prs, 0.9)

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
        assert op.components().tolist() == [0, 1, 2]

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
        assert len(set(op.components().tolist())) == 3 - similar

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

    def test_matrix_off_the_dual_edges_rejected(self, junction_graph):
        dual, transitions = self._setup(junction_graph)
        # AB -> BC becomes AB -> CB, which is not a dual edge
        m = transitions[1].matrix.toarray()
        m[0, [2, 3]] = m[0, [3, 2]]
        transitions[1] = TransitionMatrix(tag=1, matrix=sp.csr_matrix(m))
        with pytest.raises(ValueError, match="not on the dual graph's edges"):
            build_b(transitions, dual, np.zeros(5, dtype=bool))

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


@st.composite
def _adjacency_networks(draw):
    """A multigraph (parallel edges, one-way roads, dead ends) with speed
    limits on both sides of the highway cutoff and unknown ones, trips in
    each of the default schedule's three tags, and a few seed entries."""
    n, edges = draw(multigraph_edges().filter(lambda shape: shape[1]))
    limits = draw(st.lists(st.sampled_from([None, 50.0, 110.0]), min_size=len(edges),
                           max_size=len(edges)))
    walk = st.lists(st.integers(0, len(edges) - 1), min_size=1, max_size=6)
    when = st.sampled_from([(WEEKDAY, 100.0), (WEEKDAY, 430.0), (WEEKEND, 600.0)])
    trips = draw(st.lists(st.tuples(walk, when), max_size=8))
    seeds = draw(st.lists(st.integers(0, 3 * len(edges) - 1), max_size=3))
    return n, edges, limits, trips, seeds


def _adjacency_instance(network):
    """The graph, its dual, the trips' transition matrices and a Q over the seeds."""
    n, edges, limits, trips, seeds = network
    vertices = [f"v{i}" for i in range(n)]
    graph = RoadGraph.from_edges(
        vertices,
        [(vertices[t], vertices[h]) for t, h in edges],
        [1.0] * len(edges),
        peak_offpeak_schedule(),
        speed_limits=limits,
    )
    dual = build_dual(graph)
    trips = tripset(*(make_trip(walk, start=start, day=day) for walk, (day, start) in trips))
    transitions = transition_matrices(dual, partition_by_tag(trips, graph.tag_schedule))
    q = sp.csr_matrix(
        (np.ones(len(seeds)), (seeds, np.arange(len(seeds)))), shape=(graph.n_entries, 3)
    )
    return graph, dual, transitions, q


# v0 -> v1 ten times, v1 -> v2 ten times: each row of B holds ten links, more
# than the eight below which numpy's pairwise sum adds term by term. v2 -> v1
# meets only its reverses and the highway v3 -> v0 only urban roads: two rows
# with no link
_BUSY_JUNCTION = (
    4,
    10 * [(0, 1)] + 10 * [(1, 2)] + [(2, 1), (3, 0)],
    21 * [None] + [110.0],
    [([0, 10, 20], (WEEKDAY, 100.0)), ([21, 0, 15], (WEEKDAY, 430.0)), ([3, 13], (WEEKEND, 600.0))],
    [0, 44],
)


class TestAdjacencyPattern:
    @settings(max_examples=150, deadline=None)
    @given(network=_adjacency_networks())
    @example(network=_BUSY_JUNCTION)
    def test_laplacian_is_bitwise_the_reference(self, network):
        graph, dual, transitions, _ = _adjacency_instance(network)
        got = dual.adjacency_pattern.laplacian(transitions)
        want = laplacian(build_b(transitions, dual, graph.is_highway()))
        for name in ("indptr", "indices", "data"):
            got_array, want_array = getattr(got, name), getattr(want, name)
            assert got_array.dtype == want_array.dtype
            assert got_array.tobytes() == want_array.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(network=_adjacency_networks())
    @example(network=_BUSY_JUNCTION)
    def test_label_masks_are_the_graph_searchs(self, network):
        graph, dual, transitions, q = _adjacency_instance(network)
        labels = dual.adjacency_pattern.components
        n = graph.n_entries
        # each label is an entry of its own component
        assert ((0 <= labels) & (labels < n)).all() and (labels[labels] == labels).all()
        prs = [pagerank(tm, pattern=dual.chain_pattern) for tm in transitions]
        op = SimilarityLaplacian(prs, 0.95)
        # off the diagonal both Laplacians are negative, so their sum cancels no link
        l_a = laplacian(build_a(prs, 0.95))
        l_b = laplacian(build_b(transitions, dual, graph.is_highway()))
        for use_a in (False, True):
            for use_b in (False, True):
                want = graph_mask(q, l_a if use_a else None, l_b if use_b else None)
                got = annotated_mask(
                    q, op.components() if use_a else None, labels if use_b else None
                )
                assert got.tobytes() == want.tobytes()

    def test_fixed_by_the_dual_and_read_only(self):
        spec = SyntheticSpec(rows=6, cols=6, n_trips=120, coverage=0.3, noise=0.05,
                             speed_limit_choices=(50.0, 100.0))
        graph, _, trips = generate_synthetic(spec, seed=4)
        dual, config = build_dual(graph), RunConfig()
        pattern = dual.adjacency_pattern
        assert dual.adjacency_pattern is pattern
        before = attribute_state(pattern)
        for part in split_trips(trips, 0.5, seed=4):
            matrices = build_constraints(part, graph, dual, config)
            assert matrices.b_components is pattern.components
            for use_a in (False, True):
                for use_b in (False, True):
                    matrices.mask(use_a, use_b)
        assert changed_attributes(before, pattern) == set()
        assert not pattern.components.flags.writeable

    def _junction(self, junction_graph):
        dual = build_dual(junction_graph)
        trips = tripset(make_trip([0, 2], start=430.0), make_trip([0, 4], start=100.0))
        return dual, transition_matrices(dual, partition_by_tag(trips, junction_graph.tag_schedule))

    def test_matrices_out_of_order_rejected(self, junction_graph):
        dual, transitions = self._junction(junction_graph)
        with pytest.raises(ValueError, match="ordered by tag"):
            dual.adjacency_pattern.laplacian(transitions[::-1])
        with pytest.raises(ValueError, match="expected 2 transition matrices, got 1"):
            dual.adjacency_pattern.laplacian(transitions[:1])

    def test_matrix_off_the_dual_edges_rejected(self, junction_graph):
        dual, transitions = self._junction(junction_graph)
        m = transitions[1].matrix.toarray()
        m[0, [2, 3]] = m[0, [3, 2]]  # AB -> BC becomes AB -> CB, not a dual edge
        transitions[1] = TransitionMatrix(tag=1, matrix=sp.csr_matrix(m))
        with pytest.raises(ValueError, match="not on the dual graph's edges"):
            dual.adjacency_pattern.laplacian(transitions)


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


def _with_indices(a, dtype):
    """a with its index arrays cast to dtype (the constructor would shrink int64)."""
    a.indices, a.indptr = a.indices.astype(dtype), a.indptr.astype(dtype)
    return a


class TestMatvec:
    """solver._matvec and _matvec_t call scipy's private csr_matvec and
    csc_matvec, the kernels behind @."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("strided", [False, True])
    def test_bitwise_scipy_product(self, index_dtype, strided):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((40, 30)) * (rng.random((40, 30)) < 0.2)
        dense[[3, 17, 39]] = 0.0  # empty rows
        random = sp.csr_matrix(dense)
        # rows 1 and 3 repeat column 2, out of order; rows 0 and 2 are empty
        messy = sp.csr_matrix(
            (rng.standard_normal(7), np.array([2, 0, 2, 4, 2, 2, 1]), np.array([0, 0, 4, 4, 7])),
            shape=(4, 5),
        )
        assert not messy.has_canonical_format
        for a in (random, messy):
            a = _with_indices(a, index_dtype)
            assert a.indices.dtype == index_dtype
            wide = rng.standard_normal(2 * a.shape[1])
            x = wide[::2] if strided else wide[: a.shape[1]]
            assert x.flags.c_contiguous != strided
            assert solver._matvec(a, x).tobytes() == (a @ x).tobytes()

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_transposed_kernel_is_bitwise_scipy_product_on_sorted_rows(self, index_dtype):
        """solver._matvec_t, scipy's private csc_matvec on a^T's CSR arrays."""
        rng = np.random.default_rng(6)
        dense = rng.standard_normal((40, 30)) * (rng.random((40, 30)) < 0.3)
        dense[[3, 17, 39]] = 0.0  # empty rows
        dense[:, [0, 11, 29]] = 0.0  # empty columns
        a = sp.csr_matrix(dense)
        assert a.has_sorted_indices
        at = _with_indices(a.T.tocsr(), index_dtype)
        assert at.indices.dtype == index_dtype
        for _ in range(20):
            x = rng.standard_normal(30)
            assert solver._matvec_t(at, x).tobytes() == (a @ x).tobytes()

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_kernels_add_each_term_onto_y(self, index_dtype):
        """solve_weights' operator builds M x in one vector that the kernels
        add into, so both must add to a non-zero y, term by term from its
        prior value, and never start a row or column from zero."""
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((12, 9)) * (rng.random((12, 9)) < 0.5)
        dense[[2, 7]] = 0.0  # empty rows
        a = _with_indices(sp.csr_matrix(dense), index_dtype)
        assert a.indices.dtype == index_dtype
        x, z = rng.standard_normal(9), rng.standard_normal(12)
        # csr_matvec: y_i += each term of row i in turn
        prior = rng.standard_normal(12) * 1e3
        y, expected = prior.copy(), prior.copy()
        csr_matvec(12, 9, a.indptr, a.indices, a.data, x, y)
        for i in range(12):
            for k in range(a.indptr[i], a.indptr[i + 1]):
                expected[i] += a.data[k] * x[a.indices[k]]
        assert y.tobytes() == expected.tobytes()
        assert (y != prior + a @ x).any()  # so a sum from zero would fail here
        # csc_matvec on the same arrays, as a^T's columns: y[a's column] += each
        # term of row j of a, row after row
        prior = rng.standard_normal(9) * 1e3
        y, expected = prior.copy(), prior.copy()
        csc_matvec(9, 12, a.indptr, a.indices, a.data, z, y)
        for j in range(12):
            for k in range(a.indptr[j], a.indptr[j + 1]):
                expected[a.indices[k]] += a.data[k] * z[j]
        assert y.tobytes() == expected.tobytes()
        assert (y != prior + a.T @ z).any()

    def test_relabelled_q_m_forms_its_products_from_its_own_rows(self):
        q, _ = _grid_q()
        n = q.shape[0]
        rng = np.random.default_rng(7)
        pattern = TripSpacePattern(q)
        first = pattern.factor(np.full(n, 0.5))
        assert first.qm is None  # Q_m's rows list their trips ascending: Q_m^T's rows serve
        second = pattern.factor(10.0 ** rng.uniform(-4, 1, n))
        qm, qmt = second.qm, second.qmt
        rows = np.repeat(np.arange(n), np.diff(qm.indptr))
        assert ((np.diff(qm.indices) < 0) & (rows[1:] == rows[:-1])).any()  # relabelled
        differs = 0
        for _ in range(20):
            y = rng.standard_normal(qm.shape[1])
            differs += solver._matvec_t(qmt, y).tobytes() != (qm @ y).tobytes()
        assert differs  # so the transposed kernel would change the solve's digits
        v = rng.standard_normal(n)
        expected = (v - qm @ second.lu.solve(qmt @ (v / second.d))) / second.d
        assert second.solve(v).tobytes() == expected.tobytes()


class TestOperator:
    @settings(max_examples=300, deadline=None)
    @given(
        instance=_similarity_instances(),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
        beta=st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
        gamma=st.floats(1e-4, 1.0),
        sparse_l_a=st.booleans(),
    )
    # zero PageRank and ties at threshold 1; one positive entry per tag
    @example(
        instance=(_prs([[0.25, 0.0, 0.25, 0.5], [0.5, 0.5, 0.0, 0.5]]), 1.0, np.arange(8.0)),
        seed=0, alpha=1.0, beta=1.0, gamma=1e-4, sparse_l_a=False,
    )
    @example(
        instance=(_prs([[0.0, 0.5, 0.0], [0.3, 0.0, 0.0]]), 0.5, np.arange(6.0) - 2),
        seed=1, alpha=2.0, beta=0.0, gamma=0.1, sparse_l_a=False,
    )
    def test_product_matches_the_dense_system(
        self, instance, seed, alpha, beta, gamma, sparse_l_a
    ):
        """solve_weights' M x against the dense (Q Q^T + alpha L_A + beta L_B +
        gamma I) x, with L_A as the operator or as laplacian(build_a(...))."""
        prs, threshold, x = instance
        rng = np.random.default_rng(seed)
        n = len(x)
        t = int(rng.integers(1, 6))
        q = sp.csr_matrix(rng.uniform(0.1, 2.0, (n, t)) * (rng.random((n, t)) < 0.4))
        l_b = laplacian(_random_similarity(rng, n, 0.3))
        exact = laplacian(build_a(prs, threshold))
        l_a = exact if sparse_l_a else SimilarityLaplacian(prs, threshold)
        dense = (
            (q @ q.T).toarray() + alpha * exact.toarray() + beta * l_b.toarray()
            + gamma * np.eye(n)
        )
        diag, apply = solver._operator(q.T.tocsr(), l_a, l_b, alpha, beta, gamma)
        expected_d = gamma + alpha * exact.diagonal() + beta * l_b.diagonal()
        np.testing.assert_allclose(diag, expected_d, rtol=1e-13)
        # relative to ||M||_inf ||x||_inf, plus a unit of underflow per term
        # where x holds subnormals
        scale = np.abs(dense).sum(axis=1).max() * np.abs(x).max()
        underflow = (n + t + 4) * np.finfo(float).smallest_subnormal
        assert np.abs(apply(x) - dense @ x).max() <= 1e-13 * scale + underflow


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

    def test_other_sparse_formats_solve_as_csr(self):
        # the CG loop's kernel reads CSR arrays: Q and L_B arrive converted
        rng = np.random.default_rng(7)
        q = sp.csr_matrix(rng.uniform(0, 2, (12, 5)) * (rng.random((12, 5)) < 0.4))
        l_b = laplacian(_random_similarity(rng, 12, 0.3))
        c = rng.uniform(-1, 1, 5)
        expected, _ = solve_weights(q, c, None, l_b, 0.0, 1.0, 0.1)
        got, _ = solve_weights(q.tocsc(), c, None, l_b.tocoo(), 0.0, 1.0, 0.1)
        assert got.tobytes() == expected.tobytes()

    def test_non_convergence_raises(self):
        # a tolerance below rounding error is never met: CG stops at its cap
        # of 10 iterations per unknown
        rng = np.random.default_rng(2)
        q = sp.csr_matrix(rng.uniform(0, 1, (30, 6)) * (rng.random((30, 6)) < 0.5))
        l_a = laplacian(_random_similarity(rng, 30, 0.3))
        l_b = laplacian(_random_similarity(rng, 30, 0.3))
        with pytest.raises(ConvergenceError, match="did not converge") as err:
            solve_weights(q, rng.uniform(0, 1, 6), l_a, l_b, 1.0, 2.0, 1e-3, tol=1e-20)
        assert err.value.residual > 0
        assert err.value.iterations == 300

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

    def test_non_finite_matrix_stops_before_iterating_past_the_fill_limit(self, monkeypatch):
        # every trip folds into D', whose NaN is caught as on the factored side
        monkeypatch.setattr(solver, "PRECONDITIONER_FILL_LIMIT", 0.0)
        q, c = sp.csr_matrix(np.array([[1.0, 0.5], [0.0, 2.0]])), np.ones(2)
        lap = sp.csr_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        assert not TripSpacePattern(q).factored
        with pytest.raises(ConvergenceError, match="factorization") as err:
            solve_weights(q, c, lap, None, 1.0, 0.0, 0.1)
        assert err.value.iterations == 0

    def test_fill_estimate_decides_the_factor(self):
        # every trip covers all 4 unknowns: the estimate 4 t^2 is held against
        # the limit times 2 nnz(Q) + n + t = 2 (4 t) + 4 + t, the nonzeros of
        # the bordered matrix [[D, Q], [Q^T, -I]] the limit was set on
        def factored(t):
            return TripSpacePattern(sp.csr_matrix(np.ones((4, t)))).factored

        t_max = max(t for t in range(1, 1000)
                    if 4 * t * t <= PRECONDITIONER_FILL_LIMIT * (9 * t + 4))
        assert factored(t_max)
        assert not factored(t_max + 1)

    def test_heavy_overlap_folds_every_trip(self):
        # 60 trips over 12 unknowns, each through about 40 of them: every trip
        # folds into D', nothing is factored, and Jacobi-preconditioned CG
        # still reaches the exact minimizer
        rng = np.random.default_rng(9)
        n, t = 12, 60
        q = sp.csr_matrix(rng.uniform(0.5, 2, (n, t)) * (rng.random((n, t)) < 0.7))
        l_a = laplacian(_random_similarity(rng, n, 0.3))
        c = rng.uniform(0.5, 2, t)
        assert not TripSpacePattern(q).factored
        d, info = solve_weights(q, c, l_a, None, 0.5, 0.0, 1e-4, tol=1e-12)
        dense = (q @ q.T).toarray() + 0.5 * l_a.toarray() + 1e-4 * np.eye(n)
        expected = np.linalg.solve(dense, q @ c)
        assert np.linalg.norm(d - expected) <= 1e-7 * np.linalg.norm(expected)
        assert info.factor_nnz == 0
        assert 1 < info.iterations <= n + 2  # CG's finite termination, with rounding slack

    def test_spd_property(self, monkeypatch):
        # the system is Q Q^T + alpha L_A + gamma I, SPD with smallest eigenvalue
        # at least gamma; both sides of the fill limit, the trip-space factor
        # and every trip folded into D', reach its dense solution
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
            monkeypatch.setattr(solver, "PRECONDITIONER_FILL_LIMIT", np.inf if factored else 0.0)
            pattern = TripSpacePattern(q)
            d, info = solve_weights(q, c, lap, None, 1.2, 0.0, gamma, tol=1e-12, pattern=pattern)
            assert np.linalg.norm(d - expected) <= 1e-9 * np.linalg.norm(expected)
            assert (info.factor_nnz > 0) == factored


def _grid_q():
    spec = SyntheticSpec(rows=12, cols=12, n_trips=144, coverage=0.3, noise=0.05)
    graph, _, trips = generate_synthetic(spec, seed=1)
    return build_q(trips, graph), trips.costs()


def _trip_space_errors(low, cover_all):
    """Relative errors of a trip-space factor of D + Q Q^T against a dense solve.

    Q holds one-unknown trips (one on every unknown when ``cover_all``) and
    30 trips through two or more unknowns; D spans low..10. Also returns
    max_i (Q_m Q_m^T)_ii / D'_i, the factor's cancellation ratio.
    """
    rng = np.random.default_rng(11)
    n = 25
    rows = np.r_[np.arange(n), rng.integers(0, n, 15)] if cover_all else rng.integers(0, n, 40)
    values = rng.uniform(0.5, 2, len(rows))
    single = sp.csr_matrix((values, (rows, np.arange(len(rows)))), shape=(n, len(rows)))
    multi = rng.uniform(0.5, 2, (n, 30)) * (rng.random((n, 30)) < 0.15)
    multi[rng.integers(0, n, 30), np.arange(30)] = 1.0
    multi[(rng.integers(0, n, 30) + 1 + np.arange(30)) % n, np.arange(30)] += 0.5
    q = sp.hstack([single, sp.csr_matrix(multi)], format="csr")
    counts = q.getnnz(axis=0)
    assert (counts[: len(rows)] == 1).all() and (counts[len(rows):] >= 2).all()
    diag = 10.0 ** rng.uniform(np.log10(low), 1, n)
    dense = np.diag(diag) + (q @ q.T).toarray()
    factor = TripSpacePattern(q).factor(diag)
    assert factor.nnz > 0
    folded = diag + np.bincount(rows, values**2, n)
    ratio = ((multi**2).sum(axis=1) / folded).max()
    errors = []
    for _ in range(3):
        v = rng.standard_normal(n)
        expected = np.linalg.solve(dense, v)
        errors.append(np.linalg.norm(factor.solve(v) - expected) / np.linalg.norm(expected))
    return errors, ratio


class TestTripSpacePattern:
    def test_reused_ordering_keeps_the_fill_and_the_solve(self, splu_calls):
        q, _ = _grid_q()
        n = q.shape[0]
        rng = np.random.default_rng(5)
        pattern = TripSpacePattern(q)
        pattern.factor(np.full(n, 1e-4))
        for _ in range(4):
            diag = 10.0 ** rng.uniform(-4, 1, n)  # gamma up to gamma + alpha L_A + beta L_B
            reused = pattern.factor(diag)
            fresh = TripSpacePattern(q).factor(diag)
            assert reused.nnz == fresh.nnz
            for _ in range(3):
                v = rng.standard_normal(n)
                expected = fresh.solve(v)
                got = reused.solve(v)
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        assert splu_calls == ["MMD_AT_PLUS_A"] + 4 * ["NATURAL", "MMD_AT_PLUS_A"]

    @pytest.mark.parametrize(
        "make_q",
        [lambda: _grid_q()[0], lambda: _q_from_visits([[0, 1], [1, 2], [2, 3, 0], [3], [1]])],
        ids=["grid12", "folded-trip"],
    )
    def test_read_only_after_the_first_factor(self, make_q, splu_calls):
        # the one exception: S's product map, built once at the second factor
        q = make_q()
        n = q.shape[0]
        rng = np.random.default_rng(8)
        pattern = TripSpacePattern(q)
        pattern.factor(np.full(n, 0.5))
        state = attribute_state(pattern)
        assert pattern._map is None
        pattern.factor(10.0 ** rng.uniform(-4, 1, n))
        assert changed_attributes(state, pattern) == {"_map"} and pattern._map is not None
        state = attribute_state(pattern)
        for _ in range(3):
            pattern.factor(10.0 ** rng.uniform(-4, 1, n))
            assert changed_attributes(state, pattern) == set()
        assert splu_calls == ["MMD_AT_PLUS_A"] + 4 * ["NATURAL"]

    def test_non_finite_diagonal_on_the_reused_ordering(self, splu_calls):
        q, c = _grid_q()
        n = q.shape[0]
        pattern = TripSpacePattern(q)
        lap = sp.csr_matrix((n, n))
        solve_weights(q, c, lap, None, 1.0, 0.0, 0.1, pattern=pattern)
        lap = sp.diags(np.r_[np.nan, np.zeros(n - 1)]).tocsr()
        with pytest.raises(ConvergenceError, match="preconditioner factorization failed") as err:
            solve_weights(q, c, lap, None, 1.0, 0.0, 0.1, pattern=pattern)
        assert err.value.iterations == 0
        assert splu_calls == ["MMD_AT_PLUS_A"]  # the NaN is caught before S is built

    @pytest.mark.parametrize("low", [1e-10, 1e-4, 1.0])
    def test_solves_the_preconditioner_to_dense_accuracy(self, low, splu_calls):
        # every unknown carries a trip through it alone, as cover_all_entries
        # gives: the fold lifts each D' to at least that trip's q^2
        errors, _ = _trip_space_errors(low, cover_all=True)
        assert max(errors) <= 1e-14
        assert splu_calls == ["MMD_AT_PLUS_A"]

    @pytest.mark.parametrize("low", [1e-10, 1e-4, 1.0])
    def test_cancellation_stays_within_its_bound(self, low):
        # unknowns crossed only by trips through several unknowns keep a small
        # D': P^-1 v is then a difference that loses about eps (Q_m Q_m^T)_ii
        # / D'_i (a factor 4 of slack covers "about" and the dense reference)
        errors, ratio = _trip_space_errors(low, cover_all=False)
        assert max(errors) <= 4 * np.finfo(float).eps * ratio
        if low < 1e-4:
            assert ratio > 1e6  # deep in the cancellation regime, far above rounding

    def test_no_trip_through_two_unknowns_factors_nothing(self, splu_calls):
        # every trip folds into D' = D + q^2; the sums are exact in binary
        rows = np.array([0, 1, 1, 3, 4, 4, 4])
        values = np.array([1.0, 2.0, 0.5, 1.0, 2.0, 1.0, 0.5])
        q = sp.csr_matrix((values, (rows, np.arange(7))), shape=(5, 7))
        diag = np.array([0.25, 1.0, 2.0, 4.0, 0.5])
        folded = diag + np.array([1.0, 4.25, 0.0, 1.0, 5.25])
        factor = TripSpacePattern(q).factor(diag)
        v = np.random.default_rng(3).standard_normal(5)
        assert factor.solve(v).tobytes() == (v / folded).tobytes()
        assert factor.nnz == 0
        assert splu_calls == []

    def test_past_the_fill_limit_every_trip_folds(self, monkeypatch, splu_calls):
        # P = D + diag(Q Q^T), the Jacobi preconditioner; the sums are exact in binary
        monkeypatch.setattr(solver, "PRECONDITIONER_FILL_LIMIT", 0.0)
        q = sp.csr_matrix(np.array([[1.0, 0.5, 0.0], [2.0, 0.0, 1.0], [0.0, 0.25, 2.0]]))
        diag = np.array([0.25, 1.0, 2.0])
        pattern = TripSpacePattern(q)
        assert not pattern.factored
        factor = pattern.factor(diag)
        v = np.random.default_rng(3).standard_normal(3)
        jacobi = diag + np.asarray(q.multiply(q).sum(axis=1)).ravel()
        assert factor.solve(v).tobytes() == (v / jacobi).tobytes()
        assert factor.nnz == 0
        assert splu_calls == []

    def test_pattern_of_another_q_rejected(self):
        q, c = _tiny_system()
        with pytest.raises(ValueError, match="another Q"):
            solve_weights(q, c, None, None, 0.0, 0.0, 0.1, pattern=TripSpacePattern(q.copy()))


def _q_from_visits(visits, values=None):
    """Q with one column per trip, row i summing the trip's visits to unknown i."""
    rows = np.array([i for trip in visits for i in trip], dtype=np.int64)
    cols = np.array([k for k, trip in enumerate(visits) for _ in trip], dtype=np.int64)
    values = np.ones(len(rows)) if values is None else np.asarray(values, dtype=float)
    n = int(rows.max()) + 1 if len(rows) else 1
    return sp.csr_matrix((values, (rows, cols)), shape=(n, len(visits)))


@st.composite
def _design_matrices(draw):
    """Q of up to 8 unknowns and 12 trips. A trip may visit no unknown (an
    empty column), one (folded into D'), or one unknown twice (Q sums it)."""
    n = draw(st.integers(1, 8))
    visits = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=5), min_size=1, max_size=12))
    size = sum(map(len, visits))
    values = draw(st.lists(st.floats(0.125, 8.0), min_size=size, max_size=size))
    return _q_from_visits(visits, values)


def _spgemm_s(pattern, diag):
    """S = I + Q_m^T D'^-1 Q_m of the pattern's Q_m, by sparse product, sorted by tocsc."""
    d = diag if pattern._fold is None else diag + pattern._fold
    qm = pattern._qm
    scaled = sp.csr_matrix(
        (qm.data / np.repeat(d, np.diff(qm.indptr)), qm.indices, qm.indptr), shape=qm.shape
    )
    return (pattern._qmt @ scaled + sp.identity(qm.shape[1], format="csr")).tocsc()


class TestProductMap:
    @settings(max_examples=150, deadline=None)
    @given(q=_design_matrices(), seed=st.integers(0, 2**32 - 1))
    @example(q=_q_from_visits([[0], [1], [2, 2], []]), seed=0)  # every trip folded
    @example(q=_q_from_visits([[0, 1, 0], [1, 2], [2], [], [0, 2, 1]]), seed=1)  # 0 twice
    @example(q=_q_from_visits([[0, 1], [], [1, 2], []]), seed=2)  # empty columns
    def test_mapped_s_is_the_sparse_product(self, q, seed):
        rng = np.random.default_rng(seed)
        n = q.shape[0]
        pattern = TripSpacePattern(q)
        factored = []
        real = solver.splu

        def recording(s, **kwargs):
            factored.append(s)
            return real(s, **kwargs)

        with mock.patch.object(solver, "splu", recording):
            pattern.factor(10.0 ** rng.uniform(-4, 1, n))
            assert pattern._map is None  # a pattern that factored once holds no map
            for k in range(3):  # factors 2-4, each with its own D
                diag = 10.0 ** rng.uniform(-4, 1, n)
                pattern.factor(diag)
                if not factored:  # every trip folded: nothing to factor, nothing to map
                    assert pattern._map is None
                    continue
                expected, got = _spgemm_s(pattern, diag), factored[-1]
                assert len(factored) == k + 2
                for name in ("data", "indices", "indptr"):
                    want, have = getattr(expected, name), getattr(got, name)
                    assert have.dtype == want.dtype and np.array_equal(have, want)

    def test_non_finite_diagonal_builds_no_map(self, splu_calls):
        q = _q_from_visits([[0, 1], [1, 2], [2, 3, 0], [3]])
        pattern = TripSpacePattern(q)
        pattern.factor(np.ones(4))
        with pytest.raises(RuntimeError, match="non-finite"):
            pattern.factor(np.array([1.0, np.nan, 1.0, 1.0]))
        assert pattern._map is None and splu_calls == ["MMD_AT_PLUS_A"]
        diag = np.array([0.5, 2.0, 1.0, 4.0])
        pattern.factor(diag)  # the next finite D maps S's product as the second factor
        assert pattern._map is not None and splu_calls == ["MMD_AT_PLUS_A", "NATURAL"]
        mapped, expected = pattern._map.matrix(diag + pattern._fold), _spgemm_s(pattern, diag)
        assert np.array_equal(mapped.data, expected.data)


def _cold_cg(q, costs, l_a, l_b, alpha, beta, gamma, tol):
    """The preconditioned CG loop as it ran before warm starts, step for step,
    on solve_weights' own operator: what it pins is the loop."""
    pattern = TripSpacePattern(q)
    n = q.shape[0]
    diag, apply = solver._operator(pattern.qt, l_a, l_b, alpha, beta, gamma)
    lu = pattern.factor(diag)

    def precondition(v):
        return lu.solve(v)

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
        mask = annotated_mask(q, a=component_labels(a))
        assert mask.tolist() == [True, True, True]

    def test_disconnected_entry_stays_unannotated(self):
        q = sp.csr_matrix(np.array([[1.0], [0.0], [0.0]]))
        a = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))
        mask = annotated_mask(q, a=component_labels(a))
        assert mask.tolist() == [True, True, False]

    def test_constraints_union(self):
        q = sp.csr_matrix(np.array([[1.0], [0.0], [0.0], [0.0]]))
        a = sp.csr_matrix(
            np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float)
        )
        b = sp.csr_matrix(
            np.array([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=float)
        )
        a, b = component_labels(a), component_labels(b)
        assert annotated_mask(q, a=a).tolist() == [True, True, False, False]
        assert annotated_mask(q, b=b).tolist() == [True, False, False, False]
        assert annotated_mask(q, a=a, b=b).tolist() == [True, True, True, False]

    def test_signed_values_cannot_cancel_a_link(self):
        # A links 0 and 1, and so does B with weight 1: L_B holds -1 there, and
        # a sum of A's links and L_B would drop the pair and lose entries 1, 2
        q = sp.csr_matrix(np.array([[1.0], [0.0], [0.0]]))
        a = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))
        l_b = laplacian(sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 0.5], [0, 0.5, 0]])))
        assert graph_mask(q, a, l_b).tolist() == [True, False, False]
        labels = component_labels(a), component_labels(l_b)
        assert annotated_mask(q, *labels).tolist() == [True, True, True]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_component_membership_reference(self, seed):
        n = 60
        q = sp.random(n, 8, density=0.03, format="csr", random_state=seed)
        a = sp.random(n, n, density=0.02, format="csr", random_state=seed + 100)
        a = a + a.T
        labels = connected_components(a, directed=False)[1]
        seeds = q.getnnz(axis=1) > 0
        want = np.isin(labels, np.unique(labels[seeds]))
        got = annotated_mask(q, a=component_labels(a))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(instance=_similarity_instances(), data=st.data())
    def test_every_mask_is_the_graph_searchs(self, instance, data):
        prs, threshold, _ = instance
        op = SimilarityLaplacian(prs, threshold)
        n = op.shape[0]
        seeds = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        q = sp.csr_matrix((np.ones(len(seeds)), (seeds, np.arange(len(seeds)))), shape=(n, 3))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
        b = sp.csr_matrix((np.full(len(pairs), 0.5), (rows, cols)), shape=(n, n))
        b = b + b.T  # positive, so A + B cancels nothing in the reference
        a = build_a(prs, threshold)
        for use_a in (False, True):
            for use_b in (False, True):
                want = graph_mask(q, a if use_a else None, b if use_b else None)
                got = annotated_mask(
                    q,
                    op.components() if use_a else None,
                    component_labels(b) if use_b else None,
                )
                assert got.tobytes() == want.tobytes()
