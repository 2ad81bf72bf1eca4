import numpy as np
import pytest
from hypothesis import example, given

from roadcost.graph import (
    WEEKDAY,
    WEEKEND,
    CostVector,
    RoadGraph,
    TagSchedule,
    build_dual,
    peak_offpeak_schedule,
)
from roadcost.trips import LinkRecord, Trip, TripSet, build_q, record_tag_weights, trip_cost

from conftest import multigraph_edges


def _path_graph(n_edges, n_tags):
    schedule = TagSchedule(
        tags=tuple(f"T{k}" for k in range(n_tags)),
        rules=tuple((WEEKDAY, 1440.0 * k / n_tags, 1440.0 * (k + 1) / n_tags, k)
                    for k in range(n_tags)) + ((WEEKEND, 0.0, 1440.0, 0),),
    )
    vertices = [f"v{i}" for i in range(n_edges + 1)]
    edges = list(zip(vertices, vertices[1:]))
    return RoadGraph.from_edges(vertices, edges, [10.0] * n_edges, schedule)


def _entry_row(graph, edge, tag):
    """The row of Q, so the cost-vector position, that a one-minute record on
    ``edge`` inside tag ``tag``'s first weekday interval charges."""
    start, _ = graph.tag_schedule.intervals_of(tag, WEEKDAY)[0]
    trips = TripSet((Trip((LinkRecord(edge, WEEKDAY, start, start + 1.0),), 1.0),))
    (row,) = build_q(trips, graph).nonzero()[0]
    return int(row)


def _tag_at(schedule, day, minute):
    """The one tag a one-minute record starting at ``minute`` lies in."""
    ((tag, weight),) = record_tag_weights(LinkRecord(0, day, minute, minute + 1.0), schedule)
    assert weight == 1.0
    return tag


class TestFlatIndex:
    """The flat cost-vector layout, tag block by tag block, as Q's rows use it."""

    def test_first_and_last(self):
        g = _path_graph(4, 2)
        assert _entry_row(g, 0, 0) == 0
        assert _entry_row(g, 3, 1) == 7

    def test_interior(self):
        # layout [e0t0, e1t0, e2t0, e3t0, e0t1, e1t1, e2t1, e3t1]
        assert _entry_row(_path_graph(4, 2), 2, 1) == 6

    def test_bijection(self):
        g = _path_graph(5, 3)
        images = {_entry_row(g, i, k) for i in range(5) for k in range(3)}
        assert images == set(range(g.n_entries))


class TestTagSchedule:
    def test_weekday_peak_lookup(self, table_schedule):
        tags = table_schedule.tags
        assert tags[_tag_at(table_schedule, WEEKDAY, 7 * 60 + 30)] == "PEAK"
        assert tags[_tag_at(table_schedule, WEEKDAY, 12 * 60)] == "OFFPEAK"
        assert tags[_tag_at(table_schedule, WEEKEND, 23 * 60 + 59)] == "WEEKENDS"

    def test_totality_over_both_day_classes(self, table_schedule):
        for day in (WEEKDAY, WEEKEND):
            for minute in range(1440):
                tag = _tag_at(table_schedule, day, float(minute))
                assert 0 <= tag < table_schedule.n_tags

    def test_inverse_lookup(self, table_schedule):
        peak = table_schedule.tags.index("PEAK")
        assert table_schedule.intervals_of(peak, WEEKDAY) == [(420.0, 480.0), (900.0, 1020.0)]
        assert table_schedule.intervals_of(peak, WEEKEND) == []

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            TagSchedule(
                tags=("A", "B"),
                rules=(
                    (WEEKDAY, 0.0, 400.0, 0),
                    (WEEKDAY, 420.0, 1440.0, 1),
                    (WEEKEND, 0.0, 1440.0, 0),
                ),
            )

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            TagSchedule(
                tags=("A", "B"),
                rules=(
                    (WEEKDAY, 0.0, 500.0, 0),
                    (WEEKDAY, 400.0, 1440.0, 1),
                    (WEEKEND, 0.0, 1440.0, 0),
                ),
            )

    def test_missing_day_class_rejected(self):
        with pytest.raises(ValueError, match="no schedule rules"):
            TagSchedule(tags=("A",), rules=((WEEKDAY, 0.0, 1440.0, 0),))

    def test_truncated_day_rejected(self):
        with pytest.raises(ValueError):
            TagSchedule(
                tags=("A",),
                rules=((WEEKDAY, 0.0, 1000.0, 0), (WEEKEND, 0.0, 1440.0, 0)),
            )


class TestRoadGraph:
    def test_basic_dimensions(self, junction_graph):
        assert junction_graph.n_vertices == 4
        assert junction_graph.n_edges == 5
        assert junction_graph.n_tags == 2
        assert junction_graph.n_entries == 10

    def test_entry_index_layout(self, junction_graph):
        g = junction_graph
        assert _entry_row(g, 0, 0) == 0
        assert _entry_row(g, 4, 0) == 4
        assert _entry_row(g, 0, 1) == 5

    def test_self_loop_rejected(self, two_tag_schedule):
        with pytest.raises(ValueError, match="self-loop"):
            RoadGraph.from_edges(["A"], [("A", "A")], [10.0], two_tag_schedule)

    def test_unknown_vertex_rejected(self, two_tag_schedule):
        with pytest.raises(ValueError, match="unknown vertices"):
            RoadGraph.from_edges(["A"], [("A", "B")], [10.0], two_tag_schedule)

    def test_non_positive_length_rejected(self, two_tag_schedule):
        with pytest.raises(ValueError, match="length"):
            RoadGraph.from_edges(["A", "B"], [("A", "B")], [0.0], two_tag_schedule)

    @pytest.mark.parametrize(
        "lengths, limits, message",
        [
            ([np.inf, 10.0], None, "edge lengths must be positive and finite"),
            ([10.0, 10.0], [np.inf, 50.0], "speed limits must be positive and finite"),
        ],
    )
    def test_infinite_length_or_limit_rejected(self, two_tag_schedule, lengths, limits, message):
        # the rule load_network states: save_network would write "inf", which
        # no load accepts, and an infinite limit would mean zero travel time
        with pytest.raises(ValueError, match=message):
            RoadGraph.from_edges(
                ["A", "B"], [("A", "B"), ("B", "A")], lengths, two_tag_schedule,
                speed_limits=limits,
            )

    def test_parallel_edges_allowed(self, two_tag_schedule):
        g = RoadGraph.from_edges(
            ["A", "B"], [("A", "B"), ("A", "B")], [10.0, 12.0], two_tag_schedule
        )
        assert g.n_edges == 2

    def test_immutable_arrays(self, junction_graph):
        with pytest.raises(ValueError):
            junction_graph.lengths[0] = 5.0

    def test_highway_mask(self, two_tag_schedule):
        g = RoadGraph.from_edges(
            ["A", "B", "C"],
            [("A", "B"), ("B", "C"), ("C", "A")],
            [10.0, 10.0, 10.0],
            two_tag_schedule,
            speed_limits=[89.9, 90.0, None],  # 90 km/h and above is highway
        )
        assert g.is_highway().tolist() == [False, True, False]


class TestCostVector:
    def test_dimension_contract(self):
        with pytest.raises(ValueError, match="values"):
            CostVector(np.zeros(7), n_edges=4, n_tags=2)

    def test_entry_accessor(self):
        cv = CostVector(np.arange(8, dtype=float), n_edges=4, n_tags=2)
        g = _path_graph(4, 2)
        start, _ = g.tag_schedule.intervals_of(1, WEEKDAY)[0]
        trip = Trip((LinkRecord(2, WEEKDAY, start, start + 1.0),), 0.0)
        assert trip_cost(trip, g, cv) == 6.0 * g.lengths[2]  # edge 2 in tag 1


def _reverse_flags(dual):
    """The u-turn flag of every dual edge, by (source, target) dual vertex."""
    pairs = zip(dual.edge_src.tolist(), dual.edge_dst.tolist())
    return dict(zip(pairs, dual.reverse_mask.tolist()))


class TestBuildDual:
    def test_worked_example(self, junction_graph):
        dual = build_dual(junction_graph)
        # dual edge (CB, BA) exists
        assert (3, 1) in _reverse_flags(dual)

    def test_dual_edge_set(self, junction_graph):
        dual = build_dual(junction_graph)
        edges = set(zip(dual.edge_src.tolist(), dual.edge_dst.tolist()))
        # AB=0, BA=1, BC=2, CB=3, BD=4
        assert edges == {
            (0, 1), (0, 2), (0, 4),
            (1, 0),
            (2, 3),
            (3, 1), (3, 2), (3, 4),
        }

    def test_single_edge_graph(self, two_tag_schedule):
        g = RoadGraph.from_edges(["A", "B"], [("A", "B")], [10.0], two_tag_schedule)
        dual = build_dual(g)
        assert dual.n_vertices == 1
        assert dual.n_edges == 0

    def test_consecutiveness_invariant(self, junction_graph):
        g = junction_graph
        dual = build_dual(g)
        for u, v in zip(dual.edge_src, dual.edge_dst):
            assert g.heads[u] == g.tails[v]
        # completeness: every consecutive pair appears
        flags = _reverse_flags(dual)
        for u in range(g.n_edges):
            for v in range(g.n_edges):
                expected = g.heads[u] == g.tails[v]
                assert ((u, v) in flags) == expected

    def test_reverse_pairs_marked_both_orders(self, junction_graph):
        flags = _reverse_flags(build_dual(junction_graph))
        # u-turn dual edges are kept, and marked in both orders
        for u, v in ((0, 1), (1, 0), (2, 3), (3, 2)):  # AB / BA, BC / CB
            assert flags[u, v]
        assert not flags[0, 2]

    def test_u_turn_dual_edges_included(self, junction_graph):
        assert (0, 1) in _reverse_flags(build_dual(junction_graph))  # AB -> BA

    def test_deterministic(self, junction_graph):
        d1 = build_dual(junction_graph)
        d2 = build_dual(junction_graph)
        assert np.array_equal(d1.edge_src, d2.edge_src)
        assert np.array_equal(d1.edge_dst, d2.edge_dst)

    def test_degrees(self, junction_graph):
        dual = build_dual(junction_graph)
        assert dual.out_degrees().tolist() == [3, 1, 1, 3, 0]  # BD is a dead end
        assert dual.in_degrees().tolist() == [1, 2, 2, 1, 2]


def build_dual_loop(graph):
    """The per-edge loop ``build_dual`` used before it was vectorised: the
    successors of edge e are the edges leaving heads[e], in edge order."""
    by_tail = [[] for _ in range(graph.n_vertices)]
    for e in range(graph.n_edges):
        by_tail[graph.tails[e]].append(e)
    src, dst, indptr = [], [], [0]
    for e in range(graph.n_edges):
        successors = by_tail[graph.heads[e]]
        src += [e] * len(successors)
        dst += successors
        indptr.append(len(src))
    rank = [by_tail[graph.tails[e]].index(e) for e in range(graph.n_edges)]
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    reverse = graph.heads[dst] == graph.tails[src]
    return src, dst, np.array(indptr, dtype=np.int64), reverse, np.array(rank, dtype=np.int64)


@given(multigraph_edges())
@example((3, []))  # no edges
@example((4, [(0, 1), (0, 1), (1, 0), (1, 2), (1, 2), (3, 1)]))  # parallel, sink 2, source 3
def test_build_dual_matches_the_loop(shape):
    n, edges = shape
    vertices = [f"v{i}" for i in range(n)]
    graph = RoadGraph.from_edges(
        vertices,
        [(vertices[t], vertices[h]) for t, h in edges],
        [1.0] * len(edges),
        peak_offpeak_schedule(),
    )
    dual = build_dual(graph)
    names = ("edge_src", "edge_dst", "out_indptr", "reverse_mask", "tail_rank")
    for name, expected in zip(names, build_dual_loop(graph)):
        got = getattr(dual, name)
        assert got.dtype == (bool if name == "reverse_mask" else np.int64), name
        assert np.array_equal(got, expected), name


def test_default_schedule_is_valid():
    schedule = peak_offpeak_schedule()
    assert schedule.tags == ("OFFPEAK", "PEAK", "WEEKENDS")
    assert record_tag_weights(LinkRecord(0, WEEKDAY, 419.0, 419.9), schedule) == [(0, 1.0)]
    assert _tag_at(schedule, WEEKDAY, 420.0) == 1
