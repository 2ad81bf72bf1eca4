"""The record-table trip-cost model against plain per-record loops.

The loops below are the reference: they walk every record and every
schedule rule in Python, exactly as the model is defined. The library
derives the same quantities from one columnar record table per trip set.
"""

from dataclasses import replace

import numpy as np
import pytest

from roadcost.graph import WEEKDAY, WEEKEND, CostVector, build_dual, peak_offpeak_schedule
from roadcost.pagerank import dual_weights
from roadcost.solver import build_q
from roadcost.synth import SyntheticSpec, generate_synthetic
from roadcost.trips import (
    LinkRecord,
    Trip,
    TripSet,
    partition_by_tag,
    record_tag_weights,
    trip_cost,
    trip_costs,
)

from conftest import make_trip, tripset

RTOL = 1e-12


# ---------------------------------------------------------------- reference loops


def overlap_weights_loop(record, schedule):
    acc = {}
    for start, end, tag in schedule.day_rules(record.day_class):
        overlap = min(record.exit, end) - max(record.enter, start)
        if overlap > 0:
            acc[tag] = acc.get(tag, 0.0) + overlap
    return [(tag, total / (record.exit - record.enter)) for tag, total in sorted(acc.items())]


def q_loop(trips, graph):
    ne = graph.n_edges
    q = np.zeros((graph.n_entries, len(trips)))
    for k, trip in enumerate(trips):
        for rec in trip.records:
            for tag, weight in overlap_weights_loop(rec, graph.tag_schedule):
                q[tag * ne + rec.edge, k] += graph.lengths[rec.edge] * weight
    return q


def trip_cost_loop(trip, graph, costs):
    total = 0.0
    for rec in trip.records:
        for tag, weight in overlap_weights_loop(rec, graph.tag_schedule):
            total += weight * costs.values[tag * graph.n_edges + rec.edge] * graph.lengths[rec.edge]
    return total


def majority_labels_loop(trips, schedule):
    labels = []
    for trip in trips:
        per_tag = np.zeros(schedule.n_tags)
        for rec in trip.records:
            for tag, weight in overlap_weights_loop(rec, schedule):
                per_tag[tag] += weight * (rec.exit - rec.enter)
        labels.append(int(np.argmax(per_tag)))
    return labels


def dual_counts_loop(dual, trips):
    position = {
        (int(u), int(v)): k for k, (u, v) in enumerate(zip(dual.edge_src, dual.edge_dst))
    }
    counts = np.zeros(dual.n_edges)
    for trip in trips:
        for prev, cur in zip(trip.records, trip.records[1:]):
            k = position.get((prev.edge, cur.edge))
            if k is not None:
                counts[k] += 1.0
    return counts


# ---------------------------------------------------------------- comparison


def labels_of(partitions, trips):
    label = {trip: k for k, part in enumerate(partitions) for trip in part}
    return [label[trip] for trip in trips]


def assert_model_matches_loops(trips, graph):
    schedule = graph.tag_schedule
    for trip in trips:
        for rec in trip.records:
            got = record_tag_weights(rec, schedule)
            want = overlap_weights_loop(rec, schedule)
            assert [t for t, _ in got] == [t for t, _ in want]
            np.testing.assert_allclose([w for _, w in got], [w for _, w in want], rtol=RTOL)
            assert all(w > 0 for _, w in got)

    q = build_q(trips, graph)
    np.testing.assert_allclose(q.toarray(), q_loop(trips, graph), rtol=RTOL, atol=0)

    costs = CostVector(
        np.random.default_rng(3).uniform(0.01, 1.0, graph.n_entries), graph.n_edges, graph.n_tags
    )
    expected = [trip_cost_loop(t, graph, costs) for t in trips]
    np.testing.assert_allclose(trip_costs(trips, graph, costs), expected, rtol=RTOL)
    np.testing.assert_allclose(q.T @ costs.values, expected, rtol=RTOL)
    for trip, want in zip(trips, expected):
        assert trip_cost(trip, graph, costs) == pytest.approx(want, rel=RTOL)

    partitions = partition_by_tag(trips, schedule)
    assert labels_of(partitions, trips) == majority_labels_loop(trips, schedule)

    dual = build_dual(graph)
    counts = dual_counts_loop(dual, trips)
    m = dual_weights(dual, trips)
    row_totals = np.bincount(dual.edge_src, weights=counts, minlength=dual.n_vertices)
    denom = (row_totals + dual.out_degrees())[dual.edge_src]
    np.testing.assert_array_equal(m.edge_probs, (counts + 1.0) / denom)


@pytest.mark.parametrize(
    "spec, seed",
    [
        (SyntheticSpec(rows=6, cols=6, n_trips=150, trip_len=(3, 12), noise=0.05), 4),
        (SyntheticSpec(rows=5, cols=5, n_trips=60, day_class=WEEKEND), 2),
        (SyntheticSpec(rows=4, cols=4, n_trips=30, tags=("A", "B", "C"),
                       weight_ranges=((0.01, 0.1),) * 3, cover_all_entries=True), 9),
    ],
)
def test_synthetic_trips(spec, seed):
    graph, _, trips = generate_synthetic(spec, seed)
    assert_model_matches_loops(trips, graph)


def test_synthetic_trips_under_two_peak_schedule():
    spec = SyntheticSpec(rows=6, cols=6, n_trips=200, trip_len=(10, 30))
    graph, _, trips = generate_synthetic(spec, seed=5)
    graph = replace(graph, tag_schedule=peak_offpeak_schedule())
    assert_model_matches_loops(trips, graph)


def test_hand_made_cases(junction_graph):
    # junction graph: AB=0, BA=1, BC=2, CB=3, BD=4
    graph = replace(junction_graph, tag_schedule=peak_offpeak_schedule())
    r = LinkRecord
    trips = tripset(
        # straddles 7:00, then spans PEAK, OFFPEAK and the second PEAK interval
        Trip((r(0, WEEKDAY, 410.0, 425.0), r(2, WEEKDAY, 470.0, 910.0)), 1.0),
        # ends exactly on 7:00, starts exactly on 7:00, ends exactly on 8:00
        Trip((r(0, WEEKDAY, 400.0, 420.0), r(1, WEEKDAY, 420.0, 430.0),
              r(0, WEEKDAY, 430.0, 480.0)), 1.0),
        # AB then CB: consecutive records with no dual edge between them
        Trip((r(0, WEEKDAY, 100.0, 101.0), r(3, WEEKDAY, 101.0, 102.0)), 1.0),
        # weekend records only ever carry the weekend tag
        Trip((r(3, WEEKEND, 1000.0, 1003.5), r(4, WEEKEND, 1003.5, 1010.0)), 1.0),
        # equal PEAK and OFFPEAK minutes: the tie goes to the lower tag
        make_trip([0], start=410.0, step=20.0),
    )
    assert_model_matches_loops(trips, graph)
    assert record_tag_weights(trips[1].records[0], graph.tag_schedule) == [(0, 1.0)]
    assert record_tag_weights(trips[1].records[2], graph.tag_schedule) == [(1, 1.0)]
    assert [len(p) for p in partition_by_tag(trips, graph.tag_schedule)] == [3, 1, 1]


def test_same_edge_twice_accumulates(junction_graph):
    trip = make_trip([0, 1, 0], start=600.0)  # AB, BA, AB: both u-turns counted
    trips = tripset(trip)
    assert_model_matches_loops(trips, junction_graph)
    q = build_q(trips, junction_graph)
    assert q[0, 0] == 2 * junction_graph.lengths[0]
    dual = build_dual(junction_graph)
    m = dual_weights(dual, trips)
    pairs = list(zip(dual.edge_src.tolist(), dual.edge_dst.tolist()))
    k01, k10 = pairs.index((0, 1)), pairs.index((1, 0))
    # AB has 3 successors and one observed turn, BA has 1 and one
    assert m.edge_probs[k01] == 2 / 4 and m.edge_probs[k10] == 2 / 2


def test_record_table_is_cached_and_read_only(junction_graph):
    trips = tripset(make_trip([0, 2]), make_trip([4], day=WEEKEND))
    table = trips.table
    assert trips.table is table
    assert table.trip.tolist() == [0, 0, 1]
    assert table.edge.tolist() == [0, 2, 4]
    assert table.day.tolist() == [0, 0, 1]
    for column in table:
        assert not column.flags.writeable


def test_empty_trip_set(junction_graph):
    trips = TripSet(())
    assert build_q(trips, junction_graph).shape == (junction_graph.n_entries, 0)
    assert [len(p) for p in partition_by_tag(trips, junction_graph.tag_schedule)] == [0, 0]
