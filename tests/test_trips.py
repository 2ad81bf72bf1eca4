import math

import numpy as np
import pytest

from roadcost import trips as trips_module
from roadcost.graph import WEEKDAY, WEEKEND, CostVector, RoadGraph, TagSchedule
from roadcost.synth import SyntheticSpec, generate_synthetic
from roadcost.trips import (
    LinkRecord,
    Trip,
    TripSet,
    _tag_parts,
    build_q,
    partition_by_tag,
    record_tag_weights,
    split_trips,
    tag_weight,
    trip_cost,
    trip_costs,
)

from conftest import entry, make_trip, tripset


class TestLinkRecordValidation:
    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            LinkRecord(edge=0, day_class=WEEKDAY, enter=410.0, exit=410.0)

    def test_reversed_times_rejected(self):
        with pytest.raises(ValueError):
            LinkRecord(edge=0, day_class=WEEKDAY, enter=420.0, exit=410.0)

    def test_unknown_day_class_rejected(self):
        with pytest.raises(ValueError, match="day class"):
            LinkRecord(edge=0, day_class="holiday", enter=0.0, exit=1.0)

    def test_midnight_overrun_rejected(self):
        with pytest.raises(ValueError):
            LinkRecord(edge=0, day_class=WEEKDAY, enter=1439.0, exit=1441.0)


class TestTripValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no link records"):
            Trip((), 1.0)

    def test_out_of_order_rejected(self):
        r1 = LinkRecord(0, WEEKDAY, 100.0, 105.0)
        r2 = LinkRecord(1, WEEKDAY, 104.0, 110.0)
        with pytest.raises(ValueError, match="out of order"):
            Trip((r1, r2), 1.0)

    def test_mixed_day_classes_rejected(self):
        r1 = LinkRecord(0, WEEKDAY, 100.0, 105.0)
        r2 = LinkRecord(1, WEEKEND, 110.0, 115.0)
        with pytest.raises(ValueError, match="midnight"):
            Trip((r1, r2), 1.0)

    def test_negative_cost_rejected(self):
        r = LinkRecord(0, WEEKDAY, 100.0, 105.0)
        with pytest.raises(ValueError, match="cost"):
            Trip((r,), -1.0)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf")])
    def test_non_finite_cost_rejected(self, cost):
        # the costs loader rejects these too; a NaN cost used to reach the solver
        r = LinkRecord(0, WEEKDAY, 100.0, 105.0)
        with pytest.raises(ValueError, match=f"non-negative and finite, got {cost}"):
            Trip((r,), cost)


class TestTagWeight:
    def test_boundary_straddling_record(self, two_tag_schedule):
        # [6:50, 7:05) against OFFPEAK-before-7:00 / PEAK-after
        rec = LinkRecord(0, WEEKDAY, 410.0, 425.0)
        assert tag_weight(rec, 0, two_tag_schedule) == 10 / 15
        assert tag_weight(rec, 1, two_tag_schedule) == 5 / 15

    def test_fully_contained_record(self, two_tag_schedule):
        rec = LinkRecord(0, WEEKDAY, 430.0, 440.0)
        assert tag_weight(rec, 1, two_tag_schedule) == 1.0
        assert tag_weight(rec, 0, two_tag_schedule) == 0.0

    def test_even_split(self, two_tag_schedule):
        # [6:00, 8:00): one hour on each side of 7:00
        rec = LinkRecord(0, WEEKDAY, 360.0, 480.0)
        assert tag_weight(rec, 0, two_tag_schedule) == 0.5
        assert tag_weight(rec, 1, two_tag_schedule) == 0.5

    def test_weights_sum_to_one(self, table_schedule):
        rng = np.random.default_rng(0)
        for _ in range(300):
            day = WEEKDAY if rng.random() < 0.5 else WEEKEND
            enter = rng.uniform(0, 1439.0)
            exit_ = rng.uniform(enter + 1e-3, 1440.0)
            rec = LinkRecord(0, day, enter, exit_)
            total = sum(w for _, w in record_tag_weights(rec, table_schedule))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestTripCost:
    def test_single_record_single_tag(self, junction_graph):
        d = CostVector(np.zeros(junction_graph.n_entries), 5, 2)
        d.values[entry(junction_graph, 0, 0)] = 0.05
        trip = Trip((LinkRecord(0, WEEKDAY, 100.0, 101.0),), 0.0)
        assert trip_cost(trip, junction_graph, d) == pytest.approx(0.05 * 100.0)

    def test_straddling_record_mixes_tags(self, junction_graph):
        a, b = 0.02, 0.07
        d = CostVector(np.zeros(junction_graph.n_entries), 5, 2)
        d.values[entry(junction_graph, 2, 0)] = a
        d.values[entry(junction_graph, 2, 1)] = b
        trip = Trip((LinkRecord(2, WEEKDAY, 410.0, 425.0),), 0.0)
        length = junction_graph.lengths[2]
        expected = (10 * a + 5 * b) * length / 15
        assert trip_cost(trip, junction_graph, d) == pytest.approx(expected, rel=1e-12)

    def test_zero_costs_give_zero(self, junction_graph):
        d = CostVector(np.zeros(junction_graph.n_entries), 5, 2)
        trip = make_trip([0, 2, 3])
        assert trip_cost(trip, junction_graph, d) == 0.0

    def test_linearity(self, junction_graph):
        rng = np.random.default_rng(1)
        d1 = CostVector(rng.uniform(0, 1, 10), 5, 2)
        d2 = CostVector(rng.uniform(0, 1, 10), 5, 2)
        a, b = 2.5, -0.75
        combo = CostVector(a * d1.values + b * d2.values, 5, 2)
        trip = make_trip([0, 2, 4], start=415.0)
        lhs = trip_cost(trip, junction_graph, combo)
        rhs = a * trip_cost(trip, junction_graph, d1) + b * trip_cost(trip, junction_graph, d2)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_dimension_mismatch_rejected(self, junction_graph):
        wrong = CostVector(np.zeros(6), n_edges=3, n_tags=2)
        trip = make_trip([0])
        with pytest.raises(ValueError, match="do not match"):
            trip_cost(trip, junction_graph, wrong)


class TestPartitionByTag:
    def test_fully_peak_trip(self, two_tag_schedule):
        trip = make_trip([0, 1], start=430.0)
        parts = partition_by_tag(tripset(trip), two_tag_schedule)
        assert len(parts[1]) == 1 and len(parts[0]) == 0

    def test_majority_rule(self, two_tag_schedule):
        # 70% OFFPEAK, 30% PEAK by duration -> OFFPEAK
        records = (
            LinkRecord(0, WEEKDAY, 413.0, 420.0),  # 7 min OFFPEAK
            LinkRecord(1, WEEKDAY, 420.0, 423.0),  # 3 min PEAK
        )
        parts = partition_by_tag(tripset(Trip(records, 1.0)), two_tag_schedule)
        assert len(parts[0]) == 1 and len(parts[1]) == 0

    def test_tie_breaks_to_lower_tag(self, two_tag_schedule):
        records = (LinkRecord(0, WEEKDAY, 415.0, 425.0),)  # 5 min each side
        parts = partition_by_tag(tripset(Trip(records, 1.0)), two_tag_schedule)
        assert len(parts[0]) == 1

    def test_empty_tripset(self, two_tag_schedule):
        parts = partition_by_tag(TripSet(()), two_tag_schedule)
        assert [len(p) for p in parts] == [0, 0]

    def test_partition_is_exhaustive_and_disjoint(self, table_schedule):
        rng = np.random.default_rng(2)
        trips = []
        for _ in range(50):
            day = WEEKDAY if rng.random() < 0.7 else WEEKEND
            start = rng.uniform(0, 1400)
            trips.append(make_trip([0, 1], start=start, day=day, step=rng.uniform(0.5, 10)))
        parts = partition_by_tag(tripset(*trips), table_schedule)
        assert sum(len(p) for p in parts) == len(trips)


def _fresh(trips: TripSet) -> TripSet:
    """The same columns in a trip set that has split nothing yet."""
    return TripSet.from_table(trips.table, trips.costs(), trips.ids())


def _same(got, want) -> bool:
    return got.dtype == want.dtype and np.array_equal(got, want)


class TestTagParts:
    @pytest.fixture
    def synthetic(self):
        spec = SyntheticSpec(rows=6, cols=6, n_trips=200, coverage=0.3, noise=0.05)
        graph, truth, trips = generate_synthetic(spec, seed=3)
        return graph, truth, trips

    @pytest.fixture
    def splits(self, monkeypatch) -> list:
        """The table and schedule of every record x tag split, in call order."""
        calls, split = [], trips_module._tag_parts

        def recording(table, schedule):
            calls.append((table, schedule))
            return split(table, schedule)

        monkeypatch.setattr(trips_module, "_tag_parts", recording)
        return calls

    def test_cached_parts_are_the_uncached_split(self, synthetic):
        graph, _, trips = synthetic
        parts = trips.tag_parts(graph.tag_schedule)
        for got, want in zip(parts, _tag_parts(trips.table, graph.tag_schedule)):
            assert _same(got, want)
        assert parts.trip.dtype == parts.edge.dtype == parts.tag.dtype == np.int32

    def test_consumers_share_one_split_and_match_a_fresh_set(self, synthetic, splits):
        graph, truth, trips = synthetic
        schedule = graph.tag_schedule
        q = build_q(trips, graph)
        estimated = trip_costs(trips, graph, truth)
        partitions = partition_by_tag(trips, schedule)
        assert len(splits) == 1 and splits[0][0] is trips.table
        fresh_q = build_q(_fresh(trips), graph)
        for name in ("data", "indices", "indptr"):
            assert _same(getattr(q, name), getattr(fresh_q, name))
        assert _same(estimated, trip_costs(_fresh(trips), graph, truth))
        fresh_partitions = partition_by_tag(_fresh(trips), schedule)
        for got, want in zip(partitions, fresh_partitions):
            assert _same(got.ids(), want.ids())
        assert len(splits) == 4  # each fresh set split once

    def test_a_second_schedule_gets_its_own_parts(self, synthetic, table_schedule, splits):
        graph, _, trips = synthetic
        first = trips.tag_parts(graph.tag_schedule)
        second = trips.tag_parts(table_schedule)
        assert len(splits) == 2
        for got, want in zip(second, _tag_parts(trips.table, table_schedule)):
            assert _same(got, want)
        assert trips.tag_parts(graph.tag_schedule) is first
        assert trips.tag_parts(table_schedule) is second
        assert len(splits) == 2

    def test_cached_arrays_are_read_only(self, synthetic):
        graph, _, trips = synthetic
        for column in trips.tag_parts(graph.tag_schedule):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]

    def test_a_subset_splits_its_own_table(self, synthetic, splits):
        graph, _, trips = synthetic
        parent = trips.tag_parts(graph.tag_schedule)
        child = trips.subset(np.arange(len(trips)))
        parts = child.tag_parts(graph.tag_schedule)
        assert len(splits) == 2 and splits[1][0] is child.table
        assert all(a is not b for a, b in zip(parts, parent))
        for got, want in zip(parts, parent):
            assert _same(got, want)


class TestSplit:
    def test_half_split(self):
        trips = tripset(*[make_trip([0], cost=i) for i in range(10)])
        train, test = split_trips(trips, 0.5, seed=0)
        assert len(train) == 5 and len(test) == 5

    def test_halves_carry_the_ids(self):
        trips = tripset(*[make_trip([0], cost=i) for i in range(10)])
        for half in split_trips(trips, 0.5, seed=0):
            assert half.ids().tolist() == [f"t{int(cost):05d}" for cost in half.costs()]

    def test_rounding(self):
        trips = tripset(*[make_trip([0], cost=i) for i in range(5)])
        train, test = split_trips(trips, 0.8, seed=0)
        assert len(train) == 4 and len(test) == 1

    def test_deterministic(self):
        trips = tripset(*[make_trip([0], cost=i) for i in range(20)])
        a = split_trips(trips, 0.5, seed=42)
        b = split_trips(trips, 0.5, seed=42)
        assert [t.cost for t in a[0]] == [t.cost for t in b[0]]
        c = split_trips(trips, 0.5, seed=43)
        assert [t.cost for t in a[0]] != [t.cost for t in c[0]]

    def test_disjoint_and_exhaustive(self):
        trips = tripset(*[make_trip([0], cost=i) for i in range(17)])
        train, test = split_trips(trips, 0.3, seed=3)
        costs = sorted([t.cost for t in train] + [t.cost for t in test])
        assert costs == list(range(17))

    def test_too_few_trips(self):
        with pytest.raises(ValueError, match="split"):
            split_trips(tripset(make_trip([0])), 0.5, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_bad_fraction(self, fraction):
        trips = tripset(*[make_trip([0], cost=i) for i in range(4)])
        with pytest.raises(ValueError, match="fraction"):
            split_trips(trips, fraction, seed=0)
