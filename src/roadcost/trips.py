"""Trips as timed link-record sequences, and the additive trip-cost model.

A link record is one traversal of one edge with enter/exit times given as
(day class, minute of day). A trip is an ordered record sequence paired with
one scalar total cost. The cost model splits each record across the tags its
time span overlaps, proportionally to overlap length, and charges each part
at the per-meter cost of its (edge, tag) entry.

Q, trip costs and per-tag trip durations are all derived from one columnar
record table per trip set (``TripSet.table``), split into record x tag parts
once per schedule: ``TripSet.tag_parts`` keeps the split, read-only, for
every later call on the same trip set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .graph import DAY_CLASSES, MINUTES_PER_DAY, CostVector, RoadGraph, TagSchedule, _freeze


@dataclass(frozen=True, slots=True)
class LinkRecord:
    """One traversal of one edge; times are minutes of day, same day class.

    Records never span midnight: split such traversals upstream before
    ingestion.
    """

    edge: int
    day_class: str
    enter: float
    exit: float

    def __post_init__(self):
        if self.day_class not in DAY_CLASSES:
            raise ValueError(f"unknown day class {self.day_class!r}")
        if not 0 <= self.enter < self.exit <= MINUTES_PER_DAY:
            raise ValueError(
                f"record times must satisfy 0 <= enter < exit <= 1440, "
                f"got [{self.enter}, {self.exit}]"
            )


@dataclass(frozen=True, slots=True)
class Trip:
    """Ordered link records plus the trip's total ground-truth cost."""

    records: tuple[LinkRecord, ...]
    cost: float

    def __post_init__(self):
        if not self.records:
            raise ValueError("trip has no link records")
        if not 0 <= self.cost < math.inf:
            raise ValueError(f"trip cost must be non-negative and finite, got {self.cost}")
        day = self.records[0].day_class
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.day_class != day:
                raise ValueError("trip crosses midnight (mixed day classes)")
            if cur.enter < prev.exit:
                raise ValueError(
                    f"records out of order: exit {prev.exit} after enter {cur.enter}"
                )


class TagParts(NamedTuple):
    """Every (record, tag) pair of positive overlap, ordered by record, then tag."""

    trip: np.ndarray  # int32: index of the record's trip in its TripSet
    edge: np.ndarray  # int32
    tag: np.ndarray  # int32
    minutes: np.ndarray  # overlap of the record's time span with the tag
    weight: np.ndarray  # minutes / record duration


class RecordTable(NamedTuple):
    """Link records as columns; row i is one record, ordered trip by trip."""

    trip: np.ndarray  # index of the record's trip in its TripSet
    edge: np.ndarray
    day: np.ndarray  # index into DAY_CLASSES
    enter: np.ndarray
    exit: np.ndarray


def positional_ids(n: int) -> np.ndarray:
    """Trip ids by position (``t00000``, ``t00001``, ...), for trips made in memory."""
    return np.array([f"t{k:05d}" for k in range(n)], dtype=object)


class TripSet:
    """A bag of trips that all reference the same road graph, held as columns.

    The record table, the cost column and the id column are the whole
    state, with one derived cache: ``tag_parts`` splits the table into
    record x tag parts once per schedule and keeps the split for the trip
    set's lifetime (``subset`` results start without one). Iterating or
    indexing builds ``Trip`` objects from the columns; none is kept.
    ``TripSet(trips)`` takes validated ``Trip`` objects and names them by
    position; ``TripSet.from_table`` takes columns checked elsewhere (the
    CSV loader, ``subset``, the synthetic generator).
    """

    __slots__ = ("table", "_costs", "_ids", "_parts")

    def __init__(self, trips: Iterable[Trip] = ()):
        trips = tuple(trips)
        records = [rec for trip in trips for rec in trip.records]
        day_index = {day: i for i, day in enumerate(DAY_CLASSES)}
        table = RecordTable(
            np.repeat(np.arange(len(trips)), [len(t.records) for t in trips]),
            np.array([rec.edge for rec in records], dtype=np.int64),
            np.array([day_index[rec.day_class] for rec in records], dtype=np.int8),
            np.array([rec.enter for rec in records], dtype=float),
            np.array([rec.exit for rec in records], dtype=float),
        )
        self._init(table, [t.cost for t in trips], positional_ids(len(trips)))

    @classmethod
    def from_table(cls, table: RecordTable, costs: np.ndarray, ids: np.ndarray) -> "TripSet":
        """A trip set over already-checked columns.

        Row i of ``table`` is a record of trip ``table.trip[i]``; trips are
        numbered 0..len(costs)-1, each has at least one record, and its
        records are contiguous and in order, as the ``Trip`` checks require.
        """
        trips = cls.__new__(cls)
        trips._init(table, costs, ids)
        return trips

    def _init(self, table: RecordTable, costs: np.ndarray, ids: np.ndarray) -> None:
        self.table = RecordTable(*(_freeze(np.asarray(column)) for column in table))
        self._costs = _freeze(np.asarray(costs, dtype=float))
        self._ids = _freeze(np.asarray(ids, dtype=object))
        self._parts: dict[TagSchedule, TagParts] = {}

    def __len__(self) -> int:
        return len(self._costs)

    def __repr__(self) -> str:
        return f"TripSet({len(self)} trips, {len(self.table.trip)} records)"

    def __iter__(self):
        t = self.table
        days = [DAY_CLASSES[d] for d in t.day.tolist()]
        records = list(map(LinkRecord, t.edge.tolist(), days, t.enter.tolist(), t.exit.tolist()))
        ends = np.cumsum(np.bincount(t.trip, minlength=len(self))).tolist()
        for start, end, cost in zip([0, *ends], ends, self._costs.tolist()):
            yield Trip(tuple(records[start:end]), cost)

    def __getitem__(self, i: int) -> Trip:
        (trip,) = self.subset([range(len(self))[i]])  # IndexError when out of range
        return trip

    def costs(self) -> np.ndarray:
        """Total cost of every trip, in order (read-only)."""
        return self._costs

    def ids(self) -> np.ndarray:
        """Id of every trip, in order (read-only)."""
        return self._ids

    def tag_parts(self, schedule: TagSchedule) -> TagParts:
        """The table's record x tag parts under ``schedule``, split once (read-only)."""
        parts = self._parts.get(schedule)
        if parts is None:
            parts = TagParts(*map(_freeze, _tag_parts(self.table, schedule)))
            self._parts[schedule] = parts
        return parts

    def subset(self, indices) -> "TripSet":
        """The trips at ``indices``, in that order, sliced from the columns."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        t = self.table
        counts = np.bincount(t.trip, minlength=len(self))
        starts = np.cumsum(counts) - counts
        sizes = counts[indices]
        offsets = np.cumsum(sizes) - sizes  # first row of each picked trip in the subset
        rows = np.repeat(starts[indices] - offsets, sizes) + np.arange(sizes.sum())
        trip = np.repeat(np.arange(len(indices)), sizes)
        table = RecordTable(trip, t.edge[rows], t.day[rows], t.enter[rows], t.exit[rows])
        return TripSet.from_table(table, self._costs[indices], self._ids[indices])

    def validate_against(self, graph: RoadGraph) -> None:
        edge = self.table.edge
        bad = np.flatnonzero((edge < 0) | (edge >= graph.n_edges))
        if len(bad):
            first = bad[0]
            raise ValueError(
                f"trip {int(self.table.trip[first])} references unknown edge index "
                f"{int(edge[first])}"
            )


def _tag_parts(table: RecordTable, schedule: TagSchedule) -> TagParts:
    """The table's record x tag parts under ``schedule`` (see TagParts)."""
    minutes = np.zeros((len(table.edge), schedule.n_tags))
    for d, day in enumerate(DAY_CLASSES):
        for start, end, tag in schedule.day_rules(day):
            overlap = np.minimum(table.exit, end) - np.maximum(table.enter, start)
            minutes[:, tag] += np.where((table.day == d) & (overlap > 0), overlap, 0.0)
    rec, tag = np.nonzero(minutes)
    minutes = minutes[rec, tag]
    weight = minutes / (table.exit[rec] - table.enter[rec])
    trip, edge = table.trip[rec].astype(np.int32), table.edge[rec].astype(np.int32)
    return TagParts(trip, edge, tag.astype(np.int32), minutes, weight)


def record_tag_weights(record: LinkRecord, schedule: TagSchedule) -> list[tuple[int, float]]:
    """Nonzero (tag, weight) overlap fractions of one record.

    The weight of a tag is the length of the record's time span lying inside
    that tag's intervals, divided by the record duration; the weights over
    all tags sum to 1 because the intervals partition the day.
    """
    _, _, tags, _, weights = _tag_parts(TripSet((Trip((record,), 0.0),)).table, schedule)
    return [(int(tag), float(weight)) for tag, weight in zip(tags, weights)]


def tag_weight(record: LinkRecord, tag_index: int, schedule: TagSchedule) -> float:
    """Fraction of the record's time span spent inside one tag's intervals."""
    return dict(record_tag_weights(record, schedule)).get(tag_index, 0.0)


def build_q(trips: TripSet, graph: RoadGraph) -> sp.csr_matrix:
    """Design matrix Q (n_entries x n_trips); column k encodes trip k.

    The (edge, tag) entry of a column is edge length times the record's tag
    overlap weight, accumulated over every traversal the trip makes, so that
    (Q^T d)[k] equals the trip-cost model applied to trip k.
    """
    trip, edge, tag, _, weight = trips.tag_parts(graph.tag_schedule)
    return sp.csr_matrix(
        (graph.lengths[edge] * weight, (tag * np.int64(graph.n_edges) + edge, trip)),
        shape=(graph.n_entries, len(trips)),
    )


def trip_costs(trips: TripSet, graph: RoadGraph, costs: CostVector) -> np.ndarray:
    """Estimated cost of every trip, Q^T d, summed part by part in record order."""
    if not costs.matches(graph):
        raise ValueError(
            f"cost vector dimensions ({costs.n_edges} edges, {costs.n_tags} tags) "
            f"do not match graph ({graph.n_edges}, {graph.n_tags})"
        )
    trip, edge, tag, _, weight = trips.tag_parts(graph.tag_schedule)
    charged = weight * costs.values[tag * np.int64(graph.n_edges) + edge] * graph.lengths[edge]
    return np.bincount(trip, weights=charged, minlength=len(trips))


def trip_cost(trip: Trip, graph: RoadGraph, costs: CostVector) -> float:
    """Estimated trip cost under a cost vector: sum over records and tags of
    overlap weight x per-meter cost x edge length."""
    return float(trip_costs(TripSet((trip,)), graph, costs)[0])


def partition_by_tag(trips: TripSet, schedule: TagSchedule) -> list[TripSet]:
    """Split a trip set into one subset per tag.

    A trip lands in the tag that holds the majority of its total traversal
    duration; ties break toward the lower tag index, so every trip lands in
    exactly one partition.
    """
    trip, _, tag, minutes, _ = trips.tag_parts(schedule)
    per_tag = np.zeros((len(trips), schedule.n_tags))
    np.add.at(per_tag, (trip, tag), minutes)
    labels = per_tag.argmax(axis=1)
    return [trips.subset(np.flatnonzero(labels == k)) for k in range(schedule.n_tags)]


def check_split(train_fraction: float, seed: int) -> None:
    """Reject the settings ``split_trips`` cannot use, before any data is read."""
    if not 0 < train_fraction < 1:
        raise ValueError(f"train fraction must be in (0, 1), got {train_fraction}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def split_trips(trips: TripSet, train_fraction: float, seed: int) -> tuple[TripSet, TripSet]:
    """Deterministic random train/test split.

    The train side gets round(train_fraction * N) trips, clamped so both
    sides stay non-empty.
    """
    check_split(train_fraction, seed)
    n = len(trips)
    if n < 2:
        raise ValueError(f"cannot split {n} trip(s)")
    n_train = int(math.floor(train_fraction * n + 0.5))
    n_train = min(max(n_train, 1), n - 1)
    order = np.random.default_rng(seed).permutation(n)
    return trips.subset(order[:n_train]), trips.subset(order[n_train:])
