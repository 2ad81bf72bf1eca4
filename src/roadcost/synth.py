"""Synthetic grid networks and trips with known ground-truth weights.

Real trip datasets with ground truth are rarely shareable, so experiments
and tests run on generated grids: bidirectional rectangular road grids,
per-(edge, tag) ground-truth unit costs, and random-walk trips whose costs
come from the trip-cost model itself (plus optional multiplicative noise).
Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GenerationError
from .graph import (
    DAY_CLASSES,
    MINUTES_PER_DAY,
    WEEKDAY,
    WEEKEND,
    CostVector,
    RoadGraph,
    TagSchedule,
)
from .trips import LinkRecord, Trip, TripSet, trip_costs

_SECONDS_PER_DAY = 86_400


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic dataset.

    ``coverage`` steers random-walk start edges toward uncovered edges until
    that fraction of edges has been touched (generation fails if the target
    stays unreachable). ``cover_all_entries`` additionally appends one
    single-record trip for every (edge, tag) entry the walks missed, which
    makes every cost variable identifiable from the data.
    """

    rows: int = 10
    cols: int = 10
    tags: tuple[str, ...] = ("OFFPEAK", "PEAK")
    weight_ranges: tuple[tuple[float, float], ...] = ((0.04, 0.10), (0.08, 0.20))
    n_trips: int = 200
    trip_len: tuple[int, int] = (4, 12)
    coverage: Optional[float] = None
    noise: float = 0.0
    length_range: tuple[float, float] = (50.0, 200.0)
    speed_limit_choices: Optional[tuple[float, ...]] = None
    truth_from_speed_limits: bool = False
    day_class: str = WEEKDAY
    cover_all_entries: bool = False

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("grid needs at least 2x2 junctions")
        if len(self.weight_ranges) != len(self.tags):
            raise ValueError("need one weight range per tag")
        for lo, hi in self.weight_ranges:
            if not 0 < lo <= hi:
                raise ValueError(f"bad weight range ({lo}, {hi})")
        if self.n_trips < 0:
            raise ValueError("trip count must be non-negative")
        if not 1 <= self.trip_len[0] <= self.trip_len[1]:
            raise ValueError("bad trip length bounds")
        if self.noise < 0:
            raise ValueError("noise level must be non-negative")
        if self.coverage is not None and not 0 < self.coverage <= 1:
            raise ValueError("coverage target must be in (0, 1]")
        if self.truth_from_speed_limits and not self.speed_limit_choices:
            raise ValueError("speed-limit ground truth needs speed_limit_choices")
        if self.day_class not in DAY_CLASSES:
            raise ValueError(f"unknown day class {self.day_class!r}")


def equal_split_schedule(tags: tuple[str, ...]) -> TagSchedule:
    """Weekday split evenly across the tags; weekends all map to the first tag."""
    n = len(tags)
    bounds = [MINUTES_PER_DAY * i / n for i in range(n + 1)]
    rules = [(WEEKDAY, bounds[i], bounds[i + 1], i) for i in range(n)]
    rules.append((WEEKEND, 0.0, MINUTES_PER_DAY, 0))
    return TagSchedule(tags=tags, rules=tuple(rules))


def _grid_graph(spec: SyntheticSpec, rng: np.random.Generator) -> RoadGraph:
    vertices = [f"v{r}_{c}" for r in range(spec.rows) for c in range(spec.cols)]
    roads = []
    for r in range(spec.rows):
        for c in range(spec.cols):
            if c + 1 < spec.cols:
                roads.append((f"v{r}_{c}", f"v{r}_{c + 1}"))
            if r + 1 < spec.rows:
                roads.append((f"v{r}_{c}", f"v{r + 1}_{c}"))
    edges, lengths, limits = [], [], []
    for a, b in roads:
        length = rng.uniform(*spec.length_range)
        limit = (
            float(rng.choice(spec.speed_limit_choices))
            if spec.speed_limit_choices
            else None
        )
        for tail, head in ((a, b), (b, a)):
            edges.append((tail, head))
            lengths.append(length)
            limits.append(limit)
    return RoadGraph.from_edges(
        vertices,
        edges,
        lengths,
        equal_split_schedule(spec.tags),
        speed_limits=limits,
    )


def _draw_truth(spec: SyntheticSpec, graph: RoadGraph, rng: np.random.Generator) -> CostVector:
    if spec.truth_from_speed_limits:
        per_edge = 3.6 / graph.speed_limits  # seconds per meter at the limit
        values = np.tile(per_edge, graph.n_tags)
    else:
        values = np.concatenate(
            [rng.uniform(lo, hi, size=graph.n_edges) for lo, hi in spec.weight_ranges]
        )
    return CostVector(values, graph.n_edges, graph.n_tags)


def _walk_edges(
    graph: RoadGraph,
    successors: list[np.ndarray],
    start: int,
    n_edges: int,
    rng: np.random.Generator,
) -> list[int]:
    """Random walk over consecutive edges, refusing immediate u-turns."""
    walk = [start]
    current = start
    for _ in range(n_edges - 1):
        options = successors[graph.heads[current]]
        options = options[
            ~(
                (graph.tails[options] == graph.heads[current])
                & (graph.heads[options] == graph.tails[current])
            )
        ]
        if len(options) == 0:
            break
        current = int(rng.choice(options))
        walk.append(current)
    return walk


def _make_trip(
    graph: RoadGraph,
    edge_walk: list[int],
    day_class: str,
    noise: float,
    rng: np.random.Generator,
) -> tuple[tuple[LinkRecord, ...], float]:
    """Timed records of one walk and the noise factor of its cost."""
    durations = []
    for e in edge_walk:
        speed_kmh = rng.uniform(25.0, 65.0)
        durations.append(max(1, int(round(3.6 * graph.lengths[e] / speed_kmh))))
    total = sum(durations)
    start_s = int(rng.integers(0, max(1, _SECONDS_PER_DAY - total)))
    records = []
    t = start_s
    for e, dur in zip(edge_walk, durations):
        records.append(
            LinkRecord(edge=e, day_class=day_class, enter=t / 60.0, exit=(t + dur) / 60.0)
        )
        t += dur
    factor = max(0.05, 1.0 + noise * rng.standard_normal()) if noise else 1.0
    return tuple(records), factor


def _entry_topup_trips(
    graph: RoadGraph,
    noise: float,
    rng: np.random.Generator,
) -> list[tuple[tuple[LinkRecord, ...], float]]:
    """One single-record trip per (edge, tag) entry.

    Walks alone can leave entries collinear (e.g. a boundary-straddling
    record observed only once pins a combination of two entries, not each);
    a singleton observation per entry makes every cost variable
    identifiable.
    """
    schedule = graph.tag_schedule
    trips = []
    for tag in range(graph.n_tags):
        day, interval = None, None
        for candidate in DAY_CLASSES:
            intervals = schedule.intervals_of(tag, candidate)
            if intervals:
                day, interval = candidate, intervals[0]
                break
        if interval is None:
            raise GenerationError(f"tag {schedule.tags[tag]!r} has no schedule interval")
        start, end = interval
        mid = (start + end) / 2.0
        dur = min(1.0, (end - start) / 4.0)
        for edge in range(graph.n_edges):
            record = LinkRecord(edge=edge, day_class=day, enter=mid, exit=mid + dur)
            factor = max(0.05, 1.0 + noise * rng.standard_normal()) if noise else 1.0
            trips.append(((record,), factor))
    return trips


def generate_synthetic(
    spec: SyntheticSpec, seed: int
) -> tuple[RoadGraph, CostVector, TripSet]:
    """Generate (graph, ground-truth weights, trips) for one spec and seed.

    Trip costs are the trip-cost model evaluated on the ground truth, times
    multiplicative noise when requested. Raises GenerationError when the
    coverage target cannot be met after bounded retries.
    """
    for attempt in range(3):
        rng = np.random.default_rng([seed, attempt])
        graph = _grid_graph(spec, rng)
        truth = _draw_truth(spec, graph, rng)
        successors: list[np.ndarray] = [
            np.nonzero(graph.tails == v)[0] for v in range(graph.n_vertices)
        ]
        covered = np.zeros(graph.n_edges, dtype=bool)
        trips: list[tuple[tuple[LinkRecord, ...], float]] = []
        for _ in range(spec.n_trips):
            if spec.coverage is not None and covered.mean() < spec.coverage:
                start = int(rng.choice(np.nonzero(~covered)[0]))
            else:
                start = int(rng.integers(graph.n_edges))
            n = int(rng.integers(spec.trip_len[0], spec.trip_len[1] + 1))
            walk = _walk_edges(graph, successors, start, n, rng)
            trips.append(_make_trip(graph, walk, spec.day_class, spec.noise, rng))
            covered[walk] = True
        if spec.cover_all_entries:
            trips.extend(_entry_topup_trips(graph, spec.noise, rng))
        if (
            spec.n_trips == 0
            or spec.coverage is None
            or covered.mean() >= spec.coverage - 1e-12
            or spec.cover_all_entries
        ):
            drafts = TripSet(tuple(Trip(records, 0.0) for records, _ in trips))
            base = trip_costs(drafts, graph, truth)
            priced = (Trip(r, float(c * f)) for (r, f), c in zip(trips, base))
            return graph, truth, TripSet(tuple(priced))
    raise GenerationError(
        f"could not reach edge coverage {spec.coverage:.2f} with "
        f"{spec.n_trips} trips of length {spec.trip_len} (got {covered.mean():.2f})"
    )
