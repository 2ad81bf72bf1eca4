"""Synthetic grid networks and trips with known ground-truth weights.

Real trip datasets with ground truth are rarely shareable, so experiments
and tests run on generated grids: bidirectional rectangular road grids,
per-(edge, tag) ground-truth unit costs, and trips that walk the dual graph
(``build_dual``, no u-turns), written as one record table whose costs come
from the trip-cost model itself (plus optional multiplicative noise).
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
    build_dual,
)
from .trips import RecordTable, TripSet, trip_costs

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


def _walk(onward: list[list[int]], start: int, n: int, rng: np.random.Generator) -> list[int]:
    """Random walk of up to ``n`` edges, each drawn from the last one's ``onward`` list."""
    walk = [start]
    for _ in range(n - 1):
        options = onward[walk[-1]]
        if not options:
            break
        walk.append(options[rng.integers(len(options))])
    return walk


def _clock(graph: RoadGraph, walk: list[int], rng: np.random.Generator) -> list[int]:
    """Second of day a walk enters each edge, then leaves the last, driven at
    random speeds from a random start that ends it within the day."""
    speeds = rng.uniform(25.0, 65.0, size=len(walk))
    durations = np.maximum(1, np.rint(3.6 * graph.lengths[walk] / speeds)).astype(np.int64)
    total = int(durations.sum())
    if total > _SECONDS_PER_DAY:
        raise GenerationError(f"a walk of {len(walk)} edges takes {total} s, more than a day")
    start = int(rng.integers(0, max(1, _SECONDS_PER_DAY - total)))
    return [start, *(start + np.cumsum(durations)).tolist()]


def _entry_topups(
    graph: RoadGraph, noise: float, first_trip: int, rng: np.random.Generator
) -> tuple[RecordTable, np.ndarray]:
    """One single-record trip per (edge, tag) entry, tag by tag, numbered
    from ``first_trip``, and their noise factors.

    Walks alone can leave entries collinear (e.g. a boundary-straddling
    record observed only once pins a combination of two entries, not each);
    a singleton observation per entry makes every cost variable
    identifiable.
    """
    schedule, n = graph.tag_schedule, graph.n_edges
    days, enters, exits, factors = [], [], [], []
    for tag in range(graph.n_tags):
        scheduled = [d for d, name in enumerate(DAY_CLASSES) if schedule.intervals_of(tag, name)]
        if not scheduled:
            raise GenerationError(f"tag {schedule.tags[tag]!r} has no schedule interval")
        start, end = schedule.intervals_of(tag, DAY_CLASSES[scheduled[0]])[0]
        mid = (start + end) / 2.0
        days.append(scheduled[0])
        enters.append(mid)
        exits.append(mid + min(1.0, (end - start) / 4.0))
        z = rng.standard_normal(n) if noise else np.zeros(n)
        factors.append(np.maximum(0.05, 1.0 + noise * z))
    table = RecordTable(
        first_trip + np.arange(graph.n_entries),
        np.tile(np.arange(n), graph.n_tags),
        np.repeat(np.array(days, dtype=np.int8), n),
        np.repeat(enters, n),
        np.repeat(exits, n),
    )
    return table, np.concatenate(factors)


def generate_synthetic(
    spec: SyntheticSpec, seed: int
) -> tuple[RoadGraph, CostVector, TripSet]:
    """Generate (graph, ground-truth weights, trips) for one spec and seed.

    Trips are random walks over the dual graph (``build_dual``), timed at
    random speeds, and written straight into a record table. Their costs are
    the trip-cost model evaluated on the ground truth, times multiplicative
    noise when requested. Raises GenerationError when the coverage target
    cannot be met after bounded retries.
    """
    for attempt in range(3):
        rng = np.random.default_rng([seed, attempt])
        graph = _grid_graph(spec, rng)
        truth = _draw_truth(spec, graph, rng)
        # each edge's dual-graph successors but its u-turn, in ascending edge index
        dual = build_dual(graph)
        ptr, dst = dual.out_indptr.tolist(), dual.edge_dst.tolist()
        keep = (~dual.reverse_mask).tolist()
        onward = [[v for v, k in zip(dst[a:b], keep[a:b]) if k] for a, b in zip(ptr, ptr[1:])]
        covered = np.zeros(graph.n_edges, dtype=bool)
        n_covered = 0  # covered.sum(), kept as walks add edges
        walks, clocks, factors = [], [], []
        for _ in range(spec.n_trips):
            if spec.coverage is not None and n_covered / graph.n_edges < spec.coverage:
                start = int(rng.choice(np.nonzero(~covered)[0]))
            else:
                start = int(rng.integers(graph.n_edges))
            n = int(rng.integers(spec.trip_len[0], spec.trip_len[1] + 1))
            walk = _walk(onward, start, n, rng)
            walks.append(walk)
            clocks.append(_clock(graph, walk, rng))
            z = rng.standard_normal() if spec.noise else 0.0
            factors.append(max(0.05, 1.0 + spec.noise * z))
            n_covered += len({e for e in walk if not covered[e]})
            covered[walk] = True
        edges = [e for walk in walks for e in walk]
        table = RecordTable(
            np.repeat(np.arange(len(walks)), [len(walk) for walk in walks]),
            np.array(edges, dtype=np.int64),
            np.full(len(edges), DAY_CLASSES.index(spec.day_class), dtype=np.int8),
            np.array([t for clock in clocks for t in clock[:-1]], dtype=np.int64) / 60.0,
            np.array([t for clock in clocks for t in clock[1:]], dtype=np.int64) / 60.0,
        )
        if spec.cover_all_entries:
            topups, topup_factors = _entry_topups(graph, spec.noise, len(walks), rng)
            table = RecordTable(*map(np.concatenate, zip(table, topups)))
            factors = np.concatenate([factors, topup_factors])
        if (
            spec.n_trips == 0
            or spec.coverage is None
            or n_covered / graph.n_edges >= spec.coverage - 1e-12
            or spec.cover_all_entries
        ):
            priced = trip_costs(TripSet.from_table(table, np.zeros(len(factors))), graph, truth)
            return graph, truth, TripSet.from_table(table, priced * factors)
    raise GenerationError(
        f"could not reach edge coverage {spec.coverage:.2f} with "
        f"{spec.n_trips} trips of length {spec.trip_len} (got {n_covered / graph.n_edges:.2f})"
    )
