"""Synthetic grid networks and trips with known ground-truth weights.

Real trip datasets with ground truth are rarely shareable, so experiments
and tests run on generated grids: bidirectional rectangular road grids,
per-(edge, tag) ground-truth unit costs, and trips that walk the dual graph
(``build_dual``, no u-turns), written as one record table whose costs come
from the trip-cost model itself (plus optional multiplicative noise).

Stream contract: a dataset is a function of (spec, seed) through the order
of its draws from one ``Generator`` per attempt, ``default_rng([seed,
attempt])``. The draws, in order, are:

1. road lengths: one ``uniform(lo, hi, size=n_roads)``; with speed limits,
   per road (row by row, the rightward road before the downward one) a
   ``uniform(lo, hi)`` and then an ``integers(len(choices))`` limit index;
2. ground truth: one ``uniform(lo, hi, size=n_edges)`` per tag, none when
   it comes from the speed limits;
3. per trip: the start edge (``choice`` of the uncovered edges while the
   coverage target is unmet, else ``integers(n_edges)``), the length
   ``integers(lo, hi + 1)``, one ``integers(k)`` per walk step with k > 1
   onward options, the speeds ``uniform(25, 65, size=len(walk))``, the start
   second ``integers(0, max(1, 86400 - total))`` and, with noise, one
   ``standard_normal()``;
4. entry top-ups, with noise: one ``standard_normal(n_edges)`` per tag.

Changing this order changes every dataset; the pinned digests in the tests
catch it. Two rewrites keep the stream: a sized ``uniform`` yields the
doubles of as many scalar calls, and numpy draws a bounded integer by
Lemire's method, so ``integers(k)`` takes one 32-bit word per try (as does
``choice`` of k items) and ``integers(1)`` takes none, which is why
single-option walk steps make no call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from numbers import Integral
from typing import Optional

import numpy as np
from numpy.random import default_rng

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
from .trips import RecordTable, TripSet, positional_ids, trip_costs

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
        counts = dict(rows=self.rows, cols=self.cols, n_trips=self.n_trips)
        counts.update(zip(("trip_len[0]", "trip_len[1]"), self.trip_len))
        for name, value in counts.items():
            if not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.rows < 2 or self.cols < 2:
            raise ValueError("grid needs at least 2x2 junctions")
        if not self.tags:
            raise ValueError("need at least one tag")
        if len(self.weight_ranges) != len(self.tags):
            raise ValueError("need one weight range per tag")
        for lo, hi in self.weight_ranges:
            if not 0 < lo <= hi < inf:
                raise ValueError(f"bad weight range ({lo}, {hi})")
        if self.n_trips < 0:
            raise ValueError("trip count must be non-negative")
        if not 1 <= self.trip_len[0] <= self.trip_len[1]:
            raise ValueError("bad trip length bounds")
        if not 0 <= self.noise < inf:
            raise ValueError(f"noise level {self.noise} not non-negative and finite")
        if self.coverage is not None and not 0 < self.coverage <= 1:
            raise ValueError("coverage target must be in (0, 1]")
        lo, hi = self.length_range
        if not 0 < lo <= hi < inf:
            raise ValueError(f"bad length range ({lo}, {hi})")
        for limit in self.speed_limit_choices or ():
            if not 0 < limit < inf:
                raise ValueError(f"speed limit {limit} not positive and finite")
        if self.truth_from_speed_limits and not self.speed_limit_choices:
            raise ValueError("speed-limit ground truth needs speed_limit_choices")
        if self.day_class not in DAY_CLASSES:
            raise ValueError(f"unknown day class {self.day_class!r}")


def equal_split_schedule(tags: tuple[str, ...]) -> TagSchedule:
    """Weekday split evenly across the tags, each boundary rounded to a whole
    minute (exact when the tag count divides 1440); weekends all map to the
    first tag."""
    n = len(tags)
    bounds = [float(round(MINUTES_PER_DAY * i / n)) for i in range(n + 1)]
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
    choices = spec.speed_limit_choices
    if choices:
        drawn = [
            (rng.uniform(*spec.length_range), choices[rng.integers(len(choices))])
            for _ in roads
        ]
        lengths = [length for length, _ in drawn]
        limits = [limit for _, limit in drawn for _ in (0, 1)]
    else:
        lengths = rng.uniform(*spec.length_range, size=len(roads))
        limits = None
    return RoadGraph.from_edges(
        vertices,
        [edge for a, b in roads for edge in ((a, b), (b, a))],
        np.repeat(lengths, 2),
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
    """Random walk of up to ``n`` edges, each drawn from the last one's
    ``onward`` list; a single option is taken without a draw."""
    walk, edge = [start], start
    for _ in range(n - 1):
        options = onward[edge]
        k = len(options)
        if k > 1:
            edge = options[rng.integers(k)]
        elif k:
            edge = options[0]
        else:
            break
        walk.append(edge)
    return walk


def _drive(scaled: list[float], walk: list[int], rng: np.random.Generator) -> tuple[list[int], int]:
    """Whole seconds a walk spends on each edge at random speeds, and a
    random start second that ends it within the day.

    ``scaled`` is ``3.6 * lengths``; each edge takes ``scaled / speed``
    seconds rounded half to even and at least one (``round`` is never
    negative here, so ``or 1`` is ``max(1, .)``), the float operations and
    rounding of ``np.maximum(1, np.rint(3.6 * lengths / speeds))``.
    """
    speeds = rng.uniform(25.0, 65.0, size=len(walk)).tolist()
    seconds = [round(scaled[e] / s) or 1 for e, s in zip(walk, speeds)]
    total = sum(seconds)
    if total > _SECONDS_PER_DAY:
        raise GenerationError(f"a walk of {len(walk)} edges takes {total} s, more than a day")
    return seconds, int(rng.integers(0, max(1, _SECONDS_PER_DAY - total)))


def _clock_minutes(
    seconds: list[int], starts: list[int], sizes: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Minute of day each record is entered and left, for walks of ``sizes``
    records back to back in ``seconds`` that start at ``starts``."""
    seconds = np.array(seconds, dtype=np.int64)
    sizes = np.array(sizes, dtype=np.int64)
    leave = np.cumsum(seconds)
    enter = leave - seconds  # seconds before each record, over all walks
    shift = np.repeat(np.array(starts, dtype=np.int64) - enter[np.cumsum(sizes) - sizes], sizes)
    return (enter + shift) / 60.0, (leave + shift) / 60.0


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
    lo, hi = spec.trip_len
    for attempt in range(3):
        rng = default_rng([seed, attempt])
        graph = _grid_graph(spec, rng)
        truth = _draw_truth(spec, graph, rng)
        # each edge's dual-graph successors but its u-turn, in ascending edge index
        dual = build_dual(graph)
        kept = ~dual.reverse_mask
        # each edge's first position among the kept dual edges
        ptr = np.r_[0, np.cumsum(kept)][dual.out_indptr].tolist()
        dst = dual.edge_dst[kept].tolist()
        onward = [dst[a:b] for a, b in zip(ptr, ptr[1:])]
        scaled, n_edges = (3.6 * graph.lengths).tolist(), graph.n_edges
        # Coverage is counted only while the target is unmet: once met it stays
        # met, and nothing reads the count again but the final check.
        covered = np.zeros(n_edges, dtype=bool)
        n_covered = 0
        edges, seconds, starts, sizes, factors = [], [], [], [], []
        for _ in range(spec.n_trips):
            steering = spec.coverage is not None and n_covered / n_edges < spec.coverage
            if steering:
                start = int(rng.choice(np.nonzero(~covered)[0]))
            else:
                start = int(rng.integers(n_edges))
            walk = _walk(onward, start, int(rng.integers(lo, hi + 1)), rng)
            walk_seconds, start_second = _drive(scaled, walk, rng)
            edges += walk
            seconds += walk_seconds
            starts.append(start_second)
            sizes.append(len(walk))
            z = rng.standard_normal() if spec.noise else 0.0
            factors.append(max(0.05, 1.0 + spec.noise * z))
            if steering:
                covered[walk] = True
                n_covered = int(np.count_nonzero(covered))
        enter, leave = _clock_minutes(seconds, starts, sizes)
        table = RecordTable(
            np.repeat(np.arange(len(sizes)), sizes),
            np.array(edges, dtype=np.int64),
            np.full(len(edges), DAY_CLASSES.index(spec.day_class), dtype=np.int8),
            enter,
            leave,
        )
        if spec.cover_all_entries:
            topups, topup_factors = _entry_topups(graph, spec.noise, spec.n_trips, rng)
            table = RecordTable(*map(np.concatenate, zip(table, topups)))
            factors = np.concatenate([factors, topup_factors])
        if (
            spec.n_trips == 0
            or spec.coverage is None
            or n_covered / n_edges >= spec.coverage - 1e-12
            or spec.cover_all_entries
        ):
            ids = positional_ids(len(factors))
            priced = trip_costs(TripSet.from_table(table, np.zeros(len(ids)), ids), graph, truth)
            return graph, truth, TripSet.from_table(table, priced * factors, ids)
    raise GenerationError(
        f"could not reach edge coverage {spec.coverage:.2f} with "
        f"{spec.n_trips} trips of length {spec.trip_len} (got {n_covered / graph.n_edges:.2f})"
    )
