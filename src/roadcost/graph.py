"""Temporal road-network model: primal graph, tag schedule, cost vector, dual graph.

The road network is a directed graph whose edges carry a length and an
optional speed limit. A tag schedule partitions the day (separately for
weekdays and weekends) into traffic-category tags; the unknowns of the whole
pipeline are one cost-per-meter value per (edge, tag) pair, kept in a flat
cost vector laid out tag-block by tag-block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

WEEKDAY = "weekday"
WEEKEND = "weekend"
DAY_CLASSES = (WEEKDAY, WEEKEND)

MINUTES_PER_DAY = 1440.0

HIGHWAY_CUTOFF_KMH = 90.0


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TagSchedule:
    """Mapping from (day class, minute of day) to a traffic-category tag.

    ``rules`` holds half-open minute intervals ``(day_class, start, end,
    tag_index)``. For each day class the intervals must partition
    [0, 1440) exactly: no overlap, no gap.
    """

    tags: tuple[str, ...]
    rules: tuple[tuple[str, float, float, int], ...]

    def __post_init__(self):
        if not self.tags:
            raise ValueError("schedule needs at least one tag")
        if len(set(self.tags)) != len(self.tags):
            raise ValueError("duplicate tag names")
        for day in DAY_CLASSES:
            day_rules = sorted(r for r in self.rules if r[0] == day)
            if not day_rules:
                raise ValueError(f"no schedule rules for day class {day!r}")
            cursor = 0.0
            for _, start, end, tag in day_rules:
                if not 0 <= tag < len(self.tags):
                    raise ValueError(f"rule tag index {tag} out of range")
                if start != cursor:
                    raise ValueError(
                        f"{day} rules do not partition the day: "
                        f"expected interval starting at {cursor}, got {start}"
                    )
                if end <= start:
                    raise ValueError(f"empty rule interval [{start}, {end})")
                cursor = end
            if cursor != MINUTES_PER_DAY:
                raise ValueError(f"{day} rules stop at minute {cursor}, not {MINUTES_PER_DAY}")
        unknown = {r[0] for r in self.rules} - set(DAY_CLASSES)
        if unknown:
            raise ValueError(f"unknown day class(es) {sorted(unknown)}")

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    def day_rules(self, day_class: str) -> list[tuple[float, float, int]]:
        """Sorted (start, end, tag_index) intervals for one day class."""
        return sorted((s, e, t) for d, s, e, t in self.rules if d == day_class)

    def intervals_of(self, tag_index: int, day_class: str) -> list[tuple[float, float]]:
        """Inverse lookup: the intervals of one day class mapped to a tag."""
        return [(s, e) for s, e, t in self.day_rules(day_class) if t == tag_index]


def peak_offpeak_schedule() -> TagSchedule:
    """Default schedule: weekday morning/afternoon peaks, one weekend tag.

    Weekdays: [7:00, 8:00) and [15:00, 17:00) are PEAK, the rest OFFPEAK.
    Weekends carry the single WEEKENDS tag all day.
    """
    tags = ("OFFPEAK", "PEAK", "WEEKENDS")
    rules = (
        (WEEKDAY, 0.0, 420.0, 0),
        (WEEKDAY, 420.0, 480.0, 1),
        (WEEKDAY, 480.0, 900.0, 0),
        (WEEKDAY, 900.0, 1020.0, 1),
        (WEEKDAY, 1020.0, 1440.0, 0),
        (WEEKEND, 0.0, 1440.0, 2),
    )
    return TagSchedule(tags=tags, rules=rules)


@dataclass(frozen=True)
class RoadGraph:
    """Directed primal road graph with per-edge lengths and a tag schedule.

    Edge order is canonical: edge index ``i`` is used by every downstream
    structure (cost vector entries, dual vertices, trip records).
    Self-loop edges are rejected; parallel edges are allowed and keep
    distinct indices.
    """

    vertex_ids: tuple[str, ...]
    edge_ids: tuple[str, ...]
    tails: np.ndarray
    heads: np.ndarray
    lengths: np.ndarray
    speed_limits: np.ndarray  # km/h, NaN where unknown
    tag_schedule: TagSchedule

    def __post_init__(self):
        nv, ne = len(self.vertex_ids), len(self.edge_ids)
        if len(set(self.vertex_ids)) != nv:
            raise ValueError("duplicate vertex ids")
        if len(set(self.edge_ids)) != ne:
            raise ValueError("duplicate edge ids")
        for name in ("tails", "heads", "lengths", "speed_limits"):
            arr = getattr(self, name)
            if arr.shape != (ne,):
                raise ValueError(f"{name} must have one entry per edge")
        if ne and (self.tails.min() < 0 or self.tails.max() >= nv
                   or self.heads.min() < 0 or self.heads.max() >= nv):
            raise ValueError("edge endpoint refers to a missing vertex")
        if np.any(self.tails == self.heads):
            bad = int(np.nonzero(self.tails == self.heads)[0][0])
            raise ValueError(f"self-loop edge {self.edge_ids[bad]!r} is not allowed")
        if not np.all((self.lengths > 0) & (self.lengths < np.inf)):
            raise ValueError("edge lengths must be positive and finite")
        with np.errstate(invalid="ignore"):
            if np.any((self.speed_limits <= 0) | (self.speed_limits == np.inf)):
                raise ValueError("speed limits must be positive and finite where present")
        for name in ("tails", "heads", "lengths", "speed_limits"):
            _freeze(getattr(self, name))

    @classmethod
    def from_edges(
        cls,
        vertices: Sequence[str],
        edges: Sequence[tuple[str, str]],
        lengths: Sequence[float],
        schedule: TagSchedule,
        speed_limits: Optional[Sequence[Optional[float]]] = None,
    ) -> "RoadGraph":
        """Build a graph from vertex/edge id lists, preserving edge order; edge
        i is named ``e{i}``."""
        vertex_ids = tuple(str(v) for v in vertices)
        index = {v: i for i, v in enumerate(vertex_ids)}
        missing = [f"{t}->{h}" for t, h in edges if t not in index or h not in index]
        if missing:
            raise ValueError(f"edges reference unknown vertices: {missing[:5]}")
        tails = np.array([index[t] for t, _ in edges], dtype=np.int64)
        heads = np.array([index[h] for _, h in edges], dtype=np.int64)
        if speed_limits is None:
            sl = np.full(len(edges), np.nan)
        else:
            sl = np.array([np.nan if s is None else float(s) for s in speed_limits])
        return cls(
            vertex_ids=vertex_ids,
            edge_ids=tuple(f"e{i}" for i in range(len(edges))),
            tails=tails,
            heads=heads,
            lengths=np.asarray(lengths, dtype=float).copy(),
            speed_limits=sl,
            tag_schedule=schedule,
        )

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def n_tags(self) -> int:
        return self.tag_schedule.n_tags

    @property
    def n_entries(self) -> int:
        return self.n_edges * self.n_tags

    def is_highway(self) -> np.ndarray:
        """Per-edge highway mask, the one highway/urban split: speed limit at or
        above ``HIGHWAY_CUTOFF_KMH``. Edges without a known limit count as urban."""
        with np.errstate(invalid="ignore"):
            return np.nan_to_num(self.speed_limits, nan=0.0) >= HIGHWAY_CUTOFF_KMH


@dataclass(frozen=True)
class CostVector:
    """Flat vector of per-(edge, tag) unit costs (cost per meter)."""

    values: np.ndarray
    n_edges: int
    n_tags: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.n_edges * self.n_tags,):
            raise ValueError(
                f"cost vector has {self.values.shape} values, "
                f"expected ({self.n_edges * self.n_tags},)"
            )

    def matches(self, graph: RoadGraph) -> bool:
        return self.n_edges == graph.n_edges and self.n_tags == graph.n_tags


@dataclass(frozen=True)
class DualGraph:
    """Line-graph view of the road network.

    One dual vertex per primal edge (same index). A dual edge (u, v) exists
    exactly when the primal edge of u ends where the primal edge of v
    starts, i.e. the two road segments can be traversed consecutively.
    U-turn dual edges (a segment followed by its own reverse) are included;
    B (``adjacency_pattern``, ``build_b``) and the synthetic walks drop them
    through ``reverse_mask``.

    The dual edges out of u are the primal edges leaving heads[u], ascending
    by index, and ``tail_rank`` holds each primal edge's rank among the
    edges leaving its tail. So the dual edge (u, v), when heads[u] ==
    tails[v], is number ``out_indptr[u] + tail_rank[v]``: found by index,
    with no search.
    """

    graph: RoadGraph
    edge_src: np.ndarray
    edge_dst: np.ndarray
    out_indptr: np.ndarray
    reverse_mask: np.ndarray
    tail_rank: np.ndarray

    def __post_init__(self):
        for name in ("edge_src", "edge_dst", "out_indptr", "reverse_mask", "tail_rank"):
            _freeze(getattr(self, name))

    @property
    def n_vertices(self) -> int:
        return self.graph.n_edges

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    @cached_property
    def chain_pattern(self):
        """The ``pagerank.ChainPattern`` every tag's transition chain on this
        dual shares: Laplace smoothing gives each chain the dual's pattern."""
        from .pagerank import ChainPattern  # pagerank imports this module

        return ChainPattern(self.out_indptr, self.edge_dst)

    @cached_property
    def adjacency_pattern(self):
        """The ``solver.AdjacencyPattern`` every L_B on this dual fills: B
        keeps the same dual edges for every trip set, and Laplace smoothing
        gives each a positive probability, so the graph's highway split and
        tag count alone fix L_B's structure and B's components."""
        from .solver import AdjacencyPattern  # solver imports this module

        return AdjacencyPattern(self, self.graph.is_highway(), self.graph.n_tags)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_dst, minlength=self.n_vertices)


def build_dual(graph: RoadGraph) -> DualGraph:
    """Construct the dual graph of a primal road graph.

    Deterministic for a given edge ordering: dual edges are sorted by
    (source, target) dual-vertex index.
    """
    # the successors of edge e are the edges leaving heads[e]: one group of
    # the stable sort by tail, so ascending by edge index
    by_tail = np.argsort(graph.tails, kind="stable")
    tail_ptr = np.zeros(graph.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph.tails, minlength=graph.n_vertices), out=tail_ptr[1:])
    first = tail_ptr[graph.heads]
    out_deg = tail_ptr[graph.heads + 1] - first
    indptr = np.zeros(graph.n_edges + 1, dtype=np.int64)
    np.cumsum(out_deg, out=indptr[1:])

    src = np.repeat(np.arange(graph.n_edges, dtype=np.int64), out_deg)
    dst = by_tail[np.repeat(first - indptr[:-1], out_deg) + np.arange(indptr[-1])]
    rank = np.empty(graph.n_edges, dtype=np.int64)
    rank[by_tail] = np.arange(graph.n_edges) - tail_ptr[graph.tails[by_tail]]
    return DualGraph(
        graph=graph,
        edge_src=src,
        edge_dst=dst,
        out_indptr=indptr,
        reverse_mask=graph.heads[dst] == graph.tails[src],
        tail_rank=rank,
    )
