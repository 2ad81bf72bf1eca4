"""Shared fixtures: small schedules, the worked-example graph, trip builders."""

from __future__ import annotations

import importlib
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import roadcost.solver as solver
import roadcost.synth as synth
from roadcost.graph import WEEKDAY, WEEKEND, RoadGraph, TagSchedule, peak_offpeak_schedule
from roadcost.trips import LinkRecord, Trip, TripSet


@pytest.fixture
def table_schedule() -> TagSchedule:
    """Weekday peaks 7-8 and 15-17, single weekend tag."""
    return peak_offpeak_schedule()


@pytest.fixture
def two_tag_schedule() -> TagSchedule:
    """Morning-peak style schedule: OFFPEAK except weekday [7:00, 9:00)."""
    return TagSchedule(
        tags=("OFFPEAK", "PEAK"),
        rules=(
            (WEEKDAY, 0.0, 420.0, 0),
            (WEEKDAY, 420.0, 540.0, 1),
            (WEEKDAY, 540.0, 1440.0, 0),
            (WEEKEND, 0.0, 1440.0, 0),
        ),
    )


@pytest.fixture
def single_tag_schedule() -> TagSchedule:
    return TagSchedule(
        tags=("ALL",),
        rules=((WEEKDAY, 0.0, 1440.0, 0), (WEEKEND, 0.0, 1440.0, 0)),
    )


@pytest.fixture
def junction_graph(two_tag_schedule) -> RoadGraph:
    """Five directed segments around junction B: AB, BA, BC, CB, BD."""
    return RoadGraph.from_edges(
        ["A", "B", "C", "D"],
        [("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"), ("B", "D")],
        [100.0, 100.0, 120.0, 120.0, 80.0],
        two_tag_schedule,
    )


def _check_shared_options(kwargs: dict) -> None:
    """A factorization passes every one of the package's shared SuperLU options."""
    shared = importlib.import_module("roadcost.pagerank").SPLU_OPTIONS
    assert {name: kwargs.get(name) for name in shared} == shared


@pytest.fixture
def splu_calls(monkeypatch) -> list[str]:
    """The permc_spec of every preconditioner factorization, in call order;
    each call must pass the shared SuperLU options."""
    specs, factor = [], solver.splu

    def recording(matrix, permc_spec=None, **kwargs):
        _check_shared_options(kwargs)
        specs.append(permc_spec)
        return factor(matrix, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(solver, "splu", recording)
    return specs


@pytest.fixture
def pagerank_splu_calls(monkeypatch) -> list[int]:
    """The order of every PageRank factorization, in call order; each call
    must pass the shared SuperLU options."""
    # the package's ``pagerank`` attribute is the function, not the module
    pagerank = importlib.import_module("roadcost.pagerank")
    orders, factor = [], pagerank.splu

    def recording(matrix, *args, **kwargs):
        _check_shared_options(kwargs)
        orders.append(matrix.shape[0])
        return factor(matrix, *args, **kwargs)

    monkeypatch.setattr(pagerank, "splu", recording)
    return orders


@pytest.fixture
def chain_factor_specs(monkeypatch) -> list[str]:
    """The permc_spec of every PageRank factorization, in call order; each
    call must pass the shared SuperLU options."""
    pagerank = importlib.import_module("roadcost.pagerank")
    specs, factor = [], pagerank.splu

    def recording(matrix, permc_spec=None, **kwargs):
        _check_shared_options(kwargs)
        specs.append(permc_spec)
        return factor(matrix, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(pagerank, "splu", recording)
    return specs


@pytest.fixture
def rng_calls(monkeypatch) -> Counter:
    """Draw calls on the synthetic generator's random generators, by method."""
    counts, make = Counter(), synth.default_rng

    class Counting:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, name):
            draw = getattr(self._rng, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return draw(*args, **kwargs)

            return counted

    monkeypatch.setattr(synth, "default_rng", lambda seed: Counting(make(seed)))
    return counts


@st.composite
def multigraph_edges(draw):
    """A vertex count and (tail, head) pairs: parallel edges, sinks, sources and
    isolated vertices all occur."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=40))
    return n, [(t, (t + k) % n) for t, k in pairs]


def graph_mask(q, a=None, b=None) -> np.ndarray:
    """``solver.annotated_mask`` as it was before it read A's components from
    labels: a graph search over the sum of the active matrices, whose values
    must not cancel. The reference of the label-based mask."""
    seeds = np.asarray(q.getnnz(axis=1) > 0)
    pattern = None
    for m in (a, b):
        if m is not None and m.nnz:
            pattern = m if pattern is None else pattern + m
    if pattern is None or not seeds.any():
        return seeds
    n_labels, labels = connected_components(pattern, directed=False)
    hit = np.zeros(n_labels, dtype=bool)  # components holding a seed
    hit[labels[seeds]] = True
    return hit[labels]


def component_labels(m) -> np.ndarray:
    """A label per entry of a symmetric matrix's connected components: its
    component's least entry, the convention ``solver.annotated_mask`` reads."""
    labels = connected_components(m, directed=False)[1]
    return np.unique(labels, return_index=True)[1][labels]


def attribute_state(obj) -> dict:
    """Each attribute of obj: the object it names and a copy of its contents,
    for arrays, sparse matrices and tuples of them."""

    def contents(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if sp.issparse(value):
            arrays = (value.data, value.indices, value.indptr)
            return value.shape, *map(contents, arrays)
        if isinstance(value, tuple):
            return tuple(map(contents, value))
        return None

    return {name: (value, contents(value)) for name, value in vars(obj).items()}


def changed_attributes(before: dict, obj) -> set[str]:
    """The attributes of obj added, removed, rebound or changed in place since
    its ``attribute_state`` was ``before``."""
    after = attribute_state(obj)
    return {
        name
        for name in before.keys() | after.keys()
        if name not in before
        or name not in after
        or before[name][0] is not after[name][0]
        or before[name][1] != after[name][1]
    }


def make_trip(edge_pairs: list[int], start: float = 600.0, day: str = WEEKDAY,
              cost: float = 1.0, step: float = 1.0) -> Trip:
    """Trip visiting the given edges back to back, one `step`-minute record each."""
    records = []
    t = start
    for e in edge_pairs:
        records.append(LinkRecord(edge=e, day_class=day, enter=t, exit=t + step))
        t += step
    return Trip(tuple(records), cost)


def tripset(*trips: Trip) -> TripSet:
    return TripSet(tuple(trips))


def entry(graph: RoadGraph, edge: int, tag: int) -> int:
    """Flat cost-vector position of (edge, tag): tag block by tag block."""
    return tag * graph.n_edges + edge


def stationary_bruteforce(dense: np.ndarray) -> np.ndarray:
    """Independent stationary-distribution oracle: least-squares solve of
    M^T v = v with sum(v) = 1."""
    n = dense.shape[0]
    lhs = np.vstack([dense.T - np.eye(n), np.ones((1, n))])
    rhs = np.concatenate([np.zeros(n), [1.0]])
    solution, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return solution
