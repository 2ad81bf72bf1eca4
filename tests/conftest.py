"""Shared fixtures: small schedules, the worked-example graph, trip builders."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

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


@pytest.fixture
def splu_calls(monkeypatch) -> list[str]:
    """The permc_spec of every preconditioner factorization, in call order."""
    specs, factor = [], solver.splu

    def recording(matrix, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return factor(matrix, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(solver, "splu", recording)
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
