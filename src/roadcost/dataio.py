"""CSV dataset loaders and writers with per-row validation diagnostics.

File formats (UTF-8, comma separated, header row required):

  network:  edge_id,tail,head,length_m,speed_limit_kmh   (speed blank if unknown)
  schedule: day_class,start_hhmm,end_hhmm,tag            (end 24:00 for day end)
  trips:    trip_id,seq,edge_id,day_class,enter_hhmmss,exit_hhmmss
  costs:    trip_id,cost
  weights:  edge_id,tag,cost_per_meter,annotated_flag

Loaders collect every violating row before raising, so one run reports all
problems; writers are deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import LoadError
from .graph import DAY_CLASSES, CostVector, RoadGraph, TagSchedule
from .trips import LinkRecord, Trip, TripSet

_FLOAT_FMT = "%.12g"
# unsigned decimal fields; 24:00 and 24:00:00 (end of day) pass the range checks
_HHMM = re.compile(r"(\d+):([0-5]\d)", re.ASCII)
_HHMMSS = re.compile(r"(\d+):([0-5]\d):([0-5]\d)", re.ASCII)


def parse_hhmm(text: str) -> float:
    match = _HHMM.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"time {text!r} is not hh:mm with minutes 00-59")
    value = int(match[1]) * 60 + int(match[2])
    if value > 1440:
        raise ValueError(f"time {text!r} outside the day")
    return float(value)


def parse_hhmmss(text: str) -> float:
    match = _HHMMSS.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"time {text!r} is not hh:mm:ss with minutes and seconds 00-59")
    total = int(match[1]) * 3600 + int(match[2]) * 60 + int(match[3])
    if total > 86_400:
        raise ValueError(f"time {text!r} outside the day")
    return total / 60.0


def format_hhmm(minute: float) -> str:
    total = int(round(minute))
    if total != minute:
        raise ValueError(f"schedule boundaries must be whole minutes, got {minute}")
    return f"{total // 60:02d}:{total % 60:02d}"


def format_hhmmss(minute: float) -> str:
    total = int(round(minute * 60))
    return f"{total // 3600:02d}:{total % 3600 // 60:02d}:{total % 60:02d}"


def _read_rows(path: Path, expected_header: list[str]) -> Iterable[tuple[int, list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError("malformed-row", [f"{path}:1: empty file"]) from None
        if [h.strip() for h in header] != expected_header:
            raise LoadError(
                "malformed-row",
                [f"{path}:1: expected header {','.join(expected_header)}"],
            )
        for lineno, row in enumerate(reader, start=2):
            if row:
                yield lineno, row


def load_schedule(path: str | Path) -> TagSchedule:
    path = Path(path)
    tags: list[str] = []
    rules = []
    problems = []
    for lineno, row in _read_rows(path, ["day_class", "start_hhmm", "end_hhmm", "tag"]):
        if len(row) != 4:
            problems.append(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            continue
        day, start_text, end_text, tag = (field.strip() for field in row)
        if day not in DAY_CLASSES:
            problems.append(f"{path}:{lineno}: unknown day class {day!r}")
            continue
        try:
            start, end = parse_hhmm(start_text), parse_hhmm(end_text)
        except ValueError as exc:
            problems.append(f"{path}:{lineno}: {exc}")
            continue
        if tag not in tags:
            tags.append(tag)
        rules.append((day, start, end, tags.index(tag)))
    if problems:
        raise LoadError("malformed-row", problems)
    try:
        return TagSchedule(tags=tuple(tags), rules=tuple(rules))
    except ValueError as exc:
        raise LoadError("bad-schedule", [f"{path}: {exc}"]) from exc


def save_schedule(schedule: TagSchedule, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["day_class", "start_hhmm", "end_hhmm", "tag"])
        for day, start, end, tag in schedule.rules:
            writer.writerow([day, format_hhmm(start), format_hhmm(end), schedule.tags[tag]])


def load_network(path: str | Path, schedule: TagSchedule) -> RoadGraph:
    path = Path(path)
    vertices: list[str] = []
    seen = set()
    edge_ids, edges, lengths, limits = [], [], [], []
    problems = []
    for lineno, row in _read_rows(
        path, ["edge_id", "tail", "head", "length_m", "speed_limit_kmh"]
    ):
        if len(row) != 5:
            problems.append(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            continue
        edge_id, tail, head, length_text, limit_text = (field.strip() for field in row)
        try:
            length = float(length_text)
            limit = float(limit_text) if limit_text else None
        except ValueError:
            problems.append(f"{path}:{lineno}: unparseable number")
            continue
        if not 0 < length < math.inf:
            problems.append(f"{path}:{lineno}: length {length_text!r} not positive and finite")
            continue
        if limit is not None and not 0 < limit < math.inf:
            problems.append(f"{path}:{lineno}: speed limit {limit_text!r} not positive and finite")
            continue
        if tail == head:
            problems.append(f"{path}:{lineno}: self-loop edge {edge_id!r}")
            continue
        for v in (tail, head):
            if v not in seen:
                seen.add(v)
                vertices.append(v)
        edge_ids.append(edge_id)
        edges.append((tail, head))
        lengths.append(length)
        limits.append(limit)
    if problems:
        raise LoadError("malformed-row", problems)
    try:
        return RoadGraph.from_edges(
            vertices, edges, lengths, schedule, speed_limits=limits, edge_ids=edge_ids
        )
    except ValueError as exc:
        raise LoadError("malformed-row", [f"{path}: {exc}"]) from exc


def save_network(graph: RoadGraph, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["edge_id", "tail", "head", "length_m", "speed_limit_kmh"])
        for e in range(graph.n_edges):
            limit = graph.speed_limits[e]
            writer.writerow(
                [
                    graph.edge_ids[e],
                    graph.vertex_ids[graph.tails[e]],
                    graph.vertex_ids[graph.heads[e]],
                    _FLOAT_FMT % graph.lengths[e],
                    "" if np.isnan(limit) else _FLOAT_FMT % limit,
                ]
            )


def load_trips(trips_path: str | Path, costs_path: str | Path, graph: RoadGraph) -> TripSet:
    trips_path, costs_path = Path(trips_path), Path(costs_path)
    costs: dict[str, float] = {}
    problems = []
    for lineno, row in _read_rows(costs_path, ["trip_id", "cost"]):
        if len(row) != 2:
            problems.append(f"{costs_path}:{lineno}: expected 2 fields, got {len(row)}")
            continue
        trip_id, cost_text = (field.strip() for field in row)
        try:
            cost = float(cost_text)
        except ValueError:
            problems.append(f"{costs_path}:{lineno}: unparseable cost {cost_text!r}")
            continue
        if not 0 <= cost < math.inf:
            problems.append(f"{costs_path}:{lineno}: cost {cost_text!r} negative or not finite")
            continue
        if trip_id in costs:
            problems.append(f"{costs_path}:{lineno}: duplicate trip id {trip_id!r}")
            continue
        costs[trip_id] = cost
    if problems:
        raise LoadError("malformed-row", problems)

    rows_by_trip: dict[str, list[tuple[int, int, LinkRecord]]] = {}
    order: list[str] = []
    unknown_edges = []
    for lineno, row in _read_rows(
        trips_path,
        ["trip_id", "seq", "edge_id", "day_class", "enter_hhmmss", "exit_hhmmss"],
    ):
        if len(row) != 6:
            problems.append(f"{trips_path}:{lineno}: expected 6 fields, got {len(row)}")
            continue
        trip_id, seq_text, edge_id, day, enter_text, exit_text = (
            field.strip() for field in row
        )
        try:
            seq = int(seq_text)
            enter, exit_ = parse_hhmmss(enter_text), parse_hhmmss(exit_text)
        except ValueError as exc:
            problems.append(f"{trips_path}:{lineno}: {exc}")
            continue
        try:
            edge = graph.edge_index(edge_id)
        except KeyError:
            unknown_edges.append(f"{trips_path}:{lineno}: unknown edge id {edge_id!r}")
            continue
        try:
            record = LinkRecord(edge=edge, day_class=day, enter=enter, exit=exit_)
        except ValueError as exc:
            problems.append(f"{trips_path}:{lineno}: {exc}")
            continue
        if trip_id not in rows_by_trip:
            rows_by_trip[trip_id] = []
            order.append(trip_id)
        rows_by_trip[trip_id].append((seq, lineno, record))
    if problems:
        raise LoadError("malformed-row", problems)
    if unknown_edges:
        raise LoadError("unknown-edge", unknown_edges)

    missing = [t for t in order if t not in costs]
    if missing:
        raise LoadError(
            "missing-cost", [f"{costs_path}: no cost for trip {t!r}" for t in missing]
        )

    trips = []
    bad_trips = []
    for trip_id in order:
        entries = sorted(rows_by_trip[trip_id])
        records = tuple(record for _, _, record in entries)
        try:
            trips.append(Trip(records=records, cost=costs[trip_id]))
        except ValueError as exc:
            bad_trips.append(f"{trips_path}:{entries[0][1]}: trip {trip_id!r}: {exc}")
    if bad_trips:
        raise LoadError("bad-trip", bad_trips)
    return TripSet(tuple(trips))


def save_trips(
    trips: TripSet, graph: RoadGraph, trips_path: str | Path, costs_path: str | Path
) -> None:
    with open(trips_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["trip_id", "seq", "edge_id", "day_class", "enter_hhmmss", "exit_hhmmss"]
        )
        for k, trip in enumerate(trips):
            for seq, rec in enumerate(trip.records):
                writer.writerow(
                    [
                        f"t{k:05d}",
                        seq,
                        graph.edge_ids[rec.edge],
                        rec.day_class,
                        format_hhmmss(rec.enter),
                        format_hhmmss(rec.exit),
                    ]
                )
    with open(costs_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trip_id", "cost"])
        for k, trip in enumerate(trips):
            writer.writerow([f"t{k:05d}", _FLOAT_FMT % trip.cost])


def write_weights(
    path: str | Path,
    graph: RoadGraph,
    costs: CostVector,
    mask: Optional[np.ndarray] = None,
) -> None:
    if not costs.matches(graph):
        raise ValueError("cost vector does not match the graph")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["edge_id", "tag", "cost_per_meter", "annotated_flag"])
        for tag in range(graph.n_tags):
            for edge in range(graph.n_edges):
                flag = 1 if mask is None else int(bool(mask[tag * graph.n_edges + edge]))
                writer.writerow(
                    [
                        graph.edge_ids[edge],
                        graph.tag_schedule.tags[tag],
                        _FLOAT_FMT % costs.entry(edge, tag),
                        flag,
                    ]
                )


def load_weights(path: str | Path, graph: RoadGraph) -> tuple[CostVector, np.ndarray]:
    path = Path(path)
    values = np.zeros(graph.n_entries)
    mask = np.zeros(graph.n_entries, dtype=bool)
    filled = np.zeros(graph.n_entries, dtype=bool)
    tag_index = {t: i for i, t in enumerate(graph.tag_schedule.tags)}
    problems = []
    for lineno, row in _read_rows(path, ["edge_id", "tag", "cost_per_meter", "annotated_flag"]):
        if len(row) != 4:
            problems.append(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            continue
        edge_id, tag_name, value_text, flag_text = (field.strip() for field in row)
        try:
            edge = graph.edge_index(edge_id)
        except KeyError:
            problems.append(f"{path}:{lineno}: unknown edge id {edge_id!r}")
            continue
        if tag_name not in tag_index:
            problems.append(f"{path}:{lineno}: unknown tag {tag_name!r}")
            continue
        try:
            value = float(value_text)
            flag = bool(int(flag_text))
        except ValueError:
            problems.append(f"{path}:{lineno}: unparseable value")
            continue
        pos = tag_index[tag_name] * graph.n_edges + edge
        values[pos] = value
        mask[pos] = flag
        filled[pos] = True
    if problems:
        raise LoadError("malformed-row", problems)
    if not filled.all():
        raise LoadError(
            "malformed-row", [f"{path}: {int((~filled).sum())} (edge, tag) entries missing"]
        )
    return CostVector(values, graph.n_edges, graph.n_tags), mask


def load_dataset(
    network_path: str | Path,
    schedule_path: str | Path,
    trips_path: Optional[str | Path] = None,
    costs_path: Optional[str | Path] = None,
) -> tuple[RoadGraph, TripSet]:
    """Load a full dataset; trips/costs may be omitted for graph-only uses."""
    schedule = load_schedule(schedule_path)
    graph = load_network(network_path, schedule)
    if trips_path is None or costs_path is None:
        return graph, TripSet(())
    return graph, load_trips(trips_path, costs_path, graph)


def save_dataset(
    graph: RoadGraph,
    trips: TripSet,
    out_dir: str | Path,
    truth: Optional[CostVector] = None,
) -> dict[str, Path]:
    """Write a dataset directory; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "network": out / "network.csv",
        "schedule": out / "schedule.csv",
        "trips": out / "trips.csv",
        "costs": out / "costs.csv",
    }
    save_network(graph, paths["network"])
    save_schedule(graph.tag_schedule, paths["schedule"])
    save_trips(trips, graph, paths["trips"], paths["costs"])
    if truth is not None:
        paths["truth"] = out / "truth_weights.csv"
        write_weights(paths["truth"], graph, truth)
    return paths
