"""CSV dataset loaders and writers with per-row validation diagnostics.

File formats (UTF-8, comma separated, header row required):

  network:  edge_id,tail,head,length_m,speed_limit_kmh   (speed blank if unknown)
  schedule: day_class,start_hhmm,end_hhmm,tag            (end 24:00 for day end)
  trips:    trip_id,seq,edge_id,day_class,enter_hhmmss,exit_hhmmss
  costs:    trip_id,cost
  weights:  edge_id,tag,cost_per_meter,annotated_flag

Loaders collect every violating row before raising, so one run reports all
problems; writers are deterministic for identical inputs.

The trip loader fills a ``TripSet``'s record table straight from the CSV
columns: each check runs over whole columns, and ``Trip`` and ``LinkRecord``
objects are built only for a row or trip that fails one (to word its
diagnostic) or, lazily, when a caller iterates the set. ``save_trips`` and
``write_weights`` likewise write from columns.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import LoadError
from .graph import DAY_CLASSES, MINUTES_PER_DAY, CostVector, RoadGraph, TagSchedule
from .trips import LinkRecord, RecordTable, Trip, TripSet

_FLOAT_FMT = "%.12g"
# rows read or written at a time: bounds the CSV text held in memory
_CHUNK_ROWS = 4096
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


def _format_clock_column(minutes: np.ndarray) -> list[str]:
    """``format_hhmmss`` of every entry of a column of minutes of day, built
    as one byte array of hh:mm:ss."""
    total = np.rint(np.asarray(minutes) * 60).astype(np.int64)
    hours, rest = np.divmod(total, 3600)
    text = np.full((len(total), 8), ord(":"), dtype=np.uint8)
    for col, part in zip((0, 3, 6), (hours, *np.divmod(rest, 60))):
        text[:, col] = part // 10 + ord("0")
        text[:, col + 1] = part % 10 + ord("0")
    return text.view("S8").ravel().astype("U8").tolist()


def _read_chunks(
    path: Path, expected_header: list[str]
) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """Line numbers and fields of the non-blank rows after the header, at most
    ``_CHUNK_ROWS`` rows at a time; the last chunk may be empty.

    Line numbers count CSV records from the header's 1, blank rows included.
    """
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
        lineno = 2
        while True:
            rows = list(itertools.islice(reader, _CHUNK_ROWS))
            read = len(rows)
            linenos: Sequence[int] = range(lineno, lineno + read)
            lineno += read
            if not all(rows):
                linenos = [n for n, row in zip(linenos, rows) if row]
                rows = [row for row in rows if row]
            yield linenos, rows
            if read < _CHUNK_ROWS:
                return


def _read_rows(path: Path, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    for linenos, rows in _read_chunks(path, expected_header):
        yield from zip(linenos, rows)


def _write_rows(writer, n_rows: int, rows_of: Callable[[slice], Iterable]) -> None:
    """Write ``n_rows`` rows, built ``_CHUNK_ROWS`` at a time by ``rows_of``."""
    for start in range(0, n_rows, _CHUNK_ROWS):
        writer.writerows(rows_of(slice(start, start + _CHUNK_ROWS)))


def _columns(rows: list[list[str]], filler: tuple[str, ...]) -> tuple[dict[int, str], list]:
    """The fields of ``rows`` as columns, and a message for each row whose
    field count is wrong; such rows contribute ``filler`` to the columns."""
    width = len(filler)
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    wrong = np.flatnonzero(counts != width).tolist()
    if wrong:
        rows = list(rows)
        for i in wrong:
            rows[i] = filler
    messages = {i: f"expected {width} fields, got {counts[i]}" for i in wrong}
    return messages, list(zip(*rows)) or [()] * width


def _convert(texts: Sequence[str], convert) -> tuple[list, dict[int, str]]:
    """``convert`` of every stripped field, and the error of each one that fails."""
    try:
        # int() and float() ignore surrounding whitespace themselves
        return list(map(convert, texts)), {}
    except ValueError:
        pass
    values, errors = [], {}
    for i, text in enumerate(texts):
        try:
            values.append(convert(text.strip()))
        except ValueError as exc:
            values.append(convert("0"))
            errors[i] = str(exc)
    return values, errors


def _clock_column(texts: Sequence[str]) -> tuple[np.ndarray, dict[int, str]]:
    """``parse_hhmmss`` of every field, and the error of each one that fails.

    Fields of the form hh:mm:ss are decoded together as one byte array; any
    other field goes through ``parse_hhmmss`` on its own.
    """
    n = len(texts)
    fast = np.fromiter(map(len, texts), dtype=np.int64, count=n) == 8
    chosen = texts if fast.all() else [t for t, f in zip(texts, fast.tolist()) if f]
    raw = np.frombuffer("".join(chosen).encode("ascii", "replace"), dtype=np.uint8)
    raw = raw.reshape(-1, 8)
    digit = raw[:, [0, 1, 3, 4, 6, 7]].astype(np.int64) - ord("0")
    seconds = (digit[:, 0] * 10 + digit[:, 1]) * 3600 + (digit[:, 2] * 10 + digit[:, 3]) * 60
    seconds += digit[:, 4] * 10 + digit[:, 5]
    good = (
        (raw[:, 2] == ord(":"))
        & (raw[:, 5] == ord(":"))
        & ((digit >= 0) & (digit <= 9)).all(axis=1)
        & (digit[:, 2] <= 5)
        & (digit[:, 4] <= 5)
        & (seconds <= 86_400)
    )
    fast[fast] = good
    minutes = np.zeros(n)
    minutes[fast] = seconds[good] / 60.0
    errors = {}
    for i in np.flatnonzero(~fast).tolist():
        try:
            minutes[i] = parse_hhmmss(texts[i].strip())
        except ValueError as exc:
            errors[i] = str(exc)
    return minutes, errors


def _codebook(lookup: Callable[[str], int]) -> Callable[[Sequence[str]], np.ndarray]:
    """A function from a column of fields to ``lookup`` of each stripped field.

    ``lookup`` runs once per distinct field text over every column passed, in
    order of first appearance.
    """
    known: dict[str, int] = {}

    def codes(texts: Sequence[str]) -> np.ndarray:
        for text in dict.fromkeys(texts):
            if text not in known:
                known[text] = lookup(text.strip())
        return np.fromiter(map(known.__getitem__, texts), dtype=np.int64, count=len(texts))

    return codes


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


def _load_costs(path: Path) -> dict[str, float]:
    costs: dict[str, float] = {}
    messages: dict[int, str] = {}  # by line
    for linenos, rows in _read_chunks(path, ["trip_id", "cost"]):
        bad, (id_texts, cost_texts) = _columns(rows, ("", "0"))
        values, unparseable = _convert(cost_texts, float)
        for i in unparseable:
            bad.setdefault(i, f"unparseable cost {cost_texts[i].strip()!r}")
        values = np.array(values, dtype=float)
        for i in np.flatnonzero(~((0 <= values) & (values < math.inf))).tolist():
            bad.setdefault(i, f"cost {cost_texts[i].strip()!r} negative or not finite")
        for i, text in enumerate(id_texts):
            if i not in bad:
                trip_id = text.strip()
                if trip_id in costs:
                    bad[i] = f"duplicate trip id {trip_id!r}"
                else:
                    costs[trip_id] = float(values[i])
        messages.update((linenos[i], message) for i, message in bad.items())
    if messages:
        raise LoadError(
            "malformed-row", [f"{path}:{n}: {messages[n]}" for n in sorted(messages)]
        )
    return costs


def load_trips(trips_path: str | Path, costs_path: str | Path, graph: RoadGraph) -> TripSet:
    """Read a trip set straight into its record table.

    The file is read ``_CHUNK_ROWS`` rows at a time, and every check runs over
    a chunk's columns; a diagnostic is built only for a row or trip that fails
    one, and reads as a row-by-row pass would report it: one reason per row,
    the first that applies, in file order.
    """
    trips_path, costs_path = Path(trips_path), Path(costs_path)
    costs = _load_costs(costs_path)

    def edge_of(edge_id: str) -> int:
        try:
            return graph.edge_index(edge_id)
        except KeyError:
            return -1

    day_index = {day: i for i, day in enumerate(DAY_CLASSES)}
    trip_ids: dict[str, int] = {}  # trip number by first appearance
    edge_codes = _codebook(edge_of)
    day_codes = _codebook(lambda text: day_index.get(text, -1))
    trip_codes = _codebook(lambda text: trip_ids.setdefault(text, len(trip_ids)))
    messages: dict[int, str] = {}  # by line: the first check each row fails
    unknown: list[str] = []
    seq: list[int] = []
    parts = []  # (line, trip, edge, day, enter, exit) of each chunk
    for linenos, rows in _read_chunks(
        trips_path,
        ["trip_id", "seq", "edge_id", "day_class", "enter_hhmmss", "exit_hhmmss"],
    ):
        bad, (trip_texts, seq_texts, edge_texts, day_texts, enter_texts, exit_texts) = (
            _columns(rows, ("", "0", "", "", "00:00:00", "00:00:01"))
        )
        seq_values, seq_errors = _convert(seq_texts, int)
        enter, enter_errors = _clock_column(enter_texts)
        exit_, exit_errors = _clock_column(exit_texts)
        for errors in (seq_errors, enter_errors, exit_errors):
            for i, message in errors.items():
                bad.setdefault(i, message)
        edge, day = edge_codes(edge_texts), day_codes(day_texts)
        parsed = np.ones(len(rows), dtype=bool)
        parsed[list(bad)] = False
        for i in np.flatnonzero(parsed & (edge < 0)).tolist():
            unknown.append(f"{trips_path}:{linenos[i]}: unknown edge id {edge_texts[i].strip()!r}")
        in_day = (0 <= enter) & (enter < exit_) & (exit_ <= MINUTES_PER_DAY)
        for i in np.flatnonzero(parsed & (edge >= 0) & ((day < 0) | ~in_day)).tolist():
            try:
                LinkRecord(int(edge[i]), day_texts[i].strip(), float(enter[i]), float(exit_[i]))
            except ValueError as exc:
                bad[i] = str(exc)
        messages.update((linenos[i], message) for i, message in bad.items())
        seq += seq_values
        line = np.asarray(linenos, dtype=np.int64)
        parts.append((line, trip_codes(trip_texts), edge, day.astype(np.int8), enter, exit_))
    if messages:
        raise LoadError(
            "malformed-row", [f"{trips_path}:{n}: {messages[n]}" for n in sorted(messages)]
        )
    if unknown:
        raise LoadError("unknown-edge", unknown)
    missing = [t for t in trip_ids if t not in costs]
    if missing:
        raise LoadError(
            "missing-cost", [f"{costs_path}: no cost for trip {t!r}" for t in missing]
        )

    line, trip, edge, day, enter, exit_ = (np.concatenate(column) for column in zip(*parts))
    try:
        seq = np.array(seq, dtype=np.int64)
    except OverflowError:  # only the order of seq values matters
        rank = {value: r for r, value in enumerate(sorted(set(seq)))}
        seq = np.array([rank[value] for value in seq], dtype=np.int64)
    order = np.lexsort((line, seq, trip))
    table = RecordTable(trip[order], edge[order], day[order], enter[order], exit_[order])
    line = line[order]

    first = np.flatnonzero(np.diff(table.trip, prepend=-1))  # each trip's first row
    first_day = table.day[first][table.trip]
    same = table.trip[1:] == table.trip[:-1]
    bad = same & ((table.day[1:] != first_day[1:]) | (table.enter[1:] < table.exit[:-1]))
    if bad.any():
        ends = np.r_[first[1:], len(table.trip)]
        names = list(trip_ids)
        problems = []
        for k in np.unique(table.trip[1:][bad]).tolist():
            rows_k = range(first[k], ends[k])
            try:
                Trip(
                    tuple(
                        LinkRecord(
                            int(table.edge[r]),
                            DAY_CLASSES[table.day[r]],
                            float(table.enter[r]),
                            float(table.exit[r]),
                        )
                        for r in rows_k
                    ),
                    costs[names[k]],
                )
            except ValueError as exc:
                problems.append(f"{trips_path}:{line[first[k]]}: trip {names[k]!r}: {exc}")
        raise LoadError("bad-trip", problems)
    return TripSet.from_table(table, np.array([costs[t] for t in trip_ids], dtype=float))


def save_trips(
    trips: TripSet, graph: RoadGraph, trips_path: str | Path, costs_path: str | Path
) -> None:
    table = trips.table
    names = np.array([f"t{k:05d}" for k in range(len(trips))], dtype=object)
    first = np.searchsorted(table.trip, np.arange(len(trips)))
    seq = np.arange(len(table.trip)) - first[table.trip]
    edge_ids = np.array(graph.edge_ids, dtype=object)
    days = np.array(DAY_CLASSES, dtype=object)
    with open(trips_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["trip_id", "seq", "edge_id", "day_class", "enter_hhmmss", "exit_hhmmss"]
        )
        _write_rows(
            writer,
            len(table.trip),
            lambda part: zip(
                names[table.trip[part]].tolist(),
                seq[part].tolist(),
                edge_ids[table.edge[part]].tolist(),
                days[table.day[part]].tolist(),
                _format_clock_column(table.enter[part]),
                _format_clock_column(table.exit[part]),
            ),
        )
    costs = trips.costs()
    with open(costs_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trip_id", "cost"])
        _write_rows(
            writer,
            len(trips),
            lambda part: zip(
                names[part].tolist(), [_FLOAT_FMT % cost for cost in costs[part].tolist()]
            ),
        )


def write_weights(
    path: str | Path,
    graph: RoadGraph,
    costs: CostVector,
    mask: Optional[np.ndarray] = None,
) -> None:
    if not costs.matches(graph):
        raise ValueError("cost vector does not match the graph")
    flags = np.ones(graph.n_entries, dtype=bool) if mask is None else np.asarray(mask, bool)
    if flags.shape != (graph.n_entries,):
        raise ValueError("mask must cover every (edge, tag) entry")
    edge_ids = np.tile(np.array(graph.edge_ids, dtype=object), graph.n_tags)
    tags = np.repeat(np.array(graph.tag_schedule.tags, dtype=object), graph.n_edges)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["edge_id", "tag", "cost_per_meter", "annotated_flag"])
        _write_rows(
            writer,
            graph.n_entries,
            lambda part: zip(
                edge_ids[part].tolist(),
                tags[part].tolist(),
                [_FLOAT_FMT % value for value in costs.values[part].tolist()],
                flags[part].astype(np.int64).tolist(),
            ),
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
