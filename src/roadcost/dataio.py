"""The CSV codec of roadcost: the dataset loaders, with per-row diagnostics,
and ``write_csv``, which writes every CSV file roadcost writes.

Files are UTF-8 (a leading byte order mark allowed), comma separated, and
start with the header ``HEADERS`` names for their format. A network's blank
speed limit is no limit; a schedule's day ends at 24:00.

Loaders collect every violating row before raising, so one run reports all
problems. Every loader is columnar: ``_read_columns`` hands it ``_CHUNK_ROWS``
rows at a time as columns of fields, and it words a diagnostic only for a row
that fails a check, as a row-by-row pass would (the first check, in file
order). A plain chunk takes one ``str.split``; from the first chunk that is
not plain, ``csv.reader`` reads the rest of the file, so every corner case of
the format is the csv module's. The network loader fills the ``RoadGraph``
arrays, the trip loader a ``TripSet``'s record table; ``Trip`` objects are
built only to word a bad trip's diagnostic, or on each iteration or index of
the set; none is kept.

``write_csv`` writes from columns of field texts, a chunk at a time, the bytes
``csv.writer`` writes; writers are deterministic for identical inputs.
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
from .trips import LinkRecord, RecordTable, TripSet

# the header row of each file format
HEADERS = {
    "network": ("edge_id", "tail", "head", "length_m", "speed_limit_kmh"),
    "schedule": ("day_class", "start_hhmm", "end_hhmm", "tag"),
    "trips": ("trip_id", "seq", "edge_id", "day_class", "enter_hhmmss", "exit_hhmmss"),
    "costs": ("trip_id", "cost"),
    "weights": ("edge_id", "tag", "cost_per_meter", "annotated_flag"),
}
_FLOAT_FMT = "%.12g"
# rows read or written at a time: bounds the CSV text held in memory
_CHUNK_ROWS = 4096
# unsigned decimal fields; 24:00 and 24:00:00 (end of day) pass the range checks
_HHMM = re.compile(r"(\d+):([0-5]\d)", re.ASCII)
_HHMMSS = re.compile(r"(\d+):([0-5]\d):([0-5]\d)", re.ASCII)
# what csv.writer quotes in a field
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


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


def _csv_rows(reader, path: Path, lineno: int, count: int) -> list[list[str]]:
    """The next ``count`` rows of ``reader`` (fewer at the end), whose first is
    line ``lineno``; the reader's error (a field over csv's size limit) names
    the line it stopped on."""
    rows: list[list[str]] = []
    try:
        for row in itertools.islice(reader, count):
            rows.append(row)
    except csv.Error as exc:
        raise LoadError("malformed-row", [f"{path}:{lineno + len(rows)}: {exc}"]) from None
    return rows


def _plain_columns(lines: list[str], width: int) -> Optional[list[list[str]]]:
    """The ``width`` columns of fields of ``lines`` if they are plain, else None:
    no quote, every line ended by CR LF or every one by LF (and no CR at all),
    none over csv's field size limit, each with ``width`` fields, at least two
    (so no blank line). csv.reader reads plain lines as these fields."""
    text, n = "".join(lines), len(lines)
    if '"' in text:
        return None
    if text.count("\r\n") == n:
        newline = "\r\n"
    elif text.count("\n") == n and "\r" not in text:
        newline = "\n"
    else:  # a lone CR, mixed line ends, or a last line with none
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    # one row per line: its fields, then the newline as a field of its own
    flat = text.replace(newline, f",{newline},").split(",")
    del flat[-1]
    step = width + 1
    if width < 2 or len(flat) != n * step or flat[width::step].count(newline) != n:
        return None
    return [flat[i::step] for i in range(width)]


def _shape(
    rows: list[list[str]], linenos: Sequence[int], filler: tuple[str, ...]
) -> tuple[Sequence[int], dict[int, str], list[Sequence[str]]]:
    """Line numbers and columns of the non-blank ``rows``, and a message for
    each row whose field count is wrong; such rows contribute ``filler``."""
    if not all(rows):
        linenos = [n for n, row in zip(linenos, rows) if row]
        rows = [row for row in rows if row]
    width = len(filler)
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    wrong = np.flatnonzero(counts != width).tolist()
    if wrong:
        rows = list(rows)
        for i in wrong:
            rows[i] = filler
    messages = {i: f"expected {width} fields, got {counts[i]}" for i in wrong}
    return linenos, messages, list(zip(*rows)) or [()] * width


def _check_header(path: Path, names: Sequence[str], header: Sequence[str]) -> None:
    if [name.strip() for name in names] != list(header):
        raise LoadError("malformed-row", [f"{path}:1: expected header {','.join(header)}"])


def _not_utf8(path: Path) -> str:
    """The diagnostic for the first byte of ``path`` that is not UTF-8, on its
    line as the reader counts lines (each ends with LF, CR LF or a lone CR)."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
        return f"{path}: not UTF-8 text"  # the file changed since it was read
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})"


def _read_columns(
    path: Path, header: Sequence[str], filler: tuple[str, ...]
) -> Iterator[tuple[Sequence[int], dict[int, str], list[Sequence[str]]]]:
    """Line numbers, field-count diagnostics and field columns of the non-blank
    rows after the header, at most ``_CHUNK_ROWS`` rows at a time; the last
    chunk may be empty. A row without ``len(filler)`` fields gets a diagnostic
    (keyed by its index in the chunk) and contributes ``filler`` to the columns.

    Line numbers count CSV records from the header's 1, blank rows included.
    Fields are csv.reader's, surrounding spaces kept. The header, then each
    chunk of ``_CHUNK_ROWS`` lines, is split at once if it is plain; from the
    first that is not, csv.reader reads the rest of the file. A leading UTF-8
    byte order mark is dropped; a byte that is not UTF-8 stops the load.
    """
    width = len(filler)
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            lines, lineno = [next(handle, "")], 1  # the header is a chunk of its own
            if not lines[0]:
                raise LoadError("malformed-row", [f"{path}:1: empty file"])
            while (columns := _plain_columns(lines, width)) is not None:
                if lineno == 1:
                    _check_header(path, [column[0] for column in columns], header)
                else:
                    yield range(lineno, lineno + len(lines)), {}, columns
                    if len(lines) < _CHUNK_ROWS:
                        return
                lineno += len(lines)
                lines = list(itertools.islice(handle, _CHUNK_ROWS))
            reader = csv.reader(itertools.chain(lines, handle))
            del lines  # the reader lets go of them once it has read past them
            if lineno == 1:
                _check_header(path, *_csv_rows(reader, path, 1, 1), header)
                lineno = 2
            while True:
                rows = _csv_rows(reader, path, lineno, _CHUNK_ROWS)
                yield _shape(rows, range(lineno, lineno + len(rows)), filler)
                lineno += len(rows)
                if len(rows) < _CHUNK_ROWS:
                    return
    except UnicodeDecodeError:
        raise LoadError("malformed-row", [_not_utf8(path)]) from None


def write_csv(
    path: str | Path, header: Sequence[str], n_rows: int, columns_of: Callable[[slice], Iterable]
) -> None:
    """Write ``header``, then ``n_rows`` rows whose columns of field texts
    ``columns_of(part)`` gives for each slice ``part`` of ``_CHUNK_ROWS`` rows,
    as the bytes ``csv.writer`` writes for rows of two or more fields."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            columns = map(_quoted, columns_of(slice(start, start + _CHUNK_ROWS)))
            handle.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _quoted(texts: Sequence[str]) -> Sequence[str]:
    """A column of fields as csv.writer writes them: unchanged unless one
    needs quoting, else each distinct text quoted (once) where it must be."""
    if _NEEDS_QUOTES.search("".join(texts)) is None:
        return texts
    fields = {
        text: '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text
        for text in dict.fromkeys(texts)
    }
    return list(map(fields.__getitem__, texts))


def _convert(texts: Sequence[str], convert) -> tuple[list, dict[int, str]]:
    """``convert`` of every stripped field (None where it fails), and the error
    of each one that fails."""
    try:
        # int(), float() and the time parsers ignore surrounding whitespace
        return list(map(convert, texts)), {}
    except ValueError:
        pass
    values, errors = [], {}
    for i, text in enumerate(texts):
        try:
            values.append(convert(text.strip()))
        except ValueError as exc:
            values.append(None)
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


def _check_rows(path: Path, messages: dict[int, str]) -> None:
    """Raise the diagnostics in ``messages`` (by line number) in file order."""
    if messages:
        raise LoadError("malformed-row", [f"{path}:{n}: {messages[n]}" for n in sorted(messages)])


def load_schedule(path: str | Path) -> TagSchedule:
    path = Path(path)
    tags: dict[str, int] = {}  # tag index by first appearance
    rules = []
    messages: dict[int, str] = {}  # by line: the first check each row fails
    for linenos, bad, (day_texts, start_texts, end_texts, tag_texts) in _read_columns(
        path, HEADERS["schedule"], ("",) * 4
    ):
        days = list(map(str.strip, day_texts))
        for i, day in enumerate(days):
            if day not in DAY_CLASSES:
                bad.setdefault(i, f"unknown day class {day!r}")
        starts, start_errors = _convert(start_texts, parse_hhmm)
        ends, end_errors = _convert(end_texts, parse_hhmm)
        for errors in (start_errors, end_errors):
            for i, message in errors.items():
                bad.setdefault(i, message)
        for i, rule in enumerate(zip(days, starts, ends, map(str.strip, tag_texts))):
            if i not in bad:
                rules.append((*rule[:3], tags.setdefault(rule[3], len(tags))))
        messages.update((linenos[i], message) for i, message in bad.items())
    _check_rows(path, messages)
    try:
        return TagSchedule(tags=tuple(tags), rules=tuple(rules))
    except ValueError as exc:
        raise LoadError("bad-schedule", [f"{path}: {exc}"]) from exc


def save_schedule(schedule: TagSchedule, path: str | Path) -> None:
    rows = [
        (day, format_hhmm(start), format_hhmm(end), schedule.tags[tag])
        for day, start, end, tag in schedule.rules
    ]
    write_csv(path, HEADERS["schedule"], len(rows), lambda part: zip(*rows[part]))


def load_network(path: str | Path, schedule: TagSchedule) -> RoadGraph:
    """Read a network straight into a ``RoadGraph``'s arrays; vertices are
    numbered by first appearance, each row's tail before its head. A blank
    speed limit is no limit."""
    path = Path(path)
    vertex_index: dict[str, int] = {}
    vertex_codes = _codebook(lambda text: vertex_index.setdefault(text, len(vertex_index)))
    first_line: dict[Optional[str], int] = {}  # by edge id: its first row with five fields
    messages: dict[int, str] = {}  # by line: the first check each row fails
    parts = []  # (ids, tail and head codes, lengths, limits) of each chunk
    for linenos, bad, (id_texts, tail_texts, head_texts, length_texts, limit_texts) in (
        _read_columns(path, HEADERS["network"], ("",) * 5)
    ):
        ids = list(map(str.strip, id_texts))
        # a row with the wrong field count claims no id
        claims = [None if i in bad else k for i, k in enumerate(ids)] if bad else ids
        first = np.fromiter(map(first_line.setdefault, claims, linenos), np.int64, len(ids))
        for i in np.flatnonzero(first != np.asarray(linenos)).tolist():
            bad.setdefault(i, f"duplicate edge id {ids[i]!r} (first on line {first[i]})")
        limit_texts = list(map(str.strip, limit_texts))
        given = np.fromiter(map(bool, limit_texts), bool, len(ids))
        lengths, length_errors = _convert(length_texts, float)
        limits, limit_errors = _convert([text or "nan" for text in limit_texts], float)
        for i in (*length_errors, *limit_errors):
            bad.setdefault(i, "unparseable number")
        length, limit = np.array(lengths, dtype=float), np.array(limits, dtype=float)
        for i in np.flatnonzero(~((0 < length) & (length < math.inf))).tolist():
            bad.setdefault(i, f"length {length_texts[i].strip()!r} not positive and finite")
        for i in np.flatnonzero(given & ~((0 < limit) & (limit < math.inf))).tolist():
            bad.setdefault(i, f"speed limit {limit_texts[i]!r} not positive and finite")
        ends = vertex_codes(list(itertools.chain.from_iterable(zip(tail_texts, head_texts))))
        for i in np.flatnonzero(ends[0::2] == ends[1::2]).tolist():
            bad.setdefault(i, f"self-loop edge {ids[i]!r}")
        messages.update((linenos[i], message) for i, message in bad.items())
        parts.append((ids, ends, length, limit))
    _check_rows(path, messages)

    ids, ends, length, limit = zip(*parts)
    tails, heads = np.concatenate(ends).reshape(-1, 2).T.copy()
    return RoadGraph(
        vertex_ids=tuple(vertex_index),
        edge_ids=tuple(itertools.chain.from_iterable(ids)),
        tails=tails,
        heads=heads,
        lengths=np.concatenate(length),
        speed_limits=np.concatenate(limit),
        tag_schedule=schedule,
    )


def save_network(graph: RoadGraph, path: str | Path) -> None:
    vertex_ids = np.array(graph.vertex_ids, dtype=object)
    write_csv(
        path,
        HEADERS["network"],
        graph.n_edges,
        lambda part: (
            graph.edge_ids[part],
            vertex_ids[graph.tails[part]].tolist(),
            vertex_ids[graph.heads[part]].tolist(),
            [_FLOAT_FMT % length for length in graph.lengths[part].tolist()],
            [
                "" if limit != limit else _FLOAT_FMT % limit  # NaN: no limit
                for limit in graph.speed_limits[part].tolist()
            ],
        ),
    )


def _load_costs(path: Path) -> dict[str, float]:
    costs: dict[str, float] = {}
    messages: dict[int, str] = {}  # by line
    for linenos, bad, (id_texts, cost_texts) in _read_columns(
        path, HEADERS["costs"], ("", "0")
    ):
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
    _check_rows(path, messages)
    return costs


def load_trips(trips_path: str | Path, costs_path: str | Path, graph: RoadGraph) -> TripSet:
    """Read a trip set straight into its record table, checked a chunk's
    columns at a time; a trip whose records change day class or overlap in
    time gets one diagnostic, on its first line."""
    trips_path, costs_path = Path(trips_path), Path(costs_path)
    costs = _load_costs(costs_path)
    day_index = {day: i for i, day in enumerate(DAY_CLASSES)}
    trip_ids: dict[str, int] = {}  # trip number by first appearance
    edge_codes = _codebook(lambda text: graph.edge_lookup.get(text, -1))
    day_codes = _codebook(lambda text: day_index.get(text, -1))
    trip_codes = _codebook(lambda text: trip_ids.setdefault(text, len(trip_ids)))
    messages: dict[int, str] = {}  # by line: the first check each row fails
    unknown: list[str] = []
    seq: list[int] = []
    parts = []  # (line, trip, edge, day, enter, exit) of each chunk
    for linenos, bad, (trip_texts, seq_texts, edge_texts, day_texts, enter_texts, exit_texts) in (
        _read_columns(trips_path, HEADERS["trips"], ("", "0", "", "", "00:00:00", "00:00:01"))
    ):
        seq_values, seq_errors = _convert(seq_texts, int)
        enter, enter_errors = _clock_column(enter_texts)
        exit_, exit_errors = _clock_column(exit_texts)
        for errors in (seq_errors, enter_errors, exit_errors):
            for i, message in errors.items():
                bad.setdefault(i, message)
        edge, day = edge_codes(edge_texts), day_codes(day_texts)
        parsed = np.ones(len(linenos), dtype=bool)
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
    _check_rows(trips_path, messages)
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

    trips = TripSet.from_table(table, [costs[t] for t in trip_ids], list(trip_ids))

    first = np.flatnonzero(np.diff(table.trip, prepend=-1))  # each trip's first row
    first_day = table.day[first][table.trip]
    same = table.trip[1:] == table.trip[:-1]
    bad = same & ((table.day[1:] != first_day[1:]) | (table.enter[1:] < table.exit[:-1]))
    if bad.any():
        problems = []
        for k in np.unique(table.trip[1:][bad]).tolist():
            try:
                trips[k]  # building the trip runs the Trip checks
            except ValueError as exc:
                problems.append(f"{trips_path}:{line[first[k]]}: trip {trips.ids()[k]!r}: {exc}")
        raise LoadError("bad-trip", problems)
    return trips


def save_trips(
    trips: TripSet, graph: RoadGraph, trips_path: str | Path, costs_path: str | Path
) -> None:
    table = trips.table
    names = trips.ids()
    first = np.searchsorted(table.trip, np.arange(len(trips)))
    seq = np.arange(len(table.trip)) - first[table.trip]
    edge_ids = np.array(graph.edge_ids, dtype=object)
    days = np.array(DAY_CLASSES, dtype=object)
    write_csv(
        trips_path,
        HEADERS["trips"],
        len(table.trip),
        lambda part: (
            names[table.trip[part]].tolist(),
            list(map(str, seq[part].tolist())),
            edge_ids[table.edge[part]].tolist(),
            days[table.day[part]].tolist(),
            _format_clock_column(table.enter[part]),
            _format_clock_column(table.exit[part]),
        ),
    )
    costs = trips.costs()
    write_csv(
        costs_path,
        HEADERS["costs"],
        len(trips),
        lambda part: (
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
    edge_ids = graph.edge_ids * graph.n_tags
    tags = np.repeat(np.array(graph.tag_schedule.tags, dtype=object), graph.n_edges)
    write_csv(
        path,
        HEADERS["weights"],
        graph.n_entries,
        lambda part: (
            edge_ids[part],
            tags[part].tolist(),
            list(map(_FLOAT_FMT.__mod__, costs.values[part].tolist())),
            np.where(flags[part], "1", "0").tolist(),
        ),
    )


def load_weights(path: str | Path, graph: RoadGraph) -> tuple[CostVector, np.ndarray]:
    path = Path(path)
    values = np.zeros(graph.n_entries)
    mask = np.zeros(graph.n_entries, dtype=bool)
    filled = np.zeros(graph.n_entries, dtype=bool)
    tag_index = {t: i for i, t in enumerate(graph.tag_schedule.tags)}
    edge_codes = _codebook(lambda text: graph.edge_lookup.get(text, -1))
    tag_codes = _codebook(lambda text: tag_index.get(text, -1))
    messages: dict[int, str] = {}  # by line: the first check each row fails
    for linenos, bad, (edge_texts, tag_texts, value_texts, flag_texts) in _read_columns(
        path, HEADERS["weights"], ("",) * 4
    ):
        edge, tag = edge_codes(edge_texts), tag_codes(tag_texts)
        for i in np.flatnonzero(edge < 0).tolist():
            bad.setdefault(i, f"unknown edge id {edge_texts[i].strip()!r}")
        for i in np.flatnonzero(tag < 0).tolist():
            bad.setdefault(i, f"unknown tag {tag_texts[i].strip()!r}")
        chunk_values, value_errors = _convert(value_texts, float)
        flags, flag_errors = _convert(flag_texts, int)
        for i in (*value_errors, *flag_errors):
            bad.setdefault(i, "unparseable value")
        rows_ok = np.setdiff1d(np.arange(len(linenos)), list(bad))
        pos = tag[rows_ok] * graph.n_edges + edge[rows_ok]
        # an entry filled by an earlier chunk, or by an earlier row of this one
        later = np.ones(len(pos), dtype=bool)
        later[np.unique(pos, return_index=True)[1]] = False
        for i in rows_ok[filled[pos] | later].tolist():
            bad[i] = (
                f"duplicate row for edge {edge_texts[i].strip()!r}, tag {tag_texts[i].strip()!r}"
            )
        values[pos] = np.array(chunk_values, dtype=float)[rows_ok]
        mask[pos] = np.fromiter(map(bool, flags), bool, len(flags))[rows_ok]
        filled[pos] = True
        messages.update((linenos[i], message) for i, message in bad.items())
    _check_rows(path, messages)
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
    """Load a full dataset; trips and costs may be omitted together for
    graph-only uses."""
    if (trips_path is None) != (costs_path is None):
        raise ValueError("trips and costs are read together: give both files or neither")
    schedule = load_schedule(schedule_path)
    graph = load_network(network_path, schedule)
    if trips_path is None:
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
