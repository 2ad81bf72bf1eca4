"""The columnar loaders against the row-by-row loaders they replaced.

``load_trips_rowwise`` below is the reference for the trip loader: it reads
one CSV row at a time, makes one ``LinkRecord`` per row and one ``Trip`` per
trip, and reports every problem as it meets it. ``load_schedule_rowwise``,
``load_network_rowwise`` and ``load_weights_rowwise`` do the same for the
other files. The library checks whole columns; its results and diagnostics
must be the same.
"""

import csv
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roadcost import dataio
from roadcost.config import RunConfig
from roadcost.dataio import (
    format_hhmmss,
    load_network,
    load_schedule,
    load_trips,
    load_weights,
    parse_hhmm,
    parse_hhmmss,
    save_network,
    save_trips,
    write_weights,
)
from roadcost.errors import LoadError
from roadcost.evaluation import build_constraints, solve_variant, ssl
from roadcost.graph import (
    DAY_CLASSES,
    WEEKDAY,
    WEEKEND,
    CostVector,
    RoadGraph,
    TagSchedule,
    build_dual,
    peak_offpeak_schedule,
)
from roadcost.synth import SyntheticSpec, generate_synthetic
from roadcost.trips import LinkRecord, Trip, TripSet, partition_by_tag, split_trips

TRIP_HEADER = ["trip_id", "seq", "edge_id", "day_class", "enter_hhmmss", "exit_hhmmss"]
COST_HEADER = ["trip_id", "cost"]
NETWORK_HEADER = ["edge_id", "tail", "head", "length_m", "speed_limit_kmh"]
WEIGHTS_HEADER = ["edge_id", "tag", "cost_per_meter", "annotated_flag"]


# ---------------------------------------------------------------- reference loader


def rows_of(path, expected_header):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError("malformed-row", [f"{path}:1: empty file"]) from None
        if [h.strip() for h in header] != expected_header:
            raise LoadError(
                "malformed-row", [f"{path}:1: expected header {','.join(expected_header)}"]
            )
        for lineno, row in enumerate(reader, start=2):
            if row:
                yield lineno, row


def load_trips_rowwise(trips_path, costs_path, graph):
    trips_path, costs_path = Path(trips_path), Path(costs_path)
    edge_index = {e: i for i, e in enumerate(graph.edge_ids)}
    costs, problems = {}, []
    for lineno, row in rows_of(costs_path, COST_HEADER):
        if len(row) != 2:
            problems.append(f"{costs_path}:{lineno}: expected 2 fields, got {len(row)}")
            continue
        trip_id, cost_text = (field.strip() for field in row)
        if not trip_id:
            problems.append(f"{costs_path}:{lineno}: blank trip_id")
            continue
        try:
            cost = float(cost_text)
        except ValueError:
            problems.append(f"{costs_path}:{lineno}: unparseable cost {cost_text!r}")
            continue
        if not 0 <= cost < math.inf:
            problems.append(f"{costs_path}:{lineno}: cost {cost_text!r} negative or not finite")
            continue
        if cost > dataio.MAX_COST:
            problems.append(f"{costs_path}:{lineno}: cost {cost_text!r} above 1e+100")
            continue
        if trip_id in costs:
            problems.append(f"{costs_path}:{lineno}: duplicate trip id {trip_id!r}")
            continue
        costs[trip_id] = cost
    if problems:
        raise LoadError("malformed-row", problems)

    rows_by_trip, order, unknown_edges = {}, [], []
    for lineno, row in rows_of(trips_path, TRIP_HEADER):
        if len(row) != 6:
            problems.append(f"{trips_path}:{lineno}: expected 6 fields, got {len(row)}")
            continue
        trip_id, seq_text, edge_id, day, enter_text, exit_text = (field.strip() for field in row)
        if not trip_id:
            problems.append(f"{trips_path}:{lineno}: blank trip_id")
            continue
        try:
            seq = int(seq_text)
            enter, exit_ = parse_hhmmss(enter_text), parse_hhmmss(exit_text)
        except ValueError as exc:
            problems.append(f"{trips_path}:{lineno}: {exc}")
            continue
        try:
            edge = edge_index[edge_id]
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
        raise LoadError("missing-cost", [f"{costs_path}: no cost for trip {t!r}" for t in missing])

    trips, bad_trips = [], []
    for trip_id in order:
        entries = sorted(rows_by_trip[trip_id])
        try:
            trips.append(Trip(tuple(rec for _, _, rec in entries), costs[trip_id]))
        except ValueError as exc:
            bad_trips.append(f"{trips_path}:{entries[0][1]}: trip {trip_id!r}: {exc}")
    if bad_trips:
        raise LoadError("bad-trip", bad_trips)
    return TripSet(tuple(trips))


def load_schedule_rowwise(path):
    path = Path(path)
    tags, rules, problems = [], [], []
    for lineno, row in rows_of(path, ["day_class", "start_hhmm", "end_hhmm", "tag"]):
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
        if not tag:
            problems.append(f"{path}:{lineno}: blank tag")
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


def load_network_rowwise(path, schedule):
    path = Path(path)
    vertices, seen, edge_lines = [], set(), {}
    edge_ids, edges, lengths, limits, problems = [], [], [], [], []
    for lineno, row in rows_of(path, NETWORK_HEADER):
        if len(row) != 5:
            problems.append(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            continue
        edge_id, tail, head, length_text, limit_text = (field.strip() for field in row)
        blank = [name for name, text in zip(NETWORK_HEADER, (edge_id, tail, head)) if not text]
        if blank:
            problems.append(f"{path}:{lineno}: blank {blank[0]}")
            continue
        first = edge_lines.setdefault(edge_id, lineno)
        if first != lineno:
            problems.append(
                f"{path}:{lineno}: duplicate edge id {edge_id!r} (first on line {first})"
            )
            continue
        try:
            length = float(length_text)
            limit = float(limit_text) if limit_text else None
        except ValueError:
            problems.append(f"{path}:{lineno}: unparseable number")
            continue
        if not 0 < length < math.inf:
            problems.append(f"{path}:{lineno}: length {length_text!r} not positive and finite")
            continue
        if length > dataio.MAX_LENGTH_M:
            problems.append(f"{path}:{lineno}: length {length_text!r} above 1e+07 m")
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
    graph = RoadGraph.from_edges(vertices, edges, lengths, schedule, speed_limits=limits)
    return replace(graph, edge_ids=tuple(edge_ids))


def load_weights_rowwise(path, graph):
    path = Path(path)
    edge_index = {e: i for i, e in enumerate(graph.edge_ids)}
    values = np.zeros(graph.n_entries)
    mask = np.zeros(graph.n_entries, dtype=bool)
    filled = np.zeros(graph.n_entries, dtype=bool)
    tag_index = {t: i for i, t in enumerate(graph.tag_schedule.tags)}
    problems = []
    for lineno, row in rows_of(path, WEIGHTS_HEADER):
        if len(row) != 4:
            problems.append(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            continue
        edge_id, tag_name, value_text, flag_text = (field.strip() for field in row)
        try:
            edge = edge_index[edge_id]
        except KeyError:
            problems.append(f"{path}:{lineno}: unknown edge id {edge_id!r}")
            continue
        if tag_name not in tag_index:
            problems.append(f"{path}:{lineno}: unknown tag {tag_name!r}")
            continue
        try:
            value = float(value_text)
            flag = int(flag_text)
        except ValueError:
            problems.append(f"{path}:{lineno}: unparseable value")
            continue
        if not math.isfinite(value):
            problems.append(f"{path}:{lineno}: cost_per_meter {value_text!r} not finite")
            continue
        if flag not in (0, 1):
            problems.append(f"{path}:{lineno}: annotated_flag {flag_text!r} not 0 or 1")
            continue
        pos = tag_index[tag_name] * graph.n_edges + edge
        if filled[pos]:
            problems.append(f"{path}:{lineno}: duplicate row for edge {edge_id!r}, tag {tag_name!r}")
            continue
        values[pos] = value
        mask[pos] = bool(flag)
        filled[pos] = True
    if problems:
        raise LoadError("malformed-row", problems)
    if not filled.all():
        raise LoadError(
            "malformed-row", [f"{path}: {int((~filled).sum())} (edge, tag) entries missing"]
        )
    return CostVector(values, graph.n_edges, graph.n_tags), mask


# ---------------------------------------------------------------- comparison


def assert_same_columns(got: TripSet, want: TripSet):
    for name, a, b in zip(got.table._fields, got.table, want.table):
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.costs().dtype == want.costs().dtype
    assert got.costs().tobytes() == want.costs().tobytes()


def outcome(loader, *args):
    try:
        return loader(*args)
    except LoadError as err:
        return (err.code, err.problems)


def assert_loaders_agree(trips_path, costs_path, graph):
    got = outcome(load_trips, trips_path, costs_path, graph)
    want = outcome(load_trips_rowwise, trips_path, costs_path, graph)
    if isinstance(want, TripSet):
        assert isinstance(got, TripSet), got
        assert_same_columns(got, want)
        assert tuple(got) == tuple(want)
    else:
        assert got == want
    return got


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture(autouse=True, scope="module")
def small_chunks():
    """Read and write five rows at a time, so that every file spans chunks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_CHUNK_ROWS", 5)
        yield


@pytest.fixture(scope="module")
def small_grid():
    graph, _, trips = generate_synthetic(SyntheticSpec(rows=3, cols=3, n_trips=6), seed=2)
    return graph, trips


# ---------------------------------------------------------------- valid files


@pytest.mark.parametrize(
    "spec",
    [
        # the benchmark's annotate, grid-search and evaluate shapes, scaled down
        SyntheticSpec(rows=10, cols=10, n_trips=300, coverage=0.3, noise=0.05,
                      speed_limit_choices=(50.0, 100.0)),
        SyntheticSpec(rows=12, cols=12, n_trips=144, coverage=0.3, noise=0.05),
        SyntheticSpec(rows=8, cols=8, n_trips=400, coverage=0.3, noise=0.05),
    ],
)
@pytest.mark.parametrize("chunk_rows", [5, 4096])
def test_benchmark_shapes_load_bitwise_equal(tmp_path, monkeypatch, spec, chunk_rows):
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", chunk_rows)
    graph, _, trips = generate_synthetic(spec, seed=1)
    save_trips(trips, graph, tmp_path / "trips.csv", tmp_path / "costs.csv")
    loaded = assert_loaders_agree(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
    assert len(loaded) == len(trips)


def test_hand_made_file(tmp_path, small_grid):
    graph, _ = small_grid
    e = graph.edge_ids
    (tmp_path / "trips.csv").write_text(
        ",".join(TRIP_HEADER) + "\n"
        # seq out of order, and the trip's records not contiguous in the file
        f"a,2,{e[2]},weekday,08:10:00,08:20:00\n"
        f"b,0,{e[0]},weekend,23:50:00,24:00:00\n"
        "\n"
        f"a,0,{e[0]},weekday,08:00:00,08:05:00\n"
        # a duplicate seq: ties are broken by line
        f"a,1,{e[1]},weekday,08:05:00,08:07:00\n"
        f"a,1,{e[3]},weekday,08:07:00,08:10:00\n"
        "\n"
        # a quoted trip id with a comma in it, spaces around every field
        f'"c,1", 5 ,  {e[4]} , weekday , 09:00:00 ,09:30:00\n'
        f'"c,1",7,{e[5]},weekday,9:30:00,09:31:00\n'
        # seq beyond 64 bits
        f"d,99999999999999999999,{e[1]},weekday,10:00:00,10:01:00\n"
        f"d,-99999999999999999999,{e[0]},weekday,09:00:00,09:01:00\n"
    )
    (tmp_path / "costs.csv").write_text(
        'trip_id,cost\nunused,1\nd,4\n\n" c,1 ",3.5\na,1.25\nb , 2\nalso-unused,0\n'
    )
    loaded = assert_loaders_agree(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
    assert loaded.costs().tolist() == [1.25, 2.0, 3.5, 4.0]
    assert loaded.table.trip.tolist() == [0, 0, 0, 0, 1, 2, 2, 3, 3]
    assert loaded.table.edge.tolist() == [0, 1, 3, 2, 0, 4, 5, 0, 1]
    assert loaded[1].records[0].exit == 1440.0
    assert loaded[2].records[1].enter == 570.0


def test_line_numbers_count_blank_rows(tmp_path, small_grid):
    graph, _ = small_grid
    e = graph.edge_ids
    (tmp_path / "trips.csv").write_text(
        ",".join(TRIP_HEADER) + "\n\n\n"
        f"a,0,{e[0]},weekday,08:00:00,08:60:00\n"
        + "\n" * 7  # a whole chunk of blank rows
        + f"a,1,{e[1]},holiday,08:05:00,08:07:00\n"
    )
    (tmp_path / "costs.csv").write_text("trip_id,cost\na,1\n")
    got = assert_loaders_agree(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
    path = tmp_path / "trips.csv"
    assert got == (
        "malformed-row",
        [
            f"{path}:4: time '08:60:00' is not hh:mm:ss with minutes and seconds 00-59",
            f"{path}:12: unknown day class 'holiday'",
        ],
    )


def test_empty_trip_file(tmp_path, small_grid):
    graph, _ = small_grid
    (tmp_path / "trips.csv").write_text(",".join(TRIP_HEADER) + "\n")
    (tmp_path / "costs.csv").write_text("trip_id,cost\nx,1\n")
    loaded = assert_loaders_agree(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
    assert len(loaded) == 0
    save_trips(loaded, graph, tmp_path / "out.csv", tmp_path / "out_costs.csv")
    assert (tmp_path / "out.csv").read_text().splitlines() == [",".join(TRIP_HEADER)]


# ---------------------------------------------------------------- writers


def save_trips_rowwise(trips, graph, trips_path, costs_path):
    with open(trips_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRIP_HEADER)
        for k, trip in enumerate(trips):
            for seq, rec in enumerate(trip.records):
                writer.writerow([f"t{k:05d}", seq, graph.edge_ids[rec.edge], rec.day_class,
                                 format_hhmmss(rec.enter), format_hhmmss(rec.exit)])
    with open(costs_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(COST_HEADER)
        for k, trip in enumerate(trips):
            writer.writerow([f"t{k:05d}", "%.12g" % trip.cost])


def write_weights_rowwise(path, graph, costs, mask=None):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["edge_id", "tag", "cost_per_meter", "annotated_flag"])
        for tag in range(graph.n_tags):
            for edge in range(graph.n_edges):
                flag = 1 if mask is None else int(bool(mask[tag * graph.n_edges + edge]))
                writer.writerow([graph.edge_ids[edge], graph.tag_schedule.tags[tag],
                                 "%.12g" % costs.values[tag * graph.n_edges + edge], flag])


def save_network_rowwise(graph, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["edge_id", "tail", "head", "length_m", "speed_limit_kmh"])
        for e in range(graph.n_edges):
            limit = graph.speed_limits[e]
            writer.writerow([graph.edge_ids[e], graph.vertex_ids[graph.tails[e]],
                             graph.vertex_ids[graph.heads[e]], "%.12g" % graph.lengths[e],
                             "" if np.isnan(limit) else "%.12g" % limit])


def test_save_network_matches_row_by_row_writer(tmp_path):
    graph, _, _ = generate_synthetic(
        SyntheticSpec(rows=4, cols=5, n_trips=0, speed_limit_choices=(30.0, 50.0, 80.5),
                      length_range=(1e-3, 1e7)), seed=3
    )
    # ids that need quoting, every third edge without a limit
    limits = graph.speed_limits.copy()
    limits[::3] = np.nan
    quoted = replace(
        graph,
        edge_ids=tuple(f'e,{i}"' for i in range(graph.n_edges)),
        vertex_ids=tuple(f'"v {i}' for i in range(graph.n_vertices)),
        speed_limits=limits,
    )
    unlimited = replace(graph, speed_limits=np.full(graph.n_edges, np.nan))
    empty = RoadGraph.from_edges(["a"], [], [], graph.tag_schedule)
    for g in (graph, quoted, unlimited, empty):
        save_network(g, tmp_path / "network.csv")
        save_network_rowwise(g, tmp_path / "network0.csv")
        assert (tmp_path / "network.csv").read_bytes() == (tmp_path / "network0.csv").read_bytes()


def test_writers_match_row_by_row_writers(tmp_path):
    graph, truth, trips = generate_synthetic(
        SyntheticSpec(rows=6, cols=6, n_trips=120, noise=0.05, tags=("A", "B", "C"),
                      weight_ranges=((0.01, 0.1),) * 3), seed=8
    )
    # edge ids that need quoting, records that end at midnight
    graph = replace(graph, edge_ids=tuple(f'e,{i}"' for i in range(graph.n_edges)))
    trips = TripSet((*trips, Trip((LinkRecord(3, WEEKEND, 1439.5, 1440.0),), 0.25)))
    save_trips(trips, graph, tmp_path / "trips.csv", tmp_path / "costs.csv")
    save_trips_rowwise(trips, graph, tmp_path / "trips0.csv", tmp_path / "costs0.csv")
    assert (tmp_path / "trips.csv").read_bytes() == (tmp_path / "trips0.csv").read_bytes()
    assert (tmp_path / "costs.csv").read_bytes() == (tmp_path / "costs0.csv").read_bytes()
    mask = np.random.default_rng(1).random(graph.n_entries) < 0.5
    for m in (None, mask):
        write_weights(tmp_path / "w.csv", graph, truth, m)
        write_weights_rowwise(tmp_path / "w0.csv", graph, truth, m)
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "w0.csv").read_bytes()
    loaded, loaded_mask = load_weights(tmp_path / "w.csv", graph)
    np.testing.assert_allclose(loaded.values, truth.values, rtol=1e-11)
    assert np.array_equal(loaded_mask, mask)


def test_write_weights_quotes_ids_as_csv_writer_does(tmp_path):
    graph, truth, _ = generate_synthetic(
        SyntheticSpec(rows=3, cols=3, n_trips=0, tags=("A,1", '"B"'),
                      weight_ranges=((0.01, 0.1),) * 2), seed=5
    )
    odd = ["", " x", "a\nb", 'q"', "p,q", "r\rs"]
    graph = replace(
        graph, edge_ids=tuple(odd + [f"e{i}" for i in range(len(odd), graph.n_edges)])
    )
    write_weights(tmp_path / "w.csv", graph, truth)
    write_weights_rowwise(tmp_path / "w0.csv", graph, truth)
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "w0.csv").read_bytes()


# ---------------------------------------------------------------- subsets


def test_subsets_match_object_backed_set(tmp_path):
    graph, _, trips = generate_synthetic(
        SyntheticSpec(rows=5, cols=5, n_trips=80, trip_len=(2, 9)), seed=6
    )
    save_trips(trips, graph, tmp_path / "trips.csv", tmp_path / "costs.csv")
    columns = load_trips(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
    objects = TripSet(tuple(columns))

    def assert_same_set(got, want):
        assert_same_columns(got, TripSet(tuple(want)))
        assert tuple(got) == tuple(want)

    picks = np.random.default_rng(0).permutation(len(objects))[:30]
    for indices in (picks, [], [5], [7, 7, 0]):
        assert_same_set(columns.subset(indices), [objects[i] for i in indices])
    for got, want in zip(split_trips(columns, 0.3, 4), split_trips(objects, 0.3, 4)):
        assert_same_set(got, want)
    schedule = graph.tag_schedule
    for got, want in zip(partition_by_tag(columns, schedule), partition_by_tag(objects, schedule)):
        assert_same_set(got, want)


def test_subset_and_table_build_equal_trips():
    trips = TripSet((Trip((LinkRecord(0, WEEKDAY, 1.0, 2.0),), 1.0),
                     Trip((LinkRecord(1, WEEKEND, 3.0, 4.0),), 2.0)))
    assert trips.subset([1])[0] == trips[1] == trips[-1]
    with pytest.raises(IndexError):
        trips[2]
    lazy = TripSet.from_table(trips.table, trips.costs(), trips.ids())
    assert tuple(lazy) == tuple(trips)


def test_pipeline_builds_no_link_records(tmp_path, monkeypatch):
    graph, _, trips = generate_synthetic(
        SyntheticSpec(rows=5, cols=5, n_trips=60, noise=0.05), seed=1
    )
    paths = dataio.save_dataset(graph, trips, tmp_path)
    built = []
    check = LinkRecord.__post_init__
    monkeypatch.setattr(LinkRecord, "__post_init__", lambda rec: built.append(rec) or check(rec))

    graph, trips = dataio.load_dataset(
        paths["network"], paths["schedule"], paths["trips"], paths["costs"]
    )
    train, test = split_trips(trips, 0.5, 0)
    config = RunConfig()
    matrices = build_constraints(train, graph, build_dual(graph), config)
    weights, _, _ = solve_variant(matrices, train.costs(), graph, config, config.variant)
    ssl(test, graph, weights)
    assert built == []
    list(test)  # iterating builds them
    assert len(built) == len(test.table.trip)


def test_validate_against_reads_the_edge_column():
    trips = TripSet((Trip((LinkRecord(0, WEEKDAY, 1.0, 2.0),), 1.0),
                     Trip((LinkRecord(2, WEEKDAY, 1.0, 2.0),
                           LinkRecord(9, WEEKDAY, 2.0, 3.0)), 1.0)))

    class Graph:
        n_edges = 3

    with pytest.raises(ValueError, match="trip 1 references unknown edge index 9"):
        trips.validate_against(Graph())


# ---------------------------------------------------------------- diagnostics parity


def _put(record, field, value):
    if field < len(record):  # an earlier fault may have dropped the field
        record[field] = value


def _fault(kind, trip_rows, cost_rows, row):
    """Put one fault into row ``row`` of the trip file (or the cost file)."""
    record = trip_rows[row]
    same_trip = [i for i, r in enumerate(trip_rows) if r[0] == record[0]]
    if kind == "extra-field":
        record.append("x")
    elif kind == "missing-field":
        record.pop()
    elif kind == "bad-seq":
        _put(record, 1, "1.5")
    elif kind == "minute-60":
        _put(record, 4, "00:60:00")
    elif kind == "after-day":
        _put(record, 5, "24:00:01")
    elif kind == "hour-25":
        _put(record, 4, "25:00:01")
    elif kind == "newline-clock":
        _put(record, 5, "08:00\n:00")
    elif kind == "unknown-edge":
        _put(record, 2, "nosuch")
    elif kind == "unknown-day":
        _put(record, 3, "holiday")
    elif kind == "enter-after-exit":
        if len(record) > 5:
            record[4], record[5] = record[5], record[4]
    elif kind == "mixed-days":
        _put(record, 3, WEEKEND if record[3] == WEEKDAY else WEEKDAY)
    elif kind == "overlap":
        later = row if same_trip.index(row) > 0 else same_trip[-1]
        _put(trip_rows[later], 4, "00:00:00")
    elif kind == "missing-cost":
        cost_rows[:] = [c for c in cost_rows if c[0] != record[0]]
    elif kind == "duplicate-cost":
        cost_rows.append([record[0], "7"])
    elif kind in ("bad-cost", "huge-cost"):
        for c in cost_rows:
            if c[0] == record[0]:
                c[1] = "nan" if kind == "bad-cost" else "1e101"
    elif kind == "cost-fields":
        cost_rows.insert(row % (len(cost_rows) + 1), ["x"])
    elif kind == "blank-id":
        _put(record, 0, " ")
    elif kind == "blank-cost-id":
        cost_rows.insert(row % (len(cost_rows) + 1), ["", "1"])
    else:
        raise AssertionError(kind)


FAULTS = (
    "extra-field", "missing-field", "bad-seq", "minute-60", "after-day", "hour-25",
    "newline-clock",
    "unknown-edge", "unknown-day", "enter-after-exit", "mixed-days", "overlap",
    "missing-cost", "duplicate-cost", "bad-cost", "huge-cost", "cost-fields", "blank-id",
    "blank-cost-id",
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    faults=st.lists(
        st.tuples(st.sampled_from(FAULTS), st.integers(0, 10_000)), min_size=1, max_size=3
    ),
    one_row=st.booleans(),
    shuffle=st.randoms(use_true_random=False),
)
def test_diagnostics_match_row_by_row_loader(small_grid, faults, one_row, shuffle):
    graph, trips = small_grid
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_trips(trips, graph, tmp / "trips.csv", tmp / "costs.csv")
        with open(tmp / "trips.csv", newline="") as handle:
            trip_rows = list(csv.reader(handle))[1:]
        with open(tmp / "costs.csv", newline="") as handle:
            cost_rows = list(csv.reader(handle))[1:]
        shuffle.shuffle(trip_rows)
        first_row = faults[0][1] % len(trip_rows)
        for kind, target in faults:
            row = first_row if one_row else target % len(trip_rows)
            _fault(kind, trip_rows, cost_rows, row)
        write_csv(tmp / "trips.csv", TRIP_HEADER, trip_rows)
        write_csv(tmp / "costs.csv", COST_HEADER, cost_rows)
        assert_loaders_agree(tmp / "trips.csv", tmp / "costs.csv", graph)


@pytest.mark.parametrize("first", FAULTS)
@pytest.mark.parametrize("second", (None, *FAULTS))
def test_one_or_two_faults_in_one_row(tmp_path, small_grid, first, second):
    graph, trips = small_grid
    save_trips(trips, graph, tmp_path / "trips.csv", tmp_path / "costs.csv")
    with open(tmp_path / "trips.csv", newline="") as handle:
        trip_rows = list(csv.reader(handle))[1:]
    with open(tmp_path / "costs.csv", newline="") as handle:
        cost_rows = list(csv.reader(handle))[1:]
    for kind in (first, second):
        if kind is not None:
            _fault(kind, trip_rows, cost_rows, 1)
    write_csv(tmp_path / "trips.csv", TRIP_HEADER, trip_rows)
    write_csv(tmp_path / "costs.csv", COST_HEADER, cost_rows)
    got = assert_loaders_agree(tmp_path / "trips.csv", tmp_path / "costs.csv", graph)
    if second is None:  # two faults may cancel, as two swaps of enter and exit do
        assert isinstance(got, tuple) and got[1], got


# ---------------------------------------------------------------- network, schedule, weights


def assert_same_graph(got, want):
    assert isinstance(got, RoadGraph), got
    assert got.vertex_ids == want.vertex_ids
    assert got.edge_ids == want.edge_ids
    assert got.tag_schedule == want.tag_schedule
    for name in ("tails", "heads", "lengths", "speed_limits"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_network_loaders_agree(path, schedule):
    got = outcome(load_network, path, schedule)
    want = outcome(load_network_rowwise, path, schedule)
    if isinstance(want, RoadGraph):
        assert_same_graph(got, want)
    else:
        assert got == want
    return got


# every diagnostic kind, each on its own row, spread over several chunks
NETWORK_FAULT_ROWS = [
    'e0,A,B,100,50',
    '"e,1", B , C ,120,',  # a quoted id with a comma, spaces, no speed limit
    'e2,C,A,80,nan',  # the text nan is not "no limit"
    'e3,A,B,abc,',  # unparseable length
    '',
    'e4,A,B,10,fast',  # unparseable speed limit
    'e5,A,B,10',  # too few fields: claims no id
    'e6,A,B,10,50,x',  # too many fields
    ',C,B,5,',  # a blank id
    'e7,A,B,0,',
    'e8,A,B,nan,',
    'e9,A,B,inf,50',
    'e10,A,B,10,-5',
    'e11,A,B,10,inf',
    'e12,B,B,10,',  # self-loop
    'e3,B,A,10,',  # duplicate of a row that failed a later check
    'e5,A,B,10,',  # not a duplicate: the first e5 row had four fields
    'e5,A,C,10,',  # a duplicate of that one
    '"e,1",A,C,1,',  # a duplicate of the quoted id
    'e13, A , A ,abc,',  # unparseable number comes before self-loop
    'e14,A,B,-1,0',  # length comes before speed limit
    'e15,C,D,1e400,',  # overflows to inf
    'e16,D,C,  7.5 , 60 ',
    'e17, ,B,5,',  # a blank tail, and an id that no other row claims
    'e18,C,,5,',  # a blank head
    'e19,A,B,1e8,',  # longer than any road between two junctions
    'e20,D,A,1e7,',  # as long as a length may be
    '',
    '',
]


def _network_file(path, rows):
    path.write_text(",".join(NETWORK_HEADER) + "\n" + "\n".join(rows) + "\n")


def test_network_diagnostics_match_row_by_row_loader(tmp_path, two_tag_schedule):
    _network_file(tmp_path / "network.csv", NETWORK_FAULT_ROWS)
    code, problems = assert_network_loaders_agree(tmp_path / "network.csv", two_tag_schedule)
    assert code == "malformed-row" and len(problems) == 21
    assert f"{tmp_path / 'network.csv'}:10: blank edge_id" in problems
    assert f"{tmp_path / 'network.csv'}:17: duplicate edge id 'e3' (first on line 5)" in problems


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(st.sampled_from(NETWORK_FAULT_ROWS), max_size=30))
def test_shuffled_network_rows_match_row_by_row_loader(rows):
    with tempfile.TemporaryDirectory() as tmp:
        _network_file(Path(tmp) / "network.csv", rows)
        assert_network_loaders_agree(Path(tmp) / "network.csv", peak_offpeak_schedule())


@pytest.mark.parametrize("limits", [(50.0, 100.0), None])
def test_networks_load_bitwise_equal(tmp_path, limits):
    graph, _, _ = generate_synthetic(
        SyntheticSpec(rows=7, cols=6, n_trips=0, speed_limit_choices=limits), seed=4
    )
    save_network(graph, tmp_path / "network.csv")
    loaded = assert_network_loaders_agree(tmp_path / "network.csv", graph.tag_schedule)
    assert loaded.edge_ids == graph.edge_ids


def test_valid_network_with_blank_rows_and_quoted_ids(tmp_path, two_tag_schedule):
    _network_file(
        tmp_path / "network.csv",
        ['"a,b", x ,"y,z",1,', "", "c,y,z,2.5, 80 ", "", "", "", "", "", '" d ",z,x,3,'],
    )
    graph = assert_network_loaders_agree(tmp_path / "network.csv", two_tag_schedule)
    assert graph.edge_ids == ("a,b", "c", "d")
    assert graph.vertex_ids == ("x", "y,z", "y", "z")
    assert np.isnan(graph.speed_limits[[0, 2]]).all() and graph.speed_limits[1] == 80.0


def test_empty_network_file(tmp_path, two_tag_schedule):
    _network_file(tmp_path / "network.csv", [])
    graph = assert_network_loaders_agree(tmp_path / "network.csv", two_tag_schedule)
    assert graph.n_edges == graph.n_vertices == 0


@pytest.mark.parametrize(
    "rows",
    [
        # blank rows, spaces, a quoted tag with a comma
        ["weekday,00:00,07:00,OFF", "", ' weekday , 7:00 ,24:00, "ON,1" ',
         "weekend,00:00,24:00,OFF"],
        # every row kind of fault: field count, day class, start, end, both times
        ["weekday,00:00,24:00", "holiday,00:00,24:00,X", "weekday,7:60,24:00,X",
         "weekday,00:00,24:01,X", "weekend,x,y,X", "", "weekend,00:00,24:00,X,Y",
         "weekend,00:00,24:00, ", "weekend,00:00,24:00,X"],
        # rows that parse but do not partition the day
        ["weekday,00:00,06:00,A", "weekday,07:00,24:00,B", "weekend,00:00,24:00,A"],
    ],
)
def test_schedules_match_row_by_row_loader(tmp_path, rows):
    path = tmp_path / "schedule.csv"
    path.write_text("day_class,start_hhmm,end_hhmm,tag\n" + "\n".join(rows) + "\n")
    assert outcome(load_schedule, path) == outcome(load_schedule_rowwise, path)


@pytest.fixture(scope="module")
def weights_graph():
    schedule = TagSchedule(
        tags=("A", "B"), rules=((WEEKDAY, 0.0, 1440.0, 0), (WEEKEND, 0.0, 1440.0, 1))
    )
    graph = RoadGraph.from_edges(
        ["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")], [1.0, 2.0, 3.0], schedule
    )
    return replace(graph, edge_ids=("e0", "e1", "e,2"))


def assert_weights_loaders_agree(path, graph):
    got = outcome(load_weights, path, graph)
    want = outcome(load_weights_rowwise, path, graph)
    if isinstance(want, tuple) and isinstance(want[0], CostVector):
        assert got[0].values.tobytes() == want[0].values.tobytes()
        assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()
    else:
        assert got == want
    return got


WEIGHT_ROWS = [
    "e0,A,0.5,1",
    "e0,A,0.7,1",  # a duplicate in the same chunk
    "nosuch,A,1,1",
    "e1,Z,1,1",
    "e1,A,abc,1",
    "",
    "e1,A,1,yes",
    "e1,A,1,1.0",
    "e1,A,1",
    "e1,A,1,1,1",
    "nosuch,Z,abc,1",  # unknown edge comes first
    " e1 , A , 2 , 0 ",  # the first valid row for (e1, A)
    '"e,2",A,3,1',
    "e0,B,4,0",
    "e1,B,5,1",
    '"e,2",B,6,0',
    "e0,A,1,1",  # a duplicate from an earlier chunk
    "e1,A,7,1",  # a duplicate, though unparsed rows above claimed nothing
    "e1,B,nan,1",  # values and flags that parse but that no weights file holds
    "e0,B, -inf ,0",
    "e1,A,1e400,0",
    "e1,B,5,2",
    "e0,B,4, -1 ",
    "e1,B,inf,7",  # the value's diagnostic comes first
]


def _weights_file(path, rows):
    path.write_text(",".join(WEIGHTS_HEADER) + "\n" + "\n".join(rows) + "\n")


def test_weights_diagnostics_match_row_by_row_loader(tmp_path, weights_graph):
    _weights_file(tmp_path / "w.csv", WEIGHT_ROWS)
    code, problems = assert_weights_loaders_agree(tmp_path / "w.csv", weights_graph)
    assert code == "malformed-row" and len(problems) == 17


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(st.sampled_from(WEIGHT_ROWS), max_size=30))
def test_shuffled_weight_rows_match_row_by_row_loader(weights_graph, rows):
    with tempfile.TemporaryDirectory() as tmp:
        _weights_file(Path(tmp) / "w.csv", rows)
        assert_weights_loaders_agree(Path(tmp) / "w.csv", weights_graph)


def test_valid_weights_load_bitwise_equal(tmp_path, weights_graph):
    _weights_file(
        tmp_path / "w.csv",
        ['"e,2",B,6,0', "", "e0,A,0.5,1", " e1 , A , 2 , 0 ", '"e,2",A,3,1', "e0,B,4,0",
         "e1,B,-5,1"],
    )
    costs, mask = assert_weights_loaders_agree(tmp_path / "w.csv", weights_graph)
    assert costs.values.tolist() == [0.5, 2.0, 3.0, 4.0, -5.0, 6.0]  # negative weights are legal
    assert mask.tolist() == [True, False, True, False, True, False]
