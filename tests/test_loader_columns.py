"""The columnar trip loader against the row-by-row loader it replaced.

``load_trips_rowwise`` below is the reference: it reads one CSV row at a
time, makes one ``LinkRecord`` per row and one ``Trip`` per trip, and
reports every problem as it meets it. The library fills the record table
from whole columns; its tables, costs and diagnostics must be the same.
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
from roadcost.dataio import (
    format_hhmmss,
    load_trips,
    load_weights,
    parse_hhmmss,
    save_trips,
    write_weights,
)
from roadcost.errors import LoadError
from roadcost.graph import WEEKDAY, WEEKEND
from roadcost.synth import SyntheticSpec, generate_synthetic
from roadcost.trips import LinkRecord, Trip, TripSet, partition_by_tag, split_trips

TRIP_HEADER = ["trip_id", "seq", "edge_id", "day_class", "enter_hhmmss", "exit_hhmmss"]
COST_HEADER = ["trip_id", "cost"]


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
    costs, problems = {}, []
    for lineno, row in rows_of(costs_path, COST_HEADER):
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

    rows_by_trip, order, unknown_edges = {}, [], []
    for lineno, row in rows_of(trips_path, TRIP_HEADER):
        if len(row) != 6:
            problems.append(f"{trips_path}:{lineno}: expected 6 fields, got {len(row)}")
            continue
        trip_id, seq_text, edge_id, day, enter_text, exit_text = (field.strip() for field in row)
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


# ---------------------------------------------------------------- comparison


def assert_same_columns(got: TripSet, want: TripSet):
    for name, a, b in zip(got.table._fields, got.table, want.table):
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.costs().dtype == want.costs().dtype
    assert got.costs().tobytes() == want.costs().tobytes()


def outcome(loader, trips_path, costs_path, graph):
    try:
        return loader(trips_path, costs_path, graph)
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
                                 "%.12g" % costs.entry(edge, tag), flag])


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


def test_subset_shares_built_trips():
    trips = TripSet((Trip((LinkRecord(0, WEEKDAY, 1.0, 2.0),), 1.0),
                     Trip((LinkRecord(1, WEEKEND, 3.0, 4.0),), 2.0)))
    assert trips.subset([1])[0] is trips[1]
    lazy = TripSet.from_table(trips.table, trips.costs())
    assert lazy.trips == trips.trips
    assert lazy.trips is lazy.trips


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
    elif kind == "bad-cost":
        for c in cost_rows:
            if c[0] == record[0]:
                c[1] = "nan"
    elif kind == "cost-fields":
        cost_rows.insert(row % (len(cost_rows) + 1), ["x"])
    else:
        raise AssertionError(kind)


FAULTS = (
    "extra-field", "missing-field", "bad-seq", "minute-60", "after-day", "hour-25",
    "newline-clock",
    "unknown-edge", "unknown-day", "enter-after-exit", "mixed-days", "overlap",
    "missing-cost", "duplicate-cost", "bad-cost", "cost-fields",
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
