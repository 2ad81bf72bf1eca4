"""The bytes reader and its column decoders, against the csv module, the
row-by-row loaders and Python's own conversions.

A plain chunk is tokenized as bytes, and the loaders decode ids, seq, clocks
and numbers from byte spans; any field the vectorized decoders cannot read
exactly goes through the per-field conversion the row-by-row loaders use.
Each file case here is loaded twice: as written (the bytes path) and with
every field quoted, which only ``csv.reader`` reads. Both loads must equal
each other and the row-by-row reference, as tables or as diagnostics.
"""

import csv
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_loader_columns import (
    COST_HEADER,
    NETWORK_HEADER,
    TRIP_HEADER,
    assert_same_columns,
    assert_same_graph,
    load_network_rowwise,
    load_trips_rowwise,
    outcome,
)
from test_read_columns import SHAPES, chunked, load_all, reference, write_text

from roadcost import dataio
from roadcost.dataio import (
    load_network,
    load_schedule,
    load_trips,
    load_weights,
    parse_hhmmss,
    save_dataset,
)
from roadcost.graph import RoadGraph
from roadcost.synth import generate_synthetic
from roadcost.trips import TripSet

# ---------------------------------------------------------------- files


def write_rows(path, header, rows, newline="\r\n", bom=False, quote=False):
    with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as handle:
        quoting = csv.QUOTE_ALL if quote else csv.QUOTE_MINIMAL
        writer = csv.writer(handle, lineterminator=newline, quoting=quoting)
        writer.writerow(header)
        writer.writerows(rows)


def two_ways(load, files, **layout):
    """``load()``'s outcome on ``files`` (path: (header, rows)) written plain,
    and again with every field quoted; the second load must use csv.reader."""
    outcomes = []
    for quote in (False, True):
        for path, (header, rows) in files.items():
            write_rows(path, header, rows, quote=quote, **layout)
        outcomes.append(outcome(load))
    return outcomes


def assert_same(got, want):
    if isinstance(want, TripSet):
        assert isinstance(got, TripSet), got
        assert_same_columns(got, want)
        assert got.ids().tolist() == want.ids().tolist()
    elif isinstance(want, RoadGraph):
        assert isinstance(got, RoadGraph), got
        assert_same_graph(got, want)
    else:
        assert got == want


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    """Read five rows at a time, so that runs and files span chunks."""
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", 5)


# edge ids: short and long (8 bytes and more), non-ASCII, and one with a NUL
EDGE_IDS = ["e0", "e1", "é2", "e\x003", "edge_identifier_4", "日本5", "e6", "e7"]
VERTICES = ["a", "b", "ç", "d\x00", "e", "f", "g", "h"]


@pytest.fixture
def id_graph(tmp_path, two_tag_schedule):
    rows = [
        [edge, VERTICES[k], VERTICES[(k + 1) % 8], f"{100 + k}.5", "50" if k % 2 else ""]
        for k, edge in enumerate(EDGE_IDS)
    ]
    path = tmp_path / "network.csv"
    got, quoted = two_ways(
        lambda: load_network(path, two_tag_schedule), {path: (NETWORK_HEADER, rows)}
    )
    want = load_network_rowwise(path, two_tag_schedule)
    assert_same(got, want)
    assert_same(quoted, want)
    assert got.edge_ids == tuple(EDGE_IDS)
    assert got.vertex_ids == tuple(VERTICES)
    return got


def record(trip, seq, edge, minute):
    clock = dataio.format_hhmmss
    return [trip, seq, edge, "weekday", clock(minute), clock(minute + 1)]


def assert_trips_two_ways(tmp_path, graph, trip_rows, cost_rows, **layout):
    """Both loads of the trips and costs equal each other, and the row-by-row
    reference's load of the same rows (which names trips by position)."""
    trips_path, costs_path = tmp_path / "trips.csv", tmp_path / "costs.csv"
    files = {trips_path: (TRIP_HEADER, trip_rows), costs_path: (COST_HEADER, cost_rows)}
    got, quoted = two_ways(lambda: load_trips(trips_path, costs_path, graph), files, **layout)
    assert_same(quoted, got)
    for path, (header, rows) in files.items():  # the reference reads no byte order mark
        write_rows(path, header, rows)
    want = outcome(load_trips_rowwise, trips_path, costs_path, graph)
    if isinstance(want, TripSet):
        assert_same_columns(got, want)
    else:
        assert got == want
    return got


# ---------------------------------------------------------------- file cases


@pytest.mark.parametrize("seq", ["+7", " 7", "1_0", "٣", "0" * 24 + "7", "9" * 25, "-" + "9" * 25])
def test_seq_the_decoder_leaves_to_int(tmp_path, id_graph, seq):
    # seq 8, the case's seq and seq 2, timed in seq order
    value = int(seq)
    rows = [record("a", "8", "e0", 80), record("a", seq, "e1", 10 * max(0, min(value, 9)))]
    rows.append(record("a", "2", "e6", 20))
    got = assert_trips_two_ways(tmp_path, id_graph, rows, [["a", "1"]])
    want = [1, 6, 0] if value < 2 else [6, 1, 0] if value < 8 else [6, 0, 1]
    assert got.table.edge.tolist() == want


@pytest.mark.parametrize(
    "trip_ids",
    [
        [" a", "a", "a ", "\ta"],  # one trip, its id spelled four ways
        ["trajet-é", "trajet-é", "旅", "旅"],
        ["a\x00", "a\x00", "a", "a"],  # a NUL makes another trip
    ],
)
def test_trip_ids_padded_or_not_ascii(tmp_path, id_graph, trip_ids):
    rows = [record(trip, k, "e0", 10 * k) for k, trip in enumerate(trip_ids)]
    costs = [[trip.strip(), "1"] for trip in dict.fromkeys(t.strip() for t in trip_ids)]
    got = assert_trips_two_ways(tmp_path, id_graph, rows, costs)
    assert got.ids().tolist() == [row[0] for row in costs]


@pytest.mark.parametrize(
    "edge, index",
    [(" e1", 1), ("e1 ", 1), (" e6 ", 6), ("é2", 2), (" 日本5", 5), ("e\x003", 3),
     ("edge_identifier_4", 4), ("edge_identifier_4 ", 4), ("e1\x00", None), ("é", None)],
)
def test_edge_ids_padded_or_not_ascii(tmp_path, id_graph, edge, index):
    rows = [record("a", 0, "e0", 10), record("a", 1, edge, 20)]
    got = assert_trips_two_ways(tmp_path, id_graph, rows, [["a", "1"]])
    if index is None:
        assert got == ("unknown-edge", [f"{tmp_path / 'trips.csv'}:3: unknown edge id {edge!r}"])
    else:
        assert got.table.edge.tolist() == [0, index]


def test_one_trip_in_two_blocks(tmp_path, id_graph):
    # a's rows come in two runs, split by b's and by a chunk boundary
    rows = [record("a", k, "e0", k) for k in (0, 1)] + [record("b", 0, "e1", 0)]
    rows += [record("a", k, "e6", k) for k in (2, 3, 4, 5)] + [record("b", 1, "e7", 5)]
    got = assert_trips_two_ways(tmp_path, id_graph, rows, [["b", "2"], ["a", "1"]])
    assert got.ids().tolist() == ["a", "b"]
    assert got.table.trip.tolist() == [0] * 6 + [1] * 2


@pytest.mark.parametrize("newline, bom", [("\n", False), ("\r\n", True), ("\n", True)])
def test_line_ends_and_byte_order_mark(tmp_path, id_graph, newline, bom):
    rows = [record(f"t{k // 3}", k % 3, EDGE_IDS[k % 8], k) for k in range(23)]
    costs = [[f"t{k}", f"{k}.25"] for k in range(8)]
    got = assert_trips_two_ways(tmp_path, id_graph, rows, costs, newline=newline, bom=bom)
    assert len(got) == 8


def test_faults_on_the_bytes_path(tmp_path, id_graph):
    rows = [
        record("a", "1.5", "e0", 10),
        record(" ", 1, "e0", 20),
        record("a", 2, "e0", 30)[:4] + ["07:60:00", "08:00:00"],
        record("　", 3, "e0", 30),  # a blank that is not ASCII
    ]
    got = assert_trips_two_ways(tmp_path, id_graph, rows, [["a", "1"]])
    assert [problem.split(": ", 1)[1] for problem in got[1]] == [
        "invalid literal for int() with base 10: '1.5'",
        "blank trip_id",
        "time '07:60:00' is not hh:mm:ss with minutes and seconds 00-59",
        "blank trip_id",
    ]


@pytest.mark.parametrize(
    "text",
    [
        "h0,h1\r\na\rb,1\r\n1,a\r\n",  # a lone CR inside a line of a CR LF file
        "h0,h1\r\n" + "1,a\r\n" * 6 + "a\r,b\r\n1,a\r\n",  # and in a later chunk
        "h0,h1\n" + "1,a\n" * 6 + "a\rb,1\n",  # in an LF file
    ],
)
def test_lone_cr_is_the_csv_modules(tmp_path, text):
    path = tmp_path / "file.csv"
    write_text(path, text)
    assert chunked(path, ["h0", "h1"], 2) == reference(path, ["h0", "h1"], 2)


def through_pipe(path, read):
    """``read(pipe)`` of a named pipe that a thread fills with ``path``'s bytes:
    a file that cannot seek, so the reader must not open it twice."""
    pipe = path.with_name(path.name + ".pipe")
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()))
    writer.start()
    try:
        return read(pipe)
    finally:
        writer.join()


PIPE_ROWS = [f"r{k},{k}\r\n" for k in range(2000)]  # more than one buffered read holds


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize(
    "text",
    [
        '"h0",h1\r\n' + "".join(PIPE_ROWS),  # the first chunk is not plain
        "\ufeffh0,h1\r\n" + "".join(PIPE_ROWS[:7]) + '"r,7",7\r\n' + "".join(PIPE_ROWS[8:]),
        # past the first read: a quoted line break, then a lone CR
        "h0,h1\r\n" + "".join(PIPE_ROWS[:1500]) + '"r\r\n",1500\r\n' + "".join(PIPE_ROWS[1501:]),
        "h0,h1\r\n" + "".join(PIPE_ROWS[:1500]) + "r\r,1500\r\n" + "".join(PIPE_ROWS[1501:]),
        "h0,h1\r" + "r,1\r" * 3000,  # CR line ends
    ],
    ids=["quoted-header", "quote-in-chunk-2", "quoted-line-break", "lone-cr", "cr-line-ends"],
)
def test_a_pipe_reads_as_the_file(tmp_path, text):
    path = tmp_path / "file.csv"
    write_text(path, text)
    want = reference(path, ["h0", "h1"], 2)
    assert chunked(path, ["h0", "h1"], 2) == want
    assert through_pipe(path, lambda pipe: chunked(pipe, ["h0", "h1"], 2)) == want


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("quote", [True, False])
def test_trips_through_a_pipe(tmp_path, id_graph, quote):
    # every field quoted, or only trip 90's id, which holds a comma
    names = [f"t{k}" if k != 90 else "t,90" for k in range(100)]
    rows = [record(names[k // 3], k % 3, EDGE_IDS[k % 8], k) for k in range(300)]
    trips_path, costs_path = tmp_path / "trips.csv", tmp_path / "costs.csv"
    write_rows(trips_path, TRIP_HEADER, rows, quote=quote)
    write_rows(costs_path, COST_HEADER, [[name, "1"] for name in names])
    want = load_trips(trips_path, costs_path, id_graph)
    got = through_pipe(trips_path, lambda pipe: load_trips(pipe, costs_path, id_graph))
    assert_same(got, want)
    assert got.ids().tolist() == names


@pytest.mark.parametrize(
    "length, limit",
    [("+1.5", " 30"), ("1_0.5", "٣0"), ("1e2", "nan"), (".5", "5."), ("0.000000000000001", " "),
     ("12345678901234567", "-1"), ("1.2.3", "50")],
)
def test_network_numbers_the_decoder_leaves_to_float(tmp_path, two_tag_schedule, length, limit):
    rows = [["x", "a", "b", length, limit], ["y", "b", "a", "2", ""]]
    path = tmp_path / "network.csv"
    got, quoted = two_ways(
        lambda: load_network(path, two_tag_schedule), {path: (NETWORK_HEADER, rows)}
    )
    want = outcome(load_network_rowwise, path, two_tag_schedule)
    assert_same(got, want)
    assert_same(quoted, want)


# ---------------------------------------------------------------- decoders


def column(texts):
    """The texts as a column of a chunk the csv module read."""
    _, _, (_, col) = dataio._shape([["x", t] for t in texts], np.arange(len(texts)), 2)
    return col


def plain_column(texts):
    """The texts as a column of a plain chunk."""
    columns = dataio._plain_spans("".join(f"x,{t}\n" for t in texts).encode(), len(texts), 2)
    assert columns is not None
    return columns[1]


NUMBER_TEXT = st.text(st.sampled_from(list("0123456789+-. e_٣\x00x")), max_size=18)
NUMBER_TEXT |= st.sampled_from(
    ["-0", "-0.0", "9" * 15, "9" * 16, "1" * 17, "0.1", "1.", ".5", "+.5", "-", "9007199254740993"]
)
PLAIN = st.lists(NUMBER_TEXT, max_size=12)


@settings(max_examples=300, deadline=None)
@given(texts=PLAIN)
def test_number_decoders_match_python(texts):
    for make in (column, plain_column):
        col = make(texts)
        for decode, convert, word in (
            (dataio._int_column, int, None), (dataio._float_column, float, "word {!r}")
        ):
            bad, want_bad = {}, {}
            got = decode(col, bad, word)
            want = dataio._convert(texts, convert, want_bad, word)
            assert bad == want_bad
            if convert is float:
                want = np.array([math.nan if v is None else v for v in want])
                assert got.tobytes() == want.tobytes()
            else:
                assert got.tolist() == [0 if v is None else v for v in want]


ID_TEXT = st.text(st.sampled_from(list("ab1 \t\x00é日\u00a0\u3000")), max_size=10)


@settings(max_examples=300, deadline=None)
@given(names=st.lists(ID_TEXT, max_size=8, unique=True), texts=st.lists(ID_TEXT, max_size=12))
def test_id_decoders_match_dict_lookups(names, texts):
    lookup = {name: k for k, name in enumerate(names)}
    for col in (column(texts), plain_column(texts)):
        want = [lookup.get(text.strip(), -1) for text in texts]
        assert dataio._Names(names).codes(col).tolist() == want
        for decode in (dataio._first_codes, dataio._run_codes):
            numbers, want_numbers = {}, {}
            want = [want_numbers.setdefault(text.strip(), len(want_numbers)) for text in texts]
            assert decode(col, numbers).tolist() == want
            assert numbers == want_numbers
        assert dataio._blank_rows(col).tolist() == [not text.strip() for text in texts]


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.text(st.sampled_from(list("0123456789: ")), max_size=9), max_size=10))
def test_clock_decoder_matches_parse_hhmmss(texts):
    want, want_bad = [], {}
    for i, text in enumerate(texts):
        try:
            want.append(parse_hhmmss(text.strip()))
        except ValueError as exc:
            want.append(0.0)
            want_bad[i] = str(exc)
    for col in (column(texts), plain_column(texts)):
        bad = {}
        assert dataio._clock_column(col, bad).tolist() == want
        assert bad == want_bad


# ---------------------------------------------------------------- no fallback


@pytest.mark.parametrize("spec", SHAPES)
def test_saved_datasets_decode_without_per_field_fallback(tmp_path, monkeypatch, spec):
    graph, truth, trips = generate_synthetic(spec, seed=1)
    paths = save_dataset(graph, trips, tmp_path, truth=truth)
    want_graph, want_trips, (want_weights, want_mask) = load_all(paths)
    # the schedule, a handful of rows, is converted field by field by design
    schedule = load_schedule(paths["schedule"])

    def refuse(*args, **kwargs):
        raise AssertionError("per-field fallback")

    monkeypatch.setattr(dataio, "_convert", refuse)
    monkeypatch.setattr(dataio, "parse_hhmmss", refuse)
    monkeypatch.setattr(dataio._Column, "__getitem__", refuse)
    graph = load_network(paths["network"], schedule)
    trips = load_trips(paths["trips"], paths["costs"], graph)
    weights, mask = load_weights(paths["truth"], graph)
    assert_same_graph(graph, want_graph)
    assert_same(trips, want_trips)
    assert weights.values.tobytes() == want_weights.values.tobytes()
    assert mask.tobytes() == want_mask.tobytes()
