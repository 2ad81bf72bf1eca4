"""The chunk reader every loader shares, against the csv module.

``dataio._read_chunks`` splits quote-free text on commas a chunk of lines at
a time and hands text with a quote character to ``csv.reader``. Both paths
must give what ``csv.reader`` over the whole file gives: the same line
numbers, fields and diagnostics.
"""

import csv
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadcost import dataio
from roadcost.cli import main
from roadcost.dataio import (
    load_dataset,
    load_network,
    load_schedule,
    load_trips,
    load_weights,
    save_dataset,
)
from roadcost.errors import LoadError
from roadcost.synth import SyntheticSpec, generate_synthetic

# ---------------------------------------------------------------- reference


def reference(path, header, width):
    """Every non-blank row after the header as (line, fields), or as (line,
    message) where the field count is wrong; or the LoadError's problems."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        records, rows = 0, []
        try:
            for row in csv.reader(handle):
                records += 1
                if records == 1:
                    if [h.strip() for h in row] != header:
                        return [f"{path}:1: expected header {','.join(header)}"]
                elif len(row) == width:
                    rows.append((records, row))
                elif row:
                    rows.append((records, f"expected {width} fields, got {len(row)}"))
        except csv.Error as exc:
            return [f"{path}:{records + 1}: {exc}"]
        if records == 0:
            return [f"{path}:1: empty file"]
        return rows


def chunked(path, header, width):
    """``_read_chunks``'s chunks in the reference's form."""
    filler = ("",) * width
    rows = []
    try:
        for linenos, bad, columns in dataio._read_chunks(path, header):
            assert len(linenos) <= dataio._CHUNK_ROWS
            assert len(columns) == width
            assert all(len(column) == len(linenos) for column in columns)
            for i, lineno in enumerate(linenos):
                fields = [column[i] for column in columns]
                if i in bad:
                    assert fields == list(filler)
                rows.append((lineno, bad.get(i, fields)))
    except LoadError as err:
        assert err.code == "malformed-row"
        return err.problems
    return rows


def write_text(path, text):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)


@pytest.fixture
def field_limit():
    """Set csv's field size limit for one test; the old limit is restored."""
    old = csv.field_size_limit()
    yield csv.field_size_limit
    csv.field_size_limit(old)


# ---------------------------------------------------------------- the property

ALPHABET = ["a", "1", ",", '"', "\r", "\n", " "]
QUOTE_FREE = [c for c in ALPHABET if c != '"']


@settings(max_examples=400, deadline=None)
@given(
    width=st.integers(1, 3),
    header_quoted=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    # a quote-free head, so that the first quote may come after the first chunk
    head=st.text(st.sampled_from(QUOTE_FREE), max_size=40),
    tail=st.text(st.sampled_from(ALPHABET), max_size=30),
    chunk_rows=st.integers(3, 5),
    limit=st.sampled_from([2, 3, 4, 131072]),
)
def test_reader_matches_csv_module(width, header_quoted, newline, head, tail, chunk_rows, limit):
    header = [f"h{i}" for i in range(width)]
    names = [f'"{h}"' if header_quoted else h for h in header]
    old_rows, old_limit = dataio._CHUNK_ROWS, csv.field_size_limit(limit)
    dataio._CHUNK_ROWS = chunk_rows
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.csv"
            write_text(path, ",".join(names) + newline + head + tail)
            assert chunked(path, header, width) == reference(path, header, width)
    finally:
        dataio._CHUNK_ROWS = old_rows
        csv.field_size_limit(old_limit)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "h0,h1",
        " h0 , h1 \r\n",
        "h0\n",
        "h0,h1\r\ra,1\r\n\r\n1,a\n",
        "h0,h1\na,1\n\n1,a, \n,\n\n",
        # the first quote in the third chunk of three lines, its field spanning lines
        "h0,h1\n" + "a,1\n" * 7 + 'a,"1\n\n1"\r\n1,a\n' + "a\n",
        # a field at csv's limit and one past it
        "h0,h1\naaaa,1\n1,aaaaa\n",
        'h0,h1\naaaa,1\n1,"aaaaa"\n',
        "h0,h1\r\naa,1\r\n1,a",
    ],
)
def test_reader_matches_csv_module_on_examples(tmp_path, monkeypatch, field_limit, text):
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", 3)
    field_limit(4)
    path = tmp_path / "file.csv"
    write_text(path, text)
    assert chunked(path, ["h0", "h1"], 2) == reference(path, ["h0", "h1"], 2)


# ---------------------------------------------------------------- datasets

SHAPES = [
    # the benchmark's annotate, grid-search and evaluate shapes, scaled down
    SyntheticSpec(rows=10, cols=10, n_trips=300, coverage=0.3, noise=0.05,
                  speed_limit_choices=(50.0, 100.0)),
    SyntheticSpec(rows=12, cols=12, n_trips=144, coverage=0.3, noise=0.05),
    SyntheticSpec(rows=8, cols=8, n_trips=400, coverage=0.3, noise=0.05),
]
FILES = ("network", "schedule", "trips", "costs", "truth")


def load_all(paths):
    graph, trips = load_dataset(paths["network"], paths["schedule"], paths["trips"], paths["costs"])
    return graph, trips, load_weights(paths["truth"], graph)


def assert_same(got, want):
    (graph, trips, (weights, mask)), (graph2, trips2, (weights2, mask2)) = got, want
    assert graph.vertex_ids == graph2.vertex_ids and graph.edge_ids == graph2.edge_ids
    for a, b in [
        (graph.tails, graph2.tails),
        (graph.heads, graph2.heads),
        (graph.lengths, graph2.lengths),
        (graph.speed_limits, graph2.speed_limits),
        *zip(trips.table, trips2.table),
        (trips.costs(), trips2.costs()),
        (weights.values, weights2.values),
        (mask, mask2),
    ]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert graph.tag_schedule == graph2.tag_schedule


def quote_all(paths, out_dir):
    """The dataset with every field quoted, which the csv module must read."""
    out_dir.mkdir()
    quoted = {}
    for name in FILES:
        with open(paths[name], newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        quoted[name] = out_dir / paths[name].name
        with open(quoted[name], "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, quoting=csv.QUOTE_ALL).writerows(rows)
    return quoted


@pytest.mark.parametrize("spec", SHAPES)
def test_saved_datasets_load_without_the_csv_module(tmp_path, monkeypatch, spec):
    graph, truth, trips = generate_synthetic(spec, seed=1)
    paths = save_dataset(graph, trips, tmp_path / "plain", truth=truth)
    csv_read = load_all(quote_all(paths, tmp_path / "quoted"))

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", no_reader)
    assert_same(load_all(paths), csv_read)


@pytest.mark.parametrize("name", FILES)
def test_byte_order_mark_is_dropped(tmp_path, name):
    graph, truth, trips = generate_synthetic(SHAPES[1], seed=2)
    paths = save_dataset(graph, trips, tmp_path, truth=truth)
    want = load_all(paths)
    paths[name].write_bytes(b"\xef\xbb\xbf" + paths[name].read_bytes())
    assert_same(load_all(paths), want)


@pytest.mark.parametrize("day_class", ["day_class", '"day_class"'])
def test_byte_order_mark_before_a_plain_or_quoted_header(tmp_path, day_class):
    path = tmp_path / "schedule.csv"
    path.write_text(
        f"{day_class},start_hhmm,end_hhmm,tag\nweekday,00:00,24:00,ALL\nweekend,00:00,24:00,ALL\n",
        encoding="utf-8-sig",
    )
    assert load_schedule(path).tags == ("ALL",)


def test_byte_order_mark_alone_is_an_empty_file(tmp_path):
    path = tmp_path / "schedule.csv"
    path.write_bytes(b"\xef\xbb\xbf")
    with pytest.raises(LoadError) as err:
        load_schedule(path)
    assert err.value.problems == [f"{path}:1: empty file"]


# ---------------------------------------------------------------- csv's field limit


@pytest.mark.parametrize("quote", [False, True])
def test_long_field_exits_2_naming_its_line(tmp_path, capsys, quote):
    graph, truth, trips = generate_synthetic(SHAPES[1], seed=3)
    paths = save_dataset(graph, trips, tmp_path / "data", truth=truth)
    lines = paths["trips"].read_text().splitlines()
    fields = lines[3].split(",")
    fields[2] = "e" * 140_000
    lines[3] = ",".join(fields)
    if quote:  # the csv module reads the file from its first row on
        lines[1] = '"' + lines[1].replace(",", '",', 1)
    paths["trips"].write_text("\n".join(lines) + "\n")
    code = main(
        ["annotate", "--network", str(paths["network"]), "--schedule", str(paths["schedule"]),
         "--trips", str(paths["trips"]), "--costs", str(paths["costs"]),
         "--out", str(tmp_path / "w.csv"), "--report", str(tmp_path / "r.json")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{paths['trips']}:4: field larger than field limit (131072)" in captured.err


def test_field_at_the_limit_loads(tmp_path):
    graph, _, _ = generate_synthetic(SyntheticSpec(rows=2, cols=2, n_trips=0), seed=0)
    path = tmp_path / "network.csv"
    lines = [",".join(("edge_id", "tail", "head", "length_m", "speed_limit_kmh"))]
    lines.append(",".join(("e" * 131_072, "a", "b", "1", "")))
    path.write_text("\n".join(lines) + "\n")
    assert load_network(path, graph.tag_schedule).edge_ids == ("e" * 131_072,)


@pytest.mark.parametrize("loader", ["network", "costs", "weights"])
def test_long_field_in_every_loader(tmp_path, field_limit, loader):
    graph, truth, trips = generate_synthetic(SHAPES[1], seed=4)
    paths = save_dataset(graph, trips, tmp_path, truth=truth)
    name = "truth" if loader == "weights" else loader
    lines = paths[name].read_text().splitlines()
    lines[2] = "x" * 100 + lines[2]
    paths[name].write_text("\n".join(lines) + "\n")
    field_limit(64)
    with pytest.raises(LoadError) as err:
        if loader == "network":
            load_network(paths["network"], graph.tag_schedule)
        elif loader == "costs":
            load_trips(paths["trips"], paths["costs"], graph)
        else:
            load_weights(paths["truth"], graph)
    assert err.value.code == "malformed-row"
    assert err.value.problems == [f"{paths[name]}:3: field larger than field limit (64)"]

