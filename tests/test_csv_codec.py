"""The one CSV writer against ``csv.writer``, and the loaders on bytes that are
not UTF-8 and on a trips file given without its costs (or the reverse)."""

import csv
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadcost import dataio
from roadcost.cli import main
from roadcost.dataio import load_dataset, load_trips, save_dataset, write_csv
from roadcost.errors import LoadError
from roadcost.synth import SyntheticSpec, generate_synthetic

# ---------------------------------------------------------------- the writer

FIELDS = st.text(st.sampled_from(["a", ",", '"', "\r", "\n", " "]), max_size=4)


@st.composite
def tables(draw):
    """(width, rows a chunk, rows) with up to three chunks of rows."""
    width = draw(st.integers(2, 4))
    chunk_rows = draw(st.integers(1, 4))
    row = st.lists(FIELDS, min_size=width, max_size=width)
    return width, chunk_rows, draw(st.lists(row, max_size=3 * chunk_rows))


@settings(max_examples=300, deadline=None)
@given(tables())
def test_write_csv_matches_csv_writer(table):
    width, chunk_rows, rows = table
    header = [f"h{i}" for i in range(width)]
    columns = [list(column) for column in zip(*rows)]
    want = io.StringIO(newline="")
    csv.writer(want).writerows([header, *rows])
    old_rows = dataio._CHUNK_ROWS
    dataio._CHUNK_ROWS = chunk_rows
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file.csv"
            write_csv(path, header, len(rows), lambda part: [c[part] for c in columns])
            assert path.read_bytes() == want.getvalue().encode("utf-8")
    finally:
        dataio._CHUNK_ROWS = old_rows


def test_write_csv_without_rows_writes_the_header(tmp_path):
    write_csv(tmp_path / "file.csv", ["a", "b"], 0, None)
    assert (tmp_path / "file.csv").read_bytes() == b"a,b\r\n"


# ---------------------------------------------------------------- bytes that are not UTF-8


@pytest.fixture
def dataset_12x12(tmp_path):
    graph, truth, trips = generate_synthetic(
        SyntheticSpec(rows=12, cols=12, n_trips=144, coverage=0.3, noise=0.05), seed=1
    )
    return graph, save_dataset(graph, trips, tmp_path / "data", truth=truth)


def spoil_trip_id(path, line):
    """Put the byte 0xff into the trip id on ``line`` (1-based) of ``path``."""
    lines = path.read_bytes().split(b"\r\n")
    lines[line - 1] = lines[line - 1][:1] + b"\xff" + lines[line - 1][1:]
    path.write_bytes(b"\r\n".join(lines))


@pytest.mark.parametrize("line", [1, 6, 400])
def test_byte_that_is_not_utf8_names_its_line(dataset_12x12, line):
    graph, paths = dataset_12x12
    if line == 400:  # past the first 8 KB block that is decoded
        assert len(b"\r\n".join(paths["trips"].read_bytes().split(b"\r\n")[:399])) > 8192
    spoil_trip_id(paths["trips"], line)
    with pytest.raises(LoadError) as err:
        load_trips(paths["trips"], paths["costs"], graph)
    assert err.value.code == "malformed-row"
    assert err.value.problems == [f"{paths['trips']}:{line}: not UTF-8 text (byte 0xff)"]


def test_byte_that_is_not_utf8_exits_2(dataset_12x12, tmp_path, capsys):
    _, paths = dataset_12x12
    spoil_trip_id(paths["trips"], 6)
    code = main(
        ["annotate", "--network", str(paths["network"]), "--schedule", str(paths["schedule"]),
         "--trips", str(paths["trips"]), "--costs", str(paths["costs"]),
         "--out", str(tmp_path / "w.csv"), "--report", str(tmp_path / "r.json")]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{paths['trips']}:6: not UTF-8 text (byte 0xff)" in captured.err


# ---------------------------------------------------------------- trips and costs go together


@pytest.mark.parametrize("given_file", ["trips", "costs"])
def test_load_dataset_rejects_trips_or_costs_alone(dataset_12x12, given_file):
    _, paths = dataset_12x12
    alone = {f"{given_file}_path": paths[given_file]}
    with pytest.raises(ValueError, match="trips and costs"):
        load_dataset(paths["network"], paths["schedule"], **alone)
