"""The CSV codec of roadcost: the dataset loaders, with per-row diagnostics,
and ``write_csv``, which writes every CSV file roadcost writes.

Files are UTF-8 (a leading byte order mark allowed), comma separated, and
start with the header ``HEADERS`` names for their format. A network's blank
speed limit is no limit, but a blank id, vertex or tag is an error; a
schedule's day ends at 24:00.

Every loader is columnar: ``_read_columns`` hands it ``_CHUNK_ROWS`` rows at
a time as columns of fields, and it words a diagnostic only for a row that
fails a check, as a row-by-row pass would (the first check). The reader
collects them and raises them together, in file order, so one run reports
all problems.

The reader reads a file as bytes, a chunk of lines at a time. A plain chunk
(no quote, one kind of line end, the format's field count on every line) is
tokenized by one numpy pass over its bytes that finds every comma and line
end; from the first chunk that is not plain, ``csv.reader`` reads the rest of
the file as text, from that chunk's bytes on through the same handle, so every
corner case of the format is the csv module's and a pipe reads as a file.
Either way a column (``_Column``) holds byte spans of the chunk's UTF-8 bytes,
and the loaders decode whole columns from them: ids by binary search among
the byte keys of the known names (``_Names``), trip ids by runs of equal
bytes, vertex ids by their distinct bytes, seq and numbers by digit
arithmetic, clocks as hh:mm:ss bytes. A field that a column decoder cannot
read exactly as Python would (a sign, spaces, ``1_0``, other scripts' digits,
too many digits, an id padded with spaces or unknown) goes through the
per-field conversion on its own, so the loaded arrays and the diagnostics are
those of a row-by-row pass. No Python object is made per field, except the
ids a loader keeps: the network's edge ids and the costs' trip ids.

The network loader fills the ``RoadGraph`` arrays, the trip loader a
``TripSet``'s record table; ``Trip`` objects are built only to word a bad
trip's diagnostic, or on each iteration or index of the set; none is kept.

``write_csv`` writes from columns of field texts, a chunk at a time, the bytes
``csv.writer`` writes; writers are deterministic for identical inputs.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import itertools
import math
import os
import re
import stat
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
# The largest length_m and cost a loader accepts. No road runs 10,000 km
# between two junctions. ||Q c|| grows with length times cost, and overflowed
# from costs of 1e151 on 130 m edges: 1e100 at 1e7 m stays far below that.
MAX_LENGTH_M = 1e7
MAX_COST = 1e100
_FLOAT_FMT = "%.12g"
# rows read or written at a time: bounds the CSV text held in memory
_CHUNK_ROWS = 4096
# unsigned decimal fields; 24:00 and 24:00:00 (end of day) pass the range checks
_HHMM = re.compile(r"(\d+):([0-5]\d)", re.ASCII)
_HHMMSS = re.compile(r"(\d+):([0-5]\d):([0-5]\d)", re.ASCII)
# what csv.writer quotes in a field
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
# a chunk of rows: line numbers, diagnostics by index in the chunk, field columns
_Chunk = tuple[np.ndarray, dict[int, str], list["_Column"]]
# Digit arithmetic reads a number from a window of _WINDOW bytes, which holds
# the 15 digits a double holds exactly and a point. Every field has
# _WINDOW bytes of its chunk's text or of _PAD before and after it, so a window
# that size around a field stays in the chunk.
_WINDOW = 16
_PAD = bytes(_WINDOW)
_PLACES = np.arange(_WINDOW - 1, -1, -1, dtype=np.uint8)  # a window column's place from the right
_INSIDE = _PLACES < np.arange(_WINDOW + 1)[:, None]  # by length: the window columns it fills
_POW10 = 10 ** np.arange(_WINDOW, dtype=np.int64)
# ASCII bytes that str.strip keeps: a field that starts with one is not blank
_SOLID_BYTES = np.zeros(256, dtype=bool)
_SOLID_BYTES[[b for b in range(128) if not chr(b).isspace()]] = True


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


class _Column:
    """A column of a chunk's fields, held as byte spans: field i is the UTF-8
    text ``data[start[i]:end[i]]`` of the chunk's bytes ``data``, which begin
    and end with ``_PAD``; the fields are in file order. Indexing decodes one
    field; the decoders below read whole columns as bytes."""

    __slots__ = ("data", "start", "end")

    def __init__(self, data: bytes, start: np.ndarray, end: np.ndarray):
        self.data, self.start, self.end = data, start, end

    @staticmethod
    def of(texts: Sequence[str]) -> _Column:
        """A column of ``texts``, encoded as one chunk."""
        text = "".join(texts)
        if text.isascii():  # one byte a character
            data, sizes = text.encode(), np.fromiter(map(len, texts), np.int64, len(texts))
        else:  # a file's text holds no surrogate, but a name made in memory may
            encoded = [t.encode("utf-8", "surrogatepass") for t in texts]
            data, sizes = b"".join(encoded), np.fromiter(map(len, encoded), np.int64, len(texts))
        end = np.cumsum(sizes) + len(_PAD)
        return _Column(_PAD + data + _PAD, end - sizes, end)

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, i: int) -> str:
        return self.data[self.start[i] : self.end[i]].decode()

    def texts(self, rows: np.ndarray | slice | None = None) -> list[str]:
        """The text of every field, or of the fields ``rows`` indexes, in order."""
        start, end = (self.start, self.end) if rows is None else (self.start[rows], self.end[rows])
        if not len(start):
            return []
        first = int(start[0])  # decode the bytes from the first field to the last, once
        data = self.data[first : int(end[-1])]
        spans = zip((start - first).tolist(), (end - first).tolist())
        if data.isascii():  # byte offsets are character offsets
            text = data.decode()
            return [text[a:b] for a, b in spans]
        return [data[a:b].decode() for a, b in spans]

    def lengths(self) -> np.ndarray:
        return self.end - self.start

    def groups(self) -> Iterator[tuple[int, np.ndarray]]:
        """(length, rows) for each length in bytes of a field, with the rows
        (ascending) whose field has that length."""
        lengths = self.lengths()
        if len(lengths) and lengths.min() == lengths.max():
            yield int(lengths[0]), np.arange(len(lengths))
            return
        order = np.argsort(lengths, kind="stable")
        ordered = lengths[order]
        cuts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(order)]
        for a, b in zip(cuts[:-1], cuts[1:]) if len(order) else ():
            yield int(ordered[a]), order[a:b]

    def bytes_of(self, rows: np.ndarray, length: int) -> np.ndarray:
        """The fields of ``rows``, each ``length`` bytes long, as a uint8 array
        of one row per field."""
        windows = np.ndarray(
            (len(self.data) - length + 1, length), dtype=np.uint8, buffer=self.data, strides=(1, 1)
        )
        return windows[self.start[rows]]

    def keys_of(self, rows: np.ndarray, length: int) -> np.ndarray:
        """The fields of ``rows``, each ``length`` bytes long (1 or more), as
        keys that are equal when the bytes are, ordered as the bytes: the
        big-endian integer of up to 8 bytes, and fixed-width bytes beyond."""
        if length > 8:
            return self.bytes_of(rows, length).view(f"S{length}").ravel()
        words = np.ndarray((len(self.data) - 7,), dtype=">u8", buffer=self.data, strides=(1,))
        return words[self.start[rows]] >> np.uint64(64 - 8 * length)


def _plain_spans(chunk: bytes, n: int, width: int) -> Optional[list[_Column]]:
    """The ``width`` columns of fields of the ``n`` lines ``chunk`` holds if
    they are plain, else None: no quote, every line ended by CR LF or every one
    by LF (and no CR at all), none over csv's field size limit, each with
    ``width`` fields, at least two (so no blank line). csv.reader reads plain
    lines as these fields.

    One pass over the chunk's bytes finds every comma and LF; row k's fields
    end at its ``width`` delimiters, the last one before its line end.
    """
    data = _PAD + chunk + _PAD
    if b'"' in data:
        return None
    line_end = 2 if b"\r" in data else 1  # CR LF or LF; checked below
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = ((buf == ord(",")) | (buf == ord("\n"))).nonzero()[0]
    # Each line holds one LF, at its end, or none if it is the file's last: so
    # there are n LFs or n - 1, and they are every width-th delimiter iff every
    # row has width fields.
    if width < 2 or len(ends) != n * width:
        return None
    line_ends = ends[width - 1 :: width]
    if not (buf[line_ends] == ord("\n")).all():
        return None
    if line_end == 2 and not (
        np.count_nonzero(buf == ord("\r")) == n and (buf[line_ends - 1] == ord("\r")).all()
    ):
        return None  # a lone CR, or mixed line ends
    limit = csv.field_size_limit()  # a line's bytes are at least its characters
    if len(data) > limit:
        line_starts = np.append(len(_PAD), line_ends[:-1] + 1)
        for a, b in zip(line_starts.tolist(), (line_ends + 1).tolist()):
            if b - a > limit and len(data[a:b].decode()) > limit:
                return None
    starts = np.empty_like(ends)  # each field starts past the delimiter before it
    starts[1:] = ends[:-1] + 1
    starts[:1] = len(_PAD)
    line_ends += 1 - line_end  # the last field ends before the line break
    return [_Column(data, starts[j::width], ends[j::width]) for j in range(width)]


def _shape(rows: list[list[str]], linenos: np.ndarray, width: int) -> _Chunk:
    """Line numbers and columns of the non-blank ``rows``, and a message for
    each row without ``width`` fields; such rows contribute empty fields. The
    columns hold spans of the fields' UTF-8 bytes, as a plain chunk's do."""
    if not all(rows):
        linenos = linenos[np.fromiter(map(bool, rows), dtype=bool, count=len(rows))]
        rows = [row for row in rows if row]
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    wrong = np.flatnonzero(counts != width).tolist()
    if wrong:
        rows = [row if len(row) == width else ("",) * width for row in rows]
    messages = {i: f"expected {width} fields, got {counts[i]}" for i in wrong}
    fields = _Column.of(list(itertools.chain.from_iterable(rows)))
    starts, ends = fields.start.reshape(-1, width), fields.end.reshape(-1, width)
    columns = [_Column(fields.data, starts[:, j], ends[:, j]) for j in range(width)]
    return linenos, messages, columns


def _check_header(path: Path, names: Sequence[str], header: Sequence[str]) -> None:
    if [name.strip() for name in names] != list(header):
        raise LoadError("malformed-row", [f"{path}:1: expected header {','.join(header)}"])


def _not_utf8(path: Path, lineno: int, head: bytes, byte: int, after_cr: bool = False) -> str:
    """The diagnostic for a byte that is not UTF-8, read after ``head``, whose
    first byte starts line ``lineno`` (after a CR when ``after_cr``)."""
    return f"{path}:{lineno + _line_ends(head, after_cr)}: not UTF-8 text (byte 0x{byte:02x})"


def _line_ends(data: bytes, after_cr: bool) -> int:
    """Line ends in ``data`` as the reader counts them (LF, CR LF or a lone CR),
    the first byte following a CR when ``after_cr``."""
    crlf = data.count(b"\r\n") + (after_cr and data[:1] == b"\n")
    return data.count(b"\n") + data.count(b"\r") - crlf


def _read_columns(path: Path, header: Sequence[str]) -> Iterator[_Chunk]:
    """``_read_chunks``'s chunks, then a ``LoadError`` "malformed-row" with
    every row's diagnostic in file order, if any row has one. The caller adds
    to a chunk's ``bad`` (by index in the chunk: the first check each row
    fails) before it asks for the next chunk."""
    messages: dict[int, str] = {}  # by line
    for linenos, bad, columns in _read_chunks(path, header):
        yield linenos, bad, columns
        messages.update((int(linenos[i]), message) for i, message in bad.items())
    if messages:
        raise LoadError("malformed-row", [f"{path}:{n}: {messages[n]}" for n in sorted(messages)])


def _read_chunks(path: Path, header: Sequence[str]) -> Iterator[_Chunk]:
    """Line numbers, field-count diagnostics and field columns (``_Column``) of
    the non-blank rows after the header, at most ``_CHUNK_ROWS`` rows at a
    time; the last chunk may be empty. A row without ``len(header)`` fields
    gets a diagnostic (keyed by its index in the chunk) and contributes empty
    fields.

    Line numbers count CSV records from the header's 1, blank rows included.
    Fields are csv.reader's, surrounding spaces kept. The header with the
    first ``_CHUNK_ROWS`` lines, then each next ``_CHUNK_ROWS``, is read as
    bytes and tokenized at once if it is plain; from the first that is not,
    csv.reader reads the rest of the file as text, from that chunk's bytes on
    through the same handle, so a pipe reads as a file does. A leading UTF-8
    byte order mark is dropped; a byte that is not UTF-8 stops the load.
    """
    width, lineno = len(header), 1  # the line the next chunk starts on
    with open(path, "rb") as handle:
        for data, n, rest in _line_chunks(handle):
            if lineno == 1 and n == 0:
                raise LoadError("malformed-row", [f"{path}:1: empty file"])
            if n is not None and not data.isascii():
                try:
                    data.decode()
                except UnicodeDecodeError as exc:
                    message = _not_utf8(path, lineno, data[: exc.start], data[exc.start])
                    raise LoadError("malformed-row", [message]) from None
            columns = None if n is None else _plain_spans(data, n, width)
            if columns is None:
                break
            if lineno == 1:
                _check_header(path, [c.texts(slice(0, 1))[0] for c in columns], header)
                columns = [_Column(c.data, c.start[1:], c.end[1:]) for c in columns]
                lineno, n = 2, n - 1
            yield np.arange(lineno, lineno + n), {}, columns
            lineno += n
            if n < _CHUNK_ROWS:
                return
        resumed = _Resumed(data + rest, handle, lineno)
        text = io.TextIOWrapper(resumed, encoding="utf-8", newline="")
        try:
            reader = csv.reader(text)
            if lineno == 1:  # the file has a line, or it would be plain
                _check_header(path, *_csv_rows(reader, path, 1, 1), header)
                lineno = 2
            while True:
                rows = _csv_rows(reader, path, lineno, _CHUNK_ROWS)
                yield _shape(rows, np.arange(lineno, lineno + len(rows)), width)
                lineno += len(rows)
                if len(rows) < _CHUNK_ROWS:
                    return
        except UnicodeDecodeError as exc:
            raise LoadError("malformed-row", [resumed.not_utf8(path, exc)]) from None


class _Resumed(io.BytesIO):
    """A binary stream of ``head``, then what ``handle`` has left, ``head``
    starting line ``lineno``. It keeps its latest block and the line that
    block starts on, which place a decode error."""

    def __init__(self, head: bytes, handle, lineno: int):
        super().__init__(head)
        self.handle = handle
        self.latest, self.lineno, self.after_cr = b"", lineno, False

    def read1(self, size: int = -1) -> bytes:
        block = super().read1(size) or self.handle.read1(size)
        self.lineno += _line_ends(self.latest, self.after_cr)
        self.after_cr = self.latest[-1:] == b"\r" if self.latest else self.after_cr
        self.latest = block
        return block

    def not_utf8(self, path: Path, exc: UnicodeDecodeError) -> str:
        """``_not_utf8`` for the decoder's error ``exc``. The decoder's input
        ends with the latest block; what precedes that block in it is part of
        a character, which holds no line end."""
        at = len(self.latest) - (len(exc.object) - exc.start)
        head = self.latest[: max(at, 0)]
        return _not_utf8(path, self.lineno, head, exc.object[exc.start], self.after_cr)


def _line_chunks(handle) -> Iterator[tuple[bytes, Optional[int], bytes]]:
    """The lines of a binary file, the header and ``_CHUNK_ROWS`` more first,
    then ``_CHUNK_ROWS`` at a time (fewer at its end): each chunk's bytes, its
    line count (lines ending with LF) and the bytes read past it. A leading
    UTF-8 byte order mark is dropped. Each read asks for about what the missing
    lines take, judged by the lines read so far, and for no more than a regular
    file has left.

    A CR that no LF follows ends a line of its own, which only csv.reader
    reads; such a chunk is not plain. Once the CRs outnumber the LFs by two, one
    of them is such a CR before the chunk's end, and the bytes read so far come
    as a chunk of no line count; so a file of CR line ends is not read whole.
    """
    info = os.fstat(handle.fileno())
    left = info.st_size if stat.S_ISREG(info.st_mode) else math.inf  # bytes not yet read
    pending = handle.read(io.DEFAULT_BUFFER_SIZE)
    eof, left = len(pending) < io.DEFAULT_BUFFER_SIZE, left - len(pending)  # short only at the end
    pending = pending[len(codecs.BOM_UTF8) :] if pending.startswith(codecs.BOM_UTF8) else pending
    buf = np.frombuffer(pending, dtype=np.uint8)
    ends, crs = np.flatnonzero(buf == ord("\n")), np.count_nonzero(buf == ord("\r"))
    want = _CHUNK_ROWS + 1
    while True:
        while len(ends) < want and not eof:
            if crs > len(ends) + 1:
                yield pending, None, b""
                return
            per_line = len(pending) // (len(ends) + 1) + 1
            size = max(io.DEFAULT_BUFFER_SIZE, min((want - len(ends)) * per_line, left))
            block = handle.read(size)
            eof, left = len(block) < size, left - len(block)
            buf = np.frombuffer(block, dtype=np.uint8)
            ends = np.concatenate([ends, np.flatnonzero(buf == ord("\n")) + len(pending)])
            crs += np.count_nonzero(buf == ord("\r"))
            pending += block
        if len(ends) < want:  # the end of the file, the last line maybe without a line end
            yield pending, len(ends) + (len(pending) > (ends[-1] + 1 if len(ends) else 0)), b""
            return
        cut = int(ends[want - 1]) + 1
        rest = pending[cut:]
        yield pending[:cut], want, rest
        pending, ends, want = rest, ends[want:] - cut, _CHUNK_ROWS
        crs = np.count_nonzero(np.frombuffer(pending, dtype=np.uint8) == ord("\r"))


def write_csv(
    path: str | Path,
    header: Sequence[str],
    n_rows: int,
    columns_of: Callable[[slice], Iterable],
    quoted: bool = False,
) -> None:
    """Write ``header``, then ``n_rows`` rows whose columns of field texts
    ``columns_of(part)`` gives for each slice ``part`` of ``_CHUNK_ROWS`` rows,
    as the bytes ``csv.writer`` writes for rows of two or more fields. With
    ``quoted`` the columns hold those fields already and nothing is scanned:
    the dataset and weights writers quote each distinct name once
    (``_quoted``), and a number, clock or flag never needs it."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            columns = columns_of(slice(start, start + _CHUNK_ROWS))
            if not quoted:
                columns = map(_quoted, columns)
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


def _convert(texts: Sequence[str], convert, bad: dict[int, str], word: str | None = None) -> list:
    """``convert`` of every stripped field, None where it fails. A failing
    field's row gets ``word.format(field)`` (the error's text without ``word``)
    in ``bad`` unless it has a diagnostic; called before the reader is asked
    for the next chunk."""
    try:
        # int(), float() and the time parsers ignore surrounding whitespace
        return list(map(convert, texts))
    except ValueError:
        pass
    values = []
    for i, text in enumerate(texts):
        try:
            values.append(convert(text.strip()))
        except ValueError as exc:
            values.append(None)
            bad.setdefault(i, str(exc) if word is None else word.format(text.strip()))
    return values


def _fallback(column: _Column, rows: list[int], convert, bad: dict[int, str], word=None) -> list:
    """``_convert`` of the fields of ``rows``, one at a time: a failing field's
    row gets its diagnostic in ``bad`` unless it has one."""
    failed: dict[int, str] = {}
    values = _convert(column.texts(rows), convert, failed, word)
    for k, message in failed.items():
        bad.setdefault(rows[k], message)
    return values


def _decimals(column: _Column) -> tuple[np.ndarray, ...]:
    """Each field read as ``digits[.digits]`` in at most ``_WINDOW`` bytes:
    whether it has that form, its digits as one integer, and its number of
    decimals and of points.

    Each field is read from a window of 8 bytes (if no field is longer) or 16
    that ends where it ends, so the byte in window column j of w has place
    10**(w - 1 - j), and each row's sums are its product with a vector (of
    ones, places or powers of ten). The point takes a place of its own, which
    is taken out of the integer afterwards.
    """
    lengths = column.lengths()
    width = 8 if len(lengths) and lengths.max() <= 8 else _WINDOW
    size = len(column.data) - width + 1
    windows = np.ndarray((size, width), np.uint8, column.data, strides=(1, 1))
    text = windows[column.end - width]
    inside = _INSIDE[np.minimum(lengths, width), _WINDOW - width :]
    digit = text - np.uint8(ord("0"))  # other bytes wrap past 9
    is_digit = (digit <= 9) & inside
    point = (text == ord(".")) & inside
    ones, places = np.ones(width, np.uint8), _PLACES[_WINDOW - width :]
    digits, points = is_digit.view(np.uint8) @ ones, point.view(np.uint8) @ ones
    form = (digits > 0) & (points <= 1) & (digits + points == lengths)  # nothing else
    whole = (digit * is_digit) @ _POW10[places]  # a point or a byte before the field is a 0
    decimals = np.minimum(point.view(np.uint8) @ places, width - 1)
    if points.any():
        low = _POW10[decimals]
        whole = np.where(points > 0, whole // (low * 10) * low + whole % low, whole)
    return form, whole, decimals, points


def _int_column(column: _Column, bad: dict[int, str], word: str | None = None) -> np.ndarray:
    """``int`` of every field, 0 where it fails, worded as ``_convert`` words
    it: int64, or Python ints if a value is beyond int64.

    A field of ASCII digits, at most ``_WINDOW`` of them, is read by digit
    arithmetic (``_decimals``); any other (a sign, spaces, ``1_0``, other
    scripts' digits, more digits) goes through ``_convert`` on its own.
    """
    form, whole, _, points = _decimals(column)
    read = form & (points == 0)
    values = np.where(read, whole, 0)
    slow = np.flatnonzero(~read).tolist()
    if slow:
        parsed = _fallback(column, slow, int, bad, word)
        parsed = [0 if value is None else value for value in parsed]
        try:
            values[slow] = parsed
        except OverflowError:
            values = values.astype(object)
            values[slow] = parsed
    return values


def _float_column(
    column: _Column, bad: dict[int, str], word: str, read: Optional[np.ndarray] = None
) -> np.ndarray:
    """``float`` of every field (of the rows ``read`` marks, if given), NaN
    where it fails or is not read; a failure is worded as ``_convert`` words it.

    A field of the form ``digits[.digits]`` is read by digit arithmetic
    (``_decimals``): its digits as an integer over the power of ten of its
    decimals. Either it has no point, and the integer's conversion is the one
    rounding, or at most 15 digits, so both numbers are exact doubles and the
    division is: float()'s correctly rounded value either way. Any other field
    (a sign, an exponent, spaces, ``1_0``, ``nan``, other scripts' digits, more
    digits) goes through ``_convert`` on its own.
    """
    read = np.ones(len(column), dtype=bool) if read is None else read
    if not read.any():
        return np.full(len(column), math.nan)
    form, whole, decimals, _ = _decimals(column)
    fast = form & read
    values = np.where(fast, whole / _POW10[decimals], math.nan)
    slow = np.flatnonzero(read & ~fast).tolist()
    if slow:
        parsed = _fallback(column, slow, float, bad, word)
        values[slow] = [math.nan if value is None else value for value in parsed]
    return values


def _clock_column(column: _Column, bad: dict[int, str]) -> np.ndarray:
    """``parse_hhmmss`` of every field, 0 where it fails. A failing field's row
    gets the parser's error in ``bad`` unless it has a diagnostic; called
    before the reader is asked for the next chunk.

    Fields of the form hh:mm:ss are decoded together as one byte array; any
    other field goes through ``parse_hhmmss`` on its own.
    """
    rows = np.flatnonzero(column.lengths() == 8)
    raw = column.bytes_of(rows, 8)
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
    minutes = np.zeros(len(column))
    minutes[rows[good]] = seconds[good] / 60.0
    slow = np.ones(len(column), dtype=bool)
    slow[rows[good]] = False
    for i in np.flatnonzero(slow).tolist():
        try:
            minutes[i] = parse_hhmmss(column[i].strip())
        except ValueError as exc:
            bad.setdefault(i, str(exc))
    return minutes


class _Names:
    """Names coded by their position, as ``lookup`` (a dict built when first
    needed) and as ``keys``, which match the fields of a file without decoding
    them: for each length in bytes, the ``_Column.keys_of`` of the names of
    that length, sorted, and the code of each. A name that is empty or has
    surrounding whitespace has no key, since no stripped field equals its bytes.
    """

    def __init__(self, names: Sequence[str]):
        self.names = names
        column = _Column.of(names)
        buf, filled = np.frombuffer(column.data, dtype=np.uint8), column.lengths() > 0
        keyed = filled & _SOLID_BYTES[buf[column.start]] & _SOLID_BYTES[buf[column.end - 1]]
        for code in np.flatnonzero(filled & ~keyed).tolist():  # not ASCII at an end
            keyed[code] = names[code] == names[code].strip()
        self.keys = {}
        for length, codes in column.groups():
            codes = codes[keyed[codes]]
            if len(codes):
                keys = column.keys_of(codes, length)
                order = np.argsort(keys, kind="stable")
                self.keys[length] = (keys[order], codes[order])

    @functools.cached_property
    def lookup(self) -> dict[str, int]:
        return {name: code for code, name in enumerate(self.names)}

    def codes(self, column: _Column) -> np.ndarray:
        """The code of every stripped field, -1 where it names none. A field
        whose bytes are a key takes that key's code, found by binary search;
        any other field (padded with spaces, holding another spelling, or
        unknown) is decoded, stripped and looked up."""
        codes = np.full(len(column), -1, dtype=np.int64)
        found = np.zeros(len(column), dtype=bool)
        for length, rows in column.groups():
            if length in self.keys:
                keys, key_codes = self.keys[length]
                fields = column.keys_of(rows, length)
                at = np.minimum(np.searchsorted(keys, fields), len(keys) - 1)
                hit = keys[at] == fields
                codes[rows[hit]] = key_codes[at[hit]]
                found[rows[hit]] = True
        for i in np.flatnonzero(~found).tolist():
            codes[i] = self.lookup.get(column[i].strip(), -1)
        return codes


_DAYS = _Names(DAY_CLASSES)


def _run_codes(column: _Column, numbers: dict[str, int]) -> np.ndarray:
    """``numbers.setdefault(stripped field, len(numbers))`` of every field in
    order. Only the first field of each run of equal fields is decoded, so a
    file that keeps a trip's rows together decodes about one field per trip; a
    run of a text already numbered, as of a trip whose rows are apart, gets
    its number."""
    lengths = column.lengths()
    head = np.ones(len(column), dtype=bool)  # a field unlike the one before it
    for length, rows in column.groups():
        rows = rows[rows > 0]
        rows = rows[lengths[rows - 1] == length]
        if length:
            head[rows] = column.keys_of(rows, length) != column.keys_of(rows - 1, length)
        else:
            head[rows] = False
    numbered = [numbers.setdefault(text.strip(), len(numbers)) for text in column.texts(head)]
    return np.array(numbered, dtype=np.int64)[np.cumsum(head) - 1]


def _first_codes(column: _Column, numbers: dict[str, int]) -> np.ndarray:
    """``numbers.setdefault(stripped field, len(numbers))`` of every field in
    order; each distinct field is decoded once, in order of first appearance."""
    parts = []  # rows of one length, each distinct field's first row, field by distinct
    for length, rows in column.groups():
        if length:
            keys = column.keys_of(rows, length)
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        else:
            first, inverse = np.zeros(1, dtype=np.int64), np.zeros(len(rows), dtype=np.int64)
        parts.append((rows, rows[first], inverse))
    heads = np.sort(np.concatenate([head for _, head, _ in parts] or [np.zeros(0, np.int64)]))
    texts = column.texts(heads)
    number = {i: numbers.setdefault(t.strip(), len(numbers)) for i, t in zip(heads.tolist(), texts)}
    codes = np.zeros(len(column), dtype=np.int64)
    for rows, head, inverse in parts:
        codes[rows] = np.array([number[i] for i in head.tolist()], dtype=np.int64)[inverse]
    return codes


def _blank_rows(column: _Column) -> np.ndarray:
    """Whether each field is blank: empty, or only what str.strip removes. A
    field that starts with another ASCII byte is not; any other is decoded."""
    blank = column.lengths() == 0
    unsure = ~blank
    unsure[unsure] = ~_SOLID_BYTES[np.frombuffer(column.data, np.uint8)[column.start[unsure]]]
    for i in np.flatnonzero(unsure).tolist():
        blank[i] = not column[i].strip()
    return blank


def _blank(blank: np.ndarray, column: str, bad: dict[int, str]) -> None:
    """A row whose field is blank (``blank``: empty or spaces) gets "blank
    ``column``" in ``bad`` unless it has a diagnostic; called before the reader
    is asked for the next chunk."""
    for i in np.flatnonzero(blank).tolist():
        bad.setdefault(i, f"blank {column}")


def _claim(
    keys: Sequence, linenos: np.ndarray, bad: dict[int, str], claims: dict, word: str
) -> None:
    """Each row without a diagnostic claims its key in ``claims``, the file's
    first line for each key; a row whose key an earlier row claimed gets
    ``word.format(key, first line)`` in ``bad`` instead."""
    rows = [i for i in range(len(keys)) if i not in bad] if bad else range(len(keys))
    if bad:
        keys, linenos = [keys[i] for i in rows], linenos[rows]
    first = np.fromiter(map(claims.setdefault, keys, linenos.tolist()), np.int64, len(rows))
    for k in np.flatnonzero(first != linenos).tolist():
        bad[rows[k]] = word.format(keys[k], first[k])


def load_schedule(path: str | Path) -> TagSchedule:
    path = Path(path)
    tags: dict[str, int] = {}  # tag index by first appearance
    rules = []
    for _, bad, (day_column, start_column, end_column, tag_column) in _read_columns(
        path, HEADERS["schedule"]
    ):
        days = list(map(str.strip, day_column.texts()))
        for i, day in enumerate(days):
            if day not in DAY_CLASSES:
                bad.setdefault(i, f"unknown day class {day!r}")
        starts = _convert(start_column.texts(), parse_hhmm, bad)
        ends = _convert(end_column.texts(), parse_hhmm, bad)
        _blank(_blank_rows(tag_column), "tag", bad)
        for i, rule in enumerate(zip(days, starts, ends, map(str.strip, tag_column.texts()))):
            if i not in bad:
                rules.append((*rule[:3], tags.setdefault(rule[3], len(tags))))
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
    speed limit is no limit; a blank id or vertex is an error."""
    path = Path(path)
    vertex_index: dict[str, int] = {}
    first_line: dict[str, int] = {}  # by edge id: the line of the row that claims it
    parts = []  # (ids, tail and head codes, lengths, limits) of each chunk
    for linenos, bad, (id_column, tails, heads, length_column, limit_column) in (
        _read_columns(path, HEADERS["network"])
    ):
        ids = list(map(str.strip, id_column.texts()))
        start = np.column_stack((tails.start, heads.start)).ravel()  # each row's tail, then head
        end = np.column_stack((tails.end, heads.end)).ravel()
        ends = _first_codes(_Column(tails.data, start, end), vertex_index)
        _blank(_blank_rows(id_column), "edge_id", bad)
        _blank(ends[0::2] == vertex_index.get("", -1), "tail", bad)
        _blank(ends[1::2] == vertex_index.get("", -1), "head", bad)
        _claim(ids, linenos, bad, first_line, "duplicate edge id {0!r} (first on line {1})")
        given = ~_blank_rows(limit_column)
        word = "unparseable number"
        length = _float_column(length_column, bad, word)
        limit = _float_column(limit_column, bad, word, given)
        for i in np.flatnonzero(~((0 < length) & (length < math.inf))).tolist():
            bad.setdefault(i, f"length {length_column[i].strip()!r} not positive and finite")
        for i in np.flatnonzero(length > MAX_LENGTH_M).tolist():
            bad.setdefault(i, f"length {length_column[i].strip()!r} above {MAX_LENGTH_M:g} m")
        for i in np.flatnonzero(given & ~((0 < limit) & (limit < math.inf))).tolist():
            bad.setdefault(i, f"speed limit {limit_column[i].strip()!r} not positive and finite")
        for i in np.flatnonzero(ends[0::2] == ends[1::2]).tolist():
            bad.setdefault(i, f"self-loop edge {ids[i]!r}")
        parts.append((ids, ends, length, limit))

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
    edge_ids = _quoted(graph.edge_ids)
    vertex_ids = np.array(_quoted(graph.vertex_ids), dtype=object)
    write_csv(
        path,
        HEADERS["network"],
        graph.n_edges,
        lambda part: (
            edge_ids[part],
            vertex_ids[graph.tails[part]].tolist(),
            vertex_ids[graph.heads[part]].tolist(),
            [_FLOAT_FMT % length for length in graph.lengths[part].tolist()],
            [
                "" if limit != limit else _FLOAT_FMT % limit  # NaN: no limit
                for limit in graph.speed_limits[part].tolist()
            ],
        ),
        quoted=True,
    )


def _load_costs(path: Path) -> dict[str, float]:
    costs: dict[str, float] = {}
    lines: dict[str, int] = {}  # by trip id: the line of the row that claims it
    for linenos, bad, (id_column, cost_column) in _read_columns(path, HEADERS["costs"]):
        ids = list(map(str.strip, id_column.texts()))
        _blank(_blank_rows(id_column), "trip_id", bad)
        values = _float_column(cost_column, bad, "unparseable cost {!r}")
        for i in np.flatnonzero(~((0 <= values) & (values < math.inf))).tolist():
            bad.setdefault(i, f"cost {cost_column[i].strip()!r} negative or not finite")
        for i in np.flatnonzero(values > MAX_COST).tolist():
            bad.setdefault(i, f"cost {cost_column[i].strip()!r} above {MAX_COST:g}")
        _claim(ids, linenos, bad, lines, "duplicate trip id {0!r}")
        costs.update(zip(ids, values.tolist()))  # read only if no row has a diagnostic
    return costs


def load_trips(trips_path: str | Path, costs_path: str | Path, graph: RoadGraph) -> TripSet:
    """Read a trip set straight into its record table, checked a chunk's
    columns at a time; a trip whose records change day class or overlap in
    time gets one diagnostic, on its first line."""
    trips_path, costs_path = Path(trips_path), Path(costs_path)
    costs = _load_costs(costs_path)
    edges = _Names(graph.edge_ids)
    trip_ids: dict[str, int] = {}  # trip number by first appearance
    unknown: list[str] = []
    parts = []  # (line, seq, trip, edge, day, enter, exit) of each chunk
    for linenos, bad, (trip_column, seq_column, edge_column, day_column, enters, exits) in (
        _read_columns(trips_path, HEADERS["trips"])
    ):
        trip = _run_codes(trip_column, trip_ids)
        _blank(trip == trip_ids.get("", -1), "trip_id", bad)
        seq = _int_column(seq_column, bad)
        enter, exit_ = _clock_column(enters, bad), _clock_column(exits, bad)
        edge, day = edges.codes(edge_column), _DAYS.codes(day_column)
        parsed = np.ones(len(linenos), dtype=bool)
        parsed[list(bad)] = False
        for i in np.flatnonzero(parsed & (edge < 0)).tolist():
            unknown.append(f"{trips_path}:{linenos[i]}: unknown edge id {edge_column[i].strip()!r}")
        in_day = (0 <= enter) & (enter < exit_) & (exit_ <= MINUTES_PER_DAY)
        for i in np.flatnonzero(parsed & (edge >= 0) & ((day < 0) | ~in_day)).tolist():
            try:
                LinkRecord(int(edge[i]), day_column[i].strip(), float(enter[i]), float(exit_[i]))
            except ValueError as exc:
                bad[i] = str(exc)
        parts.append((linenos, seq, trip, edge, day.astype(np.int8), enter, exit_))
    if unknown:
        raise LoadError("unknown-edge", unknown)
    missing = [t for t in trip_ids if t not in costs]
    if missing:
        raise LoadError(
            "missing-cost", [f"{costs_path}: no cost for trip {t!r}" for t in missing]
        )

    line, seq, trip, edge, day, enter, exit_ = (np.concatenate(column) for column in zip(*parts))
    if seq.dtype == object:  # a value beyond int64: only the order of seq values matters
        rank = {value: r for r, value in enumerate(sorted(set(seq.tolist())))}
        seq = np.array([rank[value] for value in seq.tolist()], dtype=np.int64)
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
    """Write the trips and costs files; a trip set that repeats an id, which
    load_trips could not read back, is refused before either is opened."""
    names = trips.ids()
    if len(set(names.tolist())) < len(names):
        seen = set()
        for name in names.tolist():
            if name in seen:
                raise ValueError(f"trip id {name!r} is repeated; a trips file names each trip once")
            seen.add(name)
    table = trips.table
    first = np.searchsorted(table.trip, np.arange(len(trips)))
    seq = np.arange(len(table.trip)) - first[table.trip]
    names = np.asarray(_quoted(names), dtype=object)
    edge_ids = np.array(_quoted(graph.edge_ids), dtype=object)
    days = np.array(_quoted(DAY_CLASSES), dtype=object)
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
        quoted=True,
    )
    costs = trips.costs()
    write_csv(
        costs_path,
        HEADERS["costs"],
        len(trips),
        lambda part: (
            names[part].tolist(), [_FLOAT_FMT % cost for cost in costs[part].tolist()]
        ),
        quoted=True,
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
    edge_ids = _quoted(graph.edge_ids) * graph.n_tags
    tags = np.repeat(np.array(_quoted(graph.tag_schedule.tags), dtype=object), graph.n_edges)
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
        quoted=True,
    )


def load_weights(path: str | Path, graph: RoadGraph) -> tuple[CostVector, np.ndarray]:
    path = Path(path)
    values = np.zeros(graph.n_entries)
    mask = np.zeros(graph.n_entries, dtype=bool)
    lines: dict[tuple[str, str], int] = {}  # by stripped (edge, tag): the line that fills it
    edges, tags = _Names(graph.edge_ids), _Names(graph.tag_schedule.tags)
    for linenos, bad, (edge_column, tag_column, value_column, flag_column) in _read_columns(
        path, HEADERS["weights"]
    ):
        edge, tag = edges.codes(edge_column), tags.codes(tag_column)
        for i in np.flatnonzero(edge < 0).tolist():
            bad.setdefault(i, f"unknown edge id {edge_column[i].strip()!r}")
        for i in np.flatnonzero(tag < 0).tolist():
            bad.setdefault(i, f"unknown tag {tag_column[i].strip()!r}")
        chunk_values = _float_column(value_column, bad, "unparseable value")
        flags = _int_column(flag_column, bad, "unparseable value")
        for i in np.flatnonzero(~np.isfinite(chunk_values)).tolist():
            bad.setdefault(i, f"cost_per_meter {value_column[i].strip()!r} not finite")
        for i in np.flatnonzero((flags != 0) & (flags != 1)).tolist():
            bad.setdefault(i, f"annotated_flag {flag_column[i].strip()!r} not 0 or 1")
        keys = list(zip(map(str.strip, edge_column.texts()), map(str.strip, tag_column.texts())))
        _claim(keys, linenos, bad, lines, "duplicate row for edge {0[0]!r}, tag {0[1]!r}")
        rows_ok = np.setdiff1d(np.arange(len(linenos)), list(bad))
        pos = tag[rows_ok] * graph.n_edges + edge[rows_ok]
        values[pos] = chunk_values[rows_ok]
        mask[pos] = flags[rows_ok] == 1
    if len(lines) < graph.n_entries:
        raise LoadError(
            "malformed-row", [f"{path}: {graph.n_entries - len(lines)} (edge, tag) entries missing"]
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
