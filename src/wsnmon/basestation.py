"""A round's record and its append-only log: the Snapshot, serialization,
exact parsing, and the writer.

A ``Snapshot`` holds one collection round as columns, one per channel the
round carries, a cell per node. A channel the round lacks is a missing
column, never a marker in some cells, and a row is read as a dict only on
demand (``Snapshot.reading_for``).

File format (UTF-8, LF line endings):

    #WSNLOG v1 nodes=N1,1.1,1.2,N2,2.1,2.2
    <round>,<time_ms>,<node_id>,<temp_c|NULL>,<light|NULL>,<ch4|NULL|->,<co|NULL|->,<o2|NULL|->,<OK|NULL>

Temperature carries exactly 4 decimal places (one 0.0625-step per digit
grid), light and gas values are integers, lost channels are the literal
``NULL``, and a gas channel the round does not carry is ``-`` on every
node: a round carries each channel on all of its nodes or on none. The
status is ``NULL`` when the reading was lost (every value is None), else
``OK``. A round's records are written as one atomic group, so a reader only
ever sees whole rounds plus at most one trailing partial round while a write
is in flight.

Lines are split on LF only. ``TelemetryReader`` is the one parser: it reads
a log as a stream of lines, one round at a time, and yields each round as
soon as its last record has been checked, so reading a log takes memory that
does not depend on its number of rounds. A round is checked in slices of at
most ``_SLICE`` lines, so it takes memory that does not depend on its width
either, beyond one slice and the Snapshot's columns. A slice is checked as
bytes: its lines are joined and split once on ",", and no decoded copy of
them is made. A whole slice of n lines is then 8n+1 fields, in which each
line's status, its LF and the next line's round share one field, and each
column is a stride-8 slice. It passes when there are 8n+1 fields, the node
column is the header's nodes of the slice (encoded once), the time column
holds one text, each value column reads through the reader's memos (a gas
column all ``-`` is a channel the round does not carry), the NULLs of every
column agree, and each status field is exactly the status the values call
for, an LF and the first line's round text (the last one only the status and
an LF). That last comparison puts exactly n LFs at the line ends, so the
slice is n whole lines of nine fields sharing one round text. The first
slice's round and time texts are parsed; each later slice must carry the
same round text, time text and ``-`` pattern, byte for byte. The slices'
value columns are then joined into the round's Snapshot, built with no
per-record object; a round of at most ``_SLICE`` lines is one slice, whose
columns are the Snapshot's as they are. The memos are keyed by the raw field
bytes; a text they lack is decoded as ASCII and read as ``parse_record``
reads it, and a byte that is not ASCII fails the round. So every field of an
accepted round is ASCII: a text the readers took, a ``-``, a status, or a
header node id, which ``validate_label`` keeps to printable ASCII. An
accepted round is therefore valid UTF-8 without being decoded. Every valid
round passes, so a slice that fails is re-read line by line with
``parse_record`` only to name its first bad line, against the stamp and
channels of the round's first record: ``_fault`` is the one place a record
line is decoded, and ``parse_record`` stays the one definition of a record
line.
``parse_telemetry`` collects the reader for a log held in memory, and
``wsn plotdata`` writes no CSV row unless the whole log checks out.

``snapshot_block`` writes the same layout: one list of 7n+1 fields, filled
by stride-7 slices and joined once with ",". The first is the round's
``<round>,<time_ms>`` stamp; then each line has its node, its five value
texts, and its status, an LF and the stamp (the last line: its status and an
LF). The block is kept on the snapshot, so the log, the mirror and the
gateway share one rendering whatever order they take the round in. Each
column renders each distinct value once: it keeps a text cache by value,
read with one ``itemgetter`` call per column of two cells or more, and
emptied when it reaches ``_VALUE_CACHE_MAX`` entries (the bound ``netsim``'s
step tables share), so it holds the values a long-lived run revisits, not
every value it has seen. ``-0.0 == 0.0`` as a dict key but renders as
``-0.0000``, so a zero is cached only in a column where its sign does not
show.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import stat
from itertools import chain, islice, repeat
from operator import is_, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._frozen import Frozen
from .environment import Channel
from .errors import TelemetryError, TopologyError

MAGIC = "#WSNLOG"
VERSION = "v1"

_NULL = "NULL"
_NOT_EQUIPPED = "-"  # every cell of a gas column the round does not carry
_OK = "OK"
_STATUS_LINES = (_OK + "\n", _NULL + "\n")  # indexed by "is NULL"
_STATUS_ENDS = tuple(map(str.encode, _STATUS_LINES))  # as _bulk compares them
_DASH = _NOT_EQUIPPED.encode()
_NONE = type(None)
_TEMP = Channel.TEMP_C  # a module global: reading an Enum member off its class is slow
_COLUMNS = tuple(Channel)  # value columns 4-8, in Channel order
DEFAULT_ROOT = "BS"  # the base station: every tree's root, never a sensing node


def validate_label(label: str) -> None:
    """Reject a node label that cannot survive the config and telemetry
    grammars: ``netsim.add_cluster`` checks each config label with it, and
    ``parse_header`` each node the log header names."""
    if not label:
        raise TopologyError("INVALID_LABEL", "empty node label")
    if label in (_NULL, _NOT_EQUIPPED):  # the log's value literals
        raise TopologyError("INVALID_LABEL", f"label {label!r} is a reserved literal")
    for ch in label:
        # printable ASCII, no whitespace; ',' splits records, '#' starts comments
        if not (33 <= ord(ch) <= 126) or ch in {",", "#"}:
            raise TopologyError("INVALID_LABEL", f"label {label!r} contains {ch!r}")


def format_value(channel: Channel, value: float) -> str:
    """Render one measured value the way the telemetry file stores it."""
    if channel is Channel.TEMP_C:
        return f"{value:.4f}"
    return str(int(value))


def header_line(nodes: Sequence[str]) -> str:
    """The log header: format version plus the node-list fingerprint.

    The ordered node list doubles as the topology fingerprint; a log can only
    be interpreted against the node set it names.
    """
    return f"{MAGIC} {VERSION} nodes={','.join(nodes)}"


def parse_header(line: str) -> tuple[str, ...]:
    parts = line.split(" ")
    if len(parts) != 3 or parts[0] != MAGIC or parts[1] != VERSION:
        raise TelemetryError("BAD_HEADER", f"not a {MAGIC} {VERSION} header: {line!r}", line_no=1)
    if not parts[2].startswith("nodes="):
        raise TelemetryError("BAD_HEADER", f"missing nodes= field: {line!r}", line_no=1)
    nodes = tuple(parts[2][len("nodes=") :].split(","))
    # a node is a sensing node a config could name (never NULL or "-", which no
    # record can carry, nor the base station), and each header node is matched
    # by exactly one record of a round
    seen: set[str] = set()
    for node in nodes:
        if not node:
            raise TelemetryError("BAD_HEADER", f"empty node id in {parts[2]!r}", line_no=1)
        try:
            validate_label(node)
        except TopologyError:
            raise TelemetryError("BAD_HEADER", f"bad node id {node!r}", line_no=1) from None
        if node == DEFAULT_ROOT:
            raise TelemetryError("BAD_HEADER", f"node {node!r} is the base station", line_no=1)
        if node in seen:
            raise TelemetryError("BAD_HEADER", f"node {node!r} named twice", line_no=1)
        seen.add(node)
    return nodes


class Snapshot(Frozen):
    """All readings of one collection round, in deterministic topology order.

    ``nodes`` names the round's sensing nodes once, and ``columns`` maps each
    carried channel to a tuple of one cell per node: temperature and light
    always (the demonstration hardware carried both), a gas channel only
    when the run has one. A cell is a number, or None when the node's data
    was lost. Loss takes a node's whole reading, so a row is NULL exactly
    when its temperature cell is None. The round's record block is rendered
    into the ``_block`` cache on first use (``snapshot_block``), so every
    sink shares one string.
    """

    _fields = ("round", "time_ms", "nodes", "columns")
    __slots__ = (*_fields, "_block")

    def __init__(self, round: int, time_ms: int, nodes: tuple[str, ...],
                 columns: Mapping[Channel, tuple[float | None, ...]]):
        self._init(round, time_ms, nodes, columns, None)

    def reading_for(self, node: str) -> dict[Channel, float | None] | None:
        """The row of ``node`` as ``{channel: cell}``, or None if the round lacks it."""
        try:
            i = self.nodes.index(node)
        except ValueError:
            return None
        return {channel: column[i] for channel, column in self.columns.items()}


# the size bound of a run's value caches: the writer's text caches (per
# column, value -> text; its seeded None counts) and netsim's step tables
# (per sensor spec, step -> value). The widest default sensor, ch4, reads at
# most 202 values a truth, so this keeps about five truths' worth.
_VALUE_CACHE_MAX = 1024
# the size bound of a reader's memos (per reader, raw field bytes -> value; see
# TelemetryReader): one counts memo serves four columns
_MEMO_MAX = 4096
# the most lines of a round that TelemetryReader checks at once
_SLICE = 256
_COLUMN_TEXTS = tuple((channel, {None: _NULL}) for channel in _COLUMNS)


def _text(channel: Channel, texts: dict, v: float | None) -> str:
    """The column text of ``v`` (a number or None), kept in ``texts``."""
    if v is None:
        return _NULL  # a cache emptied by another thread lacks it
    text = format_value(channel, v)
    # -0.0 == 0.0 as a key, yet f"{-0.0:.4f}" is "-0.0000": a zero is kept
    # only where its sign does not show
    if v or format_value(channel, -v) == text:
        if len(texts) >= _VALUE_CACHE_MAX:
            texts.clear()
            texts[None] = _NULL
        texts[v] = text
    return text


def _column_texts(channel: Channel, texts: dict, column: Sequence) -> Sequence[str]:
    """The texts of a column's cells, from and into its cache ``texts``."""
    if len(column) > 1:  # itemgetter of one value gives its text bare
        try:
            return itemgetter(*column)(texts)  # one C-level lookup per column
        except KeyError:  # a value not rendered before (texts never holds "")
            pass
    return [texts.get(v) or _text(channel, texts, v) for v in column]


def snapshot_block(s: Snapshot) -> str:
    """One round's atomic group of record lines (trailing newline included).

    The block is rendered on first use and kept on the snapshot, so the log
    writer, the mirror and the gateway share one string in any order.
    """
    block = s._block
    if block is None:
        block = _render_block(s)
        object.__setattr__(s, "_block", block)  # the frozen snapshot's one lazy slot
    return block


def _render_block(s: Snapshot) -> str:
    """The record lines of ``s`` as one field list, joined once (see the module)."""
    n = len(s.nodes)
    if not n:
        return ""
    stamp = f"{s.round},{s.time_ms}"
    # per row: node, five value texts, and the end "<status>\n" + the next row's stamp
    fields = [_NOT_EQUIPPED] * (7 * n + 1)
    fields[0] = stamp
    fields[1::7] = s.nodes
    for i, (channel, texts) in enumerate(_COLUMN_TEXTS, 2):
        column = s.columns.get(channel)
        if column is not None:
            fields[i::7] = _column_texts(channel, texts, column)
    # NULL is all-or-none and temperature always equipped, so it gives the status
    lost = list(map(is_, s.columns[_TEMP], repeat(None)))
    fields[7::7] = map({False: _OK + "\n" + stamp, True: _NULL + "\n" + stamp}.__getitem__, lost)
    fields[-1] = _STATUS_LINES[lost[-1]]
    return ",".join(fields)


def serialize_snapshots(nodes: Sequence[str], snapshots: Iterable[Snapshot]) -> str:
    return header_line(nodes) + "\n" + "".join(snapshot_block(s) for s in snapshots)


def _malformed(msg: str, line_no: int) -> TelemetryError:
    return TelemetryError("MALFORMED_RECORD", msg, line_no=line_no)


# The readers below raise ValueError for any text the writer would not have
# written for the value it denotes.
def _whole(text: str) -> int:
    """A count as str(int) writes it: ASCII digits, no sign, no leading zero."""
    if text.isdigit() and text.isascii() and (text[0] != "0" or len(text) == 1):
        return int(text)
    raise ValueError(text)


def _count(text: str) -> float | None:
    """A light or gas column; beyond 2**53 a float no longer holds the count."""
    if text == _NULL:
        return None
    n = _whole(text)
    if n >= 2 ** 53:
        raise ValueError(text)
    return float(n)


def _temperature(text: str) -> float | None:
    if text == _NULL:
        return None
    value = float(text)
    if not (math.isfinite(value) and format_value(Channel.TEMP_C, value) == text):
        raise ValueError(text)
    return value


_READERS = tuple((ch, _temperature if ch is Channel.TEMP_C else _count) for ch in _COLUMNS)


def parse_record(line: str, line_no: int = 0
                 ) -> tuple[int, int, str, dict[Channel, float | None]]:
    """Parse one record line (the gateway's lines share this grammar) into
    ``(round, time_ms, node, values)``; ``values`` maps exactly the channels
    the line carries to its cell.

    Every number and the status must be exactly what ``snapshot_block``
    writes for the values, so an accepted line re-serializes byte for byte.
    """
    fields = line.split(",")
    if len(fields) != 9:
        raise _malformed(f"expected 9 fields, found {len(fields)}", line_no)
    try:
        rnd = _whole(fields[0])
        time_ms = _whole(fields[1])
    except ValueError:
        raise _malformed(f"bad round/time: {fields[0]!r},{fields[1]!r}", line_no) from None
    node = fields[2]
    if not node or node in (_NULL, _NOT_EQUIPPED):
        raise _malformed(f"bad node id {node!r}", line_no)
    if fields[3] == _NOT_EQUIPPED or fields[4] == _NOT_EQUIPPED:
        raise _malformed("temp_c and light_raw are always equipped", line_no)
    values = {}
    for (channel, read), text in zip(_READERS, fields[3:8]):
        if text != _NOT_EQUIPPED:
            try:
                values[channel] = read(text)
            except ValueError:
                raise _malformed(f"bad {channel.value} value {text!r}", line_no) from None
    status = fields[8]
    if status == _OK:
        if None in values.values():
            raise _malformed(f"OK record for {node} has a NULL value", line_no)
    elif status != _NULL:
        raise _malformed(f"bad status {status!r}", line_no)
    elif set(values.values()) != {None}:
        raise _malformed(f"NULL record for {node} has a value", line_no)
    return rnd, time_ms, node, values


class PartialRound(NamedTuple):
    """Trailing incomplete round found at EOF (round is None when even the
    first record of the group was torn mid-line)."""

    round: int | None
    records: int


class ParsedTelemetry(NamedTuple):
    nodes: tuple[str, ...]
    snapshots: list[Snapshot]
    partial: PartialRound | None


def _not_utf8(e: UnicodeDecodeError, line_no: int) -> TelemetryError:
    return TelemetryError("MALFORMED_RECORD", f"not UTF-8: {e}", line_no=line_no)


class TelemetryReader:
    """A telemetry log read as a stream of complete rounds, one at a time.

    ``lines`` yields the log's lines as a binary file does: bytes, each
    ending in LF except perhaps a torn last one. A round's lines are joined
    and checked as bytes, at most ``_SLICE`` lines at a time, with no decoded
    copy (see the module): every field of an accepted round is ASCII, so the
    round is valid UTF-8 and reads as decoding each line on its own would.
    Only a slice that fails is decoded, line by line, so an error names its
    line.
    The header is read at construction and sets ``nodes``. Iterating (once)
    yields each Snapshot as soon as its last record has been checked and
    keeps no earlier round, nor any field of an earlier slice, so memory
    grows neither with the log nor, beyond one slice and the Snapshot's
    columns, with the width of its rounds. When iteration ends, ``partial``
    reports a trailing incomplete round (an in-flight or torn write), which
    is never yielded. The reader keeps its own memos of the value texts it
    has read, keyed by their raw bytes, one for temperatures and one for
    counts; a memo that would pass ``_MEMO_MAX`` entries is emptied
    first, so it holds at most that many, or one slice's column.
    """

    def __init__(self, lines: Iterable[bytes]):
        self._lines = iter(lines)
        self.partial: PartialRound | None = None
        try:
            header = next(self._lines, b"").decode("utf-8")
        except UnicodeDecodeError as e:
            raise _not_utf8(e, 1) from None
        if not header:
            raise TelemetryError("BAD_HEADER", "empty input", line_no=1)
        if header[-1] != "\n":
            raise TelemetryError("BAD_HEADER", "truncated header", line_no=1)
        self.nodes = parse_header(header[:-1])
        names = [node.encode() for node in self.nodes]  # a round's node column, by slice
        self._slices = [names[i : i + _SLICE] for i in range(0, len(names), _SLICE)]
        self._memos = ({}, {})  # text -> value: temperatures, counts

    def __iter__(self) -> Iterator[Snapshot]:
        line_no, last_done = 2, -1  # line_no: the round's first record
        while (snapshot := self._round(line_no, last_done)) is not None:
            yield snapshot
            line_no += len(self.nodes)
            last_done = snapshot.round

    def _round(self, line_no: int, last_done: int) -> Snapshot | None:
        """The next round, read up to its last line and no further, or None
        at the end of the log (``partial`` set if the log ends inside it)."""
        nodes, head, parts = self.nodes, None, []
        for start, names in zip(range(0, len(nodes), _SLICE), self._slices):
            raws = list(islice(self._lines, len(names)))
            checked = _bulk(raws, names, *self._memos, last_done, head)
            if checked is None:
                stamp = carried = None
                if head is not None:
                    stamp = head[1]
                    carried = {channel for channel, column in zip(_COLUMNS, parts[0])
                               if column is not None}
                stamp, good = _fault(raws, nodes, start, line_no, last_done, stamp, carried)
                if stamp is not None:
                    self.partial = PartialRound(round=stamp[0], records=good)
                elif raws:  # the round's first line is torn
                    self.partial = PartialRound(round=None, records=0)
                return None
            head, columns = checked
            parts.append(columns)
        if len(parts) > 1:  # a gas column is None in every slice or in none
            columns = [None if column[0] is None else tuple(chain.from_iterable(column))
                       for column in zip(*parts)]
        return Snapshot(*head[1], nodes, {channel: column
                                          for channel, column in zip(_COLUMNS, columns)
                                          if column is not None})


def _read(memo: dict, read, texts: list[bytes]) -> tuple:
    """The values of the raw field ``texts`` by ``read``, from and into
    ``memo``; a miss decodes the column's new texts as ASCII and reads them
    (ValueError for a bad one; a UnicodeDecodeError is one). A memo that
    would pass ``_MEMO_MAX`` entries is emptied first, so it holds at
    most that many, or one slice's column."""
    get = itemgetter(*texts)  # looks every text up in C; of one text, gives its value
    try:
        values = get(memo)
    except KeyError:
        if len(memo) + len(texts) > _MEMO_MAX:
            memo.clear()
        new = set(texts).difference(memo)
        memo.update((text, read(text.decode("ascii"))) for text in new)
        values = get(memo)
    return values if len(texts) > 1 else (values,)


def _bulk(raws: list[bytes], names: list[bytes], temps: dict, counts: dict, last_done: int,
          head: tuple | None) -> tuple[tuple, list[tuple | None]] | None:
    """The head and value columns of ``raws``, a slice of a round whose
    encoded node column is ``names``: one tuple per Channel, None for a gas
    channel whose every cell is "-". None when any check fails (see the
    module); the slice is checked as bytes and never decoded.

    The head is the slice's key (its round text, time text and which gas
    columns are all "-") with the round's (round, time_ms). ``head`` is
    None for a round's first slice, whose round must come after
    ``last_done``; a later slice must repeat the first slice's head byte for
    byte. ``temps`` and ``counts`` are the reader's memos.
    """
    n = len(names)
    fields = b"".join(raws).split(b",")
    if len(fields) != 8 * n + 1 or fields[2::8] != names:
        return None
    times = fields[1::8]
    if times.count(times[0]) != n:
        return None
    gases = [fields[i::8] for i in (5, 6, 7)]
    key = (fields[0], times[0], *[column[0] == _DASH and column.count(_DASH) == n
                                  for column in gases])
    try:
        if head is None:
            stamp = (_whole(fields[0].decode("ascii")), _whole(times[0].decode("ascii")))
            if stamp[0] <= last_done:
                return None
            head = key, stamp
        elif key != head[0]:
            return None
        columns = [_read(temps, _temperature, fields[3::8]), _read(counts, _count, fields[4::8])]
        columns += [None if dashes else _read(counts, _count, column)  # "-" fails _count
                    for dashes, column in zip(key[2:], gases)]
    except ValueError:
        return None
    kinds = list(map(type, columns[0]))  # a cell is a float, or None when lost
    for column in columns[1:]:
        if column is not None and list(map(type, column)) != kinds:
            return None
    ok, null = (end + fields[0] for end in _STATUS_ENDS)
    ends = list(map({float: ok, _NONE: null}.__getitem__, kinds))
    ends[-1] = _STATUS_ENDS[kinds[-1] is _NONE]
    if fields[8::8] != ends:
        return None
    return head, columns


def _fault(raws: list[bytes], nodes: tuple[str, ...], start: int, line_no: int,
           last_done: int, stamp: tuple[int, int] | None, carried: set | None
           ) -> tuple[tuple[int, int] | None, int]:
    """Re-read ``raws``, the slice from node ``start`` on that ``_bulk``
    rejected of a round whose first line is ``line_no``, one line at a time,
    and raise the error that names its first bad line; a record that
    carries other gas channels than the round's first record is one.
    ``stamp`` and ``carried`` are the round's (round, time_ms) and channels,
    None when ``raws`` is the round's first slice. A slice with no bad line
    must end early, at the end of the log or at a torn last line: returns
    the round's stamp (None before its first whole record) and the number of
    its whole records."""
    end = start + len(raws)
    for i, raw in enumerate(raws, start):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise _not_utf8(e, line_no + i) from None
        if line[-1:] != "\n":  # only the last line can lack its LF
            return stamp, i
        rnd, time_ms, node, values = parse_record(line[:-1], line_no + i)
        if stamp is None:
            if rnd <= last_done:
                raise _malformed(f"round {rnd} repeats or goes backwards", line_no + i)
            stamp, carried = (rnd, time_ms), values.keys()
        elif (rnd, time_ms) != stamp:
            raise _malformed(f"round/time changed inside round {stamp[0]}", line_no + i)
        if node != nodes[i]:
            raise _malformed(f"expected node {nodes[i]!r}, found {node!r}", line_no + i)
        if values.keys() != carried:
            raise _malformed(f"{node!r} carries other gas channels than {nodes[0]!r}",
                             line_no + i)
    if end == min(start + _SLICE, len(nodes)):
        raise RuntimeError(f"lines {line_no + start}-{line_no + end - 1}: "
                           "the column check rejected records the line check accepts")
    return stamp, end


def parse_telemetry(data: bytes | str) -> ParsedTelemetry:
    """Parse a whole telemetry log held in memory (see ``TelemetryReader``).

    Returns every complete round; a trailing partial round (in-flight or torn
    write) is reported in ``partial``, never folded into the snapshots.
    """
    if isinstance(data, str):
        # a lone surrogate becomes bytes that fail decoding on their line
        data = data.encode("utf-8", "surrogatepass")
    reader = TelemetryReader(io.BytesIO(data))
    snapshots = list(reader)
    return ParsedTelemetry(nodes=reader.nodes, snapshots=snapshots, partial=reader.partial)


class AppendFile:
    """A file written in whole pieces, each flushed as it is written: the one
    way ``wsn run`` opens, writes and closes its log and its trace.

    The constructor opens ``path`` and writes ``first``; a failure there is
    ``cannot open <path>``, and a failed ``write`` is ``cannot write <path>``.
    A failed open or write closes the file at once, quietly: that close could
    only repeat the flush that failed. A later ``close`` then does nothing,
    so it never replaces the first error.
    """

    def __init__(self, path: str | os.PathLike, first: str):
        self.path = os.fspath(path)
        try:
            self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
        except OSError as e:
            raise TelemetryError("IO_FAILURE", f"cannot open {self.path}: {e}") from e
        self.write(first, "open")

    def write(self, text: str, doing: str = "write") -> None:
        """Write and flush ``text`` as one piece; ``doing`` names the step in an error."""
        try:
            self._fh.write(text)
            self._fh.flush()
        except OSError as e:
            with contextlib.suppress(OSError):  # close's own flush fails the same way
                self._fh.close()
            raise TelemetryError("IO_FAILURE", f"cannot {doing} {self.path}: {e}") from e

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TelemetryWriter(AppendFile):
    """Single writer for one append-only telemetry file.

    One writer: a single thread appends, so no lock is taken. Each append is
    written and flushed as one group, so a concurrent reader sees either the
    whole round or none of it. Round indices must be strictly increasing.
    """

    def __init__(self, path: str | os.PathLike, nodes: Sequence[str]):
        self.nodes = tuple(nodes)
        self.last: Snapshot | None = None  # the log's last whole round, once flushed
        super().__init__(path, header_line(self.nodes) + "\n")

    def append(self, s: Snapshot) -> None:
        before = -1 if self.last is None else self.last.round  # -1: the header alone
        if s.round <= before:
            raise TelemetryError("NON_MONOTONIC_ROUND", f"round {s.round} after round {before}")
        if s.nodes != self.nodes:
            raise ValueError(f"snapshot nodes {s.nodes} do not match log {self.nodes}")
        self.write(snapshot_block(s))
        self.last = s


class LatestMirror:
    """Compatibility sink holding only the newest round in a second file.

    Reproduces the original deployment's single rewritten .txt: each
    ``update`` replaces the file wholesale (write-temp-then-rename, so readers
    never see a half-written file). ``round`` is the round it holds: -1 for
    the header alone, None from an update's start until it succeeds. How often
    to update is the caller's rule: ``wsn run`` updates every round under
    ``--pace``; unpaced, for its first round, then at most once a round period,
    and for the log's last round wherever the run stops. A path (or temp path)
    that exists and is not a regular file is refused: replacing or removing a
    device, FIFO or symlink destroys it.
    """

    def __init__(self, path: str | os.PathLike, nodes: Sequence[str]):
        self.path = os.fspath(path)
        self.tmp = self.temp_path(self.path)
        self._header = header_line(nodes) + "\n"
        for p in (self.path, self.tmp):
            with contextlib.suppress(OSError):  # nothing to see there: _replace reports it
                if not stat.S_ISREG(os.lstat(p).st_mode):
                    raise TelemetryError(
                        "IO_FAILURE", f"cannot write {self.path}: {p} is not a regular file")
        # a zero-round file: an unwritable path fails here, before any round runs
        self._replace("", -1)

    @staticmethod
    def temp_path(path: str | os.PathLike) -> str:
        """The temp file each update of a mirror at ``path`` writes, then renames."""
        return os.fspath(path) + ".tmp"

    def update(self, s: Snapshot) -> None:
        self._replace(snapshot_block(s), s.round)  # the block the log writer just rendered

    def _replace(self, block: str, round_index: int) -> None:
        self.round: int | None = None
        try:
            with open(self.tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(self._header)
                fh.write(block)
            os.replace(self.tmp, self.path)
        except OSError as e:
            with contextlib.suppress(OSError):  # leave no temp file behind
                os.remove(self.tmp)
            raise TelemetryError("IO_FAILURE", f"cannot write {self.path}: {e}") from e
        self.round = round_index
