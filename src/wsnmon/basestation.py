"""Append-only telemetry log: serialization, exact parsing, and the writer.

File format (UTF-8, LF line endings):

    #WSNLOG v1 nodes=N1,1.1,1.2,N2,2.1,2.2
    <round>,<time_ms>,<node_id>,<temp_c|NULL>,<light|NULL>,<ch4|NULL|->,<co|NULL|->,<o2|NULL|->,<OK|NULL>

Temperature carries exactly 4 decimal places (one 0.0625-step per digit
grid), light and gas values are integers, lost channels are the literal
``NULL`` and unequipped gas channels the literal ``-``. A round's records are
written as one atomic group, so a reader only ever sees whole rounds plus at
most one trailing partial round while a write is in flight.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from .environment import Channel
from .errors import TelemetryError
from .records import Reading, ReadingStatus, Snapshot

MAGIC = "#WSNLOG"
VERSION = "v1"

_NULL = "NULL"
_NOT_EQUIPPED = "-"
_COLUMNS = tuple(Channel)  # value columns 4-8, in Channel order


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
    nodes = tuple(n for n in parts[2][len("nodes=") :].split(",") if n)
    if not nodes:
        raise TelemetryError("BAD_HEADER", "empty node list", line_no=1)
    return nodes


def record_line(r: Reading) -> str:
    fields = [str(r.round), str(r.time_ms), r.node]
    for channel in _COLUMNS:
        if channel not in r.values:
            fields.append(_NOT_EQUIPPED)
        else:
            v = r.values[channel]
            fields.append(_NULL if v is None else format_value(channel, v))
    fields.append(r.status.value)
    return ",".join(fields)


def snapshot_block(s: Snapshot) -> str:
    """One round's atomic group of record lines (trailing newline included)."""
    return "".join(record_line(r) + "\n" for r in s.readings)


def serialize_snapshots(nodes: Sequence[str], snapshots: Iterable[Snapshot]) -> str:
    return header_line(nodes) + "\n" + "".join(snapshot_block(s) for s in snapshots)


def parse_record(line: str, line_no: int = 0) -> Reading:
    """Parse one record line; the gateway's response lines share this grammar."""
    fields = line.split(",")
    if len(fields) != 9:
        raise TelemetryError(
            "MALFORMED_RECORD", f"expected 9 fields, found {len(fields)}", line_no=line_no
        )

    def fail(msg: str) -> TelemetryError:
        return TelemetryError("MALFORMED_RECORD", msg, line_no=line_no)

    try:
        rnd = int(fields[0])
        time_ms = int(fields[1])
    except ValueError:
        raise fail(f"bad round/time: {fields[0]!r},{fields[1]!r}") from None
    if rnd < 0 or time_ms < 0:
        raise fail("negative round or time")
    node = fields[2]
    if not node or node in (_NULL, _NOT_EQUIPPED):
        raise fail(f"bad node id {node!r}")

    def number(text: str, channel: Channel) -> float | None:
        if text == _NULL:
            return None
        try:
            value = float(text) if channel is Channel.TEMP_C else float(int(text))
        except (ValueError, OverflowError):
            raise fail(f"bad {channel.value} value {text!r}") from None
        if not math.isfinite(value):
            raise fail(f"bad {channel.value} value {text!r}")
        return value

    values = {
        channel: number(text, channel)
        for channel, text in zip(_COLUMNS, fields[3:8])
        if text != _NOT_EQUIPPED
    }
    try:
        return Reading(node, rnd, time_ms, values, ReadingStatus(fields[8]))
    except ValueError as e:
        raise fail(str(e)) from None


@dataclass(frozen=True)
class PartialRound:
    """Trailing incomplete round found at EOF (round is None when even the
    first record of the group was torn mid-line)."""

    round: int | None
    records: int


@dataclass
class ParsedTelemetry:
    nodes: tuple[str, ...]
    snapshots: list[Snapshot]
    partial: PartialRound | None


def parse_telemetry(data: bytes | str) -> ParsedTelemetry:
    """Parse a telemetry log, accepting a file truncated mid-round.

    Returns every complete round; a trailing partial round (in-flight or torn
    write) is reported in ``partial``, never folded into the snapshots.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        line_no = data.count(b"\n", 0, e.start) + 1
        raise TelemetryError("MALFORMED_RECORD", f"not UTF-8: {e}", line_no=line_no) from None
    if not text:
        raise TelemetryError("BAD_HEADER", "empty input", line_no=1)
    lines = text.split("\n")
    fragment = lines.pop()  # "" when the file ends with a newline
    if not lines:
        raise TelemetryError("BAD_HEADER", "truncated header", line_no=1)
    nodes = parse_header(lines[0])

    snapshots: list[Snapshot] = []
    group: list[Reading] = []
    last_done = -1
    for line_no, line in enumerate(lines[1:], start=2):
        r = parse_record(line, line_no)
        if not group:
            if r.round <= last_done:
                raise TelemetryError(
                    "MALFORMED_RECORD", f"round {r.round} repeats or goes backwards",
                    line_no=line_no,
                )
        else:
            if r.round != group[0].round or r.time_ms != group[0].time_ms:
                raise TelemetryError(
                    "MALFORMED_RECORD", f"round/time changed inside round {group[0].round}",
                    line_no=line_no,
                )
        expected = nodes[len(group)]
        if r.node != expected:
            raise TelemetryError(
                "MALFORMED_RECORD", f"expected node {expected!r}, found {r.node!r}",
                line_no=line_no,
            )
        group.append(r)
        if len(group) == len(nodes):
            snapshots.append(
                Snapshot(round=group[0].round, time_ms=group[0].time_ms, readings=tuple(group))
            )
            last_done = group[0].round
            group = []

    partial: PartialRound | None = None
    if group:
        partial = PartialRound(round=group[0].round, records=len(group))
    elif fragment:
        partial = PartialRound(round=None, records=0)
    return ParsedTelemetry(nodes=nodes, snapshots=snapshots, partial=partial)


class TelemetryWriter:
    """Single writer for one append-only telemetry file.

    Each append is serialized under a lock and flushed as one group, so a
    concurrent reader sees either the whole round or none of it. Round
    indices must be strictly increasing.
    """

    def __init__(self, path: str | os.PathLike, nodes: Sequence[str]):
        self.path = os.fspath(path)
        self.nodes = tuple(nodes)
        self.last_round = -1
        self._lock = threading.Lock()
        try:
            self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
            self._fh.write(header_line(self.nodes) + "\n")
            self._fh.flush()
        except OSError as e:
            raise TelemetryError("IO_FAILURE", f"cannot open {self.path}: {e}") from e

    def append(self, s: Snapshot) -> None:
        with self._lock:
            if s.round <= self.last_round:
                raise TelemetryError(
                    "NON_MONOTONIC_ROUND",
                    f"round {s.round} after round {self.last_round}",
                )
            if s.nodes() != self.nodes:
                raise ValueError(f"snapshot nodes {s.nodes()} do not match log {self.nodes}")
            try:
                self._fh.write(snapshot_block(s))
                self._fh.flush()
            except OSError as e:
                raise TelemetryError("IO_FAILURE", f"round {s.round}: {e}") from e
            self.last_round = s.round

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LatestMirror:
    """Compatibility sink holding only the newest round in a second file.

    Reproduces the original deployment's single rewritten .txt: on every
    round the file is replaced wholesale (write-temp-then-rename, so readers
    never see a half-written file). Until the first round it holds the header
    alone.
    """

    def __init__(self, path: str | os.PathLike, nodes: Sequence[str]):
        self.path = os.fspath(path)
        self.nodes = tuple(nodes)
        # a zero-round file: an unwritable path fails here, before any round runs
        self._replace("")

    def update(self, s: Snapshot) -> None:
        self._replace(snapshot_block(s))

    def _replace(self, block: str) -> None:
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(header_line(self.nodes) + "\n")
                fh.write(block)
            os.replace(tmp, self.path)
        except OSError as e:
            raise TelemetryError("IO_FAILURE", f"cannot write {self.path}: {e}") from e
