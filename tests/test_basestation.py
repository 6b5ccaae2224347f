"""Telemetry log: exact serialization, exact parsing, atomic append groups."""

import io
import random
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import DESK_NODES, Row, from_readings, random_snapshot, readings, reference_block
from wsnmon import basestation
from wsnmon.basestation import (
    LatestMirror,
    PartialRound,
    Snapshot,
    TelemetryReader,
    TelemetryWriter,
    header_line,
    parse_record,
    parse_telemetry,
    serialize_snapshots,
    snapshot_block,
)
from wsnmon.environment import Channel
from wsnmon.errors import TelemetryError


def ok_reading(node="N1", temp=25.0, light=512.0, gases=None):
    return Row(node, {Channel.TEMP_C: temp, Channel.LIGHT_RAW: light, **(gases or {})})


def null_reading(node="N1", gases=()):
    return Row(node, dict.fromkeys((Channel.TEMP_C, Channel.LIGHT_RAW, *gases)))


def line_of(rnd, time_ms, reading):
    """The record line ``snapshot_block`` writes for ``reading`` in its round."""
    return snapshot_block(from_readings(rnd, time_ms, [reading])).removesuffix("\n")


def snapshots_for(rounds, rng=None, **kwargs):
    rng = rng or random.Random(1)
    return [random_snapshot(rng, i, **kwargs) for i in range(rounds)]


# Record columns for fuzzing: each is its canonical text five times in six,
# else noise (signs, separators, exponents, non-ASCII digits, huge numbers).
COUNT = st.integers(0, 10**6).map(str)
TEMP = st.floats(-1e6, 1e6).map(lambda v: f"{v:.4f}")
GAS = st.one_of(COUNT, st.just("-"))
LOST = st.just("NULL")
LOST_GAS = st.sampled_from(["NULL", "-"])
NODE = st.sampled_from(["N1", "1.1"])
OK = st.just("OK")
STATUS = st.sampled_from(["OK", "NULL"])
NOISE = st.one_of(
    st.text(alphabet="0123456789+-._e ٣NULOK", max_size=8),
    st.integers(0, 2**60).map(str),
    st.floats().map(lambda v: f"{v:.4f}"),
    st.sampled_from(["-0", "-0.0000", "00", "+1", "1_0", "nan", "inf", "1e3"]),
)


def fuzzed(canonical):
    return st.integers(0, 5).flatmap(lambda pick: canonical if pick else NOISE)


class TestFormat:
    def test_header_is_exact(self):
        assert header_line(DESK_NODES) == "#WSNLOG v1 nodes=N1,1.1,1.2,N2,2.1,2.2"

    def test_record_line_is_exact(self):
        assert line_of(0, 0, ok_reading()) == "0,0,N1,25.0000,512,-,-,-,OK"
        assert line_of(7, 7000, ok_reading()) == "7,7000,N1,25.0000,512,-,-,-,OK"

    def test_null_record_line(self):
        assert line_of(0, 0, null_reading()) == "0,0,N1,NULL,NULL,-,-,-,NULL"
        r = null_reading(gases=(Channel.CO_PPM,))
        assert line_of(0, 0, r) == "0,0,N1,NULL,NULL,-,NULL,-,NULL"

    def test_gas_channels_serialized_as_integers(self):
        r = ok_reading(gases={Channel.CH4_PPM: 1200.0, Channel.O2_PCT: 20.0})
        assert line_of(0, 0, r) == "0,0,N1,25.0000,512,1200,-,20,OK"

    def test_temperature_keeps_four_decimals(self):
        assert line_of(0, 0, ok_reading(temp=24.9375)).split(",")[3] == "24.9375"
        assert line_of(0, 0, ok_reading(temp=-0.0625)).split(",")[3] == "-0.0625"

    @pytest.mark.parametrize("missing", [Channel.TEMP_C, Channel.LIGHT_RAW])
    def test_temperature_and_light_are_required(self, missing):
        fields = "0,0,N1,25.0000,512,-,-,-,OK".split(",")
        fields[3 if missing is Channel.TEMP_C else 4] = "-"
        with pytest.raises(TelemetryError, match="MALFORMED_RECORD") as exc:
            parse_telemetry(header_line(("N1",)) + "\n" + ",".join(fields) + "\n")
        assert exc.value.line_no == 2


class TestRoundTrip:
    def test_ten_snapshots_round_trip(self):
        snaps = snapshots_for(10)
        parsed = parse_telemetry(serialize_snapshots(DESK_NODES, snaps))
        assert parsed.nodes == DESK_NODES
        assert parsed.snapshots == snaps
        assert parsed.partial is None

    def test_round_trip_with_gas_and_nulls(self):
        snaps = snapshots_for(8, gases=(Channel.CH4_PPM, Channel.CO_PPM), null_prob=0.5)
        parsed = parse_telemetry(serialize_snapshots(DESK_NODES, snaps))
        assert parsed.snapshots == snaps

    def test_bytes_input(self):
        snaps = snapshots_for(3)
        data = serialize_snapshots(DESK_NODES, snaps).encode("utf-8")
        assert parse_telemetry(data).snapshots == snaps

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(1, 6),
           st.sampled_from([(), (Channel.CH4_PPM,), (Channel.CH4_PPM, Channel.CO_PPM,
                                                     Channel.O2_PCT)]))
    def test_round_trip_property(self, seed, rounds, gases):
        rng = random.Random(seed)
        snaps = snapshots_for(rounds, rng=rng, gases=gases, null_prob=0.4)
        assert parse_telemetry(serialize_snapshots(DESK_NODES, snaps)).snapshots == snaps


class TestTruncation:
    def test_truncated_mid_round(self):
        """Cutting inside round 10's group leaves rounds 0..9 plus a report."""
        snaps = snapshots_for(11)
        text = serialize_snapshots(DESK_NODES, snaps)
        lines = text.splitlines(keepends=True)
        truncated = "".join(lines[: 1 + 10 * 6 + 3])  # header + 10 rounds + 3 records
        parsed = parse_telemetry(truncated)
        assert len(parsed.snapshots) == 10
        assert parsed.snapshots == snaps[:10]
        assert parsed.partial is not None
        assert parsed.partial.round == 10
        assert parsed.partial.records == 3

    def test_truncated_mid_line(self):
        snaps = snapshots_for(2)
        text = serialize_snapshots(DESK_NODES, snaps)
        lines = text.splitlines(keepends=True)
        torn = "".join(lines[: 1 + 6 + 2]) + lines[1 + 6 + 2][:7]  # half a record
        parsed = parse_telemetry(torn)
        assert len(parsed.snapshots) == 1
        assert parsed.partial is not None
        assert parsed.partial.round == 1
        assert parsed.partial.records == 2

    def test_every_byte_prefix_parses_cleanly(self):
        """Any prefix of a valid log is complete rounds + at most a partial."""
        snaps = snapshots_for(3)
        text = serialize_snapshots(DESK_NODES, snaps)
        header_len = len(header_line(DESK_NODES)) + 1
        for cut in range(header_len, len(text)):
            parsed = parse_telemetry(text[:cut])
            assert len(parsed.snapshots) <= 3
            assert parsed.snapshots == snaps[: len(parsed.snapshots)]


def wide_nodes(width):
    """``width`` node ids of a tree of heads with up to ten leaflets each."""
    return tuple(f"N{i // 11}" if i % 11 == 0 else f"{i // 11}.{i % 11}" for i in range(width))


def line_by_line(data):
    """The reader as one loop over the log's lines, each checked by parse_record,
    every record of a round carrying the channels of its first:
    (nodes, snapshots, partial), or the TelemetryError as (code, line_no, str)."""
    lines = io.BytesIO(data)
    try:
        nodes = TelemetryReader(lines).nodes  # reads the header line only
        snapshots, group, partial = [], [], None
        last_done = group_round = group_time = -1
        for line_no, raw in enumerate(lines, start=2):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise TelemetryError("MALFORMED_RECORD", f"not UTF-8: {e}", line_no) from None
            if not line.endswith("\n"):
                partial = PartialRound(round=None, records=0)
                break
            rnd, time_ms, *row = parse_record(line[:-1], line_no)
            reading = Row(*row)
            if not group:
                if rnd <= last_done:
                    raise TelemetryError(
                        "MALFORMED_RECORD", f"round {rnd} repeats or goes backwards", line_no)
                group_round, group_time = rnd, time_ms
            elif (rnd, time_ms) != (group_round, group_time):
                raise TelemetryError(
                    "MALFORMED_RECORD", f"round/time changed inside round {group_round}", line_no)
            expected = nodes[len(group)]
            if reading.node != expected:
                raise TelemetryError(
                    "MALFORMED_RECORD", f"expected node {expected!r}, found {reading.node!r}",
                    line_no)
            if group and reading.values.keys() != group[0].values.keys():
                raise TelemetryError(
                    "MALFORMED_RECORD",
                    f"{reading.node!r} carries other gas channels than {nodes[0]!r}", line_no)
            group.append(reading)
            if len(group) == len(nodes):
                snapshots.append(from_readings(rnd, time_ms, group))
                last_done, group = rnd, []
        if group:
            partial = PartialRound(round=group_round, records=len(group))
    except TelemetryError as e:
        return e.code, e.line_no, str(e)
    return nodes, snapshots, partial


def read_all(data):
    """What TelemetryReader yields for ``data``, in the shape of line_by_line's result."""
    try:
        reader = TelemetryReader(io.BytesIO(data))
        snapshots = list(reader)
    except TelemetryError as e:
        return e.code, e.line_no, str(e)
    return reader.nodes, snapshots, reader.partial


def dash_cells(data, gas, records):
    """``data`` with the ``gas`` field of each record in ``records`` (1 for the
    log's first record) written as "-", the text of a channel not carried."""
    lines = data.splitlines(keepends=True)
    column = 3 + tuple(Channel).index(gas)
    for k in records:
        fields = lines[k].split(b",")
        fields[column] = b"-"
        lines[k] = b",".join(fields)
    return b"".join(lines)


LOG_BYTES = st.one_of(st.sampled_from(b",\n-.0123456789NULOK"), st.integers(0, 255))


SLICE = basestation._SLICE  # the most lines of a round the reader checks at once

# record_logs: header nodes that read as a count, a temperature and a status
VALUE_NODES = ("7", "25.0000", "OK")


def echo_snapshots(rounds, rng, gases, null_prob):
    """Rounds of ``VALUE_NODES`` whose times and values read as its nodes:
    round r at 7r ms, every kept temperature 25.0000 and every count 7."""
    snaps = []
    for rnd in range(rounds):
        lost = [rng.random() < null_prob for _ in VALUE_NODES]
        snaps.append(Snapshot(rnd, 7 * rnd, VALUE_NODES, {
            channel: tuple(None if x else 25.0 if channel is Channel.TEMP_C else 7.0
                           for x in lost)
            for channel in (Channel.TEMP_C, Channel.LIGHT_RAW, *gases)}))
    return snaps


@st.composite
def record_logs(draw, edits=("none", "replace", "insert", "delete", "cut", "flip", "splice",
                             "move")):
    """A valid log of width 1, 3 (``echo_snapshots``), 12, 220, or one line
    past one or two reader slices, with NULL rows, unequipped gas columns and
    sometimes rounds whose gas column mixes "-" with values; then maybe one
    byte replaced, inserted or deleted, the log cut short, one value or
    status turned NULL or back, round 0's records from some node on replaced
    by round 1's, or one "," moved from a record line into another line of
    its round or of the next one."""
    edit = draw(st.sampled_from(edits))
    rng = random.Random(draw(st.integers(0, 2**32)))
    wide = [220, SLICE + 1, 2 * SLICE + 1]
    width = draw(st.sampled_from(wide if edit == "splice" else [1, 3, 12, *wide]))
    nodes = VALUE_NODES if width == 3 else wide_nodes(width)
    gases = draw(st.sampled_from([(), (Channel.CO_PPM,), tuple(Channel)[2:]]))
    rounds = draw(st.integers(2 if edit == "splice" else 1, 3))
    null_prob = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    snaps = (echo_snapshots(rounds, rng, gases, null_prob) if width == 3 else
             snapshots_for(rounds, rng, nodes=nodes, gases=gases, null_prob=null_prob))
    data = serialize_snapshots(nodes, snaps).encode("utf-8")
    if gases and draw(st.booleans()):  # "-" in some cells of some rounds' first gas column
        data = dash_cells(data, gases[0], [1 + r * width + i for r in range(len(snaps))
                                           if rng.random() < 0.5
                                           for i in range(width) if rng.random() < 0.5])
    if edit == "splice":
        k = draw(st.integers(0, width - 1))
        lines = data.splitlines(keepends=True)
        lines[1 + k : 1 + width] = lines[1 + width + k : 1 + 2 * width]
        return b"".join(lines)
    if edit == "flip":  # one value or status turned NULL, or a NULL turned a value or OK
        line_no = draw(st.integers(1, len(snaps) * width))
        lines = data.splitlines(keepends=True)
        fields = lines[line_no][:-1].split(b",")
        column = draw(st.integers(3, 8))
        if fields[column] != b"NULL":
            fields[column] = b"NULL"
        else:
            fields[column] = b"OK" if column == 8 else b"25.0000" if column == 3 else b"7"
        lines[line_no] = b",".join(fields) + b"\n"
        return b"".join(lines)
    if edit == "move":  # the field total of the log, and of its round if both lines are in it
        lines = data.splitlines(keepends=True)
        source = draw(st.integers(1, len(lines) - 1))
        first = 1 + (source - 1) // width * width  # the first line of its round
        target = draw(st.sampled_from([k for k in range(first, first + 2 * width)
                                       if k < len(lines) and k != source] or [source]))
        if target == source:  # a width-1 log of one round: the comma stays in its line
            return data
        commas = [i for i, byte in enumerate(lines[source]) if byte == ord(",")]
        cut = draw(st.sampled_from(commas))
        lines[source] = lines[source][:cut] + lines[source][cut + 1:]
        at = draw(st.integers(0, len(lines[target]) - 1))  # before the LF
        lines[target] = lines[target][:at] + b"," + lines[target][at:]
        return b"".join(lines)
    if edit == "none":
        return data
    at = draw(st.integers(data.index(b"\n") + 1, len(data) - 1))
    if edit == "replace":
        return data[:at] + bytes([draw(LOG_BYTES)]) + data[at + 1:]
    if edit == "insert":
        return data[:at] + bytes([draw(LOG_BYTES)]) + data[at:]
    if edit == "delete":
        return data[:at] + data[at + 1:]
    return data[:at]


@st.composite
def damaged_logs(draw):
    """A valid log with any one byte replaced, or cut, or both (the cut at or
    after the replaced byte, so it can fall in a torn last line)."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    gases = draw(st.sampled_from([(), (Channel.CO_PPM,)]))
    snaps = snapshots_for(draw(st.integers(0, 3)), rng, gases=gases)
    data = serialize_snapshots(DESK_NODES, snaps).encode("utf-8")
    at = draw(st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if draw(st.booleans()):
        data = data[: draw(st.integers(at, len(data)))]
    return data


def outcome(data):
    try:
        parsed = parse_telemetry(data)
    except TelemetryError as e:
        return e.code, e.line_no
    return parsed.nodes, parsed.snapshots, parsed.partial


class TestReader:
    def test_yields_each_round_before_reading_on(self):
        snaps = snapshots_for(3)
        lines = serialize_snapshots(DESK_NODES, snaps).encode("utf-8").splitlines(keepends=True)

        def feed():
            yield from lines[: 1 + len(DESK_NODES)]  # the header and round 0
            raise AssertionError("read past round 0")

        reader = TelemetryReader(feed())
        assert reader.nodes == DESK_NODES
        assert next(iter(reader)) == snaps[0]

    def test_yields_a_wide_round_before_reading_on(self):
        """A round of 220 records is read to its end and no further."""
        nodes = wide_nodes(220)
        snaps = snapshots_for(2, nodes=nodes, gases=(Channel.CO_PPM,))
        lines = serialize_snapshots(nodes, snaps).encode("utf-8").splitlines(keepends=True)

        def feed():
            yield from lines[: 1 + len(nodes)]
            raise AssertionError("read past round 0")

        assert next(iter(TelemetryReader(feed()))) == snaps[0]

    def test_reads_a_binary_file(self, tmp_path):
        snaps = snapshots_for(4)
        path = tmp_path / "t.log"
        path.write_bytes(serialize_snapshots(DESK_NODES, snaps).encode("utf-8")[:-5])
        with open(path, "rb") as fh:
            reader = TelemetryReader(fh)
            assert list(reader) == snaps[:3]
        assert reader.partial == PartialRound(round=3, records=5)

    def test_lines_split_on_lf_only(self):
        text = serialize_snapshots(DESK_NODES, snapshots_for(1))
        with pytest.raises(TelemetryError, match="MALFORMED_RECORD") as exc:
            parse_telemetry(text.replace("\n0,0,1.1,", "\r0,0,1.1,", 1))
        assert exc.value.line_no == 2  # the CR stays inside line 2

    @settings(max_examples=500, deadline=None)
    @given(record_logs())
    def test_reads_as_the_line_by_line_loop(self, data):
        """Checking rounds as columns yields, keeps partial and raises as parse_record
        applied one line at a time does, down to the error's line and message."""
        assert read_all(data) == line_by_line(data)

    @settings(max_examples=300, deadline=None)
    @given(record_logs(edits=("move",)))
    # line 3's first comma moved into line 2, before its status: the round's
    # node and value columns still check out; only its status field (empty
    # for line 2) and its time field (line 2's status, for line 3) show it
    @example(header_line(VALUE_NODES).encode() + b"\n0,0,7,25.0000,7,-,-,-,,OK\n"
             b"00,25.0000,25.0000,7,-,-,-,OK\n0,0,OK,25.0000,7,-,-,-,OK\n")
    def test_a_moved_comma_reads_as_the_line_by_line_loop(self, data):
        """A comma moved between two lines keeps the round's field total, or
        the log's, so the reader must find the lines' ends and stamps again."""
        assert read_all(data) == line_by_line(data)

    @settings(max_examples=300, deadline=None)
    @given(damaged_logs())
    def test_bytes_and_text_parse_alike(self, data):
        """Line-by-line decoding accepts and rejects what decoding the whole log does."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            bad_line = data.count(b"\n", 0, e.start) + 1
            with pytest.raises(TelemetryError) as exc:
                parse_telemetry(data)
            assert exc.value.line_no <= bad_line  # the first bad line in the file wins
            if exc.value.line_no == bad_line:
                assert "not UTF-8" in exc.value.message
            return
        assert outcome(data) == outcome(text)


GAS_BLOCK = 64  # columnar_rounds: the block length of a gas column mixed in blocks


@st.composite
def columnar_rounds(draw):
    """Snapshots built as columns: NULL rows, zeros of both signs, gas columns,
    and widths that give more distinct values than a text cache keeps; with
    the gas channel ``mixed`` and, per round, the cells its log column gives
    as "-" (cell by cell, or in blocks of ``GAS_BLOCK`` cells, the first block
    with or without them), which mix "-" with values whenever there are any."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    width = draw(st.sampled_from([1, 6, 64, 65, 150, basestation._MEMO_MAX + 300]))
    nodes = wide_nodes(width)
    gases = draw(st.sampled_from([(), (Channel.CO_PPM,), tuple(Channel)[2:]]))
    mixed = gases[-1] if gases and draw(st.booleans()) else None
    by_block = draw(st.booleans())
    phase = draw(st.integers(0, 1))  # by block: 1 when the first block lacks the channel
    null_prob = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    zeros = draw(st.sampled_from([0.0, 0.1]))  # the share of cells that are +-0.0

    def number(top):
        if rng.random() < zeros:
            return rng.choice([0.0, -0.0])
        return float(rng.randrange(top + 1))

    def temperature():  # any text with four decimals reads back as this float
        if rng.random() < zeros:
            return rng.choice([0.0, -0.0])
        return rng.randrange(-10**9, 10**9) / 10**4

    snaps, dashed = [], []
    for rnd in range(draw(st.integers(1, 3))):
        lost = [rng.random() < null_prob for _ in nodes]
        columns = {Channel.TEMP_C: [None if x else temperature() for x in lost],
                   Channel.LIGHT_RAW: [None if x else number(65535) for x in lost]}
        for gas in gases:
            columns[gas] = [None if x else number(2**53 - 1) for x in lost]
        # the last cell keeps its value: a round's column is never all "-"
        dashed.append({i for i in range(width - 1) if mixed is not None and (
            (i // GAS_BLOCK + phase) % 2 if by_block else rng.random() < 0.5)})
        snaps.append(Snapshot(rnd, rnd * 1000, nodes,
                              {channel: tuple(column) for channel, column in columns.items()}))
    return nodes, snaps, mixed, dashed


class TestColumns:
    @settings(max_examples=150, deadline=None)
    @given(columnar_rounds())
    def test_block_renders_and_reads_back(self, rounds):
        """snapshot_block writes what a per-record reference writes, and the
        reader gives back every snapshot, as the line-by-line reference does.
        With "-" among a gas column's values, both fail at the first record
        that carries other gas channels than its round's first record."""
        nodes, snaps, mixed, dashed = rounds
        for s in snaps:
            assert snapshot_block(s) == reference_block(s)
        data = serialize_snapshots(nodes, snaps).encode("utf-8")
        if not any(dashed):
            assert read_all(data) == line_by_line(data) == (nodes, snaps, None)
            read = parse_telemetry(data).snapshots
            assert serialize_snapshots(nodes, read).encode("utf-8") == data
            return
        width = len(nodes)
        data = dash_cells(data, mixed, [1 + r * width + i for r, cells in enumerate(dashed)
                                        for i in cells])
        r, cells = next((r, cells) for r, cells in enumerate(dashed) if cells)
        i = next(i for i in range(width) if (i in cells) != (0 in cells))
        error = read_all(data)
        assert error[:2] == ("MALFORMED_RECORD", 2 + r * width + i)
        assert error == line_by_line(data)

    def test_a_valid_round_the_columns_reject_is_an_internal_error(self):
        """Every valid round reads as columns, so the line check, finding no
        fault in a whole slice, raises before the round is yielded or marked
        partial; the error names the lines of the slice rejected: of a round
        of one slice that one, of two slices and a line its second or its
        last."""
        bulk = basestation._bulk
        for width, rejected, lines in [(SLICE, 1, f"2-{SLICE + 1}"),
                                       (2 * SLICE + 1, 2, f"{SLICE + 2}-{2 * SLICE + 1}"),
                                       (2 * SLICE + 1, 3, f"{2 * SLICE + 2}-{2 * SLICE + 2}")]:
            nodes = wide_nodes(width)
            data = serialize_snapshots(nodes, snapshots_for(
                2, nodes=nodes, gases=(Channel.CO_PPM,), null_prob=0.1)).encode("utf-8")
            calls = []

            def reject(*args):
                calls.append(None)
                return None if len(calls) == rejected else bulk(*args)

            reader, yielded = TelemetryReader(io.BytesIO(data)), []
            with mock.patch.object(basestation, "_bulk", reject):
                with pytest.raises(RuntimeError, match=f"^lines {lines}: "):
                    yielded.extend(reader)
            assert yielded == [] and reader.partial is None

    @pytest.mark.parametrize("column", [0, 1, 6])  # round, time, and the CO channel
    @pytest.mark.parametrize("part", [1, 2])
    def test_a_later_slice_repeats_the_first_ones_round_time_and_channels(self, column, part):
        """A slice whose every line carries another round, time or gas "-"
        than the round's first slice is consistent on its own; the reader
        names its first line as the line-by-line loop does."""
        width = 2 * SLICE + 1
        nodes = wide_nodes(width)
        snaps = snapshots_for(2, nodes=nodes, gases=(Channel.CO_PPM,), null_prob=0.1)
        lines = serialize_snapshots(nodes, snaps).encode("utf-8").splitlines(keepends=True)
        first = 1 + part * SLICE  # the slice's first line, counted from the header's 0
        for k in range(first, min(first + SLICE, 1 + width)):
            fields = lines[k].split(b",")
            fields[column] = b"-" if column == 6 else b"1" + fields[column]
            lines[k] = b",".join(fields)
        data = b"".join(lines)
        error = read_all(data)
        assert error[:2] == ("MALFORMED_RECORD", 1 + first)
        assert error == line_by_line(data)

    def test_a_round_is_read_in_memory_bounded_by_a_slice(self):
        """Reading a round of 16 slices, with temperature and light of 20
        values each, peaks at about twice what a round of one slice does (a
        slice, then the Snapshot's columns and their parts), not 16 times."""
        def peak(width):
            nodes = wide_nodes(width)
            snap = Snapshot(0, 0, nodes, {channel: tuple(float(i % 20) for i in range(width))
                                          for channel in (Channel.TEMP_C, Channel.LIGHT_RAW)})
            rounds = iter(TelemetryReader(io.BytesIO(serialize_snapshots(nodes, [snap])
                                                     .encode("utf-8"))))
            tracemalloc.start()
            try:
                assert next(rounds) == snap
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16 * SLICE) < 2.5 * peak(SLICE)

    def test_reading_views(self):
        s = Snapshot(3, 3000, ("N1", "1.1"), {Channel.TEMP_C: (25.0, None),
                                             Channel.LIGHT_RAW: (512.0, None),
                                             Channel.CO_PPM: (5.0, None)})
        assert readings(s) == (ok_reading("N1", gases={Channel.CO_PPM: 5.0}),
                               null_reading("1.1", gases=(Channel.CO_PPM,)))
        assert s.reading_for("1.1") == readings(s)[1].values
        assert s.reading_for("N2") is None
        assert from_readings(3, 3000, readings(s)) == s


class TestParserErrors:
    def test_bad_header(self):
        with pytest.raises(TelemetryError, match="BAD_HEADER"):
            parse_telemetry("#SOMETHING v1 nodes=N1\n")
        with pytest.raises(TelemetryError, match="BAD_HEADER"):
            parse_telemetry("")

    @pytest.mark.parametrize("nodes,message", [
        ("N1,N1", "node 'N1' named twice"),
        ("N1,1.1,N2,1.1", "node '1.1' named twice"),
        ("N1,NULL", "bad node id 'NULL'"),
        ("-,N1", "bad node id '-'"),
        # ids no config label can be (validate_label's rule)
        ("N1,a#b", "bad node id 'a#b'"),
        ("N1,a\tb", "bad node id 'a\\tb'"),
        ("N1,a\x00b", "bad node id 'a\\x00b'"),
        ("N1,\u00e9", "bad node id '\u00e9'"),
    ])
    def test_header_names_each_node_once(self, nodes, message):
        """No record could follow a NULL or "-" node, nor could a config name
        a node with a "#", whitespace or a byte outside printable ASCII; a
        repeated one would be read twice."""
        with pytest.raises(TelemetryError, match="BAD_HEADER") as exc:
            parse_telemetry(f"#WSNLOG v1 nodes={nodes}\n")
        assert exc.value.line_no == 1
        assert exc.value.message == f"line 1: {message}"

    def test_header_may_not_name_the_base_station(self):
        """No config can make the base station a sensing node (its name is
        used twice), so a log whose header names it is refused, round and all."""
        log = ("#WSNLOG v1 nodes=BS,N1\n0,0,BS,25.0000,512,-,-,-,OK\n"
               "0,0,N1,25.0000,512,-,-,-,OK\n")
        with pytest.raises(TelemetryError, match="BAD_HEADER") as exc:
            parse_telemetry(log)
        assert exc.value.line_no == 1
        assert exc.value.message == "line 1: node 'BS' is the base station"

    @pytest.mark.parametrize("nodes", ["N1,,N2", ",N1,", "N1,"])
    def test_header_rejects_empty_node_ids(self, nodes):
        """No record can name an empty node; the writer never writes one."""
        with pytest.raises(TelemetryError, match="BAD_HEADER") as exc:
            parse_telemetry(f"#WSNLOG v1 nodes={nodes}\n")
        assert exc.value.line_no == 1
        assert exc.value.message == f"line 1: empty node id in 'nodes={nodes}'"

    def test_wrong_field_count_names_line(self):
        text = header_line(("N1",)) + "\n" + "0,0,N1,25.0000,512\n"
        with pytest.raises(TelemetryError, match="MALFORMED_RECORD") as exc:
            parse_telemetry(text)
        assert exc.value.line_no == 2

    def test_wrong_node_order(self):
        snaps = snapshots_for(1)
        text = serialize_snapshots(DESK_NODES, snaps)
        lines = text.splitlines(keepends=True)
        swapped = "".join([lines[0], lines[2], lines[1], *lines[3:]])
        with pytest.raises(TelemetryError, match="MALFORMED_RECORD"):
            parse_telemetry(swapped)

    def test_non_monotonic_rounds_in_file(self):
        snaps = snapshots_for(2)
        text = serialize_snapshots(DESK_NODES, [snaps[1], snaps[1]])
        with pytest.raises(TelemetryError, match="MALFORMED_RECORD"):
            parse_telemetry(text)

    def test_bad_values(self):
        for bad in ("x,0,N1,25.0000,512,-,-,-,OK",
                    "0,0,N1,hot,512,-,-,-,OK",
                    "0,0,N1,nan,512,-,-,-,OK",
                    "0,0,N1,-inf,512,-,-,-,OK",
                    "0,0,N1,1e999,512,-,-,-,OK",
                    "0,0,N1,25.0000," + "9" * 400 + ",-,-,-,OK",
                    "0,0,N1,25.0000,512,-,-,-,MAYBE"):
            with pytest.raises(TelemetryError, match="MALFORMED_RECORD"):
                parse_telemetry(header_line(("N1",)) + "\n" + bad + "\n")

    def test_status_must_match_values(self):
        """OK means no value is NULL; NULL means every equipped value is."""
        good = "0,0,N1,25.0000,512,-,5,-,OK"
        for bad in ("1,1000,N1,25.0000,NULL,-,5,-,OK",  # OK with a NULL light
                    "1,1000,N1,25.0000,512,-,NULL,-,OK",  # OK with a NULL gas
                    "1,1000,N1,25.0000,NULL,-,NULL,-,NULL",  # NULL with a temperature
                    "1,1000,N1,NULL,NULL,-,5,-,NULL"):  # NULL with a gas value
            text = header_line(("N1",)) + "\n" + good + "\n" + bad + "\n"
            with pytest.raises(TelemetryError, match="MALFORMED_RECORD") as exc:
                parse_telemetry(text)
            assert exc.value.line_no == 3

    def test_non_utf8_byte_names_line(self):
        data = serialize_snapshots(DESK_NODES, snapshots_for(1)).encode("utf-8")
        lines = data.splitlines(keepends=True)
        lines[2] = lines[2].replace(b"1.1", b"1.\xff")
        with pytest.raises(TelemetryError, match="MALFORMED_RECORD") as exc:
            parse_telemetry(b"".join(lines))
        assert exc.value.line_no == 3

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(),
        st.text(),
        st.lists(
            st.lists(st.sampled_from(["0", "1", "-1", "N1", "N2", "-", "NULL", "OK", "25.0000",
                                      "nan", "1e999", "9" * 400, "", "x"]),
                     min_size=7, max_size=10).map(",".join),
            max_size=6,
        ).map(lambda lines: header_line(("N1", "N2")) + "\n" + "\n".join(lines)),
    ))
    def test_parser_raises_only_telemetry_error(self, data):
        """Arbitrary bytes, text, or record-shaped lines parse or raise TelemetryError."""
        try:
            parse_telemetry(data)
        except TelemetryError:
            pass

    @pytest.mark.parametrize("column,text", [
        (3, "+25.5"), (3, "+25.5000"), (3, "2.55e1"), (3, "2.5500e1"), (3, "25.5"),
        (3, "025.5000"), (3, "25.50000"), (3, "-0"), (3, " 25.5000"),
        (4, " 5_12"), (4, "5_12"), (4, "٣"), (4, "0512"), (4, "512.0"), (4, "+512"),
        (4, "9007199254740993"), (5, "-0"), (6, "+5"), (7, "٣"),
        (0, "00"), (0, "٣"), (0, "+0"), (0, "-0"), (1, "01000"), (1, " 0"),
    ])
    def test_non_canonical_numbers_rejected(self, column, text):
        """Only the text snapshot_block writes for a value is accepted."""
        header = header_line(("N1",)) + "\n"
        line = "0,0,N1,25.5000,512,0,0,0,OK"
        assert parse_telemetry(header + line + "\n").snapshots
        fields = line.split(",")
        fields[column] = text
        with pytest.raises(TelemetryError, match="MALFORMED_RECORD") as exc:
            parse_telemetry(header + ",".join(fields) + "\n")
        assert exc.value.line_no == 2

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.tuples(*[fuzzed(c) for c in (COUNT, COUNT, NODE, TEMP, COUNT, GAS, GAS, GAS, OK)]),
        st.tuples(*[fuzzed(c) for c in (COUNT, COUNT, NODE, LOST, LOST, LOST_GAS, LOST_GAS,
                                        LOST_GAS, LOST)]),
        # values and status drawn apart: mostly lines whose status contradicts them
        st.tuples(COUNT, COUNT, NODE, *[st.one_of(c, LOST) for c in (TEMP, COUNT, GAS, GAS, GAS)],
                  STATUS),
    ))
    def test_accepted_lines_round_trip(self, fields):
        """Every line parse_record accepts is the line snapshot_block writes."""
        line = ",".join(fields)
        try:
            rnd, time_ms, *row = parse_record(line)
        except TelemetryError:
            return
        reading = Row(*row)
        values = list(reading.values.values())
        assert values.count(None) in (0, len(values))  # NULL is all-or-none
        assert line_of(rnd, time_ms, reading) == line

    def test_parse_record_roundtrips_single_line(self):
        r = ok_reading(gases={Channel.CO_PPM: 42.0})
        assert parse_record(line_of(3, 3000, r)) == (3, 3000, *r)


class TestWriter:
    def test_append_then_read_your_write(self, tmp_path):
        path = tmp_path / "t.log"
        snaps = snapshots_for(3)
        with TelemetryWriter(path, DESK_NODES) as w:
            for s in snaps:
                w.append(s)
                assert parse_telemetry(path.read_bytes()).snapshots[-1] == s
        parsed = parse_telemetry(path.read_bytes())
        assert parsed.snapshots == snaps
        # record count = rounds x sensing nodes
        assert sum(len(readings(s)) for s in parsed.snapshots) == 3 * 6

    def test_first_round_file_shape(self, tmp_path):
        path = tmp_path / "t.log"
        with TelemetryWriter(path, DESK_NODES) as w:
            w.append(snapshots_for(1)[0])
        lines = path.read_text().splitlines()
        assert lines[0] == header_line(DESK_NODES)
        assert len(lines) == 7  # header + one record per sensing node

    def test_non_monotonic_round_rejected(self, tmp_path):
        snaps = snapshots_for(6)
        with TelemetryWriter(tmp_path / "t.log", DESK_NODES) as w:
            w.append(snaps[5])
            with pytest.raises(TelemetryError, match="NON_MONOTONIC_ROUND"):
                w.append(snaps[5])
            with pytest.raises(TelemetryError, match="NON_MONOTONIC_ROUND"):
                w.append(snaps[2])

    def test_node_set_must_match(self, tmp_path):
        with TelemetryWriter(tmp_path / "t.log", ("N1",)) as w:
            with pytest.raises(ValueError):
                w.append(snapshots_for(1)[0])

    def test_open_failure(self, tmp_path):
        with pytest.raises(TelemetryError, match="IO_FAILURE"):
            TelemetryWriter(tmp_path / "missing" / "t.log", DESK_NODES)

    def test_concurrent_reader_never_sees_torn_round(self, tmp_path):
        """Readers polling the growing file only ever see whole rounds."""
        path = tmp_path / "t.log"
        snaps = snapshots_for(60)
        writer = TelemetryWriter(path, DESK_NODES)
        failures = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    parsed = parse_telemetry(path.read_bytes())
                except TelemetryError as e:
                    failures.append(e)
                    return
                for i, s in enumerate(parsed.snapshots):
                    if s != snaps[i]:
                        failures.append(AssertionError(f"round {i} mismatch"))
                        return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for s in snaps:
            writer.append(s)
        stop.set()
        for t in threads:
            t.join()
        writer.close()
        assert failures == []


class TestLatestMirror:
    def test_mirror_holds_only_newest_round(self, tmp_path):
        path = tmp_path / "latest.log"
        mirror = LatestMirror(path, DESK_NODES)
        snaps = snapshots_for(5)
        for s in snaps:
            mirror.update(s)
            parsed = parse_telemetry(path.read_bytes())
            assert parsed.snapshots == [s]
