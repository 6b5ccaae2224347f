"""Telemetry log: exact serialization, exact parsing, atomic append groups."""

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from helpers import DESK_NODES, random_snapshot
from wsnmon.basestation import (
    LatestMirror,
    TelemetryWriter,
    header_line,
    parse_record,
    parse_telemetry,
    record_line,
    serialize_snapshots,
)
from wsnmon.environment import Channel
from wsnmon.errors import TelemetryError
from wsnmon.records import Reading, ReadingStatus, Snapshot


def ok_reading(node="N1", round_index=0, temp=25.0, light=512.0, gases=None):
    values = {Channel.TEMP_C: temp, Channel.LIGHT_RAW: light, **(gases or {})}
    return Reading(node, round_index, round_index * 1000, values, ReadingStatus.OK)


def null_reading(node="N1", round_index=0, gases=()):
    values = dict.fromkeys((Channel.TEMP_C, Channel.LIGHT_RAW, *gases))
    return Reading(node, round_index, round_index * 1000, values, ReadingStatus.NULL)


def snapshots_for(rounds, rng=None, **kwargs):
    rng = rng or random.Random(1)
    return [random_snapshot(rng, i, **kwargs) for i in range(rounds)]


class TestFormat:
    def test_header_is_exact(self):
        assert header_line(DESK_NODES) == "#WSNLOG v1 nodes=N1,1.1,1.2,N2,2.1,2.2"

    def test_record_line_is_exact(self):
        assert record_line(ok_reading()) == "0,0,N1,25.0000,512,-,-,-,OK"

    def test_null_record_line(self):
        assert record_line(null_reading()) == "0,0,N1,NULL,NULL,-,-,-,NULL"

    def test_gas_channels_serialized_as_integers(self):
        r = ok_reading(gases={Channel.CH4_PPM: 1200.0, Channel.O2_PCT: 20.0})
        assert record_line(r) == "0,0,N1,25.0000,512,1200,-,20,OK"

    def test_temperature_keeps_four_decimals(self):
        assert record_line(ok_reading(temp=24.9375)).split(",")[3] == "24.9375"
        assert record_line(ok_reading(temp=-0.0625)).split(",")[3] == "-0.0625"

    def test_reading_rejects_mixed_status(self):
        with pytest.raises(ValueError):
            Reading("N1", 0, 0, {Channel.TEMP_C: 25.0, Channel.LIGHT_RAW: None},
                    ReadingStatus.OK)
        with pytest.raises(ValueError):
            Reading("N1", 0, 0, {Channel.TEMP_C: 25.0, Channel.LIGHT_RAW: 512.0},
                    ReadingStatus.NULL)

    @pytest.mark.parametrize("missing", [Channel.TEMP_C, Channel.LIGHT_RAW])
    def test_temperature_and_light_are_required(self, missing):
        values = {Channel.TEMP_C: 25.0, Channel.LIGHT_RAW: 512.0}
        del values[missing]
        with pytest.raises(ValueError):
            Reading("N1", 0, 0, values, ReadingStatus.OK)
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


class TestParserErrors:
    def test_bad_header(self):
        with pytest.raises(TelemetryError, match="BAD_HEADER"):
            parse_telemetry("#SOMETHING v1 nodes=N1\n")
        with pytest.raises(TelemetryError, match="BAD_HEADER"):
            parse_telemetry("")

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

    def test_parse_record_roundtrips_single_line(self):
        r = ok_reading(gases={Channel.CO_PPM: 42.0})
        assert parse_record(record_line(r)) == r


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
        assert sum(len(s.readings) for s in parsed.snapshots) == 3 * 6

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
