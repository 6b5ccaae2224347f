"""End-to-end command tests: run, fetch, plotdata, and the served pipeline."""

import socket
import subprocess
import sys

import pytest

from helpers import make_config, desk_topology
from wsnmon.basestation import parse_record, parse_telemetry
from wsnmon.cli import main
from wsnmon.environment import Channel
from wsnmon.gateway import Gateway
from wsnmon.netsim import run_round
from wsnmon.records import ReadingStatus

DESK_CFG = """\
radio 30 0.0
cluster N1 1.1 1.2
cluster N2 2.1 2.2
rounds 5
"""


def write_cfg(tmp_path, text=DESK_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestRun:
    def test_writes_complete_log(self, tmp_path, capsys):
        out = tmp_path / "telemetry.log"
        rc = main(["run", write_cfg(tmp_path), "--out", str(out)])
        assert rc == 0
        parsed = parse_telemetry(out.read_bytes())
        assert parsed.nodes == ("N1", "1.1", "1.2", "N2", "2.1", "2.2")
        assert len(parsed.snapshots) == 5
        assert parsed.partial is None
        err = capsys.readouterr().err
        assert "ran 5 rounds: 60 messages sent, 0 dropped" in err

    def test_data_never_goes_to_stdout(self, tmp_path, capsys):
        rc = main(["run", write_cfg(tmp_path), "--out", str(tmp_path / "t.log")])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_missing_config(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "t.log")])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_config_error_names_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DESK_CFG.replace("rounds 5", "rounds 0"))
        rc = main(["run", cfg, "--out", str(tmp_path / "t.log")])
        assert rc == 1
        assert "line 4" in capsys.readouterr().err

    def test_unwritable_out_path(self, tmp_path, capsys):
        rc = main(["run", write_cfg(tmp_path), "--out", str(tmp_path / "no/dir/t.log")])
        assert rc == 2
        assert "IO_FAILURE" in capsys.readouterr().err

    def test_unwritable_trace_path(self, tmp_path, capsys):
        out = tmp_path / "t.log"
        rc = main(["run", write_cfg(tmp_path), "--out", str(out),
                   "--trace", str(tmp_path / "no/dir/events.trace")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("wsn run: ")
        assert not out.exists()  # no header-only log left behind

    @pytest.mark.parametrize("broken", ["port", "mirror", "log"])
    def test_failed_start_leaves_no_files(self, tmp_path, capsys, broken):
        """A busy port or an unwritable output path exits 2 and leaves no output file."""
        cfg = write_cfg(tmp_path)
        files = {kind: tmp_path / f"run.{kind}" for kind in ("log", "trace", "mirror")}
        if broken != "port":
            files[broken] = tmp_path / "no" / "dir" / f"run.{broken}"
        args = ["run", cfg, "--out", str(files["log"]), "--trace", str(files["trace"]),
                "--rewrite-latest", str(files["mirror"])]
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            if broken == "port":
                args += ["--serve", "--port", str(busy.getsockname()[1])]
            rc = main(args)
        assert rc == 2
        assert capsys.readouterr().err.startswith("wsn run: ")
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

    def test_trace_export(self, tmp_path):
        out = tmp_path / "t.log"
        trace = tmp_path / "events.trace"
        rc = main(["run", write_cfg(tmp_path), "--out", str(out), "--trace", str(trace)])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert len(lines) == 5 * 12
        assert lines[0] == "0 INTERRUPT_CALL BS N1"
        assert lines[1] == "0 INTERRUPT_CALL BS N2"

    def test_rewrite_latest_holds_final_round(self, tmp_path):
        out = tmp_path / "t.log"
        latest = tmp_path / "latest.log"
        rc = main(["run", write_cfg(tmp_path), "--out", str(out),
                   "--rewrite-latest", str(latest)])
        assert rc == 0
        parsed = parse_telemetry(latest.read_bytes())
        assert [s.round for s in parsed.snapshots] == [4]

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, DESK_CFG.replace("radio 30 0.0", "radio 30 0.3")
                        + "seed 7\nenv temp_c 25 walk 0.5\n")
        paths = [tmp_path / "a.log", tmp_path / "b.log"]
        traces = [tmp_path / "a.trace", tmp_path / "b.trace"]
        for out, trace in zip(paths, traces):
            assert main(["run", cfg, "--out", str(out), "--trace", str(trace)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert traces[0].read_bytes() == traces[1].read_bytes()


@pytest.fixture()
def served_gateway():
    from wsnmon.gateway import serve

    cfg = make_config(gas=True, rounds=3)
    gw = Gateway(desk_topology())
    for r in range(3):
        gw.publish(run_round(cfg, r)[0])
    with serve(gw, port=0) as server:
        yield server.port


class TestFetch:
    def test_snapshot(self, served_gateway, capsys):
        rc = main(["fetch", "--port", str(served_gateway), "SNAPSHOT"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "BEGIN 2 6"
        assert lines[-1] == "END"
        assert [parse_record(l).node for l in lines[1:-1]] == [
            "N1", "1.1", "1.2", "N2", "2.1", "2.2",
        ]

    def test_ping(self, served_gateway, capsys):
        rc = main(["fetch", "--port", str(served_gateway), "PING"])
        assert rc == 0
        assert capsys.readouterr().out == "PONG\n"

    def test_cluster(self, served_gateway, capsys):
        rc = main(["fetch", "--port", str(served_gateway), "CLUSTER", "N2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "BEGIN 2 3"
        assert [parse_record(l).node for l in lines[1:-1]] == ["N2", "2.1", "2.2"]

    def test_error_response_exit_code(self, served_gateway, capsys):
        rc = main(["fetch", "--port", str(served_gateway), "NODE", "9.9"])
        assert rc == 3
        assert capsys.readouterr().out == "ERR UNKNOWN_NODE\n"

    def test_connection_refused(self, capsys):
        rc = main(["fetch", "--port", str(free_port()), "PING"])
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err


class TestPlotdata:
    def run_log(self, tmp_path, extra=""):
        out = tmp_path / "t.log"
        assert main(["run", write_cfg(tmp_path, DESK_CFG + extra),
                     "--out", str(out)]) == 0
        return out

    def test_series_rows(self, tmp_path, capsys):
        out = self.run_log(tmp_path)
        rc = main(["plotdata", str(out), "--node", "1.1", "--channel", "temp_c"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 5
        parsed = parse_telemetry(out.read_bytes())
        for row, snapshot in zip(rows, parsed.snapshots):
            r, value = row.split(",")
            assert int(r) == snapshot.round
            assert float(value) == snapshot.reading_for("1.1").values[Channel.TEMP_C]
            assert "." in value and len(value.split(".")[1]) == 4

    def test_light_rows_are_integers(self, tmp_path, capsys):
        out = self.run_log(tmp_path)
        rc = main(["plotdata", str(out), "--node", "N2", "--channel", "light_raw"])
        assert rc == 0
        for row in capsys.readouterr().out.splitlines():
            _, value = row.split(",")
            assert value == str(int(value))

    def test_null_rounds_are_gaps(self, tmp_path, capsys):
        out = self.run_log(tmp_path, "fail N1 1.1 1 2\n")
        rc = main(["plotdata", str(out), "--node", "1.1", "--channel", "temp_c"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert [r for r in rows if r.endswith(",")] == ["1,", "2,"]

    def test_unknown_node(self, tmp_path, capsys):
        out = self.run_log(tmp_path)
        rc = main(["plotdata", str(out), "--node", "BS", "--channel", "temp_c"])
        assert rc == 1
        assert "UNKNOWN_NODE" in capsys.readouterr().err

    def test_unknown_channel(self, tmp_path, capsys):
        out = self.run_log(tmp_path)
        rc = main(["plotdata", str(out), "--node", "N1", "--channel", "humidity"])
        assert rc == 1
        assert "UNKNOWN_CHANNEL" in capsys.readouterr().err

    def test_unequipped_channel(self, tmp_path, capsys):
        out = self.run_log(tmp_path)
        rc = main(["plotdata", str(out), "--node", "N1", "--channel", "ch4_ppm"])
        assert rc == 1
        assert "UNKNOWN_CHANNEL" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["plotdata", str(tmp_path / "nope.log"),
                   "--node", "N1", "--channel", "temp_c"])
        assert rc == 1

    def test_corrupt_log(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("not a header\n", encoding="utf-8")
        rc = main(["plotdata", str(bad), "--node", "N1", "--channel", "temp_c"])
        assert rc == 1
        assert "MALFORMED_LOG" in capsys.readouterr().err

    def test_trailing_partial_round_is_reported_not_fatal(self, tmp_path, capsys):
        out = self.run_log(tmp_path)
        data = out.read_bytes().splitlines(keepends=True)
        torn = b"".join(data[: 1 + 5 * 6 - 2])  # drop the last round's tail
        torn_path = tmp_path / "torn.log"
        torn_path.write_bytes(torn)
        rc = main(["plotdata", str(torn_path), "--node", "N1", "--channel", "temp_c"])
        assert rc == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 4
        assert "partial round 4" in captured.err


class TestServeFlag:
    def test_run_serves_while_and_after_writing(self, tmp_path):
        """The full pipeline: simulate, persist, and answer live queries."""
        cfg = write_cfg(tmp_path)
        out = tmp_path / "t.log"
        with subprocess.Popen(
            [sys.executable, "-u", "-m", "wsnmon.cli", "run", cfg,
             "--out", str(out), "--serve", "--port", "0"],
            stderr=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        ) as proc:
            try:
                banner = proc.stderr.readline()
                assert "gateway listening on" in banner
                port = int(banner.strip().rsplit(":", 1)[1])
                assert "ran 5 rounds" in proc.stderr.readline()
                assert "still serving" in proc.stderr.readline()

                with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                    reader = sock.makefile("r", encoding="utf-8", newline="\n")
                    sock.sendall(b"PING\n")
                    assert reader.readline() == "PONG\n"
                    sock.sendall(b"SNAPSHOT\n")
                    assert reader.readline() == "BEGIN 4 6\n"
                    for _ in range(6):
                        rec = parse_record(reader.readline().rstrip("\n"))
                        assert rec.round == 4
                        assert rec.status is ReadingStatus.OK
                    assert reader.readline() == "END\n"
            finally:
                proc.terminate()
                proc.wait(timeout=10)
        assert len(parse_telemetry(out.read_bytes()).snapshots) == 5
