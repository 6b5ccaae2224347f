"""End-to-end command tests: run, fetch, plotdata, and the served pipeline."""

import argparse
import contextlib
import errno
import io
import itertools
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from helpers import make_config, desk_topology, readings, reference_round
from wsnmon import basestation, cli
from wsnmon.basestation import (LatestMirror, TelemetryWriter, header_line, parse_record,
                                parse_telemetry, snapshot_block)
from wsnmon.cli import main
from wsnmon.config import parse_config
from wsnmon.environment import Channel
from wsnmon.gateway import Gateway
from wsnmon.netsim import run_round, run_simulation

ROOT = Path(__file__).resolve().parent.parent
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


def mirror_updates(monkeypatch) -> list[int]:
    """The round of each ``LatestMirror.update`` call, in order."""
    rounds = []
    update = LatestMirror.update

    def recording_update(mirror, s):
        rounds.append(s.round)
        update(mirror, s)

    monkeypatch.setattr(LatestMirror, "update", recording_update)
    return rounds


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def src_env():
    """The environment for a child Python that imports this checkout's package."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


# argv[1]: the modules to look for; argv[2:]: a wsn command to run first, if any
LOADED_PROBE = """\
import sys
bare = set(sys.modules)
from wsnmon.cli import main
if sys.argv[2:] and main(sys.argv[2:]) != 0:
    sys.exit("the command failed")
print(sorted(set(sys.argv[1].split()) & set(sys.modules) - bare))
"""


def test_import_loads_neither_simulator_nor_server(tmp_path):
    """Each command imports only what it runs: fetch and plotdata start
    without the simulator or the server, a run that does not serve loads no
    server, no socket and no dataclasses, and none loads argparse or the
    gettext and locale it brings. A module that a bare interpreter has
    already loaded (site may load some) is not looked for."""
    log = str(tmp_path / "t.log")
    commands = [
        ([], "wsnmon.config wsnmon.gateway wsnmon.netsim socketserver signal socket "
             "dataclasses argparse gettext locale"),
        (["run", write_cfg(tmp_path), "--out", log],
         "wsnmon.gateway socketserver socket logging dataclasses argparse gettext locale"),
        (["plotdata", log, "--node", "N1", "--channel", "temp_c"],
         "wsnmon.config wsnmon.netsim wsnmon.gateway socket dataclasses "
         "argparse gettext locale"),
    ]
    for argv, modules in commands:
        done = subprocess.run([sys.executable, "-c", LOADED_PROBE, modules, *argv],
                              env=src_env(), capture_output=True, text=True, timeout=60,
                              check=True)
        assert done.stdout.splitlines()[-1] == "[]", argv


def test_each_command_loads_exactly_its_package_modules(tmp_path):
    """fetch and plotdata load the log format and none other of the
    package's modules; a run that does not serve adds exactly the config
    reader, the alert rules and the simulator."""
    package = " ".join(["wsnmon", *(f"wsnmon.{path.stem}"
                                    for path in (ROOT / "src" / "wsnmon").glob("*.py"))])
    log = str(tmp_path / "t.log")

    def loaded(argv: list[str]) -> str:
        done = subprocess.run([sys.executable, "-c", LOADED_PROBE, package, *argv],
                              env=src_env(), capture_output=True, text=True, timeout=60,
                              check=True)
        return done.stdout.splitlines()[-1]

    reader = ["wsnmon", "wsnmon._frozen", "wsnmon.basestation", "wsnmon.cli",
              "wsnmon.environment", "wsnmon.errors"]
    run = ["wsnmon.alerts", "wsnmon.config", "wsnmon.netsim"]
    assert loaded(["run", write_cfg(tmp_path), "--out", log]) == str(sorted(reader + run))
    assert loaded(["plotdata", log, "--node", "N1", "--channel", "temp_c"]) == str(reader)
    with one_shot_listener(b"PONG\n") as port:
        assert loaded(["fetch", "--port", str(port), "PING"]) == str(reader)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``wsn`` had before its option table, which
    the table's parser is held to."""
    parser = argparse.ArgumentParser(prog="wsn")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--serve", action="store_true")
    p_run.add_argument("--host", default="127.0.0.1")
    p_run.add_argument("--port", type=int, default=cli.DEFAULT_PORT)
    p_run.add_argument("--rewrite-latest")
    p_run.add_argument("--trace")
    p_run.add_argument("--pace", action="store_true")
    p_fetch = sub.add_parser("fetch")
    p_fetch.add_argument("--host", default="127.0.0.1")
    p_fetch.add_argument("--port", type=int, default=cli.DEFAULT_PORT)
    p_fetch.add_argument("verb")
    p_fetch.add_argument("args", nargs="*")
    p_plot = sub.add_parser("plotdata")
    p_plot.add_argument("telemetry")
    p_plot.add_argument("--node", required=True)
    p_plot.add_argument("--channel", required=True)
    return parser


def reference_parse(argv: list[str]) -> dict | None:
    """The attributes argparse gives ``argv``, or None if it refuses it."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(reference_parser().parse_args(argv))
    except SystemExit as e:
        assert e.code == 2
        return None


def table_parse(argv: list[str]) -> dict | None:
    """The attributes ``main`` hands its command, or None if it exits 2 with
    a usage error; the command itself does not run."""
    handed = []

    def command(args):
        handed.append(vars(args))
        return 0

    err = io.StringIO()
    with mock.patch.multiple(cli, cmd_run=command, cmd_fetch=command, cmd_plotdata=command), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 2:
        assert not handed and err.getvalue().startswith("wsn: error: ")
        assert "\nusage:\n    wsn run <config> --out <path>" in err.getvalue()
        return None
    assert rc == 0 and err.getvalue() == ""
    return handed[0]


# the documented grammar: each command's positionals ("..." takes the rest), its
# options with the kind of their value, and its required options
GRAMMAR = {
    "run": (["config"], {"--out": "path", "--serve": "flag", "--host": "path", "--port": "int",
                         "--rewrite-latest": "path", "--trace": "path", "--pace": "flag"},
            ["--out"]),
    "fetch": (["verb", "..."], {"--host": "path", "--port": "int"}, []),
    "plotdata": (["telemetry"], {"--node": "path", "--channel": "path"}, ["--node", "--channel"]),
}
# a word that begins with "-" is an option unless it is "-" or a negative integer
WORDS = st.from_regex(r"[ab1._/=]{0,4}|-|-1[01]{0,2}|--?[ab][ab1]{0,2}", fullmatch=True)
PORTS = st.integers(-3, 70000).map(str) | st.sampled_from(["x", "1.5", "", "0x1f", " 7 ", "1_0"])
FAULTS = [None, None, None, "drop option", "drop positional", "drop value", "unknown option",
          "extra positional"]


@st.composite
def command_lines(draw) -> list[str]:
    """The command, its positionals, then its options in any order, each as
    ``--opt value`` or ``--opt=value`` (some twice), the options cut in two
    around the positionals; perhaps with one fault drawn in."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    positionals, options, required = GRAMMAR[command]
    words = [draw(WORDS) for name in positionals if name != "..."]
    if "..." in positionals:
        words += draw(st.lists(WORDS, max_size=3))
    groups = []
    for name, kind in options.items():
        for _ in range(draw(st.sampled_from([1, 1, 2]) if name in required
                            else st.sampled_from([0, 1, 2]))):
            if kind == "flag":
                groups.append([name])
                continue
            value = draw(PORTS if kind == "int" else WORDS)
            groups.append(draw(st.sampled_from([[name, value], [f"{name}={value}"]])))
    groups = draw(st.permutations(groups))
    fault = draw(st.sampled_from(FAULTS))
    if fault == "drop option" and groups:
        groups.pop(draw(st.integers(0, len(groups) - 1)))
    elif fault == "drop positional" and words:
        words.pop(draw(st.integers(0, len(words) - 1)))
    elif fault == "drop value" and any(len(group) == 2 for group in groups):
        draw(st.sampled_from([group for group in groups if len(group) == 2])).pop()
    elif fault == "unknown option":
        groups.insert(draw(st.integers(0, len(groups))),
                      draw(st.sampled_from([["--bogus"], ["--bogus=1"], ["--bogus", "x"]])))
    elif fault == "extra positional":
        words.append(draw(WORDS))
    cut = draw(st.integers(0, len(groups)))
    return [command, *itertools.chain(*groups[:cut]), *words, *itertools.chain(*groups[cut:])]


class TestCommandLine:
    @settings(max_examples=400, deadline=None)
    @given(argv=command_lines())
    def test_parses_as_argparse_did(self, argv):
        """On the documented grammar, and with a required option or positional
        missing, an option without its value, a --port int() refuses, an
        unknown option or a second positional drawn in, ``main`` refuses
        exactly what argparse refused (exit 2), and hands its command the
        attributes argparse gave."""
        assert table_parse(argv) == reference_parse(argv)

    @pytest.mark.parametrize("argv,attributes", [
        (["fetch", "NODE", "--", "-x"], {"verb": "NODE", "args": ["-x"]}),
        (["fetch", "--port", "1", "--", "--host", "-x"], {"verb": "--host", "args": ["-x"]}),
        (["fetch", "NODE", "-1"], {"verb": "NODE", "args": ["-1"]}),
        (["plotdata", "--node=N1", "t.log", "--channel", "temp_c", "--node", "N2"],
         {"telemetry": "t.log", "node": "N2", "channel": "temp_c"}),
    ])
    def test_end_of_options_and_repeats(self, argv, attributes):
        """``--`` ends the options, so a fetch argument may begin with "-"; a
        negative integer is a value; a repeated option's last value counts."""
        parsed = table_parse(argv)
        assert parsed.items() >= attributes.items()
        assert parsed == reference_parse(argv)

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["run", "--help"],
                                      ["fetch", "PING", "-h"]])
    def test_help_prints_the_usage(self, capsys, argv):
        with mock.patch.object(cli, "cmd_fetch") as fetch:
            assert main(argv) == 0
        fetch.assert_not_called()
        out, err = capsys.readouterr()
        assert out == cli.__doc__ and err == ""
        assert "\n    wsn fetch [--host <h>] [--port <n>] <VERB> [args...]\n" in out

    @pytest.mark.parametrize("argv,error", [
        ([], "a command is required: run, fetch or plotdata"),
        (["runs"], "unknown command 'runs'"),
        (["run", "c.cfg", "--ou", "t.log"], "unknown option '--ou'"),  # no abbreviations
        (["run", "c.cfg", "--out", "t.log", "--serve=yes"], "--serve takes no value"),
        (["run", "c.cfg", "--out", "t.log", "--port", "http"],
         "--port needs an integer, not 'http'"),
        (["run", "c.cfg", "--out"], "--out needs a value"),
        (["plotdata", "t.log", "--node", "N1"], "--channel is required"),
        (["fetch", "--port", "1"], "<verb> is required"),
        (["plotdata", "a.log", "b.log", "--node", "N1", "--channel", "temp_c"],
         "unexpected argument 'b.log'"),
    ])
    def test_usage_errors_exit_2(self, capsys, argv, error):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        usage = cli.__doc__.split("\n\n")[1]
        assert (out, err) == ("", f"wsn: error: {error}\nusage:\n{usage}\n")

    def test_help_and_usage_errors_under_python_oo(self):
        """``python -OO`` strips docstrings but not the help text: ``--help``
        prints the same bytes as without it, and an unknown command exits 2
        with the usage block."""
        def wsn(*argv):
            return subprocess.run([sys.executable, *argv], capture_output=True, timeout=60,
                                  env=dict(src_env(), PYTHONDONTWRITEBYTECODE="1"))

        plain = wsn("-m", "wsnmon.cli", "--help")
        assert (plain.returncode, plain.stdout.decode()) == (0, cli.__doc__)
        stripped = wsn("-OO", "-m", "wsnmon.cli", "--help")
        assert (stripped.returncode, stripped.stdout, stripped.stderr) == (0, plain.stdout, b"")
        bogus = wsn("-OO", "-m", "wsnmon.cli", "bogus")
        usage = cli.__doc__.split("\n\n")[1]
        assert (bogus.returncode, bogus.stdout, bogus.stderr.decode()) == (
            2, b"", f"wsn: error: unknown command 'bogus'\nusage:\n{usage}\n")


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

    @pytest.mark.parametrize("fail,message", [
        ("fail 1.1 2.1 0 5", "1.1->2.1 is not a link"),
        ("fail BS X9 0 5", "no node 'X9'"),
    ])
    def test_bad_outage_names_its_fail_line(self, tmp_path, capsys, fail, message):
        cfg = write_cfg(tmp_path, DESK_CFG + "fail N1 1.1 0 1\n" + fail + "\n")
        assert main(["run", cfg, "--out", str(tmp_path / "t.log")]) == 1
        assert capsys.readouterr().err == f"wsn run: CONFIG: line 6: {message}\n"
        assert not (tmp_path / "t.log").exists()

    def test_event_times_str_cannot_write_name_their_line(self, tmp_path, capsys):
        """A traced run of a schedule whose round times str() cannot write
        stops at its period_ms line, before any output file is made."""
        cfg = write_cfg(tmp_path, DESK_CFG.replace(
            "rounds 5", "rounds 12\nperiod_ms 1" + "0" * 4299 + "\nhop_ms 0"))
        out, trace = tmp_path / "t.log", tmp_path / "t.trace"
        assert main(["run", cfg, "--out", str(out), "--trace", str(trace)]) == 1
        assert capsys.readouterr().err == (
            "wsn run: CONFIG: line 5: the last round's event times have too many digits "
            "to write\n")
        assert not out.exists() and not trace.exists()

    def test_unwritable_out_path(self, tmp_path, capsys):
        rc = main(["run", write_cfg(tmp_path), "--out", str(tmp_path / "no/dir/t.log")])
        assert rc == 2
        assert "IO_FAILURE" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_out_path_closes_the_log(self, tmp_path):
        """A log whose header cannot be written exits 2 with one line: the
        file is closed, so -X dev reports no unclosed file or ignored error."""
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "wsnmon.cli", "run", write_cfg(tmp_path),
             "--out", "/dev/full"],
            env=src_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr.startswith("wsn run: IO_FAILURE: ")
        assert len(done.stderr.splitlines()) == 1, done.stderr

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs a file size limit")
    def test_a_log_created_but_not_written_is_removed(self, tmp_path):
        """Under a file size limit of 0 the log is created and its header
        refused: the run exits 2 and removes the log and the trace it made.
        The child's stdout and stderr are pipes, which the limit spares."""
        import resource

        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a refused write fails with EFBIG
            resource.setrlimit(resource.RLIMIT_FSIZE, (0, 0))

        cfg = write_cfg(tmp_path)
        done = subprocess.run(
            [sys.executable, "-m", "wsnmon.cli", "run", cfg, "--out", str(tmp_path / "o.log"),
             "--trace", str(tmp_path / "t.tr")],
            env=dict(src_env(), PYTHONDONTWRITEBYTECODE="1"), preexec_fn=limit_file_size,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith(
            f"wsn run: IO_FAILURE: cannot open {tmp_path / 'o.log'}: "), done.stderr
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs a file size limit")
    @pytest.mark.parametrize("dev", [False, True], ids=["plain", "dev"])
    @pytest.mark.parametrize("traced", [False, True], ids=["out", "trace"])
    def test_a_file_size_limit_mid_run_names_the_output_it_stopped(self, tmp_path, traced, dev):
        """Under a file size limit that falls inside round 10 of the output that
        grows fastest (the trace, when there is one), the run exits 2 with one
        line naming that output and round, also under -X dev: closing it again
        never replaces that error. The output holds its bytes up to the limit,
        and the log every whole round before 10."""
        import resource

        cfg = ROOT / "configs" / "desk.cfg"
        sim = parse_config(cfg.read_text(encoding="utf-8")).sim
        snapshots, traces = [], []
        run_simulation(sim, snapshots.append, on_trace=traces.append)
        log_text = header_line(sim.topology.sensing_nodes()) + "\n"
        log_through = [len(log_text)]  # the log's size after each round: header, 0, 1, ...
        for s in snapshots:
            log_text += snapshot_block(s)
            log_through.append(len(log_text.encode()))
        out, trace, k = tmp_path / "o.log", tmp_path / "t.tr", 10
        if traced:
            stopped, text = trace, "".join(traces)
            through = [len("".join(traces[:r]).encode()) for r in range(k + 2)]
        else:
            stopped, text, through = out, log_text, log_through[:k + 2]
        limit = (through[k] + through[k + 1]) // 2  # inside round k
        assert log_through[k] <= limit  # the log has room for every round before k

        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a refused write fails with EFBIG
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        done = subprocess.run(
            [sys.executable, *(["-X", "dev"] if dev else []), "-m", "wsnmon.cli", "run",
             str(cfg), "--out", str(out), *(["--trace", str(trace)] if traced else [])],
            env=dict(src_env(), PYTHONDONTWRITEBYTECODE="1"), preexec_fn=limit_file_size,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
        cause = OSError(errno.EFBIG, os.strerror(errno.EFBIG))
        assert (done.returncode, done.stderr) == (2, (
            f"wsn run: SINK_FAILURE: sink failed at round {k}: "
            f"IO_FAILURE: cannot write {stopped}: {cause}\n"))
        assert stopped.read_bytes() == text.encode()[:limit]
        log = parse_telemetry(out.read_bytes())
        assert log.snapshots == snapshots[:k]
        torn = text.encode()[log_through[k]:limit]  # round k's lines up to the limit
        assert log.partial == (None if traced else (k, torn.count(b"\n")))

    @pytest.mark.skipif(os.name != "posix", reason="sends POSIX signals")
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_interrupt_ends_on_a_whole_round(self, tmp_path, signum):
        """Ctrl-C (or SIGTERM) during a paced run exits 130 without a
        traceback, naming the last round of a log that still parses whole."""
        paced = DESK_CFG.replace("rounds 5", "rounds 500\nperiod_ms 20\nhop_ms 1")
        cfg = write_cfg(tmp_path, paced)
        out = tmp_path / "t.log"
        with subprocess.Popen(
            [sys.executable, "-m", "wsnmon.cli", "run", cfg, "--out", str(out), "--pace"],
            env=src_env(), stderr=subprocess.PIPE, text=True,
            # a launcher that ignores the signal would pass that on to the child
            preexec_fn=lambda: signal.signal(signum, signal.SIG_DFL),
        ) as proc:
            try:
                deadline = time.monotonic() + 30
                while not (out.exists() and out.read_bytes().count(b"\n") > 6):  # a round
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.01)
                proc.send_signal(signum)
                err = proc.communicate(timeout=30)[1]
            finally:
                if proc.poll() is None:
                    proc.kill()
        assert proc.returncode == 130, err
        parsed = parse_telemetry(out.read_bytes())
        assert parsed.partial is None
        last = parsed.snapshots[-1].round
        assert err == f"wsn run: interrupted; the log ends with round {last}\n"

    @pytest.mark.parametrize("outside_python", [False, True])
    def test_sigterm_handler_is_put_back(self, tmp_path, capsys, outside_python):
        """A run takes SIGTERM and SIGINT with one handler that interrupts it,
        and leaves the caller's handlers as it found them; a handler Python
        cannot name (getsignal gives None) is put back as SIG_DFL."""
        def handler(signum, frame):
            pass

        real_signal, installed = signal.signal, []

        def recording_signal(signum, new):
            installed.append((signum, new))
            old = real_signal(signum, new)
            return None if outside_python else old

        both = (signal.SIGTERM, signal.SIGINT)
        previous = {signum: real_signal(signum, handler) for signum in both}
        try:
            with mock.patch.object(signal, "signal", recording_signal):
                assert main(["run", write_cfg(tmp_path), "--out", str(tmp_path / "t.log")]) == 0
            interrupt = installed[0][1]
            with pytest.raises(KeyboardInterrupt):
                interrupt(signal.SIGTERM, None)
            restored = signal.SIG_DFL if outside_python else handler
            assert installed == [(signum, interrupt) for signum in both] + [
                (signum, restored) for signum in both]
            assert [signal.getsignal(signum) for signum in both] == [restored, restored]
        finally:
            for signum, old in previous.items():
                real_signal(signum, old)

    def test_an_ignored_sigint_stays_ignored(self, tmp_path, capsys):
        """A caller that ignores SIGINT, as a shell does for a background job
        without job control, keeps ignoring it; SIGTERM still interrupts."""
        real_signal, installed = signal.signal, []

        def recording_signal(signum, new):
            installed.append(signum)
            return real_signal(signum, new)

        previous = real_signal(signal.SIGINT, signal.SIG_IGN)
        try:
            with mock.patch.object(signal, "signal", recording_signal):
                assert main(["run", write_cfg(tmp_path), "--out", str(tmp_path / "t.log")]) == 0
            assert installed == [signal.SIGTERM, signal.SIGTERM]
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            real_signal(signal.SIGINT, previous)

    @pytest.mark.skipif(os.name != "posix", reason="sends POSIX signals")
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    @pytest.mark.parametrize("serve", [False, True], ids=["unpaced", "served"])
    def test_a_signal_inside_a_log_append_takes_effect_after_it(self, tmp_path, capsys,
                                                                monkeypatch, serve, signum):
        """A signal sent once round 3's append has flushed it: the run exits 130
        naming round 3, the log's last whole round, and the mirror holds it."""
        if signal.getsignal(signum) is signal.SIG_IGN:
            pytest.skip("this process ignores the signal, so the run leaves it ignored")
        k, sent = 3, []
        init = TelemetryWriter.__init__

        def init_with_signalling_flush(writer, path, nodes):
            init(writer, path, nodes)
            flush = writer._fh.flush

            def signalling_flush():
                flush()
                whole = Path(writer.path).read_bytes().count(b"\n") == 1 + (k + 1) * len(nodes)
                if whole and not sent:  # once: closing the log flushes it again
                    sent.append(k)
                    os.kill(os.getpid(), signum)

            writer._fh.flush = signalling_flush

        monkeypatch.setattr(TelemetryWriter, "__init__", init_with_signalling_flush)
        out, latest = tmp_path / "t.log", tmp_path / "t.latest"
        args = ["run", write_cfg(tmp_path), "--out", str(out), "--rewrite-latest", str(latest)]
        try:
            rc = main(args + (["--serve", "--port", "0"] if serve else []))
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped wsn run")
        assert rc == 130 and sent == [k]
        err = capsys.readouterr().err
        assert err.endswith(f"wsn run: interrupted; the log ends with round {k}\n"), err
        log = parse_telemetry(out.read_bytes())
        assert log.partial is None and log.snapshots[-1].round == k
        assert parse_telemetry(latest.read_bytes()).snapshots == log.snapshots[-1:]

    def test_unwritable_trace_path(self, tmp_path, capsys):
        """A trace in a missing directory, or at a directory, is an IO_FAILURE
        that names it, as the log's is, and leaves no file behind."""
        cfg, out = write_cfg(tmp_path), tmp_path / "t.log"
        (tmp_path / "adir").mkdir()
        for trace, code in [(tmp_path / "no/dir/events.trace", errno.ENOENT),
                            (tmp_path / "adir", errno.EISDIR)]:
            rc = main(["run", cfg, "--out", str(out), "--trace", str(trace)])
            assert rc == 2
            cause = OSError(code, os.strerror(code), str(trace))
            err = capsys.readouterr().err
            assert err == f"wsn run: IO_FAILURE: cannot open {trace}: {cause}\n"
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

    @pytest.mark.parametrize("outputs", [
        ["--out", "a.log", "--rewrite-latest", "a.log"],
        ["--out", "b.log", "--trace", "b.log"],
        ["--out", "m.latest.tmp", "--rewrite-latest", "m.latest"],
        ["--out", "c.log", "--trace", "sub/../c.log"],
    ])
    def test_two_outputs_naming_one_file_are_refused(self, tmp_path, capsys, monkeypatch,
                                                      outputs):
        """Each output is written whole in turn, so a run whose outputs share a
        file (the mirror's temp file included) would lose data: it exits 2
        before any file is created."""
        cfg = write_cfg(tmp_path)
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["run", cfg, *outputs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wsn run: SAME_FILE: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "sub"]

    def test_config_that_is_not_utf8_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(DESK_CFG.replace("rounds 5", "rounds 5 # caf\u00e9").encode("latin-1"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "t.log")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("wsn run: CONFIG: line 4: not UTF-8: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_config_line_ends_read_as_lf(self, tmp_path, newline):
        """CRLF and CR end a config's lines, as they did when it was read as text."""
        logs = []
        for name, text in [("lf", DESK_CFG), ("other", DESK_CFG.replace("\n", newline))]:
            out = tmp_path / f"{name}.log"
            assert main(["run", write_cfg(tmp_path, text, f"{name}.cfg"), "--out", str(out)]) == 0
            logs.append(out.read_bytes())
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_out_of_range_port_exits_2(self, tmp_path, capsys, port):
        out = tmp_path / "t.log"
        assert main(["run", write_cfg(tmp_path), "--out", str(out), "--serve",
                     "--port", port]) == 2
        assert capsys.readouterr().err.startswith(
            f"wsn run: BIND_FAILURE: cannot bind 127.0.0.1:{port}: ")
        assert not out.exists()

    def test_unreplaceable_mirror_leaves_no_temp_file(self, tmp_path, capsys, monkeypatch):
        """A mirror whose temp file cannot replace it fails the run, and its temp file goes."""
        def fail(src, dst):
            raise OSError(errno.EXDEV, "cross-device link")

        monkeypatch.setattr(os, "replace", fail)
        mirror = tmp_path / "latest"
        rc = main(["run", write_cfg(tmp_path), "--out", str(tmp_path / "t.log"),
                   "--rewrite-latest", str(mirror)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"wsn run: IO_FAILURE: cannot write {mirror}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("kind", ["directory", "fifo", "symlink", "symlinked temp file"])
    def test_mirror_refuses_a_path_that_is_not_a_regular_file(self, tmp_path, capsys, kind):
        """Replacing a device, FIFO or symlink would destroy it: the run exits 2
        before any round, and leaves the path as it was."""
        mirror = tmp_path / "latest"
        target = tmp_path / "target.txt"
        target.write_text("keep\n", encoding="utf-8")
        if kind == "directory":
            mirror.mkdir()
        elif kind == "fifo":
            os.mkfifo(mirror)
        else:
            (tmp_path / ("latest.tmp" if kind == "symlinked temp file" else "latest")).symlink_to(
                target)
        before = sorted((p.name, p.lstat().st_mode) for p in tmp_path.iterdir())
        out = tmp_path / "t.log"
        rc = main(["run", write_cfg(tmp_path), "--out", str(out), "--rewrite-latest", str(mirror)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"wsn run: IO_FAILURE: cannot write {mirror}: ") and (
            "is not a regular file" in err), err
        (tmp_path / "run.cfg").unlink()
        assert sorted((p.name, p.lstat().st_mode) for p in tmp_path.iterdir()) == before
        assert target.read_text(encoding="utf-8") == "keep\n"

    def test_failed_start_removes_only_the_files_it_created(self, tmp_path, capsys,
                                                            monkeypatch):
        """A trace or mirror path that existed before the run stays when a later
        output fails to open; one the run created goes."""
        removed = []
        remove = os.remove
        monkeypatch.setattr(os, "remove", lambda path: (removed.append(path), remove(path)))
        for old in (False, True):
            trace, mirror = tmp_path / f"{old}.trace", tmp_path / f"{old}.latest"
            if old:
                trace.write_text("", encoding="utf-8")
                mirror.write_text("", encoding="utf-8")
            rc = main(["run", write_cfg(tmp_path), "--out", str(tmp_path / "no/dir/t.log"),
                       "--trace", str(trace), "--rewrite-latest", str(mirror)])
            assert rc == 2
            assert capsys.readouterr().err.startswith("wsn run: IO_FAILURE: ")
            assert trace.exists() == mirror.exists() == old
        assert sorted(removed) == sorted([str(tmp_path / "False.trace"),
                                          str(tmp_path / "False.latest")])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_trace_stops_the_run_before_its_round_is_logged(self, tmp_path, capsys):
        """Each round's trace is flushed before the round is appended to the log."""
        out = tmp_path / "t.log"
        rc = main(["run", write_cfg(tmp_path), "--out", str(out), "--trace", "/dev/full"])
        assert rc == 2
        err = capsys.readouterr().err
        cause = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert err == ("wsn run: SINK_FAILURE: sink failed at round 0: "
                       f"IO_FAILURE: cannot write /dev/full: {cause}\n"), err
        assert out.read_bytes().count(b"\n") == 1  # the header alone

    def test_trace_export(self, tmp_path):
        out = tmp_path / "t.log"
        trace = tmp_path / "events.trace"
        rc = main(["run", write_cfg(tmp_path), "--out", str(out), "--trace", str(trace)])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert len(lines) == 5 * 12
        assert lines[0] == "0 INTERRUPT_CALL BS N1"
        assert lines[1] == "0 INTERRUPT_CALL BS N2"

    def test_hop_zero_trace_with_an_outage_matches_reference_round(self, tmp_path):
        """With hop_ms 0 every event of a round shares one time, so the trace
        keeps emission order; a forced-down link drops without a draw."""
        cfg_text = ("radio 30 0.3\ncluster N1 1.1 1.2 1.3\ncluster N2 2.1 2.2\n"
                    "cluster N3\nrounds 12\nseed 5\nhop_ms 0\nfail N1 1.2 2 7\n"
                    "fail N2 BS 5 5\n")
        trace = tmp_path / "t.trace"
        rc = main(["run", write_cfg(tmp_path, cfg_text), "--out", str(tmp_path / "t.log"),
                   "--trace", str(trace)])
        assert rc == 0
        cfg = parse_config(cfg_text).sim
        expected = "".join(reference_round(cfg, r)[1] for r in range(cfg.rounds))
        assert trace.read_text(encoding="utf-8") == expected
        assert " LINK_DROP N1 1.2\n" in expected and " LINK_DROP N2 BS\n" in expected

    def test_rewrite_latest_holds_final_round(self, tmp_path):
        out = tmp_path / "t.log"
        latest = tmp_path / "latest.log"
        rc = main(["run", write_cfg(tmp_path), "--out", str(out),
                   "--rewrite-latest", str(latest)])
        assert rc == 0
        parsed = parse_telemetry(latest.read_bytes())
        assert [s.round for s in parsed.snapshots] == [4]

    def test_each_record_rendered_once(self, tmp_path, monkeypatch):
        """The log and the mirror share one rendering of each round."""
        renders = []
        render_block = basestation._render_block

        def counting_render_block(s):
            renders.append(s.round)
            return render_block(s)

        monkeypatch.setattr(basestation, "_render_block", counting_render_block)
        rc = main(["run", str(ROOT / "configs" / "desk.cfg"), "--out", str(tmp_path / "t.log"),
                   "--rewrite-latest", str(tmp_path / "latest.log")])
        assert rc == 0
        parsed = parse_telemetry((tmp_path / "t.log").read_bytes())
        assert len(parsed.snapshots) == 100
        assert renders == [s.round for s in parsed.snapshots]

    def test_paced_run_rewrites_the_mirror_every_round(self, tmp_path, monkeypatch):
        """A paced run's reader can use every round, so each one is mirrored."""
        mirrored = mirror_updates(monkeypatch)
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        rc = main(["run", write_cfg(tmp_path), "--out", str(tmp_path / "t.log"),
                   "--rewrite-latest", str(tmp_path / "t.latest"), "--pace"])
        assert rc == 0
        assert mirrored == [0, 1, 2, 3, 4]

    def test_paced_run_sleeps_a_period_past_the_float_range(self, tmp_path, capsys,
                                                            monkeypatch):
        """A paced period of 10**400 ms is slept a day at a time, not refused."""
        slept = []

        def interrupted_sleep(seconds):
            slept.append(seconds)
            raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", interrupted_sleep)
        out = tmp_path / "t.log"
        cfg = DESK_CFG.replace("rounds 5", f"rounds 5\nperiod_ms {10**400}")
        rc = main(["run", write_cfg(tmp_path, cfg), "--out", str(out), "--pace"])
        assert rc == 130
        assert "the log ends with round 0" in capsys.readouterr().err
        assert [s.round for s in parse_telemetry(out.read_bytes()).snapshots] == [0]
        assert len(slept) == 1 and 0 < slept[0] <= 86_400

    def test_paced_run_sleeps_exactly_one_period_a_round(self, tmp_path, monkeypatch):
        """Each round's slices add up to its period, to the millisecond."""
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        period_ms = 2 * 86_400_000 + 5
        cfg = DESK_CFG.replace("rounds 5", f"rounds 5\nperiod_ms {period_ms}")
        rc = main(["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "t.log"), "--pace"])
        assert rc == 0
        assert len(slept) == 5 * 3
        for r in range(5):
            assert sum(round(s * 1000) for s in slept[3 * r:3 * r + 3]) == period_ms
        assert max(slept) <= 86_400

    @pytest.mark.parametrize("period_ms", [10**9, 10**400], ids=["1e9", "1e400"])
    def test_unpaced_run_rewrites_the_mirror_once_a_period(self, tmp_path, monkeypatch,
                                                           period_ms):
        """Unpaced, the mirror is rewritten for the first round, then once a
        period has passed, and for the last round; a period past the float
        range is compared exactly."""
        mirrored = mirror_updates(monkeypatch)
        latest = tmp_path / "t.latest"
        cfg = DESK_CFG.replace("rounds 5", f"rounds 100\nperiod_ms {period_ms}")
        rc = main(["run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "t.log"),
                   "--rewrite-latest", str(latest)])
        assert rc == 0
        assert mirrored == [0, 99]
        assert [s.round for s in parse_telemetry(latest.read_bytes()).snapshots] == [99]

    @pytest.mark.parametrize("fault, step_ns, exc", [
        (fault, step_ns, exc)
        for fault, step_ns in [("before append", 10**12), ("after append", 10**12),
                               ("mirror rename", 10**12), ("before append", 0),
                               ("after append", 0)]
        for exc in [KeyboardInterrupt, OSError]
        # an OSError in the mirror's rename is the mirror's own failure: not caught up
        if not (fault == "mirror rename" and exc is OSError)
    ])
    def test_a_stopped_run_leaves_the_mirror_on_the_logs_last_round(
            self, tmp_path, capsys, monkeypatch, fault, step_ns, exc):
        """An interrupt (exit 130) or a sink failure (exit 2) at round 3 of an
        unpaced run, between or inside its writes, leaves the mirror holding
        the log's last whole round and no temp file. The clock passes a period
        (1000 ms) at each round's check, or never passes one."""
        k, code = 3, 130 if exc is KeyboardInterrupt else 2
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(
            monotonic_ns=itertools.count(0, step_ns).__next__, sleep=time.sleep))
        append, replace = TelemetryWriter.append, os.replace
        struck = []

        def strike(point, rounds):
            if fault == point and rounds == [k] and not struck:  # once: the catch-up succeeds
                struck.append(point)
                raise exc(errno.ENOSPC, "no space left")

        def faulty_append(writer, s):
            strike("before append", [s.round])
            append(writer, s)
            strike("after append", [s.round])

        def faulty_replace(src, dst):
            strike("mirror rename", [s.round for s in parse_telemetry(
                Path(src).read_bytes()).snapshots])
            replace(src, dst)

        monkeypatch.setattr(TelemetryWriter, "append", faulty_append)
        monkeypatch.setattr(os, "replace", faulty_replace)
        out, latest = tmp_path / "t.log", tmp_path / "t.latest"
        rc = main(["run", write_cfg(tmp_path), "--out", str(out), "--rewrite-latest", str(latest)])
        assert rc == code and struck == [fault]
        log = parse_telemetry(out.read_bytes())
        assert log.partial is None
        last = k - 1 if fault == "before append" else k
        assert log.snapshots[-1].round == last
        err = capsys.readouterr().err
        if code == 130:
            assert err == f"wsn run: interrupted; the log ends with round {last}\n"
        else:
            assert err.startswith(f"wsn run: SINK_FAILURE: sink failed at round {k}: "), err
        assert parse_telemetry(latest.read_bytes()).snapshots == log.snapshots[-1:]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "t.latest", "t.log"]

    def test_a_mirror_that_fails_is_not_rewritten_again(self, tmp_path, capsys, monkeypatch):
        """A failed mirror rewrite ends the run with its own error: the mirror
        keeps the round before and its temp file goes."""
        calls = []
        replace = os.replace

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == 4:  # the header, rounds 0 and 1, then round 2
                raise OSError(errno.EXDEV, "cross-device link")
            replace(src, dst)

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(
            monotonic_ns=itertools.count(0, 10**12).__next__, sleep=time.sleep))
        monkeypatch.setattr(os, "replace", failing_replace)
        latest = tmp_path / "t.latest"
        rc = main(["run", write_cfg(tmp_path), "--out", str(tmp_path / "t.log"),
                   "--rewrite-latest", str(latest)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"wsn run: SINK_FAILURE: sink failed at round 2: IO_FAILURE: cannot write {latest}: ")
        assert len(calls) == 4
        assert [s.round for s in parse_telemetry(latest.read_bytes()).snapshots] == [1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "t.latest", "t.log"]

    def test_a_failed_rewrite_for_the_last_round_is_a_sink_failure(self, tmp_path, capsys,
                                                                   monkeypatch):
        """An unpaced run rewrites the mirror for its last round in that
        round's sink, so a failure there is the round's SINK_FAILURE: the log
        keeps every round, the mirror its last good round, and no temp file
        is left. The clock never passes a period."""
        calls = []
        replace = os.replace

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == 3:  # the header, round 0, then the last round
                raise OSError(errno.ENOSPC, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(
            monotonic_ns=itertools.count(0, 0).__next__, sleep=time.sleep))
        monkeypatch.setattr(os, "replace", failing_replace)
        out, latest = tmp_path / "t.log", tmp_path / "t.latest"
        rc = main(["run", write_cfg(tmp_path), "--out", str(out), "--rewrite-latest", str(latest)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"wsn run: SINK_FAILURE: sink failed at round 4: IO_FAILURE: cannot write {latest}: ")
        log = parse_telemetry(out.read_bytes())
        assert [s.round for s in log.snapshots] == [0, 1, 2, 3, 4] and log.partial is None
        assert [s.round for s in parse_telemetry(latest.read_bytes()).snapshots] == [0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "t.latest", "t.log"]

    def test_overflowing_walk_saturates(self, tmp_path):
        """A walk past the float range reads the sensor's bounds; the run completes."""
        out = tmp_path / "t.log"
        cfg = write_cfg(tmp_path, "cluster N1 1.1\nrounds 50\nenv temp_c 25 walk 1e308\n")
        assert main(["run", cfg, "--out", str(out)]) == 0
        parsed = parse_telemetry(out.read_bytes())
        assert len(parsed.snapshots) == 50
        temps = {r.values[Channel.TEMP_C] for s in parsed.snapshots[1:] for r in readings(s)}
        assert temps == {-40.0, 125.0}

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, DESK_CFG.replace("radio 30 0.0", "radio 30 0.3")
                        + "seed 7\nenv temp_c 25 walk 0.5\n")
        paths = [tmp_path / "a.log", tmp_path / "b.log"]
        traces = [tmp_path / "a.trace", tmp_path / "b.trace"]
        for out, trace in zip(paths, traces):
            assert main(["run", cfg, "--out", str(out), "--trace", str(trace)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert traces[0].read_bytes() == traces[1].read_bytes()


class FullStdout(io.StringIO):
    """Standard output on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture()
def served_gateway():
    from wsnmon.gateway import serve

    cfg = make_config(gas=True, rounds=3)
    gw = Gateway(desk_topology())
    for r in range(3):
        gw.publish(run_round(cfg, r)[0])
    with serve(gw, port=0) as server:
        yield server.port


@contextlib.contextmanager
def one_shot_listener(reply: bytes, reset: bool = False):
    """A local listener that answers one request with ``reply`` and closes, by
    a reset if ``reset`` (which may discard what is not yet sent); yields its port."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def reply_once():
            conn, _ = listener.accept()
            with conn:
                conn.recv(64)
                with contextlib.suppress(OSError):  # a client that stops reading resets
                    conn.sendall(reply)
                if reset:  # a zero linger time: close sends RST
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

        server = threading.Thread(target=reply_once)
        server.start()
        try:
            yield listener.getsockname()[1]
        finally:
            server.join(timeout=30)
            assert not server.is_alive()


DESK_RECORD = b"0,0,N1,25.0000,512,-,-,-,OK\n"
# one line at the cap, its LF included, and one past it
LONG_LINES = [b"ERR " + b"B" * (cli.MAX_REPLY_LINE - 5), b"ERR " + b"B" * (cli.MAX_REPLY_LINE - 4)]

# the lines a reply is drawn from: its first line, and what may follow
# (records, alert lines, END and more), bytes that are not UTF-8 included
FIRST_LINES = [b"PONG", b"ERR BUSY", b"ERR NO_DATA", b"PONG\r", b"ERR", b"ERR ", b"ERR NO DATA",
               b"BEGIN 0 01", b"BEGIN x 1", b"BEGIN 0", b"BEGIN 0 \xd9\xa1", b"BEGIN ALERTS 1",
               b"END", b"\xff", b"caf\xc3\xa9", b"", b"BEGIN 0 99999", b"BEGIN 0 100000",
               *LONG_LINES]
BODY_LINES = [DESK_RECORD[:-1], b"hot,N1,0,31.2500,WARN", b"END", b"END ", b"", b"\xff", b"\xc3"]


@st.composite
def replies(draw) -> bytes:
    """Token soup: half of the time an envelope header with k lines and END
    (k as said or one off, or now and then a thousand lines more than said),
    else one of FIRST_LINES; then up to two lines more. A line ends in LF,
    except the last one half of the time, and now and then another."""
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        said = k + draw(st.sampled_from([0, 0, -1, 1]))
        body = draw(st.lists(st.sampled_from(BODY_LINES[:2] + LONG_LINES), min_size=k,
                             max_size=k))
        body += [DESK_RECORD[:-1]] * draw(st.sampled_from([0] * 7 + [1000]))
        lines = [b"BEGIN %d %d" % (draw(st.integers(0, 2)), said), *body, b"END"]
    else:
        lines = [draw(st.sampled_from(FIRST_LINES))]
    lines += draw(st.lists(st.sampled_from(BODY_LINES + FIRST_LINES), max_size=2))
    ends = draw(st.lists(st.sampled_from([b"\n"] * 7 + [b""]), min_size=len(lines) - 1,
                         max_size=len(lines) - 1))
    ends.append(draw(st.sampled_from([b"\n", b""])))
    return b"".join(map(bytes.__add__, lines, ends))


def first_whole_reply(data: bytes) -> bytes | None:
    """The reply ``data`` begins with if that reply is whole (the rule the cli
    module docstring gives), else None: the first line is PONG, ERR <CODE> or
    BEGIN <round|ALERTS> <k>, a BEGIN is followed by k lines and END, and every
    one of these lines ends in LF, within the caps on k's digits and on a
    line's bytes."""
    lines = data.split(b"\n")[:-1]  # what follows the last LF is no line
    if not lines:
        return None
    head = lines[0].split(b" ")
    if lines[0] == b"PONG" or (len(head) == 2 and head[0] == b"ERR" and head[1]):
        reply = lines[:1]
    else:
        count = re.compile(rb"[0-9]{1,%d}" % cli.MAX_COUNT_DIGITS)
        if not (len(head) == 3 and head[0] == b"BEGIN" and count.fullmatch(head[2])
                and (head[1] == b"ALERTS" or re.fullmatch(rb"[0-9]+", head[1]))
                and b"END" in lines):
            return None
        end = lines.index(b"END")
        if head[2] != b"%d" % (end - 1):
            return None
        reply = lines[:end + 1]
    if any(len(line) >= cli.MAX_REPLY_LINE for line in reply):  # with its LF, past the cap
        return None
    return b"".join(line + b"\n" for line in reply)


class TestFetch:
    def test_snapshot(self, served_gateway, capsys):
        rc = main(["fetch", "--port", str(served_gateway), "SNAPSHOT"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "BEGIN 2 6"
        assert lines[-1] == "END"
        assert [parse_record(l)[2] for l in lines[1:-1]] == [
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
        assert [parse_record(l)[2] for l in lines[1:-1]] == ["N2", "2.1", "2.2"]

    def test_error_response_exit_code(self, served_gateway, capsys):
        rc = main(["fetch", "--port", str(served_gateway), "NODE", "9.9"])
        assert rc == 3
        assert capsys.readouterr().out == "ERR UNKNOWN_NODE\n"

    def test_output_failure(self, served_gateway, capsys, monkeypatch):
        """A failed write to standard output is the output's fault, not the network's."""
        monkeypatch.setattr(sys, "stdout", FullStdout())
        rc = main(["fetch", "--port", str(served_gateway), "SNAPSHOT"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "wsn fetch: cannot write output: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("port", ["99999", "65536", "-1"])
    def test_out_of_range_port_exits_2(self, capsys, port):
        """A port outside 0-65535 is refused, not connected to modulo 2**16."""
        with mock.patch("socket.create_connection", side_effect=OSError("refused")) as connect:
            assert main(["fetch", "--port", port, "PING"]) == 2
        connect.assert_not_called()
        assert capsys.readouterr().err == (
            f"wsn fetch: cannot reach 127.0.0.1:{port}: port must be 0-65535\n")

    def test_connection_refused(self, capsys):
        rc = main(["fetch", "--port", str(free_port()), "PING"])
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_non_utf8_response(self, capsys):
        """A reply that is not UTF-8 is a connection failure, not a traceback."""
        with one_shot_listener(b"BEGIN 0 1\n\xff\xfe\nEND\n") as port:
            rc = main(["fetch", "--port", str(port), "SNAPSHOT"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("wsn fetch: ") and "not UTF-8" in err

    @pytest.mark.parametrize("make_reply,broke", [
        (lambda: b"x" * (30 << 20),
         f"a line longer than {cli.MAX_REPLY_LINE} bytes: {'x' * 80!r}..."),
        (lambda: b"BEGIN 0 1\n" + DESK_RECORD * 1_000_000,
         f"BEGIN says 1 lines, then {DESK_RECORD.decode()!r}, not END"),
    ], ids=["30-MiB-line", "million-line-envelope"])
    def test_a_reply_past_a_cap_exits_2_in_bounded_memory(self, capsys, make_reply, broke):
        """A 30 MiB line with no LF, or a million lines after BEGIN 0 1, ends
        the read at the first line past a cap: fetch exits 2 having held well
        under 1 MiB, where reading either reply whole holds tens of MB."""
        reply = make_reply()
        with one_shot_listener(reply) as port:
            tracemalloc.start()
            try:
                rc = main(["fetch", "--port", str(port), "SNAPSHOT"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"wsn fetch: bad response from 127.0.0.1:{port}: {broke}\n")
        assert peak < 1 << 20, peak
        assert f"{cli.MAX_COUNT_DIGITS} digits" in cli.HELP_TEXT
        assert f"{cli.MAX_REPLY_LINE} bytes" in cli.HELP_TEXT

    @settings(max_examples=150, deadline=None)
    @given(reply=replies(), reset=st.booleans())
    @example(reply=b"ERR BUSY", reset=False)  # no LF: not whole
    @example(reply=b"BEGIN 0 2\n" + DESK_RECORD + b"END\n", reset=False)  # one line, not two
    def test_a_drawn_reply_is_printed_only_when_whole(self, reply, reset):
        """On any reply, whole or torn, not UTF-8 or cut by a reset, fetch exits
        0, 2 or 3 and raises nothing. It exits 0 or 3 only when the reply begins
        with a whole one, and then prints that reply; a whole UTF-8 reply that
        no reset cuts is printed, with exit 3 for ERR and 0 otherwise."""
        out, err = io.StringIO(), io.StringIO()
        with one_shot_listener(reply, reset) as port, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = main(["fetch", "--port", str(port), "SNAPSHOT"])
        whole = first_whole_reply(reply)
        assert rc in (0, 2, 3), err.getvalue()
        if rc == 2:
            assert out.getvalue() == ""
        else:
            assert whole is not None and out.getvalue() == whole.decode()
            assert rc == (3 if whole.startswith(b"ERR") else 0)
        with contextlib.suppress(UnicodeDecodeError):
            if whole is not None and not reset and whole.decode():
                assert rc != 2, err.getvalue()

    @pytest.mark.parametrize("reply,rc,broke", [
        (b"PON", 2, "connection closed inside the line 'PON'"),
        (b"ERR BUS", 2, "connection closed inside the line 'ERR BUS'"),
        (b"BEGIN 0 2\n" + DESK_RECORD + b"END\n", 2, "BEGIN says 2 lines, END comes after 1"),
        (b"BEGIN 0 1\n" + DESK_RECORD + b"END", 2, "connection closed inside the line 'END'"),
        (b"hello\n", 2, "not PONG, ERR <CODE> or BEGIN <round|ALERTS> <k>: 'hello\\n'"),
        (b"BEGIN 0 1\n" + DESK_RECORD, 2, "connection closed inside envelope"),
        (b"BEGIN 0 0\nhello\nEND\n", 2, "BEGIN says 0 lines, then 'hello\\n', not END"),
        (b"BEGIN 0 100000\nEND\n", 2, "BEGIN's k has more than 5 digits"),
        pytest.param(b"ERR " + b"B" * 70000 + b"\n", 2,
                     f"a line longer than 65536 bytes: {'ERR ' + 'B' * 76!r}...",
                     id="a-line-past-the-cap"),
        (b"", 2, "connection closed before any response"),
        (b"BEGIN 0 1\n" + DESK_RECORD + b"END\n", 0, None),
        (b"BEGIN ALERTS 0\nEND\n", 0, None),
        (b"ERR BUSY\n", 3, None),
        # what follows a whole reply is not read: it decides nothing
        (b"PONG\n\xff", 0, None),
        (b"BEGIN 0 0\nEND\n\xff", 0, None),
        (b"ERR BUSY\n\xff", 3, None),
    ])
    def test_only_a_whole_reply_is_printed(self, capsys, reply, rc, broke):
        """A reply is whole when its first line is PONG, ERR <CODE> or
        BEGIN <round|ALERTS> <k>, an envelope holds k lines before END, and its
        last line ends in LF; anything else exits 2, naming what broke, with
        nothing on standard output. Bytes after a whole reply are not read."""
        with one_shot_listener(reply) as port:
            assert main(["fetch", "--port", str(port), "SNAPSHOT"]) == rc
        out, err = capsys.readouterr()
        if broke is None:
            assert (out, err) == (first_whole_reply(reply).decode(), "")
        else:
            assert (out, err) == ("", f"wsn fetch: bad response from 127.0.0.1:{port}: {broke}\n")


# the benchmark's batch shape: 20 cluster heads of 10 leaflets each, 220 records a round
BATCH_CFG = "radio 30 0.05\nrounds 20\n" + "".join(
    f"cluster N{h} " + " ".join(f"{h}.{i}" for i in range(1, 11)) + "\n" for h in range(1, 21))


@pytest.fixture(scope="module")
def batch_log(tmp_path_factory):
    work = tmp_path_factory.mktemp("batch")
    out = work / "batch.log"
    assert main(["run", write_cfg(work, BATCH_CFG), "--out", str(out)]) == 0
    return out.read_bytes().splitlines(keepends=True)


class TestPlotdata:
    def run_log(self, tmp_path, extra=""):
        out = tmp_path / "t.log"
        assert main(["run", write_cfg(tmp_path, DESK_CFG + extra),
                     "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("damage", [
        lambda line: line.replace(b",OK\n", b",MAYBE\n").replace(b",NULL\n", b",MAYBE\n"),
        lambda line: line.replace(b".", b".\xff", 1),  # not UTF-8
    ])
    def test_bad_line_in_batch_log_writes_nothing(self, tmp_path, capsys, batch_log, damage):
        k = 1 + 220 * 15 + 37  # line k sits in round 15, after 15 complete rounds
        lines = list(batch_log)
        lines[k - 1] = damage(lines[k - 1])
        assert lines != batch_log
        bad = tmp_path / "bad.log"
        bad.write_bytes(b"".join(lines))
        rc = main(["plotdata", str(bad), "--node", "N3", "--channel", "temp_c"])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"MALFORMED_LOG: MALFORMED_RECORD: line {k}:" in captured.err
        assert captured.out == ""
        good = tmp_path / "good.log"
        good.write_bytes(b"".join(batch_log))
        assert main(["plotdata", str(good), "--node", "N3", "--channel", "temp_c"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 20

    def blank_co(self, tmp_path, records):
        """A desk log with co_ppm, its co_ppm field "-" on ``records`` of round 3."""
        out = self.run_log(tmp_path, "env co_ppm 5\n")
        lines = out.read_bytes().splitlines(keepends=True)
        for k in range(1 + 3 * 6, 1 + 3 * 6 + records):
            fields = lines[k].split(b",")
            fields[6] = b"-"
            lines[k] = b",".join(fields)
        out.write_bytes(b"".join(lines))
        return out

    def test_channel_missing_from_a_later_round(self, tmp_path, capsys):
        out = self.blank_co(tmp_path, records=6)
        rc = main(["plotdata", str(out), "--node", "N1", "--channel", "co_ppm"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "UNKNOWN_CHANNEL" in captured.err and "round 3" in captured.err
        assert captured.out == ""

    def test_channel_missing_from_one_node_of_a_round(self, tmp_path, capsys):
        """A round carries a channel on every node or on none."""
        out = self.blank_co(tmp_path, records=1)
        capsys.readouterr()
        rc = main(["plotdata", str(out), "--node", "N1", "--channel", "co_ppm"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("wsn plotdata: MALFORMED_LOG: MALFORMED_RECORD: line 21: "
                                "'1.1' carries other gas channels than 'N1'\n")
        assert captured.out == ""

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
            assert float(value) == snapshot.reading_for("1.1")[Channel.TEMP_C]
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

    def test_output_failure(self, tmp_path, capsys, monkeypatch):
        out = self.run_log(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", FullStdout())
        rc = main(["plotdata", str(out), "--node", "1.1", "--channel", "temp_c"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "wsn plotdata: cannot write output: [Errno 28] No space left on device\n")

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
                        line = reader.readline().rstrip("\n")
                        assert parse_record(line)[0] == 4
                        assert line.endswith(",OK")
                    assert reader.readline() == "END\n"
            finally:
                proc.terminate()
                proc.wait(timeout=10)
        assert len(parse_telemetry(out.read_bytes()).snapshots) == 5

    def test_alert_lines_write_values_as_alerts_lists_them(self, tmp_path, capsys):
        """Each ALERT line on stderr gives its value as ``ALERTS`` (and the log)
        writes it, ``31.2500`` and ``57``, not as the float's ``31.25``."""
        cfg = write_cfg(tmp_path, "radio 30 0\ncluster N1 1.1\nrounds 3\nenv temp_c 31.5\n"
                        "env co_ppm 60\nalert hot temp_c GT 30 WARN\n"
                        "alert co_high co_ppm GT 50 DANGER\n")
        told = {}
        with subprocess.Popen(
            [sys.executable, "-u", "-m", "wsnmon.cli", "run", cfg,
             "--out", str(tmp_path / "t.log"), "--serve", "--port", "0"],
            env=src_env(), stderr=subprocess.PIPE, text=True,
        ) as proc:
            try:
                port = int(proc.stderr.readline().strip().rsplit(":", 1)[1])
                for line in iter(proc.stderr.readline, ""):
                    if not line.startswith("ALERT "):
                        break
                    _, severity, rule_id, node, rnd, value = line.split()
                    told[rule_id, node.removeprefix("node=")] = (
                        rnd.removeprefix("round="), value.removeprefix("value="), severity)
                assert line.startswith("ran 3 rounds")
                assert "still serving" in proc.stderr.readline()
                assert main(["fetch", "--port", str(port), "ALERTS"]) == 0
            finally:
                proc.terminate()
                proc.wait(timeout=10)
        listed = {(rule_id, node): (rnd, value, severity) for rule_id, node, rnd, value, severity
                  in (line.split(",") for line in capsys.readouterr().out.splitlines()[1:-1])}
        assert {rule_id for rule_id, _ in listed} == {"hot", "co_high"}
        assert told == listed

    @pytest.mark.skipif(os.name != "posix", reason="sends SIGTERM")
    def test_sigterm_after_the_last_round_closes_the_gateway(self, tmp_path):
        """SIGTERM stops a served run as an interrupt does: its client reads
        EOF and the run exits 0 with nothing more on stderr."""
        cfg = write_cfg(tmp_path)
        with subprocess.Popen(
            [sys.executable, "-u", "-m", "wsnmon.cli", "run", cfg,
             "--out", str(tmp_path / "t.log"), "--serve", "--port", "0"],
            env=src_env(), stderr=subprocess.PIPE, text=True,
        ) as proc:
            try:
                port = int(proc.stderr.readline().strip().rsplit(":", 1)[1])
                assert "ran 5 rounds" in proc.stderr.readline()
                assert "still serving" in proc.stderr.readline()
                with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                    reader = sock.makefile("r", encoding="utf-8", newline="\n")
                    sock.sendall(b"PING\n")
                    assert reader.readline() == "PONG\n"
                    proc.send_signal(signal.SIGTERM)
                    assert reader.readline() == ""
                err = proc.communicate(timeout=30)[1]
            finally:
                if proc.poll() is None:
                    proc.kill()
        assert proc.returncode == 0, err
        assert err == ""


def buffered_env():
    """``src_env`` with standard output block-buffered, as it is on a pipe or
    a file unless PYTHONUNBUFFERED says otherwise."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def close_stdout():
    os.close(1)  # the child starts with no fd 1, so its sys.stdout is None


# each documented exit code of each command, as an argv whose words are
# formatted with the paths and ports of TestProcessExit's ``work``
EXIT_CASES = {
    "run-0": (["run", "{cfg}", "--out", "{tmp}/r.log"], 0),
    "run-1": (["run", "{tmp}/missing.cfg", "--out", "{tmp}/r.log"], 1),
    "run-2": (["run", "{cfg}", "--out", "{tmp}/no/dir/r.log"], 2),
    "run-130": (["run", "{paced}", "--out", "{tmp}/p.log", "--pace"], 130),
    "plotdata-0": (["plotdata", "{log}", "--node", "N1", "--channel", "temp_c"], 0),
    "plotdata-1": (["plotdata", "{log}", "--node", "X9", "--channel", "temp_c"], 1),
    "plotdata-2": (["plotdata", "{log}", "--node", "N1", "--channel", "temp_c"], 2),
    "fetch-2": (["fetch", "--port", "{free}", "PING"], 2),
    "fetch-3": (["fetch", "--port", "{gateway}", "NODE", "9.9"], 3),
    "help-0": (["--help"], 0),
    "usage-2": (["bogus"], 2),
}

# argv[1]: the hook that watches the child end (none, trace, profile or
# cProfile); argv[2:]: the wsn command line. "teardown" on stderr says the
# interpreter ran its exit handlers.
WATCH_PROBE = """\
import atexit, cProfile, os, runpy, sys
atexit.register(os.write, 2, b"teardown\\n")
hook = sys.argv.pop(1)
if hook == "trace":
    sys.settrace(lambda frame, event, arg: None)
elif hook == "profile":
    sys.setprofile(lambda frame, event, arg: None)
run = lambda: runpy.run_module("wsnmon.cli", run_name="__main__", alter_sys=True)
cProfile.Profile().runcall(run) if hook == "cProfile" else run()
"""


class TestProcessExit:
    """A ``wsn`` process ends without interpreter teardown, except where
    something watches it end; what it writes is what ``main`` writes."""

    @pytest.fixture()
    def work(self, tmp_path, served_gateway):
        log = tmp_path / "d.log"
        assert main(["run", write_cfg(tmp_path), "--out", str(log)]) == 0
        # a paced run sleeps ten minutes after each round
        paced = DESK_CFG.replace("rounds 5", "rounds 3\nperiod_ms 600000")
        return {"tmp": tmp_path, "cfg": write_cfg(tmp_path), "log": log,
                "paced": write_cfg(tmp_path, paced, "paced.cfg"),
                "free": free_port(), "gateway": served_gateway}

    @pytest.mark.parametrize("case", EXIT_CASES)
    def test_a_process_writes_and_exits_as_main_returns(self, work, case, capsys, monkeypatch):
        """Standard output (block-buffered), standard error and the exit code
        of ``python -m wsnmon.cli`` are those of ``main`` in process for the
        same argv, for each documented exit code of each command."""
        words, code = EXIT_CASES[case]
        argv = [word.format(**work) for word in words]
        full = case == "plotdata-2"  # standard output on a full disk
        with contextlib.ExitStack() as stack:
            stdout = stack.enter_context(open("/dev/full", "w")) if full else subprocess.PIPE
            child = subprocess.Popen([sys.executable, "-m", "wsnmon.cli", *argv],
                                     env=buffered_env(), stdout=stdout,
                                     stderr=subprocess.PIPE, text=True)
            stack.callback(child.kill)
            if case == "run-130":  # interrupted in the pace sleep after round 0
                deadline, log = time.monotonic() + 30, work["tmp"] / "p.log"
                while not (log.exists() and log.read_bytes().count(b"\n") == 7):
                    assert child.poll() is None and time.monotonic() < deadline
                    time.sleep(0.01)
                child.send_signal(signal.SIGTERM)
            out, err = child.communicate(timeout=60)
        if full:
            out = ""
            monkeypatch.setattr(sys, "stdout", FullStdout())
        if case == "run-130":
            monkeypatch.setattr(time, "sleep", lambda s: os.kill(os.getpid(), signal.SIGTERM))
        capsys.readouterr()
        assert (child.returncode, out, err) == (main(argv), *capsys.readouterr())
        assert child.returncode == code

    @pytest.mark.parametrize("flags,hook,torn_down", [
        ([], "none", False), (["-X", "dev"], "none", True), ([], "trace", True),
        ([], "profile", True), ([], "cProfile", True),
    ], ids=["plain", "dev", "trace", "profile", "cProfile"])
    def test_teardown_runs_only_when_watched(self, tmp_path, flags, hook, torn_down):
        """A plain process skips the interpreter's exit handlers; under -X
        dev, a trace or profile hook or cProfile (a monitoring tool from
        Python 3.12) it runs them. Either way it exits with main's code."""
        log = str(tmp_path / "t.log")
        done = subprocess.run(
            [sys.executable, *flags, "-c", WATCH_PROBE, hook, "run", write_cfg(tmp_path),
             "--out", log],
            env=src_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stderr.endswith("dropped\nteardown\n" if torn_down else "dropped\n")

    def test_cprofile_prints_its_report(self, work, capsys):
        """``python -m cProfile -m wsnmon.cli`` prints wsn's output, then the
        profile report, which comes after wsn's exit."""
        argv = ["plotdata", str(work["log"]), "--node", "N1", "--channel", "temp_c"]
        done = subprocess.run([sys.executable, "-m", "cProfile", "-m", "wsnmon.cli", *argv],
                              env=buffered_env(), capture_output=True, text=True, timeout=60)
        capsys.readouterr()
        assert main(argv) == 0
        rows = capsys.readouterr().out
        assert done.stdout.startswith(rows) and "function calls" in done.stdout[len(rows):]
        assert done.stderr == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("flags", [[], ["-X", "dev"]], ids=["plain", "dev"])
    @pytest.mark.parametrize("stdout", ["full", "closed"])
    @pytest.mark.parametrize("command", ["help", "plotdata", "fetch"])
    def test_a_failed_write_to_stdout_exits_2_with_one_line(self, work, flags, stdout, command):
        """Standard output on a full disk, or closed (fd 1 shut before the
        process starts): each command that writes it reports one
        ``cannot write output`` line and exits 2, with no traceback and no
        second report at exit."""
        argv = {"help": ["--help"],
                "plotdata": ["plotdata", str(work["log"]), "--node", "N1", "--channel", "temp_c"],
                "fetch": ["fetch", "--port", str(work["gateway"]), "SNAPSHOT"]}[command]
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, *flags, "-m", "wsnmon.cli", *argv], env=buffered_env(),
                stdout=full if stdout == "full" else None,
                preexec_fn=close_stdout if stdout == "closed" else None,
                stderr=subprocess.PIPE, text=True, timeout=60)
        who = "wsn" if command == "help" else f"wsn {command}"
        cause = ("[Errno 28] No space left on device" if stdout == "full"
                 else "standard output is closed")
        assert (done.returncode, done.stderr) == (2, f"{who}: cannot write output: {cause}\n")


# a valid config, a choice per line, then up to two lines of token soup put in;
# no drawn config runs more than DEFAULT_ROUNDS rounds of at most five nodes
CONTRACT_CHOICES = [
    ["", "radio 30 0.3", "radio 30 1.0"], ["cluster N1 1.1 1.2", "cluster N1"],
    ["", "cluster N2 2.1"], ["", "rounds 1", "rounds 4"], ["", "hop_ms 0", "period_ms 40"],
    ["", "seed 9"], ["", "fail N1 BS 1 2"],
    ["", "env temp_c 25 walk 0.5", "env co_ppm 9 walk 1e308",
     "env ch4_ppm 400 script 0:400,2:9000\nalert gas ch4_ppm GT 5000 DANGER"],
]
CONTRACT_TOKENS = [
    "radio", "cluster", "pos", "rounds", "period_ms", "hop_ms", "seed", "fail", "env", "alert",
    "N1", "1.1", "2.1", "BS", "NULL", "temp_c", "ch4_ppm", "walk", "script", "GT", "WARN",
    "0", "1", "3", "0.5", "-1", "nan", "1e999", "#", ",", "0:1,2:5",
]


@st.composite
def config_bytes(draw) -> bytes:
    lines = "\n".join(map(draw, map(st.sampled_from, CONTRACT_CHOICES))).split("\n")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        soup = draw(st.lists(st.sampled_from(CONTRACT_TOKENS), max_size=6))
        lines.insert(draw(st.integers(0, len(lines))), " ".join(soup))
    data = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode()
    if draw(st.sampled_from([False, False, False, True])):  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


# where an output goes: a new file (as often as not), a missing directory, a
# directory, or a full device
OUTPUT_KINDS = ["fine"] * 3 + ["missing", "dir", *(["full"] if os.path.exists("/dev/full") else [])]


def contract_log() -> bytes:
    """A six-round log with NULLs, a gas column and two unequipped ones."""
    sim = parse_config(DESK_CFG.replace("radio 30 0.0", "radio 30 0.3").replace(
        "rounds 5", "rounds 6\nenv ch4_ppm 400 walk 50")).sim
    blocks = [snapshot_block(run_round(sim, r)[0]) for r in range(sim.rounds)]
    return (header_line(sim.topology.sensing_nodes()) + "\n" + "".join(blocks)).encode()


CONTRACT_LOG = contract_log()


def contract_path(work: Path, kind: str, name: str) -> Path:
    return {"fine": work / name, "missing": work / "no" / name, "dir": work / "adir",
            "full": Path("/dev/full")}[kind]


class TestContract:
    """``wsn run`` and ``wsn plotdata`` on drawn inputs end in a documented
    exit code, never in another exception, and leave no half-made output."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=config_bytes(), log_kind=st.sampled_from(OUTPUT_KINDS),
           trace_kind=st.sampled_from(["off", *OUTPUT_KINDS]),
           # a mirror at /dev/full is refused unopened; its temp file would lie outside work
           mirror_kind=st.sampled_from(["off", "fine", "fine", "missing", "dir"]),
           failing_replace=st.none() | st.integers(1, 4))
    def test_run_exits_0_1_or_2_and_leaves_whole_outputs(
            self, tmp_path, data, log_kind, trace_kind, mirror_kind, failing_replace):
        """Exit 0 leaves exactly the three outputs: a log of the config's rounds,
        a mirror of its last round and a trace whose counts are the summary's.
        Exit 1, and exit 2 before the first round, leave no file the run made;
        a SINK_FAILURE leaves only outputs, the log on a whole round. The
        mirror's ``failing_replace``-th rename fails, if it is drawn."""
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        (work / "adir").mkdir()
        cfg = work / "run.cfg"
        cfg.write_bytes(data)
        argv, chosen, fine = ["run", str(cfg)], {}, set()
        for option, kind, name in [("--out", log_kind, "t.log"), ("--trace", trace_kind, "t.trace"),
                                   ("--rewrite-latest", mirror_kind, "t.latest")]:
            if kind != "off":
                chosen[option] = contract_path(work, kind, name)
                argv += [option, str(chosen[option])]
                if kind == "fine":
                    fine.add(chosen[option])
        before = set(work.rglob("*"))
        replace, renames = os.replace, itertools.count(1)

        def maybe_failing_replace(src, dst):
            if next(renames) == failing_replace:
                raise OSError(errno.ENOSPC, "No space left on device")
            replace(src, dst)

        err = io.StringIO()
        with contextlib.redirect_stderr(err), mock.patch.object(os, "replace",
                                                                maybe_failing_replace):
            rc = main(argv)
        err = err.getvalue()
        created = set(work.rglob("*")) - before
        assert rc in (0, 1, 2), err
        if rc == 0:
            assert created == fine, err
            rounds = parse_config(data.decode().replace("\r\n", "\n")).sim.rounds
            log = parse_telemetry(chosen["--out"].read_bytes())
            assert log.partial is None and [s.round for s in log.snapshots] == list(range(rounds))
            if "--rewrite-latest" in chosen:
                mirror = parse_telemetry(chosen["--rewrite-latest"].read_bytes())
                assert mirror.snapshots == log.snapshots[-1:] and mirror.partial is None
            if "--trace" in chosen:
                trace = chosen["--trace"].read_bytes()
                dropped = trace.count(b" LINK_DROP ")
                sent = trace.count(b"\n") - dropped
                assert f"{sent} messages sent, {dropped} dropped" in err
        elif "SINK_FAILURE" in err:
            assert created <= fine, err
            assert parse_telemetry(chosen["--out"].read_bytes()).partial is None
        else:
            assert created == set(), err

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.tuples(st.integers(0, 10**6),
                                    st.sampled_from([b"", b",", b"\n", b"\xff", b"0", b"-",
                                                     b"NULL", b" ", b"9" * 30]),
                                    st.integers(0, 3)), max_size=3),
           node=st.sampled_from(["N1", "2.1", "X9"]),
           channel=st.sampled_from(["temp_c", "light_raw", "ch4_ppm", "co_ppm", "heat"]),
           full=st.booleans())
    def test_plotdata_exits_0_1_or_2_with_a_row_per_whole_round(
            self, tmp_path, edits, node, channel, full):
        """A damaged log exits 0, 1 or 2, never in another exception; exit 2
        only when standard output fails, and exit 0 writes one row per whole
        round. Each edit puts bytes in place of up to 3 bytes at a position."""
        data = CONTRACT_LOG
        for position, text, cut in edits:
            position %= len(data) + 1
            data = data[:position] + text + data[position + cut:]
        path = tmp_path / "t.log"
        path.write_bytes(data)
        out = FullStdout() if full else io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["plotdata", str(path), "--node", node, "--channel", channel])
        assert rc in (0, 1, 2)
        assert rc != 2 or full
        if rc == 0:
            rows = out.getvalue().splitlines()
            assert [row.split(",")[0] for row in rows] == [
                str(s.round) for s in parse_telemetry(data).snapshots]

