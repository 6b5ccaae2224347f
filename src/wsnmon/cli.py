"""Command-line entry points: run the pipeline, query a gateway, export plots.

    wsn run <config> --out <path> [--serve --port <n>] [--rewrite-latest <path>]
            [--trace <path>] [--pace] [--host <addr>]
    wsn fetch --host <h> --port <n> <VERB> [args...]
    wsn plotdata <telemetry> --node <id> --channel <c>

Data goes to standard output only; every diagnostic goes to standard error.
Exit codes: run 0 ok / 1 config error (a config that is not UTF-8 included,
naming its line) / 2 runtime failure or two outputs naming one file (refused
before any file is created) / 130 interrupted before the last round (the log
keeps every whole round); fetch 0 ok / 3 ERR response / 2 connection or output
failure; plotdata 0 ok / 1 bad input / 2 output failure. A failed write to
standard output is reported as ``cannot write output: ...``. ``wsn run`` takes
SIGTERM as it takes SIGINT, between log appends: before the last round it exits
130, and a served run after its last round closes the gateway and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
import types

from .basestation import LatestMirror, TelemetryReader, TelemetryWriter, format_value
from .environment import channel_from_token
from .errors import ConfigError, EnvError, SimError, TelemetryError, WsnError
from .records import Snapshot

DEFAULT_PORT = 7070  # the gateway's port for `run --serve` and `fetch`
_DAY_MS = 86_400_000  # the longest sleep --pace asks for at once


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _write_output(command: str, data: str) -> bool:
    """Write ``data`` to standard output and flush it; False, reported, if that fails."""
    try:
        sys.stdout.write(data)
        sys.stdout.flush()
    except OSError as e:
        _err(f"wsn {command}: cannot write output: {e}")
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="wsn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate, persist telemetry, optionally serve")
    p_run.add_argument("config", help="run configuration file")
    p_run.add_argument("--out", required=True, help="telemetry output path")
    p_run.add_argument("--serve", action="store_true", help="serve the gateway while running")
    p_run.add_argument("--host", default="127.0.0.1", help="gateway bind address")
    p_run.add_argument("--port", type=int, default=DEFAULT_PORT, help="gateway port")
    p_run.add_argument("--rewrite-latest", metavar="PATH",
                       help="also keep a single-round file: rewritten every round under "
                            "--pace, else at most once a round period and after the "
                            "last round")
    p_run.add_argument("--trace", metavar="PATH", help="write the event trace here")
    p_run.add_argument("--pace", action="store_true",
                       help="sleep one period per round (real-time demo pacing)")

    p_fetch = sub.add_parser("fetch", help="send one request to a gateway")
    p_fetch.add_argument("--host", default="127.0.0.1")
    p_fetch.add_argument("--port", type=int, default=DEFAULT_PORT)
    p_fetch.add_argument("verb", help="SNAPSHOT | NODE | CLUSTER | ALERTS | PING")
    p_fetch.add_argument("args", nargs="*", help="verb arguments")

    p_plot = sub.add_parser("plotdata", help="export one node/channel series as CSV")
    p_plot.add_argument("telemetry", help="telemetry log path")
    p_plot.add_argument("--node", required=True)
    p_plot.add_argument("--channel", required=True,
                        help="temp_c | light_raw | ch4_ppm | co_ppm | o2_pct")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "fetch":
        return cmd_fetch(args)
    return cmd_plotdata(args)


def _config_text(data: bytes) -> str:
    """A config file's text, its CRLF and CR line ends read as LF."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"not UTF-8: {e}", data.count(b"\n", 0, e.start) + 1) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _close_flushed(fh) -> None:
    """Close a file that is flushed after every write: close can fail only by
    retrying a flush whose failure has already been raised."""
    with contextlib.suppress(OSError):
        fh.close()


def _remove_if_present(path: str) -> None:
    """Remove ``path``, which a failed open may or may not have created."""
    if os.path.lexists(path):
        os.remove(path)


def cmd_run(args: argparse.Namespace) -> int:
    import signal  # imported here, as in _run: fetch and plotdata do not need it

    # SIGTERM interrupts the run, and so does SIGINT unless the caller ignores it (as
    # CPython does in a job without job control); the caller's handlers are put back.
    # One that lands in a log append is raised once the append returns (see sink).
    hold = types.SimpleNamespace(appending=False, pending=False)

    def interrupt(signum, frame) -> None:
        if not hold.appending:
            raise KeyboardInterrupt
        hold.pending = True

    previous = {signum: signal.signal(signum, interrupt)
                for signum in (signal.SIGTERM, signal.SIGINT)
                if signum == signal.SIGTERM or signal.getsignal(signum) is not signal.SIG_IGN}
    try:
        return _run(args, hold)
    finally:  # None: a handler not installed from Python, as SIG_DFL is
        for signum, handler in previous.items():
            signal.signal(signum, signal.SIG_DFL if handler is None else handler)


def _run(args: argparse.Namespace, hold: types.SimpleNamespace) -> int:
    # imported here: fetch and plotdata need no simulator, and only --serve the server
    from .config import parse_config
    from .netsim import run_simulation

    try:
        with open(args.config, "rb") as fh:
            data = fh.read()
    except OSError as e:
        _err(f"wsn run: cannot read config: {e}")
        return 1
    try:
        run_cfg = parse_config(_config_text(data))
    except ConfigError as e:
        _err(f"wsn run: {e}")
        return 1
    # outputs naming one file would write over each other's data
    outputs = {"--out": args.out, "--trace": args.trace, "--rewrite-latest": args.rewrite_latest}
    if args.rewrite_latest:
        outputs["the --rewrite-latest temp file"] = args.rewrite_latest + ".tmp"
    owners: dict[str, str] = {}
    for option, path in outputs.items():
        if path:
            owner = owners.setdefault(os.path.realpath(path), option)
            if owner != option:
                _err(f"wsn run: SAME_FILE: {option} {path!r} is the file {owner} names")
                return 2

    sim = run_cfg.sim
    nodes = sim.topology.sensing_nodes()
    gateway = server = mirror = trace_fh = None
    try:
        with contextlib.ExitStack() as stack:
            if args.serve:
                from .gateway import Gateway, serve

                # bind before any output file exists, so a busy port leaves none behind
                gateway = Gateway(sim.topology, run_cfg.rules)
                server = stack.enter_context(serve(gateway, host=args.host, port=args.port))
            # removes the files this run creates unless all open; a path that
            # existed before the run (a user's file, /dev/null) is never removed.
            # Each is registered before its open, which can fail after creating it.
            with contextlib.ExitStack() as undo:
                for path in (args.rewrite_latest, args.trace, args.out):
                    if path and not os.path.lexists(path):
                        undo.callback(_remove_if_present, path)
                if args.rewrite_latest:
                    mirror = LatestMirror(args.rewrite_latest, nodes)
                if args.trace:
                    trace_fh = open(args.trace, "w", encoding="utf-8", newline="\n")
                    stack.callback(_close_flushed, trace_fh)
                writer = stack.enter_context(TelemetryWriter(args.out, nodes))
                undo.pop_all()
            if server is not None:
                _err(f"gateway listening on {server.host}:{server.port}")

            def on_trace(text: str) -> None:
                # the whole round in one write, flushed before its log append
                trace_fh.write(text)
                trace_fh.flush()

            # A paced run rewrites the mirror every round. An unpaced run makes
            # rounds faster than a reader polls, so it rewrites the mirror for
            # its first round, then once a round period has passed, and for its
            # last round; the catch-up makes a stopped run's mirror hold the
            # log's last round.
            period_ns = sim.round_period_ms * 1_000_000  # ints: any period compares
            due = 0  # time.monotonic_ns() from which the mirror is rewritten again

            def catch_up() -> None:
                """Rewrite the mirror to the log's last whole round if it holds another."""
                last = writer.last
                if mirror is not None and last is not None and mirror.round != last.round:
                    mirror.update(last)

            def sink(s: Snapshot) -> None:
                nonlocal due
                hold.appending = True  # a signal now waits: the log and writer.last agree
                try:
                    writer.append(s)
                finally:
                    hold.appending = False
                if hold.pending:
                    raise KeyboardInterrupt
                if mirror is not None:
                    now = time.monotonic_ns()
                    if args.pace or now >= due or s.round == sim.rounds - 1:
                        due = now + period_ns
                        mirror.update(s)
                if gateway is not None:
                    for alert in gateway.publish(s):
                        _err(f"ALERT {alert.severity.value} {alert.rule_id} "
                             f"node={alert.node} round={alert.round} value={alert.value}")
                if args.pace:  # in whole-ms slices of at most a day: any int period adds up
                    left = sim.round_period_ms
                    while left > 0:
                        time.sleep(min(left, _DAY_MS) / 1000)
                        left -= _DAY_MS

            try:
                summary = run_simulation(
                    sim, sink, on_trace=on_trace if trace_fh is not None else None)
            except KeyboardInterrupt:  # each append is whole: the log ends on a whole round
                catch_up()
                last = writer.last
                _err(f"wsn run: interrupted; the log ends with round {last.round}"
                     if last is not None else "wsn run: interrupted before any round was written")
                return 130
            except SimError:  # SINK_FAILURE: a mirror that failed is not rewritten again
                if mirror is None or mirror.round is not None:
                    with contextlib.suppress(WsnError):  # the first error is the one reported
                        catch_up()
                raise
            _err(f"ran {summary.rounds_run} rounds: {summary.messages_sent} messages sent, "
                 f"{summary.messages_dropped} dropped")
            if server is not None:
                _err("simulation done; still serving (interrupt to stop)")
                try:
                    while True:
                        time.sleep(1.0)
                except KeyboardInterrupt:
                    pass
            return 0
    except (OSError, WsnError) as e:
        _err(f"wsn run: {e}")
        return 2


def cmd_fetch(args: argparse.Namespace) -> int:
    if not 0 <= args.port <= 65535:  # create_connection would take the port modulo 2**16
        _err(f"wsn fetch: cannot reach {args.host}:{args.port}: port must be 0-65535")
        return 2
    import socket  # imported here: run and plotdata do not need it

    request = " ".join([args.verb, *args.args])
    reply: list[str] = []  # written once the exchange ends, so a write failure is told apart
    status = 0
    try:
        with socket.create_connection((args.host, args.port), timeout=10) as sock:
            sock.sendall(request.encode("utf-8") + b"\n")
            reader = sock.makefile("r", encoding="utf-8", newline="\n")
            first = reader.readline()
            if not first:
                _err("wsn fetch: connection closed before any response")
                return 2
            reply.append(first)
            if first.startswith("BEGIN"):
                while True:
                    line = reader.readline()
                    if not line:
                        _err("wsn fetch: connection closed inside envelope")
                        status = 2
                        break
                    reply.append(line)
                    if line.rstrip("\n") == "END":
                        break
    except OSError as e:
        _err(f"wsn fetch: cannot reach {args.host}:{args.port}: {e}")
        return 2
    except UnicodeDecodeError as e:
        _err(f"wsn fetch: response from {args.host}:{args.port} is not UTF-8: {e}")
        return 2
    if not _write_output("fetch", "".join(reply)):
        return 2
    return status or (3 if first.startswith("ERR") else 0)


def cmd_plotdata(args: argparse.Namespace) -> int:
    rows: list[str] = []  # one short row per round, written once the whole log checks out
    try:
        with open(args.telemetry, "rb") as fh:
            reader = TelemetryReader(fh)
            try:
                channel = channel_from_token(args.channel)
            except EnvError:
                _err(f"wsn plotdata: UNKNOWN_CHANNEL: {args.channel!r}")
                return 1
            if args.node not in reader.nodes:
                _err(f"wsn plotdata: UNKNOWN_NODE: {args.node!r} not in log header")
                return 1
            index = reader.nodes.index(args.node)
            for snapshot in reader:
                column = snapshot.columns.get(channel)
                if column is None:
                    _err(f"wsn plotdata: UNKNOWN_CHANNEL: log carries no {channel.value} "
                         f"values in round {snapshot.round}")
                    return 1
                value = column[index]
                if value is None:
                    rows.append(f"{snapshot.round},\n")  # explicit gap, never interpolated
                else:
                    rows.append(f"{snapshot.round},{format_value(channel, value)}\n")
    except OSError as e:
        _err(f"wsn plotdata: cannot read telemetry: {e}")
        return 1
    except TelemetryError as e:
        _err(f"wsn plotdata: MALFORMED_LOG: {e}")
        return 1
    if not _write_output("plotdata", "".join(rows)):
        return 2
    if reader.partial is not None:
        _err(f"wsn plotdata: ignored trailing partial round {reader.partial.round}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
