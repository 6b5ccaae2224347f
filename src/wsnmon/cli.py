"""Command-line entry points: run the pipeline, query a gateway, export plots.

    wsn run <config> --out <path> [--serve --port <n>] [--rewrite-latest <path>]
            [--trace <path>] [--pace] [--host <addr>]
    wsn fetch --host <h> --port <n> <VERB> [args...]
    wsn plotdata <telemetry> --node <id> --channel <c>

Data goes to standard output only; every diagnostic goes to standard error.
Exit codes: run 0 ok / 1 config error / 2 runtime failure; fetch 0 ok /
3 ERR response / 2 connection failure; plotdata 0 ok / 1 bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import socket
import sys
import time

from .basestation import LatestMirror, TelemetryWriter, format_value, parse_telemetry
from .config import parse_config
from .environment import channel_from_token
from .errors import ConfigError, EnvError, TelemetryError, WsnError
from .gateway import DEFAULT_PORT, Gateway, serve
from .netsim import run_simulation, trace_line
from .records import Snapshot


def _err(message: str) -> None:
    print(message, file=sys.stderr)


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
                       help="also keep a single-round file rewritten every round")
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


def cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        _err(f"wsn run: cannot read config: {e}")
        return 1
    try:
        run_cfg = parse_config(text)
    except ConfigError as e:
        _err(f"wsn run: {e}")
        return 1

    sim = run_cfg.sim
    nodes = sim.topology.sensing_nodes()
    gateway = server = mirror = trace_fh = None
    try:
        with contextlib.ExitStack() as stack:
            if args.serve:
                # bind before any output file exists, so a busy port leaves none behind
                gateway = Gateway(sim.topology, run_cfg.rules)
                server = stack.enter_context(serve(gateway, host=args.host, port=args.port))
            with contextlib.ExitStack() as undo:  # removes this run's files unless all open
                if args.rewrite_latest:
                    mirror = LatestMirror(args.rewrite_latest, nodes)
                    undo.callback(os.remove, args.rewrite_latest)
                if args.trace:
                    trace_fh = stack.enter_context(
                        open(args.trace, "w", encoding="utf-8", newline="\n"))
                    undo.callback(os.remove, args.trace)
                writer = stack.enter_context(TelemetryWriter(args.out, nodes))
                undo.pop_all()
            if server is not None:
                _err(f"gateway listening on {server.host}:{server.port}")

            def sink(s: Snapshot) -> None:
                writer.append(s)
                if mirror is not None:
                    mirror.update(s)
                if gateway is not None:
                    for alert in gateway.publish(s):
                        _err(f"ALERT {alert.severity.value} {alert.rule_id} "
                             f"node={alert.node} round={alert.round} value={alert.value}")
                if args.pace:
                    time.sleep(sim.round_period_ms / 1000.0)

            on_event = None
            if trace_fh is not None:
                on_event = lambda ev: trace_fh.write(trace_line(ev) + "\n")  # noqa: E731
            summary = run_simulation(sim, sink, on_event=on_event)
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
    request = " ".join([args.verb, *args.args])
    try:
        with socket.create_connection((args.host, args.port), timeout=10) as sock:
            sock.sendall(request.encode("utf-8") + b"\n")
            reader = sock.makefile("r", encoding="utf-8", newline="\n")
            first = reader.readline()
            if not first:
                _err("wsn fetch: connection closed before any response")
                return 2
            sys.stdout.write(first)
            if first.startswith("BEGIN"):
                while True:
                    line = reader.readline()
                    if not line:
                        _err("wsn fetch: connection closed inside envelope")
                        return 2
                    sys.stdout.write(line)
                    if line.rstrip("\n") == "END":
                        break
            sys.stdout.flush()
            return 3 if first.startswith("ERR") else 0
    except OSError as e:
        _err(f"wsn fetch: cannot reach {args.host}:{args.port}: {e}")
        return 2


def cmd_plotdata(args: argparse.Namespace) -> int:
    try:
        with open(args.telemetry, "rb") as fh:
            data = fh.read()
    except OSError as e:
        _err(f"wsn plotdata: cannot read telemetry: {e}")
        return 1
    try:
        parsed = parse_telemetry(data)
    except TelemetryError as e:
        _err(f"wsn plotdata: MALFORMED_LOG: {e}")
        return 1
    try:
        channel = channel_from_token(args.channel)
    except EnvError:
        _err(f"wsn plotdata: UNKNOWN_CHANNEL: {args.channel!r}")
        return 1
    if args.node not in parsed.nodes:
        _err(f"wsn plotdata: UNKNOWN_NODE: {args.node!r} not in log header")
        return 1
    if parsed.snapshots and channel not in parsed.snapshots[0].reading_for(args.node).values:
        _err(f"wsn plotdata: UNKNOWN_CHANNEL: log carries no {channel.value} values")
        return 1
    out = sys.stdout
    for snapshot in parsed.snapshots:
        value = snapshot.reading_for(args.node).values[channel]
        if value is None:
            out.write(f"{snapshot.round},\n")  # explicit gap, never interpolated
        else:
            out.write(f"{snapshot.round},{format_value(channel, value)}\n")
    if parsed.partial is not None:
        _err(f"wsn plotdata: ignored trailing partial round {parsed.partial.round}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
