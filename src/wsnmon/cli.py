from __future__ import annotations

import contextlib
import os
import sys
import time
import types
from typing import NoReturn

from .basestation import (AppendFile, LatestMirror, Snapshot, TelemetryReader, TelemetryWriter,
                          format_value)
from .environment import channel_from_token
from .errors import ConfigError, EnvError, SimError, TelemetryError, WsnError

# The module's docstring, kept as a constant that python -OO does not strip:
# -h prints it, and a usage error prints its second paragraph, the command lines.
HELP_TEXT = """Command-line entry points: run the pipeline, query a gateway, export plots.

    wsn run <config> --out <path> [--serve --port <n>] [--rewrite-latest <path>]
            [--trace <path>] [--pace] [--host <addr>]
    wsn fetch [--host <h>] [--port <n>] <VERB> [args...]
    wsn plotdata <telemetry> --node <id> --channel <c>

Options are spelled in full, as ``--opt value`` or ``--opt=value``, before or
after the positionals; ``--`` ends the options, and a repeated option's last
value counts. A word that begins with ``-`` is an option unless it is ``-`` or
a negative integer. ``-h`` or ``--help`` prints this text and exits 0.

Data goes to standard output only; every diagnostic goes to standard error.
Every command exits 2 on a usage error (no or an unknown command, an unknown
option, a missing option, value or argument, an extra argument, a --port that
is not an integer), printing ``wsn: error: ...`` and the usage above.
Exit codes: run 0 ok / 1 config error (a config that is not UTF-8 included,
naming its line) / 2 runtime failure or two outputs naming one file (refused
before any file is created) / 130 interrupted before the last round (the log
keeps every whole round); fetch 0 ok / 3 ERR response / 2 connection or output
failure, or a reply that is not whole (``PONG``, ``ERR <CODE>``, or
``BEGIN <round|ALERTS> <k>``, k lines and ``END``, each line ending in LF; k
has at most 5 digits, and a line is at most 65536 bytes, its LF included);
plotdata 0 ok / 1 bad input / 2 output failure. A failed write to standard
output is reported as ``cannot write output: ...``. ``wsn run`` takes SIGTERM
as it takes SIGINT, between log appends: before the last round it exits 130,
and a served run after its last round closes the gateway and exits 0.
"""
__doc__ = HELP_TEXT

DEFAULT_PORT = 7070  # the gateway's port for `run --serve` and `fetch`
# A gateway reply line, LF included, is read to at most this many bytes: well
# above the longest the gateway writes, a record line whose round and time
# have thousands of digits. An envelope's k has at most MAX_COUNT_DIGITS digits.
MAX_REPLY_LINE = 65536
MAX_COUNT_DIGITS = 5
_DAY_MS = 86_400_000  # the longest sleep --pace asks for at once


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _write_output(who: str, data: str) -> bool:
    """Write ``data`` to standard output and flush it; False, reported as
    ``who``'s, if that fails or standard output was closed at start-up."""
    try:
        if sys.stdout is None:  # Python sets it to None when fd 1 is closed
            raise OSError("standard output is closed")
        sys.stdout.write(data)
        sys.stdout.flush()
    except OSError as e:
        _err(f"{who}: cannot write output: {e}")
        return False
    return True


# each command's positionals ("*name" takes the rest), its required options,
# and its options, each with its kind (bool: a flag; str or int: the type of its
# value) and default; an option sets the attribute _attr names
_HOST = (str, "127.0.0.1")
_PORT = (int, DEFAULT_PORT)
_COMMANDS = {
    "run": (("config",), ("--out",), {
        "--out": (str, None), "--serve": (bool, False), "--host": _HOST, "--port": _PORT,
        "--rewrite-latest": (str, None), "--trace": (str, None), "--pace": (bool, False)}),
    "fetch": (("verb", "*args"), (), {"--host": _HOST, "--port": _PORT}),
    "plotdata": (("telemetry",), ("--node", "--channel"), {
        "--node": (str, None), "--channel": (str, None)}),
}
_HELP = ("-h", "--help")


def _attr(option: str) -> str:
    return option[2:].replace("-", "_")  # --rewrite-latest sets args.rewrite_latest


class _UsageError(Exception):
    """A command line that the option table refuses."""


def _is_option(word: str) -> bool:
    """Whether ``word`` is read as an option: ``-`` and a negative integer are values."""
    return word.startswith("-") and word != "-" and not word[1:].isdecimal()


def _parse_args(argv: list[str]) -> types.SimpleNamespace | None:
    """``argv``'s command and attributes, walked once against ``_COMMANDS``; None
    for -h or --help. Raises _UsageError."""
    words = iter(argv)
    command = next(words, None)
    if command in _HELP:
        return None
    if command not in _COMMANDS:
        raise _UsageError("a command is required: run, fetch or plotdata" if command is None
                          else f"unknown command {command!r}")
    positionals, required, options = _COMMANDS[command]
    values = {_attr(name): default for name, (_, default) in options.items()}
    given: list[str] = []
    for word in words:
        if not _is_option(word):
            given.append(word)
            continue
        if word == "--":  # the rest are positionals
            given.extend(words)
            break
        if word in _HELP:
            return None
        name, eq, value = word.partition("=")
        if name not in options:
            raise _UsageError(f"unknown option {word!r}")
        kind = options[name][0]
        if kind is bool:
            if eq:
                raise _UsageError(f"{name} takes no value")
            value = True
        elif not eq:
            value = next(words, None)
            if value is None or _is_option(value):
                raise _UsageError(f"{name} needs a value")
        try:
            values[_attr(name)] = kind(value)
        except ValueError:
            raise _UsageError(f"{name} needs an integer, not {value!r}") from None
    for name in required:
        if values[_attr(name)] is None:
            raise _UsageError(f"{name} is required")
    rest = positionals[-1][1:] if positionals[-1].startswith("*") else None
    fixed = positionals[:-1] if rest else positionals
    if len(given) < len(fixed):
        raise _UsageError(f"<{fixed[len(given)]}> is required")
    if len(given) > len(fixed) and not rest:
        raise _UsageError(f"unexpected argument {given[len(fixed)]!r}")
    values.update(zip(fixed, given))
    if rest:
        values[rest] = given[len(fixed):]
    return types.SimpleNamespace(command=command, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as e:
        usage = HELP_TEXT.split("\n\n")[1]  # the block of command lines
        _err(f"wsn: error: {e}\nusage:\n{usage}")
        return 2
    if args is None:
        return 0 if _write_output("wsn", HELP_TEXT) else 2
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


def _remove_if_present(path: str) -> None:
    """Remove ``path``, which a failed open may or may not have created."""
    if os.path.lexists(path):
        os.remove(path)


def cmd_run(args: types.SimpleNamespace) -> int:
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


def _run(args: types.SimpleNamespace, hold: types.SimpleNamespace) -> int:
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
        outputs["the --rewrite-latest temp file"] = LatestMirror.temp_path(args.rewrite_latest)
    owners: dict[str, str] = {}
    for option, path in outputs.items():
        if path:
            owner = owners.setdefault(os.path.realpath(path), option)
            if owner != option:
                _err(f"wsn run: SAME_FILE: {option} {path!r} is the file {owner} names")
                return 2

    sim = run_cfg.sim
    nodes = sim.topology.sensing_nodes()
    gateway = server = mirror = trace = None
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
                if args.trace:  # each round's trace is flushed before its log append
                    trace = stack.enter_context(AppendFile(args.trace, ""))
                writer = stack.enter_context(TelemetryWriter(args.out, nodes))
                undo.pop_all()
            if server is not None:
                _err(f"gateway listening on {server.host}:{server.port}")

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
                    for alert in gateway.publish(s):  # the value as the log writes it
                        _err(f"ALERT {alert.severity.value} {alert.rule_id} node={alert.node} "
                             f"round={alert.round} value={gateway.value_text(alert)}")
                if args.pace:  # in whole-ms slices of at most a day: any int period adds up
                    left = sim.round_period_ms
                    while left > 0:
                        time.sleep(min(left, _DAY_MS) / 1000)
                        left -= _DAY_MS

            try:
                summary = run_simulation(sim, sink, on_trace=trace and trace.write)
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
            _err(f"ran {sim.rounds} rounds: {summary.messages_sent} messages sent, "
                 f"{summary.messages_dropped} dropped")
            if server is not None:
                try:  # the line asks for the interrupt, which may come before the sleep
                    _err("simulation done; still serving (interrupt to stop)")
                    while True:
                        time.sleep(1.0)
                except KeyboardInterrupt:
                    pass
            return 0
    except (OSError, WsnError) as e:
        _err(f"wsn run: {e}")
        return 2


def _is_count(word: str) -> bool:
    return word.isascii() and word.isdigit()


def _quoted(text: str) -> str:
    """``text`` quoted, cut to its first 80 characters."""
    return repr(text) if len(text) <= 80 else f"{text[:80]!r}..."


class _NotWhole(Exception):
    """Says what is not whole about a gateway reply."""


def _reply_line(reader, where: str) -> str:
    """The reply's next line, LF included; ``where`` names the place of a
    connection that closes before it."""
    raw = reader.readline(MAX_REPLY_LINE)
    if not raw:
        raise _NotWhole(f"connection closed {where}")
    if raw[-1:] != b"\n":
        if len(raw) == MAX_REPLY_LINE:  # the rest of the line is never read
            head = _quoted(raw.decode("utf-8", "replace"))
            raise _NotWhole(f"a line longer than {MAX_REPLY_LINE} bytes: {head}")
        raise _NotWhole(f"connection closed inside the line {_quoted(raw.decode('utf-8'))}")
    return raw.decode("utf-8")


def _read_reply(reader) -> list[str]:
    """One gateway reply's lines, read line by line up to its last; raises
    _NotWhole, saying what is not whole about it (the module docstring gives
    the rule)."""
    first = _reply_line(reader, "before any response")
    head = first[:-1].split(" ")
    if first == "PONG\n" or (len(head) == 2 and head[0] == "ERR" and head[1]):
        return [first]
    if not (len(head) == 3 and head[0] == "BEGIN" and _is_count(head[2])
            and (head[1] == "ALERTS" or _is_count(head[1]))):
        raise _NotWhole(f"not PONG, ERR <CODE> or BEGIN <round|ALERTS> <k>: {_quoted(first)}")
    said = head[2]
    if len(said) > MAX_COUNT_DIGITS:  # int() refuses long digit runs, too
        raise _NotWhole(f"BEGIN's k has more than {MAX_COUNT_DIGITS} digits")
    reply = [first]
    for j in range(int(said) + 1):  # k lines and END, at most
        line = _reply_line(reader, "inside envelope")
        reply.append(line)
        if line == "END\n":
            if said != str(j):  # compared as text: "01" is not a k the gateway writes
                raise _NotWhole(f"BEGIN says {said} lines, END comes after {j}")
            return reply
    raise _NotWhole(f"BEGIN says {said} lines, then {_quoted(line)}, not END")


def cmd_fetch(args: types.SimpleNamespace) -> int:
    if not 0 <= args.port <= 65535:  # create_connection would take the port modulo 2**16
        _err(f"wsn fetch: cannot reach {args.host}:{args.port}: port must be 0-65535")
        return 2
    import socket  # imported here: run and plotdata do not need it

    request = " ".join([args.verb, *args.args])
    try:
        with socket.create_connection((args.host, args.port), timeout=10) as sock:
            sock.sendall(request.encode("utf-8") + b"\n")
            with sock.makefile("rb") as reader:
                # written once the exchange ends, so a write failure is told apart
                reply = _read_reply(reader)
    except OSError as e:
        _err(f"wsn fetch: cannot reach {args.host}:{args.port}: {e}")
        return 2
    except UnicodeDecodeError as e:
        _err(f"wsn fetch: response from {args.host}:{args.port} is not UTF-8: {e}")
        return 2
    except _NotWhole as e:  # nothing of a reply that is not whole reaches standard output
        _err(f"wsn fetch: bad response from {args.host}:{args.port}: {e}")
        return 2
    if not _write_output("wsn fetch", "".join(reply)):
        return 2
    return 3 if reply[0].startswith("ERR") else 0


def cmd_plotdata(args: types.SimpleNamespace) -> int:
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
    if not _write_output("wsn plotdata", "".join(rows)):
        return 2
    if reader.partial is not None:
        _err(f"wsn plotdata: ignored trailing partial round {reader.partial.round}")
    return 0


def entry() -> NoReturn:
    """The process entry point, of ``python -m wsnmon.cli`` and the ``wsn``
    script: it exits with ``main``'s code once standard output and standard
    error are flushed.

    When ``main`` returns, every output it opened is closed, and interpreter
    teardown (the last GC passes and module clearing) would only free memory,
    so the process skips it, unless -X dev or a trace, profile or monitoring
    hook (pdb, cProfile, coverage) watches it end.
    """
    code = main()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as e:  # what a failed write left buffered: report the first failure
            if code == 0:
                _err(f"wsn: cannot write output: {e}")
                code = 2
            sys.stdout = None  # an interpreter exit would flush it again, and report that
    if sys.stderr is not None:
        with contextlib.suppress(OSError):  # as at an interpreter exit: nowhere to report it
            sys.stderr.flush()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile's hook is here
    if (sys.flags.dev_mode or sys.gettrace() is not None or sys.getprofile() is not None
            or monitoring is not None and any(map(monitoring.get_tool, range(6)))):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
