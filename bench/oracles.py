"""Output oracles. Each check returns a list of problems; empty means correct.

Expected values come from the log's own text wherever possible (record
lines are split by hand), so the checks do not trust the parser they test.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

#: Record field index of each channel in a telemetry line.
COLUMN = {"temp_c": 3, "light_raw": 4, "ch4_ppm": 5, "co_ppm": 6, "o2_pct": 7}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Log:
    """A telemetry log split into its header and per-round record lines."""

    def __init__(self, data: bytes):
        self.data = data
        header, _, body = data.partition(b"\n")
        self.header = header
        self.nodes = header.split(b"nodes=", 1)[1].decode().split(",")
        self.index = {n: i for i, n in enumerate(self.nodes)}
        self.rounds: dict[int, list[bytes]] = {}
        for line in body.split(b"\n")[:-1]:
            self.rounds.setdefault(int(line.split(b",", 1)[0]), []).append(line)

    def field(self, rnd: int, node: str, channel: str) -> bytes:
        return self.rounds[rnd][self.index[node]].split(b",")[COLUMN[channel]]


def round_trip(data: bytes) -> list[str]:
    """parse_telemetry -> serialize_snapshots gives back the log byte for byte."""
    from wsnmon import parse_telemetry, serialize_snapshots

    parsed = parse_telemetry(data)
    problems = []
    if parsed.partial is not None:
        problems.append(f"complete log parsed with a partial round {parsed.partial}")
    if serialize_snapshots(parsed.nodes, parsed.snapshots).encode() != data:
        problems.append("parse_telemetry -> serialize_snapshots changed the log")
    return problems


def summary_matches_trace(stderr: bytes, trace: bytes) -> list[str]:
    """Sent/dropped counts on stderr equal the counts taken from the trace."""
    found = re.search(rb"(\d+) messages sent, (\d+) dropped", stderr)
    if not found:
        return ["no run summary on stderr"]
    dropped = trace.count(b" LINK_DROP ")
    sent = trace.count(b"\n") - dropped
    claimed = (int(found.group(1)), int(found.group(2)))
    return [] if claimed == (sent, dropped) else [f"summary {claimed} != trace {(sent, dropped)}"]


def plotdata_matches_log(csv: bytes, log: Log, node: str, channel: str) -> list[str]:
    """The CSV is the log's series for node/channel, with gap rows for NULL."""
    rows = []
    for rnd in log.rounds:
        value = log.field(rnd, node, channel)
        rows.append(b"%d," % rnd + (b"" if value == b"NULL" else value) + b"\n")
    return [] if b"".join(rows) == csv else [f"plotdata CSV differs from the log for {node}"]


def mirror_matches_log(mirror: bytes, log: Log) -> list[str]:
    last = max(log.rounds)
    expected = log.header + b"\n" + b"".join(line + b"\n" for line in log.rounds[last])
    return [] if mirror == expected else ["mirror is not the log's last round"]


def responses_match_log(responses: dict, log: Log, clusters: dict[str, list[str]]) -> list[str]:
    """Every response's record lines equal the log's lines for the round it names."""
    problems = []
    for (request, rnd), response in responses.items():
        verb, _, arg = request.partition(" ")
        if verb == "SNAPSHOT":
            nodes = log.nodes
        elif verb == "NODE":
            nodes = [arg]
        else:
            nodes = [arg, *clusters[arg]]
        lines = log.rounds.get(rnd)
        expected = [lines[log.index[n]] for n in nodes] if lines else None
        if response.split(b"\n")[1:-2] != expected:
            problems.append(f"{request!r} at round {rnd} differs from the log")
    return problems


def alerts_replay(cfg_text: str, log: Log) -> tuple[bytes, int]:
    """Final ALERTS response and fired count from evaluate_alerts over the log."""
    from wsnmon import evaluate_alerts, parse_config, parse_telemetry

    rules = parse_config(cfg_text).rules
    state: dict = {}
    active: dict[tuple[str, str], int] = {}
    fired_total = 0
    for snapshot in parse_telemetry(log.data).snapshots:
        state, fired = evaluate_alerts(rules, snapshot, state)
        fired_total += len(fired)
        for alert in fired:
            active[(alert.rule_id, alert.node)] = alert.round
        for key, held in state.items():
            if not held:
                active.pop(key, None)
    order = {r.rule_id: i for i, r in enumerate(rules)}
    by_id = {r.rule_id: r for r in rules}
    lines = []
    for (rule_id, node), rnd in sorted(active.items(),
                                       key=lambda kv: (order[kv[0][0]], log.index[kv[0][1]])):
        rule = by_id[rule_id]
        value = log.field(rnd, node, rule.channel.value)
        lines.append(b"%s,%s,%d,%s,%s\n" % (rule_id.encode(), node.encode(), rnd, value,
                                             rule.severity.value.encode()))
    return b"BEGIN ALERTS %d\n" % len(lines) + b"".join(lines) + b"END\n", fired_total


def final_alerts_match(final: set[bytes], stderr: bytes, cfg_text: str, log: Log) -> list[str]:
    expected, fired = alerts_replay(cfg_text, log)
    problems = []
    if final != {expected}:
        problems.append(f"final ALERTS {sorted(final)[:1]!r} != replay {expected[:80]!r}")
    if stderr.count(b"ALERT ") != fired:
        problems.append(f"{stderr.count(b'ALERT ')} ALERT lines on stderr, replay fired {fired}")
    return problems
