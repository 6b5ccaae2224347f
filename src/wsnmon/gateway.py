"""Gateway service: latest-round queries for many clients, plus threshold alerts.

Wire protocol: plain text, one request per line (LF), verbs uppercase and
case-sensitive. Responses reuse the telemetry record grammar so clients need
a single parser:

    SNAPSHOT          -> BEGIN <round> <n> / n record lines / END
    NODE <id>         -> BEGIN <round> 1 / record line / END
    CLUSTER <head_id> -> BEGIN <round> <1+k> / head + leaflet lines / END
    ALERTS            -> BEGIN ALERTS <k> / <rule_id>,<node>,<round>,<value>,<severity> / END
    PING              -> PONG

Errors are single lines: ERR BAD_REQUEST | UNKNOWN_NODE | NOT_A_CLUSTER_HEAD
| NO_DATA. A request line longer than MAX_REQUEST_BYTES (newline included)
gets ERR BAD_REQUEST and its session is closed, so no client can make the
server buffer an unbounded line. Only the latest complete round is served;
the telemetry file is the historical record.

Alerts have rising-edge semantics: a (rule, node) pair fires when its
predicate turns true after a round where it was false, NULL, or unknown; a
NULL (or unequipped) round resets the edge so recovery can fire again.
"""

from __future__ import annotations

import logging
import socketserver
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .basestation import format_value, record_line
from .environment import Channel
from .errors import GatewayError
from .records import Snapshot
from .topology import NodeRole, TreeTopology

DEFAULT_PORT = 7070
MAX_REQUEST_BYTES = 4096

log = logging.getLogger(__name__)


class Comparator(Enum):
    GREATER = "GT"
    LESS = "LT"


class Severity(Enum):
    WARN = "WARN"
    DANGER = "DANGER"


@dataclass(frozen=True)
class AlertRule:
    rule_id: str
    channel: Channel
    comparator: Comparator
    threshold: float
    severity: Severity

    def __post_init__(self):
        if not self.rule_id or any(c.isspace() or c == "," for c in self.rule_id):
            raise GatewayError("INVALID_RULE", f"bad rule id {self.rule_id!r}")
        if self.threshold != self.threshold or self.threshold in (float("inf"), float("-inf")):
            raise GatewayError("INVALID_RULE", "threshold must be finite")

    def matches(self, value: float) -> bool:
        if self.comparator is Comparator.GREATER:
            return value > self.threshold
        return value < self.threshold


@dataclass(frozen=True)
class Alert:
    rule_id: str
    node: str
    round: int
    value: float
    severity: Severity


def alert_line(a: Alert, channel: Channel) -> str:
    return f"{a.rule_id},{a.node},{a.round},{format_value(channel, a.value)},{a.severity.value}"


AlertState = Mapping[tuple[str, str], bool]


def evaluate_alerts(
    rules: Sequence[AlertRule], s: Snapshot, state: AlertState
) -> tuple[dict[tuple[str, str], bool], list[Alert]]:
    """Advance alert state by one round; returns (new state, newly fired).

    State maps (rule_id, node) to "predicate held last round". Pairs whose
    channel is NULL or unequipped this round are false in the new state.
    """
    new_state: dict[tuple[str, str], bool] = {}
    fired: list[Alert] = []
    for rule in rules:
        for reading in s.readings:
            key = (rule.rule_id, reading.node)
            value = reading.values.get(rule.channel)
            holds = value is not None and rule.matches(value)
            new_state[key] = holds
            if holds and not state.get(key, False):
                fired.append(
                    Alert(rule.rule_id, reading.node, s.round, value, rule.severity)
                )
    return new_state, fired


def _validate_rules(rules: Sequence[AlertRule]) -> None:
    ids = [r.rule_id for r in rules]
    if len(set(ids)) != len(ids):
        raise GatewayError("INVALID_RULE", "rule ids must be unique")


class Gateway:
    """Shared state between the snapshot source and client sessions.

    The source pushes complete rounds through publish(); sessions read a
    consistent (snapshot, alerts) pair under one lock, so no response ever
    mixes rounds or sees a half-updated alert set.
    """

    def __init__(self, topology: TreeTopology, rules: Sequence[AlertRule] = ()):
        _validate_rules(rules)
        self.topology = topology
        self.rules = tuple(rules)
        self._lock = threading.Lock()
        self._snapshot: Snapshot | None = None
        self._edge_state: dict[tuple[str, str], bool] = {}
        self._active: dict[tuple[str, str], Alert] = {}

    def publish(self, s: Snapshot) -> list[Alert]:
        """Observe one new round; returns the alerts it fired."""
        with self._lock:
            if self._snapshot is not None and s.round <= self._snapshot.round:
                raise ValueError(f"round {s.round} after round {self._snapshot.round}")
            self._edge_state, fired = evaluate_alerts(self.rules, s, self._edge_state)
            for alert in fired:
                self._active[(alert.rule_id, alert.node)] = alert
            for key in [k for k, held in self._edge_state.items() if not held]:
                self._active.pop(key, None)
            self._snapshot = s
            return fired

    def handle_request(self, line: str) -> str:
        """Map one request line to one complete response (text, LF-terminated)."""
        tokens = line.rstrip("\r\n").split()
        if not tokens:
            return "ERR BAD_REQUEST\n"
        verb, args = tokens[0], tokens[1:]
        if verb == "PING" and not args:
            return "PONG\n"
        with self._lock:
            snapshot = self._snapshot
            active = list(self._active.values())
        if verb == "SNAPSHOT" and not args:
            if snapshot is None:
                return "ERR NO_DATA\n"
            return self._envelope(snapshot, snapshot.readings)
        if verb == "NODE" and len(args) == 1:
            if snapshot is None:
                return "ERR NO_DATA\n"
            role = self.topology.roles.get(args[0])
            if role is None or role is NodeRole.BASE_STATION:
                return "ERR UNKNOWN_NODE\n"
            return self._envelope(snapshot, [snapshot.reading_for(args[0])])
        if verb == "CLUSTER" and len(args) == 1:
            if snapshot is None:
                return "ERR NO_DATA\n"
            role = self.topology.roles.get(args[0])
            if role is None:
                return "ERR UNKNOWN_NODE\n"
            if role is not NodeRole.CLUSTER_HEAD:
                return "ERR NOT_A_CLUSTER_HEAD\n"
            members = (args[0], *self.topology.leaflets(args[0]))
            return self._envelope(snapshot, [snapshot.reading_for(n) for n in members])
        if verb == "ALERTS" and not args:
            if snapshot is None:
                return "ERR NO_DATA\n"
            return self._alerts_envelope(active)
        return "ERR BAD_REQUEST\n"

    def _envelope(self, snapshot: Snapshot, readings: Iterable) -> str:
        lines = [record_line(r) for r in readings]
        body = "".join(line + "\n" for line in lines)
        return f"BEGIN {snapshot.round} {len(lines)}\n{body}END\n"

    def _alerts_envelope(self, active: list[Alert]) -> str:
        channel_of = {r.rule_id: r.channel for r in self.rules}
        rule_order = {r.rule_id: i for i, r in enumerate(self.rules)}
        node_order = {n: i for i, n in enumerate(self.topology.sensing_nodes())}
        active.sort(key=lambda a: (rule_order[a.rule_id], node_order[a.node]))
        body = "".join(alert_line(a, channel_of[a.rule_id]) + "\n" for a in active)
        return f"BEGIN ALERTS {len(active)}\n{body}END\n"


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        gateway: Gateway = self.server.gateway  # type: ignore[attr-defined]
        while True:
            raw = self.rfile.readline(MAX_REQUEST_BYTES)
            if not raw:
                return  # client closed the session
            if len(raw) == MAX_REQUEST_BYTES and not raw.endswith(b"\n"):
                self.wfile.write(b"ERR BAD_REQUEST\n")
                return  # the rest of the line is never read
            try:
                response = gateway.handle_request(raw.decode("utf-8"))
            except UnicodeDecodeError:
                response = "ERR BAD_REQUEST\n"
            except Exception:
                # a session must never take the service down with it
                log.exception("request handling failed")
                response = "ERR BAD_REQUEST\n"
            self.wfile.write(response.encode("utf-8"))


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class GatewayServer:
    """Handle to a running gateway endpoint."""

    def __init__(self, gateway: Gateway, host: str, port: int):
        try:
            self._server = _Server((host, port), _Handler)
        except OSError as e:
            raise GatewayError("BIND_FAILURE", f"cannot bind {host}:{port}: {e}") from e
        self._server.gateway = gateway  # type: ignore[attr-defined]
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="wsn-gateway", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def __enter__(self) -> "GatewayServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(
    gateway: Gateway, host: str = "127.0.0.1", port: int = DEFAULT_PORT
) -> GatewayServer:
    """Start accepting client sessions; returns the running service handle."""
    return GatewayServer(gateway, host, port)
