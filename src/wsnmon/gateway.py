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

Every response a round can get is rendered once, when the round is
published, from the same block of record lines the log and the mirror get
(``basestation.snapshot_block``); a request is a table lookup.

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
from typing import Mapping, Sequence

from .basestation import format_value, snapshot_block
from .environment import Channel
from .errors import GatewayError
from .records import Snapshot
from .topology import TreeTopology

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


_ARITY = {"SNAPSHOT": 0, "ALERTS": 0, "NODE": 1, "CLUSTER": 1}


class Gateway:
    """Shared state between the snapshot source and client sessions.

    publish() renders every response a round can get, from the block the
    log and the mirror get, and swaps the request->response table in whole;
    a session reads that one reference, so no response ever mixes rounds or
    sees a half-updated alert set.
    """

    def __init__(self, topology: TreeTopology, rules: Sequence[AlertRule] = ()):
        _validate_rules(rules)
        self.topology = topology
        self.rules = tuple(rules)
        self._channel_of = {r.rule_id: r.channel for r in self.rules}
        self._nodes = topology.sensing_nodes()
        self._node_requests = ["NODE " + n for n in self._nodes]
        # a head is followed by its leaflets, so a cluster is a slice of lines
        self._clusters: list[tuple[str, int, int]] = []
        for head in topology.cluster_heads():
            start = self._nodes.index(head)
            stop = start + 1 + len(topology.children[head])
            self._clusters.append(("CLUSTER " + head, start, stop))
        self._lock = threading.Lock()
        self._round = -1
        self._edge_state: dict[tuple[str, str], bool] = {}
        self._active: dict[tuple[str, str], str] = {}  # alert lines, rendered on firing
        self._responses: dict[str, str] = {}

    def publish(self, s: Snapshot) -> list[Alert]:
        """Observe one new round; returns the alerts it fired."""
        block = snapshot_block(s)
        with self._lock:
            if s.round <= self._round:
                raise ValueError(f"round {s.round} after round {self._round}")
            if s.nodes() != self._nodes:
                raise ValueError(f"round {s.round}: snapshot nodes do not match the topology")
            self._edge_state, fired = evaluate_alerts(self.rules, s, self._edge_state)
            active = self._active
            for a in fired:
                active[(a.rule_id, a.node)] = alert_line(a, self._channel_of[a.rule_id]) + "\n"
            # a pair is active exactly while it holds, and the state is in
            # rule, then node order: the order ALERTS lists them in
            self._active = {k: active[k] for k, holds in self._edge_state.items() if holds}
            self._responses = self._render(s.round, block)
            self._round = s.round
            return fired

    def _render(self, rnd: int, block: str) -> dict[str, str]:
        lines = block.splitlines(keepends=True)
        alerts = self._active
        responses = {
            "SNAPSHOT": f"BEGIN {rnd} {len(lines)}\n{block}END\n",
            "ALERTS": f"BEGIN ALERTS {len(alerts)}\n{''.join(alerts.values())}END\n",
        }
        one = f"BEGIN {rnd} 1\n"
        responses.update(zip(self._node_requests, [one + line + "END\n" for line in lines]))
        for request, start, stop in self._clusters:
            body = "".join(lines[start:stop])
            responses[request] = f"BEGIN {rnd} {stop - start}\n{body}END\n"
        return responses

    def handle_request(self, line: str) -> str:
        """Map one request line to one complete response (text, LF-terminated)."""
        tokens = line.split()
        request = " ".join(tokens)
        if request == "PING":
            return "PONG\n"
        responses = self._responses  # one reference: the whole of one round
        response = responses.get(request)
        if response is not None:
            return response
        if not tokens or _ARITY.get(tokens[0]) != len(tokens) - 1:
            return "ERR BAD_REQUEST\n"
        if not responses:
            return "ERR NO_DATA\n"
        if tokens[0] == "CLUSTER" and tokens[1] in self.topology.roles:
            return "ERR NOT_A_CLUSTER_HEAD\n"
        return "ERR UNKNOWN_NODE\n"


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
