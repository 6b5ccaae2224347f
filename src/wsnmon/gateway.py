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
| NO_DATA | BUSY. No client can exhaust the server. A request line longer than
MAX_REQUEST_BYTES (newline included) gets ERR BAD_REQUEST and its session is
closed, so no line is buffered unbounded. A connection made while
MAX_SESSIONS sessions are open gets ERR BUSY and is closed, without a thread.
A session that sends no request, or takes no response, for IDLE_TIMEOUT_S
seconds is closed. A client that resets or drops its connection ends its own
session quietly, and closing the server shuts every open session down (each
client reads EOF). Only the latest complete round is served; the telemetry
file is the historical record.

Every response a round can get is rendered once, when the round is
published, from the same block of record lines the log and the mirror get
(``basestation.snapshot_block``); a request is a table lookup.

Alert rules and their rising-edge semantics are defined in ``alerts``.
"""

from __future__ import annotations

import contextlib
import logging
import socket
import socketserver
import threading
from typing import TYPE_CHECKING, Sequence

from .alerts import Alert, AlertRule, alert_line, evaluate_alerts
from .basestation import Snapshot, format_value, snapshot_block
from .errors import GatewayError

if TYPE_CHECKING:  # an annotation only: the gateway runs without the simulator
    from .netsim import TreeTopology

MAX_REQUEST_BYTES = 4096
MAX_SESSIONS = 64  # open sessions; one more connection gets ERR BUSY
IDLE_TIMEOUT_S = 300.0  # a session blocked this long on its socket ends
_POLL_S = 0.05  # how soon close() stops the accept loop

log = logging.getLogger(__name__)


def _validate_rules(rules: Sequence[AlertRule]) -> None:
    ids = [r.rule_id for r in rules]
    if len(set(ids)) != len(ids):
        raise GatewayError("INVALID_RULE", "rule ids must be unique")


_ARITY = {"SNAPSHOT": 0, "ALERTS": 0, "NODE": 1, "CLUSTER": 1}


class Gateway:
    """Shared state between the snapshot source and client sessions.

    One writer: a single thread calls publish(), so no lock is taken.
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
        for head in topology.children[topology.root]:
            start = self._nodes.index(head)
            stop = start + 1 + len(topology.children[head])
            self._clusters.append(("CLUSTER " + head, start, stop))
        self._round = -1
        self._active: dict[tuple[str, str], str] = {}  # a held pair's alert line
        self._responses: dict[str, str] = {}

    def publish(self, s: Snapshot) -> list[Alert]:
        """Observe one new round; returns the alerts it fired."""
        block = snapshot_block(s)
        if s.round <= self._round:
            raise ValueError(f"round {s.round} after round {self._round}")
        if s.nodes != self._nodes:
            raise ValueError(f"round {s.round}: snapshot nodes do not match the topology")
        active = self._active
        held, fired = evaluate_alerts(self.rules, s, active)
        for a in fired:
            active[(a.rule_id, a.node)] = alert_line(a, self._channel_of[a.rule_id]) + "\n"
        # a pair is active exactly while it holds, and ``held`` is in rule,
        # then node order: the order ALERTS lists them in
        self._active = {k: active[k] for k, holds in held.items() if holds}
        self._responses = self._render(s.round, block)
        self._round = s.round
        return fired

    def value_text(self, a: Alert) -> str:
        """The value of ``a``, which this gateway fired, as ``ALERTS`` writes it."""
        return format_value(self._channel_of[a.rule_id], a.value)

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
        if tokens[0] == "CLUSTER" and tokens[1] in self.topology.children:
            return "ERR NOT_A_CLUSTER_HEAD\n"
        return "ERR UNKNOWN_NODE\n"


class _Handler(socketserver.StreamRequestHandler):
    server: GatewayServer
    timeout = IDLE_TIMEOUT_S  # setup() puts it on the socket: each read and write

    def handle(self):
        with contextlib.suppress(OSError):  # a reset, a drop or IDLE_TIMEOUT_S: it just ends
            self._session()

    def _session(self):
        gateway = self.server.gateway
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


class GatewayServer(socketserver.ThreadingTCPServer):
    """A running gateway endpoint: one accepting thread, and one thread per
    session, which close() ends and joins (they are not daemons)."""

    allow_reuse_address = True

    def __init__(self, gateway: Gateway, host: str, port: int):
        self.gateway = gateway
        self._sessions: set[socket.socket] = set()  # the open session sockets
        self._sessions_lock = threading.Lock()
        try:
            super().__init__((host, port), _Handler)
        except (OSError, OverflowError) as e:  # OverflowError: a port outside 0-65535
            raise GatewayError("BIND_FAILURE", f"cannot bind {host}:{port}: {e}") from e
        self.host, self.port = self.server_address[:2]
        self._accepting = threading.Thread(
            target=self.serve_forever, args=(_POLL_S,), name="wsn-gateway", daemon=True)
        self._accepting.start()

    def process_request(self, request, client_address):
        with self._sessions_lock:
            busy = len(self._sessions) >= MAX_SESSIONS
            if not busy:
                self._sessions.add(request)
        if busy:  # refused on the accepting thread: no session thread is started
            with contextlib.suppress(OSError):
                request.sendall(b"ERR BUSY\n")
            self.shutdown_request(request)
        else:
            super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._sessions_lock:  # forgotten before it closes, never shut down after
            self._sessions.discard(request)
        super().shutdown_request(request)

    def close(self) -> None:
        """Stop accepting, end every open session, and join every thread."""
        self.shutdown()
        with self._sessions_lock:  # reads see EOF and writes fail: each session ends
            for sock in self._sessions:
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)
        self.server_close()  # joins the session threads
        self._accepting.join()

    def __exit__(self, *exc) -> None:
        self.close()


def serve(gateway: Gateway, host: str = "127.0.0.1", *, port: int) -> GatewayServer:
    """Start accepting client sessions; returns the running service handle.
    Port 0 binds a free port, which the handle's ``port`` names. Close the
    handle (or use it as a context manager) to end every session."""
    return GatewayServer(gateway, host, port)
