"""Gateway: alert edge semantics, the request grammar, and live socket sessions."""

import math
import random
import socket
import struct
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    GAS_CHANNELS,
    DESK_NODES,
    Row,
    brute_force_alerts,
    make_config,
    desk_topology,
    from_readings,
    random_rules,
    random_snapshot,
    readings,
    record_line,
)
from wsnmon import alerts, basestation, gateway
from wsnmon.basestation import LatestMirror, Snapshot, TelemetryWriter, parse_record
from wsnmon.config import parse_config
from wsnmon.environment import Channel
from wsnmon.errors import GatewayError
from wsnmon.alerts import Alert, AlertRule, Comparator, Severity, alert_line, evaluate_alerts
from wsnmon.gateway import Gateway, MAX_REQUEST_BYTES, serve
from wsnmon.netsim import run_round

CO_RULE = AlertRule("co_high", Channel.CO_PPM, Comparator.GREATER, 50.0, Severity.WARN)


def co_snapshot(round_index, co_by_node):
    """Snapshot where every node carries a CO sensor; None means a NULL round."""
    rows = []
    for node in DESK_NODES:
        value = co_by_node.get(node, 0.0)
        if value is None:
            values = dict.fromkeys((Channel.TEMP_C, Channel.LIGHT_RAW, Channel.CO_PPM))
        else:
            values = {Channel.TEMP_C: 25.0, Channel.LIGHT_RAW: 512.0,
                      Channel.CO_PPM: float(value)}
        rows.append(Row(node, values))
    return from_readings(round_index, round_index * 1000, rows)


def replay(rules, snapshots):
    state = {}
    fired = []
    for s in snapshots:
        state, new = evaluate_alerts(rules, s, state)
        fired.extend(new)
    return fired


class TestEvaluateAlerts:
    def test_rising_edge_fires_once(self):
        """Crossing fires; staying above does not refire."""
        snaps = [co_snapshot(0, {"N1": 40}), co_snapshot(1, {"N1": 60}),
                 co_snapshot(2, {"N1": 61})]
        fired = replay([CO_RULE], snaps)
        assert [(a.node, a.round, a.value) for a in fired] == [("N1", 1, 60.0)]

    def test_first_round_above_threshold_fires(self):
        fired = replay([CO_RULE], [co_snapshot(0, {"2.2": 80})])
        assert [(a.node, a.round) for a in fired] == [("2.2", 0)]

    def test_null_resets_the_edge(self):
        """A NULL round in between makes the recovery fire again."""
        snaps = [co_snapshot(0, {"N1": 60}), co_snapshot(1, {"N1": None}),
                 co_snapshot(2, {"N1": 60})]
        fired = replay([CO_RULE], snaps)
        assert [(a.node, a.round) for a in fired] == [("N1", 0), ("N1", 2)]

    def test_unequipped_channel_never_fires(self):
        rule = AlertRule("ch4_high", Channel.CH4_PPM, Comparator.GREATER, 1.0, Severity.DANGER)
        snaps = [co_snapshot(0, {"N1": 60}), co_snapshot(1, {"N1": 60})]
        assert replay([rule], snaps) == []

    def test_less_than_comparator(self):
        rule = AlertRule("o2_low", Channel.O2_PCT, Comparator.LESS, 19.5, Severity.DANGER)
        rows = tuple(
            Row(n, {Channel.TEMP_C: 25.0, Channel.LIGHT_RAW: 512.0, Channel.O2_PCT: 18.0})
            for n in DESK_NODES
        )
        _, fired = evaluate_alerts([rule], from_readings(0, 0, rows), {})
        assert len(fired) == len(DESK_NODES)
        assert all(a.severity is Severity.DANGER for a in fired)

    def test_a_true_state_value_is_a_held_pair(self):
        """The gateway passes its alert lines as the state: a pair mapped to
        its line held last round, so it does not fire again; the new state
        maps every pair to a bool."""
        s = co_snapshot(1, {"N1": 60, "N2": 70})
        state, fired = evaluate_alerts([CO_RULE], s, {("co_high", "N1"): "<line>"})
        assert [a.node for a in fired] == ["N2"]
        assert state == {("co_high", n): n in ("N1", "N2") for n in DESK_NODES}

    def test_threshold_is_exclusive(self):
        fired = replay([CO_RULE], [co_snapshot(0, {"N1": 50})])
        assert fired == []

    def test_replay_matches_brute_force(self):
        """Incremental state equals the stateless per-round rescan, exactly."""
        for trial in range(20):
            rng = random.Random(1000 + trial)
            rules = random_rules(rng, rng.randrange(1, 6))
            snaps = [random_snapshot(rng, i, gases=GAS_CHANNELS) for i in range(200)]
            got = sorted((a.rule_id, a.node, a.round, a.value) for a in replay(rules, snaps))
            assert got == brute_force_alerts(rules, snaps)


class TestAlertLine:
    def test_value_formatting_matches_records(self):
        a = Alert("co_high", "N1", 3, 60.0, Severity.WARN)
        assert alert_line(a, Channel.CO_PPM) == "co_high,N1,3,60,WARN"
        t = Alert("hot", "2.1", 7, 31.5, Severity.DANGER)
        assert alert_line(t, Channel.TEMP_C) == "hot,2.1,7,31.5000,DANGER"


class TestRuleValidation:
    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(GatewayError, match="INVALID_RULE"):
            Gateway(desk_topology(), [CO_RULE, CO_RULE])

    def test_bad_rule_id(self):
        for rule_id in ("", "a b", "a,b"):
            with pytest.raises(GatewayError, match="INVALID_RULE"):
                AlertRule(rule_id, Channel.CO_PPM, Comparator.GREATER, 1.0, Severity.WARN)

    def test_threshold_must_be_finite(self):
        for threshold in (math.nan, math.inf, -math.inf):
            with pytest.raises(GatewayError, match="INVALID_RULE"):
                AlertRule("r", Channel.CO_PPM, Comparator.GREATER, threshold, Severity.WARN)


class TestHandleRequest:
    def make_gateway(self, published=True):
        gw = Gateway(desk_topology(), rules=(CO_RULE,))
        if published:
            gw.publish(co_snapshot(0, {"N1": 60, "2.2": 60}))
        return gw

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(),
        st.lists(st.sampled_from(["SNAPSHOT", "NODE", "CLUSTER", "ALERTS", "PING", "N1", "1.1",
                                  "BS", "9.9", "snapshot", " ", "\t", "\n", "\r", "\x85",
                                  "\u3000", "\x00"]),
                 max_size=5).map("".join),
    ))
    def test_any_text_gets_one_terminated_response(self, line):
        """Before and after a publish: one LF-terminated response, never an error raised."""
        for gw in (self.make_gateway(published=False), self.make_gateway()):
            response = gw.handle_request(line)
            assert response.endswith("\n")
            lines = response.split("\n")[:-1]
            if len(lines) > 1:  # only a published envelope spans lines
                assert lines[0].startswith("BEGIN ") and lines[-1] == "END"
                assert int(lines[0].split()[2]) == len(lines) - 2

    def test_ping(self):
        gw = self.make_gateway(published=False)
        assert gw.handle_request("PING\n") == "PONG\n"

    def test_no_data_before_first_round(self):
        gw = self.make_gateway(published=False)
        for verb in ("SNAPSHOT", "NODE N1", "CLUSTER N1", "ALERTS"):
            assert gw.handle_request(verb + "\n") == "ERR NO_DATA\n"

    def test_snapshot_envelope(self):
        gw = self.make_gateway()
        response = gw.handle_request("SNAPSHOT\n")
        lines = response.splitlines()
        assert lines[0] == "BEGIN 0 6"
        assert lines[-1] == "END"
        assert len(lines) == 8
        # body lines are exactly the record grammar
        for i, line in enumerate(lines[1:-1]):
            rnd, _, node, _ = parse_record(line)
            assert node == DESK_NODES[i]
            assert rnd == 0

    def test_node_query(self):
        gw = self.make_gateway()
        response = gw.handle_request("NODE 1.2\n")
        assert response.splitlines() == ["BEGIN 0 1", "0,0,1.2,25.0000,512,-,0,-,OK", "END"]

    def test_unknown_node(self):
        gw = self.make_gateway()
        assert gw.handle_request("NODE 9.9\n") == "ERR UNKNOWN_NODE\n"
        # the base station holds no sensors, so it is not queryable
        assert gw.handle_request("NODE BS\n") == "ERR UNKNOWN_NODE\n"
        assert gw.handle_request("CLUSTER 9.9\n") == "ERR UNKNOWN_NODE\n"

    def test_cluster_query(self):
        gw = self.make_gateway()
        lines = gw.handle_request("CLUSTER N1\n").splitlines()
        assert lines[0] == "BEGIN 0 3"
        assert [parse_record(l)[2] for l in lines[1:-1]] == ["N1", "1.1", "1.2"]

    def test_cluster_of_leaflet(self):
        gw = self.make_gateway()
        assert gw.handle_request("CLUSTER 1.1\n") == "ERR NOT_A_CLUSTER_HEAD\n"
        # the base station is a known node but heads no cluster of its own
        assert gw.handle_request("CLUSTER BS\n") == "ERR NOT_A_CLUSTER_HEAD\n"

    def test_bad_requests(self):
        gw = self.make_gateway()
        for line in ("", "ping", "SNAPSHOT extra", "NODE", "NODE a b",
                     "CLUSTER", "ALERTS now", "FETCH N1"):
            assert gw.handle_request(line + "\n") == "ERR BAD_REQUEST\n", line

    def test_alerts_envelope_and_order(self):
        gw = self.make_gateway()  # N1 and 2.2 crossed at round 0
        lines = gw.handle_request("ALERTS\n").splitlines()
        assert lines == ["BEGIN ALERTS 2", "co_high,N1,0,60,WARN",
                         "co_high,2.2,0,60,WARN", "END"]

    def test_alert_order_is_rule_then_topology(self):
        """Sorted by rule configuration order, then node order, not fire time."""
        second = AlertRule("co_warn", Channel.CO_PPM, Comparator.GREATER, 10.0, Severity.WARN)
        gw = Gateway(desk_topology(), rules=(CO_RULE, second))
        gw.publish(co_snapshot(0, {"2.2": 60}))
        gw.publish(co_snapshot(1, {"2.2": 60, "N1": 60}))
        lines = gw.handle_request("ALERTS\n").splitlines()
        assert lines == [
            "BEGIN ALERTS 4",
            "co_high,N1,1,60,WARN",
            "co_high,2.2,0,60,WARN",
            "co_warn,N1,1,60,WARN",
            "co_warn,2.2,0,60,WARN",
            "END",
        ]

    def test_alert_clears_when_condition_ends(self):
        gw = self.make_gateway()
        gw.publish(co_snapshot(1, {"N1": 60}))  # 2.2 recovered
        lines = gw.handle_request("ALERTS\n").splitlines()
        assert lines == ["BEGIN ALERTS 1", "co_high,N1,0,60,WARN", "END"]

    def test_serves_only_latest_round(self):
        gw = self.make_gateway()
        gw.publish(co_snapshot(1, {}))
        assert gw.handle_request("SNAPSHOT\n").splitlines()[0] == "BEGIN 1 6"

    def test_publish_rejects_stale_round(self):
        gw = self.make_gateway()
        with pytest.raises(ValueError):
            gw.publish(co_snapshot(0, {}))

    def test_publish_rejects_foreign_nodes(self):
        gw = self.make_gateway()
        s = co_snapshot(1, {})
        with pytest.raises(ValueError):
            gw.publish(Snapshot(s.round, s.time_ms, s.nodes[::-1], s.columns))

    def test_requests_never_render(self, monkeypatch, tmp_path):
        """A round's records are rendered once, whichever of publish, the log
        and the mirror takes the round first; a request looks one up."""
        calls = {"_render_block": 0, "format_value": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(basestation, "_render_block",
                            counting("_render_block", basestation._render_block))
        monkeypatch.setattr(alerts, "format_value",
                            counting("format_value", alerts.format_value))
        cfg = make_config(gas=True, rounds=4)
        rule = AlertRule("co_any", Channel.CO_PPM, Comparator.GREATER, 1.0, Severity.WARN)
        gw = Gateway(desk_topology(), rules=(rule,))
        mirror = LatestMirror(tmp_path / "latest.log", DESK_NODES)
        with TelemetryWriter(tmp_path / "t.log", DESK_NODES) as writer:
            for r in range(4):
                s = run_round(cfg, r)[0]
                gw.publish(s)
                writer.append(s)
                mirror.update(s)
        published = dict(calls)
        assert published["_render_block"] == 4
        requests = ["SNAPSHOT", "ALERTS", "PING", "CLUSTER N1", "CLUSTER 1.1", "NODE 9.9",
                    "FETCH", *(f"NODE {n}" for n in DESK_NODES)]
        for _ in range(50):
            for request in requests:
                gw.handle_request(request + "\n")
        assert gw.handle_request("ALERTS\n").startswith("BEGIN ALERTS 6\n")
        assert calls == published


class Client:
    """Minimal line client speaking the gateway protocol."""

    def __init__(self, port, host="127.0.0.1"):
        self.sock = socket.create_connection((host, port), timeout=5)
        self.rfile = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def ask(self, line):
        self.sock.sendall((line + "\n").encode("utf-8"))
        first = self.rfile.readline().rstrip("\n")
        lines = [first]
        if first.startswith("BEGIN"):
            count = int(first.split()[-1])
            for _ in range(count + 1):
                lines.append(self.rfile.readline().rstrip("\n"))
        return lines

    def close(self):
        self.rfile.close()
        self.sock.close()


def live_gateway():
    cfg = make_config(gas=True, rounds=50)
    gw = Gateway(desk_topology())
    snapshot, _ = run_round(cfg, 0)
    gw.publish(snapshot)
    return gw, snapshot


def wide_lossy_gateway():
    """A gateway holding round 0 of the 1200-node bench config: large responses."""
    wide = Path(__file__).resolve().parent.parent / "bench" / "configs" / "wide-lossy.cfg"
    cfg = parse_config(wide.read_text(encoding="utf-8")).sim
    gw = Gateway(cfg.topology)
    gw.publish(run_round(cfg, 0)[0])
    return gw


class TestServer:
    def test_session_survives_garbage(self):
        gw, _ = live_gateway()
        with serve(gw, port=0) as server:
            c = Client(server.port)
            try:
                assert c.ask("PING") == ["PONG"]
                assert c.ask("what is this") == ["ERR BAD_REQUEST"]
                assert c.ask("NODE nowhere") == ["ERR UNKNOWN_NODE"]
                # same session still answers real queries
                lines = c.ask("SNAPSHOT")
                assert lines[0] == "BEGIN 0 6" and lines[-1] == "END"
            finally:
                c.close()

    def test_many_clients_same_bytes(self):
        gw, snapshot = live_gateway()
        expected = ["BEGIN 0 6"] + [record_line("0,0,", r) for r in readings(snapshot)] + ["END"]
        failures = []

        def worker():
            c = Client(port)
            try:
                for _ in range(25):
                    if c.ask("SNAPSHOT") != expected:
                        failures.append("mismatch")
            finally:
                c.close()

        with serve(gw, port=0) as server:
            port = server.port
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not failures

    def test_responses_never_mix_rounds(self):
        """Concurrent publishing: every envelope is internally one round."""
        cfg = make_config(gas=True, rounds=50)
        gw = Gateway(desk_topology())
        gw.publish(run_round(cfg, 0)[0])
        stop = threading.Event()
        torn = []

        def reader(port):
            c = Client(port)
            try:
                while not stop.is_set():
                    lines = c.ask("SNAPSHOT")
                    declared = int(lines[0].split()[1])
                    rounds = {parse_record(l)[0] for l in lines[1:-1]}
                    if rounds != {declared}:
                        torn.append(lines)
            finally:
                c.close()

        with serve(gw, port=0) as server:
            threads = [threading.Thread(target=reader, args=(server.port,))
                       for _ in range(3)]
            for t in threads:
                t.start()
            for r in range(1, 50):
                gw.publish(run_round(cfg, r)[0])
                time.sleep(0.001)
            stop.set()
            for t in threads:
                t.join()
        assert torn == []

    def test_bind_failure(self):
        gw, _ = live_gateway()
        with serve(gw, port=0) as server:
            with pytest.raises(GatewayError, match="BIND_FAILURE"):
                serve(gw, port=server.port)

    @pytest.mark.parametrize("port", [70000, -1])
    def test_out_of_range_port_is_a_bind_failure(self, port):
        """socket.bind raises OverflowError, not OSError, for a port outside 0-65535."""
        gw, _ = live_gateway()
        threads = threading.active_count()
        with pytest.raises(GatewayError, match=f"^BIND_FAILURE: cannot bind 127.0.0.1:{port}: "):
            serve(gw, port=port)
        assert threading.active_count() == threads

    def test_close_ends_open_sessions(self):
        """close() shuts every open session down: each client then reads EOF,
        and every thread serve started has ended."""
        gw, _ = live_gateway()
        threads = threading.active_count()
        server = serve(gw, port=0)
        clients = [Client(server.port) for _ in range(2)]
        try:
            for c in clients:
                assert c.ask("PING") == ["PONG"]
            server.close()
            for c in clients:
                assert c.rfile.readline() == ""
        finally:
            server.close()
            for c in clients:
                c.close()
        assert threading.active_count() == threads

    def test_over_long_line_closes_only_its_session(self):
        gw, _ = live_gateway()
        with serve(gw, port=0) as server:
            flood = socket.create_connection(("127.0.0.1", server.port), timeout=5)
            c = Client(server.port)
            try:
                flood.sendall(b"P" * 65536)  # no newline
                reply = b""
                while not reply.endswith(b"\n"):
                    chunk = flood.recv(4096)
                    assert chunk, reply
                    reply += chunk
                assert reply == b"ERR BAD_REQUEST\n"
                try:
                    assert flood.recv(1) == b""  # the server closed the session
                except ConnectionResetError:
                    pass  # closed with the rest of the flood unread
                assert c.ask("PING") == ["PONG"]
            finally:
                flood.close()
                c.close()

    def test_line_at_the_limit_is_a_request(self):
        gw, _ = live_gateway()
        with serve(gw, port=0) as server:
            c = Client(server.port)
            try:
                padded = "PING" + " " * (MAX_REQUEST_BYTES - len("PING") - 1)
                assert c.ask(padded) == ["PONG"]
                assert c.ask("PING") == ["PONG"]
            finally:
                c.close()

    def test_client_reset_mid_response_ends_only_its_session(self, capsys):
        """A client that resets while its responses are written leaves no traceback."""
        with serve(wide_lossy_gateway(), port=0) as server:
            reset = socket.create_connection(("127.0.0.1", server.port), timeout=5)
            reset.sendall(b"SNAPSHOT\n" * 200)  # about 10 MB of responses, never read
            assert reset.recv(6) == b"BEGIN "  # the server is writing them
            reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            reset.close()  # with unread data and a zero linger: an RST
            c = Client(server.port)
            try:
                assert c.ask("PING") == ["PONG"]
            finally:
                c.close()
        # closing the server waited for the reset session's thread to end
        assert "Traceback" not in capsys.readouterr().err


class TestBounds:
    """MAX_SESSIONS and the idle timeout, patched small: a handful of sockets."""

    def test_a_connection_past_the_cap_gets_busy(self, monkeypatch):
        monkeypatch.setattr(gateway, "MAX_SESSIONS", 2)
        gw, _ = live_gateway()
        with serve(gw, port=0) as server:
            clients = [Client(server.port) for _ in range(2)]
            try:
                for c in clients:
                    assert c.ask("PING") == ["PONG"]  # both sessions are open
                busy = Client(server.port)  # reads before it sends: no reset can race the line
                try:
                    assert busy.rfile.read() == "ERR BUSY\n"  # the line, then EOF
                finally:
                    busy.close()
                clients.pop().close()
                # the closed session's thread ends a moment later; until then one is refused
                deadline = time.monotonic() + 5
                while True:
                    c = Client(server.port)
                    try:
                        reply = c.ask("PING")
                    except OSError:  # refused after it sent: the close may reset
                        reply = ["ERR BUSY"]
                    finally:
                        c.close()
                    if reply == ["PONG"] or time.monotonic() > deadline:
                        break
                    time.sleep(0.01)
                assert reply == ["PONG"]
            finally:
                for c in clients:
                    c.close()

    def test_a_silent_session_times_out(self, monkeypatch):
        """A silent client reads EOF; one that asks every 0.05 s keeps its session."""
        assert gateway._Handler.timeout == gateway.IDLE_TIMEOUT_S  # what the patch replaces
        monkeypatch.setattr(gateway._Handler, "timeout", 0.2)
        gw, _ = live_gateway()
        with serve(gw, port=0) as server:
            silent, chatty = Client(server.port), Client(server.port)
            try:
                started = time.monotonic()
                while time.monotonic() - started < 0.5:
                    assert chatty.ask("PING") == ["PONG"]
                    time.sleep(0.05)
                assert silent.rfile.readline() == ""
                assert chatty.ask("PING") == ["PONG"]
            finally:
                silent.close()
                chatty.close()

    def test_a_stalled_reader_times_out(self, monkeypatch):
        """A client that asks for far more than it reads ends its session: its
        thread goes, and close() returns."""
        monkeypatch.setattr(gateway._Handler, "timeout", 0.2)
        gw = wide_lossy_gateway()
        threads = threading.active_count()
        server = serve(gw, port=0)
        stalled = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            stalled.sendall(b"SNAPSHOT\n" * 200)  # about 10 MB of responses
            assert stalled.recv(6) == b"BEGIN "  # its session thread is writing them
            deadline = time.monotonic() + 5
            while threading.active_count() > threads + 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert threading.active_count() == threads + 1  # the accepting thread alone
        finally:
            server.close()
            stalled.close()
        assert threading.active_count() == threads
