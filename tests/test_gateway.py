"""Gateway: alert edge semantics, the request grammar, and live socket sessions."""

import random
import socket
import threading
import time

import pytest

from helpers import (
    GAS_CHANNELS,
    DESK_NODES,
    brute_force_alerts,
    make_config,
    desk_topology,
    random_rules,
    random_snapshot,
)
from wsnmon import basestation, gateway
from wsnmon.basestation import parse_record, record_line
from wsnmon.environment import Channel
from wsnmon.errors import GatewayError
from wsnmon.gateway import (
    Alert,
    AlertRule,
    Comparator,
    Gateway,
    MAX_REQUEST_BYTES,
    Severity,
    alert_line,
    evaluate_alerts,
    serve,
)
from wsnmon.netsim import run_round
from wsnmon.records import Reading, ReadingStatus, Snapshot

CO_RULE = AlertRule("co_high", Channel.CO_PPM, Comparator.GREATER, 50.0, Severity.WARN)


def co_snapshot(round_index, co_by_node):
    """Snapshot where every node carries a CO sensor; None means a NULL round."""
    readings = []
    for node in DESK_NODES:
        value = co_by_node.get(node, 0.0)
        t = round_index * 1000
        if value is None:
            values = dict.fromkeys((Channel.TEMP_C, Channel.LIGHT_RAW, Channel.CO_PPM))
            readings.append(Reading(node, round_index, t, values, ReadingStatus.NULL))
        else:
            values = {Channel.TEMP_C: 25.0, Channel.LIGHT_RAW: 512.0,
                      Channel.CO_PPM: float(value)}
            readings.append(Reading(node, round_index, t, values, ReadingStatus.OK))
    return Snapshot(round=round_index, time_ms=round_index * 1000, readings=tuple(readings))


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
        readings = tuple(
            Reading(n, 0, 0, {Channel.TEMP_C: 25.0, Channel.LIGHT_RAW: 512.0,
                              Channel.O2_PCT: 18.0}, ReadingStatus.OK)
            for n in DESK_NODES
        )
        _, fired = evaluate_alerts([rule], Snapshot(0, 0, readings), {})
        assert len(fired) == len(DESK_NODES)
        assert all(a.severity is Severity.DANGER for a in fired)

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
        with pytest.raises(GatewayError, match="INVALID_RULE"):
            AlertRule("r", Channel.CO_PPM, Comparator.GREATER, float("nan"), Severity.WARN)


class TestHandleRequest:
    def make_gateway(self, published=True):
        gw = Gateway(desk_topology(), rules=(CO_RULE,))
        if published:
            gw.publish(co_snapshot(0, {"N1": 60, "2.2": 60}))
        return gw

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
            rec = parse_record(line)
            assert rec.node == DESK_NODES[i]
            assert rec.round == 0

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
        assert [parse_record(l).node for l in lines[1:-1]] == ["N1", "1.1", "1.2"]

    def test_cluster_of_leaflet(self):
        gw = self.make_gateway()
        assert gw.handle_request("CLUSTER 1.1\n") == "ERR NOT_A_CLUSTER_HEAD\n"

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
            gw.publish(Snapshot(s.round, s.time_ms, s.readings[::-1]))

    def test_requests_never_render(self, monkeypatch):
        """Records are rendered once per round, at publish; a request looks one up."""
        calls = {"record_line": 0, "format_value": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(basestation, "record_line", counting("record_line", record_line))
        monkeypatch.setattr(gateway, "format_value",
                            counting("format_value", gateway.format_value))
        cfg = make_config(gas=True, rounds=4)
        rule = AlertRule("co_any", Channel.CO_PPM, Comparator.GREATER, 1.0, Severity.WARN)
        gw = Gateway(desk_topology(), rules=(rule,))
        for r in range(4):
            gw.publish(run_round(cfg, r)[0])
        published = dict(calls)
        assert published["record_line"] == 4 * len(DESK_NODES)
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
        expected = ["BEGIN 0 6"] + [record_line(r) for r in snapshot.readings] + ["END"]
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
                    rounds = {parse_record(l).round for l in lines[1:-1]}
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
