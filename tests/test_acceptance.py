"""Acceptance suite: one test per release criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest report.
"""

import random
import socket
import sys
import threading
import time
from contextlib import contextmanager

from helpers import (
    GAS_CHANNELS,
    DESK_CLUSTERS,
    brute_force_alerts,
    build_tree,
    make_config,
    nulled_by_link,
    desk_topology,
    random_rules,
    random_snapshot,
    readings,
    round_message_count,
    status_of,
    trace_events,
)
from wsnmon.alerts import evaluate_alerts
from wsnmon.basestation import (
    PartialRound,
    TelemetryWriter,
    parse_record,
    parse_telemetry,
    serialize_snapshots,
)
from wsnmon.cli import main
from wsnmon.environment import Channel, ChannelModel, EnvField, truth_at
from wsnmon.gateway import Gateway, serve
from wsnmon.netsim import (
    LinkOutage,
    RadioSpec,
    run_round,
    run_simulation,
)


@contextmanager
def criterion(number, title):
    """Frame one acceptance criterion; always emits exactly one verdict line."""
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"[criterion {number}] {title}: FAIL\n")
        raise
    sys.__stdout__.write(f"[criterion {number}] {title}: PASS\n")


class TestAcceptance:
    def test_c1_reference_configuration_fidelity(self, tmp_path):
        """6 nodes, no failures, 100 rounds: 600 OK records in under a second."""
        with criterion(1, "reference-configuration fidelity"):
            cfg = make_config(rounds=100)
            out = tmp_path / "telemetry.log"
            snapshots = []
            started = time.perf_counter()
            with TelemetryWriter(str(out), cfg.topology.sensing_nodes()) as writer:
                def sink(s):
                    snapshots.append(s)
                    writer.append(s)

                summary = run_simulation(cfg, sink)
            elapsed = time.perf_counter() - started

            assert summary == (1200, 0)  # 12 messages a round, none lost
            assert len(snapshots) == 100
            for s in snapshots:
                assert len(readings(s)) == 6
                assert all(status_of(r.values) == "OK" for r in readings(s))
            parsed = parse_telemetry(out.read_bytes())
            assert sum(len(readings(s)) for s in parsed.snapshots) == 600
            assert parsed.partial is None
            assert elapsed < 1.0, f"took {elapsed:.3f}s"

    def test_c2_message_count_oracle(self):
        """Failure-free events per round equal 2C+2L, the reference config and random."""
        with criterion(2, "message-count oracle"):
            def sent_events(clusters):
                cfg = make_config(clusters=clusters, rounds=1)
                _, text = run_round(cfg, 0)
                return [e for e in trace_events(text) if e.kind != "LINK_DROP"]

            reference = sent_events(DESK_CLUSTERS)
            assert len(reference) == 12
            assert len(reference) == round_message_count(desk_topology())

            rng = random.Random(202)
            for trial in range(20):
                heads = rng.randrange(1, 6)
                clusters = []
                for i in range(heads):
                    leaves = [f"{i + 1}.{j + 1}" for j in range(rng.randrange(0, 6))]
                    clusters.append((f"H{i + 1}", leaves))
                total_leaves = sum(len(l) for _, l in clusters)
                events = sent_events(clusters)
                topo = build_tree(clusters, RadioSpec(30.0, 0.0))
                assert len(events) == round_message_count(topo)
                assert len(events) == 2 * heads + 2 * total_leaves
                # independent enumeration of the expected stream
                expected = []
                for head, leaves in clusters:
                    expected.append(("BS", head))
                    expected.extend((head, leaf) for leaf in leaves)
                    expected.extend((leaf, head) for leaf in leaves)
                    expected.append((head, "BS"))
                assert sorted((e.src, e.dst) for e in events) == sorted(expected)

    def test_c3_null_on_failure(self):
        """Scripted outages null exactly the dependent nodes, exactly those rounds."""
        with criterion(3, "null-on-failure window"):
            cases = [(("N1", "1.1"), {"1.1"}), (("BS", "N2"), {"N2", "2.1", "2.2"})]
            for link, expected_nulls in cases:
                assert nulled_by_link(DESK_CLUSTERS, link) == expected_nulls
                cfg = make_config(
                    rounds=40, outages=(LinkOutage(link[0], link[1], 10, 20),)
                )
                snaps = []
                run_simulation(cfg, snaps.append)
                for s in snaps:
                    nulled = {r.node for r in readings(s)
                              if status_of(r.values) == "NULL"}
                    if 10 <= s.round <= 20:
                        assert nulled == expected_nulls, (link, s.round)
                    else:
                        assert nulled == set(), (link, s.round)

    def test_c4_sensor_bounds(self):
        """10,000+ samples: temperature within accuracy+quantum/2, light in range."""
        with criterion(4, "sensor bounds"):
            field = EnvField(
                channels={
                    Channel.TEMP_C: ChannelModel(25.0, sigma=0.2),
                    Channel.LIGHT_RAW: ChannelModel(60000.0, sigma=500.0),
                },
                seed=11,
            )
            cfg = make_config(field=field, seed=11, rounds=900)
            samples = 0
            violations = 0
            snaps = []
            run_simulation(cfg, snaps.append)
            for s in snaps:
                truth = truth_at(field, Channel.TEMP_C, s.round)
                for r in readings(s):
                    assert status_of(r.values) == "OK"
                    samples += 2
                    if abs(r.values[Channel.TEMP_C] - truth) > 0.5 + 0.0625 / 2:
                        violations += 1
                    if not 0 <= r.values[Channel.LIGHT_RAW] <= 65535:
                        violations += 1
            assert samples >= 10_000
            assert violations == 0

    def test_c5_determinism(self, tmp_path, capsys):
        """Same config, same seed: byte-identical telemetry and event traces."""
        with criterion(5, "determinism"):
            cfg_text = (
                "radio 30 0.3\n"
                "cluster N1 1.1 1.2\n"
                "cluster N2 2.1 2.2\n"
                "rounds 50\nseed 7\n"
                "env temp_c 25 walk 0.5\n"
                "env co_ppm 10 walk 2\n"
            )
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(cfg_text, encoding="utf-8")
            outputs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{tag}.log"
                trace = tmp_path / f"{tag}.trace"
                rc = main(["run", str(cfg_path), "--out", str(out),
                           "--trace", str(trace)])
                assert rc == 0
                rc = main(["plotdata", str(out), "--node", "2.1",
                           "--channel", "co_ppm"])
                assert rc == 0
                outputs.append(
                    (out.read_bytes(), trace.read_bytes(), capsys.readouterr().out)
                )
            assert outputs[0] == outputs[1]

    def test_c6_telemetry_round_trip(self):
        """50 randomized logs: parse(serialize(x)) == x; truncation is reported."""
        with criterion(6, "telemetry round trip"):
            gas_choices = [(), (Channel.CH4_PPM,), GAS_CHANNELS,
                           (Channel.CO_PPM, Channel.O2_PCT)]
            for trial in range(50):
                rng = random.Random(3000 + trial)
                gases = gas_choices[trial % len(gas_choices)]
                rounds = rng.randrange(1, 31)
                snaps = [random_snapshot(rng, i, gases=gases) for i in range(rounds)]
                nodes = snaps[0].nodes
                text = serialize_snapshots(nodes, snaps)
                parsed = parse_telemetry(text)
                assert parsed.nodes == nodes
                assert list(parsed.snapshots) == snaps
                assert parsed.partial is None

                lines = text.splitlines()
                body = rng.randrange(0, rounds * 6)
                truncated = "\n".join(lines[: 1 + body]) + "\n"
                complete, rem = divmod(body, 6)
                parsed = parse_telemetry(truncated)
                assert list(parsed.snapshots) == snaps[:complete]
                if rem:
                    assert parsed.partial == PartialRound(complete, rem)
                else:
                    assert parsed.partial is None

    def test_c7_multi_client_consistency(self):
        """8 clients, 100 SNAPSHOTs each, against a live publisher."""
        with criterion(7, "multi-client consistency"):
            cfg = make_config(gas=True, rounds=150, failure_prob=0.1, seed=3)
            gateway = Gateway(desk_topology())
            gateway.publish(run_round(cfg, 0)[0])
            stop = threading.Event()
            errors = []
            responses = []
            lock = threading.Lock()

            def publisher():
                for r in range(1, cfg.rounds):
                    if stop.is_set():
                        return
                    gateway.publish(run_round(cfg, r)[0])
                    time.sleep(0.001)

            def client(port):
                try:
                    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                        rfile = sock.makefile("r", encoding="utf-8", newline="\n")
                        for _ in range(100):
                            sock.sendall(b"SNAPSHOT\n")
                            first = rfile.readline().rstrip("\n")
                            begin, round_text, count_text = first.split()
                            assert begin == "BEGIN"
                            body = [rfile.readline().rstrip("\n")
                                    for _ in range(int(count_text) + 1)]
                            assert body[-1] == "END"
                            assert len(body) == 7
                            for line in body[:-1]:
                                assert parse_record(line)[0] == int(round_text)
                            with lock:
                                responses.append((int(round_text), "\n".join([first] + body)))
                except Exception as e:  # noqa: BLE001 - collected for the assert
                    errors.append(repr(e))

            with serve(gateway, port=0) as server:
                pub = threading.Thread(target=publisher)
                pub.start()
                clients = [threading.Thread(target=client, args=(server.port,))
                           for _ in range(8)]
                for t in clients:
                    t.start()
                for t in clients:
                    t.join()
                stop.set()
                pub.join()

            assert errors == []
            assert len(responses) == 800
            by_round = {}
            for round_index, text in responses:
                assert by_round.setdefault(round_index, text) == text

    def test_c8_alert_oracle_equivalence(self):
        """Incremental alert replay equals the brute-force rescan, 20 rule sets."""
        with criterion(8, "alert oracle equivalence"):
            for trial in range(20):
                rng = random.Random(7000 + trial)
                rules = random_rules(rng, rng.randrange(1, 6))
                snaps = [random_snapshot(rng, i, gases=GAS_CHANNELS)
                         for i in range(200)]
                state = {}
                fired = []
                for s in snaps:
                    state, new = evaluate_alerts(rules, s, state)
                    fired.extend((a.rule_id, a.node, a.round, a.value) for a in new)
                assert sorted(fired) == brute_force_alerts(rules, snaps)

    def test_c9_plot_data_dropout_shape(self, tmp_path, capsys):
        """Gap rows appear exactly at the scripted outage rounds."""
        with criterion(9, "plot-data dropout shape"):
            cfg_text = (
                "radio 30 0\n"
                "cluster N1 1.1 1.2\n"
                "cluster N2 2.1 2.2\n"
                "rounds 30\n"
                "fail N1 1.1 10 20\n"
            )
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(cfg_text, encoding="utf-8")
            out = tmp_path / "telemetry.log"
            assert main(["run", str(cfg_path), "--out", str(out)]) == 0

            assert main(["plotdata", str(out), "--node", "1.1",
                         "--channel", "temp_c"]) == 0
            rows = capsys.readouterr().out.splitlines()
            assert len(rows) == 30
            gaps = [int(r[:-1]) for r in rows if r.endswith(",")]
            assert gaps == list(range(10, 21))

            assert main(["plotdata", str(out), "--node", "N1",
                         "--channel", "temp_c"]) == 0
            rows = capsys.readouterr().out.splitlines()
            assert [r for r in rows if r.endswith(",")] == []
