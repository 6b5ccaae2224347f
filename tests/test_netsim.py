"""Round simulation: polling order, loss cascades, determinism, counting."""

import math

import pytest

from helpers import (
    DESK_CLUSTERS,
    default_field,
    enumerate_round_messages,
    make_config,
    nulled_by_link,
)
from wsnmon.basestation import serialize_snapshots
from wsnmon.environment import (
    Channel, ChannelModel, Drift, EnvField, SensorSpec, default_spec, truth_at,
)
from wsnmon.errors import SimError
from wsnmon.netsim import (
    EventKind,
    LinkOutage,
    SimConfig,
    SimSummary,
    run_round,
    run_simulation,
    trace_line,
)
from wsnmon.records import ReadingStatus


def collect(cfg):
    snaps = []
    summary = run_simulation(cfg, snaps.append)
    return snaps, summary


def collect_with_events(cfg, events):
    snaps = []
    summary = run_simulation(cfg, snaps.append, on_event=events.append)
    return snaps, summary


def message_events(events):
    return [ev for ev in events if ev.kind is not EventKind.LINK_DROP]


class TestRunRound:
    def test_failure_free_desk_round(self):
        """All six nodes report OK and the wire carries exactly 12 messages."""
        cfg = make_config()
        snapshot, events = run_round(cfg, 0)
        assert snapshot.nodes() == ("N1", "1.1", "1.2", "N2", "2.1", "2.2")
        assert all(r.status is ReadingStatus.OK for r in snapshot.readings)
        sent = message_events(events)
        assert len(sent) == 12
        assert len(sent) == len(enumerate_round_messages(DESK_CLUSTERS))
        assert {(e.src, e.dst) for e in sent} == set(enumerate_round_messages(DESK_CLUSTERS))

    def test_events_are_time_ordered(self):
        cfg = make_config()
        _, events = run_round(cfg, 3)
        times = [e.time_ms for e in events]
        assert times == sorted(times)
        assert times[0] == 3 * cfg.round_period_ms
        assert times[-1] == 3 * cfg.round_period_ms + 3 * cfg.hop_latency_ms

    def test_trace_line_format(self):
        _, events = run_round(make_config(), 0)
        assert trace_line(events[0]) == "0 INTERRUPT_CALL BS N1"

    def test_leaf_link_override_nulls_only_that_leaf(self):
        cfg = make_config(outages=(LinkOutage("N1", "1.1", 0, 0),))
        snapshot, _ = run_round(cfg, 0)
        statuses = {r.node: r.status for r in snapshot.readings}
        assert statuses["1.1"] is ReadingStatus.NULL
        assert all(s is ReadingStatus.OK for n, s in statuses.items() if n != "1.1")

    def test_head_link_override_nulls_branch(self):
        cfg = make_config(outages=(LinkOutage("BS", "N2", 0, 0),))
        snapshot, events = run_round(cfg, 0)
        statuses = {r.node: r.status for r in snapshot.readings}
        nulled = {n for n, s in statuses.items() if s is ReadingStatus.NULL}
        assert nulled == {"N2", "2.1", "2.2"}
        # a dead branch is silent: no polls below N2 were even attempted
        assert not any(ev.src == "N2" for ev in message_events(events))

    def test_override_matches_reachability_oracle(self):
        """Nulled node set equals the dependency closure over the tree."""
        links = [("BS", "N1"), ("BS", "N2"), ("N1", "1.1"), ("N2", "2.2"),
                 ("1.2", "N1"), ("N2", "BS")]
        for link in links:
            snapshot, _ = run_round(make_config(outages=(LinkOutage(*link, 0, 0),)), 0)
            nulled = {r.node for r in snapshot.readings if r.status is ReadingStatus.NULL}
            assert nulled == nulled_by_link(DESK_CLUSTERS, link), link

    def test_null_readings_present_not_absent(self):
        cfg = make_config(failure_prob=1.0)
        snapshot, events = run_round(cfg, 0)
        assert snapshot.nodes() == ("N1", "1.1", "1.2", "N2", "2.1", "2.2")
        assert all(r.status is ReadingStatus.NULL for r in snapshot.readings)
        # every attempted message dropped: the two head polls
        drops = [ev for ev in events if ev.kind is EventKind.LINK_DROP]
        assert len(drops) == len(message_events(events)) == 2

    def test_lossy_rounds_keep_snapshot_complete(self):
        cfg = make_config(failure_prob=0.5, seed=99)
        for round_index in range(20):
            snapshot, _ = run_round(cfg, round_index)
            assert snapshot.nodes() == cfg.topology.sensing_nodes()

    def test_round_out_of_range(self):
        cfg = make_config(rounds=10)
        with pytest.raises(SimError, match="ROUND_OUT_OF_RANGE"):
            run_round(cfg, 10)

    def test_ok_temperature_tracks_truth(self):
        """Delivered temperatures stay within the sensing error bound."""
        field = EnvField(
            channels={Channel.TEMP_C: ChannelModel(25.0, Drift.walk(0.2)),
                      Channel.LIGHT_RAW: ChannelModel(512.0)},
            seed=5,
        )
        cfg = make_config(field=field, seed=5, rounds=50)
        spec = default_spec(Channel.TEMP_C)
        for round_index in range(50):
            snapshot, _ = run_round(cfg, round_index)
            truth = truth_at(field, Channel.TEMP_C, round_index)
            for r in snapshot.readings:
                assert abs(r.values[Channel.TEMP_C] - truth) <= spec.accuracy + spec.quantum / 2


class TestRunSimulation:
    def test_desk_summary(self):
        """100 failure-free rounds of the 12-message protocol."""
        snaps, summary = collect(make_config(rounds=100))
        assert summary == SimSummary(100, 1200, 0)
        assert [s.round for s in snaps] == list(range(100))
        assert all(s.time_ms == s.round * 1000 for s in snaps)

    def test_single_head_summary(self):
        snaps, summary = collect(make_config(clusters=[("N1", [])], rounds=1))
        assert summary == SimSummary(1, 2, 0)

    def test_certain_failure(self):
        snaps, summary = collect(make_config(failure_prob=1.0, rounds=100))
        assert all(r.status is ReadingStatus.NULL for s in snaps for r in s.readings)
        assert summary.messages_dropped == summary.messages_sent

    def test_scripted_outage_covers_inclusive_range(self):
        cfg = make_config(rounds=40, outages=(LinkOutage("N1", "1.1", 10, 20),))
        snaps, _ = collect(cfg)
        nulled_rounds = [s.round for s in snaps
                         if s.reading_for("1.1").status is ReadingStatus.NULL]
        assert nulled_rounds == list(range(10, 21))

    def test_sink_failure_carries_round_index(self):
        def sink(s):
            if s.round == 3:
                raise OSError("disk full")

        with pytest.raises(SimError, match="SINK_FAILURE") as exc:
            run_simulation(make_config(rounds=10), sink)
        assert exc.value.round_index == 3

    def test_event_callback_sees_all_events(self):
        events = []
        _, summary = collect_with_events(make_config(rounds=5), events)
        assert len(events) == summary.messages_sent + summary.messages_dropped
        assert len(events) == 5 * 12

    def test_drop_fraction_tracks_probability(self):
        """Each attempted message is lost with the radio's probability: the
        observed drop fraction stays within 4 sigma of a binomial draw."""
        p = 0.5
        _, summary = collect(make_config(failure_prob=p, rounds=500, seed=42))
        n = summary.messages_sent
        assert n > 1000
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(summary.messages_dropped / n - p) <= 4 * sigma


class TestDeterminism:
    def test_identical_seeds_reproduce_run_exactly(self):
        cfg_a = make_config(failure_prob=0.3, rounds=40, seed=42, gas=True)
        cfg_b = make_config(failure_prob=0.3, rounds=40, seed=42, gas=True)
        events_a, events_b = [], []
        snaps_a, _ = collect_with_events(cfg_a, events_a)
        snaps_b, _ = collect_with_events(cfg_b, events_b)
        nodes = cfg_a.topology.sensing_nodes()
        assert serialize_snapshots(nodes, snaps_a) == serialize_snapshots(nodes, snaps_b)
        assert [trace_line(e) for e in events_a] == [trace_line(e) for e in events_b]

    def test_different_seed_changes_drops(self):
        a = collect(make_config(failure_prob=0.3, rounds=40, seed=1))[1]
        b = collect(make_config(failure_prob=0.3, rounds=40, seed=2))[1]
        assert a.messages_dropped != b.messages_dropped

    def test_run_round_standalone_matches_full_run(self):
        cfg = make_config(failure_prob=0.4, rounds=30, seed=7)
        snaps, _ = collect(cfg)
        again, _ = run_round(cfg, 17)
        assert snaps[17] == again
        # a round inside a scripted outage forces the same links down on its own
        cfg = make_config(failure_prob=0.1, rounds=30, seed=7, outages=(
            LinkOutage("BS", "N2", 10, 20), LinkOutage("1.1", "N1", 0, 5)))
        snaps, _ = collect(cfg)
        assert [run_round(cfg, r)[0] for r in range(30)] == snaps

    def test_run_round_in_reverse_matches_full_run(self):
        # the walk cache must answer a round it has already passed
        def walking_config():
            field = default_field(
                seed=11, temp_c=ChannelModel(25.0, Drift.walk(0.2)),
                light_raw=ChannelModel(512.0, Drift.walk(8.0)),
                ch4_ppm=ChannelModel(1000.0, Drift.walk(40.0)))
            return make_config(failure_prob=0.3, rounds=25, seed=11, field=field)

        snaps, _ = collect(walking_config())
        fresh = walking_config()
        assert [run_round(fresh, r)[0] for r in reversed(range(25))] == snaps[::-1]


class TestConfigValidation:
    def test_invariants(self):
        with pytest.raises(SimError, match="INVALID_CONFIG"):
            make_config(rounds=0)
        with pytest.raises(SimError, match="INVALID_CONFIG"):
            make_config(round_period_ms=0)
        with pytest.raises(SimError, match="INVALID_CONFIG"):
            make_config(round_period_ms=30, hop_latency_ms=10)

    def test_temperature_and_light_are_required(self):
        field = EnvField(channels={Channel.TEMP_C: ChannelModel(25.0)})
        with pytest.raises(SimError, match="INVALID_CONFIG"):
            make_config(field=field)

    def test_count_channels_cannot_go_negative(self):
        # the log stores light and gas values as unsigned integers
        base = make_config()
        light = SensorSpec(Channel.LIGHT_RAW, 8.0, 1.0, -10.0, 100.0)
        sensors = tuple(light if s.channel is Channel.LIGHT_RAW else s for s in base.sensors)
        with pytest.raises(SimError, match="min >= 0"):
            SimConfig(topology=base.topology, field=base.field, sensors=sensors, rounds=1)

    def test_outage_must_reference_a_link(self):
        with pytest.raises(SimError, match="NOT_A_LINK"):
            make_config(outages=(LinkOutage("1.1", "2.1", 0, 5),))

    def test_outage_round_order(self):
        with pytest.raises(SimError, match="INVALID_CONFIG"):
            LinkOutage("BS", "N1", 5, 4)
