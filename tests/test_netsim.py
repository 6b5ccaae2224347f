"""Round simulation: polling order, loss cascades, determinism, counting."""

import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    DESK_CLUSTERS,
    GAS_CHANNELS,
    Event,
    default_field,
    empty_value_caches,
    enumerate_round_messages,
    make_config,
    nulled_by_link,
    readings,
    reference_block,
    reference_round,
    status_of,
    trace_events,
)
from wsnmon.basestation import (_VALUE_CACHE_MAX, format_value, serialize_snapshots,
                                snapshot_block)
from wsnmon.config import parse_config
from wsnmon.environment import (
    DEFAULT_SPECS, Channel, ChannelModel, EnvField, sense, truth_at,
)
from wsnmon.errors import EnvError, SimError, TopologyError
from wsnmon.netsim import (
    _HALF_EVEN,
    LinkOutage,
    SimSummary,
    _round,
    _sense_column,
    run_round,
    run_simulation,
    trace_line,
)


# the benchmark's wide-lossy tree: 1200 nodes, 30% loss
WIDE_LOSSY = Path(__file__).resolve().parent.parent / "bench" / "configs" / "wide-lossy.cfg"


def traced_extra_at_round_1() -> tuple[int, int]:
    """How many bytes more tracemalloc counts as held when round 1 of the
    wide-lossy tree reaches the sink of a traced ``run_simulation`` than of an
    untraced one, and the length of round 1's trace text. Each measured run
    starts from emptied value caches, so a cache that fills up cannot be
    emptied inside one of them and not the other."""
    cfg = parse_config(WIDE_LOSSY.read_text()).sim
    run_simulation(cfg, lambda snapshot: None)  # warms what a run keeps besides its value caches

    def held_at_round_1(on_trace):
        held = []

        def sink(snapshot):
            if snapshot.round == 1:
                held.append(tracemalloc.get_traced_memory()[0])
                raise RuntimeError("measured")  # ends the run as a SINK_FAILURE

        with empty_value_caches():
            tracemalloc.start()
            try:
                with pytest.raises(SimError, match="SINK_FAILURE"):
                    run_simulation(cfg, sink, on_trace=on_trace)
            finally:
                tracemalloc.stop()
        return held[0]

    lengths = []
    traced = held_at_round_1(lambda text: lengths.append(len(text)))
    return traced - held_at_round_1(None), lengths[1]


def collect(cfg):
    snaps = []
    summary = run_simulation(cfg, snaps.append)
    return snaps, summary


def collect_with_events(cfg, events):
    """A run's snapshots and summary; ``events`` gets its events as ``Event``s."""
    snaps = []
    summary = run_simulation(cfg, snaps.append,
                             on_event=lambda ev: events.append(Event._make(ev)))
    return snaps, summary


def round_events(cfg, round_index):
    """``run_round``'s snapshot, and the events of its trace text."""
    snapshot, text = run_round(cfg, round_index)
    return snapshot, trace_events(text)


def message_events(events):
    return [ev for ev in events if ev.kind != "LINK_DROP"]


class TestRunRound:
    def test_failure_free_desk_round(self):
        """All six nodes report OK and the wire carries exactly 12 messages."""
        cfg = make_config()
        snapshot, events = round_events(cfg, 0)
        assert snapshot.nodes == ("N1", "1.1", "1.2", "N2", "2.1", "2.2")
        assert all(status_of(r.values) == "OK" for r in readings(snapshot))
        sent = message_events(events)
        assert len(sent) == 12
        assert len(sent) == len(enumerate_round_messages(DESK_CLUSTERS))
        assert {(e.src, e.dst) for e in sent} == set(enumerate_round_messages(DESK_CLUSTERS))

    def test_events_are_time_ordered(self):
        cfg = make_config()
        _, events = round_events(cfg, 3)
        times = [e.time_ms for e in events]
        assert times == sorted(times)
        assert times[0] == 3 * cfg.round_period_ms
        assert times[-1] == 3 * cfg.round_period_ms + 3 * cfg.hop_latency_ms

    def test_trace_line_format(self):
        _, events = round_events(make_config(), 0)
        assert trace_line(events[0]) == "0 INTERRUPT_CALL BS N1"
        assert trace_line((10, "LINK_DROP", "N1", "1.2")) == "10 LINK_DROP N1 1.2"

    def test_hop_zero_trace_keeps_emission_order(self):
        """With hop_ms 0 every event of a round has one time: the trace text
        keeps emission order (the head polls, then cluster by cluster), and
        each LINK_DROP follows the message it marks."""
        _, text = run_round(make_config(failure_prob=0.3, rounds=1, seed=3,
                                        hop_latency_ms=0), 0)
        events = trace_events(text)
        assert text.splitlines() == [
            "0 INTERRUPT_CALL BS N1",
            "0 INTERRUPT_CALL BS N2",
            "0 INTERRUPT_CALL N1 1.1",
            "0 INTERRUPT_CALL N1 1.2",
            "0 DATA_MSG 1.1 N1",
            "0 LINK_DROP 1.1 N1",
            "0 DATA_MSG 1.2 N1",
            "0 DATA_MSG N1 BS",
            "0 INTERRUPT_CALL N2 2.1",
            "0 INTERRUPT_CALL N2 2.2",
            "0 LINK_DROP N2 2.2",
            "0 DATA_MSG 2.1 N2",
            "0 DATA_MSG N2 BS",
        ]
        for before, ev in zip(events, events[1:]):
            if ev.kind == "LINK_DROP":
                assert before.kind != "LINK_DROP"
                assert (before.src, before.dst) == (ev.src, ev.dst)

    def test_a_traced_run_holds_no_per_message_table(self):
        """At round 1's sink a traced run of the benchmark's wide-lossy tree
        (1200 nodes, 30% loss) holds less than 3x that round's trace text
        more than an untraced one: the text is rendered from the tree's
        labels, with no text kept per message across rounds."""
        extra, text_length = traced_extra_at_round_1()
        assert extra < 3 * text_length

    def test_no_trace_text_is_held_at_the_sink(self):
        """At round 1's sink a traced run of the benchmark's wide-lossy tree
        holds less than half of that round's trace text more than an untraced
        one: a round's text is released once it is written."""
        extra, text_length = traced_extra_at_round_1()
        assert extra < text_length / 2

    @pytest.mark.parametrize("free", [200, 400, 600, 800])
    def test_a_filling_step_table_does_not_move_the_sink_measure(self, free):
        """With ch4's step table ``free`` steps short of its bound beforehand,
        so that a measured run may fill and empty it, a traced run still
        holds less than half of round 1's trace text more than an untraced
        one: each measured run starts from emptied value caches."""
        with empty_value_caches():
            table = DEFAULT_SPECS[Channel.CH4_PPM]._sensed
            table.update((-1.0 - i, 0.0) for i in range(_VALUE_CACHE_MAX - free))  # no step's key
            extra, text_length = traced_extra_at_round_1()
        assert extra < text_length / 2

    def test_a_round_keeps_no_lost_cells_draws(self):
        """A round of the wide-lossy tree at 90% loss, after three warm-up
        rounds, peaks less than 200 KB above where it began: every noise draw
        is taken, but only the delivered cells' are kept. Keeping one float
        per cell (4800 cells, a 24-byte float and an 8-byte list slot each,
        150 KB) would exceed it."""
        text = WIDE_LOSSY.read_text()
        radio = next(line for line in text.splitlines() if line.startswith("radio "))
        lossy = text.replace(radio, " ".join([*radio.split()[:2], "0.9"]))
        cfg = parse_config(lossy).sim
        for round_index in range(3):  # warms the step tables and the walk
            _round(cfg, round_index)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _round(cfg, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 200 * 1024

    def test_leaf_link_override_nulls_only_that_leaf(self):
        cfg = make_config(outages=(LinkOutage("N1", "1.1", 0, 0),))
        snapshot, _ = run_round(cfg, 0)
        statuses = {r.node: status_of(r.values) for r in readings(snapshot)}
        assert statuses["1.1"] == "NULL"
        assert all(s == "OK" for n, s in statuses.items() if n != "1.1")

    def test_head_link_override_nulls_branch(self):
        cfg = make_config(outages=(LinkOutage("BS", "N2", 0, 0),))
        snapshot, events = round_events(cfg, 0)
        statuses = {r.node: status_of(r.values) for r in readings(snapshot)}
        nulled = {n for n, s in statuses.items() if s == "NULL"}
        assert nulled == {"N2", "2.1", "2.2"}
        # a dead branch is silent: no polls below N2 were even attempted
        assert not any(ev.src == "N2" for ev in message_events(events))

    def test_override_matches_reachability_oracle(self):
        """Nulled node set equals the dependency closure over the tree."""
        links = [("BS", "N1"), ("BS", "N2"), ("N1", "1.1"), ("N2", "2.2"),
                 ("1.2", "N1"), ("N2", "BS")]
        for link in links:
            snapshot, _ = run_round(make_config(outages=(LinkOutage(*link, 0, 0),)), 0)
            nulled = {r.node for r in readings(snapshot) if status_of(r.values) == "NULL"}
            assert nulled == nulled_by_link(DESK_CLUSTERS, link), link

    def test_null_readings_present_not_absent(self):
        cfg = make_config(failure_prob=1.0)
        snapshot, events = round_events(cfg, 0)
        assert snapshot.nodes == ("N1", "1.1", "1.2", "N2", "2.1", "2.2")
        assert all(status_of(r.values) == "NULL" for r in readings(snapshot))
        # every attempted message dropped: the two head polls
        drops = [ev for ev in events if ev.kind == "LINK_DROP"]
        assert len(drops) == len(message_events(events)) == 2

    def test_lossy_rounds_keep_snapshot_complete(self):
        cfg = make_config(failure_prob=0.5, seed=99)
        for round_index in range(20):
            snapshot, _ = run_round(cfg, round_index)
            assert snapshot.nodes == cfg.topology.sensing_nodes()

    def test_round_out_of_range(self):
        cfg = make_config(rounds=10)
        with pytest.raises(SimError, match="ROUND_OUT_OF_RANGE"):
            run_round(cfg, 10)

    def test_ok_temperature_tracks_truth(self):
        """Delivered temperatures stay within the sensing error bound."""
        field = EnvField(
            channels={Channel.TEMP_C: ChannelModel(25.0, sigma=0.2),
                      Channel.LIGHT_RAW: ChannelModel(512.0)},
            seed=5,
        )
        cfg = make_config(field=field, seed=5, rounds=50)
        spec = DEFAULT_SPECS[Channel.TEMP_C]
        for round_index in range(50):
            snapshot, _ = run_round(cfg, round_index)
            truth = truth_at(field, Channel.TEMP_C, round_index)
            for r in readings(snapshot):
                assert abs(r.values[Channel.TEMP_C] - truth) <= spec.accuracy + spec.quantum / 2


def near_bounds(channel):
    """Any finite truth, one near the float range's ends, or one near a bound."""
    spec = DEFAULT_SPECS[channel]
    slack = 2 * (spec.accuracy + spec.quantum)
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.floats(1e300, allow_infinity=False), st.floats(None, -1e300),
                     *[st.floats(b - slack, b + slack) for b in (spec.min_value, spec.max_value)])


class TestSensing:
    @settings(max_examples=300, deadline=None)
    @given(truths=st.tuples(*[near_bounds(ch) for ch in Channel]), seed=st.integers(0, 2**32))
    def test_values_are_sense_of_truth_or_saturate(self, truths, seed):
        """Each value is sense() of the truth; where sense overflows, the nearer bound."""
        field = EnvField({ch: ChannelModel(t) for ch, t in zip(Channel, truths)}, seed=seed)
        cfg = make_config(clusters=[("N1", ["1.1"])], field=field, seed=seed, rounds=1)
        noise = random.Random(f"{seed}/noise/0").random
        for reading in readings(run_round(cfg, 0)[0]):
            for spec, truth in zip(cfg.sensors, truths):
                try:
                    expected = sense(spec, truth, -1.0 + 2.0 * noise())
                except OverflowError:
                    expected = spec.max_value if truth > 0 else spec.min_value
                assert reading.values[spec.channel] == expected


def default_truths(channel):
    """A truth for the channel's default spec: anywhere, near a bound, where
    steps are 2**49..2**50 quanta from the minimum (float ties are common
    there, and 2**50 is where the step table hands over to sense), or not
    finite."""
    spec = DEFAULT_SPECS[channel]
    lo, q = spec.min_value, spec.quantum
    slack = 2 * (spec.accuracy + q)
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(1e300, allow_infinity=False), st.floats(None, -1e300),
        *[st.floats(b - slack, b + slack) for b in (lo, spec.max_value)],
        st.floats(lo + 2.0 ** 49 * q, lo + 2.0 ** 50 * q + slack),
        st.floats(lo - 2.0 ** 50 * q - slack, lo - 2.0 ** 49 * q),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )


class TestSignExactSensing:
    @settings(max_examples=300, deadline=None)
    @given(truths=st.tuples(*map(default_truths, Channel)), seed=st.integers(0, 2**32))
    def test_values_and_texts_are_sense_of_each_draw(self, truths, seed):
        """Every value is sense() of its draw bit for bit (repr tells -0.0 from
        0.0, where == does not), and every record renders it with format_value."""
        field = EnvField({ch: ChannelModel(t) for ch, t in zip(Channel, truths)}, seed=seed)
        cfg = make_config([("N1", ["1.1", "1.2", "1.3", "1.4"]), ("N2", ["2.1", "2.2"])],
                          field=field, rounds=1)
        specs = [DEFAULT_SPECS[ch] for ch in Channel]
        nodes = cfg.topology.sensing_nodes()
        noise = random.Random(f"{seed}/noise/0").random  # node by node, sensor by sensor
        try:
            expected = {node: [sense(s, t, -1.0 + 2.0 * noise()) for s, t in zip(specs, truths)]
                        for node in nodes}
        except EnvError as e:
            with pytest.raises(EnvError) as raised:
                run_round(cfg, 0)
            assert raised.value.code == e.code == "INVALID_TRUTH"
            return
        snapshot, _ = run_round(cfg, 0)
        for r in readings(snapshot):
            assert [repr(r.values[ch]) for ch in Channel] == list(map(repr, expected[r.node]))
        for line, node in zip(snapshot_block(snapshot).splitlines(), nodes):
            assert line.split(",")[3:8] == [format_value(s.channel, v)
                                            for s, v in zip(specs, expected[node])]


class TestFloatRounding:
    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(-(2.0 ** 50 + 2.0 ** 49), 2.0 ** 50 + 2.0 ** 49)
           | st.integers(-(2 ** 50 + 2 ** 49), 2 ** 50 + 2 ** 49 - 1).map(lambda k: k + 0.5))
    @example(x=0.5)
    @example(x=-0.5)
    @example(x=2.5)
    @example(x=-2.0 ** 50 - 0.5)
    def test_adding_and_subtracting_half_even_is_round(self, x):
        """Below 2**51, x + _HALF_EVEN - _HALF_EVEN is round(x) as a float:
        exact halves go to the even neighbour, as round() takes them."""
        step = x + _HALF_EVEN - _HALF_EVEN
        assert type(step) is float and step == round(x)


class TestSenseColumn:
    @pytest.mark.parametrize("count", [0, 1, 2, 300])
    @pytest.mark.parametrize("channel", list(Channel), ids=[ch.value for ch in Channel])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32))
    def test_each_value_is_sense_of_its_draw(self, channel, count, data, seed):
        """A column of 0, 1, 2 or 300 draws senses each one as sense() does,
        bit for bit (repr tells -0.0 from 0.0), and raises as it raises; the
        step table holds only round()'s steps of the draws, as floats."""
        spec = DEFAULT_SPECS[channel]
        truth = data.draw(default_truths(channel), label="truth")
        rng = random.Random(seed)
        draws = [rng.random() for _ in range(count)]
        with empty_value_caches():
            try:
                expected = [sense(spec, truth, -1.0 + 2.0 * r) for r in draws]
            except EnvError as e:
                with pytest.raises(EnvError) as raised:
                    _sense_column(spec, truth, draws)
                assert raised.value.code == e.code == "INVALID_TRUTH"
                return
            assert list(map(repr, _sense_column(spec, truth, draws))) == list(map(repr, expected))
            table = spec._sensed
            if table:
                lo, q = spec.min_value, spec.quantum
                steps = {round((truth + (-1.0 + 2.0 * r) * spec.accuracy - lo) / q)
                         for r in draws}
                assert set(table) <= steps and {type(step) for step in table} == {float}

    @pytest.mark.parametrize("channel", list(Channel), ids=[ch.value for ch in Channel])
    def test_a_column_fills_the_table_with_its_steps(self, channel):
        """Mid-range, 300 draws fill the step table with exactly round()'s
        steps of the draws, as integral floats, and a second column reads it."""
        spec = DEFAULT_SPECS[channel]
        truth = (spec.min_value + spec.max_value) / 2
        lo, q = spec.min_value, spec.quantum
        rng = random.Random(7)
        draws = [rng.random() for _ in range(300)]
        steps = [round((truth + (-1.0 + 2.0 * r) * spec.accuracy - lo) / q) for r in draws]
        expected = [sense(spec, truth, -1.0 + 2.0 * r) for r in draws]
        with empty_value_caches():
            assert list(_sense_column(spec, truth, draws)) == expected
            assert set(spec._sensed) == set(steps)
            assert all(type(step) is float for step in spec._sensed)
            assert list(_sense_column(spec, truth, draws[::-1])) == expected[::-1]
            assert set(spec._sensed) == set(steps)


def channel_models(channel: Channel, rounds: int):
    """Each model form of the channel: constant, a walk (sigma 0 included) or a
    script, around the sensor's range."""
    spec = DEFAULT_SPECS[channel]
    slack, span = 2 * spec.accuracy, spec.max_value - spec.min_value
    values = st.floats(spec.min_value - slack, spec.max_value + slack)
    scripts = st.dictionaries(st.integers(0, rounds), values, min_size=1, max_size=3)
    return st.one_of(
        st.builds(ChannelModel, values),
        st.builds(ChannelModel, values, sigma=st.floats(0.0, span / 8)),
        st.builds(ChannelModel, values, script=scripts.map(lambda d: tuple(sorted(d.items())))),
    )


@st.composite
def reference_configs(draw):
    """1-6 heads of 0-5 leaflets, loss 0, 1 or between, outages, hop_ms 0 or
    not, a subset of the gas channels, a seed, and each model form."""
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    clusters = [(f"N{h}", [f"{h}.{i}" for i in range(1, n + 1)]) for h, n in enumerate(sizes, 1)]
    rounds = draw(st.integers(1, 4))
    window = st.integers(0, rounds - 1)
    outages = [LinkOutage(src, dst, min(a, b), max(a, b)) for (src, dst), a, b in draw(st.lists(
        st.tuples(st.sampled_from(enumerate_round_messages(clusters)), window, window),
        max_size=3))]
    seed = draw(st.integers(0, 2**32))
    channels = [Channel.TEMP_C, Channel.LIGHT_RAW,
                *draw(st.lists(st.sampled_from(GAS_CHANNELS), unique=True))]
    field = EnvField({ch: draw(channel_models(ch, rounds)) for ch in channels}, seed=seed)
    return make_config(
        clusters, rounds=rounds, field=field, outages=tuple(outages),
        failure_prob=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        hop_latency_ms=draw(st.sampled_from([0, 1, 10])))


class TestReferenceRound:
    @settings(max_examples=150, deadline=None)
    @given(cfg=reference_configs())
    # at 30% loss, outages that cut a leaflet poll, a reply, an aggregate or a
    # head poll of some heads, while every link of the other heads stays up
    @example(cfg=make_config(
        [(f"N{h}", [f"{h}.{i}" for i in range(1, 5)]) for h in range(1, 6)],
        rounds=8, failure_prob=0.3,
        outages=(LinkOutage("N1", "1.2", 1, 3), LinkOutage("2.3", "N2", 2, 5),
                 LinkOutage("N3", "BS", 4, 6), LinkOutage("BS", "N5", 0, 1)),
        field=default_field(seed=11, ch4_ppm=ChannelModel(900.0, sigma=40.0))))
    def test_run_simulation_matches_reference_round(self, cfg):
        """Snapshots, trace text, events and counts all equal those of the
        slow reference read off the netsim docstring, round by round: from
        ``run_round``, from the ``on_trace`` text that ``wsn run --trace``
        writes, and from ``on_event``, whose ``trace_line``s join to that
        text."""
        expected = [reference_round(cfg, r) for r in range(cfg.rounds)]
        assert [run_round(cfg, r) for r in range(cfg.rounds)] == expected
        texts, snaps = [], []  # as cmd_run calls it: a sink and on_trace alone
        summary = run_simulation(cfg, snaps.append, on_trace=texts.append)
        assert snaps == [snapshot for snapshot, _ in expected]
        assert texts == [text for _, text in expected]
        trace, events, again = "".join(texts), [], []
        assert run_simulation(cfg, again.append, on_event=events.append) == summary
        assert again == snaps
        assert "".join(trace_line(ev) + "\n" for ev in events) == trace
        assert events == trace_events(trace)  # times are ints
        dropped = trace.count(" LINK_DROP ")
        assert summary == SimSummary(len(events) - dropped, dropped)


GAS_FIELD = default_field(seed=3, ch4_ppm=ChannelModel(900.0), co_ppm=ChannelModel(10.0),
                          o2_pct=ChannelModel(21.0))


class TestFewCellsSensed:
    @pytest.mark.parametrize("cfg", [
        make_config([("N1", [])], rounds=30, field=GAS_FIELD),
        make_config([("N1", [])], rounds=30, failure_prob=0.5, field=GAS_FIELD),
        make_config(rounds=3, failure_prob=1.0, field=GAS_FIELD),
        make_config(rounds=3, field=GAS_FIELD,
                    outages=(LinkOutage("BS", "N1", 0, 2), LinkOutage("BS", "N2", 0, 2))),
        make_config(rounds=30, field=GAS_FIELD,
                    outages=(LinkOutage("N1", "1.1", 0, 29), LinkOutage("1.2", "N1", 0, 29),
                             LinkOutage("BS", "N2", 0, 29))),
    ], ids=["one-node", "one-node-lossy", "every-head-poll-lost", "every-head-link-down",
            "one-cell-delivered"])
    def test_rounds_that_sense_no_or_one_cell_match_reference_round(self, cfg):
        """Rounds whose columns sense no cell, or one, give reference_round's
        snapshot and trace, and blocks whose one-cell columns render each
        value, a cached one and NULL included, as record_line does."""
        with empty_value_caches():
            for r in range(cfg.rounds):
                snapshot, text = run_round(cfg, r)
                assert (snapshot, text) == reference_round(cfg, r)
                assert snapshot_block(snapshot) == reference_block(snapshot)


class TestRunSimulation:
    def test_desk_summary(self):
        """100 failure-free rounds of the 12-message protocol."""
        snaps, summary = collect(make_config(rounds=100))
        assert summary == SimSummary(1200, 0)
        assert [s.round for s in snaps] == list(range(100))
        assert all(s.time_ms == s.round * 1000 for s in snaps)

    def test_single_head_summary(self):
        snaps, summary = collect(make_config(clusters=[("N1", [])], rounds=1))
        assert summary == SimSummary(2, 0)

    def test_certain_failure(self):
        snaps, summary = collect(make_config(failure_prob=1.0, rounds=100))
        assert all(status_of(r.values) == "NULL" for s in snaps for r in readings(s))
        assert summary.messages_dropped == summary.messages_sent

    def test_a_long_walk_keeps_its_recent_values_not_every_value(self):
        """3000 rounds of a fast ch4 walk over 22 nodes, each round's block
        rendered: from round 100 on the run never holds 320 KiB more than it
        did at round 100. The walk senses new values every round, and the
        step table and the text cache of ch4 each keep about
        ``_VALUE_CACHE_MAX`` of them (at most 152 kB more here; with 4096
        entries each, 559 kB)."""
        leaves = [" ".join(f"{h}.{i}" for i in range(1, 11)) for h in (1, 2)]
        cfg = parse_config("radio 30 0\n"
                           f"cluster N1 {leaves[0]}\ncluster N2 {leaves[1]}\n"
                           "rounds 3000\nseed 1\nenv temp_c 20\nenv light_raw 40\n"
                           "env ch4_ppm 20000 walk 300\n").sim
        held = []

        def sink(snapshot):
            snapshot_block(snapshot)
            if snapshot.round >= 100:
                held.append(tracemalloc.get_traced_memory()[0])

        with empty_value_caches():
            tracemalloc.start()
            try:
                run_simulation(cfg, sink)
            finally:
                tracemalloc.stop()
        assert len(held) == 2900
        assert max(held) - held[0] < 320 * 1024

    def test_scripted_outage_covers_inclusive_range(self):
        cfg = make_config(rounds=40, outages=(LinkOutage("N1", "1.1", 10, 20),))
        snaps, _ = collect(cfg)
        nulled_rounds = [s.round for s in snaps
                         if status_of(s.reading_for("1.1")) == "NULL"]
        assert nulled_rounds == list(range(10, 21))

    def test_sink_failure_names_its_round(self):
        def sink(s):
            if s.round == 3:
                raise OSError("disk full")

        with pytest.raises(SimError, match="SINK_FAILURE") as exc:
            run_simulation(make_config(rounds=10), sink)
        assert exc.value.message == "sink failed at round 3: disk full"

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


    def test_each_link_drops_at_the_radio_probability(self):
        """Every directed link loses each message it carries with the radio's
        probability: its drop share stays within 4 sigma of a binomial draw."""
        p = 0.3
        attempts, drops = Counter(), Counter()

        def count(ev):
            time_ms, kind, src, dst = ev
            (drops if kind == "LINK_DROP" else attempts)[src, dst] += 1

        run_simulation(make_config(failure_prob=p, rounds=2000, seed=42), lambda s: None,
                       on_event=count)
        assert set(attempts) == set(enumerate_round_messages(DESK_CLUSTERS))
        for link, n in attempts.items():
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(drops[link] / n - p) <= 4 * sigma, link


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
        # the walk must replay a round it has already stepped past
        def walking_config():
            field = default_field(
                seed=11, temp_c=ChannelModel(25.0, sigma=0.2),
                light_raw=ChannelModel(512.0, sigma=8.0),
                ch4_ppm=ChannelModel(1000.0, sigma=40.0))
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
        with pytest.raises(SimError, match="INVALID_CONFIG"):
            make_config(hop_latency_ms=-1)

    def test_temperature_and_light_are_required(self):
        for present, missing in [(Channel.TEMP_C, "light_raw"), (Channel.LIGHT_RAW, "temp_c")]:
            field = EnvField(channels={present: ChannelModel(25.0)})
            with pytest.raises(SimError, match=f"^INVALID_CONFIG: .*{missing}"):
                make_config(field=field)

    @pytest.mark.parametrize("gases, channels", [
        ((), "temp_c light_raw"),
        (GAS_CHANNELS, "temp_c light_raw ch4_ppm co_ppm o2_pct"),
        ((Channel.O2_PCT, Channel.CH4_PPM), "temp_c light_raw ch4_ppm o2_pct"),
    ])
    def test_sensors_are_the_default_specs_of_the_field(self, gases, channels):
        """A node carries the default sensor of each channel its field has, in
        Channel order, whatever order the field lists them in."""
        field = default_field(**{ch.value: ChannelModel(1.0) for ch in gases})
        sensors = make_config(field=field).sensors
        assert [s.channel.value for s in sensors] == channels.split()
        assert all(s is DEFAULT_SPECS[s.channel] for s in sensors)

    def test_outage_must_reference_a_link(self):
        with pytest.raises(SimError, match="NOT_A_LINK"):
            make_config(outages=(LinkOutage("1.1", "2.1", 0, 5),))

    def test_outage_errors_name_the_outage(self):
        """SimConfig is the one place outages are checked against the tree."""
        ok = LinkOutage("N1", "1.1", 0, 5)
        with pytest.raises(SimError, match="1.1->2.1 is not a link") as exc:
            make_config(outages=(ok, LinkOutage("1.1", "2.1", 0, 5)))
        assert exc.value.outage == LinkOutage("1.1", "2.1", 0, 5)
        with pytest.raises(TopologyError, match="UNKNOWN_NODE") as exc:
            make_config(outages=(ok, LinkOutage("BS", "X9", 0, 5)))
        assert exc.value.outage == LinkOutage("BS", "X9", 0, 5)

    def test_outage_round_order(self):
        for first, last in [(5, 4), (-1, 4)]:
            with pytest.raises(SimError, match="INVALID_CONFIG"):
                LinkOutage("BS", "N1", first, last)
