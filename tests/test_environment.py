"""Ground-truth fields and the bounded-error quantized sensing model."""

import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import naive_hold, naive_walk
from wsnmon.environment import (
    DEFAULT_SPECS,
    Channel,
    ChannelModel,
    EnvField,
    SensorSpec,
    sense,
    truth_at,
)
from wsnmon.errors import EnvError

TEMP = DEFAULT_SPECS[Channel.TEMP_C]
LIGHT = DEFAULT_SPECS[Channel.LIGHT_RAW]


def field_with(channel: Channel, model: ChannelModel, seed: int = 0) -> EnvField:
    return EnvField(channels={channel: model}, seed=seed)


class TestTruthAt:
    def test_constant_field(self):
        f = field_with(Channel.TEMP_C, ChannelModel(25.0))
        assert truth_at(f, Channel.TEMP_C, 100) == 25.0

    def test_scripted_step_hold(self):
        model = ChannelModel(15.0, script=((0, 20.0), (50, 30.0)))
        f = field_with(Channel.CH4_PPM, model)
        assert truth_at(f, Channel.CH4_PPM, 0) == 20.0
        assert truth_at(f, Channel.CH4_PPM, 49) == 20.0
        assert truth_at(f, Channel.CH4_PPM, 50) == 30.0
        assert truth_at(f, Channel.CH4_PPM, 5000) == 30.0

    def test_scripted_holds_baseline_before_first_breakpoint(self):
        model = ChannelModel(15.0, script=((10, 99.0),))
        f = field_with(Channel.CO_PPM, model)
        assert truth_at(f, Channel.CO_PPM, 3) == 15.0

    def test_walk_reproducible(self):
        """Re-evaluation replays the same seeded walk exactly."""
        model = ChannelModel(25.0, sigma=0.1)
        value = truth_at(field_with(Channel.TEMP_C, model, seed=7), Channel.TEMP_C, 10)
        again = truth_at(field_with(Channel.TEMP_C, model, seed=7), Channel.TEMP_C, 10)
        assert value == again
        # independent replay of the documented stream derivation
        rng = random.Random("7/walk/temp_c")
        expected = 25.0
        for _ in range(10):
            expected += rng.gauss(0.0, 0.1)
        assert value == expected

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        baseline=st.floats(-1e6, 1e6),
        sigma=st.floats(0.0, 100.0),
        rounds=st.lists(st.integers(0, 300), min_size=1, max_size=12),
    )
    def test_walk_matches_naive_replay_in_any_order(self, seed, baseline, sigma, rounds):
        f = field_with(Channel.LIGHT_RAW, ChannelModel(baseline, sigma=sigma), seed=seed)
        for r in rounds:  # any order, repeats included
            expected = naive_walk(seed, "light_raw", baseline, sigma, r)
            assert truth_at(f, Channel.LIGHT_RAW, r) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        baseline=st.floats(-1e6, 1e6),
        script=st.dictionaries(st.integers(0, 300), st.floats(-1e6, 1e6), max_size=6).map(
            lambda points: tuple(sorted(points.items()))),
        rounds=st.lists(st.integers(0, 300), min_size=1, max_size=12),
    )
    def test_script_matches_naive_hold(self, baseline, script, rounds):
        f = field_with(Channel.CO_PPM, ChannelModel(baseline, script=script))
        for r in rounds:
            assert truth_at(f, Channel.CO_PPM, r) == naive_hold(baseline, script, r)

    def test_long_script_matches_naive_hold(self):
        """A 10 000-breakpoint script, before its first breakpoint, on one,
        between two and past its last; the rounds are not kept in any field."""
        rng = random.Random(5)
        script = tuple(zip(range(7, 7 + 3 * 10_000, 3), (rng.uniform(-50, 50)
                                                          for _ in range(10_000))))
        model = ChannelModel(15.0, script=script)
        f = field_with(Channel.CO_PPM, model)
        for r in (0, 6, 7, 8, 9, 15_001, 15_002, 15_003, 3 * 10_000 + 4, 3 * 10_000 + 5, 10**9):
            assert truth_at(f, Channel.CO_PPM, r) == naive_hold(15.0, script, r)
        assert model == ChannelModel(15.0, script=script)
        assert repr(model) == f"ChannelModel(baseline=15.0, sigma=0.0, script={script!r})"
        assert hash(model) == hash((15.0, 0.0, script))

    @pytest.mark.parametrize("other", [ChannelModel(25.0, sigma=0.3),
                                       ChannelModel(26.0, sigma=0.1)],
                             ids=["sigma", "baseline"])
    def test_walks_of_different_fields_never_mix(self, other):
        model = ChannelModel(25.0, sigma=0.1)
        a = field_with(Channel.TEMP_C, model, seed=7)
        b = field_with(Channel.TEMP_C, other, seed=7)
        # interleaved, each field ahead of the other in turn
        for ra, rb in ((40, 10), (3, 85), (90, 45), (0, 0)):
            assert truth_at(a, Channel.TEMP_C, ra) == naive_walk(7, "temp_c", 25.0, 0.1, ra)
            assert truth_at(b, Channel.TEMP_C, rb) == naive_walk(
                7, "temp_c", other.baseline, other.sigma, rb)

    def test_a_walk_keeps_its_position_not_its_history(self):
        """50 000 rounds of a walking channel retain under 4 KB (a kept history
        is about 1.6 MB), and the walk still reads its naive replay going on
        and going back."""
        f = field_with(Channel.TEMP_C, ChannelModel(25.0, sigma=0.1), seed=7)
        truth_at(f, Channel.TEMP_C, 1)  # the walk's stream exists before the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for r in range(2, 50_000):
                truth_at(f, Channel.TEMP_C, r)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 4096
        for r in (49_999, 50_000, 3):
            assert truth_at(f, Channel.TEMP_C, r) == naive_walk(7, "temp_c", 25.0, 0.1, r)

    def test_overflowing_walk_saturates(self):
        """Steps past the float range saturate, so the walk never reaches inf or nan."""
        f = field_with(Channel.TEMP_C, ChannelModel(25.0, sigma=1e308))
        walk = [truth_at(f, Channel.TEMP_C, r) for r in range(200)]
        assert all(math.isfinite(v) for v in walk)
        assert {sys.float_info.max, -sys.float_info.max} <= set(walk)

    def test_walk_seed_changes_value(self):
        model = ChannelModel(25.0, sigma=0.1)
        a = truth_at(field_with(Channel.TEMP_C, model, seed=7), Channel.TEMP_C, 10)
        b = truth_at(field_with(Channel.TEMP_C, model, seed=8), Channel.TEMP_C, 10)
        assert a != b

    def test_unknown_channel(self):
        f = field_with(Channel.TEMP_C, ChannelModel(25.0))
        with pytest.raises(EnvError, match="UNKNOWN_CHANNEL"):
            truth_at(f, Channel.O2_PCT, 0)

    def test_negative_round_rejected(self):
        f = field_with(Channel.TEMP_C, ChannelModel(25.0))
        with pytest.raises(EnvError, match="INVALID_ROUND"):
            truth_at(f, Channel.TEMP_C, -1)

    @pytest.mark.parametrize("kwargs", [
        {"sigma": -0.5},
        {"sigma": math.nan},
        {"sigma": 0.1, "script": ((0, 9.0),)},
        {"script": ((-1, 9.0),)},
        {"script": ((5, 1.0), (5, 2.0))},
        {"script": ((5, 1.0), (4, 2.0))},
    ], ids=["negative-sigma", "nan-sigma", "walk-and-script", "negative-round", "repeated-round",
            "decreasing-round"])
    def test_invalid_model_refused(self, kwargs):
        with pytest.raises(EnvError, match="INVALID_DRIFT"):
            ChannelModel(25.0, **kwargs)


class TestSense:
    def test_zero_noise_on_grid(self):
        assert sense(TEMP, 25.0, 0.0) == 25.0

    def test_light_saturates(self):
        assert sense(LIGHT, 70000.0, 0.0) == 65535.0
        assert sense(LIGHT, 70000.0, 1.0) == 65535.0
        assert sense(LIGHT, -50.0, -1.0) == 0.0

    def test_full_positive_draw(self):
        # 25.0 + 1.0 * 0.5 = 25.5, which is 1048 steps of 0.0625 above -40
        assert sense(TEMP, 25.0, 1.0) == 25.5

    def test_deterministic(self):
        assert sense(TEMP, 24.123, 0.377) == sense(TEMP, 24.123, 0.377)

    @pytest.mark.parametrize("truth", [1e308, sys.float_info.max, math.inf, 1e300])
    @pytest.mark.parametrize("draw", [-1.0, 0.0, 1.0])
    def test_far_truth_reads_the_nearer_bound(self, truth, draw):
        """Past the float range of the step count, sense saturates like anywhere else."""
        assert sense(TEMP, truth, draw) == TEMP.max_value
        assert sense(TEMP, -truth, draw) == TEMP.min_value
        assert sense(LIGHT, truth, draw) == LIGHT.max_value
        assert sense(LIGHT, -truth, draw) == LIGHT.min_value

    def test_nan_truth_rejected(self):
        with pytest.raises(EnvError, match="INVALID_TRUTH"):
            sense(TEMP, math.nan, 0.0)

    def test_rejects_out_of_range_draw(self):
        with pytest.raises(EnvError, match="INVALID_DRAW"):
            sense(TEMP, 25.0, 1.5)

    def test_spec_validation(self):
        with pytest.raises(EnvError, match="INVALID_SENSOR"):
            SensorSpec(Channel.TEMP_C, -0.1, 0.0625, -40.0, 125.0)
        with pytest.raises(EnvError, match="INVALID_SENSOR"):
            SensorSpec(Channel.TEMP_C, 0.5, 0.0, -40.0, 125.0)
        with pytest.raises(EnvError, match="INVALID_SENSOR"):
            SensorSpec(Channel.TEMP_C, 0.5, 0.0625, 125.0, -40.0)

    @given(
        truth=st.floats(min_value=-40.0, max_value=125.0),
        draw=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_bounded_error_property(self, truth, draw):
        """In-range truth is never distorted by more than accuracy + quantum/2."""
        value = sense(TEMP, truth, draw)
        assert abs(value - truth) <= TEMP.accuracy + TEMP.quantum / 2
        assert TEMP.min_value <= value <= TEMP.max_value

    @given(
        truth=st.floats(min_value=-1e6, max_value=1e6),
        draw=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_output_on_quantum_grid(self, truth, draw):
        """Results always land on the quantum grid anchored at min_value."""
        value = sense(TEMP, truth, draw)
        steps = (value - TEMP.min_value) / TEMP.quantum
        assert steps == int(steps)
        assert TEMP.min_value <= value <= TEMP.max_value
