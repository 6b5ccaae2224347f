"""Ground-truth fields and the bounded-error quantized sensing model."""

import random

import pytest
from hypothesis import given, strategies as st

from wsnmon.environment import (
    Channel,
    ChannelModel,
    Drift,
    EnvField,
    SensorSpec,
    default_spec,
    sense,
    truth_at,
)
from wsnmon.errors import EnvError

TEMP = default_spec(Channel.TEMP_C)
LIGHT = default_spec(Channel.LIGHT_RAW)


def field_with(channel: Channel, model: ChannelModel, seed: int = 0) -> EnvField:
    return EnvField(channels={channel: model}, seed=seed)


class TestTruthAt:
    def test_constant_field(self):
        f = field_with(Channel.TEMP_C, ChannelModel(25.0))
        assert truth_at(f, Channel.TEMP_C, 100) == 25.0

    def test_scripted_step_hold(self):
        model = ChannelModel(15.0, Drift.scripted([(0, 20.0), (50, 30.0)]))
        f = field_with(Channel.CH4_PPM, model)
        assert truth_at(f, Channel.CH4_PPM, 0) == 20.0
        assert truth_at(f, Channel.CH4_PPM, 49) == 20.0
        assert truth_at(f, Channel.CH4_PPM, 50) == 30.0
        assert truth_at(f, Channel.CH4_PPM, 5000) == 30.0

    def test_scripted_holds_baseline_before_first_breakpoint(self):
        model = ChannelModel(15.0, Drift.scripted([(10, 99.0)]))
        f = field_with(Channel.CO_PPM, model)
        assert truth_at(f, Channel.CO_PPM, 3) == 15.0

    def test_walk_reproducible(self):
        """Re-evaluation replays the same seeded walk exactly."""
        model = ChannelModel(25.0, Drift.walk(0.1))
        value = truth_at(field_with(Channel.TEMP_C, model, seed=7), Channel.TEMP_C, 10)
        again = truth_at(field_with(Channel.TEMP_C, model, seed=7), Channel.TEMP_C, 10)
        assert value == again
        # independent replay of the documented stream derivation
        rng = random.Random("7/walk/temp_c")
        expected = 25.0
        for _ in range(10):
            expected += rng.gauss(0.0, 0.1)
        assert value == expected

    def test_walk_seed_changes_value(self):
        model = ChannelModel(25.0, Drift.walk(0.1))
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

    def test_script_breakpoints_must_increase(self):
        with pytest.raises(EnvError, match="INVALID_DRIFT"):
            Drift.scripted([(5, 1.0), (5, 2.0)])


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
