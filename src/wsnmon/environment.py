"""Ground-truth environmental fields and bounded-error quantized sensing.

All nodes in a run share one field per channel (they sit in the same room),
so truth depends only on (channel, round, seed). Sensor noise is uniform and
bounded by the sensor's accuracy figure rather than Gaussian: the hardware
datasheets state an error bound, and a hard bound is what the tests check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .errors import EnvError


class Channel(Enum):
    TEMP_C = "temp_c"
    LIGHT_RAW = "light_raw"
    CH4_PPM = "ch4_ppm"
    CO_PPM = "co_ppm"
    O2_PCT = "o2_pct"



def channel_from_token(token: str) -> Channel:
    for ch in Channel:
        if ch.value == token:
            return ch
    raise EnvError("UNKNOWN_CHANNEL", f"no channel named {token!r}")


@dataclass(frozen=True)
class SensorSpec:
    """One channel's sampling model: bounded error, quantized, saturating."""

    channel: Channel
    accuracy: float  # max absolute error, channel units
    quantum: float  # quantization step, channel units
    min_value: float
    max_value: float

    def __post_init__(self):
        if self.accuracy < 0:
            raise EnvError("INVALID_SENSOR", f"accuracy must be >= 0, got {self.accuracy}")
        if self.quantum <= 0:
            raise EnvError("INVALID_SENSOR", f"quantum must be > 0, got {self.quantum}")
        if not self.min_value < self.max_value:
            raise EnvError(
                "INVALID_SENSOR",
                f"min {self.min_value} must be below max {self.max_value}",
            )


# Temperature: 0.5 degC accuracy, 0.0625 degC step (12-bit sensor register).
# Light: raw 16-bit counts. Gas channels use unit steps so their values
# serialize as integers in the telemetry format.
DEFAULT_SPECS: dict[Channel, SensorSpec] = {
    Channel.TEMP_C: SensorSpec(Channel.TEMP_C, 0.5, 0.0625, -40.0, 125.0),
    Channel.LIGHT_RAW: SensorSpec(Channel.LIGHT_RAW, 8.0, 1.0, 0.0, 65535.0),
    Channel.CH4_PPM: SensorSpec(Channel.CH4_PPM, 100.0, 1.0, 0.0, 50000.0),
    Channel.CO_PPM: SensorSpec(Channel.CO_PPM, 5.0, 1.0, 0.0, 1000.0),
    Channel.O2_PCT: SensorSpec(Channel.O2_PCT, 1.0, 1.0, 0.0, 25.0),
}


def default_spec(channel: Channel) -> SensorSpec:
    return DEFAULT_SPECS[channel]


class DriftKind(Enum):
    NONE = "NONE"
    RANDOM_WALK = "RANDOM_WALK"
    SCRIPTED = "SCRIPTED"


@dataclass(frozen=True)
class Drift:
    """How a channel's truth moves over rounds.

    RANDOM_WALK adds one Gaussian step of width sigma per round; SCRIPTED
    holds the value of the last breakpoint at or before the round (step-hold).
    """

    kind: DriftKind = DriftKind.NONE
    sigma: float = 0.0
    script: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.kind is DriftKind.RANDOM_WALK and self.sigma < 0:
            raise EnvError("INVALID_DRIFT", f"sigma must be >= 0, got {self.sigma}")
        if self.kind is DriftKind.SCRIPTED:
            if not self.script:
                raise EnvError("INVALID_DRIFT", "scripted drift needs at least one breakpoint")
            rounds = [r for r, _ in self.script]
            if any(r < 0 for r in rounds):
                raise EnvError("INVALID_DRIFT", "breakpoint rounds must be >= 0")
            if any(b <= a for a, b in zip(rounds, rounds[1:])):
                raise EnvError("INVALID_DRIFT", "breakpoint rounds must be strictly increasing")

    @classmethod
    def none(cls) -> "Drift":
        return cls(DriftKind.NONE)

    @classmethod
    def walk(cls, sigma: float) -> "Drift":
        return cls(DriftKind.RANDOM_WALK, sigma=sigma)

    @classmethod
    def scripted(cls, points: list[tuple[int, float]] | tuple[tuple[int, float], ...]) -> "Drift":
        return cls(DriftKind.SCRIPTED, script=tuple(points))


@dataclass(frozen=True)
class ChannelModel:
    baseline: float
    drift: Drift = Drift()


@dataclass(frozen=True)
class EnvField:
    """Shared room-level truth for every configured channel (one room, one field)."""

    channels: Mapping[Channel, ChannelModel]
    seed: int = 0


def _walk_rng(seed: int, channel: Channel) -> random.Random:
    # string seeding hashes via SHA-512, stable across processes and platforms
    return random.Random(f"{seed}/walk/{channel.value}")


def truth_at(f: EnvField, channel: Channel, round_index: int) -> float:
    """Ground truth of ``channel`` at the given round, the same for every node."""
    if channel not in f.channels:
        raise EnvError("UNKNOWN_CHANNEL", f"channel {channel.value} not configured")
    if round_index < 0:
        raise EnvError("INVALID_ROUND", f"round must be >= 0, got {round_index}")
    model = f.channels[channel]
    value = model.baseline
    if model.drift.kind is DriftKind.RANDOM_WALK:
        rng = _walk_rng(f.seed, channel)
        for _ in range(round_index):
            value += rng.gauss(0.0, model.drift.sigma)
    elif model.drift.kind is DriftKind.SCRIPTED:
        for bp_round, bp_value in model.drift.script:
            if bp_round <= round_index:
                value = bp_value
    return value


def sense(spec: SensorSpec, truth: float, noise_draw: float) -> float:
    """Measure ``truth``: add bounded noise, quantize, saturate.

    noise_draw is a uniform value in [-1, 1]; the result sits on the quantum
    grid anchored at min_value and never leaves [min_value, max_value].
    Whenever truth is in range, |result - truth| <= accuracy + quantum/2.
    """
    if not -1.0 <= noise_draw <= 1.0:
        raise EnvError("INVALID_DRAW", f"noise_draw must be in [-1,1], got {noise_draw}")
    noisy = truth + noise_draw * spec.accuracy
    steps = round((noisy - spec.min_value) / spec.quantum)
    value = spec.min_value + steps * spec.quantum
    return min(max(value, spec.min_value), spec.max_value)
