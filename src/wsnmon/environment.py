"""Ground-truth environmental fields and bounded-error quantized sensing.

All nodes in a run share one field per channel (they sit in the same room),
so truth depends only on (channel, round, seed). A channel's truth is a
``ChannelModel``: a baseline that stays constant, walks, or follows a script,
exactly the config's ``env`` forms. A random walk keeps its position, not its
history: the field holds each walk's step stream, the round it was last asked
for and its value there. A later round steps on from that position, so a run
that goes forward pays one Gaussian step per channel per round and holds the
same few bytes at round 10 and at round 1 000 000; an earlier round replays the
walk from round 0 with a fresh stream (the same steps summed in the same
order, so the same value). A walk that overflows saturates at the largest
finite float, so truth is never infinite or nan. Sensor noise is uniform and
bounded by the sensor's accuracy figure rather than Gaussian: the hardware
datasheets state an error bound, and a hard bound is what the tests check.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from enum import Enum
from typing import Mapping

from ._frozen import Frozen
from .errors import EnvError


class Channel(Enum):
    TEMP_C = "temp_c"
    LIGHT_RAW = "light_raw"
    CH4_PPM = "ch4_ppm"
    CO_PPM = "co_ppm"
    O2_PCT = "o2_pct"

    # members are singletons: identity hashing keeps dict lookups in C
    __hash__ = object.__hash__


def channel_from_token(token: str) -> Channel:
    for ch in Channel:
        if ch.value == token:
            return ch
    raise EnvError("UNKNOWN_CHANNEL", f"no channel named {token!r}")


class SensorSpec(Frozen):
    """One channel's sampling model: bounded error (``accuracy``, the max
    absolute error) and quantized by ``quantum``, both in channel units, and
    saturating at ``min_value`` and ``max_value``."""

    _fields = ("channel", "accuracy", "quantum", "min_value", "max_value")
    # _sensed: step -> sense()'s value for it, netsim's table, filled from sense
    # alone; its keys are integral floats, round()'s step rounded in float
    # arithmetic, which is exact below 2**51
    __slots__ = (*_fields, "_sensed")

    def __init__(self, channel: Channel, accuracy: float, quantum: float,
                 min_value: float, max_value: float):
        if accuracy < 0:
            raise EnvError("INVALID_SENSOR", f"accuracy must be >= 0, got {accuracy}")
        if quantum <= 0:
            raise EnvError("INVALID_SENSOR", f"quantum must be > 0, got {quantum}")
        if not min_value < max_value:
            raise EnvError("INVALID_SENSOR", f"min {min_value} must be below max {max_value}")
        self._init(channel, accuracy, quantum, min_value, max_value, {})


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


class ChannelModel(Frozen):
    """One channel's truth over rounds: its ``baseline``, moved by at most one of
    a random walk (one Gaussian step of width ``sigma`` per round) or a
    ``script`` of ``(round, value)`` breakpoints, each value held from its round
    on (step-hold; the baseline holds before the first). With neither, the
    channel is constant: ``sigma`` 0 is no walk.
    """

    _fields = ("baseline", "sigma", "script")
    # _rounds: the script's breakpoint rounds, which truth_at bisects
    __slots__ = (*_fields, "_rounds")

    def __init__(self, baseline: float, sigma: float = 0.0,
                 script: tuple[tuple[int, float], ...] = ()):
        if not sigma >= 0:  # nan too
            raise EnvError("INVALID_DRIFT", f"sigma must be >= 0, got {sigma}")
        if sigma and script:
            raise EnvError("INVALID_DRIFT", "a channel walks or follows a script, not both")
        rounds = tuple(r for r, _ in script)
        if any(r < 0 for r in rounds):
            raise EnvError("INVALID_DRIFT", "breakpoint rounds must be >= 0")
        if any(b <= a for a, b in zip(rounds, rounds[1:])):
            raise EnvError("INVALID_DRIFT", "breakpoint rounds must be strictly increasing")
        self._init(baseline, sigma, script, rounds)


class EnvField(Frozen):
    """Shared room-level truth for every configured channel (one room, one field)."""

    _fields = ("channels", "seed")
    # _walks: (channel, baseline, sigma) -> (the walk's step stream, the round
    # it has stepped to, truth at that round)
    __slots__ = (*_fields, "_walks")

    def __init__(self, channels: Mapping[Channel, ChannelModel], seed: int = 0):
        self._init(channels, seed, {})


def _walk(f: EnvField, channel: Channel, model: ChannelModel, round_index: int) -> float:
    """The walk's value at ``round_index``, stepped on from its last position,
    or replayed from round 0 for an earlier round."""
    sigma = model.sigma
    key = (channel, model.baseline, sigma)  # with f.seed, all that decides the walk
    rng, at, value = f._walks.get(key, (None, 0, 0.0))
    if rng is None or round_index < at:
        # string seeding hashes via SHA-512, stable across processes and platforms
        rng, at, value = random.Random(f"{f.seed}/walk/{channel.value}"), 0, model.baseline
    for _ in range(at, round_index):
        value += rng.gauss(0.0, sigma)  # the same steps summed in the same order
        if math.isinf(value):  # saturate, so a later step cannot make inf - inf = nan
            value = math.nextafter(value, 0.0)  # the largest finite float of its sign
    f._walks[key] = (rng, round_index, value)
    return value


def truth_at(f: EnvField, channel: Channel, round_index: int) -> float:
    """Ground truth of ``channel`` at the given round, the same for every node."""
    if channel not in f.channels:
        raise EnvError("UNKNOWN_CHANNEL", f"channel {channel.value} not configured")
    if round_index < 0:
        raise EnvError("INVALID_ROUND", f"round must be >= 0, got {round_index}")
    model = f.channels[channel]
    if model.sigma:
        return _walk(f, channel, model, round_index)
    held = bisect_right(model._rounds, round_index)  # breakpoints at or before the round
    return model.script[held - 1][1] if held else model.baseline


def sense(spec: SensorSpec, truth: float, noise_draw: float) -> float:
    """Measure ``truth``: add bounded noise, quantize, saturate.

    noise_draw is a uniform value in [-1, 1]; the result sits on the quantum
    grid anchored at min_value and never leaves [min_value, max_value].
    Whenever truth is in range, |result - truth| <= accuracy + quantum/2;
    a truth further than that beyond a bound, infinite ones included, reads
    that bound.
    """
    if not -1.0 <= noise_draw <= 1.0:
        raise EnvError("INVALID_DRAW", f"noise_draw must be in [-1,1], got {noise_draw}")
    noisy = truth + noise_draw * spec.accuracy
    try:
        steps = round((noisy - spec.min_value) / spec.quantum)
    except OverflowError:  # an infinite step count: beyond a bound by far
        return spec.min_value if noisy < spec.min_value else spec.max_value
    except ValueError:
        raise EnvError("INVALID_TRUTH", f"truth must not be nan, got {truth}") from None
    value = spec.min_value + steps * spec.quantum
    # min(max(value, lo), hi), without two builtin calls
    if value < spec.min_value:
        return spec.min_value
    return spec.max_value if value > spec.max_value else value
