"""Deterministic round-based collection over the tree: polls, replies, drops.

One round follows the two-tier pull protocol, in this emission order: the base
station interrupt-calls every cluster head in configuration order; then, head
by head, a polled head interrupt-calls each leaflet, each polled leaflet sends
its data back, and the head sends one aggregate message to the base station.
Every message independently fails with the radio's failure probability (or
deterministically when its link is forced down); any node whose data depended
on a lost message gets a NULL reading for the round. Nothing is retried, and
no reading is carried across rounds.

Reproducibility: all randomness comes from streams derived by fixed strings
from ``EnvField.seed`` (the config's ``seed`` line), so identical configs give
byte-identical runs. The environment's walk is generated once per run and
carried forward (``truth_at`` is amortized O(1)), so a round costs the same at
round 5 as at round 5000, and ``run_round`` still gives any round on its own,
in any order, with the links its outages force down.
 - drop decisions:  Random(f"{seed}/drops/{round}"), consumed in emission
   order of attempted messages;
 - noise draws:     Random(f"{seed}/noise/{round}"), consumed for every
   sensing node and equipped sensor in topology order, whether or not the
   value survives (keeps values independent of drop outcomes);
 - walk steps:      Random(f"{seed}/walk/{channel}"), see ``environment``.

A node carries the default sensor (``environment.DEFAULT_SPECS``) of each
channel its field configures, so ``SimConfig.sensors`` is derived from the
field, in Channel order.

A round is built as columns: ``run_round`` senses each equipped channel as
one column over the sensing nodes, then writes None into the cells of every
node whose data is lost (a head is followed by its leaflets, so a lost branch
is one slice of each column). The Snapshot holds those columns; no per-node
object is built.

Sensing by step lookup: ``environment.sense`` is the one definition of a
sensed value, and its value depends only on the spec and the quantization
step. A round computes each draw's step with sense's own arithmetic, in its
order (a reassociated form is not bit-identical), and maps it through the
spec's step table, which is filled on a miss by calling ``sense``. Where the
step could overflow or be inexact (truth infinite, nan, or 2**50 quanta from
min_value), the round calls ``sense`` for every draw.

Event timing within a round starting at t0 (hop = per-message latency):
polls BS->head at t0, polls head->leaflet at t0+hop, leaflet replies at
t0+2*hop, head aggregates at t0+3*hop. A LINK_DROP event marks each lost
message at the same timestamp. Events are ordered by time_ms, and events
with the same time_ms keep their emission order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import attrgetter
from typing import Callable, NamedTuple

from .environment import DEFAULT_SPECS, Channel, EnvField, SensorSpec, sense, truth_at
from .errors import SimError, WsnError
from .records import Snapshot
from .topology import TreeTopology

DEFAULT_ROUND_PERIOD_MS = 1000
DEFAULT_HOP_LATENCY_MS = 10


class EventKind(Enum):
    INTERRUPT_CALL = "INTERRUPT_CALL"
    DATA_MSG = "DATA_MSG"
    LINK_DROP = "LINK_DROP"


class SimEvent(NamedTuple):
    """One message or loss; a tuple, which builds at a quarter of a frozen
    dataclass's cost (a run emits one per message)."""

    time_ms: int
    kind: EventKind
    src: str
    dst: str


_new_tuple = tuple.__new__  # SimEvent(*fields) without its Python-level __new__
# module globals: reading an Enum member off its class is slow
_POLL, _DATA, _LINK_DROP = EventKind.INTERRUPT_CALL, EventKind.DATA_MSG, EventKind.LINK_DROP


def trace_line(ev: SimEvent) -> str:
    """One exported trace line per event."""
    time_ms, kind, src, dst = ev
    return f"{time_ms} {kind._value_} {src} {dst}"  # _value_: no property call


@dataclass(frozen=True)
class LinkOutage:
    """Force the directed link src->dst down for rounds first..last inclusive."""

    src: str
    dst: str
    first_round: int
    last_round: int

    def __post_init__(self):
        if self.first_round < 0 or self.last_round < self.first_round:
            raise SimError(
                "INVALID_CONFIG",
                f"outage rounds {self.first_round}..{self.last_round} out of order",
            )

    def covers(self, round_index: int) -> bool:
        return self.first_round <= round_index <= self.last_round


@dataclass(frozen=True)
class SimConfig:
    """A run: the tree, the field (whose seed drives every random stream, see
    the module docstring), and the round schedule. The sensors are derived
    from the field."""

    topology: TreeTopology
    field: EnvField
    rounds: int
    round_period_ms: int = DEFAULT_ROUND_PERIOD_MS
    hop_latency_ms: int = DEFAULT_HOP_LATENCY_MS
    outages: tuple[LinkOutage, ...] = ()

    @property
    def sensors(self) -> tuple[SensorSpec, ...]:
        """The default spec of each channel the field configures, in Channel order."""
        return tuple(DEFAULT_SPECS[ch] for ch in Channel if ch in self.field.channels)

    def __post_init__(self):
        if self.rounds < 1:
            raise SimError("INVALID_CONFIG", f"rounds must be >= 1, got {self.rounds}")
        if self.round_period_ms <= 0:
            raise SimError("INVALID_CONFIG", "round_period_ms must be > 0")
        if self.hop_latency_ms < 0:
            raise SimError("INVALID_CONFIG", "hop_latency_ms must be >= 0")
        if self.round_period_ms < 4 * self.hop_latency_ms:
            # a round's four hops must finish before the next round starts
            raise SimError(
                "INVALID_CONFIG",
                f"period_ms {self.round_period_ms} must be >= 4x hop_ms {self.hop_latency_ms}",
            )
        for required in (Channel.TEMP_C, Channel.LIGHT_RAW):
            if required not in self.field.channels:
                raise SimError("INVALID_CONFIG", f"no field configured for {required.value}")
        for outage in self.outages:
            try:
                if not self.topology.is_link(outage.src, outage.dst):
                    raise SimError("NOT_A_LINK", f"{outage.src}->{outage.dst} is not a link")
            except WsnError as e:  # a non-link, or a TopologyError for an unknown node
                e.outage = outage  # lets parse_config name the line that declared it
                raise


@dataclass(frozen=True)
class SimSummary:
    rounds_run: int
    messages_sent: int
    messages_dropped: int


# A run senses the same few steps of each channel over and over; this many
# distinct steps per spec are kept before its table starts afresh.
_STEP_TABLE_MAX = 4096


def _sense_column(spec: SensorSpec, truth: float, draws: list[float]) -> list[float]:
    """``sense(spec, truth, u)`` for each draw's u, by step lookup (see the
    module docstring); -1.0 + 2.0 * draw is Random.uniform(-1.0, 1.0)."""
    acc, lo, q = spec.accuracy, spec.min_value, spec.quantum
    # past 2**50 quanta a step may be inexact or overflow: sense saturates or raises
    if not abs(truth - lo) + acc < 2.0 ** 50 * q:  # also False for inf and nan
        return [sense(spec, truth, -1.0 + 2.0 * r) for r in draws]
    # sense's arithmetic in sense's order: a reassociated form may round differently
    steps = [round((truth + (-1.0 + 2.0 * r) * acc - lo) / q) for r in draws]
    table = spec._sensed
    try:
        return list(map(table.__getitem__, steps))
    except KeyError:  # a step not sensed before
        if len(table) >= _STEP_TABLE_MAX:
            table.clear()
        values = []
        for step, r in zip(steps, draws):
            value = table.get(step)
            if value is None:
                value = table[step] = sense(spec, truth, -1.0 + 2.0 * r)
            values.append(value)
        return values


def run_round(cfg: SimConfig, round_index: int) -> tuple[Snapshot, list[SimEvent]]:
    """Simulate one collection round, with the links ``cfg.outages`` force down.

    Returns the round's Snapshot (a row for every sensing node; a lost
    node's cells are None, never absent) and its events in (time, emission)
    order.
    """
    if not 0 <= round_index < cfg.rounds:
        raise SimError(
            "ROUND_OUT_OF_RANGE", f"round {round_index} not in 0..{cfg.rounds - 1}"
        )
    topo = cfg.topology
    root, children, hop = topo.root, topo.children, cfg.hop_latency_ms
    t0 = round_index * cfg.round_period_ms
    down = {(o.src, o.dst) for o in cfg.outages if o.covers(round_index)}
    draw = random.Random(f"{cfg.field.seed}/drops/{round_index}").random
    failure_prob = topo.radio.failure_prob
    events: list[SimEvent] = []
    emit = events.append

    def attempt(kind: EventKind, src: str, dst: str, at: int) -> bool:
        """Emit the message event; decide and mark loss. True when delivered."""
        emit(_new_tuple(SimEvent, (at, kind, src, dst)))
        # a forced outage drops without consuming a draw
        if (src, dst) in down or draw() < failure_prob:
            emit(_new_tuple(SimEvent, (at, _LINK_DROP, src, dst)))
            return False
        return True

    nodes = topo.sensing_nodes()
    sensors = cfg.sensors
    width = len(sensors)
    noise = random.Random(f"{cfg.field.seed}/noise/{round_index}")
    # the round's draws in their fixed order: node by node, sensor by sensor
    draws = list(map(random.Random.random, repeat(noise, len(nodes) * width)))
    columns = [_sense_column(spec, truth_at(cfg.field, spec.channel, round_index), draws[i::width])
               for i, spec in enumerate(sensors)]
    lost: list[tuple[int, int]] = []  # the [start, stop) spans of nodes whose data is lost

    heads = children[root]
    polled = [attempt(_POLL, root, head, t0) for head in heads]
    start = 0
    for head, head_polled in zip(heads, polled):
        leaves = children[head]
        stop = start + 1 + len(leaves)  # a head is followed by its leaflets
        if head_polled:
            leaf_polled = [attempt(_POLL, head, leaf, t0 + hop) for leaf in leaves]
            replied = [ok and attempt(_DATA, leaf, head, t0 + 2 * hop)
                       for leaf, ok in zip(leaves, leaf_polled)]
            if attempt(_DATA, head, root, t0 + 3 * hop):
                lost += [(i, i + 1) for i, ok in enumerate(replied, start + 1) if not ok]
            else:
                lost.append((start, stop))  # the aggregate is lost: the whole branch
        else:
            lost.append((start, stop))  # head never polled; the whole branch stays silent
        start = stop

    nulls = [None] * len(nodes)
    for column in columns:
        for start, stop in lost:
            column[start:stop] = nulls[start:stop]
    channels = [spec.channel for spec in sensors]
    events = sorted(events, key=attrgetter("time_ms"))  # stable: ties keep emission order
    return Snapshot(round_index, t0, nodes, dict(zip(channels, map(tuple, columns)))), events


def run_simulation(
    cfg: SimConfig,
    sink: Callable[[Snapshot], None],
    on_event: Callable[[SimEvent], None] | None = None,
) -> SimSummary:
    """Run all configured rounds, handing each Snapshot to ``sink`` in order."""
    sent = 0
    dropped = 0
    for round_index in range(cfg.rounds):
        snapshot, events = run_round(cfg, round_index)
        lost = [ev.kind for ev in events].count(_LINK_DROP)
        dropped += lost
        sent += len(events) - lost
        if on_event is not None:
            for ev in events:
                on_event(ev)
        try:
            sink(snapshot)
        except Exception as e:
            raise SimError(
                "SINK_FAILURE", f"sink failed at round {round_index}: {e}",
                round_index=round_index,
            ) from e
    return SimSummary(rounds_run=cfg.rounds, messages_sent=sent, messages_dropped=dropped)
