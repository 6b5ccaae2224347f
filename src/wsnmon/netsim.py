"""Deterministic round-based collection over the tree: polls, replies, drops.

One round follows the two-tier pull protocol: the base station interrupt-calls
each cluster head in configuration order, a polled head interrupt-calls its
leaflets, leaflet data flows back to the head, and the head sends one
aggregate message to the base station. Every message independently fails with
the radio's failure probability (or deterministically when its link is forced
down); any node whose data depended on a lost message gets a NULL reading for
the round. Nothing is retried and nothing is cached across rounds.

Reproducibility: all randomness comes from streams derived from the config
seed by fixed strings, so identical configs give byte-identical runs. The
environment's walk is generated once per run and carried forward
(``truth_at`` is amortized O(1)), so a round costs the same at round 5 as at
round 5000, and ``run_round`` still gives any round on its own, in any order,
with the links its outages force down.
 - drop decisions:  Random(f"{seed}/drops/{round}"), consumed in emission
   order of attempted messages;
 - noise draws:     Random(f"{seed}/noise/{round}"), consumed for every
   sensing node and equipped sensor in topology order, whether or not the
   value survives (keeps values independent of drop outcomes).

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
from operator import attrgetter
from typing import Callable, NamedTuple

from .environment import Channel, EnvField, SensorSpec, sense, truth_at
from .errors import SimError
from .records import Reading, ReadingStatus, Snapshot
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


def trace_line(ev: SimEvent) -> str:
    """One exported trace line per event."""
    return f"{ev.time_ms} {ev.kind._value_} {ev.src} {ev.dst}"  # _value_: no property call


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
    topology: TreeTopology
    field: EnvField
    sensors: tuple[SensorSpec, ...]
    rounds: int
    round_period_ms: int = DEFAULT_ROUND_PERIOD_MS
    hop_latency_ms: int = DEFAULT_HOP_LATENCY_MS
    seed: int = 0
    outages: tuple[LinkOutage, ...] = ()

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
        channels = [s.channel for s in self.sensors]
        if len(set(channels)) != len(channels):
            raise SimError("INVALID_CONFIG", "duplicate sensor channel")
        for required in (Channel.TEMP_C, Channel.LIGHT_RAW):
            if required not in channels:
                raise SimError("INVALID_CONFIG", f"sensor for {required.value} is required")
        for s in self.sensors:
            # the file format stores these as unsigned integers
            if s.channel is not Channel.TEMP_C:
                if not (float(s.quantum).is_integer() and float(s.min_value).is_integer()
                        and s.min_value >= 0):
                    raise SimError(
                        "INVALID_CONFIG",
                        f"{s.channel.value} quantum/min must be whole numbers, min >= 0",
                    )
            if s.channel not in self.field.channels:
                raise SimError(
                    "INVALID_CONFIG", f"no field configured for {s.channel.value}"
                )
        for outage in self.outages:
            if not self.topology.is_link(outage.src, outage.dst):
                raise SimError("NOT_A_LINK", f"{outage.src}->{outage.dst} is not a tree link")


@dataclass(frozen=True)
class SimSummary:
    rounds_run: int
    messages_sent: int
    messages_dropped: int


class _Round:
    """Builder for one round's events and readings."""

    def __init__(self, cfg: SimConfig, round_index: int):
        self.cfg = cfg
        self.down = {(o.src, o.dst) for o in cfg.outages if o.covers(round_index)}
        self.t0 = round_index * cfg.round_period_ms
        self.round_index = round_index
        self.drop_rng = random.Random(f"{cfg.seed}/drops/{round_index}")
        self.failure_prob = cfg.topology.radio.failure_prob
        self.events: list[SimEvent] = []

    def attempt(self, kind: EventKind, src: str, dst: str, at: int) -> bool:
        """Emit the message event; decide and mark loss. True when delivered."""
        self.events.append(SimEvent(at, kind, src, dst))
        if (src, dst) in self.down:
            dropped = True  # forced outage, no draw consumed
        else:
            dropped = self.drop_rng.random() < self.failure_prob
        if dropped:
            self.events.append(SimEvent(at, EventKind.LINK_DROP, src, dst))
        return not dropped

    def measure_all(self) -> dict[str, Reading]:
        """Sense every equipped channel on every node (draws always consumed)."""
        cfg = self.cfg
        noise = random.Random(f"{cfg.seed}/noise/{self.round_index}").random
        plan = [(spec.channel, spec, truth_at(cfg.field, spec.channel, self.round_index))
                for spec in cfg.sensors]
        readings: dict[str, Reading] = {}
        for node in cfg.topology.sensing_nodes():
            # -1.0 + 2.0 * noise() is Random.uniform(-1.0, 1.0), without its call
            values = {channel: sense(spec, truth, -1.0 + 2.0 * noise())
                      for channel, spec, truth in plan}
            readings[node] = Reading(node, self.round_index, self.t0, values)
        return readings


def run_round(cfg: SimConfig, round_index: int) -> tuple[Snapshot, list[SimEvent]]:
    """Simulate one collection round, with the links ``cfg.outages`` force down.

    Returns the round's Snapshot (exactly one Reading per sensing node; lost
    branches are NULL, never absent) and its events in (time, emission) order.
    """
    if not 0 <= round_index < cfg.rounds:
        raise SimError(
            "ROUND_OUT_OF_RANGE", f"round {round_index} not in 0..{cfg.rounds - 1}"
        )
    rnd = _Round(cfg, round_index)
    topo = cfg.topology
    hop = cfg.hop_latency_ms
    t0 = rnd.t0
    measured = rnd.measure_all()
    delivered: dict[str, Reading] = {}

    heads = topo.cluster_heads()
    polled = {h: rnd.attempt(EventKind.INTERRUPT_CALL, topo.root, h, t0) for h in heads}
    for head in heads:
        if not polled[head]:
            continue  # head never polled; the whole branch stays silent
        leaf_data: list[Reading] = []
        leaf_polled = {
            leaf: rnd.attempt(EventKind.INTERRUPT_CALL, head, leaf, t0 + hop)
            for leaf in topo.leaflets(head)
        }
        for leaf in topo.leaflets(head):
            if leaf_polled[leaf] and rnd.attempt(EventKind.DATA_MSG, leaf, head, t0 + 2 * hop):
                leaf_data.append(measured[leaf])
        aggregate = (measured[head], *leaf_data)
        if rnd.attempt(EventKind.DATA_MSG, head, topo.root, t0 + 3 * hop):
            for reading in aggregate:
                delivered[reading.node] = reading

    readings = tuple(
        delivered[node] if node in delivered else Reading(
            node, round_index, t0, dict.fromkeys(measured[node].values), ReadingStatus.NULL)
        for node in topo.sensing_nodes()
    )
    events = sorted(rnd.events, key=attrgetter("time_ms"))  # stable: ties keep emission order
    return Snapshot(round=round_index, time_ms=t0, readings=readings), events


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
        for ev in events:
            if ev.kind is EventKind.LINK_DROP:
                dropped += 1
            else:
                sent += 1
            if on_event is not None:
                on_event(ev)
        try:
            sink(snapshot)
        except Exception as e:
            raise SimError(
                "SINK_FAILURE", f"sink failed at round {round_index}: {e}",
                round_index=round_index,
            ) from e
    return SimSummary(rounds_run=cfg.rounds, messages_sent=sent, messages_dropped=dropped)
