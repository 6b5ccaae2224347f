"""Shared builders and independent oracles for the test suite.

The oracle functions re-derive expected values from first principles
(breadth-first search, structural enumeration, brute-force scans) so tests
never compare the implementation against itself.
"""

from __future__ import annotations

import random
from collections import deque

from wsnmon.environment import (
    Channel,
    ChannelModel,
    Drift,
    EnvField,
    default_spec,
)
from wsnmon.gateway import AlertRule, Comparator, Severity
from wsnmon.netsim import SimConfig
from wsnmon.records import Reading, ReadingStatus, Snapshot
from wsnmon.topology import RadioSpec, build_topology

DESK_CLUSTERS = [("N1", ["1.1", "1.2"]), ("N2", ["2.1", "2.2"])]
DESK_NODES = ("N1", "1.1", "1.2", "N2", "2.1", "2.2")

GAS_CHANNELS = (Channel.CH4_PPM, Channel.CO_PPM, Channel.O2_PCT)


def desk_topology(failure_prob: float = 0.0, range_m: float = 30.0):
    return build_topology(DESK_CLUSTERS, RadioSpec(range_m, failure_prob))


def default_field(seed: int = 0, **channels: ChannelModel) -> EnvField:
    models = {
        Channel.TEMP_C: ChannelModel(25.0),
        Channel.LIGHT_RAW: ChannelModel(512.0),
    }
    for name, model in channels.items():
        models[Channel(name)] = model
    return EnvField(channels=models, seed=seed)


def make_config(
    clusters=None,
    failure_prob: float = 0.0,
    rounds: int = 100,
    seed: int = 0,
    field: EnvField | None = None,
    gas: bool = False,
    **kwargs,
) -> SimConfig:
    topo = build_topology(clusters or DESK_CLUSTERS, RadioSpec(30.0, failure_prob))
    if field is None:
        field = default_field(seed=seed)
        if gas:
            models = dict(field.channels)
            models[Channel.CH4_PPM] = ChannelModel(1000.0)
            models[Channel.CO_PPM] = ChannelModel(10.0)
            models[Channel.O2_PCT] = ChannelModel(21.0)
            field = EnvField(channels=models, seed=seed)
    sensors = tuple(default_spec(ch) for ch in Channel if ch in field.channels)
    return SimConfig(
        topology=topo, field=field, sensors=sensors, rounds=rounds, seed=seed, **kwargs
    )


# ---------------------------------------------------------------- oracles


def bfs_path(clusters, src: str, dst: str, root: str = "BS") -> list[str]:
    """Shortest path oracle over the undirected tree edges."""
    adjacency: dict[str, list[str]] = {root: []}
    for head, leaves in clusters:
        adjacency.setdefault(head, []).append(root)
        adjacency[root].append(head)
        for leaf in leaves:
            adjacency.setdefault(leaf, []).append(head)
            adjacency[head].append(leaf)
    queue = deque([[src]])
    seen = {src}
    while queue:
        path = queue.popleft()
        if path[-1] == dst:
            return path
        for nxt in adjacency[path[-1]]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(path + [nxt])
    raise AssertionError(f"no path {src} -> {dst}")


def enumerate_round_messages(clusters, root: str = "BS") -> list[tuple[str, str]]:
    """Structural enumeration of one failure-free round's messages."""
    messages = []
    for head, leaves in clusters:
        messages.append((root, head))  # poll the head
        for leaf in leaves:
            messages.append((head, leaf))  # head polls each leaflet
        for leaf in leaves:
            messages.append((leaf, head))  # each leaflet replies
        messages.append((head, root))  # head ships the aggregate
    return messages


def nulled_by_link(clusters, link: tuple[str, str], root: str = "BS") -> set[str]:
    """Dependency-closure oracle: nodes whose round dies when ``link`` is down.

    A node's data survives only if every poll edge down to it and every data
    edge back up is delivered. Both chains are read off the tree structure.
    """
    nulled = set()
    for head, leaves in clusters:
        for node in [head, *leaves]:
            down = bfs_path(clusters, root, node)
            poll_edges = set(zip(down, down[1:]))
            data_edges = {(b, a) for a, b in poll_edges}
            if link in poll_edges or link in data_edges:
                nulled.add(node)
    return nulled


def brute_force_alerts(rules, snapshots) -> list[tuple[str, str, int, float]]:
    """Alert oracle: per-(rule, node, round) scan straight over log values.

    No incremental state is threaded anywhere: for every round the predicate
    and its previous-round value are recomputed directly from the snapshots.
    """

    def observed(snapshot, node: str, channel: Channel):
        return snapshot.reading_for(node).values.get(channel)

    def holds(rule: AlertRule, value) -> bool:
        if value is None:
            return False
        if rule.comparator is Comparator.GREATER:
            return value > rule.threshold
        return value < rule.threshold

    fired = []
    for rule in rules:
        for node in snapshots[0].nodes():
            for i, snapshot in enumerate(snapshots):
                now = holds(rule, observed(snapshot, node, rule.channel))
                before = i > 0 and holds(rule, observed(snapshots[i - 1], node, rule.channel))
                if now and not before:
                    value = observed(snapshot, node, rule.channel)
                    fired.append((rule.rule_id, node, snapshot.round, value))
    return sorted(fired)


# ------------------------------------------------- randomized test data


def grid_temp(rng: random.Random) -> float:
    """A temperature that sits exactly on the 0.0625 grid from -40."""
    return -40.0 + rng.randrange(0, int((125 + 40) / 0.0625) + 1) * 0.0625


def random_snapshot(
    rng: random.Random,
    round_index: int,
    nodes=DESK_NODES,
    gases=(),
    null_prob: float = 0.25,
    period_ms: int = 1000,
) -> Snapshot:
    time_ms = round_index * period_ms
    ranges = {
        Channel.CH4_PPM: (0, 50000),
        Channel.CO_PPM: (0, 1000),
        Channel.O2_PCT: (0, 25),
    }
    readings = []
    for node in nodes:
        if rng.random() < null_prob:
            readings.append(
                Reading(node, round_index, time_ms,
                        dict.fromkeys((Channel.TEMP_C, Channel.LIGHT_RAW, *gases)),
                        ReadingStatus.NULL)
            )
        else:
            gas_values = {
                g: float(rng.randrange(ranges[g][0], ranges[g][1] + 1)) for g in gases
            }
            readings.append(
                Reading(node, round_index, time_ms,
                        {Channel.TEMP_C: grid_temp(rng),
                         Channel.LIGHT_RAW: float(rng.randrange(0, 65536)), **gas_values},
                        ReadingStatus.OK)
            )
    return Snapshot(round=round_index, time_ms=time_ms, readings=tuple(readings))


def random_rules(rng: random.Random, count: int) -> list[AlertRule]:
    thresholds = {
        Channel.TEMP_C: (0.0, 50.0),
        Channel.LIGHT_RAW: (0.0, 65535.0),
        Channel.CH4_PPM: (0.0, 50000.0),
        Channel.CO_PPM: (0.0, 1000.0),
        Channel.O2_PCT: (0.0, 25.0),
    }
    rules = []
    for i in range(count):
        channel = rng.choice(list(Channel))
        lo, hi = thresholds[channel]
        rules.append(
            AlertRule(
                rule_id=f"r{i}",
                channel=channel,
                comparator=rng.choice([Comparator.GREATER, Comparator.LESS]),
                threshold=lo + rng.random() * (hi - lo),
                severity=rng.choice([Severity.WARN, Severity.DANGER]),
            )
        )
    return rules
