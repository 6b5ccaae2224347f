"""Shared builders and independent oracles for the test suite.

The oracle functions re-derive expected values from first principles
(breadth-first search, structural enumeration, brute-force scans) so tests
never compare the implementation against itself.
"""

from __future__ import annotations

import contextlib
import random
from collections import deque
from typing import Iterator, NamedTuple

from wsnmon.alerts import AlertRule, Comparator, Severity
from wsnmon.basestation import _COLUMN_TEXTS, Snapshot, format_value
from wsnmon.environment import DEFAULT_SPECS, Channel, ChannelModel, EnvField, sense
from wsnmon.netsim import RadioSpec, SimConfig, TreeTopology, add_cluster

DESK_CLUSTERS = [("N1", ["1.1", "1.2"]), ("N2", ["2.1", "2.2"])]
DESK_NODES = ("N1", "1.1", "1.2", "N2", "2.1", "2.2")

GAS_CHANNELS = (Channel.CH4_PPM, Channel.CO_PPM, Channel.O2_PCT)


def build_tree(clusters, radio: RadioSpec) -> TreeTopology:
    """The tree of ``(head, leaflets)`` pairs, built as ``parse_config`` builds
    one: an ``add_cluster`` step per pair, then ``TreeTopology``. Positions,
    and their radio range check, are ``parse_config``'s alone."""
    children: dict = {}
    for head, leaves in clusters:
        add_cluster(children, head, leaves)
    return TreeTopology(children, radio)


@contextlib.contextmanager
def empty_value_caches() -> Iterator[None]:
    """Run the block with a run's process-wide value caches empty, and leave
    them empty: the step table of each default sensor spec, and the writer's
    text cache of each log column (None seeded, as at import)."""
    def empty():
        for spec in DEFAULT_SPECS.values():
            spec._sensed.clear()
        for _, texts in _COLUMN_TEXTS:
            texts.clear()
            texts[None] = "NULL"
    empty()
    try:
        yield
    finally:
        empty()


def desk_topology(failure_prob: float = 0.0, range_m: float = 30.0):
    return build_tree(DESK_CLUSTERS, RadioSpec(range_m, failure_prob))


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
    topo = build_tree(clusters or DESK_CLUSTERS, RadioSpec(30.0, failure_prob))
    if field is None:
        field = default_field(seed=seed)
        if gas:
            models = dict(field.channels)
            models[Channel.CH4_PPM] = ChannelModel(1000.0)
            models[Channel.CO_PPM] = ChannelModel(10.0)
            models[Channel.O2_PCT] = ChannelModel(21.0)
            field = EnvField(channels=models, seed=seed)
    return SimConfig(topology=topo, field=field, rounds=rounds, **kwargs)


# ------------------------------------------------ rows, events, counts and text


class Row(NamedTuple):
    """One node's cells for one round: ``values`` maps exactly the channels
    the node carries to its cell."""

    node: str
    values: dict


class Event(NamedTuple):
    """One line of a trace text: a message or the loss of one."""

    time_ms: int
    kind: str
    src: str
    dst: str


def trace_events(text: str) -> list[Event]:
    """The events of a trace text, one per line."""
    return [Event(int(time_ms), kind, src, dst)
            for time_ms, kind, src, dst in map(str.split, text.splitlines())]


def from_readings(round_index: int, time_ms: int, rows) -> Snapshot:
    """The snapshot of ``rows`` (``Row``s), which all carry the same channels."""
    rows = tuple(rows)
    carried = rows[0].values.keys()
    assert all(r.values.keys() == carried for r in rows), "rows carry different channels"
    columns = {channel: tuple(r.values[channel] for r in rows) for channel in carried}
    return Snapshot(round_index, time_ms, tuple(r.node for r in rows), columns)


def readings(snapshot: Snapshot) -> tuple[Row, ...]:
    """Every row of ``snapshot`` as a ``Row``, in node order."""
    columns = snapshot.columns.items()
    return tuple(Row(node, {channel: column[i] for channel, column in columns})
                 for i, node in enumerate(snapshot.nodes))


def round_message_count(t: TreeTopology) -> int:
    """Messages per collection round: one poll + one data reply per link."""
    heads = t.children[t.root]
    return 2 * len(heads) + 2 * sum(len(t.children[h]) for h in heads)


def _format_number(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(v)


def format_topology(t: TreeTopology, positions=None) -> str:
    """A topology, with ``pos`` lines for ``positions``, as config lines
    (``parse_config`` gives the topology back exactly)."""
    lines = [f"radio {_format_number(t.radio.range_m)} {_format_number(t.radio.failure_prob)}"]
    for head in t.children[t.root]:
        lines.append(" ".join(["cluster", head, *t.children[head]]))
    for node, (x, y) in (positions or {}).items():
        lines.append(f"pos {node} {_format_number(x)} {_format_number(y)}")
    return "\n".join(lines) + "\n"


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
        return snapshot.reading_for(node).get(channel)

    def holds(rule: AlertRule, value) -> bool:
        if value is None:
            return False
        if rule.comparator is Comparator.GREATER:
            return value > rule.threshold
        return value < rule.threshold

    fired = []
    for rule in rules:
        for node in snapshots[0].nodes:
            for i, snapshot in enumerate(snapshots):
                now = holds(rule, observed(snapshot, node, rule.channel))
                before = i > 0 and holds(rule, observed(snapshots[i - 1], node, rule.channel))
                if now and not before:
                    value = observed(snapshot, node, rule.channel)
                    fired.append((rule.rule_id, node, snapshot.round, value))
    return sorted(fired)


def record_line(prefix: str, r: Row) -> str:
    """Reference renderer of one record; ``prefix`` is ``<round>,<time_ms>,``.

    Every field is formatted on its own, with no text cache: "-" for a
    channel the node does not carry, NULL for None, else ``format_value``;
    the status is NULL exactly when temperature (always carried) is.
    """
    fields = [prefix + r.node]
    for channel in Channel:
        value = r.values.get(channel, "-")
        fields.append("-" if value == "-" else "NULL" if value is None
                      else format_value(channel, value))
    fields.append("NULL" if r.values[Channel.TEMP_C] is None else "OK")
    return ",".join(fields)


def reference_block(snapshot: Snapshot) -> str:
    """The record lines of ``snapshot``, one ``record_line`` per reading."""
    prefix = f"{snapshot.round},{snapshot.time_ms},"
    return "".join(record_line(prefix, r) + "\n" for r in readings(snapshot))


# ------------------------------------------------- reference simulator


def naive_walk(seed: int, token: str, baseline: float, sigma: float, round_index: int) -> float:
    """The walk replayed from round 0, as the environment docstring defines it."""
    rng = random.Random(f"{seed}/walk/{token}")
    value = baseline
    for _ in range(round_index):
        value += rng.gauss(0.0, sigma)
    return value


def naive_hold(baseline: float, script, round_index: int) -> float:
    """The value of the last breakpoint at or before the round, else the baseline."""
    held = [value for bp_round, value in script if bp_round <= round_index]
    return held[-1] if held else baseline


def naive_truth(field: EnvField, channel: Channel, round_index: int) -> float:
    """A channel's truth from its model alone: a walk when sigma is set, else a hold."""
    model = field.channels[channel]
    if model.sigma:
        return naive_walk(field.seed, channel.value, model.baseline, model.sigma, round_index)
    return naive_hold(model.baseline, model.script, round_index)


def reference_round(cfg: SimConfig, round_index: int) -> tuple[Snapshot, str]:
    """A slow ``run_round`` read off the netsim docstring, with per-node dicts
    and plain loops.

    Messages go out in the documented emission order, each taking one drop
    draw unless its link is forced down; the events are then sorted stably by
    time and rendered a line each. Every node senses every channel with
    ``sense``, one noise draw per cell whether or not its data survives, and a
    node is NULL when a message on its path is lost (``nulled_by_link``).
    """
    topo = cfg.topology
    root, hop = topo.root, cfg.hop_latency_ms
    clusters = [(head, topo.children[head]) for head in topo.children[root]]
    t0 = round_index * cfg.round_period_ms
    down = {(o.src, o.dst) for o in cfg.outages
            if o.first_round <= round_index <= o.last_round}
    drops = random.Random(f"{cfg.field.seed}/drops/{round_index}")
    events = []
    lost_links = []

    def send(kind: str, src: str, dst: str, hops: int) -> bool:
        """Emit one message ``hops`` hop latencies into the round; True when delivered."""
        events.append((t0 + hops * hop, kind, src, dst))
        lost = (src, dst) in down or drops.random() < topo.radio.failure_prob
        if lost:
            events.append((t0 + hops * hop, "LINK_DROP", src, dst))
            lost_links.append((src, dst))
        return not lost

    polled = {}
    for head, _ in clusters:
        polled[head] = send("INTERRUPT_CALL", root, head, 0)
    for head, leaves in clusters:
        if not polled[head]:
            continue
        reached = {}
        for leaf in leaves:
            reached[leaf] = send("INTERRUPT_CALL", head, leaf, 1)
        for leaf in leaves:
            if reached[leaf]:
                send("DATA_MSG", leaf, head, 2)
        send("DATA_MSG", head, root, 3)
    events.sort(key=lambda ev: ev[0])
    text = ""
    for time_ms, kind, src, dst in events:
        text += f"{time_ms} {kind} {src} {dst}\n"

    nulled = set()
    for link in lost_links:
        nulled |= nulled_by_link(clusters, link, root)
    specs = [DEFAULT_SPECS[channel] for channel in Channel if channel in cfg.field.channels]
    truths = {spec.channel: naive_truth(cfg.field, spec.channel, round_index) for spec in specs}
    noise = random.Random(f"{cfg.field.seed}/noise/{round_index}")
    nodes = [node for head, leaves in clusters for node in (head, *leaves)]
    values = {}
    for node in nodes:
        values[node] = {}
        for spec in specs:
            value = sense(spec, truths[spec.channel], noise.uniform(-1.0, 1.0))
            values[node][spec.channel] = None if node in nulled else value
    columns = {spec.channel: tuple(values[node][spec.channel] for node in nodes)
               for spec in specs}
    return Snapshot(round_index, t0, tuple(nodes), columns), text


# ------------------------------------------------- randomized test data


def grid_temp(rng: random.Random) -> float:
    """A temperature that sits exactly on the 0.0625 grid from -40."""
    return -40.0 + rng.randrange(0, int((125 + 40) / 0.0625) + 1) * 0.0625


def status_of(values) -> str:
    """"NULL" when every value of a row's ``{channel: cell}`` is None, "OK"
    when none is, else "MIXED"."""
    lost = [v is None for v in values.values()]
    return "NULL" if all(lost) else "MIXED" if any(lost) else "OK"


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
    rows = []
    for node in nodes:
        if rng.random() < null_prob:
            rows.append(Row(node, dict.fromkeys((Channel.TEMP_C, Channel.LIGHT_RAW, *gases))))
        else:
            gas_values = {
                g: float(rng.randrange(ranges[g][0], ranges[g][1] + 1)) for g in gases
            }
            rows.append(
                Row(node, {Channel.TEMP_C: grid_temp(rng),
                           Channel.LIGHT_RAW: float(rng.randrange(0, 65536)),
                           **gas_values})
            )
    return from_readings(round_index, time_ms, rows)


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
