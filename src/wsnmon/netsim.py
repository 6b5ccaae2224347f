"""The sensor tree and deterministic round-based collection over it: polls,
replies, drops.

The tree is fixed at depth 2 below the root, ``BS``: cluster heads, each
with its leaflets. A ``TreeTopology`` is its children map and its radio, and
is immutable. Children keep their configuration order, which is what makes
polling, and so the whole simulation, deterministic. A tree is built by
``add_cluster`` steps, then ``TreeTopology``; node positions, and their
radio range check, belong to ``config.parse_config``.

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
byte-identical runs. The environment's walk keeps its position and steps on
from it, so a run that goes forward costs one step per walking channel a
round, the same at round 5 as at round 5000, and holds no walk history.
``run_round`` still gives any round on its own, in any order, with the links
its outages force down; a round earlier than the walk's position replays the
walk from round 0.
 - drop decisions:  Random(f"{seed}/drops/{round}"), one draw per attempted
   message in emission order; a message on a forced-down link takes none;
 - noise draws:     Random(f"{seed}/noise/{round}"), consumed for every
   sensing node and equipped sensor in topology order, whether or not the
   value survives (keeps values independent of drop outcomes);
 - walk steps:      Random(f"{seed}/walk/{channel}"), see ``environment``.

A node carries the default sensor (``environment.DEFAULT_SPECS``) of each
channel its field configures, so ``SimConfig.sensors`` is derived from the
field, in Channel order.

A round is decided by hop tier, then sensed. The drop stream is read as a
stream of decisions (delivered when a draw is >= the failure probability):
one C-level pass takes the head polls' decisions, then, for each polled head,
one pass each takes its leaflet polls', its polled leaflets' replies' and its
aggregate's. In a round with forced-down links, the head polls and the
passes of each head that a down link touches are comprehensions that give a
down link False without a draw; every other head keeps its C-level passes.
The Snapshot and the trace text come from those decision lists, and
``SimSummary``'s counts are kept by the walk that takes them.

A round is built as columns: once the links are decided, every noise draw is
taken in its fixed order, but only the draws of the cells whose data arrives
are kept, and only those cells are sensed; every other cell is None. The
Snapshot holds one column per equipped channel; no per-node object is built.

Sensing by step lookup: ``environment.sense`` is the one definition of a
sensed value, and its value depends only on the spec and the quantization
step. A round computes each draw's step with sense's own arithmetic, in its
order (a reassociated form is not bit-identical), but rounds it in float
arithmetic: adding and subtracting 1.5 * 2**52 gives ``round()``'s
half-to-even step exactly below 2**51, as an integral float, so the step
table's keys are integral floats, equal and hash-equal to sense's int
steps. One ``itemgetter`` call maps a column's steps through the spec's step
table; a miss senses one draw of each new step and maps again. Where the
step could overflow or be inexact (truth infinite, nan, or 2**50 quanta from
min_value), and in a column of fewer than two cells, the round calls
``sense`` for each cell it senses.

Event timing within a round starting at t0 (hop = per-message latency):
polls BS->head at t0, polls head->leaflet at t0+hop, leaflet replies at
t0+2*hop, head aggregates at t0+3*hop. A LINK_DROP event marks each lost
message at the same timestamp. Events are ordered by time_ms, and events
with the same time_ms keep their emission order.

The trace text is the one rendering of a round's message order, and no
per-run text table backs it. Each tier's text is one ``str.join`` per polled
head (one for the head polls) over the labels in the tree's ``children``,
whose separator carries the time, the kind and the fixed endpoint; only a
lost message's element, its label followed by its LINK_DROP line, is built in
the round. With hop 0 every event has one time, so the text follows emission
order, cluster by cluster, rather than tier order. ``run_round`` returns that
text, and ``run_simulation``'s ``on_event`` gets each of its lines split into
an ``(time_ms, kind, src, dst)`` tuple; ``run_simulation`` releases a round's
text once ``on_trace`` has written it, before the sink runs.
"""

from __future__ import annotations

import math
import random
from itertools import compress, islice, repeat
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from ._frozen import Frozen
# the round's record; the log header's rule for a node label, and the root it may not
# name; the bound of a run's value caches, which the step tables share
from .basestation import DEFAULT_ROOT, _VALUE_CACHE_MAX, Snapshot, validate_label
from .environment import DEFAULT_SPECS, Channel, EnvField, SensorSpec, sense, truth_at
from .errors import SimError, TopologyError, WsnError

DEFAULT_ROUND_PERIOD_MS = 1000
DEFAULT_HOP_LATENCY_MS = 10


def trace_line(ev: tuple[int, str, str, str]) -> str:
    """The trace line, without its LF, of an ``(time_ms, kind, src, dst)`` event."""
    time_ms, kind, src, dst = ev
    return f"{time_ms} {kind} {src} {dst}"


class RadioSpec(Frozen):
    """Uniform per-link radio parameters (every node's range is the same)."""

    _fields = __slots__ = ("range_m", "failure_prob")

    def __init__(self, range_m: float, failure_prob: float = 0.0):
        if not math.isfinite(range_m) or range_m <= 0:
            raise TopologyError("INVALID_RADIO", f"range_m must be positive, got {range_m}")
        if not 0.0 <= failure_prob <= 1.0:
            raise TopologyError(
                "INVALID_RADIO", f"failure_prob must be in [0,1], got {failure_prob}"
            )
        self._init(range_m, failure_prob)


class TreeTopology(Frozen):
    """Immutable depth-2 tree rooted at the base station, ``root`` (``BS``).

    ``children`` maps every node, the root included, to its ordered child
    tuple: the root's children are the cluster heads, a head's are its
    leaflets, and a leaflet's is empty. It is the only description of the
    tree; treat it as read-only. ``add_cluster`` steps grow ``children`` and
    check its labels; the constructor takes it over, the root's head list
    made a tuple, and raises EMPTY_TOPOLOGY when the root has no heads.
    """

    _fields = ("children", "radio")
    __slots__ = (*_fields, "_nodes")
    root = DEFAULT_ROOT

    def __init__(self, children: dict, radio: RadioSpec):
        heads = tuple(children.get(self.root, ()))
        if not heads:
            raise TopologyError("EMPTY_TOPOLOGY", "at least one cluster head is required")
        children[self.root] = heads  # add_cluster grows it as a list
        nodes: list[str] = []
        for head in heads:
            nodes.append(head)
            nodes.extend(children[head])
        self._init(children, radio, tuple(nodes))

    def sensing_nodes(self) -> tuple[str, ...]:
        """All nodes that sense, in deterministic polling order.

        Each cluster head is immediately followed by its leaflets, heads in
        configuration order. This order fixes telemetry record order too.
        The tuple is built once, with the topology.
        """
        return self._nodes

    def is_link(self, a: str, b: str) -> bool:
        """True when (a, b) is a tree edge in either direction."""
        for node in (a, b):
            if node not in self.children:
                raise TopologyError("UNKNOWN_NODE", f"no node {node!r}")
        return b in self.children[a] or a in self.children[b]


def add_cluster(children: dict, head: str, leaves: Sequence[str]) -> None:
    """Check the labels of the cluster ``head`` with ``leaves``, then add it
    to ``children``, a tree's children map grown from ``{}`` (its root entry
    lists the heads added so far, and takes the root's name before any
    label). Raises INVALID_LABEL or DUPLICATE_LABEL."""
    heads = children.setdefault(DEFAULT_ROOT, [])
    for label in (head, *leaves):
        validate_label(label)
        if label in children:
            raise TopologyError("DUPLICATE_LABEL", f"label {label!r} used twice")
        children[label] = ()
    children[head] = tuple(leaves)
    heads.append(head)


class LinkOutage(Frozen):
    """Force the directed link src->dst down for rounds first..last inclusive."""

    _fields = __slots__ = ("src", "dst", "first_round", "last_round")

    def __init__(self, src: str, dst: str, first_round: int, last_round: int):
        if first_round < 0 or last_round < first_round:
            raise SimError(
                "INVALID_CONFIG", f"outage rounds {first_round}..{last_round} out of order")
        self._init(src, dst, first_round, last_round)

    def covers(self, round_index: int) -> bool:
        return self.first_round <= round_index <= self.last_round


class SimConfig(Frozen):
    """A run: the tree, the field (whose seed drives every random stream, see
    the module docstring), and the round schedule. ``sensors``, the default
    spec of each channel the field configures in Channel order, is derived
    from the field once, at construction."""

    _fields = ("topology", "field", "rounds", "round_period_ms", "hop_latency_ms", "outages")
    __slots__ = (*_fields, "sensors")

    def __init__(self, topology: TreeTopology, field: EnvField, rounds: int,
                 round_period_ms: int = DEFAULT_ROUND_PERIOD_MS,
                 hop_latency_ms: int = DEFAULT_HOP_LATENCY_MS,
                 outages: tuple[LinkOutage, ...] = ()):
        if rounds < 1:
            raise SimError("INVALID_CONFIG", f"rounds must be >= 1, got {rounds}")
        if round_period_ms <= 0:
            raise SimError("INVALID_CONFIG", "round_period_ms must be > 0")
        if hop_latency_ms < 0:
            raise SimError("INVALID_CONFIG", "hop_latency_ms must be >= 0")
        if round_period_ms < 4 * hop_latency_ms:
            # a round's four hops must finish before the next round starts
            raise SimError(
                "INVALID_CONFIG",
                f"period_ms {round_period_ms} must be >= 4x hop_ms {hop_latency_ms}",
            )
        try:  # the log and the trace write every event time as text
            str((rounds - 1) * round_period_ms + 3 * hop_latency_ms)
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise SimError("INVALID_CONFIG", "the last round's event times have too many "
                           "digits to write") from None
        for required in (Channel.TEMP_C, Channel.LIGHT_RAW):
            if required not in field.channels:
                raise SimError("INVALID_CONFIG", f"no field configured for {required.value}")
        for outage in outages:
            try:
                if not topology.is_link(outage.src, outage.dst):
                    raise SimError("NOT_A_LINK", f"{outage.src}->{outage.dst} is not a link")
            except WsnError as e:  # a non-link, or a TopologyError for an unknown node
                e.outage = outage  # lets parse_config name the line that declared it
                raise
        sensors = tuple(DEFAULT_SPECS[ch] for ch in Channel if ch in field.channels)
        self._init(topology, field, rounds, round_period_ms, hop_latency_ms, outages, sensors)


class SimSummary(NamedTuple):
    """A run's totals: ``messages_sent`` counts every attempted message,
    dropped ones included, and ``messages_dropped`` those that were lost. A
    run that returns one ran every round of its config (an interrupt raises)."""

    messages_sent: int
    messages_dropped: int


# x + _HALF_EVEN - _HALF_EVEN is round(x), as a float, for |x| < 2**51: the sum
# lies in [2**52, 2**53], where a float's unit is 1 and addition rounds half to even
_HALF_EVEN = 1.5 * 2.0 ** 52


def _sense_column(spec: SensorSpec, truth: float, draws: list[float]) -> Sequence[float]:
    """``sense(spec, truth, u)`` for each draw's u, by step lookup (see the
    module docstring); -1.0 + 2.0 * draw is Random.uniform(-1.0, 1.0). A
    step is sense's, rounded in float arithmetic, which is exact below 2**51:
    the step table's keys are integral floats."""
    acc, lo, q = spec.accuracy, spec.min_value, spec.quantum
    # past 2**50 quanta a step may be inexact or overflow: sense saturates or
    # raises; itemgetter takes at least one step, and of one gives its value bare
    if len(draws) < 2 or not abs(truth - lo) + acc < 2.0 ** 50 * q:  # False for inf, nan
        return [sense(spec, truth, -1.0 + 2.0 * r) for r in draws]
    # sense's arithmetic in sense's order: a reassociated form may round differently
    steps = [(truth + (-1.0 + 2.0 * r) * acc - lo) / q + _HALF_EVEN - _HALF_EVEN
             for r in draws]
    table, get = spec._sensed, itemgetter(*steps)  # one C-level lookup per column
    try:
        return get(table)
    except KeyError:  # a step not sensed before: sense one draw of each new step
        # a run senses the steps near its truths over and over; the bound is
        # checked before the new steps go in, so a table holds at most
        # _VALUE_CACHE_MAX steps plus one column's new ones
        if len(table) >= _VALUE_CACHE_MAX:
            table.clear()
        draw_of = dict(zip(steps, draws))
        for step in draw_of.keys() - table.keys():
            table[step] = sense(spec, truth, -1.0 + 2.0 * draw_of[step])
        return get(table)


def _round(cfg: SimConfig, round_index: int) -> tuple[Snapshot, list[bool], list, int, int]:
    """Decide the round's messages tier by tier, then sense its delivered cells.

    Returns the Snapshot, the head polls' decisions (True: delivered), per
    head its ``(leaflet polls, replies of the polled leaflets, aggregate)``
    decisions or None for a head that was not polled, and the counts of the
    round's attempted and dropped messages, kept as the decisions are taken.
    """
    if not 0 <= round_index < cfg.rounds:
        raise SimError(
            "ROUND_OUT_OF_RANGE", f"round {round_index} not in 0..{cfg.rounds - 1}"
        )
    topo = cfg.topology
    root, children = topo.root, topo.children
    heads = children[root]
    down = {(o.src, o.dst) for o in cfg.outages if o.covers(round_index)}
    touched = {node for link in down for node in link}  # a head here may lose a link
    drops = random.Random(f"{cfg.field.seed}/drops/{round_index}")
    # the drop stream read as decisions, one per message: delivered when draw >= p
    ok = map(float(topo.radio.failure_prob).__le__, map(random.Random.random, repeat(drops)))
    # a forced outage drops without consuming a draw
    if down:
        polled = [(root, head) not in down and next(ok) for head in heads]
    else:
        polled = list(islice(ok, len(heads)))
    branches: list[tuple[list[bool], list[bool], bool] | None] = []
    delivered: list[int] = []  # the sensing-node indices whose data arrives
    sent, dropped = len(heads), polled.count(False)
    start = 0
    for head, head_polled in zip(heads, polled):
        leaves = children[head]
        if head_polled:
            if head in touched:  # every link of its branch has the head as an endpoint
                leaf_polled = [(head, leaf) not in down and next(ok) for leaf in leaves]
                replied = [(leaf, head) not in down and next(ok)
                           for leaf in compress(leaves, leaf_polled)]
                aggregated = (head, root) not in down and next(ok)
            else:
                leaf_polled = list(islice(ok, len(leaves)))
                replied = list(islice(ok, leaf_polled.count(True)))
                aggregated = next(ok)
            branches.append((leaf_polled, replied, aggregated))
            sent += len(leaves) + len(replied) + 1
            dropped += len(leaves) - len(replied) + replied.count(False) + (not aggregated)
            if aggregated:  # a head is followed by its leaflets
                delivered.append(start)
                delivered += compress(compress(range(start + 1, start + 1 + len(leaves)),
                                               leaf_polled), replied)
        else:
            branches.append(None)  # head never polled; the whole branch stays silent
        start += 1 + len(leaves)

    nodes = topo.sensing_nodes()
    sensors = cfg.sensors
    width = len(sensors)
    # only the delivered cells are sensed; rank maps a node to its place among
    # them, 0 (None) for a lost one, and each of its cells takes its rank
    rank = [0] * len(nodes)
    for place, i in enumerate(delivered, 1):
        rank[i] = place
    cells = [0] * (len(nodes) * width)
    for i in range(width):
        cells[i::width] = rank
    noise = random.Random(f"{cfg.field.seed}/noise/{round_index}")
    # every draw is taken in its fixed order, node by node, sensor by sensor,
    # lost nodes included; only the delivered cells' draws are kept
    kept = list(compress(map(random.Random.random, repeat(noise, len(cells))), cells))
    place_cells = itemgetter(0, *rank)  # the leading 0 keeps a tuple for one node
    columns = {}
    for i, spec in enumerate(sensors):
        sensed = _sense_column(spec, truth_at(cfg.field, spec.channel, round_index),
                               kept[i::width])
        columns[spec.channel] = place_cells((None, *sensed))[1:]
    snapshot = Snapshot(round_index, round_index * cfg.round_period_ms, nodes, columns)
    return snapshot, polled, branches, sent, dropped


def _lines(pre: str, end: str, drop: str, labels, ok) -> str:
    """``pre + label + end`` for each label, a lost one's (False in ``ok``)
    followed by ``drop + label + end``: one str.join whose separator carries
    the time, the kind and the fixed endpoint."""
    if not ok:
        return ""
    if False in ok:  # only a lost message's element is built
        labels = [x if d else f"{x}{end}{drop}{x}" for x, d in zip(labels, ok)]
    return pre + (end + pre).join(labels) + end


def _trace_text(topo: TreeTopology, t0: int, hop: int,
                polled: list[bool], branches: list) -> str:
    """The round's ``trace_line`` text, one LF-terminated line per event, in
    (time, emission) order, from its decisions."""
    root, children = topo.root, topo.children
    heads = children[root]
    t1, t2, t3 = t0 + hop, t0 + 2 * hop, t0 + 3 * hop
    data, data_drop = f"{t2} DATA_MSG ", f"{t2} LINK_DROP "
    clusters = []  # per polled head: its leaflet polls', replies' and aggregate's text
    for head, (leaf_polled, replied, aggregated) in zip(compress(heads, polled),
                                                        filter(None, branches)):
        leaves = children[head]
        aggregate = f"{t3} DATA_MSG {head} {root}\n"
        clusters.append((
            _lines(f"{t1} INTERRUPT_CALL {head} ", "\n", f"{t1} LINK_DROP {head} ",
                   leaves, leaf_polled),
            _lines(data, f" {head}\n", data_drop, compress(leaves, leaf_polled), replied),
            aggregate if aggregated else f"{aggregate}{t3} LINK_DROP {head} {root}\n"))
    polls = _lines(f"{t0} INTERRUPT_CALL {root} ", "\n", f"{t0} LINK_DROP {root} ",
                   heads, polled)
    if not hop:  # one time for every event: emission order, cluster by cluster
        return polls + "".join(map("".join, clusters))
    return polls + "".join(map("".join, zip(*clusters)))


def run_round(cfg: SimConfig, round_index: int) -> tuple[Snapshot, str]:
    """Simulate one collection round, with the links ``cfg.outages`` force down.

    Returns the round's Snapshot (a row for every sensing node; a lost
    node's cells are None, never absent) and its trace text.
    """
    snapshot, polled, branches, _, _ = _round(cfg, round_index)
    return snapshot, _trace_text(cfg.topology, snapshot.time_ms, cfg.hop_latency_ms,
                                 polled, branches)


def run_simulation(
    cfg: SimConfig,
    sink: Callable[[Snapshot], None],
    on_event: Callable[[tuple[int, str, str, str]], None] | None = None,
    on_trace: Callable[[str], None] | None = None,
) -> SimSummary:
    """Run all configured rounds, handing each Snapshot to ``sink`` in order.

    Before a round's Snapshot goes to ``sink``, ``on_trace`` gets its trace
    text, one LF-terminated ``trace_line`` per event, and ``on_event`` gets
    each of its events as an ``(time_ms, kind, src, dst)`` tuple. A line
    splits on its spaces: ``add_cluster``'s ``validate_label`` refuses a
    label with whitespace. A failure of ``on_trace`` or ``sink`` is a
    SINK_FAILURE.
    """
    traced = on_trace is not None or on_event is not None
    sent = dropped = 0
    for round_index in range(cfg.rounds):
        snapshot, polled, branches, attempted, lost = _round(cfg, round_index)
        sent += attempted
        dropped += lost
        text = _trace_text(cfg.topology, snapshot.time_ms, cfg.hop_latency_ms,
                           polled, branches) if traced else None
        if on_event is not None:
            for time_ms, kind, src, dst in map(str.split, text.splitlines()):
                on_event((int(time_ms), kind, src, dst))
        try:
            if on_trace is not None:
                on_trace(text)
            text = None  # written: not held by the sink nor while the next round is built
            sink(snapshot)
        except Exception as e:
            raise SimError(
                "SINK_FAILURE", f"sink failed at round {round_index}: {e}") from e
    return SimSummary(messages_sent=sent, messages_dropped=dropped)
