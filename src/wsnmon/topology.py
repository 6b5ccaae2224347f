"""Tree network structure: a base station root, cluster heads, and leaflets.

The tree is fixed at depth 2 below the root. Children lists keep their
configuration order, which is what makes polling (and therefore the whole
simulation) deterministic. Topology values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .errors import TopologyError

#: Labels that collide with value literals in the telemetry file format.
RESERVED_LABELS = frozenset({"NULL", "-"})

DEFAULT_ROOT = "BS"


class NodeRole(Enum):
    BASE_STATION = "BASE_STATION"
    CLUSTER_HEAD = "CLUSTER_HEAD"
    LEAFLET = "LEAFLET"


def validate_label(label: str) -> None:
    """Reject labels that cannot survive the config and telemetry grammars."""
    if not label:
        raise TopologyError("INVALID_LABEL", "empty node label")
    if label in RESERVED_LABELS:
        raise TopologyError("INVALID_LABEL", f"label {label!r} is a reserved literal")
    for ch in label:
        # printable ASCII, no whitespace; ',' splits records, '#' starts comments
        if not (33 <= ord(ch) <= 126) or ch in {",", "#"}:
            raise TopologyError("INVALID_LABEL", f"label {label!r} contains {ch!r}")


@dataclass(frozen=True)
class RadioSpec:
    """Uniform per-link radio parameters (every node's range is the same)."""

    range_m: float
    failure_prob: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.range_m) or self.range_m <= 0:
            raise TopologyError("INVALID_RADIO", f"range_m must be positive, got {self.range_m}")
        if not 0.0 <= self.failure_prob <= 1.0:
            raise TopologyError(
                "INVALID_RADIO", f"failure_prob must be in [0,1], got {self.failure_prob}"
            )


@dataclass(frozen=True)
class TreeTopology:
    """Immutable depth-2 tree rooted at the base station.

    ``children`` maps every node to its ordered child tuple (empty for
    leaflets); ``roles`` classifies every node. Treat both mappings as
    read-only.
    """

    root: str
    children: Mapping[str, tuple[str, ...]]
    roles: Mapping[str, NodeRole]
    radio: RadioSpec
    positions: Mapping[str, tuple[float, float]] = field(default_factory=dict)

    def nodes(self) -> tuple[str, ...]:
        return (self.root,) + self.sensing_nodes()

    def cluster_heads(self) -> tuple[str, ...]:
        return self.children[self.root]

    def leaflets(self, head: str) -> tuple[str, ...]:
        if head not in self.roles:
            raise TopologyError("UNKNOWN_NODE", f"no node {head!r}")
        if self.roles[head] is not NodeRole.CLUSTER_HEAD:
            raise TopologyError("NOT_A_CLUSTER_HEAD", f"{head!r} is not a cluster head")
        return self.children[head]

    def sensing_nodes(self) -> tuple[str, ...]:
        """All nodes that sense, in deterministic polling order.

        Each cluster head is immediately followed by its leaflets, heads in
        configuration order. This order fixes telemetry record order too.
        """
        out: list[str] = []
        for head in self.cluster_heads():
            out.append(head)
            out.extend(self.children[head])
        return tuple(out)

    def is_link(self, a: str, b: str) -> bool:
        """True when (a, b) is a tree edge in either direction."""
        for node in (a, b):
            if node not in self.roles:
                raise TopologyError("UNKNOWN_NODE", f"no node {node!r}")
        return b in self.children.get(a, ()) or a in self.children.get(b, ())


def build_topology(
    cluster_heads: Sequence[tuple[str, Sequence[str]]],
    radio: RadioSpec,
    positions: Mapping[str, tuple[float, float]] | None = None,
    root: str = DEFAULT_ROOT,
) -> TreeTopology:
    """Build and validate a topology from (head, leaflets) pairs.

    This is the only constructor that checks the tree's invariants; raises
    INVALID_LABEL, DUPLICATE_LABEL, EMPTY_TOPOLOGY, or RANGE_VIOLATION.
    """
    if not cluster_heads:
        raise TopologyError("EMPTY_TOPOLOGY", "at least one cluster head is required")
    validate_label(root)
    children: dict[str, tuple[str, ...]] = {}
    roles: dict[str, NodeRole] = {root: NodeRole.BASE_STATION}
    for head, leaves in cluster_heads:
        for label in (head, *leaves):
            validate_label(label)
            if label in roles:
                raise TopologyError("DUPLICATE_LABEL", f"label {label!r} used twice")
            roles[label] = NodeRole.CLUSTER_HEAD if label == head else NodeRole.LEAFLET
        children[head] = tuple(leaves)
        for leaf in leaves:
            children[leaf] = ()
    children[root] = tuple(head for head, _ in cluster_heads)
    topo = TreeTopology(
        root=root,
        children=children,
        roles=roles,
        radio=radio,
        positions=dict(positions or {}),
    )
    _check_ranges(topo)
    return topo


def round_message_count(t: TreeTopology) -> int:
    """Messages per collection round: one poll + one data reply per link."""
    heads = t.cluster_heads()
    total_leaflets = sum(len(t.children[h]) for h in heads)
    return 2 * len(heads) + 2 * total_leaflets


def _check_ranges(t: TreeTopology) -> None:
    # positions are optional; only links with both endpoints placed are checked
    if not t.positions:
        return
    for parent, kids in t.children.items():
        for kid in kids:
            if parent in t.positions and kid in t.positions:
                px, py = t.positions[parent]
                kx, ky = t.positions[kid]
                dist = math.hypot(px - kx, py - ky)
                if dist > t.radio.range_m:
                    raise TopologyError(
                        "RANGE_VIOLATION",
                        f"link {parent}-{kid} spans {dist:.1f} m > range {t.radio.range_m} m",
                    )
