"""Tree network structure: a base station root, cluster heads, and leaflets.

The tree is fixed at depth 2 below the root. Children lists keep their
configuration order, which is what makes polling (and therefore the whole
simulation) deterministic. Topology values are immutable.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ._frozen import Frozen
# the log header's rule for a node label, and the root it may not name
from .basestation import DEFAULT_ROOT, validate_label
from .errors import TopologyError


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
    """Immutable depth-2 tree rooted at the base station.

    ``children`` maps every node, the root included, to its ordered child
    tuple: the root's children are the cluster heads, a head's are its
    leaflets, and a leaflet's is empty. It is the only description of the
    tree; treat it as read-only. ``positions`` defaults to a new empty dict.
    """

    _fields = ("root", "children", "radio", "positions")
    __slots__ = (*_fields, "_nodes")

    def __init__(self, root: str, children: Mapping[str, tuple[str, ...]], radio: RadioSpec,
                 positions: Mapping[str, tuple[float, float]] | None = None):
        nodes: list[str] = []
        for head in children[root]:
            nodes.append(head)
            nodes.extend(children[head])
        self._init(root, children, radio, {} if positions is None else positions, tuple(nodes))

    def cluster_heads(self) -> tuple[str, ...]:
        return self.children[self.root]

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


def build_topology(
    cluster_heads: Sequence[tuple[str, Sequence[str]]],
    radio: RadioSpec,
    positions: Mapping[str, tuple[float, float]] | None = None,
) -> TreeTopology:
    """Build and validate a topology from (head, leaflets) pairs, rooted at
    ``DEFAULT_ROOT``: one ``add_cluster`` step per pair, then ``grown_tree``.

    These are the only constructors that check the tree's invariants; raises
    INVALID_LABEL, DUPLICATE_LABEL, EMPTY_TOPOLOGY, or RANGE_VIOLATION (whose
    error carries the offending ``(parent, child)`` pair as ``link``).
    """
    children: dict = {}
    for head, leaves in cluster_heads:
        add_cluster(children, head, leaves)
    return grown_tree(children, radio, positions)


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


def grown_tree(children: dict, radio: RadioSpec,
               positions: Mapping[str, tuple[float, float]] | None = None) -> TreeTopology:
    """The topology of ``children`` grown by ``add_cluster`` steps; raises
    EMPTY_TOPOLOGY or RANGE_VIOLATION."""
    if not children:
        raise TopologyError("EMPTY_TOPOLOGY", "at least one cluster head is required")
    children[DEFAULT_ROOT] = tuple(children[DEFAULT_ROOT])
    topo = TreeTopology(
        root=DEFAULT_ROOT,
        children=children,
        radio=radio,
        positions=dict(positions or {}),
    )
    _check_ranges(topo)
    return topo


def _check_ranges(t: TreeTopology) -> None:
    # positions are optional; only links with both endpoints placed are checked
    for parent, kids in t.children.items():
        for kid in kids:
            if parent in t.positions and kid in t.positions:
                px, py = t.positions[parent]
                kx, ky = t.positions[kid]
                dist = math.hypot(px - kx, py - ky)
                if dist > t.radio.range_m:
                    e = TopologyError(
                        "RANGE_VIOLATION",
                        f"link {parent}-{kid} spans {dist:.1f} m > range {t.radio.range_m} m",
                    )
                    e.link = (parent, kid)  # lets parse_config name the pos line
                    raise e
