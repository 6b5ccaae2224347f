"""Tree network structure: a base station root, cluster heads, and leaflets.

The tree is fixed at depth 2 below the root, ``BS``, and is its children
map and its radio. Children lists keep their configuration order, which is
what makes polling (and therefore the whole simulation) deterministic.
Topology values are immutable. A tree is built by ``add_cluster`` steps,
then ``TreeTopology``; node positions, and their radio range check, belong
to ``config.parse_config``.
"""

from __future__ import annotations

import math
from typing import Sequence

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
