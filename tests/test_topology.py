"""Tree structure: construction, validation, and message cost."""

import math
import random

import pytest

from helpers import (
    DESK_CLUSTERS,
    build_tree,
    desk_topology,
    enumerate_round_messages,
    format_topology,
    round_message_count,
)
from wsnmon.config import parse_config
from wsnmon.errors import TopologyError
from wsnmon.netsim import RadioSpec, TreeTopology


class TestBuildTopology:
    def test_desk_layout(self):
        """Two heads with two leaflets each: 6 sensing nodes plus the root."""
        t = desk_topology()
        assert len(t.children) == 7
        assert t.root == TreeTopology.root == "BS"
        assert TreeTopology._fields == ("children", "radio")
        assert t.children[t.root] == ("N1", "N2")
        assert t.sensing_nodes() == ("N1", "1.1", "1.2", "N2", "2.1", "2.2")
        assert t.children["N1"] == ("1.1", "1.2")
        assert t.children["2.2"] == ()  # a leaflet has no children
        # add_cluster grows the root's head list; the tree holds it as a tuple
        assert all(type(kids) is tuple for kids in t.children.values())

    def test_single_head_no_leaflets(self):
        t = build_tree([("N1", [])], RadioSpec(30.0))
        assert t.sensing_nodes() == ("N1",)

    def test_duplicate_label(self):
        with pytest.raises(TopologyError, match="DUPLICATE_LABEL"):
            build_tree([("N1", ["1.1", "1.1"])], RadioSpec(30.0))
        with pytest.raises(TopologyError, match="DUPLICATE_LABEL"):
            build_tree([("N1", []), ("N1", [])], RadioSpec(30.0))
        with pytest.raises(TopologyError, match="DUPLICATE_LABEL"):  # the root's name
            build_tree([("N1", ["BS"])], RadioSpec(30.0))

    def test_empty_topology(self):
        with pytest.raises(TopologyError, match="EMPTY_TOPOLOGY"):
            build_tree([], RadioSpec(30.0))
        for children in ({}, {"BS": []}, {"BS": ()}):  # a root with no heads
            with pytest.raises(TopologyError, match="EMPTY_TOPOLOGY"):
                TreeTopology(children, RadioSpec(30.0))

    def test_reserved_and_invalid_labels(self):
        for label in ("NULL", "-", "", "a b", "a,b"):
            with pytest.raises(TopologyError, match="INVALID_LABEL"):
                build_tree([("N1", [label])], RadioSpec(30.0))

    def test_bad_radio(self):
        for args in [(0.0,), (math.inf,), (30.0, 1.5), (30.0, math.nan)]:
            with pytest.raises(TopologyError, match="INVALID_RADIO"):
                RadioSpec(*args)


class TestRoundMessageCount:
    def test_desk_layout_count(self):
        assert round_message_count(desk_topology()) == 12
        assert len(enumerate_round_messages(DESK_CLUSTERS)) == 12

    def test_degenerate(self):
        assert round_message_count(build_tree([("N1", [])], RadioSpec(30.0))) == 2

    def test_three_by_three(self):
        clusters = [(f"N{i}", [f"{i}.{j}" for j in range(1, 4)]) for i in range(1, 4)]
        t = build_tree(clusters, RadioSpec(30.0))
        assert round_message_count(t) == 24
        assert len(enumerate_round_messages(clusters)) == 24


def random_clusters(rng, max_heads=5, max_leaflets=5):
    heads = rng.randint(1, max_heads)
    return [
        (f"H{i}", [f"{i}.{j}" for j in range(rng.randint(0, max_leaflets))])
        for i in range(heads)
    ]


class TestProperties:
    def test_randomized_topologies(self):
        """Across random shapes: message count matches the structural
        enumeration."""
        rng = random.Random(0xA11CE)
        for _ in range(30):
            clusters = random_clusters(rng)
            t = build_tree(clusters, RadioSpec(30.0))
            heads = len(clusters)
            leaflets = sum(len(ls) for ls in dict(clusters).values())
            assert round_message_count(t) == 2 * heads + 2 * leaflets
            assert round_message_count(t) == len(enumerate_round_messages(clusters))

    def test_config_round_trip(self):
        """Serializing a topology and parsing it back is the identity."""
        rng = random.Random(0xBEEF)
        for _ in range(20):
            t = build_tree(random_clusters(rng), RadioSpec(30.0, rng.random()))
            assert parse_config(format_topology(t)).sim.topology == t

    def test_config_round_trip_with_positions(self):
        positions = {"BS": (0.0, 0.0), "N1": (10.0, 5.5), "N2": (-3.25, 8.0), "1.1": (20.0, 5.5)}
        t = build_tree([("N1", ["1.1"]), ("N2", [])], RadioSpec(100.0, 0.25))
        assert parse_config(format_topology(t, positions)).sim.topology == t
