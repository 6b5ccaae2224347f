"""Tree structure: construction, validation, and message cost."""

import random

import pytest

from helpers import DESK_CLUSTERS, enumerate_round_messages, desk_topology
from wsnmon.config import format_topology, parse_config
from wsnmon.errors import TopologyError
from wsnmon.topology import (
    NodeRole,
    RadioSpec,
    build_topology,
    round_message_count,
)


class TestBuildTopology:
    def test_desk_layout(self):
        """Two heads with two leaflets each: 6 sensing nodes plus the root."""
        t = desk_topology()
        assert len(t.roles) == 7
        assert t.root == "BS"
        assert t.cluster_heads() == ("N1", "N2")
        assert t.sensing_nodes() == ("N1", "1.1", "1.2", "N2", "2.1", "2.2")
        assert t.roles["N1"] is NodeRole.CLUSTER_HEAD
        assert t.roles["2.2"] is NodeRole.LEAFLET

    def test_single_head_no_leaflets(self):
        t = build_topology([("N1", [])], RadioSpec(30.0))
        assert t.sensing_nodes() == ("N1",)

    def test_duplicate_label(self):
        with pytest.raises(TopologyError, match="DUPLICATE_LABEL"):
            build_topology([("N1", ["1.1", "1.1"])], RadioSpec(30.0))
        with pytest.raises(TopologyError, match="DUPLICATE_LABEL"):
            build_topology([("N1", []), ("N1", [])], RadioSpec(30.0))

    def test_empty_topology(self):
        with pytest.raises(TopologyError, match="EMPTY_TOPOLOGY"):
            build_topology([], RadioSpec(30.0))

    def test_reserved_and_invalid_labels(self):
        for label in ("NULL", "-", "", "a b", "a,b"):
            with pytest.raises(TopologyError, match="INVALID_LABEL"):
                build_topology([("N1", [label])], RadioSpec(30.0))

    def test_range_violation(self):
        """A leaflet 150 m from its head cannot sit on a 100 m radio."""
        positions = {"BS": (0.0, 0.0), "N1": (10.0, 0.0), "1.1": (160.0, 0.0)}
        with pytest.raises(TopologyError, match="RANGE_VIOLATION"):
            build_topology(DESK_CLUSTERS, RadioSpec(100.0), positions)

    def test_positions_in_range_accepted(self):
        positions = {"BS": (0.0, 0.0), "N1": (10.0, 0.0), "1.1": (30.0, 0.0)}
        t = build_topology(DESK_CLUSTERS, RadioSpec(100.0), positions)
        assert t.positions == positions

    def test_bad_radio(self):
        with pytest.raises(TopologyError, match="INVALID_RADIO"):
            RadioSpec(0.0)
        with pytest.raises(TopologyError, match="INVALID_RADIO"):
            RadioSpec(30.0, 1.5)


class TestRoundMessageCount:
    def test_desk_layout_count(self):
        assert round_message_count(desk_topology()) == 12
        assert len(enumerate_round_messages(DESK_CLUSTERS)) == 12

    def test_degenerate(self):
        assert round_message_count(build_topology([("N1", [])], RadioSpec(30.0))) == 2

    def test_three_by_three(self):
        clusters = [(f"N{i}", [f"{i}.{j}" for j in range(1, 4)]) for i in range(1, 4)]
        t = build_topology(clusters, RadioSpec(30.0))
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
            t = build_topology(clusters, RadioSpec(30.0))
            heads = len(clusters)
            leaflets = sum(len(ls) for ls in dict(clusters).values())
            assert round_message_count(t) == 2 * heads + 2 * leaflets
            assert round_message_count(t) == len(enumerate_round_messages(clusters))

    def test_config_round_trip(self):
        """Serializing a topology and parsing it back is the identity."""
        rng = random.Random(0xBEEF)
        for _ in range(20):
            t = build_topology(random_clusters(rng), RadioSpec(30.0, rng.random()))
            assert parse_config(format_topology(t)).sim.topology == t

    def test_config_round_trip_with_positions(self):
        positions = {"BS": (0.0, 0.0), "N1": (10.0, 5.5), "N2": (-3.25, 8.0)}
        t = build_topology(
            [("N1", ["1.1"]), ("N2", [])], RadioSpec(100.0, 0.25),
            {**positions, "1.1": (20.0, 5.5)},
        )
        assert parse_config(format_topology(t)).sim.topology == t
