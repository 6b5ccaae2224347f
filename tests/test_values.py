"""The value classes: how they are built, compared, and kept from change."""

import copy
import pickle

import pytest

from helpers import default_field, desk_topology
from wsnmon.alerts import AlertRule, Comparator, Severity
from wsnmon.basestation import ParsedTelemetry, PartialRound, Snapshot, snapshot_block
from wsnmon.config import RunConfig
from wsnmon.environment import Channel, ChannelModel, EnvField, SensorSpec, truth_at
from wsnmon.errors import (ConfigError, EnvError, GatewayError, SimError, TelemetryError,
                           TopologyError, WsnError)
from wsnmon.netsim import LinkOutage, RadioSpec, SimConfig, SimSummary, TreeTopology

TOPOLOGY = desk_topology()
WALKING = {Channel.TEMP_C: ChannelModel(25.0, sigma=0.5), Channel.LIGHT_RAW: ChannelModel(512.0)}
COLUMNS = {Channel.TEMP_C: (25.0, None), Channel.LIGHT_RAW: (512.0, None)}
SIM = SimConfig(TOPOLOGY, default_field(), 5)

# class, its required fields in order, its defaulted fields in order with
# their defaults, one changed field that must make it unequal, and what fills
# its cache (None: it has none)
VALUE_CLASSES = [
    (RadioSpec, {"range_m": 30.0}, {"failure_prob": 0.0}, {"failure_prob": 0.5}, None),
    (TreeTopology, {"children": TOPOLOGY.children, "radio": RadioSpec(30.0)}, {},
     {"radio": RadioSpec(30.0, 0.5)}, None),
    (ChannelModel, {"baseline": 25.0}, {"sigma": 0.0, "script": ()}, {"sigma": 0.5}, None),
    (SensorSpec, {"channel": Channel.TEMP_C, "accuracy": 0.5, "quantum": 0.0625,
                  "min_value": -40.0, "max_value": 125.0}, {}, {"max_value": 100.0},
     lambda spec: spec._sensed.update({0: -40.0})),
    (EnvField, {"channels": WALKING}, {"seed": 0}, {"seed": 7},
     lambda field: truth_at(field, Channel.TEMP_C, 4)),
    (LinkOutage, {"src": "N1", "dst": "1.1", "first_round": 2, "last_round": 3}, {},
     {"dst": "1.2"}, None),
    (SimConfig, {"topology": TOPOLOGY, "field": default_field(), "rounds": 5},
     {"round_period_ms": 1000, "hop_latency_ms": 10, "outages": ()}, {"rounds": 6}, None),
    (AlertRule, {"rule_id": "hot", "channel": Channel.TEMP_C, "comparator": Comparator.GREATER,
                 "threshold": 30.0, "severity": Severity.WARN}, {},
     {"comparator": Comparator.LESS}, None),
    (Snapshot, {"round": 1, "time_ms": 1000, "nodes": ("N1", "1.1"), "columns": COLUMNS}, {},
     {"time_ms": 0}, snapshot_block),
    (SimSummary, {"messages_sent": 60, "messages_dropped": 3}, {},
     {"messages_dropped": 4}, None),
    (PartialRound, {"round": 4, "records": 2}, {}, {"round": None}, None),
    (ParsedTelemetry, {"nodes": ("N1", "1.1"), "snapshots": [], "partial": None}, {},
     {"partial": PartialRound(4, 2)}, None),
    (RunConfig, {"sim": SIM, "rules": ()}, {},
     {"rules": (AlertRule("hot", Channel.TEMP_C, Comparator.GREATER, 30.0, Severity.WARN),)},
     None),
]


@pytest.mark.parametrize("cls, required, defaults, changed, fill_cache", VALUE_CLASSES,
                         ids=[case[0].__name__ for case in VALUE_CLASSES])
def test_value_class(cls, required, defaults, changed, fill_cache):
    """Built positionally or by keyword with the same defaults, equal by its
    fields and never by its cache, hashed alike when it hashes at all, and
    no field can be assigned."""
    made = cls(*required.values())
    fields = {**required, **defaults}
    assert {name: getattr(made, name) for name in fields} == fields
    assert cls(**required) == cls(*fields.values()) == cls(**fields) == made
    twin = cls(**required)
    if fill_cache is not None:
        fill_cache(made)
    assert made == twin and not made != twin
    assert made != cls(**{**fields, **changed})
    try:
        digest = hash(made)
    except TypeError:  # a field is a dict or a list
        pass
    else:
        assert digest == hash(twin)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(made, name, value)



@pytest.mark.parametrize("error", [
    *(cls(code, "bad", line_no) for cls in (WsnError, TopologyError, EnvError, SimError,
                                           TelemetryError, GatewayError)
      for code, line_no in (("BAD", None), ("BAD", 3), ("BAD", 0))),
    ConfigError("bad"), ConfigError("bad", 3), ConfigError("line 3: bad", 3),
    TelemetryError("MALFORMED_RECORD", "line 2: x", line_no=7),
], ids=repr)
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda e: pickle.loads(pickle.dumps(e))],
                         ids=["copy", "deepcopy", "pickle"])
def test_error_survives_copy_and_pickle(error, duplicate):
    again = duplicate(error)
    assert type(again) is type(error) and again is not error
    assert (again.code, again.message, again.line_no, str(again)) == (
        error.code, error.message, error.line_no, str(error))
