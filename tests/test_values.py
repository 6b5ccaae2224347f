"""The value classes: how they are built, compared, and kept from change."""

import copy
import pickle
from pathlib import Path

import pytest

from helpers import default_field, desk_topology, empty_value_caches
from wsnmon.alerts import AlertRule, Comparator, Severity
from wsnmon.basestation import ParsedTelemetry, PartialRound, Snapshot, snapshot_block
from wsnmon.config import RunConfig, parse_config
from wsnmon.environment import Channel, ChannelModel, EnvField, SensorSpec, truth_at
from wsnmon.errors import (ConfigError, EnvError, GatewayError, SimError, TelemetryError,
                           TopologyError, WsnError)
from wsnmon.netsim import LinkOutage, RadioSpec, SimConfig, SimSummary, TreeTopology, run_round

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


DUPLICATES = [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]
DUPLICATE_IDS = ["copy", "deepcopy", "pickle"]
WIDE_LOSSY = Path(__file__).resolve().parent.parent / "bench" / "configs" / "wide-lossy.cfg"


def wide_lossy_values() -> list:
    """Every Frozen value of the benchmark's wide-lossy run, its round 3
    included, with each cache filled: 22 values of all nine classes."""
    run_cfg = parse_config(WIDE_LOSSY.read_text(encoding="utf-8"))
    sim = run_cfg.sim
    snapshot = run_round(sim, 3)[0]  # fills each sensor spec's step table
    snapshot_block(snapshot)
    return [sim, sim.topology, sim.topology.radio, sim.field, *sim.field.channels.values(),
            *sim.sensors, *sim.outages, *run_cfg.rules, snapshot]


@pytest.mark.parametrize("duplicate", DUPLICATES, ids=DUPLICATE_IDS)
def test_frozen_value_survives_copy_and_pickle(duplicate):
    """A copy is rebuilt from the fields: equal to the value, and with each
    cache as a newly built value has it, empty."""
    with empty_value_caches():
        values = wide_lossy_values()
        snapshot = values[-1]
        specs = [value for value in values if type(value) is SensorSpec]
        assert len(values) == 22 and len({type(value) for value in values}) == 9
        assert len(specs) == 5
        assert snapshot._block is not None and all(spec._sensed for spec in specs)
        for value in values:
            again = duplicate(value)
            assert type(again) is type(value) and again is not value
            assert again == value and not again != value
            built = type(value)(*value._values())
            for slot in value.__slots__[len(value._fields):]:
                assert getattr(again, slot) == getattr(built, slot), (value, slot)
        assert duplicate(snapshot)._block is None
        assert [duplicate(spec)._sensed for spec in specs] == [{}] * 5


def test_frozen_value_refuses_del_and_other_types():
    """No field can be deleted, and == against another type, its own field
    tuple included, is left to that type (and so is False)."""
    with empty_value_caches():
        values = wide_lossy_values()
    for value in values:
        for name in value._fields:
            held = getattr(value, name)
            with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
                delattr(value, name)
            assert getattr(value, name) is held
        for other in (value._values(), object(), None):
            assert value.__eq__(other) is NotImplemented
            assert value != other and not value == other


@pytest.mark.parametrize("error", [
    *(cls(code, "bad", line_no) for cls in (WsnError, TopologyError, EnvError, SimError,
                                           TelemetryError, GatewayError)
      for code, line_no in (("BAD", None), ("BAD", 3), ("BAD", 0))),
    ConfigError("bad"), ConfigError("bad", 3), ConfigError("line 3: bad", 3),
    TelemetryError("MALFORMED_RECORD", "line 2: x", line_no=7),
], ids=repr)
@pytest.mark.parametrize("duplicate", DUPLICATES, ids=DUPLICATE_IDS)
def test_error_survives_copy_and_pickle(error, duplicate):
    again = duplicate(error)
    assert type(again) is type(error) and again is not error
    assert (again.code, again.message, again.line_no, str(again)) == (
        error.code, error.message, error.line_no, str(error))
