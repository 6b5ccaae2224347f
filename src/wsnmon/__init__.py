"""Deterministic tree-topology sensor network simulator with a telemetry
gateway: polls flow down the tree, readings flow back up, every round lands
in an append-only log, and a line-protocol server hands the latest round to
any number of clients while watching threshold alerts.

Each export is imported from its module on first use (PEP 562), so a tool
that needs one stage does not load the others: ``wsn plotdata`` never
imports the simulator or the server, and a ``wsn run`` that does not serve
never imports the server. The alert rules live in ``alerts``, which a config
needs, apart from the server in ``gateway``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "alerts": ("Alert", "AlertRule", "Comparator", "Severity", "evaluate_alerts"),
    "basestation": ("LatestMirror", "ParsedTelemetry", "PartialRound", "Snapshot",
                    "TelemetryReader", "TelemetryWriter", "parse_record", "parse_telemetry",
                    "serialize_snapshots"),
    "config": ("RunConfig", "parse_config"),
    "environment": ("Channel", "ChannelModel", "EnvField", "SensorSpec", "sense", "truth_at"),
    "errors": ("ConfigError", "EnvError", "GatewayError", "SimError", "TelemetryError",
               "TopologyError", "WsnError"),
    "gateway": ("Gateway", "serve"),
    "netsim": ("LinkOutage", "RadioSpec", "SimConfig", "SimSummary", "TreeTopology",
               "run_round", "run_simulation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
