"""Deterministic tree-topology sensor network simulator with a telemetry
gateway: polls flow down the tree, readings flow back up, every round lands
in an append-only log, and a line-protocol server hands the latest round to
any number of clients while watching threshold alerts."""

from .basestation import (
    LatestMirror,
    ParsedTelemetry,
    PartialRound,
    TelemetryReader,
    TelemetryWriter,
    parse_record,
    parse_telemetry,
    serialize_snapshots,
)
from .config import RunConfig, format_topology, parse_config
from .environment import (
    Channel,
    ChannelModel,
    Drift,
    EnvField,
    SensorSpec,
    default_spec,
    sense,
    truth_at,
)
from .errors import (
    ConfigError,
    EnvError,
    GatewayError,
    SimError,
    TelemetryError,
    TopologyError,
    WsnError,
)
from .gateway import (
    Alert,
    AlertRule,
    Comparator,
    Gateway,
    Severity,
    evaluate_alerts,
    serve,
)
from .netsim import (
    EventKind,
    LinkOutage,
    SimConfig,
    SimEvent,
    SimSummary,
    run_round,
    run_simulation,
)
from .records import Reading, Snapshot
from .topology import (
    NodeRole,
    RadioSpec,
    TreeTopology,
    build_topology,
    round_message_count,
)

__version__ = "0.1.0"
