"""Run configuration files: one line-oriented grammar for the whole pipeline.

    radio <range_m> <failure_prob>
    cluster <head_id> <leaf_id> <leaf_id> ...
    pos <node_id> <x> <y>
    rounds <n>         period_ms <n>        hop_ms <n>
    fail <from> <to> <round_start> <round_end>
    env <channel> <baseline> [walk <sigma> | script <round>:<value>,...]
    seed <u64>
    alert <id> <channel> <GT|LT> <threshold> <WARN|DANGER>

``#`` starts a comment. Channel tokens are temp_c, light_raw, ch4_ppm,
co_ppm, o2_pct. Temperature and light are always equipped (defaults: 25.0
and 512 with no drift); a gas channel is equipped by giving it an env line,
and an alert may only watch an equipped channel. Numbers must be finite.
Every error names the offending line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .environment import (
    Channel,
    ChannelModel,
    Drift,
    EnvField,
    channel_from_token,
    default_spec,
)
from .errors import ConfigError, SimError, TopologyError, WsnError
from .gateway import AlertRule, Comparator, Severity
from .netsim import (
    DEFAULT_HOP_LATENCY_MS,
    DEFAULT_ROUND_PERIOD_MS,
    LinkOutage,
    SimConfig,
)
from .topology import RadioSpec, TreeTopology, build_topology

DEFAULT_ROUNDS = 100
DEFAULT_BASELINES = {Channel.TEMP_C: 25.0, Channel.LIGHT_RAW: 512.0}

_COMPARATORS = {"GT": Comparator.GREATER, "LT": Comparator.LESS}
_SEVERITIES = {s.value: s for s in Severity}


@dataclass(frozen=True)
class RunConfig:
    sim: SimConfig
    rules: tuple[AlertRule, ...]


def _number(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"bad {what} {token!r}", line_no) from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {token!r}", line_no)
    return value


def _integer(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"bad {what} {token!r}", line_no) from None


def parse_config(text: str) -> RunConfig:
    radio: RadioSpec | None = None
    clusters: list[tuple[str, list[str]]] = []
    seen_labels: set[str] = set()
    positions: dict[str, tuple[float, float]] = {}
    pos_lines: dict[str, int] = {}
    env_models: dict[Channel, ChannelModel] = {}
    outages: list[tuple[LinkOutage, int]] = []
    rules: list[tuple[AlertRule, int]] = []
    scalars: dict[str, int] = {}
    scalar_lines: dict[str, int] = {}

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]

        try:
            if directive == "radio":
                if radio is not None:
                    raise ConfigError("duplicate radio line", line_no)
                if len(args) != 2:
                    raise ConfigError("radio takes <range_m> <failure_prob>", line_no)
                radio = RadioSpec(
                    range_m=_number(args[0], line_no, "range"),
                    failure_prob=_number(args[1], line_no, "failure probability"),
                )

            elif directive == "cluster":
                if not args:
                    raise ConfigError("cluster takes <head_id> [leaf_id ...]", line_no)
                for label in args:
                    if label in seen_labels:
                        raise ConfigError(f"label {label!r} used twice", line_no)
                    seen_labels.add(label)
                clusters.append((args[0], args[1:]))

            elif directive == "pos":
                if len(args) != 3:
                    raise ConfigError("pos takes <node_id> <x> <y>", line_no)
                if args[0] in positions:
                    raise ConfigError(f"duplicate pos for {args[0]!r}", line_no)
                positions[args[0]] = (
                    _number(args[1], line_no, "x"),
                    _number(args[2], line_no, "y"),
                )
                pos_lines[args[0]] = line_no

            elif directive in ("rounds", "period_ms", "hop_ms", "seed"):
                if directive in scalars:
                    raise ConfigError(f"duplicate {directive} line", line_no)
                if len(args) != 1:
                    raise ConfigError(f"{directive} takes one integer", line_no)
                value = _integer(args[0], line_no, directive)
                lower = {"rounds": 1, "period_ms": 1, "hop_ms": 0, "seed": 0}[directive]
                if value < lower:
                    raise ConfigError(f"{directive} must be >= {lower}, got {value}", line_no)
                scalars[directive] = value
                scalar_lines[directive] = line_no

            elif directive == "fail":
                if len(args) != 4:
                    raise ConfigError("fail takes <from> <to> <round_start> <round_end>", line_no)
                first = _integer(args[2], line_no, "round_start")
                last = _integer(args[3], line_no, "round_end")
                outages.append((LinkOutage(args[0], args[1], first, last), line_no))

            elif directive == "env":
                if len(args) < 2:
                    raise ConfigError("env takes <channel> <baseline> [walk|script ...]", line_no)
                channel = channel_from_token(args[0])
                if channel in env_models:
                    raise ConfigError(f"duplicate env line for {args[0]}", line_no)
                baseline = _number(args[1], line_no, "baseline")
                drift = Drift.none()
                tail = args[2:]
                if tail:
                    if tail[0] == "walk" and len(tail) == 2:
                        drift = Drift.walk(_number(tail[1], line_no, "walk sigma"))
                    elif tail[0] == "script" and len(tail) == 2:
                        drift = _parse_script(tail[1], line_no)
                    else:
                        raise ConfigError(f"bad env drift clause {' '.join(tail)!r}", line_no)
                env_models[channel] = ChannelModel(baseline=baseline, drift=drift)

            elif directive == "alert":
                if len(args) != 5:
                    raise ConfigError(
                        "alert takes <id> <channel> <GT|LT> <threshold> <WARN|DANGER>", line_no
                    )
                rule_id, channel_token, cmp_token, threshold_token, severity_token = args
                if any(r.rule_id == rule_id for r, _ in rules):
                    raise ConfigError(f"duplicate alert id {rule_id!r}", line_no)
                channel = channel_from_token(channel_token)
                if cmp_token not in _COMPARATORS:
                    raise ConfigError(f"comparator must be GT or LT, got {cmp_token!r}", line_no)
                if severity_token not in _SEVERITIES:
                    raise ConfigError(
                        f"severity must be WARN or DANGER, got {severity_token!r}", line_no
                    )
                rule = AlertRule(
                    rule_id=rule_id,
                    channel=channel,
                    comparator=_COMPARATORS[cmp_token],
                    threshold=_number(threshold_token, line_no, "threshold"),
                    severity=_SEVERITIES[severity_token],
                )
                rules.append((rule, line_no))

            else:
                raise ConfigError(f"unknown directive {directive!r}", line_no)
        except ConfigError:
            raise
        except WsnError as e:  # a library constructor rejected this line's values
            raise ConfigError(e.message, line_no) from None

    if not clusters:
        raise ConfigError("no cluster lines; at least one cluster head is required")
    if radio is None:
        radio = RadioSpec(range_m=30.0, failure_prob=0.0)

    try:
        topology = build_topology(clusters, radio, positions)
    except TopologyError as e:
        raise ConfigError(e.message) from None
    for node, line_no in pos_lines.items():
        if node not in topology.roles:
            raise ConfigError(f"pos for unknown node {node!r}", line_no)

    for channel, baseline in DEFAULT_BASELINES.items():
        env_models.setdefault(channel, ChannelModel(baseline=baseline))
    for rule, line_no in rules:
        if rule.channel not in env_models:
            raise ConfigError(
                f"alert {rule.rule_id!r} watches {rule.channel.value}, which has no env line",
                line_no,
            )
    seed = scalars.get("seed", 0)
    env_field = EnvField(channels=env_models, seed=seed)
    sensors = tuple(default_spec(ch) for ch in Channel if ch in env_models)

    checked_outages = []
    for outage, line_no in outages:
        try:
            if not topology.is_link(outage.src, outage.dst):
                raise ConfigError(f"{outage.src}->{outage.dst} is not a link", line_no)
        except TopologyError as e:
            raise ConfigError(e.message, line_no) from None
        checked_outages.append(outage)

    try:
        sim = SimConfig(
            topology=topology,
            field=env_field,
            sensors=sensors,
            rounds=scalars.get("rounds", DEFAULT_ROUNDS),
            round_period_ms=scalars.get("period_ms", DEFAULT_ROUND_PERIOD_MS),
            hop_latency_ms=scalars.get("hop_ms", DEFAULT_HOP_LATENCY_MS),
            seed=seed,
            outages=tuple(checked_outages),
        )
    except SimError as e:
        # the per-line checks above leave period_ms < 4x hop_ms as the only failure
        line_no = scalar_lines.get("period_ms", scalar_lines.get("hop_ms"))
        raise ConfigError(e.message, line_no) from None
    return RunConfig(sim=sim, rules=tuple(rule for rule, _ in rules))


def _parse_script(token: str, line_no: int) -> Drift:
    points: list[tuple[int, float]] = []
    for part in token.split(","):
        if ":" not in part:
            raise ConfigError(f"script point {part!r} is not <round>:<value>", line_no)
        round_text, value_text = part.split(":", 1)
        points.append(
            (
                _integer(round_text, line_no, "script round"),
                _number(value_text, line_no, "script value"),
            )
        )
    return Drift.scripted(points)


def _format_number(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(v)


def format_topology(t: TreeTopology) -> str:
    """Serialize a topology back to config lines (parse gives it back exactly)."""
    lines = [f"radio {_format_number(t.radio.range_m)} {_format_number(t.radio.failure_prob)}"]
    for head in t.cluster_heads():
        lines.append(" ".join(["cluster", head, *t.children[head]]))
    for node, (x, y) in t.positions.items():
        lines.append(f"pos {node} {_format_number(x)} {_format_number(y)}")
    return "\n".join(lines) + "\n"
