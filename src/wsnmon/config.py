"""Run configuration files: one line-oriented grammar for the whole pipeline.

    radio <range_m> <failure_prob>
    cluster <head_id> <leaf_id> <leaf_id> ...
    pos <node_id> <x> <y>
    rounds <n>         period_ms <n>        hop_ms <n>
    fail <from> <to> <round_start> <round_end>
    env <channel> <baseline> [walk <sigma> | script <round>:<value>,...]
                       (walk 0 is a constant channel, as with no clause)
    seed <n>           (any integer >= 0; seeds every random stream of the run)
    alert <id> <channel> <GT|LT> <threshold> <WARN|DANGER>

``#`` starts a comment. Channel tokens are temp_c, light_raw, ch4_ppm,
co_ppm, o2_pct. Temperature and light are always equipped (defaults: 25.0
and 512 with no drift); a gas channel is equipped by giving it an env line,
and an alert may only watch an equipped channel. Numbers must be finite,
written in ASCII digits without ``_`` separators.
Every error names the offending line. The tree is built by an
``add_cluster`` step per cluster line, then ``TreeTopology``. ``pos`` lines
are checked here and not kept: a tree link whose two ends are placed farther
apart than the radio's range is refused on the later of its two ``pos`` lines.
"""

from __future__ import annotations

import contextlib
import math
from typing import NamedTuple

from .alerts import AlertRule, Comparator, Severity
from .environment import Channel, ChannelModel, EnvField, channel_from_token
from .errors import ConfigError, SimError, TopologyError, WsnError
from .netsim import (
    DEFAULT_HOP_LATENCY_MS,
    DEFAULT_ROUND_PERIOD_MS,
    LinkOutage,
    RadioSpec,
    SimConfig,
    TreeTopology,
    add_cluster,
)

DEFAULT_ROUNDS = 100
DEFAULT_BASELINES = {Channel.TEMP_C: 25.0, Channel.LIGHT_RAW: 512.0}

_COMPARATORS = {"GT": Comparator.GREATER, "LT": Comparator.LESS}
_SEVERITIES = {s.value: s for s in Severity}


class RunConfig(NamedTuple):
    sim: SimConfig
    rules: tuple[AlertRule, ...]


def _read(kind: type, token: str, line_no: int, what: str):
    # int() and float() also read digit-group underscores and non-ASCII
    # digits; a config number holds neither
    if token.isascii() and "_" not in token:
        with contextlib.suppress(ValueError):
            return kind(token)
    raise ConfigError(f"bad {what} {token!r}", line_no)


def _number(token: str, line_no: int, what: str) -> float:
    value = _read(float, token, line_no, what)
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {token!r}", line_no)
    return value


def _integer(token: str, line_no: int, what: str) -> int:
    return _read(int, token, line_no, what)


def parse_config(text: str) -> RunConfig:
    radio: RadioSpec | None = None
    children: dict = {}  # the tree's children map, grown by add_cluster steps
    placed: dict[str, tuple[tuple[float, float], int]] = {}  # node -> (x, y), its pos line
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
                add_cluster(children, args[0], args[1:])

            elif directive == "pos":
                if len(args) != 3:
                    raise ConfigError("pos takes <node_id> <x> <y>", line_no)
                if args[0] in placed:
                    raise ConfigError(f"duplicate pos for {args[0]!r}", line_no)
                xy = (_number(args[1], line_no, "x"), _number(args[2], line_no, "y"))
                placed[args[0]] = (xy, line_no)

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
                tail = args[2:]
                if not tail:
                    model = ChannelModel(baseline)
                elif tail[0] == "walk" and len(tail) == 2:
                    model = ChannelModel(baseline, sigma=_number(tail[1], line_no, "walk sigma"))
                elif tail[0] == "script" and len(tail) == 2:
                    model = ChannelModel(baseline, script=_parse_script(tail[1], line_no))
                else:
                    raise ConfigError(f"bad env drift clause {' '.join(tail)!r}", line_no)
                env_models[channel] = model

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

    if not children:
        raise ConfigError("no cluster lines; at least one cluster head is required")
    if radio is None:
        radio = RadioSpec(range_m=30.0, failure_prob=0.0)

    topology = TreeTopology(children, radio)
    for parent, kids in children.items():
        for kid in kids:
            if parent in placed and kid in placed:
                (a, a_line), (b, b_line) = placed[parent], placed[kid]
                dist = math.dist(a, b)
                if dist > radio.range_m:
                    raise ConfigError(
                        f"link {parent}-{kid} spans {dist:.1f} m > range {radio.range_m} m",
                        max(a_line, b_line),
                    )
    for node, (_, line_no) in placed.items():
        if node not in children:
            raise ConfigError(f"pos for unknown node {node!r}", line_no)

    for channel, baseline in DEFAULT_BASELINES.items():
        env_models.setdefault(channel, ChannelModel(baseline=baseline))
    for rule, line_no in rules:
        if rule.channel not in env_models:
            raise ConfigError(
                f"alert {rule.rule_id!r} watches {rule.channel.value}, which has no env line",
                line_no,
            )
    period = scalars.get("period_ms", DEFAULT_ROUND_PERIOD_MS)
    hop = scalars.get("hop_ms", DEFAULT_HOP_LATENCY_MS)
    try:
        sim = SimConfig(
            topology=topology,
            field=EnvField(channels=env_models, seed=scalars.get("seed", 0)),
            rounds=scalars.get("rounds", DEFAULT_ROUNDS),
            round_period_ms=period,
            hop_latency_ms=hop,
            outages=tuple(outage for outage, _ in outages),
        )
    except (SimError, TopologyError) as e:
        # the per-line checks above leave an outage off the tree (the error
        # names it), period_ms < 4x hop_ms, or event times too long to write
        # (a default period_ms is short, so then rounds is the long one)
        if hasattr(e, "outage"):
            line_no = next(line for outage, line in outages if outage is e.outage)
        else:
            line_no = scalar_lines.get(
                "period_ms", scalar_lines.get("hop_ms" if period < 4 * hop else "rounds"))
        raise ConfigError(e.message, line_no) from None
    return RunConfig(sim=sim, rules=tuple(rule for rule, _ in rules))


def _parse_script(token: str, line_no: int) -> tuple[tuple[int, float], ...]:
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
    return tuple(points)
