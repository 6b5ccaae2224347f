"""Threshold alert rules: what a config's ``alert`` lines declare, and how a
round fires them.

A rule watches one channel on every sensing node. Alerts have rising-edge
semantics: a (rule, node) pair fires when its predicate turns true after a
round where it was false, NULL, or unknown; a NULL (or unequipped) round
resets the edge so recovery can fire again. The gateway evaluates the rules
on each round it publishes; this module loads none of the server, so a run
that does not serve never imports it.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from itertools import compress, repeat
from typing import Mapping, NamedTuple, Sequence

from ._frozen import Frozen
from .basestation import Snapshot, format_value
from .environment import Channel
from .errors import GatewayError


class Comparator(Enum):
    GREATER = "GT"
    LESS = "LT"


class Severity(Enum):
    WARN = "WARN"
    DANGER = "DANGER"


class AlertRule(Frozen):
    _fields = __slots__ = ("rule_id", "channel", "comparator", "threshold", "severity")

    def __init__(self, rule_id: str, channel: Channel, comparator: Comparator,
                 threshold: float, severity: Severity):
        if not rule_id or any(c.isspace() or c == "," for c in rule_id):
            raise GatewayError("INVALID_RULE", f"bad rule id {rule_id!r}")
        if threshold != threshold or threshold in (float("inf"), float("-inf")):
            raise GatewayError("INVALID_RULE", "threshold must be finite")
        self._init(rule_id, channel, comparator, threshold, severity)


class Alert(NamedTuple):
    rule_id: str
    node: str
    round: int
    value: float
    severity: Severity


def alert_line(a: Alert, channel: Channel) -> str:
    return f"{a.rule_id},{a.node},{a.round},{format_value(channel, a.value)},{a.severity.value}"


AlertState = Mapping[tuple[str, str], object]  # true for a pair that held last round

_COMPARE = {Comparator.GREATER: operator.gt, Comparator.LESS: operator.lt}
# a lost cell reads as nan, which no comparison holds for
_NO_VALUE = {None: math.nan}


def evaluate_alerts(
    rules: Sequence[AlertRule], s: Snapshot, state: AlertState
) -> tuple[dict[tuple[str, str], bool], list[Alert]]:
    """Advance alert state by one round; returns (new state, newly fired).

    In ``state``, a (rule_id, node) pair that held last round maps to a true
    value and any other pair is absent or false. The new state maps every pair
    to a bool, false where its channel is NULL or not carried this round.
    """
    new_state: dict[tuple[str, str], bool] = {}
    fired: list[Alert] = []
    for rule in rules:
        keys = list(zip(repeat(rule.rule_id), s.nodes))
        column = s.columns.get(rule.channel) or (None,) * len(keys)
        holds = list(map(_COMPARE[rule.comparator], map(_NO_VALUE.get, column, column),
                         repeat(rule.threshold)))
        new_state.update(zip(keys, holds))
        for key, value in compress(zip(keys, column), holds):
            if not state.get(key, False):
                fired.append(Alert(rule.rule_id, key[1], s.round, value, rule.severity))
    return new_state, fired
