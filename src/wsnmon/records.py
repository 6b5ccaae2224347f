"""Per-round data records: one Reading per sensing node, grouped in Snapshots.

A reading is lost or kept as a whole: a link failure wipes every channel of
the affected node for that round (status NULL), never a subset.
``Reading.values`` maps exactly the channels the node is equipped with to a
number, or to None when lost: temperature and light always (the demonstration
hardware carried both), a gas channel only when the run has one. ``channel in
reading.values`` tells whether a channel is equipped; the former
``equipped()`` and ``value()`` methods and the environment's tuple of gas
channels are gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .environment import Channel


class ReadingStatus(Enum):
    OK = "OK"
    NULL = "NULL"


@dataclass(frozen=True)
class Reading:
    """One node's values for one round, by equipped channel (see the module)."""

    node: str
    round: int
    time_ms: int
    values: Mapping[Channel, float | None]
    status: ReadingStatus = ReadingStatus.OK

    def __post_init__(self):
        if Channel.TEMP_C not in self.values or Channel.LIGHT_RAW not in self.values:
            raise ValueError(f"reading for {self.node} lacks temp_c or light_raw")
        lost = [v is None for v in self.values.values()]
        if self.status is ReadingStatus.OK and any(lost):
            raise ValueError(f"OK reading for {self.node} has a NULL channel")
        if self.status is ReadingStatus.NULL and not all(lost):
            raise ValueError(f"NULL reading for {self.node} has a value")


@dataclass(frozen=True)
class Snapshot:
    """All readings of one collection round, in deterministic topology order."""

    round: int
    time_ms: int
    readings: tuple[Reading, ...]

    def nodes(self) -> tuple[str, ...]:
        return tuple(r.node for r in self.readings)

    def reading_for(self, node: str) -> Reading | None:
        for r in self.readings:
            if r.node == node:
                return r
        return None
