"""Per-round data records: one Reading per sensing node, grouped in Snapshots.

A reading is lost or kept as a whole: a link failure wipes every channel of
the affected node for that round, never a subset. ``Reading.values`` maps
exactly the channels the node is equipped with to a number, or to None when
lost: temperature and light always (the demonstration hardware carried both),
a gas channel only when the run has one. ``channel in reading.values`` tells
whether a channel is equipped. A reading is NULL exactly when its values are
all None; the log's status column is rendered from that. The round and time
of a reading are those of its Snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .environment import Channel


class Reading(NamedTuple):
    """One node's values for one round, by equipped channel (see the module)."""

    node: str
    values: Mapping[Channel, float | None]


@dataclass(frozen=True, slots=True)
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
