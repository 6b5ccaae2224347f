"""Per-round data records: a Snapshot holds one collection round as columns.

A snapshot names its sensing nodes once, in topology order, and holds one
value column per carried channel, a cell per node: temperature and light
always (the demonstration hardware carried both), a gas channel only when the
run has one. A round carries each channel on every node or on none, so a
channel the round lacks is a missing column, never a marker in some cells. A
cell is a number, or None when the node's data was lost. A reading is lost or
kept as a whole: a link failure wipes every channel of the affected node for
that round, never a subset, so a row is NULL exactly when its temperature
cell is None; the log's status column is rendered from that.

A row is read as a dict that maps exactly the channels the node carries to
its cell: ``reading_for`` builds one on demand.
"""

from __future__ import annotations

from typing import Mapping

from ._frozen import Frozen
from .environment import Channel


class Snapshot(Frozen):
    """All readings of one collection round, in deterministic topology order.

    ``columns`` maps each carried channel to a tuple of one cell per node
    of ``nodes`` (see the module). The round's record block is rendered into
    the ``_block`` cache on first use (``basestation.snapshot_block``), so
    every sink shares one string.
    """

    _fields = ("round", "time_ms", "nodes", "columns")
    __slots__ = (*_fields, "_block")

    def __init__(self, round: int, time_ms: int, nodes: tuple[str, ...],
                 columns: Mapping[Channel, tuple[float | None, ...]]):
        self._init(round, time_ms, nodes, columns, None)

    def reading_for(self, node: str) -> dict[Channel, float | None] | None:
        """The row of ``node`` as ``{channel: cell}``, or None if the round lacks it."""
        try:
            i = self.nodes.index(node)
        except ValueError:
            return None
        return {channel: column[i] for channel, column in self.columns.items()}
