"""Flat per-node arrays: the layout Algorithm 2 scores a q-node from.

A q-node's entry list is a Python list of :class:`~repro.index.entries
.IndexEntry` objects.  Scoring it entry by entry costs a few Python
calls per entry; a node high in the tree holds hundreds of entries and
is visited by every query.  :class:`NodeArrays` lays the same entries
out as a handful of NumPy arrays, in node order, so node evaluation is
a gather and a dot per node (DESIGN.md §4.3).

Every entry contributes its *probe points* (the sorted ``probe_idx``),
one row each; ``probe_off`` is the CSR offset of each entry's rows.
Per probe row the arrays hold the point's coordinates, its user and
point index, whether the entry *owns* the point (COUNT) with the
owner's ``1 / n_points`` weight, and whether the point starts an owned
segment (LENGTH) with the segment's length, raw and pre-scaled by
``1 / traj.length``.  An owned segment ``(s, s + 1)`` always spans two
consecutive probe rows, because ``s`` and ``s + 1`` are both probe
indices and the rows are sorted.

Groups build lazily on first use, so an ENDPOINT-only workload never
pays for the LENGTH columns.  A :class:`NodeArrays` is tagged with the
node version it was built at; the node rebuilds it after any change to
its entry list.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .entries import IndexEntry

__all__ = ["NodeArrays"]


class NodeArrays:
    """The flat arrays over one entry list (see module docstring).

    ``gov`` may be handed in ready-made (a persisted store table); every
    other group is derived from ``entries`` on first access.
    """

    def __init__(
        self,
        entries: Sequence[IndexEntry],
        version: int,
        gov: Optional[np.ndarray] = None,
    ) -> None:
        # a snapshot: groups built later must describe the list as it
        # was at ``version``
        self.entries = tuple(entries)
        self.version = version
        if gov is not None:
            self.gov = gov

    @cached_property
    def gov(self) -> np.ndarray:
        """Per-entry filter block: governing start (x, y), governing end
        (x, y), and the entry bbox (xmin, ymin, xmax, ymax).  The TQ(B)
        linear scan filters a whole node list with it."""
        rows = np.empty((len(self.entries), 8), dtype=np.float64)
        for i, e in enumerate(self.entries):
            s, t = e.gov_start, e.gov_end
            b = e.bbox
            rows[i] = (s.x, s.y, t.x, t.y, b.xmin, b.ymin, b.xmax, b.ymax)
        return rows

    @cached_property
    def probe_off(self) -> np.ndarray:
        """CSR offsets: entry ``i``'s probe rows are
        ``probe_off[i]:probe_off[i + 1]``."""
        off = np.zeros(len(self.entries) + 1, dtype=np.intp)
        np.cumsum([len(e.probe_idx) for e in self.entries], out=off[1:])
        return off

    @cached_property
    def probe_coords(self) -> np.ndarray:
        if not self.entries:
            return np.zeros((0, 2), dtype=np.float64)
        return np.concatenate([e.probe_coords for e in self.entries])

    @cached_property
    def probe_tid(self) -> np.ndarray:
        """The user (trajectory id) of each probe row."""
        return np.repeat(
            np.array([e.traj.traj_id for e in self.entries], dtype=np.int64),
            np.diff(self.probe_off),
        )

    @cached_property
    def probe_pidx(self) -> np.ndarray:
        """The point index (within its trajectory) of each probe row."""
        return np.array(
            [i for e in self.entries for i in e.probe_idx], dtype=np.int64
        )

    @cached_property
    def n_points(self) -> np.ndarray:
        """Per entry: its trajectory's point count, as a float."""
        return np.array(
            [e.traj.n_points for e in self.entries], dtype=np.float64
        )

    @cached_property
    def traj_length(self) -> np.ndarray:
        """Per entry: its trajectory's polyline length."""
        return np.array([e.traj.length for e in self.entries], dtype=np.float64)

    def _flag_rows(
        self, chosen_of: Callable[[IndexEntry], Sequence[int]]
    ) -> np.ndarray:
        """Boolean per probe row: is the row's point index among
        ``chosen_of(entry)`` for the entry owning the row?"""
        rows = []
        for base, e in zip(self.probe_off.tolist(), self.entries):
            chosen = set(chosen_of(e))
            rows.extend(base + k for k, i in enumerate(e.probe_idx) if i in chosen)
        flags = np.zeros(self.probe_off[-1], dtype=bool)
        flags[rows] = True
        return flags

    @cached_property
    def probe_own(self) -> np.ndarray:
        """Whether each probe row is a point its entry owns."""
        return self._flag_rows(lambda e: e.own_point_idx)

    @cached_property
    def probe_w(self) -> np.ndarray:
        """Per probe row: ``1 / n_points`` of its trajectory, the
        normalised COUNT weight of an owned point."""
        return np.repeat(1.0 / self.n_points, np.diff(self.probe_off))

    @cached_property
    def probe_seg(self) -> np.ndarray:
        """Whether each probe row starts a segment its entry owns; the
        segment's other end is the next row."""
        return self._flag_rows(lambda e: e.own_seg_idx)

    @cached_property
    def probe_seg_len(self) -> np.ndarray:
        """Per probe row: the length of the owned segment it starts (0
        where it starts none)."""
        rows = np.flatnonzero(self.probe_seg)
        owner = np.repeat(np.arange(len(self.entries)), np.diff(self.probe_off))
        out = np.zeros(self.probe_off[-1], dtype=np.float64)
        out[rows] = [
            self.entries[j].traj.segment_lengths[i]
            for j, i in zip(owner[rows].tolist(), self.probe_pidx[rows].tolist())
        ]
        return out

    @cached_property
    def probe_seg_len_scaled(self) -> np.ndarray:
        """:attr:`probe_seg_len` times ``1 / traj.length`` (0 for a
        zero-length trajectory): the normalised LENGTH weight."""
        total = self.traj_length
        scale = np.zeros_like(total)
        np.divide(1.0, total, out=scale, where=total > 0)
        return self.probe_seg_len * np.repeat(scale, np.diff(self.probe_off))
