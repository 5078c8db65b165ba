"""Index entries: the unit of storage inside a TQ-tree.

The paper's Section III-A gives three ways a user trajectory enters the
index (endpoint pair, segmented, full trajectory).  An :class:`IndexEntry`
normalises all three into one shape:

* *placement points* — the points that decide which q-node stores the
  entry (both must fall into one child for the entry to sink deeper);
* *governing start/end* — the two points used for z-ordering inside a
  q-node;
* *owned points / owned segments* — the slice of the trajectory this
  entry is responsible for scoring.  Ownership partitions each
  trajectory's points and segments across its entries, so summing entry
  scores over the whole index never double-counts;
* *probe points* — the union of everything scoring can ever need
  (owned points, owned-segment endpoints, the trajectory ends), with
  their coordinates precomputed as a NumPy block.  Each q-node lays its
  entries' probe points out flat (:mod:`repro.index.nodearrays`) so node
  evaluation can score *all* candidates of a node in a few vector ops.

:class:`SubBounds` is the per-node aggregate the paper calls ``sub``: the
upper bound of the service value obtainable from a subtree, in the unit of
whichever :class:`~repro.core.service.ServiceSpec` the query uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.config import IndexVariant
from ..core.errors import QueryError
from ..core.geometry import BBox, Point, bbox_of_points
from ..core.service import ServiceModel, ServiceSpec, StopSet
from ..core.trajectory import Trajectory

__all__ = ["IndexEntry", "SubBounds", "make_entries", "validate_spec_for_variant"]


class IndexEntry:
    """One stored unit: a whole trajectory, a segment, or a full polyline."""

    __slots__ = (
        "traj",
        "variant",
        "seg_index",
        "own_point_idx",
        "own_seg_idx",
        "probe_idx",
        "probe_coords",
        "_bbox",
    )

    def __init__(
        self,
        traj: Trajectory,
        variant: IndexVariant,
        seg_index: Optional[int],
        own_point_idx: Tuple[int, ...],
        own_seg_idx: Tuple[int, ...],
    ) -> None:
        self.traj = traj
        self.variant = variant
        self.seg_index = seg_index
        self.own_point_idx = own_point_idx
        self.own_seg_idx = own_seg_idx
        probe = set(own_point_idx)
        for s in own_seg_idx:
            probe.add(s)
            probe.add(s + 1)
        if variant is not IndexVariant.SEGMENTED:
            # whole-trajectory entries can be asked for ENDPOINT service
            probe.add(0)
            probe.add(traj.n_points - 1)
        self.probe_idx: Tuple[int, ...] = tuple(sorted(probe))
        self.probe_coords: np.ndarray = traj.coords[list(self.probe_idx)]
        self._bbox: Optional[BBox] = None

    # ------------------------------------------------------------------
    @property
    def entry_id(self) -> Tuple[int, int]:
        """Unique id within an index: ``(traj_id, seg_index or -1)``."""
        return (self.traj.traj_id, -1 if self.seg_index is None else self.seg_index)

    @property
    def gov_start(self) -> Point:
        """Governing start point (z-ordering key 1, placement point 1)."""
        if self.variant is IndexVariant.SEGMENTED and self.seg_index is not None:
            return self.traj.points[self.seg_index]
        return self.traj.start

    @property
    def gov_end(self) -> Point:
        """Governing end point (z-ordering key 2, placement point 2)."""
        if self.variant is IndexVariant.SEGMENTED and self.seg_index is not None:
            return self.traj.points[self.seg_index + 1]
        return self.traj.end

    @property
    def placement_points(self) -> Tuple[Point, ...]:
        """Points that must share one quadtree child for the entry to sink."""
        if self.variant is IndexVariant.FULL:
            return self.traj.points
        return (self.gov_start, self.gov_end)

    @property
    def bbox(self) -> BBox:
        """Tight bbox of every point this entry could score (cached)."""
        if self._bbox is None:
            if self.variant is IndexVariant.FULL:
                self._bbox = self.traj.bbox
            else:
                self._bbox = bbox_of_points(self.placement_points)
        return self._bbox

    def __repr__(self) -> str:
        return f"IndexEntry(traj={self.traj.traj_id}, seg={self.seg_index})"

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def upper_bound(self, spec: ServiceSpec) -> float:
        """Maximum service contribution of this entry (the unit of ``sub``)."""
        if spec.model is ServiceModel.ENDPOINT:
            return 1.0
        if spec.model is ServiceModel.COUNT:
            raw = float(len(self.own_point_idx))
            return raw / self.traj.n_points if spec.normalize else raw
        raw = sum(self.traj.segment_lengths[i] for i in self.own_seg_idx)
        if not spec.normalize:
            return raw
        total = self.traj.length
        return raw / total if total > 0 else 0.0

    def score_from_covered(
        self, covered: Mapping[int, bool], spec: ServiceSpec
    ) -> float:
        """Service contribution given ``psi``-coverage of the probe points.

        ``covered`` maps probe indices to whether they are within ``psi``
        of the facility component; every index this entry's model needs is
        guaranteed to be a probe index.
        """
        if spec.model is ServiceModel.ENDPOINT:
            n = self.traj.n_points
            return 1.0 if covered.get(0) and covered.get(n - 1) else 0.0
        if spec.model is ServiceModel.COUNT:
            raw = float(sum(1 for i in self.own_point_idx if covered.get(i)))
            return raw / self.traj.n_points if spec.normalize else raw
        raw = 0.0
        seg_lengths = self.traj.segment_lengths
        for s in self.own_seg_idx:
            if covered.get(s) and covered.get(s + 1):
                raw += seg_lengths[s]
        if not spec.normalize:
            return raw
        total = self.traj.length
        return raw / total if total > 0 else 0.0

    def covered_probes(self, stops: StopSet, psi: float) -> Dict[int, bool]:
        """``psi``-coverage of every probe point (single vectorised call)."""
        mask = stops.covered_mask(self.probe_coords, psi)
        return dict(zip(self.probe_idx, (bool(m) for m in mask)))

    def score(self, stops: StopSet, spec: ServiceSpec) -> float:
        """Actual service contribution against a facility component."""
        return self.score_from_covered(self.covered_probes(stops, spec.psi), spec)

    def matches(self, stops: StopSet, psi: float) -> Tuple[int, ...]:
        """Covered probe indices (for MaxkCovRST coverage sets)."""
        covered = self.covered_probes(stops, psi)
        return tuple(i for i in self.probe_idx if covered[i])


# ----------------------------------------------------------------------
def make_entries(traj: Trajectory, variant: IndexVariant) -> List[IndexEntry]:
    """Decompose ``traj`` into index entries per Section III-A.

    Ownership invariant: every point index of ``traj`` is owned by exactly
    one entry, and every segment index by exactly one entry.
    """
    n = traj.n_points
    if variant is IndexVariant.ENDPOINT:
        # Endpoint entries own only the two ends; interior points of
        # multipoint data are not indexed (validate_spec_for_variant
        # rejects partial-service queries on such an index).
        own_pts = (0,) if n == 1 else (0, n - 1)
        own_segs = (0,) if n == 2 else ()
        return [IndexEntry(traj, variant, None, own_pts, own_segs)]

    if variant is IndexVariant.FULL:
        return [
            IndexEntry(traj, variant, None, tuple(range(n)), tuple(range(n - 1)))
        ]

    # SEGMENTED: one entry per consecutive pair; entry i owns point i, the
    # final entry also owns the last point.
    if n == 1:
        return [IndexEntry(traj, variant, None, (0,), ())]
    entries = []
    for i in range(n - 1):
        own_pts = (i, i + 1) if i == n - 2 else (i,)
        entries.append(IndexEntry(traj, variant, i, own_pts, (i,)))
    return entries


def validate_spec_for_variant(
    spec: ServiceSpec, variant: IndexVariant, max_points: int
) -> None:
    """Reject service-model / index-variant pairings that cannot be exact.

    * ENDPOINT service on a SEGMENTED index is undefined (a segment is not
      a user).  Segment-level datasets (the paper's BJG setup) should be
      segmented *before* indexing, then queried on an ENDPOINT index.
    * Partial service (COUNT/LENGTH) on an ENDPOINT index silently ignores
      interior points when trajectories have more than two points, so it
      is rejected for such data.
    """
    if spec.model is ServiceModel.ENDPOINT and variant is IndexVariant.SEGMENTED:
        raise QueryError(
            "ENDPOINT service is undefined on a SEGMENTED index; segment the "
            "dataset itself and build an ENDPOINT index instead"
        )
    if (
        spec.model is not ServiceModel.ENDPOINT
        and variant is IndexVariant.ENDPOINT
        and max_points > 2
    ):
        raise QueryError(
            "partial service models need SEGMENTED or FULL indexing when "
            f"trajectories have more than two points (max seen: {max_points})"
        )


@dataclass
class SubBounds:
    """Per-node subtree aggregates — the paper's ``sub`` for all specs.

    The five counters are exactly additive over entries, so a node's bound
    equals its own entries' total plus its children's bounds.
    """

    n_entries: float = 0.0
    n_points: float = 0.0
    total_length: float = 0.0
    norm_points: float = 0.0
    norm_length: float = 0.0

    def add_entry(self, entry: IndexEntry) -> None:
        self.n_entries += 1.0
        self.n_points += float(len(entry.own_point_idx))
        own_len = sum(entry.traj.segment_lengths[i] for i in entry.own_seg_idx)
        self.total_length += own_len
        self.norm_points += len(entry.own_point_idx) / entry.traj.n_points
        traj_len = entry.traj.length
        self.norm_length += own_len / traj_len if traj_len > 0 else 0.0

    def add(self, other: "SubBounds") -> None:
        self.n_entries += other.n_entries
        self.n_points += other.n_points
        self.total_length += other.total_length
        self.norm_points += other.norm_points
        self.norm_length += other.norm_length

    def value_for(self, spec: ServiceSpec) -> float:
        """The upper bound in the unit of ``spec``."""
        if spec.model is ServiceModel.ENDPOINT:
            return self.n_entries
        if spec.model is ServiceModel.COUNT:
            return self.norm_points if spec.normalize else self.n_points
        return self.norm_length if spec.normalize else self.total_length
