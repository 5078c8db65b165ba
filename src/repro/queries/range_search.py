"""Range search over a TQ-tree (the paper's future-work query variants).

The paper closes with "we will investigate the effectiveness of the
TQ-tree for other variants of queries on trajectory databases".  Two
natural variants fall straight out of the structure, and both reuse the
zReduce machinery:

* :func:`trajectories_in_range` — every user trajectory with at least
  one (or with every governing) point inside a query rectangle;
* :func:`trajectories_served_by_stop` — every user trajectory that a
  single candidate stop location can touch within ``psi`` (a one-stop
  facility; useful for siting an individual station).

Both return exact answers: z-cell/bucket pruning narrows candidates, and
an exact geometric check decides.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from ..core.errors import QueryError
from ..core.geometry import BBox, Point
from ..core.service import StopSet
from ..index.entries import IndexEntry
from ..index.tqtree import QNode, TQTree

__all__ = ["trajectories_in_range", "trajectories_served_by_stop"]


def _candidate_entries(tree: TQTree, node: QNode, box: BBox) -> List[IndexEntry]:
    """Entries of ``node`` whose own bbox intersects ``box``."""
    zlist = tree.node_zlist(node)
    if zlist is not None and len(node.entries) >= 64:
        return [node.entries[i] for i in zlist.candidates_bbox(box)]
    return [e for e in node.entries if e.bbox.intersects(box)]


def trajectories_in_range(
    tree: TQTree, box: BBox, mode: str = "any"
) -> List[int]:
    """Trajectory ids with points inside ``box``.

    ``mode="any"`` matches trajectories with at least one *indexed* point
    in the box; ``mode="all"`` requires every indexed point inside.

    "Indexed" means the entry's probe points: all points on SEGMENTED and
    FULL indexes, but only the two endpoints on an ENDPOINT index (an
    endpoint entry's interior points are not placement-constrained, so no
    tree traversal can answer about them exactly — build a FULL-variant
    index for whole-polyline range semantics).
    """
    if mode not in ("any", "all"):
        raise QueryError(f"mode must be 'any' or 'all', got {mode!r}")
    hits: Set[int] = set()
    rejected: Set[int] = set()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not node.box.intersects(box):
            if mode == "all":
                # entries living wholly outside the box disqualify their
                # trajectory; mark every trajectory below as rejected
                for e in _all_entries_below(node):
                    rejected.add(e.traj.traj_id)
            continue
        for e in node.entries:
            inside = box.contains_point  # closed box
            probe_inside = [
                inside(Point(float(x), float(y))) for x, y in e.probe_coords
            ]
            if mode == "any":
                if any(probe_inside):
                    hits.add(e.traj.traj_id)
            else:
                if all(probe_inside):
                    hits.add(e.traj.traj_id)
                else:
                    rejected.add(e.traj.traj_id)
        if node.children is not None:
            stack.extend(node.children)
    if mode == "all":
        hits -= rejected
    return sorted(hits)


def _all_entries_below(node: QNode) -> List[IndexEntry]:
    out: List[IndexEntry] = []
    stack = [node]
    while stack:
        n = stack.pop()
        out.extend(n.entries)
        if n.children is not None:
            stack.extend(n.children)
    return out


def trajectories_served_by_stop(
    tree: TQTree, stop: Point, psi: float, require_both_endpoints: bool = True
) -> List[int]:
    """Trajectory ids a single stop at ``stop`` can serve within ``psi``.

    With ``require_both_endpoints`` (the Scenario-1 reading) both the
    source and destination must lie within ``psi`` of the stop; otherwise
    one served probe point suffices (the partial-service reading).
    """
    if psi < 0:
        raise QueryError(f"psi must be >= 0, got {psi}")
    stops = StopSet(np.array([[stop.x, stop.y]], dtype=np.float64))
    envelope = BBox(stop.x, stop.y, stop.x, stop.y).expanded(psi)
    hits: Set[int] = set()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not node.box.expanded(psi).contains_point(stop) and not node.box.intersects(
            envelope
        ):
            continue
        for e in _candidate_entries(tree, node, envelope):
            mask = stops.covered_mask(e.probe_coords, psi)
            if require_both_endpoints:
                traj = e.traj
                start_ok = stops.covers_point(traj.start, psi)
                end_ok = stops.covers_point(traj.end, psi)
                if start_ok and end_ok:
                    hits.add(traj.traj_id)
            elif bool(mask.any()):
                hits.add(e.traj.traj_id)
        if node.children is not None:
            stack.extend(node.children)
    return sorted(hits)
