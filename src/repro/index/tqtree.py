"""The Trajectory Quadtree (TQ-tree) — the paper's core index (Section III).

A TQ-tree hierarchically organises trajectory *entries*
(:mod:`repro.index.entries`) in a region quadtree:

* an internal q-node stores its **inter-node** entries — those whose
  placement points span two or more of its immediate children;
* a leaf q-node stores its **intra-node** entries — at most ``beta`` of
  them (unless the depth cap absorbed a pathological cluster);
* unlike a conventional spatial index, *every level* stores data: long
  trajectories live high in the tree, short ones sink low, which is what
  makes the per-node service bounds (``sub``) effective for both.

With ``config.use_zorder`` (TQ(Z)), each q-node's entry list is organised
by a :class:`~repro.index.zindex.ZOrderedList`; without it (TQ(B)), the
list stays flat and queries scan it linearly.

The tree supports dynamic inserts (Section III-C).  One deliberate
deviation from the paper: after an insert the affected node's z-structure
is rebuilt lazily on the next query rather than patched in place (the
paper re-assigns at most ``beta`` z-ids eagerly).  Both approaches keep
queries exact; lazy rebuild is simpler and amortises identically under
batched updates.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import TQTreeConfig
from ..core.errors import IndexError_, QueryError
from ..core.geometry import BBox, bbox_of_points
from ..core.service import ServiceSpec
from ..core.trajectory import Trajectory
from .entries import IndexEntry, SubBounds, make_entries, validate_spec_for_variant
from .nodearrays import NodeArrays
from .zindex import ZOrderedList

__all__ = ["QNode", "TQTree"]


class QNode:
    """One node of the TQ-tree."""

    __slots__ = (
        "box",
        "depth",
        "parent",
        "children",
        "entries",
        "sub",
        "version",
        "_zlist",
        "_arrays",
    )

    def __init__(self, box: BBox, depth: int, parent: Optional["QNode"]) -> None:
        self.box = box
        self.depth = depth
        self.parent = parent
        self.children: Optional[List["QNode"]] = None
        self.entries: List[IndexEntry] = []  # UL(E)
        self.sub = SubBounds()
        #: Bumped whenever ``entries`` changes; the z-structure, the
        #: flat arrays and the query caches' node entries are keyed on it.
        self.version = 0
        self._zlist: Optional[Tuple[int, Optional[ZOrderedList]]] = None
        self._arrays: Optional[NodeArrays] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def zlist(self, beta: int, z_max_depth: int) -> Optional[ZOrderedList]:
        """The node's z-structure, (re)built lazily after updates."""
        if self._zlist is None or self._zlist[0] != self.version:
            zlist = (
                ZOrderedList(self.box, self.entries, beta, z_max_depth)
                if self.entries
                else None
            )
            self._zlist = (self.version, zlist)
        return self._zlist[1]

    def arrays(self) -> NodeArrays:
        """The flat arrays over ``entries`` at the current version,
        (re)built lazily after updates."""
        arrays = self._arrays
        if arrays is None or arrays.version != self.version:
            arrays = self._arrays = NodeArrays(self.entries, self.version)
        return arrays

    def gov_arrays(self) -> np.ndarray:
        """Per-entry filter block (:attr:`NodeArrays.gov`): governing
        start (x, y), governing end (x, y), and the entry bbox (xmin,
        ymin, xmax, ymax)."""
        return self.arrays().gov

    def adopt_gov(self, table: np.ndarray) -> None:
        """Take a persisted :meth:`gov_arrays` table for the current
        version instead of deriving it."""
        self._arrays = NodeArrays(self.entries, self.version, gov=table)

    def sub_value(self, spec: ServiceSpec) -> float:
        """The paper's ``sub``: subtree service upper bound for ``spec``."""
        return self.sub.value_for(spec)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"QNode({kind}, depth={self.depth}, |UL|={len(self.entries)})"


class TQTree:
    """The TQ-tree over a set of user trajectories.

    Build with :meth:`build` (bulk) or construct empty and :meth:`insert`.

    Parameters
    ----------
    space:
        The indexed region.  Every trajectory point must lie inside it.
    config:
        Structural knobs; see :class:`~repro.core.config.TQTreeConfig`.
    """

    def __init__(self, space: BBox, config: TQTreeConfig = TQTreeConfig()) -> None:
        self.space = space
        self.config = config
        self.root = QNode(space, 0, None)
        self._trajectories: Dict[int, Trajectory] = {}
        self._n_entries = 0
        self._max_traj_points = 0
        #: Bumped by every :meth:`insert`; keys the per-facility match
        #: sets cached over this tree.
        self.version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        users: Sequence[Trajectory],
        config: TQTreeConfig = TQTreeConfig(),
        space: Optional[BBox] = None,
    ) -> "TQTree":
        """Bulk-build the index over ``users``.

        When ``space`` is omitted it is the tight bbox of all points,
        padded slightly so boundary points never fall outside after
        floating-point subdivision.
        """
        if space is None:
            if not users:
                raise IndexError_("cannot infer space from an empty user set")
            all_pts = [p for u in users for p in u.points]
            tight = bbox_of_points(all_pts)
            pad = max(tight.width, tight.height, 1.0) * 1e-9 + 1e-9
            space = tight.expanded(pad)
        tree = cls(space, config)
        entries: List[IndexEntry] = []
        for u in users:
            tree._register(u)
            entries.extend(make_entries(u, config.variant))
        tree._n_entries = len(entries)
        tree._bulk_build(tree.root, entries)
        tree._compute_sub(tree.root)
        return tree

    def _register(self, traj: Trajectory) -> None:
        if traj.traj_id in self._trajectories:
            raise IndexError_(f"duplicate trajectory id {traj.traj_id}")
        for p in traj.points:
            if not self.space.contains_point(p):
                raise IndexError_(
                    f"trajectory {traj.traj_id} point {p} outside indexed "
                    f"space {self.space}"
                )
        self._trajectories[traj.traj_id] = traj
        self._max_traj_points = max(self._max_traj_points, traj.n_points)

    def _route(self, node: QNode, entry: IndexEntry) -> Optional[int]:
        """The single child quadrant holding all placement points, if any."""
        points = entry.placement_points
        q = node.box.quadrant_of(points[0])
        for p in points[1:]:
            if node.box.quadrant_of(p) != q:
                return None
        return q

    def _bulk_build(self, node: QNode, entries: List[IndexEntry]) -> None:
        cfg = self.config
        node.version += 1
        if len(entries) <= cfg.beta or node.depth >= cfg.max_depth:
            node.entries = entries
            return
        groups: Tuple[List[IndexEntry], ...] = ([], [], [], [])
        stay: List[IndexEntry] = []
        for e in entries:
            q = self._route(node, e)
            if q is None:
                stay.append(e)
            else:
                groups[q].append(e)
        if not any(groups):
            # Splitting makes no progress (everything is inter-node here);
            # keep the node a leaf per the paper's termination rule.
            node.entries = entries
            return
        node.entries = stay
        boxes = node.box.quadrants()
        node.children = [QNode(boxes[d], node.depth + 1, node) for d in range(4)]
        for d in range(4):
            self._bulk_build(node.children[d], groups[d])

    def _compute_sub(self, node: QNode) -> SubBounds:
        sub = SubBounds()
        for e in node.entries:
            sub.add_entry(e)
        if node.children is not None:
            for child in node.children:
                sub.add(self._compute_sub(child))
        node.sub = sub
        return sub

    # ------------------------------------------------------------------
    # dynamic updates (Section III-C)
    # ------------------------------------------------------------------
    def insert(self, traj: Trajectory) -> None:
        """Insert one trajectory; O(h) descent per entry plus local splits."""
        self._register(traj)
        self.version += 1
        for entry in make_entries(traj, self.config.variant):
            self._insert_entry(entry)
            self._n_entries += 1

    def _insert_entry(self, entry: IndexEntry) -> None:
        cfg = self.config
        node = self.root
        delta = SubBounds()
        delta.add_entry(entry)
        while True:
            node.sub.add(delta)
            if node.is_leaf:
                node.entries.append(entry)
                node.version += 1
                if len(node.entries) > cfg.beta and node.depth < cfg.max_depth:
                    self._split_leaf(node)
                return
            q = self._route(node, entry)
            if q is None:
                node.entries.append(entry)
                node.version += 1
                return
            assert node.children is not None
            node = node.children[q]

    def _split_leaf(self, node: QNode) -> None:
        entries = node.entries
        groups: Tuple[List[IndexEntry], ...] = ([], [], [], [])
        stay: List[IndexEntry] = []
        for e in entries:
            q = self._route(node, e)
            if q is None:
                stay.append(e)
            else:
                groups[q].append(e)
        if not any(groups):
            return  # no progress possible; stays an oversized leaf
        boxes = node.box.quadrants()
        node.children = [QNode(boxes[d], node.depth + 1, node) for d in range(4)]
        node.entries = stay
        node.version += 1
        for d in range(4):
            child = node.children[d]
            child.entries = groups[d]
            child.version += 1
            for e in groups[d]:
                child.sub.add_entry(e)
            if len(child.entries) > self.config.beta and child.depth < self.config.max_depth:
                self._split_leaf(child)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def containing_qnode(self, box: BBox) -> QNode:
        """The smallest q-node whose region contains ``box``.

        Falls back to the root when ``box`` pokes outside the indexed
        space (a facility near the boundary).
        """
        node = self.root
        if not node.box.contains_bbox(box):
            return node
        while not node.is_leaf:
            assert node.children is not None
            advanced = False
            for child in node.children:
                if child.box.contains_bbox(box):
                    node = child
                    advanced = True
                    break
            if not advanced:
                break
        return node

    @staticmethod
    def ancestors(node: QNode) -> List[QNode]:
        """Proper ancestors of ``node``, root first."""
        chain: List[QNode] = []
        cur = node.parent
        while cur is not None:
            chain.append(cur)
            cur = cur.parent
        chain.reverse()
        return chain

    def nodes(self) -> Iterator[QNode]:
        """All q-nodes, pre-order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                stack.extend(reversed(node.children))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_trajectories(self) -> int:
        return len(self._trajectories)

    @property
    def n_entries(self) -> int:
        return self._n_entries

    @property
    def max_traj_points(self) -> int:
        return self._max_traj_points

    def trajectory(self, traj_id: int) -> Trajectory:
        try:
            return self._trajectories[traj_id]
        except KeyError:
            raise IndexError_(f"unknown trajectory id {traj_id}") from None

    def trajectories(self) -> Iterator[Trajectory]:
        return iter(self._trajectories.values())

    def height(self) -> int:
        best = 0
        for node in self.nodes():
            if node.is_leaf:
                best = max(best, node.depth + 1)
        return best

    def validate_spec(self, spec: ServiceSpec) -> None:
        """Raise :class:`QueryError` when ``spec`` cannot be answered
        exactly by this index's variant (see entries.py for the rules)."""
        validate_spec_for_variant(spec, self.config.variant, self._max_traj_points)

    def node_zlist(self, node: QNode) -> Optional[ZOrderedList]:
        """The node's z-structure under this tree's config (None for TQ(B))."""
        if not self.config.use_zorder:
            return None
        return node.zlist(self.config.beta, self.config.z_max_depth)

    def warm_zindex(self) -> None:
        """Materialise every node's z-structure now.

        Z-structures otherwise build lazily on first touch; benchmarks
        call this so construction cost is attributed to construction, not
        to the first query.  No-op for TQ(B)."""
        if not self.config.use_zorder:
            return
        for node in self.nodes():
            node.zlist(self.config.beta, self.config.z_max_depth)
