"""Z-ordered bucket lists inside a q-node (the "Z" of TQ(Z)).

Implements the paper's *ordered bucketing using z-curve* (Section III) and
the ``zReduce`` pruning primitive (Section IV-A, Algorithm 2):

1. the node's space is partitioned adaptively over the entries' *start*
   points (at most ``beta`` starts per cell) — each cell's digit path is a
   start z-id;
2. the same is done for *end* points, with extra refinement so that two
   entries sharing a start z-id get distinct end z-ids where possible;
3. entries are kept sorted by ``(start z-id, end z-id)`` in buckets
   (*z-nodes*) of at most ``beta`` entries.

``zReduce`` narrows a node's entry list to the entries whose z-cells meet
the facility component's serving area: the grid selects the serving leaf
cells, and each entry's precomputed leaf index looks its cell up — no
geometry on pruned entries.  Candidates come back as positions into the
entry list the structure was built from (the q-node's list), in sorted
order.

Three candidate modes cover the service models soundly (DESIGN.md §4.2):

* ``candidates_both``  — start *and* end cell must meet the serving area
  (exact for ENDPOINT service, and for LENGTH on 2-point entries);
* ``candidates_any``   — start *or* end cell must meet it (sound for
  COUNT on 2-point entries, where either endpoint can contribute);
* ``candidates_bbox``  — z-node bucket bounding boxes prune, then entry
  bounding boxes (sound for FULL-variant entries whose interior points
  may lie far from both governing endpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.errors import IndexError_
from ..core.geometry import BBox, Point
from ..core.zorder import AdaptiveZGrid
from .entries import IndexEntry

__all__ = ["ZOrderedList", "RegionTest", "embr_region_test", "disc_region_test"]

RegionTest = Callable[[BBox], bool]


def embr_region_test(embr: BBox) -> RegionTest:
    """Region test: does a cell intersect the facility's EMBR?"""
    return embr.intersects


def disc_region_test(
    stop_points: Sequence[Point], psi: float, embr: Optional[BBox] = None
) -> RegionTest:
    """Region test against the true serving area (union of stop discs).

    Tighter than the EMBR box; used when the component has few stops so
    the per-cell cost stays negligible.  ``embr`` short-circuits cells
    that miss even the box.
    """

    def test(box: BBox) -> bool:
        if embr is not None and not box.intersects(embr):
            return False
        for p in stop_points:
            if box.intersects_circle(p, psi):
                return True
        return False

    return test


# Sort key of an entry inside the list: (start digits, end digits, id).
_Key = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, int]]


@dataclass
class _Bucket:
    """A z-node: a run of at most ``beta`` consecutive sorted entries."""

    lo: int
    hi: int
    bbox: BBox


class ZOrderedList:
    """The sorted, bucketed entry list of one q-node.

    Parameters
    ----------
    space:
        The q-node's region; all governing points lie inside it.
    entries:
        The node's ``UL(E)`` entry list.
    beta:
        Cell capacity for the adaptive grids and the z-node bucket size.
    z_max_depth:
        Depth cap of the adaptive grids.
    """

    #: Grid cells hold up to ``cell_beta_factor * beta`` driving points.
    #: 1 is the paper's layout (cell capacity == block size beta); larger
    #: factors coarsen the grids, trading zReduce selectivity for fewer
    #: cell tests.  With disambiguation off, 1 measures fastest.
    cell_beta_factor: int = 1

    def __init__(
        self,
        space: BBox,
        entries: Sequence[IndexEntry],
        beta: int,
        z_max_depth: int = 12,
        disambiguation_passes: int = 0,
    ) -> None:
        """``disambiguation_passes`` > 0 enables the paper's Section III
        step (ii): refining the end grid until entries sharing a start
        z-id get distinct end z-ids.  Uniqueness only sharpens the sorted
        order (ties are already broken by entry id); on hotspot-skewed
        data the refinement multiplies the end grid's leaf count ~10x for
        no pruning benefit, so it defaults off."""
        if beta < 1:
            raise IndexError_(f"beta must be >= 1, got {beta}")
        self.space = space
        self.beta = beta
        self.z_max_depth = z_max_depth
        self.disambiguation_passes = disambiguation_passes

        starts = [e.gov_start for e in entries]
        ends = [e.gov_end for e in entries]
        cell_beta = max(1, self.cell_beta_factor * beta)
        self.start_grid = AdaptiveZGrid(space, starts, cell_beta, z_max_depth)
        self.end_grid = AdaptiveZGrid(space, ends, cell_beta, z_max_depth)
        self._disambiguate_end_ids(entries)

        keyed = sorted(
            (
                (
                    self.start_grid.zid_of(e.gov_start).digits,
                    self.end_grid.zid_of(e.gov_end).digits,
                    e.entry_id,
                ),
                i,
            )
            for i, e in enumerate(entries)
        )
        self._keys: List[_Key] = [k for k, _ in keyed]
        #: ``node_pos[z]`` is the position in ``entries`` (the q-node's
        #: list) of the entry at sorted position ``z``.
        self.node_pos: np.ndarray = np.array(
            [i for _, i in keyed], dtype=np.intp
        )
        self.entries: List[IndexEntry] = [entries[i] for _, i in keyed]

        # per sorted entry: the index of its start / end leaf cell in the
        # grid's Z-ordered leaf list, and its bbox, for vector selection
        self._start_leaf = self._leaf_positions(self.start_grid, 0)
        self._end_leaf = self._leaf_positions(self.end_grid, 1)
        boxes = [e.bbox for e in self.entries]
        self._bboxes = np.array(
            [(b.xmin, b.ymin, b.xmax, b.ymax) for b in boxes], dtype=np.float64
        ).reshape(-1, 4)

        self._buckets: List[_Bucket] = self._build_buckets()

    # ------------------------------------------------------------------
    def _disambiguate_end_ids(self, entries: Sequence[IndexEntry]) -> None:
        """Refine the end grid until entries sharing a start z-id have
        distinct end z-ids (paper Section III step (ii)), bounded by the
        configured pass count and the depth cap so identical point pairs
        terminate."""
        for _ in range(min(self.disambiguation_passes, self.z_max_depth)):
            groups: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[IndexEntry]] = {}
            for e in entries:
                key = (
                    self.start_grid.zid_of(e.gov_start).digits,
                    self.end_grid.zid_of(e.gov_end).digits,
                )
                groups.setdefault(key, []).append(e)
            dup_points = [
                e.gov_end for group in groups.values() if len(group) > 1 for e in group
            ]
            if not dup_points:
                return
            refined_any = False
            seen_cells: Set[Tuple[int, ...]] = set()
            for p in dup_points:
                cell = self.end_grid.zid_of(p).digits
                if cell in seen_cells:
                    continue
                seen_cells.add(cell)
                if len(cell) < self.z_max_depth:
                    self.end_grid.refine_at(p, 1)
                    refined_any = True
            if not refined_any:
                return

    def _build_buckets(self) -> List[_Bucket]:
        buckets: List[_Bucket] = []
        n = len(self.entries)
        for lo in range(0, n, self.beta):
            hi = min(lo + self.beta, n)
            box = self.entries[lo].bbox
            for e in self.entries[lo + 1 : hi]:
                box = box.union(e.bbox)
            buckets.append(_Bucket(lo, hi, box))
        return buckets

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    @property
    def n_buckets(self) -> int:
        return len(self._buckets)

    def bucket_sizes(self) -> List[int]:
        return [b.hi - b.lo for b in self._buckets]

    def _leaf_positions(self, grid: AdaptiveZGrid, part: int) -> np.ndarray:
        """Per sorted entry: position of its ``_keys[part]`` cell in
        ``grid.leaf_zids()``."""
        pos = {z.digits: j for j, z in enumerate(grid.leaf_zids())}
        return np.array([pos[k[part]] for k in self._keys], dtype=np.intp)

    def _served(
        self,
        grid: AdaptiveZGrid,
        leaf_of: np.ndarray,
        embr: BBox,
        stops: Optional[np.ndarray],
        psi: float,
    ) -> np.ndarray:
        """Per sorted entry: does its cell in ``grid`` meet the serving
        area?"""
        hit = np.zeros(len(grid.leaf_zids()), dtype=bool)
        hit[grid.serving_leaves(embr, stops, psi)] = True
        return hit[leaf_of]

    # ------------------------------------------------------------------
    # the three zReduce candidate modes
    # ------------------------------------------------------------------
    def candidates_both(
        self, embr: BBox, stops=None, psi: float = 0.0
    ) -> np.ndarray:
        """Entries whose start *and* end z-cells meet the serving area.

        This is the paper's two-step zReduce (Example 4): reduce by start
        z-ids, then by end z-ids.  ``stops`` (an ``(m, 2)`` array)
        tightens cell selection from the EMBR box to the true
        union-of-discs serving area.

        Like every candidate mode, returns positions in the ``entries``
        the list was built from (``intp``), in sorted (z) order.
        """
        keep = self._served(
            self.start_grid, self._start_leaf, embr, stops, psi
        ) & self._served(self.end_grid, self._end_leaf, embr, stops, psi)
        return self.node_pos[keep]

    def candidates_any(
        self, embr: BBox, stops=None, psi: float = 0.0
    ) -> np.ndarray:
        """Entries whose start *or* end z-cell meets the serving area."""
        keep = self._served(
            self.start_grid, self._start_leaf, embr, stops, psi
        ) | self._served(self.end_grid, self._end_leaf, embr, stops, psi)
        return self.node_pos[keep]

    def candidates_bbox(self, embr: BBox) -> np.ndarray:
        """Entries whose own bbox meets ``embr``.

        Sound for FULL-variant entries, whose bbox covers every point they
        own.  (A z-node bucket's bbox is the union of its entries' boxes,
        so bucket-first pruning would keep exactly the same entries.)
        """
        b = self._bboxes
        keep = (
            (b[:, 0] <= embr.xmax)
            & (b[:, 2] >= embr.xmin)
            & (b[:, 1] <= embr.ymax)
            & (b[:, 3] >= embr.ymin)
        )
        return self.node_pos[keep]
