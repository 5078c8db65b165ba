"""Block-I/O cost model for disk-resident TQ-trees (paper Sections III-B, VI-A).

The paper states that ``beta`` "corresponds to the size of a memory block
(or a disk block for a disk-resident list UL(E))" and that "without loss
of generality our data structures can be applied for disk-based
systems".  This module makes that concrete: it prices a query's work in
*block accesses*, the machine-independent unit database papers compare
on, so the TQ(Z)-vs-TQ(B) separation can be shown free of CPython
constant factors.

Pricing rules (classic external-memory accounting, one block = ``beta``
entries):

* visiting a q-node costs one block (its header: region, ``sub``,
  pointers);
* a TQ(B) evaluation reads the node's *entire* entry list —
  ``ceil(|UL|/beta)`` blocks;
* a TQ(Z) evaluation reads only the z-nodes (buckets) holding surviving
  candidates, plus the z-grid directory (one block per grid);
* the BL baseline reads every leaf block of the point quadtree touched
  by each disc query.

:func:`estimate_query_blocks` replays a service-value evaluation with
these rules and returns the per-method totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.service import ServiceSpec
from ..core.trajectory import FacilityRoute
from ..index.tqtree import QNode, TQTree
from .components import FacilityComponent, intersecting_components

__all__ = ["BlockCosts", "estimate_query_blocks"]


@dataclass
class BlockCosts:
    """Block accesses attributed to one query."""

    node_blocks: int = 0  # q-node headers read
    list_blocks: int = 0  # entry-list blocks read
    directory_blocks: int = 0  # z-grid directories read

    @property
    def total(self) -> int:
        return self.node_blocks + self.list_blocks + self.directory_blocks


def _blocks(n_entries: int, beta: int) -> int:
    return math.ceil(n_entries / beta) if n_entries > 0 else 0


def estimate_query_blocks(
    tree: TQTree, facility: FacilityRoute, spec: ServiceSpec
) -> BlockCosts:
    """Replay Algorithm 1 for ``facility`` counting block accesses.

    Uses the same pruning decisions as the live evaluator: a pruned child
    costs nothing; a visited TQ(B) node pays for its whole list; a
    visited TQ(Z) node pays for its grid directories plus only the
    buckets containing zReduce survivors.
    """
    tree.validate_spec(spec)
    costs = BlockCosts()
    component = FacilityComponent.whole(facility, spec.psi).restricted_to(
        tree.root.box
    )
    _walk(tree, tree.root, component, spec, costs)
    return costs


def _candidates_for_pricing(tree: TQTree, zlist, component, spec):
    """Mirror the live evaluator's (non-collecting) candidate mode."""
    from ..core.config import IndexVariant
    from ..core.service import ServiceModel

    embr = component.embr
    variant = tree.config.variant
    if variant is IndexVariant.FULL and spec.model is not ServiceModel.ENDPOINT:
        return zlist.candidates_bbox(embr)
    both = spec.model is ServiceModel.ENDPOINT or (
        spec.model is ServiceModel.LENGTH and variant is not IndexVariant.FULL
    )
    if both:
        return zlist.candidates_both(embr, component.stops.coords, component.psi)
    return zlist.candidates_any(embr, component.stops.coords, component.psi)


def _walk(
    tree: TQTree,
    node: QNode,
    component: FacilityComponent,
    spec: ServiceSpec,
    costs: BlockCosts,
) -> None:
    beta = tree.config.beta
    if component.is_empty:
        return
    costs.node_blocks += 1
    if node.entries:
        zlist = tree.node_zlist(node)
        embr = component.embr
        if zlist is None or embr is None:
            # TQ(B): the flat list is scanned in full
            costs.list_blocks += _blocks(len(node.entries), beta)
        else:
            # TQ(Z): two grid directories + only the buckets (z-nodes)
            # that hold surviving candidates, one block each
            costs.directory_blocks += 2
            candidates = _candidates_for_pricing(tree, zlist, component, spec)
            if candidates.size:
                wanted = np.zeros(len(node.entries), dtype=bool)
                wanted[candidates] = True
                in_order = wanted[zlist.node_pos]
                costs.list_blocks += sum(
                    1 for bucket in zlist._buckets
                    if in_order[bucket.lo : bucket.hi].any()
                )
    if node.children is not None:
        boxes = [child.box for child in node.children]
        for child, child_comp in zip(
            node.children, intersecting_components(boxes, component)
        ):
            if child_comp is None or child.sub.n_entries == 0:
                continue
            _walk(tree, child, child_comp, spec, costs)
