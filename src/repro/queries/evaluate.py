"""Service evaluation over a TQ-tree (paper Algorithms 1 and 2).

:func:`evaluate_service` is the divide-and-conquer Algorithm 1: starting
from the root, the facility component is recursively divided over the
child quadrants (children the component cannot serve are pruned), and
each visited node's own entry list is scored by
:func:`evaluate_node_trajectories` (Algorithm 2).

Algorithm 2 is where the two-phase pruning happens:

* on a TQ(Z) node, ``zReduce`` narrows the entry list through the
  z-ordered structure (:meth:`ZOrderedList.candidates_*`);
* on a TQ(B) node the list is scanned linearly with only a cheap
  envelope check over the node's filter block (this *is* the paper's
  TQ(B): no ordering to exploit);
* surviving candidates get exact ``psi``-distance scoring against the
  component's stops.

Both candidate paths yield positions into the node's entry list, and
scoring works on the node's flat arrays
(:class:`~repro.index.nodearrays.NodeArrays`): one range-gather pulls
the candidates' probe rows, one distance pass covers them all, and the
service model's rule is a few vector operations over the covered rows
(DESIGN.md §4.3).  No per-entry Python runs on the query path.

A :class:`MatchCollector` can ride along to record *which* points of
which users were served — MaxkCovRST needs these per-facility match sets
to price combined coverage.

Acceleration plugs in through one object without changing any result: a
:class:`~repro.runtime.QueryRuntime` passed as ``runtime`` owns the
whole probe path — every exact distance check goes through
:meth:`~repro.runtime.QueryRuntime.probe_mask`, which dresses the
component's stops for the runtime's backend and execution policy (dense
broadcast, uniform stop grid, or sharded grid fanned out serially or
over threads) — memoises each (facility, q-node) candidate array and
coverage mask in the runtime's cache so a re-walk in the same mode — a
repeated query for the same facility, ancestor scans across kMaxRRST
relax rounds, solver ensembles sharing match sets — skips the
geometric work and only re-runs the aggregation, and accrues this
evaluation's work counters into the runtime's grand total.
(Collecting and non-collecting walks select different candidate sets,
so the cache keys them apart rather than sharing across them; the key
also carries the node's version, so an insert into the tree retires
the node's old entries.)  No backend, grid, or cache type is plumbed
through this module directly; the pre-runtime ``backend=`` / ``cache=``
keywords remain as deprecated shims via
:func:`~repro.runtime.coerce_runtime`.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import IndexVariant
from ..core.errors import QueryError
from ..core.service import ServiceModel, ServiceSpec
from ..core.stats import QueryStats
from ..core.trajectory import FacilityRoute
from ..index.nodearrays import NodeArrays
from ..index.tqtree import QNode, TQTree
from ..runtime import QueryRuntime, coerce_runtime
from .components import FacilityComponent, intersecting_components

__all__ = [
    "QueryStats",
    "MatchCollector",
    "evaluate_core",
    "evaluate_service",
    "evaluate_node_trajectories",
    "needs_ancestor_scan",
]


class MatchCollector:
    """Accumulates served point indices per user across an evaluation.

    Node scoring hands over the ``(user, point index)`` pair of every
    covered probe row as two arrays; :meth:`as_dict` folds them.
    """

    def __init__(self) -> None:
        self._tids: List[np.ndarray] = []
        self._pidx: List[np.ndarray] = []

    def extend(self, tids: np.ndarray, pidx: np.ndarray) -> None:
        if tids.size:
            self._tids.append(tids)
            self._pidx.append(pidx)

    def as_dict(self) -> Dict[int, Tuple[int, ...]]:
        """``{traj_id: sorted distinct point indices}``, users in the
        order they were first recorded (the greedy's summation order
        follows it)."""
        if not self._tids:
            return {}
        tids = np.concatenate(self._tids)
        pidx = np.concatenate(self._pidx)
        users, first = np.unique(tids, return_index=True)
        order = np.lexsort((pidx, tids))
        tids, pidx = tids[order], pidx[order]
        fresh = np.ones(tids.size, dtype=bool)
        fresh[1:] = (tids[1:] != tids[:-1]) | (pidx[1:] != pidx[:-1])
        tids, pidx = tids[fresh], pidx[fresh]
        bounds = np.searchsorted(tids, users).tolist() + [tids.size]
        points = pidx.tolist()
        user_ids = users.tolist()
        # users served at the same points share one tuple: runtime
        # caches keep every facility's match set
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        out: Dict[int, Tuple[int, ...]] = {}
        for u in np.argsort(first).tolist():
            served = tuple(points[bounds[u] : bounds[u + 1]])
            out[user_ids[u]] = shared.setdefault(served, served)
        return out


def needs_ancestor_scan(spec: ServiceSpec, variant: IndexVariant) -> bool:
    """Can entries stored *above* the facility's containing q-node score?

    For ENDPOINT service (and LENGTH on two-point entries) a contributing
    entry needs both governing points inside the serving envelope, which
    is contained in a single child of every proper ancestor — impossible
    for an inter-node entry stored there.  For COUNT, or LENGTH on
    full-trajectory entries, a single point/segment inside the envelope
    suffices, so ancestors must be scanned.
    """
    if spec.model is ServiceModel.COUNT:
        return True
    return spec.model is ServiceModel.LENGTH and variant is IndexVariant.FULL


def _requires_both_endpoints(spec: ServiceSpec, variant: IndexVariant) -> bool:
    """Is an entry only able to score when *both* governing points are
    inside the serving envelope?  (Mirror of :func:`needs_ancestor_scan`
    at entry granularity.)"""
    if spec.model is ServiceModel.ENDPOINT:
        return True
    return spec.model is ServiceModel.LENGTH and variant is not IndexVariant.FULL


#: Node lists shorter than this are scanned linearly even on TQ(Z): the
#: z-machinery's per-query overhead (two grid selections plus range
#: lookups) only pays for itself once a list is a few buckets long.
_Z_MIN_LIST = 192


def _zreduce_candidates(
    tree: TQTree,
    node: QNode,
    component: FacilityComponent,
    spec: ServiceSpec,
    collecting: bool,
) -> Optional[np.ndarray]:
    """Apply zReduce on a TQ(Z) node; None means "no z-structure, scan".

    ``collecting`` switches to partial-tolerant candidate modes: combined
    (MaxkCovRST) coverage needs *every* served point recorded, including
    entries only one of whose endpoints is near the facility, so the
    both-endpoints zReduce would silently drop cross-facility matches.
    """
    if len(node.entries) < _Z_MIN_LIST:
        return None
    zlist = tree.node_zlist(node)
    if zlist is None:
        return None
    embr = component.embr
    if embr is None:
        return np.zeros(0, dtype=np.intp)
    variant = tree.config.variant
    if variant is IndexVariant.FULL and (
        collecting or spec.model is not ServiceModel.ENDPOINT
    ):
        return zlist.candidates_bbox(embr)
    stops = component.stops.coords
    if not collecting and _requires_both_endpoints(spec, variant):
        return zlist.candidates_both(embr, stops, component.psi)
    return zlist.candidates_any(embr, stops, component.psi)


def _linear_candidates(
    gov: np.ndarray,
    component: FacilityComponent,
    spec: ServiceSpec,
    variant: IndexVariant,
    collecting: bool,
) -> np.ndarray:
    """TQ(B) path: linear scan of the whole node list with a vectorised
    envelope check over the node's filter block ``gov`` (the scan is
    what distinguishes TQ(B) from TQ(Z) — no z-order ranges to jump
    to)."""
    embr = component.embr
    if embr is None:
        return np.zeros(0, dtype=np.intp)
    if not collecting and _requires_both_endpoints(spec, variant):
        mask = (
            (gov[:, 0] >= embr.xmin)
            & (gov[:, 0] <= embr.xmax)
            & (gov[:, 1] >= embr.ymin)
            & (gov[:, 1] <= embr.ymax)
            & (gov[:, 2] >= embr.xmin)
            & (gov[:, 2] <= embr.xmax)
            & (gov[:, 3] >= embr.ymin)
            & (gov[:, 3] <= embr.ymax)
        )
    else:
        mask = (
            (gov[:, 4] <= embr.xmax)
            & (gov[:, 6] >= embr.xmin)
            & (gov[:, 5] <= embr.ymax)
            & (gov[:, 7] >= embr.ymin)
        )
    # a fresh array: np.flatnonzero returns a view whose base would stay
    # alive next to it in the runtime cache
    return np.arange(mask.size)[mask]


def _probe_rows(
    probe_off: np.ndarray, candidates: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The candidates' probe rows, concatenated in candidate order, and
    the CSR offsets of each candidate's run within that block."""
    starts = probe_off[candidates]
    lens = probe_off[candidates + 1] - starts
    block_off = np.zeros(candidates.size + 1, dtype=np.intp)
    np.cumsum(lens, out=block_off[1:])
    rows = np.arange(block_off[-1]) + np.repeat(starts - block_off[:-1], lens)
    return rows, block_off


def _candidate_mask(
    coords: np.ndarray,
    component: FacilityComponent,
    spec: ServiceSpec,
    stats: Optional[QueryStats],
    runtime: Optional[QueryRuntime],
) -> np.ndarray:
    """One vectorised distance pass over all candidates' probe points.

    With a runtime the check rides its probe path (backend dressing plus
    the configured execution policy); without one it is the plain dense
    kernel.  Results are identical either way.
    """
    if runtime is not None:
        return runtime.probe_mask(component.stops, coords, spec.psi, stats)
    return component.stops.covered_mask(coords, spec.psi, stats)


def _aggregate_candidates(
    arrays: NodeArrays,
    rows: np.ndarray,
    block_off: np.ndarray,
    mask: np.ndarray,
    spec: ServiceSpec,
) -> float:
    """The service model's score summed over all candidates, from the
    coverage ``mask`` of their probe rows.

    The vectors handed to ``np.dot`` hold the owned-point (COUNT) or
    owned-segment (LENGTH) rows in candidate order, then row order: the
    order bit-identity with per-entry scoring needs (DESIGN.md §4.3).
    """
    if spec.model is ServiceModel.ENDPOINT:
        # every candidate is a whole-trajectory entry whose sorted probe
        # run starts at point 0 and ends at point n-1
        served = mask[block_off[:-1]] & mask[block_off[1:] - 1]
        return float(np.count_nonzero(served))
    if spec.model is ServiceModel.COUNT:
        own = arrays.probe_own[rows]
        if spec.normalize:
            weights = arrays.probe_w[rows[own]]
        else:
            weights = np.ones(np.count_nonzero(own))
        return float(np.dot(mask[own].astype(np.float64), weights))
    # LENGTH: an owned segment spans a row and the next one
    seg = np.flatnonzero(arrays.probe_seg[rows])
    lengths = (
        arrays.probe_seg_len_scaled if spec.normalize else arrays.probe_seg_len
    )[rows[seg]]
    served = mask[seg] & mask[seg + 1]
    return float(np.dot(served.astype(np.float64), lengths))


def _entry_scores(
    arrays: NodeArrays,
    candidates: np.ndarray,
    rows: np.ndarray,
    block_off: np.ndarray,
    mask: np.ndarray,
    spec: ServiceSpec,
) -> np.ndarray:
    """Per candidate, the score :meth:`IndexEntry.score_from_covered`
    gives: the same arithmetic per entry (a segment sum accumulates in
    segment order, normalisation divides), so each score is bitwise the
    per-entry one."""
    first, end = block_off[:-1], block_off[1:]
    if spec.model is ServiceModel.ENDPOINT:
        return (mask[first] & mask[end - 1]).astype(np.float64)
    if spec.model is ServiceModel.COUNT:
        covered = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(mask & arrays.probe_own[rows], out=covered[1:])
        raw = (covered[end] - covered[first]).astype(np.float64)
        return raw / arrays.n_points[candidates] if spec.normalize else raw
    # LENGTH: lay each entry's served segment lengths out on one row of
    # a zero-padded matrix; a running sum along the row adds them in
    # segment order, as the per-entry loop does
    seg = np.flatnonzero(arrays.probe_seg[rows])
    lens = np.diff(block_off)
    owner = np.repeat(np.arange(candidates.size), lens)
    padded = np.zeros((candidates.size, int(lens.max())))
    padded[owner[seg], seg - first[owner[seg]]] = np.where(
        mask[seg] & mask[seg + 1], arrays.probe_seg_len[rows[seg]], 0.0
    )
    raw = np.cumsum(padded, axis=1)[:, -1]
    if not spec.normalize:
        return raw
    total = arrays.traj_length[candidates]
    out = np.zeros_like(raw)
    np.divide(raw, total, out=out, where=total > 0)
    return out


def evaluate_node_trajectories(
    tree: TQTree,
    node: QNode,
    component: FacilityComponent,
    spec: ServiceSpec,
    collector: Optional[MatchCollector] = None,
    stats: Optional[QueryStats] = None,
    runtime: Optional[QueryRuntime] = None,
    cache=None,
) -> float:
    """Algorithm 2: score the entries stored *at* ``node`` against the
    facility component.  Returns the service value gained.

    ``runtime`` owns the probe path (how the exact distance pass
    executes) and memoises the (candidates, mask) pair per (facility,
    q-node version, psi, mode) in its cache: the component a facility
    induces at a q-node is the same whichever algorithm walked there
    (stops within the node's box expanded by ``psi``), so a later walk
    in the same mode — a repeated query, an ancestor re-scan — reuses
    the geometric work and only re-runs the cheap aggregation.  Mode
    (collecting flag plus service model) is part of the key because it
    changes which candidates survive zReduce.  ``cache`` is the
    deprecated pre-runtime spelling (a bare
    :class:`~repro.engine.CoverageCache`).

    With a ``collector`` the node's sum is taken sequentially over the
    per-entry scores, exactly as summing :meth:`IndexEntry
    .score_from_covered` entry by entry would, and every covered probe
    point is recorded.
    """
    if (
        runtime is not None
        and cache is None
        and not isinstance(runtime, QueryRuntime)
    ):
        # PR-2's signature had the bare cache in this positional slot;
        # keep such callers on the deprecation shim instead of crashing
        runtime, cache = None, runtime
    if cache is not None:
        # the bare-cache shim keeps PR-2 semantics exactly (memoise,
        # dense probes) without building a throwaway runtime on what is
        # a per-node hot path
        if runtime is not None:
            raise QueryError(
                "pass either runtime= or the legacy cache= keyword, "
                "not both"
            )
        warnings.warn(
            "the cache= keyword is deprecated; pass "
            "runtime=QueryRuntime(cache=...) instead",
            DeprecationWarning,
            stacklevel=2,
        )
    elif runtime is not None:
        cache = runtime.cache
    if component.is_empty or not node.entries:
        return 0.0
    arrays = node.arrays()
    collecting = collector is not None
    key = (
        component.facility_id,
        id(node),
        node.version,
        spec.psi,
        collecting,
        spec.model.value,
    )
    hit = (
        cache.lookup_node(key, node, component.stops.coords)
        if cache is not None
        else None
    )
    if hit is not None:
        candidates, mask = hit
    else:
        candidates = _zreduce_candidates(tree, node, component, spec, collecting)
        if candidates is None:
            candidates = _linear_candidates(
                arrays.gov, component, spec, tree.config.variant, collecting
            )
    if stats is not None:
        stats.entries_considered += len(node.entries)
        stats.entries_scored += candidates.size
        if hit is not None:
            stats.cache_hits += 1
    rows, block_off = _probe_rows(arrays.probe_off, candidates)
    if hit is None:
        mask = (
            _candidate_mask(
                arrays.probe_coords[rows], component, spec, stats, runtime
            )
            if candidates.size
            else np.zeros(0, dtype=bool)
        )
        if cache is not None:
            cache.store_node(
                key, node, component.stops.coords, candidates, mask
            )
    if not candidates.size:
        return 0.0
    if collector is None:
        return _aggregate_candidates(arrays, rows, block_off, mask, spec)
    hits = rows[mask]
    collector.extend(arrays.probe_tid[hits], arrays.probe_pidx[hits])
    scores = _entry_scores(arrays, candidates, rows, block_off, mask, spec)
    return float(np.cumsum(scores)[-1])


def evaluate_core(
    tree: TQTree,
    facility: FacilityRoute,
    spec: ServiceSpec,
    collector: Optional[MatchCollector] = None,
    runtime: Optional[QueryRuntime] = None,
) -> Tuple[float, QueryStats]:
    """The pure step behind :func:`evaluate_service`: Algorithm 1's
    divide-and-conquer, returning ``(service value, work counters)``
    without touching any shared state beyond the runtime's caches.

    This is the planner-consumable form — :class:`repro.service
    .QueryPlanner` lowers an ``EvaluateRequest`` onto it directly, and
    the synchronous :func:`evaluate_service` wrapper adds only runtime
    coercion and stats accrual on top.  One execution substrate, two
    entrypoints: both paths run this exact function, which is why the
    service's answers and per-request stats are bit-identical to the
    direct calls by construction.
    """
    tree.validate_spec(spec)
    local = QueryStats()
    whole = FacilityComponent.whole(facility, spec.psi)
    if runtime is not None:
        whole = whole.with_stops(runtime.stop_set(whole.stops, spec.psi))
    component = whole.restricted_to(tree.root.box)
    so = _evaluate_rec(
        tree, tree.root, component, spec, collector, local, runtime
    )
    return so, local


def evaluate_service(
    tree: TQTree,
    facility: FacilityRoute,
    spec: ServiceSpec,
    collector: Optional[MatchCollector] = None,
    stats: Optional[QueryStats] = None,
    backend=None,
    cache=None,
    runtime: Optional[QueryRuntime] = None,
) -> float:
    """Algorithm 1: the full service value ``SO(U, f)`` of one facility.

    Divide-and-conquer from the root: children whose region the component
    cannot serve are pruned; every visited node's own list is scored via
    Algorithm 2.  ``runtime`` owns the probe path — how exact distance
    checks execute (dense broadcast, stop grid, or sharded fan-out under
    the runtime's execution policy — identical results) — memoises
    per-(facility, node) coverage in its cache, and accrues this
    evaluation's work into its grand total.  ``backend`` / ``cache`` are
    the deprecated pre-runtime spellings.

    A thin synchronous wrapper over :func:`evaluate_core` — the same
    substrate the async :class:`repro.service.QueryService` executes.
    """
    runtime = coerce_runtime(runtime, backend, cache)
    so, local = evaluate_core(tree, facility, spec, collector, runtime)
    if runtime is not None:
        runtime.accrue(local)
    if stats is not None:
        stats.merge(local)
    return so


def _evaluate_rec(
    tree: TQTree,
    node: QNode,
    component: FacilityComponent,
    spec: ServiceSpec,
    collector: Optional[MatchCollector],
    stats: Optional[QueryStats],
    runtime: Optional[QueryRuntime] = None,
) -> float:
    if component.is_empty:
        return 0.0
    if stats is not None:
        stats.nodes_visited += 1
    so = evaluate_node_trajectories(
        tree, node, component, spec, collector, stats, runtime
    )
    if node.children is not None:
        boxes = [child.box for child in node.children]
        child_components = intersecting_components(boxes, component)
        for child, child_comp in zip(node.children, child_components):
            if child_comp is None:
                continue
            if child.sub.n_entries == 0:
                continue  # empty subtree
            so += _evaluate_rec(
                tree, child, child_comp, spec, collector, stats, runtime
            )
    return so
