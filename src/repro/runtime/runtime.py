"""The unified query execution context.

PR 1 bolted the proximity accelerators onto the query layer as separate
threaded-through parameters — every evaluator grew ``backend=`` and
``cache=`` keywords, and scaling further (parallel shards, shared shard
stores, worker pools) would have meant yet more.  :class:`QueryRuntime`
replaces that ad-hoc plumbing with one object that owns the whole
execution policy:

* **backend selection** — :meth:`stop_set` dresses a stop set for its
  configured :class:`~repro.core.config.ProximityBackend`, choosing
  dense, gridded, or sharded execution per stop set (the
  :class:`~repro.core.config.RuntimeConfig` ``shards`` knob, with the
  ``AUTO`` heuristic resolving the shard count from the stop count);
* **the coverage cache** — one :class:`~repro.engine.CoverageCache`
  shared by every evaluation routed through the runtime;
* **the shard store** — one :class:`~repro.engine.ShardStore`, so
  facilities with identical or overlapping stop content share built
  shards across queries;
* **stats accrual** — every runtime-routed query merges its work
  counters into :attr:`stats` (via
  :meth:`~repro.core.stats.QueryStats.merge`), giving a service-level
  grand total without threading a stats object through every call;
* **the execution policy** — a :class:`~repro.runtime.policies.
  PolicyExecutor` built from ``RuntimeConfig.policy``: ``serial``
  probes shards inline, ``threads`` fans them over a lazily created
  thread pool (the dense numpy kernels release the GIL), and ``auto``
  picks between the two per probe block; sized by
  ``RuntimeConfig.max_workers``;
* **the probe path** — :meth:`probe_mask` is the single coverage probe
  the query layer calls: it dresses the stop set per policy and runs
  the exact mask, so no module under ``queries/`` touches a backend or
  grid type directly.

None of this changes any answer: a runtime-routed query returns results
bit-identical to the plain dense path, which is what
``tests/test_runtime.py`` and ``tests/test_shards.py`` enforce.

The legacy ``backend=`` / ``cache=`` keywords on the query functions are
kept as deprecated shims that build a private runtime via
:func:`coerce_runtime`, so existing call sites keep working unchanged.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import threading
import warnings
from concurrent.futures import Executor
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.config import (
    ExecutionPolicy,
    ProximityBackend,
    RuntimeConfig,
    resolve_shard_count,
)
from ..core.errors import QueryError
from ..core.service import StopSet
from ..core.stats import QueryStats
from ..engine.cache import CoverageCache
from ..engine.cellstring import AUTO_CELLSTRING_MIN_STOPS, CellstringStopSet
from ..engine.grid import AUTO_MIN_STOPS, GriddedStopSet
from ..engine.shards import ShardedStopSet, ShardStore
from ..store.codecs import opened_mmap_paths
from .policies import make_policy_executor

__all__ = ["QueryRuntime", "coerce_runtime"]

#: One process-wide lock for stats accrual and reset.  A per-runtime
#: lock would silently not serialize the advertised sharing pattern of
#: several runtimes accruing into one caller-supplied ``QueryStats``;
#: accruals are per-query and merge a handful of integers, so a global
#: lock is correct for every sharing shape at no measurable cost.
_STATS_LOCK = threading.Lock()


class QueryRuntime:
    """Execution context for the query layer (see module docstring).

    Parameters
    ----------
    config:
        The execution policy; defaults to
        :class:`~repro.core.config.RuntimeConfig` defaults (``AUTO``
        backend, ``AUTO`` shard count, machine-sized worker pool).
    backend:
        Shorthand overriding ``config.backend`` — ``QueryRuntime(backend=
        ProximityBackend.GRID)`` reads like the old keyword it replaces.
    cache / stats:
        Share a :class:`CoverageCache` / accrue into an existing
        :class:`QueryStats` instead of owning fresh ones (e.g. several
        runtimes reporting into one service-level total).

    A runtime is also a context manager: ``with QueryRuntime() as rt:``
    shuts the worker machinery down on exit.  Without the
    context-manager form the resources live until :meth:`close`; a
    forgotten close is cheap (idle pool threads).
    """

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        *,
        backend: Optional[ProximityBackend] = None,
        cache: Optional[CoverageCache] = None,
        stats: Optional[QueryStats] = None,
    ) -> None:
        if config is None:
            config = RuntimeConfig()
        if backend is not None:
            if not isinstance(backend, ProximityBackend):
                raise QueryError(f"unknown proximity backend: {backend!r}")
            # replace, not field-by-field reconstruction: the shorthand
            # overrides the backend and must carry every other knob —
            # including ones added after this call was written
            config = dataclasses.replace(config, backend=backend)
        self.config = config
        self.cache = cache if cache is not None else CoverageCache()
        self.stats = stats if stats is not None else QueryStats()  # guarded-by: _STATS_LOCK
        self.shard_store = ShardStore(spill_dir=config.store_dir)
        self.policy_executor = make_policy_executor(config)

    # ------------------------------------------------------------------
    # executor lifecycle
    # ------------------------------------------------------------------
    @property
    def executor(self):
        """What sharded probes fan out over right now, or ``None`` when
        execution is serial.

        Shape depends on the configured :class:`~repro.core.config.
        ExecutionPolicy`: ``serial`` always yields ``None``, ``threads``
        a lazily built :class:`~concurrent.futures.ThreadPoolExecutor`,
        ``auto`` its per-block ``probe_shards`` fan-out.  Lazy building
        means runtimes created by the legacy keyword shims cost nothing
        unless sharding actually engages.
        """
        return self.policy_executor.live()

    def close(self) -> None:
        """Shut the worker machinery down; the runtime stays usable
        serially (dressed stop sets degrade to inline probing)."""
        self.policy_executor.close()

    def __enter__(self) -> "QueryRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # backend selection
    # ------------------------------------------------------------------
    def stop_set(
        self, stops: Union[StopSet, np.ndarray], psi: float
    ) -> StopSet:
        """``stops`` dressed for this runtime's execution policy.

        ``DENSE`` returns the set unchanged; ``GRID`` always grids;
        ``CELLSTRING`` always builds precomputed cellstrings; ``AUTO``
        picks by stop count — dense below
        :data:`~repro.engine.grid.AUTO_MIN_STOPS`, cellstrings at or
        above :data:`~repro.engine.cellstring
        .AUTO_CELLSTRING_MIN_STOPS` (repeated probes amortise the
        rasterization the store shares), the grid in between — the
        same thresholds :func:`~repro.engine.grid.backend_stops`
        applies on the sync path.  Grid-tier sets are sharded when the
        resolved shard count exceeds one — ``config.shards`` directly,
        or the ``AUTO`` heuristic from the stop count — and
        plain-gridded otherwise.  Already-dressed sets pass through, so
        re-dressing across recursive divisions is free.
        """
        if not isinstance(stops, StopSet):
            stops = StopSet(np.asarray(stops, dtype=np.float64))
        backend = self.config.backend
        if backend is ProximityBackend.DENSE:
            return stops
        if isinstance(stops, (GriddedStopSet, CellstringStopSet)):
            # GriddedStopSet includes ShardedStopSet
            return stops
        min_stops = (
            1
            if backend in (ProximityBackend.GRID, ProximityBackend.CELLSTRING)
            else AUTO_MIN_STOPS
        )
        n = stops.n_stops
        if n < min_stops:
            # below the threshold the dense broadcast wins; returning the
            # plain set (rather than a lazy wrapper) keeps tiny
            # components zero-overhead
            return stops
        if backend is ProximityBackend.CELLSTRING or (
            backend is ProximityBackend.AUTO and n >= AUTO_CELLSTRING_MIN_STOPS
        ):
            # executor getter, not executor: resolved at query time so
            # sets dressed before close() degrade to inline probing
            return CellstringStopSet(
                stops.coords,
                psi,
                min_stops,
                store=self.shard_store,
                executor=self._live_executor,
            )
        shards = resolve_shard_count(self.config.shards, n)
        if shards > 1:
            # pass the executor *getter*, not the executor: the stop set
            # resolves it at query time, so sets dressed before close()
            # degrade to serial probing instead of scheduling on a
            # shut-down pool
            return ShardedStopSet(
                stops.coords,
                psi,
                self.config.shards,
                min_stops,
                store=self.shard_store,
                executor=self._live_executor,
            )
        return GriddedStopSet(stops.coords, psi, min_stops)

    def _live_executor(self):
        """The current fan-out target, or ``None`` once closed (resolved
        late by the sharded stop sets this runtime dresses)."""
        return self.executor

    # ------------------------------------------------------------------
    # the probe path
    # ------------------------------------------------------------------
    def probe_mask(
        self,
        stops: Union[StopSet, np.ndarray],
        coords: np.ndarray,
        psi: float,
        stats: Optional[QueryStats] = None,
    ) -> np.ndarray:
        """The runtime-owned coverage probe: which ``coords`` rows are
        within ``psi`` of ``stops``, under this runtime's backend and
        execution policy.

        This is the one entry point the query layer uses for exact
        geometric work — ``queries/`` never touches a grid, shard, or
        backend type directly.  Already-dressed stop sets pass through
        :meth:`stop_set` untouched, so probing a component the runtime
        dressed earlier costs nothing extra; undressed stops (direct
        :func:`~repro.queries.evaluate.evaluate_node_trajectories`
        calls, ad-hoc arrays) are dressed here first.  Results are
        bit-identical to :meth:`~repro.core.service.StopSet
        .covered_mask` for every policy.
        """
        return self.stop_set(stops, psi).covered_mask(coords, psi, stats)

    async def probe_mask_async(
        self,
        stops: Union[StopSet, np.ndarray],
        coords: np.ndarray,
        psi: float,
        stats: Optional[QueryStats] = None,
        executor: Optional[Executor] = None,
    ) -> np.ndarray:
        """:meth:`probe_mask` bridged onto the running event loop.

        The probe — stop-set dressing, the grid/shard kernels, and any
        policy-executor fan-out those schedule — is synchronous CPU
        work, so awaiting it directly would stall every other coroutine
        for the duration of the kernel.  This bridge runs the whole
        probe via :meth:`loop.run_in_executor` (on ``executor``, or the
        loop's default thread pool when ``None``) and awaits the
        future, so the event loop stays responsive while the policy
        executor does the geometric work on a bridge thread.  Results
        are the same object :meth:`probe_mask` would return — the
        bridge changes where the caller waits, never what is computed.

        ``stats``, when given, is mutated from the bridge thread; don't
        share one stats object across concurrent probes (give each its
        own and :meth:`~repro.core.stats.QueryStats.merge` after — the
        pattern :class:`repro.service.QueryService` uses per request).
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            executor,
            functools.partial(self.probe_mask, stops, coords, psi, stats),
        )

    # ------------------------------------------------------------------
    # the batched probe path
    # ------------------------------------------------------------------
    def probe_masks_batch(
        self,
        tasks: "Sequence[Tuple[Union[StopSet, np.ndarray], np.ndarray, float]]",
        stats_list: "Optional[Sequence[Optional[QueryStats]]]" = None,
    ) -> "List[np.ndarray]":
        """Many coverage probes in one call: each task is
        ``(stops, coords, psi)`` and yields the exact mask
        :meth:`probe_mask` would, in task order.

        This is the bridge-side entry point for cross-request batching:
        the service's batch tier collects every distinct
        ``(facility, psi)`` a merged group of evaluate requests needs,
        probes them all against the group's shared probe block here,
        and splits the returned per-task counters back onto the
        requests — one bridge call where the unbatched path pays one
        per request.  Tasks run sequentially on the calling thread
        (each probe already fans out internally per the execution
        policy when its stop set is sharded), so per-task stats are
        attributed exactly and results are deterministic under every
        policy.

        ``stats_list``, when given, must match ``tasks`` in length;
        entry *i* (when not ``None``) receives task *i*'s counters
        only.  Nothing is accrued into the runtime totals — the caller
        owns attribution, exactly as with :meth:`probe_mask`.
        """
        if stats_list is not None and len(stats_list) != len(tasks):
            raise QueryError(
                f"stats_list length {len(stats_list)} != tasks length "
                f"{len(tasks)}"
            )
        masks = []
        for i, (stops, coords, psi) in enumerate(tasks):
            stats = stats_list[i] if stats_list is not None else None
            masks.append(self.probe_mask(stops, coords, psi, stats))
        return masks

    async def probe_masks_batch_async(
        self,
        tasks: "Sequence[Tuple[Union[StopSet, np.ndarray], np.ndarray, float]]",
        stats_list: "Optional[Sequence[Optional[QueryStats]]]" = None,
        executor: Optional[Executor] = None,
    ) -> "List[np.ndarray]":
        """:meth:`probe_masks_batch` bridged onto the running event
        loop: all the tasks' geometric work crosses to a bridge thread
        in **one** ``run_in_executor`` hop (vs one hop per probe with
        repeated :meth:`probe_mask_async`), which is what makes a
        merged group of N requests cost one scheduling round trip.
        Same stats discipline as :meth:`probe_mask_async`: the stats
        objects are mutated from the bridge thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            executor,
            functools.partial(self.probe_masks_batch, tasks, stats_list),
        )

    # ------------------------------------------------------------------
    # stats accrual
    # ------------------------------------------------------------------
    def accrue(self, delta: QueryStats) -> None:
        """Merge one query's work counters into the runtime total.

        Serialized against concurrent accruals and :meth:`reset_stats`
        — across *all* runtimes, so several runtimes accruing into one
        shared ``stats`` object are covered too: accruals come from
        whichever thread a query core ran on (sync callers' threads,
        the service's bridge pool — including a core whose caller was
        cancelled), and an unguarded read-modify-write merge would lose
        counts, while a reset swapping the totals object mid-merge
        would tear them.
        """
        with _STATS_LOCK:
            self.stats.merge(delta)

    def reset_stats(self) -> QueryStats:
        """Return the accrued totals and start a fresh accumulation."""
        with _STATS_LOCK:
            out = self.stats
            self.stats = QueryStats()
        return out

    def snapshot_stats(self) -> QueryStats:
        """A consistent copy of the accrued totals.

        Taken under the stats lock, so no concurrently accruing core
        can tear the counters mid-merge — what the serving layer's
        ``GET /stats`` reports while requests are in flight.  Mutating
        the copy never perturbs the runtime's totals.
        """
        with _STATS_LOCK:
            return dataclasses.replace(self.stats)

    def snapshot_store_stats(self):
        """A frozen :class:`~repro.core.stats.StoreStats` of the shard
        store's cache counters — hits, misses, evictions per level, plus
        how many indexes were served from persisted store files
        (``opened``/``verified``).  The serving layer's ``GET /stats``
        reports this next to the query totals.
        """
        return self.shard_store.snapshot_stats()

    def worker_mmap_paths(self) -> Tuple[str, ...]:
        """The persisted store files this process serves over memory-
        mapped views: everything any codec mmap-opened (catalog
        payloads included) and everything the shard store *opened*
        instead of building.

        This is the zero-copy evidence the multi-worker serving layer
        reports per worker on ``GET /stats``: a worker whose indexes
        all arrive here created no private index copies.  Reads only
        in-process records — cheap enough for a stats handler.
        """
        paths = set(opened_mmap_paths())
        paths.update(self.shard_store.opened_paths)
        return tuple(sorted(paths))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryRuntime(backend={self.config.backend.value}, "
            f"policy={self.config.policy.value}, "
            f"shards={self.config.shards}, cache_entries={len(self.cache)})"
        )


def coerce_runtime(
    runtime: Optional[QueryRuntime],
    backend: Optional[ProximityBackend] = None,
    cache: Optional[CoverageCache] = None,
) -> Optional[QueryRuntime]:
    """Resolve the query layer's ``runtime`` / legacy keyword trio.

    * ``runtime`` given — returned as-is (mixing it with the legacy
      keywords is ambiguous and raises);
    * legacy ``backend`` / ``cache`` given — a private runtime wrapping
      them (with a :exc:`DeprecationWarning`), preserving the old
      semantics exactly: ``backend=None`` meant *leave stops dense*, so
      the shim maps it to ``DENSE``, and sharding stays off
      (``shards=1``) because the legacy path never sharded;
    * nothing given — ``None``: the caller keeps the plain dense path
      with zero runtime overhead.
    """
    if runtime is not None:
        if backend is not None or cache is not None:
            raise QueryError(
                "pass either runtime= or the legacy backend=/cache= "
                "keywords, not both"
            )
        if not isinstance(runtime, QueryRuntime):
            raise QueryError(
                f"runtime must be a QueryRuntime, got {type(runtime).__name__}"
            )
        return runtime
    if backend is None and cache is None:
        return None
    warnings.warn(
        "the backend=/cache= keywords are deprecated; pass "
        "runtime=QueryRuntime(backend=..., cache=...) instead",
        DeprecationWarning,
        stacklevel=3,
    )
    config = RuntimeConfig(
        backend=backend if backend is not None else ProximityBackend.DENSE,
        policy=ExecutionPolicy.SERIAL,
        shards=1,
        max_workers=0,
    )
    return QueryRuntime(config, cache=cache)
