"""The asyncio query service: concurrent requests over one runtime.

:class:`QueryService` is the serving layer the ROADMAP's heavy-traffic
north star calls for: an asyncio front that accepts concurrent
:class:`~repro.service.requests.QueryRequest` submissions, runs their
query cores on a bridge thread pool (the event loop never executes a
probe kernel), and coalesces probe work across in-flight requests
through the shared :class:`~repro.runtime.QueryRuntime`.

**Coalescing.**  At submission the request is lowered by the
:class:`~repro.service.planner.QueryPlanner` into probe units — the
shareable (facility, psi, mode) work descriptors — and registered
against the service's unit table *synchronously*, so every request
submitted in the same event-loop tick sees every other.  A request
whose units are all fresh is scheduled immediately; a request that
shares a unit with an earlier in-flight request waits for that request
to finish and then runs with the earlier request's masks, match sets,
and shard builds already in the runtime's :class:`~repro.engine
.CoverageCache` / :class:`~repro.engine.ShardStore` — its probes are
served from the shared pass instead of recomputed.  Ordering is by
submission, which makes the whole schedule equivalent to *some*
sequential execution of the same requests against the same runtime:
that equivalence is why service results **and per-request stats** are
bit-identical to the synchronous functions (the differential suite in
``tests/test_query_service.py`` holds both to ``==`` under every
execution policy).

**Admission control.**  ``ServiceConfig.queue_depth`` bounds how many
requests may be admitted at once — a submission past the bound fails
fast with :class:`~repro.core.errors.ServiceOverloaded` instead of
growing an unbounded queue; ``max_in_flight`` bounds how many cores
execute concurrently on the bridge pool; ``coalesce_window`` holds each
admitted request open briefly so slightly-later submissions can
coalesce onto its units before execution begins.

**Cancellation.**  A caller may cancel an admitted submission (e.g.
:func:`asyncio.wait_for` timing out).  Cancellation is strictly local
to that request: the shared predecessor futures it was waiting on are
shielded, so siblings gathering on the same futures never see the
cancel; its admission slot is released; and its own done-future
resolves only once all of *its* predecessors have resolved, so a
successor sharing a unit still runs strictly after the surviving chain
— submission order on overlap holds even around cancelled requests.
A request cancelled *after* its core started cannot abandon it (a
thread cannot be interrupted): the orphaned core keeps its bridge-pool
slot and its position in the schedule — successors wait for it exactly
as they would for a completing predecessor — and when it finishes, its
stats are accrued into the runtime totals, because its cache work
happened and is visible to successors just like a sequential
predecessor's.  Cancelled requests are counted in
``ServiceStats.requests_cancelled``.

**Batching** (``ServiceConfig.batch_window`` > 0).  Distinct evaluate
requests against the same tree submitted within the window merge into
one :class:`~repro.engine.BatchQueryEngine` pass: the service keeps one
engine per resident tree (the shared probe-block concat built once),
collects the group's distinct ``(facility, psi)`` masks through one
:meth:`~repro.runtime.QueryRuntime.probe_masks_batch` bridge call, and
scores every member from the shared block — one bridge-pool task and
one mask per distinct facility where the unbatched path pays a full
tree walk per request.  A request only joins a group when its
arithmetic is provably bit-identical between the tree walk and the
engine (ENDPOINT and un-normalized COUNT always — integer sums are
exact in float — and normalized COUNT when every trajectory's point
count is a power of two, making the per-point weights dyadic;
LENGTH accumulates inexact floats in path-dependent order, so it never
batches); everything else takes the unbatched path, which is why
answers are bit-identical whatever the window is.  Per-member
``QueryStats`` are the *exact split* of the merged pass — the member
that triggers a mask carries its probe counters, later members naming
the same mask record the cache hit they got — so the members' summed
stats equal a sequential engine pass bit for bit.  Group scheduling
composes with everything above: each member is admitted, registered,
and counted individually; the group waits for the union of its
members' out-of-group predecessors (tail-future chains are honoured);
each member's done-future resolves only after the group's core
settles, so successors still serialize behind it; and a cancelled
member is dropped from delivery without abandoning its siblings — the
pass runs for the survivors.  Batched units are counted in
``ServiceStats.probe_units_batched``, never in
``probe_units_coalesced``: the engine pass computes fresh masks rather
than riding a predecessor's node cache, so counting it as coalescing
would inflate ``dedup_rate``.

**What the service never does** is change an answer: scheduling,
coalescing, batching, and admission bound *when and where* work runs,
and every answer is bit-identical to the one the request's synchronous
core returns.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import ServiceConfig
from ..core.errors import QueryError, ServiceOverloaded
from ..core.service import ServiceModel
from ..core.stats import QueryStats
from ..engine.batch import BatchQueryEngine
from ..runtime import QueryRuntime
from .planner import ProbeUnit, QueryPlan, QueryPlanner
from .requests import QueryRequest, QueryResult

__all__ = ["QueryService", "ServiceStats"]

#: How many resident trees keep live batching state (pow2 profile +
#: lazily built engine).  The engine pins the tree's full probe-block
#: concat, so the table is bounded; eviction is FIFO — the serving
#: workloads this exists for hammer one or two resident trees.
_BATCH_STATE_CAP = 8


class _TreeBatchState:
    """Per-resident-tree batching state: the exactness profile computed
    once per tree plus the lazily built engine whose probe block and
    mask cache every group over this tree shares (masks are cached per
    probe-block *identity*, so reuse across groups requires literally
    the same engine)."""

    __slots__ = ("tree", "all_pow2", "engine", "lock")

    def __init__(self, tree) -> None:
        self.tree = tree
        # normalized COUNT divides each user's covered count by its
        # point count; every partial sum is exact iff the weights are
        # dyadic, i.e. every trajectory's n_points is a power of two
        self.all_pow2 = all(
            t.n_points > 0 and (t.n_points & (t.n_points - 1)) == 0
            for t in tree.trajectories()
        )
        self.engine: Optional[BatchQueryEngine] = None
        self.lock = threading.Lock()


class _BatchMember:
    """One admitted request riding a batch group: its plan, the future
    its submitter awaits (``outcome``), the out-of-group futures its
    done-future must still chain behind, and the abandonment flag a
    cancelled submitter sets so delivery skips it without disturbing
    its siblings."""

    __slots__ = ("plan", "outcome", "predecessors", "done", "abandoned")

    def __init__(
        self,
        plan: QueryPlan,
        outcome: "asyncio.Future",
        predecessors: Tuple["asyncio.Future", ...],
        done: "asyncio.Future",
    ) -> None:
        self.plan = plan
        self.outcome = outcome
        self.predecessors = predecessors
        self.done = done
        self.abandoned = False


class _BatchGroup:
    """One open batch window over one tree: the members collected so
    far, the barrier every member's done-future chains behind, and the
    submission sequence number at which the window opened (the
    joinability check compares predecessor registration against it)."""

    __slots__ = (
        "state", "opened_seq", "barrier", "members", "member_dones",
        "closed", "task",
    )

    def __init__(
        self,
        state: _TreeBatchState,
        opened_seq: int,
        barrier: "asyncio.Future",
    ) -> None:
        self.state = state
        self.opened_seq = opened_seq
        self.barrier = barrier
        self.members: List[_BatchMember] = []
        self.member_dones: set = set()
        self.closed = False
        self.task: Optional["asyncio.Task"] = None


@dataclass
class ServiceStats:
    """Serving-layer counters (scheduling, not geometry — the geometric
    work counters live on the runtime's :class:`~repro.core.stats
    .QueryStats` totals).

    ``probe_units_coalesced`` counts units a request served from shared
    work instead of recomputing.  It is counted when the request
    reaches execution, not at registration: the unit must have been
    claimed by an earlier in-flight request at submission time *and*
    some earlier member of the unit's dependency chain must have run
    its core to completion — a predecessor cancelled before its core
    ran computed nothing, and one whose core failed computed nothing
    complete, so riding either is (conservatively) not counted as
    sharing.  ``dedup_rate`` is
    the fraction of planned units so served; it is the number
    ``BENCH_service.json`` reports for overlapping workloads.

    ``probe_units_batched`` counts units answered by a merged
    :class:`~repro.engine.BatchQueryEngine` pass (delivered outcomes
    only — an abandoned member's units are not counted).  It is kept
    strictly apart from ``probe_units_coalesced``, which keeps meaning
    *identical-unit reuse* across requests: a batched group computes
    fresh masks for distinct facilities rather than riding an earlier
    request's cached work, so folding it into the coalesced counter
    would inflate ``dedup_rate`` with work that was merged, not
    deduplicated.

    Every admitted request settles into exactly one outcome counter, so
    ``requests_completed + requests_failed + requests_cancelled ==
    requests_submitted`` once the workload drains (rejected submissions
    are counted in ``requests_rejected`` only — they are never
    admitted).  Batched members follow the same discipline — delivery,
    failure, and mid-batch cancellation each land in exactly one
    counter — so the invariant holds under batched waves too.
    """

    requests_submitted: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    requests_rejected: int = 0
    requests_cancelled: int = 0
    probe_units_planned: int = 0
    probe_units_coalesced: int = 0
    probe_units_batched: int = 0

    @property
    def dedup_rate(self) -> float:
        if self.probe_units_planned == 0:
            return 0.0
        return self.probe_units_coalesced / self.probe_units_planned


class QueryService:
    """Asyncio serving front over one :class:`~repro.runtime
    .QueryRuntime` (see module docstring).

    Parameters
    ----------
    runtime:
        The execution context every request shares — its cache, shard
        store, and policy executor are what coalescing coalesces
        *into*.  ``None`` creates a private runtime (default config)
        that :meth:`close` also closes; a caller-supplied runtime is
        left open (the caller owns it).
    config:
        Admission and coalescing bounds (:class:`~repro.core.config
        .ServiceConfig` defaults: 8 in flight, no window, depth 64).

    Use as an async context manager::

        async with QueryService(runtime) as service:
            result = await service.submit(EvaluateRequest(tree, f, spec))

    or drive many requests at once with :meth:`run`.  The service is
    bound to whichever event loop first submits through it and may be
    reused across loops (e.g. successive ``asyncio.run`` calls) only
    while idle.
    """

    def __init__(
        self,
        runtime: Optional[QueryRuntime] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self._owns_runtime = runtime is None
        self.runtime = runtime if runtime is not None else QueryRuntime()
        self.config = config if config is not None else ServiceConfig()
        self.planner = QueryPlanner()
        # the live counters stay private: they are mutated from the
        # event loop *and* from bridge-side reapers, so handing the
        # mutable instance to callers would let them read torn counters
        # mid-update — or corrupt the service's accounting by
        # assignment.  The public :attr:`stats` property snapshots
        # under this lock (the same discipline QueryRuntime's stats
        # lock applies one layer down).
        self._stats = ServiceStats()  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_in_flight,
            thread_name_prefix="repro-service",
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._sem: Optional[asyncio.Semaphore] = None
        #: unit -> the done-future of the newest admitted request
        #: claiming it (the tail of that unit's dependency chain)
        self._tails: Dict[ProbeUnit, asyncio.Future] = {}
        #: unit -> has any member of its live dependency chain actually
        #: executed?  (decides whether a successor's unit counts as
        #: coalesced; cleaned up with the chain's ``_tails`` entry)
        self._chain_executed: Dict[ProbeUnit, bool] = {}
        #: unit -> the submission sequence number at which the current
        #: ``_tails`` entry was registered; the batch joinability check
        #: uses it to tell pre-window predecessors (safe to wait on)
        #: from requests interleaved after the window opened (waiting
        #: on those from inside the group would deadlock — see
        #: ``_submit_batched``)
        self._tail_seq: Dict[ProbeUnit, int] = {}
        #: monotone submission counter backing ``_tail_seq``
        self._seq = 0
        #: id(tree) -> persistent batching state; survives loop
        #: rebinding (nothing in it is loop-bound)
        self._batch_states: Dict[int, _TreeBatchState] = {}
        #: id(tree) -> the currently open batch group, if any
        self._groups: Dict[int, _BatchGroup] = {}
        self._pending = 0
        #: cores handed to the bridge pool and not yet finished, kept
        #: on a threading lock (not asyncio state) so it stays truthful
        #: even when a cancelled core outlives its event loop
        self._executing = 0  # guarded-by: _core_lock
        self._core_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the bridge pool down (waiting for running cores) and,
        when the service created its own runtime, close that too.
        Call after outstanding submissions have completed."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        if self._owns_runtime:
            self.runtime.close()

    async def __aenter__(self) -> "QueryService":
        return self

    async def __aexit__(self, *exc) -> None:
        # shutdown(wait=True) can block on running cores; keep the loop
        # responsive by closing from a worker thread
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    # ------------------------------------------------------------------
    # the loop binding (lazy, rebindable while idle)
    # ------------------------------------------------------------------
    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            with self._core_lock:
                executing = self._executing
            if self._pending or executing:
                # `executing` catches cores whose callers were cancelled
                # and whose loop may even be gone: rebinding while one
                # runs would let a fresh request race it on shared units
                raise QueryError(
                    "QueryService is in use on another event loop; await "
                    "its outstanding requests (including cores kept "
                    "running by cancelled submissions) before switching "
                    "loops"
                )
            self._loop = loop
            self._sem = asyncio.Semaphore(self.config.max_in_flight)
            self._tails = {}
            self._chain_executed = {}
            self._tail_seq = {}
            self._groups = {}
        return loop

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, request: QueryRequest) -> QueryResult:
        """Answer one request through the coalescing schedule.

        Everything up to the first ``await`` — planning, admission, and
        probe-unit registration — runs synchronously, so requests
        submitted together coalesce regardless of how their coroutines
        interleave afterwards.  Raises :class:`ServiceOverloaded` when
        the admission queue is full, and re-raises whatever the
        request's query core raises (a failed request never poisons its
        successors: they proceed, exactly as a sequential caller would
        continue after a failed call).  Cancelling the returned
        coroutine releases the request's admission slot and leaves the
        shared schedule intact (see *Cancellation* in the module
        docstring).
        """
        if self._closed:
            raise QueryError("QueryService is closed")
        loop = self._bind_loop()
        plan = self.planner.plan(request)  # validates the request type
        if self._pending >= self.config.queue_depth:
            with self._stats_lock:
                self._stats.requests_rejected += 1
            raise ServiceOverloaded(
                f"admission queue full ({self.config.queue_depth} requests "
                "admitted); retry later or raise ServiceConfig.queue_depth"
            )
        self._pending += 1
        self._seq += 1
        seq = self._seq
        with self._stats_lock:
            self._stats.requests_submitted += 1
            self._stats.probe_units_planned += len(plan.units)
        done: asyncio.Future = loop.create_future()
        predecessors = set()
        coalesced_units: List[ProbeUnit] = []
        pred_seqs: Dict[asyncio.Future, int] = {}
        for unit in plan.units:
            tail = self._tails.get(unit)
            if tail is not None and not tail.done():
                predecessors.add(tail)
                coalesced_units.append(unit)
                pred_seqs[tail] = self._tail_seq.get(unit, 0)
            else:
                # a fresh unit starts a new chain with no executed work
                self._chain_executed[unit] = False
            self._tails[unit] = done
            self._tail_seq[unit] = seq
        batch_state = self._batch_eligible(plan)
        if batch_state is not None:
            return await self._submit_batched(
                loop, plan, batch_state, seq, done, predecessors, pred_seqs
            )
        exec_future: Optional[asyncio.Future] = None
        try:
            if self.config.coalesce_window > 0.0:
                await asyncio.sleep(self.config.coalesce_window)
            if predecessors:
                # shield(): the predecessor futures are shared — other
                # requests gather on the very same objects, and their
                # owners resolve them in a finally.  A cancelled waiter
                # (asyncio.wait_for timeout, task.cancel()) must cancel
                # only its own wait, never the futures themselves.
                await asyncio.gather(
                    *(asyncio.shield(p) for p in predecessors)
                )
            await self._sem.acquire()
            try:
                if self._closed:
                    # closed while we waited: fail deliberately instead
                    # of scheduling on the shut-down bridge pool
                    raise QueryError("QueryService is closed")
                # coalescing is decided here, not at registration: the
                # unit was truly served from shared work only if some
                # earlier chain member actually executed (a predecessor
                # cancelled before its core ran computed nothing)
                with self._stats_lock:
                    for unit in coalesced_units:
                        if self._chain_executed.get(unit):
                            self._stats.probe_units_coalesced += 1
                with self._core_lock:
                    self._executing += 1
                try:
                    exec_future = loop.run_in_executor(
                        self._executor, self._run_core, plan
                    )
                except BaseException:  # pragma: no cover - pool raced us
                    with self._core_lock:
                        self._executing -= 1
                    raise
            except BaseException:
                self._sem.release()
                raise
            try:
                result = await asyncio.shield(exec_future)
            except BaseException:
                # the caller stops waiting here — usually a cancel while
                # the core still runs on its bridge thread (threads
                # cannot be interrupted).  The bridge slot, exception
                # consumption, and chain-executed marking transfer to
                # the reaper, which runs as soon as the core finishes
                # (or immediately, if the future settled this very
                # tick).
                exec_future.add_done_callback(
                    functools.partial(
                        self._reap_abandoned,
                        self._sem,
                        plan.units,
                        self._chain_executed,
                    )
                )
                raise
            # marked only when the core succeeded: a failed core
            # computed no (complete) reusable work, and successors must
            # not count riding it as sharing
            for unit in plan.units:
                self._chain_executed[unit] = True
            self._sem.release()
        except asyncio.CancelledError:
            # CancelledError is a BaseException: without this branch a
            # cancelled request would count in requests_submitted but in
            # no outcome counter
            with self._stats_lock:
                self._stats.requests_cancelled += 1
            raise
        except BaseException:
            # BaseException, not Exception: a core raising SystemExit/
            # KeyboardInterrupt must still land in an outcome counter or
            # the ServiceStats sum invariant breaks
            with self._stats_lock:
                self._stats.requests_failed += 1
            raise
        finally:
            self._pending -= 1
            self._resolve(done, predecessors, plan.units, exec_future)
        with self._stats_lock:
            self._stats.requests_completed += 1
        return result

    def _run_core(self, plan):
        """The bridge-thread body: run the plan's core and accrue its
        stats into the runtime totals.

        Accrual lives here — not on the event loop after the await —
        because the core's caller may be gone by the time it finishes
        (cancelled mid-execution) and its loop may even be closed;
        bridge-side accrual guarantees the totals reflect every core
        that ran, and the runtime's own stats lock serializes it
        against concurrent accruals and ``reset_stats``.
        ``_executing`` is incremented by the submitter *before* the
        bridge handoff (a queued core someone cancelled is still
        in-flight work) and released only here, so loop rebinding stays
        blocked while any core runs, loop health notwithstanding.
        """
        try:
            result = plan.execute(self.runtime)
            self.runtime.accrue(result.stats)  # runtime-locked merge
            return result
        finally:
            with self._core_lock:
                self._executing -= 1

    # ------------------------------------------------------------------
    # batching (ServiceConfig.batch_window > 0)
    # ------------------------------------------------------------------
    def _batch_state(self, tree) -> _TreeBatchState:
        key = id(tree)
        state = self._batch_states.get(key)
        if state is not None and state.tree is tree:
            return state
        state = _TreeBatchState(tree)
        self._batch_states[key] = state
        while len(self._batch_states) > _BATCH_STATE_CAP:
            self._batch_states.pop(next(iter(self._batch_states)))
        return state

    def _batch_eligible(self, plan: QueryPlan) -> Optional[_TreeBatchState]:
        """The tree's batch state when this plan may merge into a
        group, else ``None`` (run unbatched).

        Shape comes from the planner (``batch_key``); arithmetic
        exactness is decided here, because it needs the tree's profile.
        A batched answer comes from the engine's vectorised aggregation
        over the shared probe block while the unbatched answer comes
        from the tree walk, and the two are bit-identical exactly when
        every intermediate is exact in float64: ENDPOINT always (0/1
        sums), un-normalized COUNT always (small-integer sums), and
        normalized COUNT when every trajectory's point count is a power
        of two (per-user weights ``1/n`` and all their partial sums are
        dyadic).  LENGTH sums inexact segment lengths in
        path-dependent order, so it never batches.  Everything gated
        out here silently takes the unbatched path — batching must
        never change an answer, and this predicate is what makes that
        unconditional rather than probabilistic.
        """
        if self.config.batch_window <= 0.0 or plan.batch_key is None:
            return None
        spec = plan.request.spec
        if spec.model is ServiceModel.LENGTH:
            return None
        state = self._batch_state(plan.request.tree)
        if (
            spec.model is ServiceModel.COUNT
            and spec.normalize
            and not state.all_pow2
        ):
            return None
        return state

    async def _submit_batched(
        self,
        loop: asyncio.AbstractEventLoop,
        plan: QueryPlan,
        state: _TreeBatchState,
        seq: int,
        done: asyncio.Future,
        predecessors: set,
        pred_seqs: Dict[asyncio.Future, int],
    ) -> QueryResult:
        """The batched tail of :meth:`submit`: join (or open) the
        tree's group and await delivery from its merged pass.

        Admission, registration, and every counter were already handled
        by :meth:`submit`; this method only replaces *execution*.  The
        member's done-future still resolves after its out-of-group
        predecessors plus the group barrier, so successors chained on
        its units serialize behind the pass exactly as they would
        behind a private core.

        **Joinability.**  A member may join the open group only when
        each of its live predecessors is another member of the same
        group (the leader skips those — the pass itself subsumes the
        ordering) or was registered before the window opened (such a
        future can only be waiting on futures registered even earlier,
        so it resolves independently of this group's barrier).  A
        predecessor registered *after* the window opened by a foreign
        (unbatchable) request is the deadly case: that request may
        itself be waiting on a member of this group, so the pass would
        wait on work that waits on the pass.  When it happens the open
        group is closed to new members (its leader still fires on
        schedule) and a fresh window opens with this request as its
        first member — ordering is preserved because the new group's
        pass still waits for the foreign predecessor to finish.
        """
        key = id(state.tree)
        group = self._groups.get(key)
        if group is not None and group.closed:
            group = None
        if group is not None:
            for p in predecessors:
                if p in group.member_dones:
                    continue
                if pred_seqs.get(p, 0) <= group.opened_seq:
                    continue
                group.closed = True
                if self._groups.get(key) is group:
                    del self._groups[key]
                group = None
                break
        if group is None:
            group = _BatchGroup(state, seq, loop.create_future())
            self._groups[key] = group
            # reference kept on the group: a bare create_task result
            # may be garbage-collected mid-flight
            group.task = loop.create_task(self._lead_group(loop, group))
        member = _BatchMember(plan, loop.create_future(), tuple(predecessors), done)
        group.members.append(member)
        group.member_dones.add(done)
        try:
            # no coalesce_window sleep here: the batch window already
            # holds the group open, which is the hold-open the coalesce
            # window exists to provide
            result = await asyncio.shield(member.outcome)
        except asyncio.CancelledError:
            # mid-batch cancellation is strictly local: the member is
            # flagged so the leader skips its delivery, and the pass
            # runs for the surviving siblings exactly as scheduled
            member.abandoned = True
            with self._stats_lock:
                self._stats.requests_cancelled += 1
            raise
        except BaseException:
            with self._stats_lock:
                self._stats.requests_failed += 1
            raise
        finally:
            self._pending -= 1
            self._resolve(done, list(predecessors) + [group.barrier], plan.units)
        with self._stats_lock:
            self._stats.requests_completed += 1
        return result

    async def _lead_group(
        self, loop: asyncio.AbstractEventLoop, group: _BatchGroup
    ) -> None:
        """The group leader: sleep out the window, wait the members'
        out-of-group predecessors, run the merged pass on the bridge
        pool under one admission slot, and deliver per-member outcomes.

        The leader task is internal — nothing external cancels it short
        of loop shutdown — so a member cancelling only ever flags
        itself.  On any group-level failure (service closed while
        waiting, bridge pool gone, leader cancelled at shutdown) every
        undelivered member fails with the cause; the exception is not
        re-raised from the task, because the members' submitters are
        its consumers.
        """
        exec_future: Optional[asyncio.Future] = None
        try:
            await asyncio.sleep(self.config.batch_window)
            group.closed = True
            if self._groups.get(id(group.state.tree)) is group:
                del self._groups[id(group.state.tree)]
            preds = set()
            for m in group.members:
                preds.update(m.predecessors)
            preds -= group.member_dones
            remaining = [p for p in preds if not p.done()]
            if remaining:
                # shield for the same reason submit() shields: these
                # futures are shared with sibling waiters
                await asyncio.gather(*(asyncio.shield(p) for p in remaining))
            await self._sem.acquire()
            try:
                if self._closed:
                    raise QueryError("QueryService is closed")
                with self._core_lock:
                    self._executing += 1
                try:
                    exec_future = loop.run_in_executor(
                        self._executor, self._run_batch_core, group
                    )
                except BaseException:  # pragma: no cover - pool raced us
                    with self._core_lock:
                        self._executing -= 1
                    raise
                outcomes = await exec_future
            finally:
                self._sem.release()
            batched_units = 0
            for member, outcome in outcomes:
                fut = member.outcome
                if member.abandoned or fut.done():
                    continue
                if isinstance(outcome, BaseException):
                    fut.set_exception(outcome)
                    # retrieve defensively: the waiter may be cancelled
                    # between delivery and its next tick, and an
                    # unretrieved exception would warn at GC
                    fut.exception()
                else:
                    fut.set_result(outcome)
                    batched_units += len(member.plan.units)
            if batched_units:
                with self._stats_lock:
                    self._stats.probe_units_batched += batched_units
        except BaseException as exc:
            failure: BaseException = exc
            if isinstance(exc, asyncio.CancelledError):
                # loop shutdown cancelled the leader; members must not
                # count as *cancelled* (their submitters were not) —
                # they failed
                failure = QueryError(
                    "batch group abandoned: event loop shut down while "
                    "the group was in flight"
                )
            for member in group.members:
                fut = member.outcome
                if not fut.done():
                    fut.set_exception(failure)
                    fut.exception()
            if isinstance(exc, asyncio.CancelledError):
                raise
        finally:
            group.closed = True
            if not group.barrier.done():
                group.barrier.set_result(None)

    def _engine_for(self, state: _TreeBatchState) -> BatchQueryEngine:
        """The tree's shared engine, built once (bridge threads race
        here, hence the per-state lock).  Sharing one engine per tree
        is what carries mask reuse *across* groups: the cache keys on
        probe-block identity, so a fresh engine per group would start
        cold every window."""
        with state.lock:
            if state.engine is None:
                state.engine = BatchQueryEngine(
                    tuple(state.tree.trajectories()), runtime=self.runtime
                )
            return state.engine

    def _run_batch_core(self, group: _BatchGroup):
        """The bridge-thread body of a merged pass.  Returns
        ``[(member, QueryResult | BaseException), ...]`` — per-member
        outcomes, never a group-level raise for a member-level problem.

        The stats contract is the *exact split* of a sequential engine
        pass over the same members: the first member naming each
        distinct ``(facility, psi)`` mask is charged that mask's probe
        counters (collected per-task by ``probe_masks_batch``), every
        later member naming it records the cache hit it genuinely got,
        and members whose spec fails validation get the same
        :class:`QueryError` the unbatched core raises, with nothing
        accrued.  Summing the members' stats therefore reproduces the
        sequential pass's totals bit for bit, and the runtime's grand
        totals grow by exactly that sum — the same contract
        :meth:`_run_core` keeps one request at a time.
        """
        try:
            members = [m for m in group.members if not m.abandoned]
            if not members:
                return []
            engine = self._engine_for(group.state)
            # first walk: decide each member's role in submission order
            # — charged with a fresh mask, riding a mask someone ahead
            # of it (or an earlier group) computed, or invalid
            roles: list = []
            probe_tasks: list = []
            probe_stats: List[QueryStats] = []
            seen: set = set()
            for m in members:
                req = m.plan.request
                try:
                    # same validation, same error, same timing as
                    # evaluate_core — error outcomes are bit-identical
                    # to the unbatched path
                    req.tree.validate_spec(req.spec)
                except Exception as exc:
                    roles.append((m, exc))
                    continue
                psi = float(req.spec.psi)
                mask_key = (id(req.facility), psi)
                if mask_key in seen:
                    roles.append((m, "ride"))
                    continue
                seen.add(mask_key)
                stops = engine.resolve_stops(req.facility, psi)
                if engine.cached_mask(stops, psi) is not None:
                    roles.append((m, "ride"))
                    continue
                roles.append((m, (len(probe_tasks), stops)))
                probe_tasks.append((stops, engine.probe_block, psi))
                probe_stats.append(QueryStats())
            # one bridge-side probe sweep for every fresh mask; the
            # per-task stats are the exact probe counters each charged
            # member carries
            masks = self.runtime.probe_masks_batch(probe_tasks, probe_stats)
            outcomes: list = []
            for m, role in roles:
                req = m.plan.request
                if isinstance(role, BaseException):
                    outcomes.append((m, role))
                    continue
                local = QueryStats()
                try:
                    if role == "ride":
                        # a genuine cache hit: the mask is in the
                        # engine's cache by the time riders score
                        # (charged members precede their riders in
                        # submission order)
                        value = engine.query(req.facility, req.spec, local)
                    else:
                        idx, stops = role
                        mask = masks[idx]
                        engine.seed_mask(stops, req.spec.psi, mask)
                        local.merge(probe_stats[idx])
                        self.runtime.accrue(probe_stats[idx])
                        value = engine.query_masked(
                            req.facility, req.spec, mask, local
                        )
                    outcomes.append((m, QueryResult(req, value, local, None)))
                except BaseException as exc:
                    outcomes.append((m, exc))
            return outcomes
        finally:
            with self._core_lock:
                self._executing -= 1

    def _resolve(
        self,
        done: asyncio.Future,
        predecessors: Iterable[asyncio.Future],
        units: Sequence[ProbeUnit],
        exec_future: Optional[asyncio.Future] = None,
    ) -> None:
        """Resolve ``done`` once every one of the request's own
        predecessors — and its own core, if one is in flight — has
        resolved.

        On the happy path both conditions already hold and ``done``
        resolves immediately.  The deferral matters when a request dies
        out of order: one cancelled *before* executing must not release
        successors sharing its units while the head of its dependency
        chain is still running (so we chain to the predecessors), and
        one cancelled *while* executing leaves an orphaned core running
        on its bridge thread that successors must still serialize
        behind (so we chain to ``exec_future`` too).  Together these
        keep done-futures resolving in transitive dependency order,
        which is what preserves submission order on overlap — and the
        per-request stats guarantee — around cancellations.  ``_tails``
        entries are cleaned up at the same moment, never earlier: a
        unit must keep pointing at its chain tail while later
        submissions can still chain onto it.
        """
        remaining = [p for p in predecessors if not p.done()]
        if exec_future is not None and not exec_future.done():
            remaining.append(exec_future)
        if not remaining:
            self._settle(done, units)
            return
        pending = len(remaining)

        def _on_predecessor(_: asyncio.Future) -> None:
            nonlocal pending
            pending -= 1
            if pending == 0:
                self._settle(done, units)

        for p in remaining:
            p.add_done_callback(_on_predecessor)

    def _settle(
        self, done: asyncio.Future, units: Sequence[ProbeUnit]
    ) -> None:
        if not done.done():
            done.set_result(None)
        for unit in units:
            if self._tails.get(unit) is done:
                del self._tails[unit]
                self._chain_executed.pop(unit, None)
                self._tail_seq.pop(unit, None)

    def _reap_abandoned(
        self,
        sem: asyncio.Semaphore,
        units: Sequence[ProbeUnit],
        chains: Dict[ProbeUnit, bool],
        fut: asyncio.Future,
    ) -> None:
        """Finish up for a core outcome its caller will not consume:
        return the bridge slot it occupied, mark the chain executed
        when the orphan's core succeeded (its cache work is real, so
        successors riding it count as coalesced — this runs before the
        ``_resolve`` countdown attached later, so the marks land before
        any successor wakes), and retrieve the exception, if any —
        there is no caller left to re-raise to, and retrieving it keeps
        asyncio's never-retrieved warning quiet.  ``sem`` and
        ``chains`` are passed in (not read from ``self``) so a loop
        rebind between abandonment and completion cannot release the
        wrong semaphore or stamp a stale unit into the rebound loop's
        fresh table.  The orphan's stats need no attention here:
        `_run_core` accrued them on the bridge thread the moment the
        core finished.
        """
        sem.release()
        if fut.cancelled():
            return
        if fut.exception() is None and chains is self._chain_executed:
            for unit in units:
                # only while the unit's chain is still live: an entry
                # exists exactly as long as its _tails chain does, and
                # re-inserting one _settle already popped would leak it
                if unit in chains:
                    chains[unit] = True

    async def run(self, requests: Sequence[QueryRequest]) -> List[QueryResult]:
        """Submit ``requests`` concurrently; results in request order.

        The sugar most callers want: every request is registered in
        sequence (so the whole batch coalesces) and executed under the
        service's bounds.  Every admitted request is awaited to
        completion before anything is raised — a rejected or failed
        sibling must not abandon in-flight work — then the first
        failure (submission order) propagates.  Callers that want the
        per-request outcomes instead should gather
        :meth:`submit` calls themselves with ``return_exceptions``.
        """
        outcomes = await asyncio.gather(
            *(self.submit(r) for r in requests), return_exceptions=True
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return list(outcomes)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """A consistent snapshot of the serving-layer counters.

        The live instance is private and mutated concurrently (event
        loop plus bridge-side reapers); the snapshot is taken under the
        service's stats lock so its counters are mutually consistent —
        in particular the outcome-sum invariant (``completed + failed +
        cancelled == submitted``) holds in any snapshot taken after the
        workload drains.  Mutating the returned object never perturbs
        the service's own accounting.
        """
        with self._stats_lock:
            return dataclasses.replace(self._stats)

    @property
    def in_flight(self) -> int:
        """Requests currently admitted (queued or executing).  A core
        kept running by a cancelled submission is no longer a request
        and is not counted here, but it still blocks loop rebinding
        and holds its bridge slot until it finishes."""
        return self._pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self.stats
        return (
            f"QueryService(pending={self._pending}, "
            f"completed={snapshot.requests_completed}, "
            f"dedup_rate={snapshot.dedup_rate:.2f})"
        )
