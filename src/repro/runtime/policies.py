"""Execution policies: where a sharded coverage probe actually runs.

:class:`~repro.core.config.RuntimeConfig` names a policy (``serial`` /
``threads`` / ``auto``); this module provides the machinery behind each
name.  A :class:`PolicyExecutor` owns whatever worker resources its
policy needs and exposes two things to :class:`~repro.runtime.
QueryRuntime`:

* :meth:`~PolicyExecutor.live` — the object a dressed
  :class:`~repro.engine.ShardedStopSet` hands to
  :meth:`~repro.engine.ShardedStopGrid.covered_mask` at query time
  (``None`` for serial probing, a thread-pool
  :class:`~concurrent.futures.Executor`, or a ``probe_shards`` fan-out);
* :meth:`~PolicyExecutor.close` — tear the resources down; the runtime
  stays usable serially afterwards.

Every policy runs the *same* probe body,
:func:`repro.engine.shards.probe_shard_arrays`, on the same arrays, so
masks are bit-identical across policies by construction — the only
difference is which thread the call happens on.  The numpy kernels
release the GIL, so threads overlap genuinely; process-level
parallelism comes from the prefork worker pool
(:mod:`repro.service.http.supervisor`), one level up.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import List, Optional, Sequence, Union

from ..core.config import ExecutionPolicy, RuntimeConfig
from ..engine.shards import (
    ProbeBatch,
    ProbeResult,
    StopShard,
    probe_shard_arrays,
)

__all__ = [
    "PolicyExecutor",
    "SerialPolicyExecutor",
    "ThreadPolicyExecutor",
    "AutoPolicyExecutor",
    "make_policy_executor",
    "resolve_worker_count",
    "AUTO_POLICY_MIN_POINTS",
]

#: Cap on the default pool size when ``max_workers`` is ``None``.
_DEFAULT_MAX_WORKERS = 8


def resolve_worker_count(max_workers: Optional[int]) -> int:
    """``max_workers`` with the ``None`` → machine-sized default applied."""
    if max_workers is None:
        return min(_DEFAULT_MAX_WORKERS, os.cpu_count() or 1)
    return max_workers


class PolicyExecutor:
    """One execution policy's worker machinery (see module docstring)."""

    policy: ExecutionPolicy

    def live(self) -> Union[Executor, "AutoPolicyExecutor", None]:
        """What a dressed stop set should fan out over right now:
        ``None`` (probe serially), an :class:`Executor`, or a
        ``probe_shards`` fan-out.  Resolved at query time so stop sets
        dressed before :meth:`close` degrade to serial probing."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources; ``live()`` returns ``None`` after."""


class SerialPolicyExecutor(PolicyExecutor):
    """``serial``: every shard probed inline on the calling thread."""

    policy = ExecutionPolicy.SERIAL

    def live(self) -> None:
        return None

    def close(self) -> None:
        pass


class ThreadPolicyExecutor(PolicyExecutor):
    """``threads``: shard probes ride a lazily built thread pool.

    The dense numpy kernels release the GIL, so shard tasks genuinely
    overlap.  The pool is built on first use (runtimes created by the
    legacy keyword shims cost nothing unless sharding engages) under a
    lock, because a shared service runtime can see its first two
    queries on different threads and the loser's pool would otherwise
    leak unshutdown.
    """

    policy = ExecutionPolicy.THREADS

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self._max_workers = max_workers
        self._executor: Optional[Executor] = None
        self._built = False
        self._lock = threading.Lock()
        self._closed = False

    def live(self) -> Optional[Executor]:
        if not self._built:
            with self._lock:
                if not self._built:
                    workers = resolve_worker_count(self._max_workers)
                    if workers > 1 and not self._closed:
                        self._executor = ThreadPoolExecutor(
                            max_workers=workers,
                            thread_name_prefix="repro-shard",
                        )
                    self._built = True
        return self._executor

    def close(self) -> None:
        with self._lock:
            self._closed = True
            executor = self._executor
            self._executor = None
            self._built = True
        if executor is not None:
            executor.shutdown(wait=True)


#: Probe blocks below this many points run serially under the ``auto``
#: policy: dispatching a handful of rows to a pool costs more than the
#: kernel itself.  Chosen an order of magnitude above the point where
#: per-task dispatch (~10-100us) is amortised by the numpy kernels.
AUTO_POLICY_MIN_POINTS = 4_096


class AutoPolicyExecutor(PolicyExecutor):
    """``auto``: pick serial or thread fan-out *per probe block*.

    The scheduling-axis analogue of ``ProximityBackend.AUTO``: the
    other policies fix where shard probes run for the runtime's
    lifetime, but the right choice depends on the probe block — a
    kMaxRRST ancestor scan probes a few dozen points (pool dispatch
    costs more than the kernel), a batch-engine pass probes tens of
    thousands (the fan-out wins).  This executor implements the
    ``probe_shards`` fan-out protocol so it sees each
    :class:`~repro.engine.shards.ProbeBatch` before scheduling it:
    blocks under :data:`AUTO_POLICY_MIN_POINTS` points probe inline on
    the calling thread, larger ones ride a lazily built
    :class:`ThreadPolicyExecutor` pool.

    Either way the same probe body runs on the same arrays, so masks
    and merged stats are bit-identical to whichever policy the
    heuristic delegates to — the differential suite pins this.
    ``serial_probes`` / ``fanout_probes`` count the decisions for
    observability (and for the tests that pin the heuristic itself).
    """

    policy = ExecutionPolicy.AUTO

    def __init__(
        self,
        max_workers: Optional[int] = None,
        min_points: int = AUTO_POLICY_MIN_POINTS,
    ) -> None:
        self._threads = ThreadPolicyExecutor(max_workers)
        self._workers = resolve_worker_count(max_workers)
        self.min_points = int(min_points)
        self._closed = False
        self._lock = threading.Lock()
        self.serial_probes = 0
        self.fanout_probes = 0

    def live(self) -> Optional["AutoPolicyExecutor"]:
        # with one worker the heuristic could never choose fan-out, so
        # don't interpose at all — dressed sets probe inline directly
        if self._closed or self._workers <= 1:
            return None
        return self

    def probe_shards(
        self, shards: Sequence[StopShard], batch: ProbeBatch
    ) -> List[Optional[ProbeResult]]:
        """One result per shard in shard order (the fan-out protocol)."""
        executor = None
        if batch.pts.shape[0] >= self.min_points and len(shards) > 1:
            executor = self._threads.live()  # None once closed: serial
        if executor is None:
            with self._lock:
                self.serial_probes += 1
            return [
                probe_shard_arrays(s.keys, s.coords, s.cell_starts, batch)
                for s in shards
            ]
        with self._lock:
            self.fanout_probes += 1
        return list(
            executor.map(
                lambda s: probe_shard_arrays(
                    s.keys, s.coords, s.cell_starts, batch
                ),
                shards,
            )
        )

    def close(self) -> None:
        self._closed = True
        self._threads.close()


def make_policy_executor(config: RuntimeConfig) -> PolicyExecutor:
    """The :class:`PolicyExecutor` behind ``config.policy``."""
    if config.policy is ExecutionPolicy.SERIAL:
        return SerialPolicyExecutor()
    if config.policy is ExecutionPolicy.AUTO:
        return AutoPolicyExecutor(config.max_workers)
    return ThreadPolicyExecutor(config.max_workers)
