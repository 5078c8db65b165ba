"""Unified query execution layer.

This package sits between the proximity engine (:mod:`repro.engine`) and
the query algorithms (:mod:`repro.queries`): the engine provides the
mechanisms (grids, shards, caches, batch evaluation) and the runtime
provides the *policy* — one :class:`QueryRuntime` object that decides
which mechanism each stop set rides, shares the coverage cache and shard
store across queries, accrues work counters into a service-level total,
and owns the worker pool that sharded probes fan out over.

Layering: ``core`` → ``engine`` → ``runtime`` → ``queries`` →
``service``.  The engine never imports the runtime (``BatchQueryEngine``
accepts a runtime object duck-typed); the query layer accepts
``runtime=`` everywhere and keeps its old ``backend=`` / ``cache=``
keywords as deprecated shims through :func:`coerce_runtime`; the
asyncio serving layer (:mod:`repro.service`) shares one runtime across
every in-flight request.
"""

from ..core.config import (
    SHARDS_AUTO,
    ExecutionPolicy,
    RuntimeConfig,
    auto_shard_count,
    resolve_shard_count,
)
from .policies import (
    AutoPolicyExecutor,
    PolicyExecutor,
    SerialPolicyExecutor,
    ThreadPolicyExecutor,
    make_policy_executor,
)
from .runtime import QueryRuntime, coerce_runtime

__all__ = [
    "QueryRuntime",
    "RuntimeConfig",
    "ExecutionPolicy",
    "SHARDS_AUTO",
    "auto_shard_count",
    "resolve_shard_count",
    "coerce_runtime",
    "PolicyExecutor",
    "SerialPolicyExecutor",
    "ThreadPolicyExecutor",
    "AutoPolicyExecutor",
    "make_policy_executor",
]
