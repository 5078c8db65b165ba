"""Layer spans for the traced run.

Run as a script, this is the traced server launcher::

    python latbench/tracer.py --spans-out FILE -- <python -m repro.serve flags>

It wraps the public entry points of each layer where their callers look
them up (module globals, class attributes), then calls the normal
``repro.serve`` entry point.  Each wrapped call records one span:
``(id, parent id, request id, name, tag, start ns, end ns)``.  Spans stay
in memory and are written to ``FILE`` as JSON when the server exits,
with every coverage-cache lookup's request id and outcome and the
cache's final size.

The request id arrives as a ``_rid`` key the load generator adds to the
JSON body in traced runs only; the wrapped ``wire.decode_request``
removes it before the real decoder sees the body.  Parents follow a
context variable.  The launcher makes ``ThreadPoolExecutor.submit`` run
each task in a copy of the submitter's context (what
``asyncio.to_thread`` does), so spans on the service's bridge threads
and on the probe fan-out threads keep their request and parent.

:func:`self_times` turns spans into per-span self time: the span's
duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(request id, id of the enclosing span)`` for the running code.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "latbench_span", default=(None, 0)
)

Span = Tuple[int, int, Optional[int], str, Optional[str], int, int]


class Tracer:
    """Records spans around wrapped callables (see module docstring)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.lookups: List[Tuple[Optional[int], bool]] = []
        self._ids = itertools.count(1)

    def wrap(
        self,
        fn: Callable,
        name: str,
        tag: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span named ``name`` per call; ``tag(*args)``
        labels the span (e.g. the service model of an evaluate)."""
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                rid, parent = _CURRENT.get()
                sid = next(ids)
                token = _CURRENT.set((rid, sid))
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    _CURRENT.reset(token)
                    spans.append((sid, parent, rid, name, None, t0, t1))

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid, parent = _CURRENT.get()
            sid = next(ids)
            token = _CURRENT.set((rid, sid))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                _CURRENT.reset(token)
                label = tag(*args) if tag is not None else None
                spans.append((sid, parent, rid, name, label, t0, t1))

        return traced

    def patch(self, owner, attr: str, name: str, tag=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, tag))

    def count_lookups(self, owner, attr: str) -> None:
        """Record ``(request id, hit?)`` per call of a cache lookup that
        returns ``None`` on a miss."""
        fn = getattr(owner, attr)
        lookups = self.lookups

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            lookups.append((_CURRENT.get()[0], result is not None))
            return result

        setattr(owner, attr, counted)


def _submit_in_context(submit):
    @functools.wraps(submit)
    def wrapper(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every traced entry point of the server's layers; returns the
    list that collects each :class:`QueryRuntime` the server creates."""
    from repro.engine import batch, cache, cellstring, grid, shards
    from repro.runtime import QueryRuntime
    from repro.service import planner
    from repro.service.http import catalog, wire
    from repro.service.service import QueryService
    from repro.store import codecs

    ThreadPoolExecutor.submit = _submit_in_context(ThreadPoolExecutor.submit)

    decode = tracer.wrap(wire.decode_request, "http.decode")

    def decode_request(payload, catalog_):
        if isinstance(payload, dict) and "_rid" in payload:
            payload = dict(payload)
            _CURRENT.set((payload.pop("_rid"), 0))
        return decode(payload, catalog_)

    wire.decode_request = decode_request
    tracer.patch(wire, "encode_result", "http.encode")
    tracer.patch(QueryService, "submit", "service.submit")
    tracer.patch(planner.QueryPlanner, "plan", "service.plan")
    tracer.patch(
        planner, "evaluate_core", "queries.evaluate_core",
        tag=lambda tree, facility, spec, *rest: spec.model.value,
    )
    tracer.patch(planner, "top_k_core", "queries.topk_core")
    tracer.patch(planner, "maxkcov_core", "queries.maxkcov_core")
    tracer.patch(QueryRuntime, "probe_mask", "runtime.probe")
    tracer.patch(QueryRuntime, "probe_masks_batch", "runtime.probe")
    tracer.count_lookups(cache.CoverageCache, "lookup_node")
    tracer.count_lookups(cache.CoverageCache, "lookup_mask")
    for cls in (grid.StopGrid, shards.ShardedStopGrid, cellstring.CellstringIndex):
        tracer.patch(cls, "covered_mask", "engine.mask")
    tracer.patch(grid.StopGrid, "__init__", "engine.grid_build")
    tracer.patch(shards.ShardedStopGrid, "__init__", "engine.grid_build")
    tracer.patch(shards, "build_cellstring_index", "engine.grid_build")
    for attr in ("run", "query", "query_masked"):
        tracer.patch(batch.BatchQueryEngine, attr, "engine.batch_run")
    shards.register_spill_opener(
        tracer.wrap(codecs.open_index, "store.open_index")
    )
    tracer.patch(catalog, "open_store_catalog", "store.catalog_open")
    tracer.patch(catalog, "build_tq_zorder", "index.build")
    tracer.patch(codecs, "adopt_tree_node_tables", "index.adopt")

    runtimes: list = []
    init = QueryRuntime.__init__

    @functools.wraps(init)
    def runtime_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runtimes.append(self)

    QueryRuntime.__init__ = runtime_init
    return runtimes


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> self time in ms: the span's duration minus the union of
    its children's intervals (clipped to the span)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for sid, parent, _rid, _name, _tag, t0, t1 in spans:
        if parent:
            children.setdefault(parent, []).append((t0, t1))
    out: Dict[int, float] = {}
    for sid, _parent, _rid, _name, _tag, t0, t1 in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0 - covered) / 1e6
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    import repro.serve

    tracer = Tracer()
    runtimes = install(tracer)
    try:
        return repro.serve.main(serve_args)
    finally:
        with open(args.spans_out, "w") as fh:
            json.dump({
                "spans": tracer.spans,
                "lookups": tracer.lookups,
                "cache_entries": sum(len(rt.cache) for rt in runtimes),
            }, fh)


if __name__ == "__main__":
    sys.exit(main())
