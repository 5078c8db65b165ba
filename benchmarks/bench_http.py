"""HTTP serving-front benchmark: end-to-end throughput over a real socket.

Two entry points:

* ``pytest benchmarks/bench_http.py`` — a small pytest-benchmark smoke
  series so CI exercises the socket path regularly;
* ``PYTHONPATH=src python -m benchmarks.bench_http`` — standalone
  harness on the acceptance workload: the same 64-request mixed batches
  as ``bench_service`` (evaluate x3 service models + kMaxRRST +
  MaxkCov) at request-overlap factors {0, 0.5, 0.9}, but arriving as
  JSON over HTTP/1.1 from 8 concurrent keep-alive client connections.
  Every decoded answer is verified **in-harness** against the
  in-process :class:`~repro.service.QueryService` for the identical
  request set (values are schedule-independent, so concurrency never
  excuses a mismatch), and ``BENCH_http.json`` records end-to-end
  throughput, the in-process comparison, and the probe-dedup rate the
  coalescer achieved under socket-paced arrivals.

What the numbers mean: ``http_seconds`` covers JSON encoding, socket
round-trips, HTTP framing, wire decoding, *and* query execution;
``inproc_seconds`` is the same service driven without a transport, so
the gap is the transport tax (tiny for real workloads, visible for
micro-requests).  ``dedup_rate`` is lower over HTTP at high overlap
than in-process — submissions arrive paced by 8 client connections
instead of registering in one event-loop tick — which is exactly the
deployment-relevant number: what coalescing still catches when traffic
arrives from the network.  The ``host`` block records the hardware
fingerprint (cpu_count=1 boxes honestly hover near 1x).

The **batched leg** drives 64 distinct evaluate payloads through
:meth:`ServeClient.submit_many` — one pipelined wave on one keep-alive
connection — against a server running with
``ServiceConfig.batch_window`` on, and compares against the same wave
with batching off.  Values are asserted equal to the unbatched wave
before timing.  This measures the full story end-to-end: pipelined
framing lands the wave inside one window, the service merges it into
one engine pass, and ``probe_units_batched`` on ``GET /stats``
confirms over the wire that the merge actually happened.

The **workers leg** (``--workers N``, default 2) builds a small
persisted store catalog and serves it twice: one plain process, then a
prefork :class:`~repro.service.http.Supervisor` pool of N workers over
the *same* memory-mapped index files.  Answers are asserted equal, and
every worker's ``/stats`` section must show mmap-backed store paths and
zero shared-memory segments — the zero-copy scale-out contract.  The
RPS ratio is asserted near-linear only when ``cpu_count > 1``; on a
1-CPU host the claim carries ``scaling: parity-only``.  ``--smoke``
runs just this leg at reduced size for CI.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.bench.harness import (
    WorkloadFactory,
    host_metadata,
    tag_scaling_claim,
    time_call,
)
from repro.core.config import (
    HttpConfig,
    ProximityBackend,
    RuntimeConfig,
    ServiceConfig,
)
from repro.runtime import QueryRuntime
from repro.service import QueryService
from repro.service.http import (
    Catalog,
    ServeClient,
    Supervisor,
    background_server,
    catalog_from_spec,
    wire_result,
)
from repro.service.http import wire

from .conftest import run_once

#: The acceptance workload (mirrors bench_service).
N_REQUESTS = 64
OVERLAP_FACTORS = (0.0, 0.5, 0.9)
N_CLIENTS = 8
PSI = 300.0
_N_USERS = 1_500
_N_FACILITY_POOL = 64
_N_STOPS = 24
_MODELS = ("count", "endpoint", "length")

#: The batched leg (mirrors bench_service's BATCH_WINDOW).
BATCH_WINDOW = 0.005
_BATCH_MODELS = ("endpoint", "count")

TREE = "city"
BUSES = "buses"


def _runtime_config() -> RuntimeConfig:
    return RuntimeConfig(
        backend=ProximityBackend.GRID, policy="threads", shards=0,
        max_workers=None,
    )


def _service_config() -> ServiceConfig:
    return ServiceConfig(max_in_flight=8, queue_depth=N_REQUESTS)


def _catalog(factory: WorkloadFactory, n_users: int, n_facilities: int) -> Catalog:
    users = factory.taxi_users(n_users / 12_000)
    facilities = factory.facilities(n_facilities, _N_STOPS)
    catalog = Catalog()
    catalog.add_tree(TREE, factory.tq_tree(users), source="bench taxi users")
    catalog.add_facility_set(BUSES, facilities, source="bench bus routes")
    return catalog


def _payloads(
    catalog: Catalog,
    n_requests: int,
    overlap: float,
    tree: str = TREE,
    buses: str = BUSES,
):
    """The bench_service mixed batch, as wire payloads.

    ``overlap`` sets facility reuse: evaluate requests draw round-robin
    from a pool of ``round(n * (1 - overlap))`` facility ids; the final
    two requests are a kMaxRRST and a MaxkCov over the first eight.
    """
    ids = [f.facility_id for f in catalog.facility_set(buses)]
    n_evaluate = n_requests - 2
    pool_size = max(1, round(n_evaluate * (1.0 - overlap)))
    pool = [ids[i % len(ids)] for i in range(pool_size)]
    payloads = [
        {
            "type": "evaluate",
            "tree": tree,
            "facility_set": buses,
            "facility_id": pool[i % pool_size],
            "spec": {"model": _MODELS[i % len(_MODELS)], "psi": PSI},
        }
        for i in range(n_evaluate)
    ]
    head = ids[:8]
    spec = {"model": "endpoint", "psi": PSI}
    payloads.append(
        {"type": "kmaxrrst", "tree": tree, "facility_set": buses,
         "facility_ids": head, "k": 3, "spec": spec}
    )
    payloads.append(
        {"type": "maxkcov", "tree": tree, "facility_set": buses,
         "facility_ids": head, "k": 2, "spec": spec}
    )
    return payloads


def _inproc_pass(catalog: Catalog, payloads):
    """The same batch through the in-process service (no transport);
    returns (wire-projected results, service stats)."""
    requests = [wire.decode_request(p, catalog) for p in payloads]

    async def main():
        with QueryRuntime(_runtime_config()) as runtime:
            async with QueryService(runtime, _service_config()) as service:
                results = await service.run(requests)
                stats = service.stats
        return [wire_result(r) for r in results], stats

    return asyncio.run(main())


def _http_pass(catalog: Catalog, payloads, n_clients: int = N_CLIENTS):
    """The batch over a real socket from ``n_clients`` keep-alive
    connections; returns (decoded results in payload order, stats)."""
    results = [None] * len(payloads)
    errors = []
    with background_server(
        catalog,
        runtime_config=_runtime_config(),
        service_config=_service_config(),
    ) as handle:

        def worker(slot: int) -> None:
            try:
                with ServeClient(handle.host, handle.port) as client:
                    for i in range(slot, len(payloads), n_clients):
                        results[i] = client.query(payloads[i])
            except Exception as exc:  # pragma: no cover - harness failure
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = handle.service_stats()
    if errors:
        raise errors[0]
    return results, stats


def _values(results):
    return [r.value for r in results]


# ----------------------------------------------------------------------
# the batched leg: one pipelined connection, batch_window on the server
# ----------------------------------------------------------------------
def _batched_payloads(catalog: Catalog, n_requests: int):
    """Distinct-facility evaluates alternating the batch-eligible
    models — the bench_service batched mix, as wire payloads."""
    ids = [f.facility_id for f in catalog.facility_set(BUSES)]
    return [
        {
            "type": "evaluate",
            "tree": TREE,
            "facility_set": BUSES,
            "facility_id": ids[i % len(ids)],
            "spec": {"model": _BATCH_MODELS[i % len(_BATCH_MODELS)],
                     "psi": PSI},
        }
        for i in range(n_requests)
    ]


def _pipelined_pass(catalog: Catalog, payloads, batch_window: float):
    """The wave through ``submit_many`` on one keep-alive connection;
    returns (decoded results in order, service stats)."""
    service_config = ServiceConfig(
        max_in_flight=8, queue_depth=max(N_REQUESTS, len(payloads)),
        batch_window=batch_window,
    )
    with background_server(
        catalog,
        runtime_config=_runtime_config(),
        service_config=service_config,
    ) as handle:
        with ServeClient(handle.host, handle.port) as client:
            results = client.submit_many(payloads)
        stats = handle.service_stats()
    return results, stats


@pytest.mark.engine_smoke
@pytest.mark.parametrize("overlap", (0.0, 0.9))
def test_http_smoke_sweep(benchmark, factory, overlap):
    """Small smoke series so CI sees the socket path regularly."""
    catalog = _catalog(factory, 150, 16)
    payloads = _payloads(catalog, 16, overlap)

    def fn():
        results, _ = _http_pass(catalog, payloads, n_clients=4)
        return len(results)

    run_once(benchmark, fn)
    benchmark.extra_info.update({"figure": "http", "series": f"overlap{overlap}"})


def _cold_start_leg(catalog_spec: str) -> dict:
    """Server cold start for one catalog spec: how long until a fresh
    process can answer its first query.

    ``catalog_seconds`` is resource resolution (for ``store:<dir>``
    that's opening memory-mapped files; for ``demo``/``csv`` it's
    generating or loading and *indexing* the data); ``serve_seconds``
    is runtime + service + socket bring-up; ``first_query_seconds`` is
    the first real answer, which on a ``store:`` catalog opens the
    persisted per-facility indexes instead of building them.
    """
    t0 = time.perf_counter()
    catalog = catalog_from_spec(catalog_spec)
    catalog_s = time.perf_counter() - t0
    # shards=2 on both legs: grid-tier sets only shard (and therefore
    # only consult the persisted store) above one shard, and store
    # files are keyed by the request's shard count — so a store built
    # with ``repro.store build --shards 2`` matches this config
    runtime_config = dataclasses.replace(_runtime_config(), shards=2)
    if catalog_spec.startswith("store:"):
        runtime_config = dataclasses.replace(
            runtime_config, store_dir=catalog_spec.split(":", 1)[1]
        )
    tree = catalog.tree_names[0]
    buses = catalog.facility_set_names[0]
    payload = {
        "type": "evaluate", "tree": tree, "facility_set": buses,
        "facility_id": catalog.facility_set(buses)[0].facility_id,
        "spec": {"model": "endpoint", "psi": PSI},
    }
    t1 = time.perf_counter()
    with background_server(catalog, runtime_config=runtime_config) as handle:
        serve_s = time.perf_counter() - t1
        t2 = time.perf_counter()
        with ServeClient(handle.host, handle.port) as client:
            client.query(payload)
            first_query_s = time.perf_counter() - t2
            store_counters = wire.decode_store_stats(
                client.request("GET", "/stats").body["store"]
            )
    return {
        "catalog_spec": catalog_spec,
        "catalog_seconds": catalog_s,
        "serve_seconds": serve_s,
        "first_query_seconds": first_query_s,
        "cold_start_seconds": catalog_s + serve_s + first_query_s,
        "indexes_opened": store_counters.opened,
        "indexes_verified": store_counters.verified,
    }


# ----------------------------------------------------------------------
# the workers leg: 1 vs N prefork workers over one shared store catalog
# ----------------------------------------------------------------------
#: Store-catalog source for the workers leg (small enough to build in
#: seconds; shard count pinned so serving opens the persisted files).
_WORKERS_SOURCE = "demo:1200:24:16:7"
_WORKERS_SHARDS = 2


def _fanout_pass(host: str, port: int, payloads, n_clients: int = N_CLIENTS):
    """The batch against an already-running server, from ``n_clients``
    keep-alive connections; returns decoded results in payload order."""
    results = [None] * len(payloads)
    errors = []

    def worker(slot: int) -> None:
        try:
            with ServeClient(host, port) as client:
                for i in range(slot, len(payloads), n_clients):
                    results[i] = client.query(payloads[i])
        except Exception as exc:  # pragma: no cover - harness failure
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(slot,))
        for slot in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def _workers_leg(
    n_workers: int, n_requests: int = N_REQUESTS, repeats: int = 3
) -> dict:
    """1 vs ``n_workers`` serving processes over one store catalog.

    Parity is asserted in-harness (the multi-worker pool's decoded
    answers must equal the single-process server's for the identical
    batch), and every worker must serve the catalog through mmap views
    — ``mmap_paths`` non-empty on each worker's stats section.  The RPS ratio is asserted near-linear
    (>= 0.6x of the ideal ``min(n_workers, cpu_count)``) **only when
    the host has more than one CPU**; on a 1-CPU box the ratio is
    recorded and the claim tagged parity-only — see
    :func:`repro.bench.harness.tag_scaling_claim`.
    """
    with tempfile.TemporaryDirectory(prefix="bench-http-store-") as store_dir:
        from repro.service.http.catalog import build_store_catalog

        build_store_catalog(
            store_dir, source_spec=_WORKERS_SOURCE,
            psi_values=(PSI,), n_shards=_WORKERS_SHARDS,
        )
        spec = f"store:{store_dir}"
        catalog = catalog_from_spec(spec)
        tree = catalog.tree_names[0]
        buses = catalog.facility_set_names[0]
        payloads = _payloads(catalog, n_requests, 0.0, tree=tree, buses=buses)
        runtime_config = dataclasses.replace(
            _runtime_config(), shards=_WORKERS_SHARDS, store_dir=store_dir
        )

        # single-process reference: answers + RPS
        with background_server(
            catalog,
            runtime_config=runtime_config,
            service_config=_service_config(),
        ) as handle:
            single_results = _fanout_pass(handle.host, handle.port, payloads)
            _, single_s = time_call(
                lambda: _fanout_pass(handle.host, handle.port, payloads),
                repeats=repeats,
            )

        # the prefork pool over the same immutable store files
        http_config = HttpConfig(
            port=0, catalog=spec, workers=n_workers,
            service=_service_config(), runtime=runtime_config,
        )
        with Supervisor(http_config) as supervisor:
            host, port = supervisor.address
            multi_results = _fanout_pass(host, port, payloads)
            if _values(multi_results) != _values(single_results):
                raise AssertionError(
                    f"{n_workers}-worker answers diverge from the "
                    "single-process server"
                )
            _, multi_s = time_call(
                lambda: _fanout_pass(host, port, payloads), repeats=repeats
            )
            with ServeClient(host, port) as client:
                stats = client.request("GET", "/stats").body
        worker_sections = {
            index: payload.get("worker", {})
            for index, payload in stats.get("workers", {}).items()
            if "error" not in payload
        }
        if len(worker_sections) != n_workers:
            raise AssertionError(
                f"expected {n_workers} reachable workers in /stats, got "
                f"{sorted(worker_sections)}"
            )
        for index, section in worker_sections.items():
            if not section.get("mmap_paths"):
                raise AssertionError(
                    f"worker {index} reports no mmap-backed store files — "
                    "the zero-copy catalog claim does not hold"
                )

    speedup = single_s / multi_s
    cpus = os.cpu_count() or 1
    ideal = min(n_workers, cpus)
    if cpus > 1 and speedup < 0.6 * ideal:
        raise AssertionError(
            f"{n_workers} workers on {cpus} CPUs reached only "
            f"{speedup:.2f}x of the single-process RPS (>= {0.6 * ideal:.1f}x "
            "expected for near-linear scaling)"
        )
    return {
        "n_workers": n_workers,
        "n_requests": n_requests,
        "n_clients": N_CLIENTS,
        "catalog_source": _WORKERS_SOURCE,
        "single_seconds": single_s,
        "multi_seconds": multi_s,
        "single_rps": n_requests / single_s,
        "multi_rps": n_requests / multi_s,
        "workers_speedup": speedup,
        "answers_equal": True,
        "per_worker_mmap_paths": {
            index: len(section.get("mmap_paths", ()))
            for index, section in sorted(worker_sections.items())
        },
    }


def run_smoke(n_workers: int = 2) -> dict:
    """The CI smoke: just the workers leg, scaled down, nothing written."""
    leg = _workers_leg(n_workers, n_requests=32, repeats=1)
    print(
        f"  smoke: {n_workers} workers {leg['multi_rps']:.0f} rps vs "
        f"single {leg['single_rps']:.0f} rps "
        f"({leg['workers_speedup']:.2f}x, answers equal)"
    )
    return leg


def main(out_path: str = None, catalog_spec: str = None, workers: int = 2) -> dict:
    """Measure the sweep, verify parity, write ``BENCH_http.json``."""
    factory = WorkloadFactory()
    catalog = _catalog(factory, _N_USERS, _N_FACILITY_POOL)
    report = {
        "host": host_metadata(),
        "workload": {
            "n_users": catalog.describe()["trees"][TREE]["n_trajectories"],
            "n_requests": N_REQUESTS,
            "n_clients": N_CLIENTS,
            "facility_pool": _N_FACILITY_POOL,
            "n_stops": _N_STOPS,
            "psi": PSI,
            "mix": "evaluate x3 models + kMaxRRST + MaxkCov, over HTTP/1.1",
        },
        "rows": [],
    }
    for overlap in OVERLAP_FACTORS:
        payloads = _payloads(catalog, N_REQUESTS, overlap)

        # parity first: every decoded HTTP answer must equal the
        # in-process service answer for the same request (values are
        # schedule-independent, so concurrent arrival is no excuse)
        inproc_results, inproc_stats = _inproc_pass(catalog, payloads)
        http_results, http_stats = _http_pass(catalog, payloads)
        if _values(http_results) != _values(inproc_results):
            raise AssertionError(
                f"HTTP answers diverge from the in-process service at "
                f"overlap={overlap}"
            )

        # timing: fresh service (and runtime) per pass, so each leg
        # pays its own masks and the dedup numbers stay per-batch
        _, inproc_s = time_call(lambda: _inproc_pass(catalog, payloads), repeats=3)
        _, http_s = time_call(lambda: _http_pass(catalog, payloads), repeats=3)
        report["rows"].append(
            {
                "overlap": overlap,
                "n_requests": N_REQUESTS,
                "inproc_seconds": inproc_s,
                "http_seconds": http_s,
                "http_vs_inproc": inproc_s / http_s,
                "throughput_rps": N_REQUESTS / http_s,
                "transport_overhead_ms_per_request": (
                    (http_s - inproc_s) / N_REQUESTS * 1e3
                ),
                "http_dedup_rate": http_stats.dedup_rate,
                "inproc_dedup_rate": inproc_stats.dedup_rate,
                "http_probe_units_planned": http_stats.probe_units_planned,
                "http_probe_units_coalesced": http_stats.probe_units_coalesced,
                "answers_equal": True,
            }
        )
    # the batched leg: parity first, then the timing pair
    batched_payloads = _batched_payloads(catalog, N_REQUESTS)
    plain_results, _ = _pipelined_pass(catalog, batched_payloads, 0.0)
    batched_results, batched_stats = _pipelined_pass(
        catalog, batched_payloads, BATCH_WINDOW
    )
    if _values(batched_results) != _values(plain_results):
        raise AssertionError(
            "batched HTTP answers diverge from the unbatched wave"
        )
    _, plain_s = time_call(
        lambda: _pipelined_pass(catalog, batched_payloads, 0.0), repeats=3
    )
    _, batched_s = time_call(
        lambda: _pipelined_pass(catalog, batched_payloads, BATCH_WINDOW),
        repeats=3,
    )
    report["batched"] = {
        "n_requests": N_REQUESTS,
        "batch_window": BATCH_WINDOW,
        "transport": "submit_many: one pipelined keep-alive connection",
        "unbatched_seconds": plain_s,
        "batched_seconds": batched_s,
        "batched_vs_unbatched": plain_s / batched_s,
        "batched_throughput_rps": N_REQUESTS / batched_s,
        "probe_units_batched": batched_stats.probe_units_batched,
        "answers_equal": True,
    }
    print(
        f"  batched (submit_many): {batched_s*1e3:.1f}ms vs "
        f"{plain_s*1e3:.1f}ms unbatched "
        f"({plain_s/batched_s:.2f}x, "
        f"{batched_stats.probe_units_batched} units merged)"
    )
    if catalog_spec:
        report["cold_start"] = _cold_start_leg(catalog_spec)
        c = report["cold_start"]
        print(
            f"  cold start {catalog_spec!r}: catalog "
            f"{c['catalog_seconds']*1e3:.0f}ms + serve "
            f"{c['serve_seconds']*1e3:.0f}ms + first query "
            f"{c['first_query_seconds']*1e3:.1f}ms "
            f"(indexes opened: {c['indexes_opened']})"
        )
    # the workers leg: 1 vs N prefork processes over one store catalog
    if workers and workers > 1:
        report["workers"] = _workers_leg(workers)
        w = report["workers"]
        print(
            f"  workers ({w['n_workers']} prefork, store catalog): "
            f"{w['multi_rps']:.0f} rps vs single {w['single_rps']:.0f} rps "
            f"({w['workers_speedup']:.2f}x, answers equal)"
        )
    target = (
        Path(out_path)
        if out_path
        else Path(__file__).resolve().parent.parent / "BENCH_http.json"
    )
    claim = {
        "description": (
            "stdlib HTTP front (asyncio.start_server + JSON wire "
            "schema) vs the in-process QueryService, 64 mixed requests "
            "per batch from 8 concurrent keep-alive clients; every "
            "decoded answer verified equal to the in-process service "
            "in-harness; http_dedup_rate is what cross-request "
            "coalescing still catches when arrivals are paced by the "
            "network instead of registering in one event-loop tick.  "
            "The batched block pipelines 64 distinct evaluates through "
            "submit_many on one connection against batch_window on/off "
            "(values asserted equal before timing); timings include "
            "full server bring-up and teardown per pass.  The workers "
            "block compares one process against a prefork pool over "
            "the same mmap-backed store catalog (answers and zero-copy "
            "serving asserted in-harness); its speedup is scaling "
            "evidence only when claim.scaling == 'measured'"
        ),
        "http_dedup_rate_by_overlap": {
            str(r["overlap"]): r["http_dedup_rate"] for r in report["rows"]
        },
        "throughput_rps_range": [
            min(r["throughput_rps"] for r in report["rows"]),
            max(r["throughput_rps"] for r in report["rows"]),
        ],
    }
    if "workers" in report:
        claim["workers_speedup"] = report["workers"]["workers_speedup"]
    report["claim"] = tag_scaling_claim(claim, host=report["host"])
    target.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {target}")
    for r in report["rows"]:
        print(
            f"  overlap={r['overlap']}: http {r['http_seconds']*1e3:.1f}ms "
            f"({r['throughput_rps']:.0f} req/s, "
            f"{r['http_vs_inproc']:.2f}x vs in-process), "
            f"dedup http {r['http_dedup_rate']:.2f} / "
            f"inproc {r['inproc_dedup_rate']:.2f}"
        )
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="report path override")
    parser.add_argument(
        "--catalog", default=None,
        help=(
            "also record a server cold-start leg for this catalog spec "
            "(e.g. 'store:<dir>' from python -m repro.store build, or "
            "'demo' for the build-everything baseline)"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="prefork pool size for the workers leg (0 or 1 skips it)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=(
            "CI mode: run only the workers leg at reduced size and "
            "write nothing (unless --out is given)"
        ),
    )
    args = parser.parse_args()
    if args.smoke:
        leg = run_smoke(max(2, args.workers))
        if args.out:
            Path(args.out).write_text(json.dumps(leg, indent=2) + "\n")
    else:
        main(out_path=args.out, catalog_spec=args.catalog,
             workers=args.workers)
