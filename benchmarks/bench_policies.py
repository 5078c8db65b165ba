"""Execution-policy comparison: serial vs threads fan-out.

Two entry points:

* ``pytest benchmarks/bench_policies.py`` — pytest-benchmark series over
  both policies (small smoke sizes so CI exercises every policy's
  code path regularly);
* ``PYTHONPATH=src python -m benchmarks.bench_policies`` — standalone
  harness run on the acceptance workload (stop-dense facilities at
  10k–50k stops, a large concatenated probe block), verifying
  **in-harness** that every policy's scores *and* merged work counters
  match the serial run exactly, and recording timings and speedups in
  ``BENCH_policies.json`` at the repository root — the policy companion
  to the shard-layer trajectory in ``BENCH_shards.json``.

What the numbers mean: both series run the *same* sharded grids at the
AUTO shard count; only the scheduling differs.  ``serial`` probes
shards inline, ``threads`` fans them over a thread pool (numpy releases
the GIL).  On a single-core box the pool can only add overhead — the
recorded speedups are honest for the machine that ran them
(``cpu_count`` is in the report), and the parity checks are the point:
identical answers under every policy is the contract the differential
suite (``tests/test_policies.py``) enforces and this harness re-proves
at benchmark scale.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench.harness import (
    WorkloadFactory,
    host_metadata,
    scaled,
    tag_scaling_claim,
    time_call,
)
from repro.core.config import ProximityBackend, RuntimeConfig, auto_shard_count
from repro.core.service import ServiceModel, ServiceSpec
from repro.engine import BatchQueryEngine
from repro.runtime import QueryRuntime

from .conftest import run_once

#: The acceptance workload: stop counts from 10k to 50k, one large
#: concatenated probe block, AUTO shard counts.
STOP_COUNTS = (10_000, 20_000, 50_000)
PSI = 150.0
POLICIES = ("serial", "threads")
_N_FACILITIES = 4
_N_TRACE_USERS = 3_000  # GPS traces: ~15-40 points each => ~80k probes


def _policy_runtime(policy: str) -> QueryRuntime:
    """The runtime behind one benchmark series.

    Every series runs the GRID backend at the AUTO shard count with a
    machine-sized pool, so the only difference between series is the
    execution policy itself.
    """
    return QueryRuntime(
        RuntimeConfig(
            backend=ProximityBackend.GRID, policy=policy, shards=0,
            max_workers=None,
        )
    )


def _requests(factory: WorkloadFactory, n_stops: int, psi: float):
    probe = factory.facilities(_N_FACILITIES, n_stops)
    spec = ServiceSpec(ServiceModel.COUNT, psi=psi)
    return [(f, spec) for f in probe]


@pytest.mark.engine_smoke
@pytest.mark.parametrize("policy", POLICIES)
def test_policies_smoke_sweep(benchmark, factory, policy):
    """Small smoke-sized series so CI sees every policy path regularly."""
    users = factory.geolife_users(400)
    requests = _requests(factory, 2_000, PSI)
    with _policy_runtime(policy) as runtime:
        engine = BatchQueryEngine(users, runtime=runtime)

        def fn():
            runtime.cache.clear()  # measure mask work, not cache replay
            return engine.run(requests).scores

        run_once(benchmark, fn)
    benchmark.extra_info.update({"figure": "policies", "series": policy})


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n_stops", STOP_COUNTS)
def test_policies_stop_sweep(benchmark, factory, policy, n_stops):
    users = factory.geolife_users(_N_TRACE_USERS)
    requests = _requests(factory, n_stops, PSI)
    with _policy_runtime(policy) as runtime:
        engine = BatchQueryEngine(users, runtime=runtime)

        def fn():
            runtime.cache.clear()
            return engine.run(requests).scores

        run_once(benchmark, fn)
    benchmark.extra_info.update(
        {"figure": "policies", "series": policy, "x_stops": n_stops}
    )


def main(out_path: str = None) -> dict:
    """Measure the sweep, verify parity, write ``BENCH_policies.json``."""
    factory = WorkloadFactory()
    users = factory.geolife_users(_N_TRACE_USERS)
    n_probe_points = int(sum(u.n_points for u in users))
    report = {
        "host": host_metadata(),
        "workload": {
            "n_users": scaled(_N_TRACE_USERS),
            "n_probe_points": n_probe_points,
            "n_facilities": _N_FACILITIES,
            "psi": PSI,
            "service_model": "count",
            "cpu_count": os.cpu_count(),
        },
        "rows": [],
    }
    for n_stops in STOP_COUNTS:
        requests = _requests(factory, n_stops, PSI)
        runtimes = {p: _policy_runtime(p) for p in POLICIES}
        engines = {
            p: BatchQueryEngine(users, runtime=rt)
            for p, rt in runtimes.items()
        }
        try:
            # warm (probe concat, grid/shard builds, pools), then verify
            # parity in-harness: scores AND merged per-shard work
            # counters must match the serial run exactly
            results = {p: engines[p].run(requests) for p in POLICIES}
            for p in POLICIES[1:]:
                if results[p].scores != results["serial"].scores:
                    raise AssertionError(
                        f"{p} scores diverge at n_stops={n_stops}"
                    )
                if results[p].stats != results["serial"].stats:
                    raise AssertionError(
                        f"{p} stats diverge at n_stops={n_stops}: "
                        f"{results[p].stats} != {results['serial'].stats}"
                    )

            def timed(policy):
                engine, runtime = engines[policy], runtimes[policy]

                def fn():
                    runtime.cache.clear()
                    return engine.run(requests)

                return fn

            # best-of-3: the claim is a ratio of best-case mask passes
            seconds = {}
            for p in POLICIES:
                _, seconds[p] = time_call(timed(p), repeats=3)
        finally:
            for rt in runtimes.values():
                rt.close()
        report["rows"].append(
            {
                "n_stops": n_stops,
                "n_shards": auto_shard_count(n_stops),
                "serial_seconds": seconds["serial"],
                "threads_seconds": seconds["threads"],
                "threads_speedup": seconds["serial"] / seconds["threads"],
                "scores_equal": True,
                "stats_equal": True,
                "distance_evals": results["serial"].stats.distance_evals,
            }
        )
    target = (
        Path(out_path)
        if out_path
        else Path(__file__).resolve().parent.parent / "BENCH_policies.json"
    )
    report["claim"] = tag_scaling_claim(
        {
            "description": (
                "execution policies vs serial shard probing, 10k-50k stops, "
                "AUTO shard count; parity (scores and merged stats) verified "
                "in-harness for every row; speedup ratios are scaling "
                "evidence only when claim.scaling == 'measured'"
            ),
            "threads_speedup_range": [
                min(r["threads_speedup"] for r in report["rows"]),
                max(r["threads_speedup"] for r in report["rows"]),
            ],
        },
        host=report["host"],
    )
    target.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {target}")
    for r in report["rows"]:
        print(
            f"  n_stops={r['n_stops']} shards={r['n_shards']}: "
            f"serial {r['serial_seconds']*1e3:.1f}ms, "
            f"threads {r['threads_seconds']*1e3:.1f}ms "
            f"({r['threads_speedup']:.2f}x)"
        )
    return report


if __name__ == "__main__":
    main()
