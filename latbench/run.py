"""The repository benchmark: three HTTP workloads against ``repro.serve``.

Usage (from the repository root)::

    python3 latbench/run.py --workload serve-evaluate --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing.
``--trace 1`` prints the per-layer metrics: it serves the workload
twice on the same store, once plainly and once through the traced
launcher (``tracer.py``), each for half of ``--seconds``.

Each run generates its inputs from ``--seed``, builds the store
offline, starts the server, drives the load from this one process,
then checks every answer against the direct library call outside the
timed window.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the host block and sample counts.  A wrong answer prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

import loadgen
import stack
import workloads as wl
from tracer import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Unmeasured traffic before the measured phase of plan-coverage and
#: evaluate-burst (lazy imports, the batch engine's probe block);
#: serve-evaluate instead warms every route it can ask for.
WARMUP_S = 2.0
#: The CoverageCache has no bound, so the server's memory grows with
#: every plan-coverage request.  That workload reads the peak RSS once
#: this many measured requests are answered (at the end of the run if
#: fewer are), so a faster server is not charged for having cached
#: more in the same seconds.  The other workloads read it at the end.
RSS_REQUESTS = 24
#: An open-loop run whose send lag p99 exceeds this fell behind its
#: schedule, and its latencies are flagged as not trustworthy.
LAG_LIMIT_MS = 2.0
#: A run during which the hypervisor took more than this share of the
#: host's CPU time is flagged: its wall-clock figures read slow.
STEAL_LIMIT_PCT = 5.0
#: Per request, layer self times plus ``http.transport_ms`` must equal
#: the client latency within this share of it (plus 0.05 ms).
SUM_TOLERANCE = 0.01


@dataclass
class Phase:
    """One measured phase: samples paired with what was sent."""

    samples: list
    payloads: List[dict]
    warmup: List[tuple] = field(default_factory=list)
    cpu_s: float = 0.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    steal_pct: float = 0.0

    @property
    def ok(self) -> list:
        return [s for s in self.samples if s.ok]

    def latencies(self) -> List[float]:
        return sorted(s.latency_ms for s in self.ok)

    def answered(self) -> List[tuple]:
        pairs = [
            (_strip(p), s.body)
            for p, s in zip(self.payloads, self.samples)
            if s.ok
        ]
        return self.warmup + pairs


def _strip(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "_rid"}


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _recording(stream, sent: List[dict], tag: bool):
    """Pass ``stream``'s payloads through, recording each (with a
    ``_rid`` request id when ``tag``)."""
    for item in stream:
        batch = item if isinstance(item, list) else [item]
        out = []
        for payload in batch:
            if tag:
                payload = dict(payload, _rid=len(sent))
            sent.append(payload)
            out.append(payload)
        yield out if isinstance(item, list) else out[0]


def drive(
    workload: str, server, facility_ids, seed: int, seconds: float, tag: bool
) -> Phase:
    """Warm up, then run the measured phase of ``workload``.

    The warm-up draws its requests from a generator of its own, so the
    measured requests depend on the seed only, not on how many warm-up
    requests the server answered in ``WARMUP_S``."""
    host, port = server.host, server.port

    def run(
        stream: str, duration: float, sent: List[dict], tagged: bool, after=None
    ) -> list:
        rng = wl.stream_rng(seed, stream)
        if workload == "serve-evaluate":
            payloads, offsets = wl.evaluate_stream(
                rng, facility_ids, max(1, int(wl.EVALUATE_RATE * duration))
            )
            payloads = list(_recording(payloads, sent, tagged))
            return loadgen.open_loop(host, port, payloads, offsets, wl.connections())
        if workload == "plan-coverage":
            # waves of one request: a closed loop
            waves = ([p] for p in wl.plan_stream(rng, facility_ids))
        else:
            waves = wl.burst_stream(rng, facility_ids)
        waves = _recording(waves, sent, tagged)
        return loadgen.waves(host, port, waves, duration, after)

    warm_sent: List[dict] = []
    if workload == "serve-evaluate":
        every = wl.every_evaluate(facility_ids)
        waves = (every[i:i + wl.WAVE] for i in range(0, len(every), wl.WAVE))
        warm = loadgen.waves(
            host, port, _recording(waves, warm_sent, False), float("inf")
        )
    else:
        warm = run(f"{workload}:warmup", WARMUP_S, warm_sent, False)
    phase = Phase([], [])
    phase.warmup = [(p, s.body) for p, s in zip(warm_sent, warm) if s.ok]
    rss: List[float] = []

    def after(answered: int) -> None:
        if workload == "plan-coverage" and answered == RSS_REQUESTS:
            rss.append(server.peak_rss_mb())

    phase.stats_before = server.get_json("/stats")
    cpu0 = server.cpu_seconds()
    ticks0 = stack.host_cpu_ticks()
    phase.samples = run(workload, seconds, phase.payloads, tag, after)
    phase.cpu_s = server.cpu_seconds() - cpu0
    phase.steal_pct = stack.steal_pct(ticks0, stack.host_cpu_ticks())
    phase.stats_after = server.get_json("/stats")
    phase.rss_mb = rss[0] if rss else server.peak_rss_mb()
    return phase


def host_block() -> dict:
    from repro.bench.harness import host_metadata

    host = host_metadata()
    host["numpy"] = np.__version__
    # one CPU shares the load generator with the server: not comparable
    host["comparable"] = (host.get("cpu_count") or 1) > 1
    return host


def end_to_end(phase: Phase, setups: List[float]) -> Dict[str, tuple]:
    """The metrics ``BENCHMARK.json`` gates: set-up, server CPU time per
    query and server memory.  CPU time is what the server computed, so
    it does not count the time the host's hypervisor took the CPU away."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cpu_ms_per_query": (phase.cpu_s * 1e3 / len(phase.ok), "ms"),
        "server_rss_mb": (phase.rss_mb, "MB"),
    }


def not_gated(phase: Phase) -> Dict[str, tuple]:
    """Client-side metrics, printed but left out of ``BENCHMARK.json``:
    on the 2-CPU host they were measured on, host slow spells lasting
    minutes moved their run-to-run spread beyond any bound a gate could
    use (see README.md).  ``error_rate`` reads 0 on a healthy run, and a
    gated metric must never be 0."""
    ok = phase.ok
    window = max(s.done for s in ok) - min(s.due for s in ok)
    lat = phase.latencies()
    metrics = {"throughput_qps": (len(ok) / window, "1/s")}
    for q in (50, 90, 99):
        metrics[f"latency_p{q}_ms"] = (percentile(lat, q), "ms")
    failed = len(phase.samples) - len(ok)
    metrics["error_rate"] = (failed / len(phase.samples), "ratio")
    return metrics


def _delta(phase: Phase, section: str, key: str) -> int:
    return phase.stats_after[section][key] - phase.stats_before[section][key]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    phase: Phase, untraced: Phase, trace: dict, build: dict
) -> tuple:
    """Per-layer metrics from the traced phase; also returns the number
    of requests whose layer times do not add up to their latency."""
    spans = trace["spans"]
    selfs = self_times(spans)
    ok = {p["_rid"]: s for p, s in zip(phase.payloads, phase.samples) if s.ok}
    kinds = defaultdict(int)
    for p in phase.payloads:
        if p["_rid"] in ok:
            kinds[p["type"], p["spec"]["model"]] += 1
            kinds[p["type"]] += 1
    n = len(ok)
    total: Dict[str, float] = defaultdict(float)
    # spans of no traced request: server start-up (and warm-up traffic)
    startup: Dict[str, float] = defaultdict(float)
    per_rid: Dict[int, float] = defaultdict(float)
    submit: Dict[int, float] = {}
    for sid, _parent, rid, name, tag, t0, t1 in spans:
        if rid is None:
            startup[name] += (t1 - t0) / 1e9
            continue
        if rid not in ok:
            continue
        total[name] += selfs[sid]
        if tag:
            total[f"{name}.{tag}"] += selfs[sid]
        if name not in ("http.decode", "http.encode"):
            per_rid[rid] += selfs[sid]
        if name == "service.submit":
            submit[rid] = (t1 - t0) / 1e6
    # what the client waited beyond the submit span: socket, framing,
    # JSON, decode, encode and event-loop queueing
    transport = {rid: s.latency_ms - submit.get(rid, 0.0) for rid, s in ok.items()}
    mismatched = sum(
        1
        for rid, sample in ok.items()
        if rid not in submit
        or abs(per_rid[rid] + transport[rid] - sample.latency_ms)
        > SUM_TOLERANCE * sample.latency_ms + 0.05
    )

    qstats = defaultdict(int)
    for sample in ok.values():
        for key, value in sample.body["stats"].items():
            qstats[key] += value
    store_keys = ("grid", "shard", "cellstring")
    hits = sum(_delta(phase, "store", f"{k}_hits") for k in store_keys)
    misses = sum(_delta(phase, "store", f"{k}_misses") for k in store_keys)
    planned = _delta(phase, "service", "probe_units_planned")
    coalesced = _delta(phase, "service", "probe_units_coalesced")
    batched = _delta(phase, "service", "probe_units_batched")
    lookups = [hit for rid, hit in trace["lookups"] if rid in ok]
    opens = [
        (t1 - t0) / 1e6
        for *_, name, _tag, t0, t1 in spans
        if name == "store.open_index"
    ]
    pruned, relaxed = qstats["states_pruned"], qstats["states_relaxed"]
    evictions = sum(_delta(phase, "store", f"{k}_evictions") for k in store_keys)
    p50_traced = percentile(phase.latencies(), 50)
    p50_plain = percentile(untraced.latencies(), 50)

    def per_kind(span: str, kind) -> float:
        return _ratio(total[span], kinds[kind])

    def evaluate_ms(model: str) -> float:
        return per_kind(f"queries.evaluate_core.{model}", ("evaluate", model))

    metrics = {
        "loadgen.lag_p99_ms": (lag_p99(untraced), "ms"),
        "http.decode_ms": (total["http.decode"] / n, "ms"),
        "http.encode_ms": (total["http.encode"] / n, "ms"),
        "http.transport_ms": (statistics.fmean(transport.values()), "ms"),
        "service.plan_ms": (total["service.plan"] / n, "ms"),
        "service.wait_ms": (total["service.submit"] / n, "ms"),
        "service.dedup_rate": (_ratio(coalesced, planned), "ratio"),
        "service.batched_share": (_ratio(batched, planned), "ratio"),
        "service.rejected": (_delta(phase, "service", "requests_rejected"), "count"),
        "queries.evaluate_core_ms.endpoint": (evaluate_ms("endpoint"), "ms"),
        "queries.evaluate_core_ms.count": (evaluate_ms("count"), "ms"),
        "queries.evaluate_core_ms.length": (evaluate_ms("length"), "ms"),
        "queries.topk_core_ms": (per_kind("queries.topk_core", "kmaxrrst"), "ms"),
        "queries.maxkcov_core_ms": (per_kind("queries.maxkcov_core", "maxkcov"), "ms"),
        "queries.entries_scored_per_query": (qstats["entries_scored"] / n, "count"),
        "queries.nodes_visited_per_query": (qstats["nodes_visited"] / n, "count"),
        "queries.prune_ratio": (_ratio(pruned, pruned + relaxed), "ratio"),
        "runtime.probe_ms": (total["runtime.probe"] / n, "ms"),
        "runtime.cache_hit_rate": (_ratio(sum(lookups), len(lookups)), "ratio"),
        "runtime.cache_entries": (trace["cache_entries"], "count"),
        "engine.mask_ms": (total["engine.mask"] / n, "ms"),
        "engine.grid_build_ms": (total["engine.grid_build"] / n, "ms"),
        "engine.batch_run_ms": (total["engine.batch_run"] / n, "ms"),
        "engine.distance_evals_per_query": (qstats["distance_evals"] / n, "count"),
        "engine.cells_probed_per_query": (qstats["cells_probed"] / n, "count"),
        "engine.points_scanned_per_query": (qstats["points_scanned"] / n, "count"),
        "engine.store_hit_rate": (_ratio(hits, hits + misses), "ratio"),
        "engine.store_evictions": (evictions, "count"),
        "store.build_s": (build["store_build_s"], "s"),
        "store.catalog_open_s": (startup["store.catalog_open"], "s"),
        "store.open_index_ms": (_ratio(sum(opens), len(opens)), "ms"),
        "store.opened": (phase.stats_after["store"]["opened"], "count"),
        "store.bytes_per_input_byte": (build["bytes_per_input_byte"], "ratio"),
        "index.build_s": (build["index_build_s"] + startup["index.build"], "s"),
        "index.adopt_s": (startup["index.adopt"], "s"),
        "trace.overhead_pct": ((p50_traced / p50_plain - 1.0) * 100.0, "%"),
        "trace.unattributed_requests": (mismatched, "count"),
    }
    return metrics, mismatched


def lag_p99(phase: Phase) -> float:
    return percentile([s.lag_ms for s in phase.samples], 99)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, work: str):
    """Returns ``(metrics, details, problems, attempted, failed)``."""
    started = time.perf_counter()
    inputs = stack.write_inputs(os.path.join(work, "inputs"), seed, wl.SIZING)
    input_bytes = sum(os.path.getsize(p) for p in inputs.values())
    store_dir = os.path.join(work, "store")
    extra = wl.server_args(workload)
    phases: List[Phase] = []
    build: dict = {}
    setups: List[float] = []
    trace_data: dict = {}
    server = None

    def serve(spans_out: Optional[str] = None):
        return stack.launch(store_dir, work, extra, spans_out=spans_out)

    try:
        if trace:
            build = traced_build(inputs, store_dir, wl.STORE_PSI, wl.SHARDS)
            build["bytes_per_input_byte"] = stack.dir_bytes(store_dir) / input_bytes
            server = serve()
        else:
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                t0 = time.perf_counter()
                stack.build_store(inputs, store_dir, wl.STORE_PSI, wl.SHARDS)
                server = serve()
                setups.append(time.perf_counter() - t0)
        ids = wl.route_ids(store_dir)
        measured = seconds / 2 if trace else seconds
        phases.append(drive(workload, server, ids, seed, measured, False))
        server.stop()
        if trace:
            spans_out = os.path.join(work, "spans.json")
            server = serve(spans_out)
            phases.append(drive(workload, server, ids, seed, measured, True))
            server.stop()
            with open(spans_out) as fh:
                trace_data = json.load(fh)
    finally:
        if server is not None:
            server.stop()
    answered = [pair for phase in phases for pair in phase.answered()]
    expected = wl.expected_answers(store_dir, [p for p, _ in answered])
    problems = wl.check_answers(answered, lambda p: expected[wl.payload_key(p)])

    attempted = sum(len(p.samples) for p in phases)
    failed = sum(len(p.samples) - len(p.ok) for p in phases)
    details = {
        "workload": workload,
        "seed": seed,
        "host": host_block(),
        "samples": [len(p.ok) for p in phases],
        "wall_s": time.perf_counter() - started,
        "lag_p99_ms": lag_p99(phases[0]),
        "steal_pct": phases[0].steal_pct,
        "not_gated": not_gated(phases[0]),
    }
    if workload == "serve-evaluate" and lag_p99(phases[0]) > LAG_LIMIT_MS:
        details["loadgen_fell_behind"] = True
        print(f"warning: load generator fell behind its schedule "
              f"(lag p99 {lag_p99(phases[0]):.2f} ms)", file=sys.stderr)
    if phases[0].steal_pct > STEAL_LIMIT_PCT:
        details["host_stole_cpu"] = True
        print(f"warning: the hypervisor took {phases[0].steal_pct:.1f} % of "
              "the host's CPU time during the measured phase", file=sys.stderr)
    if not trace:
        metrics = end_to_end(phases[0], setups)
    else:
        metrics, mismatched = per_layer(phases[1], phases[0], trace_data, build)
        if mismatched:
            print(f"warning: {mismatched} traced requests' layer times do not "
                  "add up to their latency", file=sys.stderr)
    return metrics, details, problems, attempted, failed


def traced_build(inputs: dict, store_dir: str, psi_values, n_shards: int) -> dict:
    """The store build with its ``build_tq_zorder`` calls timed."""
    from repro.service.http import catalog

    calls: List[float] = []
    original = catalog.build_tq_zorder

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            calls.append(time.perf_counter() - t0)

    catalog.build_tq_zorder = timed
    try:
        t0 = time.perf_counter()
        stack.build_store(inputs, store_dir, psi_values, n_shards)
        build_s = time.perf_counter() - t0
    finally:
        catalog.build_tq_zorder = original
    return {"store_build_s": build_s, "index_build_s": sum(calls)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument(
        "--workload", required=True,
        choices=[*wl.WORKLOADS, "all"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = os.path.join(ROOT, ".latbench_work")
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        work = os.path.join(scratch, str(os.getpid()))
        os.makedirs(work, exist_ok=True)
        try:
            metrics, details, problems, attempted, failed = run_benchmark(
                name, args.seed, args.seconds, bool(args.trace), work
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(scratch)
        for problem in problems:
            print(problem, file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in metrics.items():
            print(f"{prefix}{metric} = {value:.6g} {unit}")
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
        if not args.trace:
            for metric, (value, unit) in details["not_gated"].items():
                print(f"{prefix}{metric} = {value:.6g} {unit} (not gated)")
        print(json.dumps(details, sort_keys=True))
        result["correct"] = result["correct"] and not problems
        result["attempted"] += attempted
        result["failed"] += failed
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
