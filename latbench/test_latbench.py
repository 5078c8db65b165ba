"""Self-tests of the benchmark (run with ``python -m pytest latbench``).

A smoke-size run of every workload must emit every metric
``BENCHMARK.json`` names, with its unit, and a corrupted expected answer
must make the answer check fail the run.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import pytest

import loadgen
import run
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMOKE_SIZING = dict(workloads.SIZING, users=200, routes=32, stops=16)

#: Per-layer metrics each workload exists to exercise.  A traced smoke
#: run must read them above 0: a tracer patch that misses its target
#: leaves its layer at 0 without failing the sum check.  Not listed:
#: ``service.dedup_rate`` and ``service.rejected`` (0 unless identical
#: requests overlap or the server refuses), ``queries.prune_ratio`` (0
#: on these inputs, see README.md), ``loadgen.lag_p99_ms`` (0 in the
#: closed loops) and the two ``trace.*`` checks.
STRESSED = {
    "serve-evaluate": (
        "http.decode_ms", "http.encode_ms", "http.transport_ms",
        "service.plan_ms", "service.wait_ms",
        "queries.evaluate_core_ms.endpoint", "queries.evaluate_core_ms.count",
        "queries.evaluate_core_ms.length", "queries.entries_scored_per_query",
        "runtime.cache_hit_rate", "runtime.cache_entries",
        "store.build_s", "store.catalog_open_s", "store.open_index_ms",
        "store.opened", "store.bytes_per_input_byte",
        "index.build_s", "index.adopt_s",
    ),
    "plan-coverage": (
        "queries.topk_core_ms", "queries.maxkcov_core_ms",
        "queries.entries_scored_per_query", "queries.nodes_visited_per_query",
        "runtime.probe_ms", "runtime.cache_entries",
        "engine.mask_ms", "engine.grid_build_ms",
        "engine.distance_evals_per_query", "engine.cells_probed_per_query",
        "engine.points_scanned_per_query", "engine.store_hit_rate",
        "engine.store_evictions",
    ),
    "evaluate-burst": (
        "service.wait_ms", "service.batched_share", "engine.batch_run_ms",
    ),
}


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setattr(workloads, "SIZING", SMOKE_SIZING)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "WARMUP_S", 0.5)


def _run(capsys, *args) -> tuple:
    code = run.main(list(args))
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_declared_metric(smoke, capsys, workload, trace):
    code, result = _run(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", trace,
    )
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    if trace == "1":
        metrics = result["metrics"]
        assert metrics["trace.unattributed_requests"]["value"] == 0
        silent = [m for m in STRESSED[workload] if not metrics[m]["value"] > 0]
        assert silent == []


def test_corrupted_expected_answer_fails_the_run(smoke, capsys, monkeypatch):
    honest = workloads.expected_answers

    def corrupted(store_dir, payloads):
        answers = honest(store_dir, payloads)
        key = next(iter(answers))
        kind, value = answers[key]
        answers[key] = kind, value + 1.0
        return answers

    monkeypatch.setattr(workloads, "expected_answers", corrupted)
    code, result = _run(
        capsys, "--workload", "serve-evaluate", "--seed", "3", "--seconds", "1",
    )
    assert code == 1
    assert result["correct"] is False


def _live_in_session(sid: int) -> list:
    """Pids of the processes of session ``sid`` that have not ended."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # state, ppid, pgrp, session; a zombie ("Z") has ended
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(name))
    return pids


def test_a_run_leaves_no_process_behind(tmp_path):
    """Every process a run starts (servers, answer oracles and whatever
    they start) has ended when the run exits."""
    # a file, not a pipe: waiting for a pipe's end would also wait for
    # any process that inherited it
    log = open(tmp_path / "run.log", "w+")
    with log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "latbench", "run.py"),
             "--workload", "plan-coverage", "--seed", "3", "--seconds", "1"],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        code = proc.wait(timeout=180)
        # a new session's id is the pid of its leader, the run itself
        left = _live_in_session(proc.pid)
        log.seek(0)
        assert code == 0, log.read()[-2000:]
    assert left == []


class _IdleServer:
    host, port = "127.0.0.1", 0

    def get_json(self, path):
        return {}

    def cpu_seconds(self):
        return 0.0

    def peak_rss_mb(self):
        return 0.0


@pytest.mark.parametrize("workload", ["plan-coverage", "evaluate-burst"])
def test_measured_requests_do_not_depend_on_warmup(monkeypatch, workload):
    """However many warm-up requests the server answers, the measured
    phase sends the same requests."""

    def measured_payloads(warmup_waves: int) -> list:
        calls = []

        def fake_waves(host, port, waves_, duration, after=None):
            n = warmup_waves if not calls else 5
            calls.append(duration)
            return [
                loadgen.Sample(i, 0.0, status=200, body={})
                for wave in itertools.islice(waves_, n)
                for i, _ in enumerate(wave)
            ]

        monkeypatch.setattr(loadgen, "waves", fake_waves)
        phase = run.drive(workload, _IdleServer(), list(range(64)), 3, 1.0, False)
        assert len(calls) == 2
        if workload == "plan-coverage":
            # none repeats a warm-up request, whose coverage is cached
            warm = {workloads.payload_key(p) for p, _ in phase.warmup}
            assert not warm & {workloads.payload_key(p) for p in phase.payloads}
        return phase.payloads

    assert measured_payloads(1) == measured_payloads(7)


def test_check_rejects_all_zero_expectations():
    body = {"type": "evaluate", "value": 0.0}
    problems = workloads.check_answers(
        [({"type": "evaluate"}, body)], lambda payload: ("evaluate", 0.0)
    )
    assert len(problems) == 1 and "serves no riders" in problems[0]


def test_self_time_subtracts_the_union_of_children():
    # parent 0..10 ms; children 2..5 and 4..7 overlap: union is 5 ms
    ms = 1_000_000
    spans = [
        (1, 0, 7, "parent", None, 0, 10 * ms),
        (2, 1, 7, "child", None, 2 * ms, 5 * ms),
        (3, 1, 7, "child", None, 4 * ms, 7 * ms),
        (4, 3, 7, "grandchild", None, 4 * ms, 5 * ms),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {1: 5.0, 2: 3.0, 3: 2.0, 4: 1.0}
