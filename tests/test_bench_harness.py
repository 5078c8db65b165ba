"""Tests for the benchmark harness (workload factory, scaling, timing)."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    DEFAULTS,
    PAPER_PARAMETERS,
    Timer,
    WorkloadFactory,
    _Defaults,
    bench_scale,
    parse_runtime_spec,
    scaled,
    scaling_tag,
    tag_scaling_claim,
    time_call,
)
from repro.core.config import (
    SHARDS_AUTO,
    ExecutionPolicy,
    IndexVariant,
    ProximityBackend,
)
from repro.core.service import ServiceModel


TINY = _Defaults(
    users_per_day=60,
    day_sweep=(0.5, 1.0),
    n_stops=8,
    stop_sweep=(4, 8),
    n_facilities=4,
    facility_sweep=(2, 4),
    k=2,
    k_sweep=(1, 2),
    psi=400.0,
    beta=8,
    city_seed=3,
    city_size=3_000.0,
)


@pytest.fixture(scope="module")
def tiny_factory():
    return WorkloadFactory(TINY)


class TestScaling:
    def test_default_scale_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0
        assert scaled(100) == 100

    def test_scale_env_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == 2.5
        assert scaled(100) == 250

    def test_bad_scale_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "lots")
        assert bench_scale() == 1.0
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-3")
        assert bench_scale() == 1.0

    def test_scaled_is_at_least_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        assert scaled(5) == 1


class TestPaperParameters:
    def test_table3_rows_present(self):
        names = {row.name for row in PAPER_PARAMETERS}
        assert {"n_trajectories", "n_stops", "n_facilities", "k"} <= names

    def test_paper_ranges_match_table3(self):
        rows = {row.name: row for row in PAPER_PARAMETERS}
        assert rows["n_stops"].paper_range == (8, 16, 32, 64, 128, 256, 512)
        assert rows["k"].paper_range == (4, 8, 16, 32)
        assert rows["n_trajectories"].paper_range[-1] == 1_032_637


class TestWorkloadFactory:
    def test_datasets_are_memoised(self, tiny_factory):
        a = tiny_factory.taxi_users(1.0)
        b = tiny_factory.taxi_users(1.0)
        assert a is b

    def test_day_scaling(self, tiny_factory):
        half = tiny_factory.taxi_users(0.5)
        full = tiny_factory.taxi_users(1.0)
        assert len(half) == 30 and len(full) == 60

    def test_facilities_keyed_by_stops(self, tiny_factory):
        a = tiny_factory.facilities(4, 8)
        b = tiny_factory.facilities(4, 4)
        assert a is not b
        assert all(f.n_stops == 8 for f in a)
        assert all(f.n_stops == 4 for f in b)

    def test_trees_are_memoised_per_config(self, tiny_factory):
        users = tiny_factory.taxi_users(1.0)
        t1 = tiny_factory.tq_tree(users, use_zorder=True)
        t2 = tiny_factory.tq_tree(users, use_zorder=True)
        t3 = tiny_factory.tq_tree(users, use_zorder=False)
        assert t1 is t2
        assert t1 is not t3

    def test_variant_trees(self, tiny_factory):
        users = tiny_factory.checkin_users(20)
        seg = tiny_factory.tq_tree(users, variant=IndexVariant.SEGMENTED)
        full = tiny_factory.tq_tree(users, variant=IndexVariant.FULL)
        assert seg.config.variant is IndexVariant.SEGMENTED
        assert full.config.variant is IndexVariant.FULL

    def test_baseline_memoised(self, tiny_factory):
        users = tiny_factory.taxi_users(1.0)
        assert tiny_factory.baseline(users) is tiny_factory.baseline(users)

    def test_spec_normalisation_convention(self, tiny_factory):
        assert tiny_factory.spec(ServiceModel.ENDPOINT).normalize is False
        assert tiny_factory.spec(ServiceModel.COUNT).normalize is True

    def test_all_users_inside_city(self, tiny_factory):
        for users in (
            tiny_factory.taxi_users(1.0),
            tiny_factory.checkin_users(15),
            tiny_factory.geolife_users(5),
        ):
            for u in users:
                for p in u.points:
                    assert tiny_factory.city.bounds.contains_point(p)

    def test_factory_not_runtime_aware_by_default(self, tiny_factory):
        assert tiny_factory.query_runtime() is None

    def test_runtime_aware_factory_hands_out_fresh_runtimes(self):
        cfg = parse_runtime_spec("serial:2")
        factory = WorkloadFactory(TINY, runtime_config=cfg)
        rt1 = factory.query_runtime()
        rt2 = factory.query_runtime()
        try:
            assert rt1 is not None and rt2 is not None
            assert rt1 is not rt2  # fresh caches per sweep leg
            assert rt1.config is cfg
        finally:
            rt1.close()
            rt2.close()


class TestParseRuntimeSpec:
    def test_policy_only(self):
        cfg = parse_runtime_spec("auto")
        assert cfg.policy is ExecutionPolicy.AUTO
        assert cfg.shards == SHARDS_AUTO
        assert cfg.max_workers is None
        assert cfg.backend is ProximityBackend.AUTO

    def test_full_spec(self):
        cfg = parse_runtime_spec("threads:7:2")
        assert cfg.policy is ExecutionPolicy.THREADS
        assert cfg.shards == 7
        assert cfg.max_workers == 2

    def test_auto_shards_keyword(self):
        assert parse_runtime_spec("serial:auto").shards == SHARDS_AUTO

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError):
            parse_runtime_spec("  ")
        with pytest.raises(ValueError):
            parse_runtime_spec("threads:1:2:3")
        with pytest.raises(ValueError):
            parse_runtime_spec("threads::4")  # empty field is a typo
        with pytest.raises(ValueError):
            parse_runtime_spec("fibers")
        with pytest.raises(ValueError):
            parse_runtime_spec("processes:7:4")  # the deleted policy


class TestTiming:
    def test_timer_measures(self):
        with Timer() as t:
            sum(range(10_000))
        assert t.seconds >= 0.0

    def test_time_call_returns_result_and_best(self):
        calls = []

        def fn():
            calls.append(1)
            return "x"

        result, seconds = time_call(fn, repeats=3)
        assert result == "x"
        assert len(calls) == 3
        assert seconds >= 0.0

    def test_defaults_sanity(self):
        assert DEFAULTS.users_per_day > 0
        assert DEFAULTS.k in DEFAULTS.k_sweep
        assert DEFAULTS.n_stops in DEFAULTS.stop_sweep


class TestScalingTag:
    """Concurrency speedup claims must self-identify the hardware that
    can back them: on a 1-CPU host the executors timeshare one core,
    so ratios certify parity and bounded overhead, never scaling."""

    def test_single_cpu_is_parity_only(self):
        assert scaling_tag({"cpu_count": 1}) == "parity-only"
        assert scaling_tag({"cpu_count": 0}) == "parity-only"
        assert scaling_tag({"cpu_count": None}) == "parity-only"
        assert scaling_tag({}) == "parity-only"
        assert scaling_tag({"cpu_count": "garbage"}) == "parity-only"

    def test_multi_cpu_is_measured(self):
        assert scaling_tag({"cpu_count": 2}) == "measured"
        assert scaling_tag({"cpu_count": 64}) == "measured"

    def test_default_host_is_the_live_machine(self):
        import os

        expected = "measured" if (os.cpu_count() or 1) > 1 else "parity-only"
        assert scaling_tag() == expected

    def test_tag_stamps_claim_and_note(self):
        claim = tag_scaling_claim({"speedup": 1.1}, host={"cpu_count": 1})
        assert claim["scaling"] == "parity-only"
        assert "1-CPU host" in claim["scaling_note"]
        assert claim["speedup"] == 1.1  # untouched

    def test_measured_claim_carries_no_note(self):
        claim = {"speedup": 3.7, "scaling_note": "stale"}
        tagged = tag_scaling_claim(claim, host={"cpu_count": 8})
        assert tagged["scaling"] == "measured"
        assert "scaling_note" not in tagged
