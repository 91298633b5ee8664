"""Sharded compile: byte-identical to the monolithic pipeline.

The contract everything here enforces: sharding changes *scheduling*, never
*results*. Every test compares the sharded output — in-process, across a
real worker pool, and degraded by worker crashes — against
``build_dataplane(use_cache=False)``, and policy sweeps over sharded planes
against the same sweep over the monolithic plane.
"""

import pytest

from repro import faults, obs
from repro.control.builder import build_dataplane
from repro.control.cache import (
    ShardedDataplaneCache,
    clear_dataplane_cache,
    sharded_dataplane_cache,
)
from repro.control.shard import (
    compile_shard_plan,
    effective_workers,
    sharded_compile,
)
from repro.faults.registry import Rule
from repro.obs import registry
from repro.policy.verification import PolicyVerifier
from repro.scenarios.generate import generate_scenario

# Small on purpose: campus-80 has 8 routers, so shard_size=3 forces a
# multi-shard plan (and with workers=2, a real fork pool) at CI cost.
SHARD_SIZE = 3


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(shape="campus", size=80, seed=3)


@pytest.fixture(scope="module")
def monolithic(scenario):
    return build_dataplane(scenario.network, use_cache=False)


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    faults.disarm()
    obs.disable()
    obs.reset()


def assert_planes_identical(expected, actual):
    assert set(expected.network.configs) == set(actual.network.configs)
    assert expected.ospf.neighbors == actual.ospf.neighbors
    assert expected.ospf.routes_by_device == actual.ospf.routes_by_device
    for device in expected.network.configs:
        assert expected.fib(device).routes() == actual.fib(device).routes(), (
            device
        )


def verdicts(plane, policies):
    report = PolicyVerifier(policies).verify_dataplane(plane)
    return [(r.policy.policy_id, r.holds) for r in report.results]


class TestShardPlan:
    def test_sources_partition_the_active_routers(self, scenario):
        plan = compile_shard_plan(scenario.network, shard_size=SHARD_SIZE)
        seen = []
        for shard in plan.shards:
            assert len(shard.sources) <= SHARD_SIZE
            assert shard.component == plan.component_of[shard.sources[0]]
            seen.extend(shard.sources)
        assert len(seen) == len(set(seen)), "router in two shards"
        assert set(seen) == set(plan.component_of)

    def test_small_shard_size_forces_multiple_shards(self, scenario):
        plan = compile_shard_plan(scenario.network, shard_size=SHARD_SIZE)
        assert len(plan.shards) >= 2

    def test_effective_workers(self):
        assert effective_workers(1) == 1
        assert effective_workers(4) == 4
        assert effective_workers(None) >= 1
        assert effective_workers(0) >= 1


class TestShardedCompileEquivalence:
    def test_in_process_path(self, scenario, monolithic):
        plane = sharded_compile(
            scenario.network, workers=1, shard_size=SHARD_SIZE,
            use_cache=False,
        )
        assert_planes_identical(monolithic, plane)

    def test_worker_pool_path(self, scenario, monolithic):
        plane = sharded_compile(
            scenario.network, workers=2, shard_size=SHARD_SIZE,
            use_cache=False,
        )
        assert_planes_identical(monolithic, plane)

    def test_default_shard_size_single_shard(self, scenario, monolithic):
        # 8 routers under the default shard size: one shard, pool bypassed.
        plane = sharded_compile(scenario.network, workers=2, use_cache=False)
        assert_planes_identical(monolithic, plane)


class TestCrashDegradation:
    def test_lost_shards_rerun_in_process(self, scenario, monolithic):
        obs.enable()
        degraded = registry().get("scale.shard.degraded")
        before = degraded.value
        faults.arm({"scale.shard.crash": Rule(nth=1, times=2)}, seed=7)
        plane = sharded_compile(
            scenario.network, workers=2, shard_size=SHARD_SIZE,
            use_cache=False,
        )
        assert degraded.value > before, "no shard took the degraded path"
        assert_planes_identical(monolithic, plane)

    def test_degraded_verify_matches_serial(self, scenario, monolithic):
        # A plane whose lost shard re-ran in-process verifies exactly like
        # the monolithic plane.
        faults.arm({"scale.shard.crash": Rule(nth=1, times=1)}, seed=7)
        plane = sharded_compile(
            scenario.network, workers=2, shard_size=SHARD_SIZE,
            use_cache=False,
        )
        faults.disarm()
        assert verdicts(plane, scenario.policies) == verdicts(
            monolithic, scenario.policies
        )


class TestShardedVerify:
    """Policy sweeps run in-process over sharded planes (the scale bench
    and the mega-network example) and answer like the monolithic plane."""

    def test_matches_serial_verifier(self, scenario, monolithic):
        plane = sharded_compile(
            scenario.network, workers=2, shard_size=SHARD_SIZE,
            use_cache=False,
        )
        assert verdicts(plane, scenario.policies) == verdicts(
            monolithic, scenario.policies
        )

    def test_single_worker_serial_path(self, scenario, monolithic):
        plane = sharded_compile(
            scenario.network, workers=1, shard_size=SHARD_SIZE,
            use_cache=False,
        )
        assert verdicts(plane, scenario.policies) == verdicts(
            monolithic, scenario.policies
        )


class TestShardedCache:
    def test_hit_shares_artifacts(self, scenario):
        clear_dataplane_cache()
        p1 = sharded_compile(
            scenario.network, workers=1, shard_size=SHARD_SIZE,
        )
        p2 = sharded_compile(
            scenario.network, workers=1, shard_size=SHARD_SIZE,
        )
        assert p1.artifacts is p2.artifacts
        assert sharded_dataplane_cache().hits >= 1

    def test_stats_report_shards(self):
        cache = ShardedDataplaneCache(shards=4, maxsize=8)
        stats = cache.stats()
        assert stats["shards"] == 4
        assert len(cache) == 0

    def test_put_get_discard(self, scenario):
        cache = ShardedDataplaneCache(shards=4, maxsize=8)
        plane = sharded_compile(
            scenario.network, workers=1, shard_size=SHARD_SIZE,
            use_cache=False,
        )
        # Uncached compiles carry no fingerprint; key by hand.
        cache.put("a" * 64, plane.artifacts)
        assert "a" * 64 in cache
        assert cache.get("a" * 64) is plane.artifacts
        cache.discard("a" * 64)
        assert cache.get("a" * 64) is None
