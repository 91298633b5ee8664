"""Scale benchmark: a generated mega-network through the sharded pipeline.

``python -m repro.cli bench --scale N`` generates a seeded topology
(:mod:`repro.scenarios.generate`), compiles it both ways — the monolithic
single-process builder and the sharded pipeline — verifies the generated
invariant policies, and writes ``BENCH_scale.json``. The headline
acceptance number is the **sharded cold-compile speedup**: byte-identical
output (property-tested) at least :data:`SPEEDUP_TARGET` times faster than
``build_dataplane(use_cache=False)`` at N >= 500. ``bench --check`` gates
the committed report's ratio metrics alongside the dataplane and rollout
suites; see docs/SCALING.md for how to read the report.
"""

import json

from repro.control.builder import build_dataplane
from repro.control.shard import (
    DEFAULT_SHARD_SIZE,
    compile_shard_plan,
    effective_workers,
    sharded_compile,
)
from repro.experiments.bench_dataplane import median_ms
from repro.policy.verification import PolicyVerifier
from repro.scenarios.generate import SHAPES, generate_scenario
from repro.util.clock import monotonic_s
from repro.util.errors import ReproError

DEFAULT_SIZE = 500
DEFAULT_REPEATS = 5  # odd: the median is a real sample
SPEEDUP_TARGET = 2.0  # sharded cold compile vs single-process, N >= 500


def run_scale_benchmark(size=DEFAULT_SIZE, shape="fat-tree", seed=7,
                        repeats=DEFAULT_REPEATS, workers=None,
                        shard_size=DEFAULT_SHARD_SIZE):
    """Benchmark one generated network; returns the report dict."""
    if shape not in SHAPES:
        raise ReproError(f"unknown shape {shape!r} (choose from {SHAPES})")
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")

    started = monotonic_s()
    scenario = generate_scenario(shape=shape, size=size, seed=seed)
    generate_ms = (monotonic_s() - started) * 1000.0
    network = scenario.network
    plan = compile_shard_plan(network, shard_size=shard_size)

    single_ms = median_ms(
        lambda: build_dataplane(network, use_cache=False), repeats
    )
    sharded_ms = median_ms(
        lambda: sharded_compile(
            network, workers=workers, shard_size=shard_size, use_cache=False
        ),
        repeats,
    )

    # Incremental rebuild of a one-device edit against the cold baseline —
    # the mega-network analogue of the PR-6 ticket workload.
    baseline = build_dataplane(network, use_cache=False)
    issue = next(iter(scenario.issues.values()))
    production = network.copy()
    issue.inject(production)
    incremental_ms = median_ms(
        lambda: build_dataplane(
            production, baseline=baseline,
            changed_devices={issue.root_cause_device}, use_cache=False,
        ),
        repeats,
    )

    plane = sharded_compile(
        network, workers=workers, shard_size=shard_size, use_cache=False
    )
    verifier = PolicyVerifier(scenario.policies)
    verify_ms = median_ms(lambda: verifier.verify_dataplane(plane), repeats)
    policies_per_s = (
        len(scenario.policies) / (verify_ms / 1000.0) if verify_ms > 0
        else float("inf")
    )

    sharded_speedup = single_ms / sharded_ms if sharded_ms > 0 else float("inf")
    incremental_speedup = (
        single_ms / incremental_ms if incremental_ms > 0 else float("inf")
    )
    report = {
        "generated": {
            "shape": shape,
            "requested_size": size,
            "seed": seed,
            "devices": scenario.device_count,
            "routers": len(network.routers()),
            "hosts": len(network.hosts()),
            "policies": len(scenario.policies),
            "issues": len(scenario.issues),
            "generate_ms": round(generate_ms, 3),
        },
        "sharding": {
            "shards": len(plan.shards),
            "components": len(set(plan.component_of.values())),
            "shard_size": shard_size,
            # Requested is the caller's knob (None/0 = auto); effective is
            # what the pool actually forks: the cpu-resolved count capped
            # by the shard count, so multi-core runs are interpretable.
            "workers_requested": workers,
            "workers_effective": min(
                effective_workers(workers), max(1, len(plan.shards))
            ),
        },
        "compile": {
            "single_ms": round(single_ms, 3),
            "sharded_ms": round(sharded_ms, 3),
            "incremental_ms": round(incremental_ms, 3),
            "sharded_speedup": round(sharded_speedup, 2),
            "incremental_speedup": round(incremental_speedup, 2),
        },
        "verify": {
            "ms": round(verify_ms, 3),
            "policies_per_s": round(policies_per_s, 1),
        },
        "acceptance": {
            "sharded_cold_speedup": round(sharded_speedup, 2),
            "target": SPEEDUP_TARGET,
            "applies": size >= 500,
            "pass": size < 500 or sharded_speedup >= SPEEDUP_TARGET,
        },
        "repeats": repeats,
    }
    return report


def write_report(report, path):
    """Write the scale benchmark report as stable, diffable JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
