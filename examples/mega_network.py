#!/usr/bin/env python3
"""Mega-network walkthrough: generate, shard-compile, verify, fix a ticket.

The paper's networks prove the workflow at ~30 devices; this example runs
it at managed-estate scale (docs/SCALING.md is the full handbook):

1. generate a seeded 500-device fat-tree with invariant policies and
   seeded misconfiguration issues;
2. plan and run a sharded compile, and check it is byte-identical to the
   monolithic builder;
3. verify every invariant policy against the sharded plane;
4. inject a seeded issue and fix it through the ordinary Heimdall ticket
   workflow — scoping keeps the twin tiny even when production is huge.

Run:  python examples/mega_network.py
"""

from repro import Heimdall
from repro.control.builder import build_dataplane
from repro.control.shard import compile_shard_plan, sharded_compile
from repro.policy.verification import PolicyVerifier
from repro.scenarios.generate import generate_scenario


def main():
    # ---- 1. generate the estate --------------------------------------------
    scenario = generate_scenario(shape="fat-tree", size=500, seed=7)
    production = scenario.network
    print(f"generated {scenario.shape}-{scenario.requested_size} "
          f"(seed {scenario.seed}): {scenario.device_count} devices — "
          f"{len(production.routers())} routers, "
          f"{len(production.hosts())} hosts, "
          f"{len(scenario.lans)} LANs, params {scenario.params}")
    print(f"{len(scenario.policies)} invariant policies, "
          f"{len(scenario.issues)} seeded issues\n")

    # ---- 2. sharded compile, byte-identical to the monolithic builder ------
    plan = compile_shard_plan(production)
    print(f"shard plan: {len(plan.shards)} shards over "
          f"{len(set(plan.component_of.values()))} SPF component(s), "
          f"sizes {[len(s.sources) for s in plan.shards]}")
    plane = sharded_compile(production, use_cache=False)
    monolithic = build_dataplane(production, use_cache=False)
    identical = all(
        plane.fib(d).routes() == monolithic.fib(d).routes()
        for d in production.configs
    )
    print(f"sharded == monolithic, all {scenario.device_count} FIBs: "
          f"{identical}\n")

    # ---- 3. verify the invariants at scale ---------------------------------
    report = PolicyVerifier(scenario.policies).verify_dataplane(plane)
    holding = sum(1 for r in report.results if r.holds)
    print(f"verify: {holding}/{len(report.results)} policies hold "
          f"on the clean network\n")

    # ---- 4. a ticket at scale: the twin stays small ------------------------
    issue = scenario.issues["ifdown"]
    issue.inject(production)
    print(f"injected: {issue.title} (root cause {issue.root_cause_device})")

    heimdall = Heimdall(production, policies=scenario.policies)
    session = heimdall.open_ticket(issue)
    print(f"twin scope: {len(session.twin.scope)} of "
          f"{scenario.device_count} devices")
    for step in issue.fix_script:
        for command in step.commands:
            result = session.execute(step.device, command)
            assert result.ok, result.error
    outcome = session.submit()
    print(f"enforcer: approved={outcome.approved}, "
          f"resolved={outcome.resolved}")
    print(f"audit chain intact: {heimdall.audit.verify()}")


if __name__ == "__main__":
    main()
