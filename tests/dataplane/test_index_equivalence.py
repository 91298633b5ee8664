"""The index-backed walk equals the live-config reference walk.

:func:`repro.dataplane.forwarding.trace_flow` reads only the compiled
forwarding index and the FIBs; :mod:`tests.dataplane.reference_forwarding`
re-reads the live configs on every hop. On every ordered host pair, with
and without an explicit start device, the two must agree on the
disposition and on each hop's device, interfaces, route and note — across
the standard networks and issues, generated estates, adversarial change
sets, and seeded single-device edits compiled incrementally. An
incrementally built index must also equal one built from scratch, also
when the ``dataplane.deps.overscope`` fault widens the cone to everything,
and so must the index the sharded compiler builds.
"""

import ipaddress
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults
from repro.config.acl import Acl, AclEntry
from repro.config.model import StaticRoute
from repro.control.builder import build_dataplane
from repro.control.cache import clear_dataplane_cache
from repro.control.shard import sharded_compile
from repro.dataplane.forwarding import trace_flow
from repro.emulation.network import EmulatedNetwork
from repro.faults.adversary import generate_attacks
from repro.faults.registry import Rule
from repro.net.flow import Flow
from repro.scenarios.enterprise import build_enterprise_network
from repro.scenarios.generate import generate_scenario
from repro.scenarios.issues import standard_issues
from repro.scenarios.university import build_university_network
from repro.util.errors import TopologyError

from tests.dataplane.reference_forwarding import reference_trace

ROOT = Path(__file__).resolve().parents[2]

SCENARIOS = {
    "enterprise": build_enterprise_network,
    "university": build_university_network,
}

# Per-pair flow shapes, rotated so ACL port and protocol matching is
# exercised without multiplying the pair count.
FLOW_SHAPES = (
    ("icmp", None),
    ("tcp", 22),
    ("udp", 53),
    ("tcp", 443),
)


@pytest.fixture(autouse=True)
def _clean_state():
    clear_dataplane_cache()
    yield
    clear_dataplane_cache()
    faults.disarm()


def _signature(trace):
    return trace.disposition, [
        (hop.device, hop.in_interface, hop.out_interface, hop.route, hop.note)
        for hop in trace.hops
    ]


def _host_flows(network):
    hosts = [
        host for host in network.hosts()
        if network.config(host).primary_address is not None
    ]
    flows = []
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            protocol, port = FLOW_SHAPES[len(flows) % len(FLOW_SHAPES)]
            flows.append((src, Flow(
                src_ip=network.host_address(src),
                dst_ip=network.host_address(dst),
                protocol=protocol,
                src_port=40000 if port is not None else None,
                dst_port=port,
            )))
    return flows


def assert_walks_agree(plane, label):
    """Every ordered host pair traces identically on both walkers."""
    for src, flow in _host_flows(plane.network):
        for start in (src, None):
            fast = _signature(trace_flow(plane, flow, start))
            slow = _signature(reference_trace(plane, flow, start))
            assert fast == slow, f"{label}: {flow} from {start} diverged"


def test_unknown_start_device_raises():
    network = build_enterprise_network()
    plane = build_dataplane(network)
    _src, flow = _host_flows(network)[0]
    for walk in (trace_flow, reference_trace):
        with pytest.raises(TopologyError):
            walk(plane, flow, "ghost")


# -- standard networks, clean and with each issue -----------------------------


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_clean_standard_networks(scenario):
    network = SCENARIOS[scenario]()
    assert_walks_agree(build_dataplane(network), scenario)


@pytest.mark.parametrize("scenario,issue_id", [
    (scenario, issue_id)
    for scenario in sorted(SCENARIOS)
    for issue_id in standard_issues(scenario)
])
def test_standard_issues(scenario, issue_id):
    network = SCENARIOS[scenario]()
    standard_issues(scenario)[issue_id].inject(network)
    assert_walks_agree(build_dataplane(network), f"{scenario}/{issue_id}")


# -- generated estates -----------------------------------------------------------


@pytest.mark.parametrize("shape", ["hub-spoke", "campus", "fat-tree"])
@pytest.mark.parametrize("seed,size", [(1, 40), (2, 50), (3, 60)])
def test_generated_estates(shape, seed, size):
    network = generate_scenario(shape, size, seed).network
    assert_walks_agree(build_dataplane(network), f"{shape}/{size}/{seed}")


@pytest.mark.parametrize("shape", ["hub-spoke", "fat-tree"])
def test_sharded_compile_builds_the_same_index(shape):
    network = generate_scenario(shape, 40, 1).network
    sharded = sharded_compile(network, workers=1, use_cache=False)
    assert sharded.index == build_dataplane(network, use_cache=False).index


# -- adversarial change sets -----------------------------------------------------


def _attacked_network(attack):
    """Enterprise with the cover issue injected and the attack applied
    unmediated (the fix first when the attack keeps it)."""
    network = build_enterprise_network()
    issue = standard_issues(attack.network)[attack.cover_issue]
    issue.inject(network)
    emnet = EmulatedNetwork.attached(network)
    steps = (tuple(issue.fix_script) if attack.run_fix else ()) + tuple(
        attack.script
    )
    for step in steps:
        console = emnet.console(step.device)
        for command in step.commands:
            console.execute(command)
    return network


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_adversarial_change_sets(seed):
    for attack in generate_attacks(seed):
        network = _attacked_network(attack)
        assert_walks_agree(
            build_dataplane(network), f"seed={seed} {attack.label}"
        )


# -- seeded single-device edits, compiled incrementally -------------------------


def _routed(config):
    return [i for i in config.interfaces.values() if i.address is not None]


def _edit_shutdown(rng, network):
    device = rng.choice(sorted(network.configs))
    ifaces = _routed(network.config(device))
    if not ifaces:
        return None
    iface = rng.choice(ifaces)
    iface.shutdown = not iface.shutdown
    return f"shutdown {device}/{iface.name}"


def _edit_duplicate_address(rng, network):
    """Give an interface the address of another endpoint on its segment."""
    plane = build_dataplane(network)
    segments = [s for s in plane.segments if len(s.endpoints) > 2]
    if not segments:
        return None
    (device, name), (other, other_name) = rng.sample(
        sorted(rng.choice(segments).endpoints), 2
    )
    address = network.config(other).interfaces[other_name].address
    network.config(device).interfaces[name].address = address
    return f"duplicate {device}/{name} = {other}/{other_name}"


def _edit_readdress(rng, network):
    device = rng.choice(sorted(network.configs))
    ifaces = _routed(network.config(device))
    if not ifaces:
        return None
    iface = rng.choice(ifaces)
    iface.address = ipaddress.IPv4Interface(
        f"{iface.address.ip + rng.randint(1, 3)}/{iface.address.network.prefixlen}"
    )
    return f"readdress {device}/{iface.name}"


def _edit_acl(rng, network):
    """Apply (or replace) a deny-first ACL on a routed interface."""
    device = rng.choice(sorted(network.routers()))
    config = network.config(device)
    ifaces = _routed(config)
    if not ifaces:
        return None
    iface = rng.choice(ifaces)
    protocol = rng.choice(["icmp", "tcp", "ip"])
    deny = AclEntry.parse(f"deny {protocol} any any"
                          + (" eq 443" if protocol == "tcp" else ""))
    config.add_acl(Acl(name="EDIT", entries=[
        deny, AclEntry.parse("permit ip any any"),
    ]))
    if rng.random() < 0.5:
        iface.access_group_in = "EDIT"
    else:
        iface.access_group_out = "EDIT"
    return f"acl {device}/{iface.name}"


def _edit_detach_acl(rng, network):
    applied = [
        (device, iface)
        for device in sorted(network.configs)
        for iface in network.config(device).interfaces.values()
        if iface.access_group_in or iface.access_group_out
    ]
    if not applied:
        return None
    device, iface = rng.choice(applied)
    iface.access_group_in = iface.access_group_out = None
    return f"detach {device}/{iface.name}"


def _edit_static_route(rng, network):
    router = rng.choice(sorted(network.routers()))
    ifaces = _routed(network.config(router))
    if not ifaces:
        return None
    subnet = rng.choice(ifaces).address.network
    network.config(router).static_routes.append(StaticRoute(
        prefix=ipaddress.ip_network(f"10.{rng.randint(200, 250)}.0.0/16"),
        next_hop=subnet.network_address + rng.randint(1, 3),
    ))
    return f"static {router}"


def _edit_access_vlan(rng, network):
    ports = [
        (switch, iface)
        for switch in sorted(network.switches())
        for iface in network.config(switch).interfaces.values()
        if iface.switchport_mode == "access"
    ]
    if not ports:
        return None
    switch, iface = rng.choice(ports)
    iface.access_vlan = rng.choice([1, 10, 20, 30, 99])
    return f"vlan {switch}/{iface.name}"


def _edit_description(rng, network):
    device = rng.choice(sorted(network.configs))
    ifaces = list(network.config(device).interfaces.values())
    if not ifaces:
        return None
    rng.choice(ifaces).description = f"edit-{rng.randint(0, 999)}"
    return f"description {device}"


EDITS = (
    _edit_shutdown, _edit_duplicate_address, _edit_readdress, _edit_acl,
    _edit_detach_acl, _edit_static_route, _edit_access_vlan,
    _edit_description,
)

INCREMENTAL_NETWORKS = {
    "university": build_university_network,
    "hub-spoke-40": lambda: generate_scenario("hub-spoke", 40, 1).network,
}


def _seeded_edits(build, seed, count):
    """``count`` ``(label, edited network)`` single-device edits of a baseline."""
    rng = random.Random(seed)
    edits = []
    while len(edits) < count:
        network = build()
        label = rng.choice(EDITS)(rng, network)
        if label is not None:
            edits.append((label, network))
    return edits


def _assert_incremental_index(baseline, network, label):
    incremental = build_dataplane(network, baseline=baseline, use_cache=False)
    scratch = build_dataplane(network, use_cache=False)
    assert incremental.index == scratch.index, label
    return incremental


@pytest.mark.parametrize("name", sorted(INCREMENTAL_NETWORKS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_edits_compiled_incrementally(name, seed):
    build = INCREMENTAL_NETWORKS[name]
    baseline = build_dataplane(build(), use_cache=False)
    for label, network in _seeded_edits(build, seed, 4):
        label = f"{name} seed={seed} {label}"
        incremental = _assert_incremental_index(baseline, network, label)
        assert_walks_agree(incremental, label)


def test_overscoped_cone_builds_the_same_index():
    build = INCREMENTAL_NETWORKS["university"]
    baseline = build_dataplane(build(), use_cache=False)
    for label, network in _seeded_edits(build, 11, 4):
        faults.arm({"dataplane.deps.overscope": Rule(nth=1)}, seed=7)
        _assert_incremental_index(baseline, network, f"overscope {label}")
        faults.disarm()


def test_unchanged_rows_are_shared_by_identity():
    network = build_university_network()
    baseline = build_dataplane(network, use_cache=False)
    edited = network.copy()
    edited.config("dist5").interfaces["Gi0/10"].shutdown = True
    plane = build_dataplane(edited, baseline=baseline, use_cache=False)
    rows, base_rows = plane.index.rows, baseline.index.rows
    assert rows["dist5"] is not base_rows["dist5"]
    assert all(
        rows[name] is base_rows[name] for name in rows if name != "dist5"
    )
    untouched = plane.segments.segment_of("core1", "Gi0/1")
    endpoint = next(iter(untouched.endpoints))
    assert plane.index.next_hops[endpoint] is (
        baseline.index.next_hops[endpoint]
    )


# -- duplicate addresses resolve the same under every hash seed ------------------


_DUPLICATE_PROBE = """
import json
from repro.control.builder import build_dataplane
from repro.net.network import Network
from repro.scenarios.university import build_university_network

network = build_university_network()
pc1 = network.config("dorm-pc1").interfaces["eth0"].address
network.config("dorm-pc2").interfaces["eth0"].address = pc1
plane = build_dataplane(network)
subset = network.subset(["dist5", "dorm-pc1", "dorm-pc2"])
# The same configs listed in reverse: the owner must not follow dict order.
reversed_subset = Network(
    subset.topology, dict(reversed(list(subset.configs.items())))
)
print(json.dumps({
    "next_hop": plane.resolve_next_hop("dist5", "Gi0/10", pc1.ip),
    "owner": build_dataplane(subset).index.owner(pc1.ip),
    "device_owner": subset.device_owning_ip(pc1.ip),
    "reversed_device_owner": reversed_subset.device_owning_ip(pc1.ip),
}))
"""


def test_duplicate_address_resolution_ignores_hash_seed():
    answers = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", _DUPLICATE_PROBE], env=env, check=True,
            capture_output=True, text=True,
        )
        answers.add(result.stdout)
    assert len(answers) == 1, answers
    answer = json.loads(answers.pop())
    assert answer == {
        "next_hop": ["dorm-pc1", "eth0"],
        "owner": "dorm-pc1",
        "device_owner": "dorm-pc1",
        "reversed_device_owner": "dorm-pc1",
    }
