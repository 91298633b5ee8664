"""Regression: in-place config mutation must not poison the shared caches.

``build_dataplane`` rebinds compile-cache artifacts to the caller's Network
object, and equal-fingerprint planes share one trace cache. Forwarding once
read ACLs from the *live* configs, so a session that mutated its network in
place (without recompiling) computed traces that reflected state no other
session had. Forwarding now reads only the compiled forwarding index, so a
drifted plane answers for the snapshot it was compiled from and whatever it
caches is the shared, compiled answer.
"""

import pytest

from repro import obs
from repro.control.builder import build_dataplane
from repro.control.cache import clear_dataplane_cache
from repro.dataplane.reachability import ReachabilityAnalyzer, host_flow
from tests.fixtures import square_network


@pytest.fixture(autouse=True)
def _clean_state():
    clear_dataplane_cache()
    yield
    clear_dataplane_cache()
    obs.disable()
    obs.reset()


def _drop_acl(network):
    """Mutate in place: open h2 -> h3, which the compiled plane denies."""
    network.config("r3").acls.pop("PROTECT_H3")
    network.config("r3").interface("Gi0/2").access_group_out = None


class TestRebindDriftGuard:
    def test_drifted_trace_stays_out_of_the_shared_cache(self):
        network_a = square_network()
        plane_a = build_dataplane(network_a)
        network_b = square_network()
        plane_b = build_dataplane(network_b)
        assert plane_b.trace_cache is plane_a.trace_cache

        _drop_acl(network_b)
        flow = host_flow(network_b, "h2", "h3")
        drifted = ReachabilityAnalyzer(plane_b).trace(flow, start_device="h2")
        # The drifted plane answers for its compiled snapshot, which still
        # denies h2 -> h3, exactly like its clean twin ...
        assert not drifted.success
        clean = ReachabilityAnalyzer(plane_a).trace(flow, start_device="h2")
        assert clean is drifted
        # ... and that compiled answer is what the shared cache holds.
        assert plane_a.trace_cache[(flow, "h2")] is drifted
        assert ReachabilityAnalyzer(plane_a).hosts_reachable(
            "h2", "h3") is False

    def test_intact_bindings_still_share_traces(self):
        network_a = square_network()
        plane_a = build_dataplane(network_a)
        network_b = square_network()
        plane_b = build_dataplane(network_b)
        flow = host_flow(network_b, "h2", "h3")
        trace = ReachabilityAnalyzer(plane_b).trace(flow, start_device="h2")
        assert plane_a.trace_cache[(flow, "h2")] is trace

    def test_restored_config_traces_normally_on_a_fresh_plane(self):
        network_a = square_network()
        build_dataplane(network_a)
        network_b = square_network()
        plane_b = build_dataplane(network_b)
        acl = network_b.config("r3").acls.pop("PROTECT_H3")
        network_b.config("r3").interface("Gi0/2").access_group_out = None
        ReachabilityAnalyzer(plane_b).hosts_reachable("h2", "h3")

        # Undo the drift; a freshly rebound plane shares traces again.
        network_b.config("r3").acls["PROTECT_H3"] = acl
        network_b.config("r3").interface("Gi0/2").access_group_out = (
            "PROTECT_H3"
        )
        plane_c = build_dataplane(network_b)
        analyzer = ReachabilityAnalyzer(plane_c)
        assert analyzer.hosts_reachable("h2", "h3") is False
        flow = host_flow(network_b, "h2", "h3")
        assert (flow, "h2") in plane_c.trace_cache
