"""Reachability queries over a compiled data plane."""

from repro.dataplane.forwarding import trace_flow
from repro.net.flow import Flow


def host_flow(network, src_host, dst_host, protocol="icmp"):
    """A representative flow between two hosts' primary addresses."""
    return Flow(
        src_ip=network.host_address(src_host),
        dst_ip=network.host_address(dst_host),
        protocol=protocol,
    )


def service_flow(network, src_host, dst_host, dst_port, protocol="tcp"):
    """A flow to a service port on ``dst_host`` (ephemeral source port)."""
    return Flow(
        src_ip=network.host_address(src_host),
        dst_ip=network.host_address(dst_host),
        protocol=protocol,
        src_port=40000,
        dst_port=dst_port,
    )


class ReachabilityAnalyzer:
    """Pairwise reachability over one data-plane snapshot.

    Traces are cached per (flow, start) — the verifier asks about the same
    flows repeatedly while checking a policy set. The cache dict is
    *shared* with the plane's compile artifacts (and so with every other
    analyzer over an equal-fingerprint plane), so traces survive across
    verifier runs and across the enforcer's verify/diff pipeline. Sharing
    is safe by construction: a trace reads only the compiled artifacts, so
    it is a pure function of the fingerprint even on a plane whose network
    was mutated in place after the compile.

    Thread-safe: concurrent ``trace`` calls may redundantly compute the same
    trace (forwarding is deterministic, so both results are equal) but the
    cache itself is only mutated under a lock, and the first-installed trace
    is the one every caller observes thereafter.
    """

    def __init__(self, dataplane):
        self.dataplane = dataplane
        self._cache = dataplane.trace_cache
        self._lock = dataplane.trace_lock

    def trace(self, flow, start_device=None):
        """Cached :func:`trace_flow`."""
        key = (flow, start_device)
        trace = self._cache.get(key)
        if trace is None:
            trace = trace_flow(self.dataplane, flow, start_device)
            with self._lock:
                trace = self._cache.setdefault(key, trace)
        return trace

    def reachable(self, flow, start_device=None):
        """Whether the flow is delivered."""
        return self.trace(flow, start_device).success

    def hosts_reachable(self, src_host, dst_host, protocol="icmp"):
        """Whether ``src_host`` can reach ``dst_host``'s primary address."""
        network = self.dataplane.network
        flow = host_flow(network, src_host, dst_host, protocol)
        return self.reachable(flow, start_device=src_host)

    def reachability_matrix(self, protocol="icmp"):
        """(src, dst) -> bool over all ordered host pairs."""
        network = self.dataplane.network
        hosts = network.hosts()
        addresses = {host: network.host_address(host) for host in hosts}
        matrix = {}
        for src in hosts:
            src_ip = addresses[src]
            for dst in hosts:
                if src == dst:
                    continue
                flow = Flow(src_ip=src_ip, dst_ip=addresses[dst], protocol=protocol)
                matrix[(src, dst)] = self.reachable(flow, start_device=src)
        return matrix

    def forwarding_path(self, flow, start_device=None):
        """Devices visited by ``flow`` (regardless of final disposition)."""
        return self.trace(flow, start_device).path()
