"""The compiled data plane: per-device FIBs plus L2 segment structure."""

from repro.util.errors import TopologyError


class DataPlane:
    """Everything needed to forward a packet through the network.

    Produced by :func:`repro.control.builder.build_dataplane`; consumed by
    :mod:`repro.dataplane.forwarding` and the policy verifier. The data plane
    is a snapshot — recompute it after configs change.

    ``artifacts`` is the shared :class:`~repro.control.cache.CompiledDataplane`
    this plane was rebound from. Its forwarding index is all a trace reads
    from the configs, so a trace is a pure function of the fingerprint and
    the artifacts' trace cache is shared by every plane with the same
    fingerprint: traces computed once are reused across verifier runs.
    """

    def __init__(self, network, artifacts):
        self.network = network
        self.artifacts = artifacts
        self.segments = artifacts.segments
        self._fibs = artifacts.fibs
        self.ospf = artifacts.ospf
        self.bgp = artifacts.bgp
        self.index = artifacts.index
        self.trace_cache = artifacts.trace_cache
        self.trace_lock = artifacts.trace_lock

    @property
    def fingerprint(self):
        """Snapshot content hash, or ``None`` for an unfingerprinted compile."""
        return self.artifacts.fingerprint

    @property
    def device_fingerprints(self):
        """Per-device config hashes, or ``None`` for an unfingerprinted compile."""
        return self.artifacts.device_fingerprints

    def fib(self, device):
        """The FIB of ``device`` (empty for switches)."""
        try:
            return self._fibs[device]
        except KeyError:
            raise TopologyError(f"no FIB for device {device!r}") from None

    def resolve_next_hop(self, device, out_interface, target_ip):
        """The (device, interface) owning ``target_ip`` on the egress segment.

        ``target_ip`` is the route's next hop, or the destination itself for
        connected routes. Returns ``None`` when no live endpoint on the
        segment owns the address (dead next hop / host down at L2).
        """
        return self.index.next_hop(device, out_interface, int(target_ip))
