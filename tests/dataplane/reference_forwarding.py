"""The slow reference forwarding walk: live configs on every hop.

This is the walker :mod:`repro.dataplane.forwarding` ran before traces read
the compiled forwarding index. It re-reads the plane's live configs at
every hop — address ownership, interface state, ACLs, next-hop resolution
across the egress segment, the source-owner scan — and is kept here as the
oracle the index-backed walk must match (``test_index_equivalence.py``).

Its one edit: when several devices or endpoints own an address, the first
in sorted ``(device, interface)`` order wins, as in the index, instead of
whichever dict or frozenset iteration reaches first.
"""

from repro.dataplane.forwarding import (
    _MAX_HOPS,
    Disposition,
    ForwardingTrace,
    Hop,
)


def reference_trace(dataplane, flow, start_device=None):
    """Trace ``flow`` from ``start_device`` (default: the owner of its source IP)."""
    network = dataplane.network
    if start_device is None:
        start_device = reference_owner(network, flow.src_ip)
        if start_device is None:
            trace = ForwardingTrace(flow=flow)
            trace.disposition = Disposition.SOURCE_DOWN
            return trace
    return _Walker(dataplane, flow).walk(start_device)


def reference_owner(network, address):
    """The first device, in sorted name order, with ``address`` on some interface."""
    for name in sorted(network.configs):
        if network.config(name).owns_address(address):
            return name
    return None


def reference_next_hop(dataplane, device, out_interface, target_ip):
    """The (device, interface) owning ``target_ip`` on the egress segment."""
    segment = dataplane.segments.segment_of(device, out_interface)
    if segment is None:
        return None
    for other_device, other_iface in sorted(segment.endpoints):
        if (other_device, other_iface) == (device, out_interface):
            continue
        iface_cfg = dataplane.network.config(other_device).interfaces.get(
            other_iface
        )
        if iface_cfg is None or not iface_cfg.is_routed or iface_cfg.shutdown:
            continue
        if iface_cfg.address.ip == target_ip:
            return (other_device, other_iface)
    return None


class _Walker:
    """Stateful walk of one flow through the data plane."""

    def __init__(self, dataplane, flow):
        self.dataplane = dataplane
        self.network = dataplane.network
        self.flow = flow
        self.trace = ForwardingTrace(flow=flow)
        self._visited = set()

    def walk(self, device, in_interface=None):
        while True:
            hop = Hop(device=device, in_interface=in_interface)
            self.trace.hops.append(hop)

            if device in self._visited:
                return self._finish(Disposition.LOOP, hop, "revisited device")
            self._visited.add(device)

            config = self.network.config(device)

            if in_interface is not None and not self._permitted(
                config, in_interface, "in", hop
            ):
                return self._finish(Disposition.DENIED_IN, hop)

            if config.owns_address(self.flow.dst_ip):
                return self._finish(Disposition.DELIVERED, hop)

            if device in self.network.hosts() and in_interface is not None:
                return self._finish(
                    Disposition.NOT_FORWARDED, hop, "hosts do not forward"
                )

            route = self.dataplane.fib(device).lookup(self.flow.dst_ip)
            if route is None:
                return self._finish(Disposition.NO_ROUTE, hop)
            hop.route = route
            hop.out_interface = route.out_interface

            if not self._permitted(config, route.out_interface, "out", hop):
                return self._finish(Disposition.DENIED_OUT, hop)

            target_ip = route.next_hop if route.next_hop is not None else self.flow.dst_ip
            next_endpoint = reference_next_hop(
                self.dataplane, device, route.out_interface, target_ip
            )
            if next_endpoint is None:
                return self._finish(
                    Disposition.ARP_FAILURE, hop, f"no endpoint owns {target_ip}"
                )

            if len(self.trace.hops) >= _MAX_HOPS:
                return self._finish(Disposition.LOOP, hop, "hop limit")

            device, in_interface = next_endpoint

    def _permitted(self, config, iface_name, direction, hop):
        """Apply the interface's ACL in ``direction``; absent ACLs permit."""
        iface = config.interfaces.get(iface_name)
        if iface is None:
            return True
        acl_name = (
            iface.access_group_in if direction == "in" else iface.access_group_out
        )
        if acl_name is None or acl_name not in config.acls:
            # IOS treats a reference to a missing ACL as permit-all.
            return True
        acl = config.acls[acl_name]
        permitted = acl.permits(self.flow)
        if not permitted:
            hop.note = f"acl {acl_name} {direction} denied"
        return permitted

    def _finish(self, disposition, hop, note=""):
        if note:
            hop.note = note if not hop.note else f"{hop.note}; {note}"
        self.trace.disposition = disposition
        return self.trace
