"""The forwarding index: everything a trace reads from device configs.

The builder (and the sharded compiler) index a snapshot's configs once per
compile and store the result on the
:class:`~repro.control.cache.CompiledDataplane`, beside the segments and
FIBs. The forwarding walk reads only this index and the FIBs, never a live
config, so a trace is a pure function of the snapshot fingerprint: mutating
a network in place after compiling it cannot change what its plane answers,
and the shared trace cache cannot be poisoned that way.

Duplicate addresses resolve in sorted ``(device, interface)`` order, so the
answer never depends on dict or set iteration order (and hence never on
``PYTHONHASHSEED``).
"""

from dataclasses import dataclass
from typing import NamedTuple

from repro.util.errors import TopologyError


class InterfaceRow(NamedTuple):
    """What forwarding reads from one interface.

    ``acl_in``/``acl_out`` are the resolved ACLs as ``(name, entries)``, or
    ``None`` when no ACL is applied — including a reference to a missing
    ACL, which IOS treats as permit-all.
    """

    address: int  # the interface IP as an int; None when unrouted
    shutdown: bool
    acl_in: tuple
    acl_out: tuple

    @property
    def routed(self):
        return self.address is not None


class DeviceRow(NamedTuple):
    """One device's interfaces and every address it owns (up or down)."""

    interfaces: dict  # interface name -> InterfaceRow
    owned: frozenset


@dataclass(frozen=True)
class ForwardingIndex:
    """Per-device rows, the host set, the source-owner map, next-hop maps.

    ``owners`` maps an int address to the first device owning it in sorted
    name order. ``next_hops`` maps every segment endpoint to its segment's
    ``int address -> endpoints`` map over live routed endpoints; one map
    object serves all endpoints of a segment.
    """

    rows: dict
    hosts: frozenset
    owners: dict
    next_hops: dict

    def row(self, device):
        """The row of ``device``; unknown devices raise ``TopologyError``."""
        try:
            return self.rows[device]
        except KeyError:
            raise TopologyError(f"unknown device {device!r}") from None

    def owner(self, address):
        """The device owning ``address``, or ``None``."""
        return self.owners.get(int(address))

    def next_hop(self, device, interface, address):
        """The other live endpoint owning int ``address`` on the segment of
        ``(device, interface)``, or ``None``."""
        hops = self.next_hops.get((device, interface))
        if hops is not None:
            for endpoint in hops.get(address, ()):
                if endpoint != (device, interface):
                    return endpoint
        return None


def build_index(network, segments, base=None, changed=()):
    """Index ``network``'s configs over its compiled ``segments``.

    ``base`` is the baseline :class:`~repro.control.cache.CompiledDataplane`
    of an incremental compile and ``changed`` the devices its invalidation
    cone marks changed. Every other device keeps the baseline's row object,
    as does a changed device whose row comes out equal. A segment map, and
    the owner map, are reused whenever no row they read was replaced, so an
    incremental compile allocates only what actually moved.
    """
    old = base.index if base is not None else None
    rows = {}
    for name, config in network.configs.items():
        old_row = old.rows.get(name) if old is not None else None
        if old_row is not None and name not in changed:
            rows[name] = old_row
            continue
        row = _device_row(config)
        rows[name] = old_row if row == old_row else row
    if old is None:
        moved = set(rows)
        hosts = frozenset(network.hosts())
    else:
        moved = {name for name in changed if rows[name] is not old.rows[name]}
        hosts = old.hosts  # an incremental compile keeps the topology

    if old is not None and all(
        rows[name].owned == old.rows[name].owned for name in moved
    ):
        owners = old.owners
    else:
        owners = {}
        for name in sorted(rows):
            for address in rows[name].owned:
                owners.setdefault(address, name)

    if old is not None and not moved and segments is base.segments:
        next_hops = old.next_hops
    else:
        next_hops = {}
        for segment in segments:
            hops = None
            if old is not None and moved.isdisjoint(
                device for device, _iface in segment.endpoints
            ):
                endpoint = next(iter(segment.endpoints))
                prior = base.segments.segment_of(*endpoint)
                if prior is not None and prior.endpoints == segment.endpoints:
                    hops = old.next_hops[endpoint]
            if hops is None:
                hops = _segment_hops(segment, rows)
            for endpoint in segment.endpoints:
                next_hops[endpoint] = hops
    return ForwardingIndex(rows, hosts, owners, next_hops)


def _device_row(config):
    interfaces = {
        name: InterfaceRow(
            int(iface.address.ip) if iface.is_routed else None,
            iface.shutdown,
            _resolved_acl(config, iface.access_group_in),
            _resolved_acl(config, iface.access_group_out),
        )
        for name, iface in config.interfaces.items()
    }
    owned = frozenset(
        row.address for row in interfaces.values() if row.routed
    )
    return DeviceRow(interfaces, owned)


def _resolved_acl(config, name):
    acl = config.acls.get(name) if name is not None else None
    return None if acl is None else (name, tuple(acl.entries))


def _segment_hops(segment, rows):
    """``int address -> endpoints`` over the segment's endpoints, each tuple
    in sorted ``(device, interface)`` order. A segment holds only live
    routed endpoints (:func:`repro.control.l2.compute_segments`)."""
    hops = {}
    for endpoint in sorted(segment.endpoints):
        device, name = endpoint
        address = rows[device].interfaces[name].address
        hops[address] = hops.get(address, ()) + (endpoint,)
    return hops
