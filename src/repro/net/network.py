"""The central bundle: a physical topology plus per-device configurations.

A :class:`Network` is what every higher layer operates on — the control plane
compiles it to a data plane, the emulator runs consoles over it, the twin
network clones slices of it, and the enforcer diffs two of them.
"""

from repro.config.serializer import config_line_count
from repro.net.topology import DeviceKind
from repro.util.errors import TopologyError


class Network:
    """A topology with a configuration per device."""

    def __init__(self, topology, configs):
        missing = [d.name for d in topology.devices() if d.name not in configs]
        if missing:
            raise TopologyError(f"devices without configs: {missing}")
        unknown = [name for name in configs if not topology.has_device(name)]
        if unknown:
            raise TopologyError(f"configs for unknown devices: {unknown}")
        self.topology = topology
        self.configs = dict(configs)

    @property
    def name(self):
        """The topology's name; networks are named by their topology."""
        return self.topology.name

    def config(self, device):
        """The configuration of ``device``."""
        try:
            return self.configs[device]
        except KeyError:
            raise TopologyError(f"unknown device {device!r}") from None

    def kind(self, device):
        """The :class:`DeviceKind` of ``device``."""
        return self.topology.device(device).kind

    def routers(self):
        """Names of all routers."""
        return self.topology.device_names(DeviceKind.ROUTER)

    def switches(self):
        """Names of all switches."""
        return self.topology.device_names(DeviceKind.SWITCH)

    def hosts(self):
        """Names of all hosts."""
        return self.topology.device_names(DeviceKind.HOST)

    def device_owning_ip(self, address):
        """The device with ``address`` on some interface, or ``None``.

        A duplicated address resolves to the owner whose name sorts first
        (the forwarding index's rule), never to whichever the config dict
        happens to list first.
        """
        for name in sorted(self.configs):
            if self.configs[name].owns_address(address):
                return name
        return None

    def host_address(self, host):
        """A host's primary IP address."""
        address = self.config(host).primary_address
        if address is None:
            raise TopologyError(f"host {host!r} has no address")
        return address.ip

    def subset(self, device_names):
        """A new network containing only ``device_names`` and internal links.

        Used by the twin network to materialise a task-scoped slice. Configs
        are deep-copied so twin edits never touch the original, and follow
        the topology's device order, so iteration never depends on the hash
        seed.
        """
        from repro.net.topology import Topology

        keep = set(device_names)
        unknown = [n for n in keep if not self.topology.has_device(n)]
        if unknown:
            raise TopologyError(f"unknown devices in subset: {unknown}")
        topo = Topology(f"{self.name}-subset")
        for device in self.topology.devices():
            if device.name in keep:
                added = topo.add_device(device.name, device.kind)
                for iface_name in device.interfaces:
                    added.add_interface(iface_name)
        for link in self.topology.links():
            if link.a.device in keep and link.b.device in keep:
                topo.add_link(
                    link.a.device, link.a.name, link.b.device, link.b.name
                )
        configs = {
            device.name: self.configs[device.name].copy()
            for device in topo.devices()
        }
        return Network(topo, configs)

    def copy(self):
        """Deep copy of configs over the shared (immutable-in-practice) topology."""
        return Network(
            self.topology, {n: c.copy() for n, c in self.configs.items()}
        )

    def copy_except(self, devices):
        """A copy that deep-copies only ``devices``' configs and *shares* the
        rest by reference.

        Copy-on-write for callers about to edit exactly ``devices`` (the
        enforcer's candidate snapshots): mutating any other device's config
        on the copy would corrupt the original, so treat the shared configs
        as read-only.
        """
        devices = set(devices)
        return Network(
            self.topology,
            {
                n: (c.copy() if n in devices else c)
                for n, c in self.configs.items()
            },
        )

    def total_config_lines(self):
        """Table 1's "lines of configs" across all devices."""
        return sum(config_line_count(c) for c in self.configs.values())

    def summary(self):
        """Table 1 row: device/link/config-line counts."""
        counts = self.topology.summary()
        counts["config_lines"] = self.total_config_lines()
        return counts
