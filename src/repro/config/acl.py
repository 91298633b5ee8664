"""Access control lists: model, matching semantics, and entry text forms.

Supports the two IOS ACL families the scenario networks use:

* **standard** ACLs match on source address only
  (``permit 10.0.1.0 0.0.0.255``);
* **extended** ACLs match the full 5-tuple
  (``deny tcp 10.1.0.0 0.0.255.255 host 10.2.0.5 eq 80``).

Matching follows IOS semantics: first matching entry wins, with an implicit
``deny ip any any`` at the end.
"""

import ipaddress
from dataclasses import dataclass, field

from repro.net.addressing import network_from_wildcard, prefixlen_to_wildcard
from repro.util.errors import ConfigError

ANY_NETWORK = ipaddress.IPv4Network("0.0.0.0/0")

_WELL_KNOWN_PORTS = {
    "ftp": 21,
    "ssh": 22,
    "telnet": 23,
    "smtp": 25,
    "domain": 53,
    "www": 80,
    "snmp": 161,
    "bgp": 179,
    "https": 443,
}
_PORT_NAMES = {number: name for name, number in _WELL_KNOWN_PORTS.items()}


def _parse_port(token):
    """Parse a port token that may be a number or a well-known service name."""
    if token in _WELL_KNOWN_PORTS:
        return _WELL_KNOWN_PORTS[token]
    try:
        port = int(token)
    except ValueError:
        raise ConfigError(f"unknown port {token!r}") from None
    if not 0 <= port <= 65535:
        raise ConfigError(f"port {port} out of range")
    return port


def _format_port(port):
    """Render a port number, preferring its well-known service name."""
    return _PORT_NAMES.get(port, str(port))


@dataclass(frozen=True)
class PortMatch:
    """A port qualifier: ``eq``, ``gt``, ``lt``, or ``range``."""

    op: str
    low: int
    high: int = None

    _OPS = ("eq", "gt", "lt", "range")

    def __post_init__(self):
        if self.op not in self._OPS:
            raise ConfigError(f"unknown port operator {self.op!r}")
        if self.op == "range" and self.high is None:
            raise ConfigError("range requires two ports")

    def matches(self, port):
        """Whether a concrete port (possibly ``None``) satisfies the match."""
        if port is None:
            return False
        if self.op == "eq":
            return port == self.low
        if self.op == "gt":
            return port > self.low
        if self.op == "lt":
            return port < self.low
        return self.low <= port <= self.high

    def to_tokens(self):
        """Serialize back to IOS tokens."""
        if self.op == "range":
            return ["range", _format_port(self.low), _format_port(self.high)]
        return [self.op, _format_port(self.low)]


def _parse_address_spec(tokens, index):
    """Parse ``any`` | ``host A`` | ``A wildcard`` starting at ``index``.

    Returns ``(network, next_index)``.
    """
    if index >= len(tokens):
        raise ConfigError("truncated ACL address specification")
    token = tokens[index]
    if token == "any":
        return ANY_NETWORK, index + 1
    if token == "host":
        if index + 1 >= len(tokens):
            raise ConfigError("'host' requires an address")
        return ipaddress.IPv4Network(f"{tokens[index + 1]}/32"), index + 2
    if index + 1 >= len(tokens):
        raise ConfigError(f"address {token!r} requires a wildcard mask")
    return network_from_wildcard(token, tokens[index + 1]), index + 2


def _parse_port_spec(tokens, index):
    """Parse an optional port qualifier; returns ``(PortMatch | None, next)``."""
    if index >= len(tokens):
        return None, index
    op = tokens[index]
    if op not in PortMatch._OPS:
        return None, index
    if op == "range":
        if index + 2 >= len(tokens):
            raise ConfigError("'range' requires two ports")
        match = PortMatch(
            "range", _parse_port(tokens[index + 1]), _parse_port(tokens[index + 2])
        )
        return match, index + 3
    if index + 1 >= len(tokens):
        raise ConfigError(f"{op!r} requires a port")
    return PortMatch(op, _parse_port(tokens[index + 1])), index + 2


def _format_address_spec(network):
    """Serialize a network back to IOS address-spec tokens."""
    if network == ANY_NETWORK:
        return ["any"]
    if network.prefixlen == 32:
        return ["host", str(network.network_address)]
    return [
        str(network.network_address),
        prefixlen_to_wildcard(network.prefixlen),
    ]


@dataclass(frozen=True)
class AclEntry:
    """One permit/deny line of an ACL."""

    action: str  # "permit" | "deny"
    protocol: str = "ip"
    src: ipaddress.IPv4Network = ANY_NETWORK
    src_port: PortMatch = None
    dst: ipaddress.IPv4Network = ANY_NETWORK
    dst_port: PortMatch = None

    def __post_init__(self):
        if self.action not in ("permit", "deny"):
            raise ConfigError(f"unknown ACL action {self.action!r}")
        if self.protocol not in ("ip", "icmp", "tcp", "udp"):
            raise ConfigError(f"unknown ACL protocol {self.protocol!r}")
        if self.protocol in ("ip", "icmp") and (self.src_port or self.dst_port):
            raise ConfigError(f"{self.protocol!r} entries cannot match ports")

    def matches(self, flow):
        """IOS match semantics against a :class:`~repro.net.flow.Flow`."""
        if self.protocol != "ip" and flow.protocol != self.protocol:
            return False
        if flow.src_ip not in self.src or flow.dst_ip not in self.dst:
            return False
        if self.src_port is not None and not self.src_port.matches(flow.src_port):
            return False
        if self.dst_port is not None and not self.dst_port.matches(flow.dst_port):
            return False
        return True

    def to_text(self, kind="extended"):
        """Serialize to the IOS entry text (without the ``access-list N``)."""
        if kind == "standard":
            return " ".join([self.action] + _format_address_spec(self.src))
        tokens = [self.action, self.protocol]
        tokens += _format_address_spec(self.src)
        if self.src_port is not None:
            tokens += self.src_port.to_tokens()
        tokens += _format_address_spec(self.dst)
        if self.dst_port is not None:
            tokens += self.dst_port.to_tokens()
        return " ".join(tokens)

    @classmethod
    def parse(cls, text, kind="extended"):
        """Parse an entry from its text form (tokens after the ACL name)."""
        tokens = text.split()
        if not tokens:
            raise ConfigError("empty ACL entry")
        action = tokens[0]
        if kind == "standard":
            src, index = _parse_address_spec(tokens, 1)
            if index != len(tokens):
                raise ConfigError(f"trailing tokens in standard ACL entry: {text!r}")
            return cls(action=action, protocol="ip", src=src)
        if len(tokens) < 2:
            raise ConfigError(f"truncated ACL entry: {text!r}")
        protocol = tokens[1]
        src, index = _parse_address_spec(tokens, 2)
        src_port, index = _parse_port_spec(tokens, index)
        dst, index = _parse_address_spec(tokens, index)
        dst_port, index = _parse_port_spec(tokens, index)
        if index != len(tokens):
            raise ConfigError(f"trailing tokens in ACL entry: {text!r}")
        return cls(
            action=action,
            protocol=protocol,
            src=src,
            src_port=src_port,
            dst=dst,
            dst_port=dst_port,
        )


def first_match(entries, flow):
    """The first of ``entries`` matching ``flow``, or ``None`` (implicit deny)."""
    for entry in entries:
        if entry.matches(flow):
            return entry
    return None


@dataclass
class Acl:
    """A named or numbered ACL: ordered entries with implicit final deny."""

    name: str
    kind: str = "extended"  # "standard" | "extended"
    entries: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("standard", "extended"):
            raise ConfigError(f"unknown ACL kind {self.kind!r}")

    def permits(self, flow):
        """First-match evaluation; implicit deny when nothing matches."""
        entry = first_match(self.entries, flow)
        return entry is not None and entry.action == "permit"

    def matching_entry(self, flow):
        """The entry that decides ``flow``, or ``None`` for the implicit deny."""
        return first_match(self.entries, flow)

    def copy(self):
        """Deep copy (entries are immutable, the list is not)."""
        return Acl(name=self.name, kind=self.kind, entries=list(self.entries))
