"""Differential reachability: what a configuration change actually alters.

Batfish's ``differentialReachability`` for this substrate: compare two
data-plane snapshots over a set of probe flows and report every flow whose
fate changed. The policy enforcer attaches this to its decision so the
customer sees a change set's *blast radius*, not just a policy verdict —
including collateral effects on flows no policy happens to cover.

When both snapshots came through the compile cache with shared artifacts
(the enforcer's incremental path), the diff exploits locality: forwarding
is a per-hop function of the visited devices' configs/FIBs and the
traversed segments' endpoints, so a before-trace whose path avoids every
config change and whose destination resolves to the same route at every
hop is provably identical on the after plane and is reused instead of
re-traced. See :func:`trace_unaffected` for the exact rule and
:func:`changed_configs` for when the optimization is sound.
"""

from dataclasses import dataclass, field

from repro.dataplane.reachability import ReachabilityAnalyzer
from repro.net.flow import Flow


@dataclass(frozen=True)
class FlowDelta:
    """One flow whose fate differs between the two snapshots."""

    flow: Flow
    before_disposition: str
    after_disposition: str
    before_path: tuple
    after_path: tuple

    @property
    def newly_delivered(self):
        return (
            self.after_disposition == "delivered"
            and self.before_disposition != "delivered"
        )

    @property
    def newly_broken(self):
        return (
            self.before_disposition == "delivered"
            and self.after_disposition != "delivered"
        )

    @property
    def rerouted(self):
        """Same fate, different path (still a risk signal for audits)."""
        return (
            self.before_disposition == self.after_disposition
            and self.before_path != self.after_path
        )

    def __str__(self):
        return (
            f"{self.flow}: {self.before_disposition} -> "
            f"{self.after_disposition}"
        )


@dataclass
class ReachabilityDiff:
    """All flow deltas between two snapshots."""

    deltas: list = field(default_factory=list)
    probed: int = 0

    @property
    def newly_delivered(self):
        return [d for d in self.deltas if d.newly_delivered]

    @property
    def newly_broken(self):
        return [d for d in self.deltas if d.newly_broken]

    @property
    def rerouted(self):
        return [d for d in self.deltas if d.rerouted]

    @property
    def unchanged(self):
        return self.probed - len(self.deltas)

    def summary(self):
        return (
            f"{self.probed} flows probed: {len(self.newly_delivered)} newly "
            f"delivered, {len(self.newly_broken)} newly broken, "
            f"{len(self.rerouted)} rerouted, {self.unchanged} unchanged"
        )


def default_probe_flows(network, protocol="icmp"):
    """All ordered host-pair representative flows (the standard probe set)."""
    hosts = network.hosts()
    addresses = {host: network.host_address(host) for host in hosts}
    flows = []
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            flows.append(
                (src, Flow(
                    src_ip=addresses[src],
                    dst_ip=addresses[dst],
                    protocol=protocol,
                ))
            )
    return flows


def changed_configs(before, after):
    """Devices whose *forwarding-relevant* config differs between two planes.

    Compares the two planes' forwarding-index rows — exactly what the walk
    reads from a config. Returns ``None`` (meaning "assume everything
    changed") when the planes do not cover the same device names.
    Segment-structure changes are handled per traversed segment by
    :class:`TraceCarryover`, not here.

    A device whose config changed but whose row did not (e.g. an edited
    OSPF ``network`` statement, or an ACL no interface applies) is *not*
    reported: its forwarding behaviour can only change through its FIB,
    and :func:`trace_unaffected` compares per-flow FIB lookups on every
    non-shared FIB along the path anyway.
    """
    before_rows = before.index.rows
    after_rows = after.index.rows
    if before_rows.keys() != after_rows.keys():
        return None
    return {
        name for name, row in after_rows.items() if row != before_rows[name]
    }


class TraceCarryover:
    """Memoized per-flow trace carry-over decisions between two planes.

    Forwarding is local: each hop's behaviour is a function of the visited
    device's config, its FIB lookup for the flow's destination, and the
    configs of the endpoints on the traversed egress segment. So a
    before-trace carries over to the after plane verbatim when, along its
    recorded path:

    * no visited device's forwarding-index row changed (applied ACLs,
      addresses, shutdown);
    * every visited device's FIB either *is* the identity-shared baseline
      object or resolves the flow's destination to an equal route — a
      network-wide routing change only perturbs flows whose destination
      lookup actually changed;
    * every traversed segment has the same endpoint set on both planes
      (identity-shared tables satisfy this trivially; recomputed tables are
      compared structurally per segment, so an L2 change invalidates only
      the broadcast domains it actually rewired), and none of those
      endpoints' rows changed — next-hop resolution reads every endpoint's
      row, so a changed device merely sitting on a traversed segment can
      alter the outcome (e.g. by acquiring a duplicate next-hop address).

    Per-(device, destination) lookup comparisons and per-segment endpoint
    checks are memoized: thousands of traces share a handful of distinct
    destinations and traversed segments.
    """

    def __init__(self, before, after, config_changed):
        self.before = before
        self.after = after
        self.config_changed = config_changed
        self._lookup_same = {}  # (device, int(dst_ip)) -> bool
        self._segment_ok = {}  # (device, out_interface) -> bool

    def _same_lookup(self, device, dst_ip, dst_int):
        key = (device, dst_int)
        same = self._lookup_same.get(key)
        if same is None:
            before_fib = self.before.fib(device)
            after_fib = self.after.fib(device)
            same = before_fib is after_fib or (
                before_fib.lookup(dst_ip) == after_fib.lookup(dst_ip)
            )
            self._lookup_same[key] = same
        return same

    def _segment_clean(self, device, out_interface):
        key = (device, out_interface)
        clean = self._segment_ok.get(key)
        if clean is None:
            segment = self.before.segments.segment_of(device, out_interface)
            if segment is None:
                clean = False
            else:
                if self.before.segments is self.after.segments:
                    same_domain = True
                else:
                    after_segment = self.after.segments.segment_of(
                        device, out_interface
                    )
                    same_domain = (
                        after_segment is not None
                        and after_segment.endpoints == segment.endpoints
                    )
                clean = same_domain and not any(
                    endpoint_device in self.config_changed
                    for endpoint_device, _ in segment.endpoints
                )
            self._segment_ok[key] = clean
        return clean

    def unaffected(self, trace):
        """Whether ``trace`` is provably identical on the after plane."""
        dst_ip = trace.flow.dst_ip
        dst_int = int(dst_ip)
        for hop in trace.hops:
            if hop.device in self.config_changed:
                return False
            if not self._same_lookup(hop.device, dst_ip, dst_int):
                return False
            if hop.out_interface is not None and not self._segment_clean(
                hop.device, hop.out_interface
            ):
                return False
        return True


def trace_unaffected(trace, before, after, config_changed):
    """One-shot :meth:`TraceCarryover.unaffected` (tests, ad-hoc queries)."""
    return TraceCarryover(before, after, config_changed).unaffected(trace)


def seed_unaffected_traces(before, after):
    """Copy provably-unchanged cached traces from ``before`` into ``after``.

    For every trace in ``before``'s cache that :func:`trace_unaffected`
    proves identical, install the same trace object in ``after``'s cache so
    the candidate-side verifier and diff never re-trace it. Traces keyed
    with ``start=None`` additionally require that both planes' owner maps
    resolve the source IP to the same device.

    Returns the number of traces seeded; 0 when the planes are not
    comparable (see :func:`changed_configs`).
    """
    config_changed = changed_configs(before, after)
    if config_changed is None:
        return 0
    carryover = TraceCarryover(before, after, config_changed)

    def _owner_stable(src_ip):
        return before.index.owner(src_ip) == after.index.owner(src_ip)

    seeded = 0
    with before.trace_lock:
        entries = list(before.trace_cache.items())
    with after.trace_lock:
        for (flow, start), trace in entries:
            if (flow, start) in after.trace_cache:
                continue
            if not carryover.unaffected(trace):
                continue
            if start is None and not _owner_stable(flow.src_ip):
                continue
            after.trace_cache[(flow, start)] = trace
            seeded += 1
    return seeded


def diff_reachability(before, after, probe_flows=None):
    """Compare two data planes over ``probe_flows``.

    Args:
        before: the production data-plane snapshot.
        after: the candidate snapshot (same device names; hosts may differ
            in config, not identity).
        probe_flows: list of ``(start_device, Flow)`` pairs; by default,
            all ordered host pairs of the *after* network.

    Returns:
        A :class:`ReachabilityDiff` listing every flow whose disposition or
        path differs — the change set's blast radius.

    Traces go through each plane's :class:`ReachabilityAnalyzer` cache, so
    flows the policy verifier already traced are not re-traced here. When
    the planes share compile artifacts, after-traces are skipped entirely
    for flows whose before-path provably avoids every changed device.
    """
    if probe_flows is None:
        probe_flows = default_probe_flows(after.network)
    analyzer_before = ReachabilityAnalyzer(before)
    analyzer_after = ReachabilityAnalyzer(after)
    config_changed = changed_configs(before, after)
    carryover = (
        TraceCarryover(before, after, config_changed)
        if config_changed is not None
        else None
    )
    diff = ReachabilityDiff(probed=len(probe_flows))
    for start, flow in probe_flows:
        trace_before = analyzer_before.trace(flow, start_device=start)
        if (
            carryover is not None
            and start is not None
            and carryover.unaffected(trace_before)
        ):
            continue  # provably identical on the after plane
        trace_after = analyzer_after.trace(flow, start_device=start)
        if (
            trace_before.disposition == trace_after.disposition
            and trace_before.path() == trace_after.path()
        ):
            continue
        diff.deltas.append(
            FlowDelta(
                flow=flow,
                before_disposition=trace_before.disposition.value,
                after_disposition=trace_after.disposition.value,
                before_path=tuple(trace_before.path()),
                after_path=tuple(trace_after.path()),
            )
        )
    return diff
