"""Sharded data-plane compilation and policy verification for mega-networks.

The monolithic pipeline (:mod:`repro.control.builder`) is fine at paper
scale (~36 devices) but a generated mega-network
(:mod:`repro.scenarios.generate`) has hundreds of routers, and per-source
SPF plus per-router FIB construction dominates the compile. This module
partitions that work into **shards** and runs them across a
``ProcessPoolExecutor``:

* **Shard boundary = dependency-cone partition.** A router's routes can
  only depend on routers inside its SPF connected component (the same
  boundary :mod:`repro.control.deps` uses to scope invalidation), so
  components are computed first and every shard stays inside one — workers
  never need each other's results. Components larger than ``shard_size``
  are split into contiguous source ranges purely for load balancing.
* **Exact equivalence.** The sharded compile is byte-identical to
  ``build_dataplane(use_cache=False)`` — same OSPF neighbor list, same
  per-router route lists, same FIB contents in the same canonical order
  (property-tested in ``tests/control/test_shard.py``). It reuses the
  monolithic pipeline's own selection primitives and only restructures the
  work around them: adjacencies come from a hash-join on ``(area, subnet)``
  instead of the all-pairs scan, every source shares one pre-sorted
  adjacency index instead of rebuilding and re-sorting its own, each shard
  filters advertisements to its component, and FIBs are assembled from a
  per-prefix winner merge with a shared sort-key table instead of
  re-deriving ``(-prefixlen, str(prefix))`` per installed route.
* **Graceful degradation.** A worker process dying (the
  ``scale.shard.crash`` fault point, or a real pool breakage) loses only
  its shard: the parent re-runs the lost shard in-process — the same
  degrade-don't-fail idiom the parallel policy verifier uses for dying
  threads — and counts it on ``scale.shard.degraded``.

Workers inherit their inputs by ``fork`` (the compile task is staged in a
module global before the pool spawns), so nothing network-sized is
pickled; results travel back as plain route lists and FIBs, both of which
are lock-free and picklable. With one effective worker (the default on a
single-CPU host) the executor is bypassed entirely and shards run in the
parent — same results, no pool overhead.
"""

import heapq
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro import faults
from repro.control import ospf as _ospf
from repro.control.bgp import compute_bgp_routes
from repro.control.builder import (
    _connected_routes,
    _host_routes,
    _static_routes,
)
from repro.control.cache import (
    CompiledDataplane,
    sharded_dataplane_cache,
    snapshot_fingerprint,
)
from repro.control.l2 import compute_segments
from repro.control.ospf import OspfRouteComputation
from repro.control.routes import ADMIN_DISTANCE, Route, select_best_routes
from repro.dataplane.fib import Fib
from repro.dataplane.index import build_index
from repro.dataplane.plane import DataPlane
from repro.dataplane.reachability import ReachabilityAnalyzer
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.state import STATE as _OBS
from repro.policy.verification import VerificationReport
from repro.util.clock import monotonic_s
from repro.util.errors import ShardWorkerError

DEFAULT_SHARD_SIZE = 64

_OSPF_DISTANCE = ADMIN_DISTANCE["ospf"]

_SHARDS = obs_metrics.gauge(
    "scale.shards", unit="shards",
    help="shards in the most recent sharded compile",
)
_WORKERS = obs_metrics.gauge(
    "scale.workers", unit="processes",
    help="worker processes used by the most recent sharded compile/verify",
)
_SHARD_ROUTERS = obs_metrics.histogram(
    "scale.shard.routers", unit="routers",
    help="SPF sources per shard in sharded compiles",
)
_COMPILE_MS = obs_metrics.histogram(
    "scale.compile.ms", unit="ms",
    help="wall-clock milliseconds per sharded compile (cache hits excluded)",
)
_VERIFY_MS = obs_metrics.histogram(
    "scale.verify.ms", unit="ms",
    help="wall-clock milliseconds per sharded verification pass",
)
_DEGRADED = obs_metrics.counter(
    "scale.shard.degraded", unit="shards",
    help="compile/verify shards re-run in-process after a worker death",
)

_CRASH_FAULT = faults.fault_point(
    "scale.shard.crash", error=ShardWorkerError,
    help="a sharded compile/verify worker process dies; the parent re-runs "
         "the lost shard in-process (graceful degradation)",
)

# Worker inputs, staged before the pool forks so children inherit them by
# address-space copy instead of pickling a whole network per task. Cleared
# once the pool is done; ``None`` whenever no sharded run is in flight.
_TASK = None
_VERIFY_TASK = None


def effective_workers(workers):
    """Resolve a ``workers`` request against the host's CPU count."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    return max(1, workers)


@dataclass(frozen=True)
class Shard:
    """One unit of compile work: SPF sources within one component."""

    index: int
    component: int
    sources: tuple


@dataclass(frozen=True)
class ShardPlan:
    """The partition of a network's routers into shards.

    ``component_of`` maps each OSPF-active router to its SPF connected
    component; routers absent from it run no OSPF and need no SPF work.
    """

    shards: tuple
    component_of: dict


def plan_shards(routers, active, pairs, shard_size=DEFAULT_SHARD_SIZE):
    """Partition ``routers`` into shards along SPF component boundaries.

    ``active`` maps router name to its OSPF-activated interfaces and
    ``pairs`` is the non-empty adjacency-pair index from discovery; two
    routers share a component iff they are connected through adjacencies,
    which is exactly the scope outside which no route of theirs can
    depend. Components bigger than ``shard_size`` are split into
    contiguous chunks (balance only — every chunk still carries its
    component id so workers filter advertisements per component).
    """
    adjacency = {}
    for u, v in pairs:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)

    component_of = {}
    component_count = 0
    for router in routers:
        if not active.get(router) or router in component_of:
            continue
        component_of[router] = component_count
        frontier = [router]
        while frontier:
            node = frontier.pop()
            for peer in adjacency.get(node, ()):
                if peer not in component_of:
                    component_of[peer] = component_count
                    frontier.append(peer)
        component_count += 1

    members = {}
    for router in routers:
        component = component_of.get(router)
        if component is not None:
            members.setdefault(component, []).append(router)

    shards = []
    for component in sorted(members):
        sources = members[component]
        chunks = -(-len(sources) // shard_size)  # ceil division
        per_chunk = -(-len(sources) // chunks)
        for start in range(0, len(sources), per_chunk):
            shards.append(Shard(
                index=len(shards),
                component=component,
                sources=tuple(sources[start:start + per_chunk]),
            ))
    return ShardPlan(shards=tuple(shards), component_of=component_of)


def compile_shard_plan(network, shard_size=DEFAULT_SHARD_SIZE):
    """The :class:`ShardPlan` ``sharded_compile`` would use for ``network``.

    Runs only the planning prefix of the pipeline (segments, adjacency
    discovery, component partition) — benchmarks and tests use it to report
    or assert the shard layout without compiling anything.
    """
    segments = compute_segments(network)
    routers = network.routers()
    active = {
        name: _ospf._ospf_interfaces(network.config(name))
        for name in routers
    }
    prepared = {
        name: _ospf._prepare_entries(network.config(name), active[name])
        for name in routers
    }
    _neighbors, _edges, pairs = _joined_adjacencies(segments, prepared)
    return plan_shards(routers, active, pairs, shard_size=shard_size)


# -- sharded compile -----------------------------------------------------------


class _CompileTask:
    """Everything a compile worker needs, inherited via fork."""

    __slots__ = (
        "network", "plan", "adjacency", "ads_by_component", "bgp_routes",
        "sort_pos", "hop_cache",
    )

    def __init__(self, network, plan, adjacency, ads_by_component,
                 bgp_routes):
        self.network = network
        self.plan = plan
        self.adjacency = adjacency
        self.ads_by_component = ads_by_component
        self.bgp_routes = bgp_routes
        # prefix key -> (-prefixlen, str(prefix)): the FIB's canonical sort
        # key, computed once per unique prefix instead of once per route.
        self.sort_pos = {}
        # interface id -> (next-hop IPv4Address, its string form), shared
        # by every source that reaches a destination through it.
        self.hop_cache = {}


def sharded_compile(network, workers=None, shard_size=DEFAULT_SHARD_SIZE,
                    use_cache=True):
    """Compile ``network`` through the sharded pipeline.

    Byte-identical results to ``build_dataplane(network)``; the difference
    is purely how the work is scheduled. ``workers=None`` uses the host's
    CPU count; one effective worker runs every shard in-process (no pool).
    ``use_cache`` consults the process-wide *sharded* compile cache — pass
    ``False`` for cold benchmarks. A cache miss with caching enabled pays
    one snapshot fingerprint; with caching disabled the compile skips
    fingerprinting entirely (the artifacts then carry ``None`` fingerprints
    and a later incremental build against them falls back to a full
    compile, which is always safe).
    """
    cache = sharded_dataplane_cache() if use_cache else None
    fingerprint = topology_fp = None
    device_fps = None
    if cache is not None:
        fingerprint, topology_fp, device_fps = snapshot_fingerprint(network)
        artifacts = cache.get(fingerprint)
        if artifacts is not None:
            return DataPlane(network, artifacts)
    started = monotonic_s() if _OBS.enabled else 0.0
    workers = effective_workers(workers)
    with obs_trace.span(
        "scale.compile", devices=len(network.configs), workers=workers,
    ) as cspan:
        artifacts = _sharded_full_compile(
            network, fingerprint, topology_fp, device_fps,
            workers, shard_size, cspan,
        )
    if _OBS.enabled:
        _COMPILE_MS.observe((monotonic_s() - started) * 1000.0)
    if cache is not None:
        cache.put(fingerprint, artifacts)
    return DataPlane(network, artifacts)


def _sharded_full_compile(network, fingerprint, topology_fp, device_fps,
                          workers, shard_size, cspan):
    segments = compute_segments(network)
    routers = network.routers()
    active = {
        name: _ospf._ospf_interfaces(network.config(name))
        for name in routers
    }
    prepared = {
        name: _ospf._prepare_entries(network.config(name), active[name])
        for name in routers
    }
    neighbors, edges, pairs = _joined_adjacencies(segments, prepared)
    ads_by_router = {
        name: _ospf._router_advertisements(
            name, network.config(name), active[name]
        )
        for name in routers
    }
    bgp = compute_bgp_routes(network, segments)
    plan = plan_shards(routers, active, pairs, shard_size=shard_size)

    # One adjacency index for every source, pre-sorted by (cost, neighbor)
    # — the exact per-visit order _dijkstra derives by sorting on demand.
    adjacency = {}
    for u, v, cost, iface_u, iface_v in edges:
        adjacency.setdefault(u, []).append((v, cost, iface_u, iface_v))
    for entries in adjacency.values():
        entries.sort(key=lambda e: (e[1], e[0]))

    # Advertisements filtered per component and grouped per advertiser,
    # preserving flat order (the flat list is already advertiser-grouped).
    # An advertiser outside the source's component is unreachable and
    # skipped during selection anyway; filtering just stops paying for it,
    # and grouping lets each source resolve an advertiser's distance and
    # next hop once per group instead of once per advertisement.
    ads_by_component = {}
    for name in routers:
        component = plan.component_of.get(name)
        if component is not None and ads_by_router[name]:
            ads_by_component.setdefault(component, []).append(
                (name, tuple(ads_by_router[name]))
            )

    task = _CompileTask(
        network, plan, adjacency, ads_by_component, bgp.routes_by_device
    )
    workers = min(workers, max(1, len(plan.shards)))
    _SHARDS.set(len(plan.shards))
    _WORKERS.set(workers)
    if _OBS.enabled:
        for shard in plan.shards:
            _SHARD_ROUTERS.observe(len(shard.sources))

    results, degraded = _run_shards(task, workers)
    cspan.set(shards=len(plan.shards), degraded=degraded)

    ospf = OspfRouteComputation(neighbors=neighbors)
    fibs = {}
    for router in routers:
        entry = results.get(router)
        if entry is None:
            # No OSPF process (or no activated interfaces): connected,
            # static, and BGP routes still install.
            ospf.routes_by_device[router] = []
            fibs[router] = _merged_fib(
                network.config(router),
                bgp.routes_by_device.get(router, ()), (), (), task.sort_pos,
            )
        else:
            routes, fib = entry
            ospf.routes_by_device[router] = routes
            fibs[router] = fib
    for host in network.hosts():
        fibs[host] = Fib(_host_routes(network.config(host)))
    for switch in network.switches():
        fibs[switch] = Fib()
    return CompiledDataplane(
        fingerprint, topology_fp, device_fps, segments, fibs, ospf, bgp,
        index=build_index(network, segments),
    )


def _joined_adjacencies(segments, prepared):
    """Adjacency discovery by hash-join on ``(area, subnet)``.

    Output-identical to :func:`repro.control.ospf._discover_adjacencies`
    (same neighbors, edges, and pair index, in the same order) but only
    router pairs that actually share an area+subnet bucket are pairwise
    scanned, instead of all O(R^2) of them.
    """
    buckets = {}
    for name, entries in prepared.items():
        for _iface, area, net_key in entries:
            buckets.setdefault((area, net_key), set()).add(name)
    candidates = set()
    for members in buckets.values():
        if len(members) < 2:
            continue
        ordered = sorted(members)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1:]:
                candidates.add((u, v))

    neighbors = []
    edges = []
    pairs = {}
    for u, v in sorted(candidates):
        pair_n, pair_e = _ospf._pair_adjacencies(
            segments, u, prepared[u], v, prepared[v]
        )
        if pair_n or pair_e:
            pairs[(u, v)] = (tuple(pair_n), tuple(pair_e))
        neighbors.extend(pair_n)
        edges.extend(pair_e)
    return neighbors, edges, pairs


def _dijkstra_shared(source, adjacency):
    """:func:`repro.control.ospf._dijkstra` over a shared pre-sorted index.

    Every source pays neither the adjacency rebuild nor the per-visit
    neighbor sort; relaxation order (and therefore every deterministic
    tie-break) is unchanged because the index is pre-sorted by the same
    ``(cost, neighbor)`` key.
    """
    dist = {source: 0}
    first_hop = {}
    heap = [(0, source, None)]
    visited = set()
    while heap:
        d, node, hop = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if hop is not None:
            first_hop[node] = hop
        for neighbor, cost, iface_u, iface_v in adjacency.get(node, ()):
            candidate = d + cost
            if candidate < dist.get(neighbor, _ospf._INF):
                dist[neighbor] = candidate
                next_hop = hop if hop is not None else (iface_u, iface_v)
                heapq.heappush(heap, (candidate, neighbor, next_hop))
    return dist, first_hop


def _ospf_routes_grouped(config, router, dist, first_hop, grouped_ads,
                         hop_cache):
    """:func:`repro.control.ospf._routes_for`, advertiser-grouped.

    Identical winners in identical order: the grouped iteration visits
    advertisements in exactly the flat-list sequence (the flat list is a
    per-advertiser concatenation), the ranking tuple is the same
    ``(metric, str(next_hop))``, and the first-wins strict-< tie-break is
    unchanged. The per-advertiser distance/next-hop resolution is hoisted
    out of the inner loop, and the winner's next-hop ``IPv4Address`` is the
    advertiser's cached object instead of a fresh construction per route
    (``IPv4Interface.ip`` builds a new object every access — at mega-scale
    that was a quarter of route materialization). Returns ``(routes,
    keys)`` with ``keys[i]`` the ``(network_int, prefixlen)`` of
    ``routes[i]``, which FIB assembly reuses instead of re-deriving.
    """
    local_prefixes = _ospf._local_prefix_keys(config)
    best = {}
    best_get = best.get
    for advertiser, ads in grouped_ads:
        if advertiser == router:
            continue
        if advertiser not in dist or advertiser not in first_hop:
            continue
        out_iface, remote_iface = first_hop[advertiser]
        # Interface configs are stable for the compile's lifetime and shared
        # across every source's SPF tree, so the next-hop address and its
        # string form are cached per interface identity rather than being
        # re-derived per (source, advertiser) pair.
        hop = hop_cache.get(id(remote_iface))
        if hop is None:
            hop_addr = remote_iface.address.ip
            hop = (hop_addr, str(hop_addr))
            hop_cache[id(remote_iface)] = hop
        hop_addr, hop_ip = hop
        base_dist = dist[advertiser]
        for prefix, key, _advertiser, advertiser_cost in ads:
            if key in local_prefixes:
                continue
            rank = (base_dist + advertiser_cost, hop_ip)
            current = best_get(key)
            if current is None or rank < current[0]:
                best[key] = (rank, prefix, out_iface, hop_addr)
    routes = [
        Route(
            prefix=prefix,
            protocol="ospf",
            out_interface=out_iface.name,
            next_hop=hop_addr,
            metric=rank[0],
            distance=_OSPF_DISTANCE,
        )
        for (rank, prefix, out_iface, hop_addr) in best.values()
    ]
    return routes, list(best.keys())


def _merged_fib(config, bgp_routes, ospf_routes, ospf_keys, sort_pos):
    """The router's FIB, identical to ``Fib(select_best_routes(...))``.

    Local candidates (connected/static/BGP) are few and go through the
    real :func:`select_best_routes`; the OSPF list — already one winner
    per prefix, with ``ospf_keys`` carrying each route's precomputed
    prefix key — seeds the per-prefix table directly. Admin distance
    ordering is preserved exactly: local candidates precede OSPF in the
    monolithic candidate list, so a local route wins ties (``<=``) while
    an OSPF route must win strictly. Canonical order comes from the shared
    ``sort_pos`` table, computed once per unique prefix network-wide.
    """
    chosen = dict(zip(ospf_keys, ospf_routes))
    local = list(_connected_routes(config))
    local.extend(_static_routes(config))
    local.extend(bgp_routes)
    for route in select_best_routes(local):
        net = route.prefix
        key = (int(net.network_address), net.prefixlen)
        current = chosen.get(key)
        if current is None or route.sort_key() <= current.sort_key():
            chosen[key] = route

    sort_pos_get = sort_pos.get
    ordered = []
    for key, route in chosen.items():
        pos = sort_pos_get(key)
        if pos is None:
            net = route.prefix
            pos = (-net.prefixlen, str(net))
            sort_pos[key] = pos
        ordered.append((pos, key, route))
    ordered.sort(key=lambda item: item[0])
    return Fib._from_canonical([(key, route) for _pos, key, route in ordered])


def _compute_shard(task, shard):
    """All of one shard's per-source work; runs in worker or parent."""
    grouped_ads = task.ads_by_component.get(shard.component, ())
    results = {}
    for router in shard.sources:
        config = task.network.config(router)
        dist, first_hop = _dijkstra_shared(router, task.adjacency)
        routes, keys = _ospf_routes_grouped(
            config, router, dist, first_hop, grouped_ads, task.hop_cache
        )
        fib = _merged_fib(
            config, task.bgp_routes.get(router, ()), routes, keys,
            task.sort_pos,
        )
        results[router] = (routes, fib)
    return results


def _run_compile_shard(index):
    """Worker entry point: compute one shard of the staged compile task."""
    task = _TASK
    return _compute_shard(task, task.plan.shards[index])


def _run_shards(task, workers):
    """Execute every shard; returns ``(results, degraded_count)``.

    One effective worker computes in-process with no pool. Otherwise
    shards fan out over a forked ``ProcessPoolExecutor``; any shard whose
    worker dies (fault-injected or real) is re-run in the parent.
    """
    results = {}
    if workers <= 1 or len(task.plan.shards) <= 1:
        for shard in task.plan.shards:
            results.update(_compute_shard(task, shard))
        return results, 0

    global _TASK
    _TASK = task
    lost = []
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            futures = {}
            for shard in task.plan.shards:
                try:
                    _CRASH_FAULT.fire(shard=shard.index)
                except ShardWorkerError:
                    lost.append(shard)
                    continue
                futures[pool.submit(_run_compile_shard, shard.index)] = shard
            for future, shard in futures.items():
                try:
                    results.update(future.result())
                except (ShardWorkerError, BrokenProcessPool, OSError):
                    lost.append(shard)
    finally:
        _TASK = None

    for shard in lost:
        _DEGRADED.inc()
        results.update(_compute_shard(task, shard))
    return results, len(lost)


# -- sharded verify ------------------------------------------------------------


def _run_verify_slice(indexes):
    """Worker entry point: check one slice of the staged policy set."""
    dataplane, policies = _VERIFY_TASK
    analyzer = ReachabilityAnalyzer(dataplane)
    return [(index, policies[index].check(analyzer)) for index in indexes]


def sharded_verify(policies, dataplane, workers=None):
    """Verify ``policies`` against ``dataplane`` across worker processes.

    Policies are split round-robin so every worker sees a mix of cheap and
    expensive flows; results come back as picklable
    :class:`~repro.policy.model.PolicyResult` objects and are reassembled
    in policy order, so the report is indistinguishable from a serial
    :class:`~repro.policy.verification.PolicyVerifier` pass. A dying
    worker (the ``scale.shard.crash`` fault point or a broken pool) loses
    only its slice, which the parent re-checks in-process.

    Unlike the thread-pool verifier this pays a real fork per pass, so it
    is worth it only for mega-network policy sets; with one effective
    worker it degenerates to a plain serial sweep.
    """
    policies = list(policies)
    workers = min(effective_workers(workers), max(1, len(policies)))
    started = monotonic_s() if _OBS.enabled else 0.0
    report = VerificationReport()
    with obs_trace.span(
        "scale.verify", policies=len(policies), workers=workers,
    ) as vspan:
        _WORKERS.set(workers)
        if workers <= 1 or len(policies) <= 1:
            analyzer = ReachabilityAnalyzer(dataplane)
            report.results = [
                policy.check(analyzer) for policy in policies
            ]
        else:
            report.results = _verify_sliced(
                policies, dataplane, workers, vspan
            )
    if _OBS.enabled:
        _VERIFY_MS.observe((monotonic_s() - started) * 1000.0)
    return report


def _verify_sliced(policies, dataplane, workers, vspan):
    global _VERIFY_TASK
    _VERIFY_TASK = (dataplane, policies)
    results = [None] * len(policies)
    lost = []
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            futures = {}
            for offset in range(workers):
                indexes = list(range(offset, len(policies), workers))
                if not indexes:
                    continue
                try:
                    _CRASH_FAULT.fire(verify_slice=offset)
                except ShardWorkerError:
                    lost.extend(indexes)
                    continue
                futures[pool.submit(_run_verify_slice, indexes)] = indexes
            for future, indexes in futures.items():
                try:
                    for index, result in future.result():
                        results[index] = result
                except (ShardWorkerError, BrokenProcessPool, OSError):
                    lost.extend(indexes)
    finally:
        _VERIFY_TASK = None

    if lost:
        _DEGRADED.inc()
        vspan.set(degraded=True, lost_policies=len(lost))
        analyzer = ReachabilityAnalyzer(dataplane)
        for index in sorted(lost):
            results[index] = policies[index].check(analyzer)
    return results
