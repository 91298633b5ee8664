"""Snapshot fingerprinting and the process-wide data-plane compile cache.

Every consumer of :func:`repro.control.builder.build_dataplane` — the
enforcer, policy mining, twin scoping, the attack-surface sweeps, the
benchmarks — used to recompile identical networks from scratch. A network
snapshot is fully determined by its topology and the canonical serialized
form of every device configuration (the parse/serialize round-trip is exact,
so serialized text is a faithful content key). This module content-hashes a
snapshot into a **fingerprint** and keeps a process-wide LRU of compiled
artifacts keyed on it.

Cache entries never hold a reference to the :class:`~repro.net.network.Network`
they were compiled from — callers routinely mutate configs in place, and a
mutated network must not leak into a cache hit for a different caller. On a
hit the builder *rebinds* the shared artifacts (segments, FIBs, routing
results, trace cache) to the calling network, which by fingerprint equality
is semantically identical to the one compiled.

The attached trace cache is shared across every plane rebound from the same
entry: forwarding reads only the compiled artifacts (the FIBs and the
:class:`~repro.dataplane.index.ForwardingIndex`), so a trace is a pure
function of the fingerprint and a trace computed while verifying one ticket
is valid for every later plane with the same fingerprint. A plane whose
network was mutated in place after the compile is stale, not undefined: it
keeps answering for the snapshot it was compiled from ("the data plane is a
snapshot — recompute it after configs change"), and what it caches is that
snapshot's answer.
"""

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.config.serializer import serialize_config
from repro.obs import metrics as obs_metrics

_CACHE_HITS = obs_metrics.counter(
    "dataplane.cache.hits", unit="events",
    help="compile-cache lookups served from an existing entry",
)
_CACHE_MISSES = obs_metrics.counter(
    "dataplane.cache.misses", unit="events",
    help="compile-cache lookups that required a compile",
)
_CACHE_EVICTIONS = obs_metrics.counter(
    "dataplane.cache.evictions", unit="events",
    help="LRU entries dropped to stay under maxsize",
)


def config_fingerprint(config):
    """Content hash of one device configuration (canonical serialized form)."""
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()


def snapshot_texts(network):
    """``(texts, device_fps)``: canonical serializations plus their hashes.

    One serialization pass serves both needs: ``texts`` maps device name to
    its canonical serialized config (a drift-proof snapshot callers can
    re-parse later, e.g. the session layer's semantic base), ``device_fps``
    the matching content fingerprints — identical to what
    :func:`snapshot_fingerprint` would report.
    """
    texts = {
        name: serialize_config(config)
        for name, config in network.configs.items()
    }
    device_fps = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in texts.items()
    }
    return texts, device_fps


def topology_fingerprint(topology):
    """Content hash of a topology: devices, kinds, interfaces, and cables."""
    digest = hashlib.sha256()
    digest.update(topology.name.encode())
    for device in sorted(topology.devices(), key=lambda d: d.name):
        digest.update(f"|{device.name}/{device.kind.value}:".encode())
        digest.update(",".join(sorted(device.interfaces)).encode())
    links = sorted(
        tuple(sorted((end.device, end.name) for end in link.endpoints()))
        for link in topology.links()
    )
    digest.update(repr(links).encode())
    return digest.hexdigest()


def snapshot_fingerprint(network):
    """``(snapshot_fp, topology_fp, device_fps)`` content hashes of a network.

    ``device_fps`` maps device name to its per-config fingerprint; the
    snapshot fingerprint combines the topology hash with every device hash,
    so any semantic config edit or re-cabling yields a new key.
    """
    device_fps = {
        name: config_fingerprint(config)
        for name, config in network.configs.items()
    }
    topology_fp = topology_fingerprint(network.topology)
    return combine_fingerprints(topology_fp, device_fps), topology_fp, device_fps


def combine_fingerprints(topology_fp, device_fps):
    """The snapshot fingerprint for a topology hash + per-device hashes."""
    digest = hashlib.sha256()
    digest.update(topology_fp.encode())
    for name in sorted(device_fps):
        digest.update(f"|{name}={device_fps[name]}".encode())
    return digest.hexdigest()


def derived_fingerprint(baseline, network, changed_devices):
    """Fingerprints of a snapshot *derived* from an already-hashed baseline.

    ``changed_devices`` is the caller's **assertion** that ``network``'s
    configs are content-identical to the baseline's outside that set (e.g.
    the enforcer's candidate, constructed by copying production and applying
    a change set confined to those devices) and that the topology is
    unchanged. Only the named devices are re-serialized and re-hashed; a
    false assertion produces a wrong fingerprint, so this is strictly for
    callers that constructed ``network`` themselves.
    """
    device_fps = dict(baseline.device_fingerprints)
    for name in changed_devices:
        device_fps[name] = config_fingerprint(network.config(name))
    topology_fp = baseline.topology_fingerprint
    return combine_fingerprints(topology_fp, device_fps), topology_fp, device_fps


@dataclass
class CompiledDataplane:
    """The shareable artifacts of one compilation, keyed by fingerprint.

    Everything here is treated as immutable after construction except
    ``trace_cache``, which only ever grows (guarded by ``trace_lock``) and
    holds traces that are pure functions of the snapshot content, and
    ``dead_memo``, which memoizes per-device dead-next-hop frozensets for
    the rollout health probe's convergence sweep. Both hold values
    deterministic for a fingerprint, so lock-free get/set races are benign.
    ``index`` is the :class:`~repro.dataplane.index.ForwardingIndex`, the
    only view of the configs a trace reads.
    """

    fingerprint: str
    topology_fingerprint: str
    device_fingerprints: dict
    segments: object
    fibs: dict
    ospf: object
    bgp: object
    index: object = None
    trace_cache: dict = field(default_factory=dict)
    trace_lock: object = field(default_factory=threading.Lock)
    dead_memo: dict = field(default_factory=dict)


class DataplaneCache:
    """A thread-safe LRU of :class:`CompiledDataplane` keyed by fingerprint."""

    def __init__(self, maxsize=64):
        self.maxsize = maxsize
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, fingerprint):
        """The cached artifacts for ``fingerprint``, or ``None``."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                _CACHE_MISSES.inc()
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            _CACHE_HITS.inc()
            return entry

    def put(self, fingerprint, artifacts):
        """Install (or refresh) the artifacts for ``fingerprint``."""
        with self._lock:
            self._entries[fingerprint] = artifacts
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                _CACHE_EVICTIONS.inc()

    def discard(self, fingerprint):
        """Drop one entry if present (used by benchmarks to force re-compiles)."""
        with self._lock:
            self._entries.pop(fingerprint, None)

    def clear(self):
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self):
        """Hit/miss/entry counts for observability and benchmark reports."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "maxsize": self.maxsize,
            }

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint):
        with self._lock:
            return fingerprint in self._entries


class ShardedDataplaneCache:
    """A compile cache partitioned into content-addressed shards.

    Fingerprints are uniform (sha256), so routing each entry to shard
    ``int(fp[:8], 16) % shards`` spreads keys evenly across ``shards``
    independent :class:`DataplaneCache` instances — concurrent compilers
    (the mega-network shard workers, parallel ticket sessions) contend on
    a per-shard lock instead of one global one, and an LRU eviction in one
    shard never touches another shard's working set. The public surface
    mirrors :class:`DataplaneCache` exactly, so either can back the
    builder.
    """

    def __init__(self, shards=8, maxsize=64):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        per_shard = max(1, maxsize // shards)
        self.maxsize = per_shard * shards
        self._shards = tuple(
            DataplaneCache(maxsize=per_shard) for _ in range(shards)
        )

    def _shard(self, fingerprint):
        return self._shards[int(fingerprint[:8], 16) % len(self._shards)]

    def get(self, fingerprint):
        """The cached artifacts for ``fingerprint``, or ``None``."""
        return self._shard(fingerprint).get(fingerprint)

    def put(self, fingerprint, artifacts):
        """Install (or refresh) the artifacts for ``fingerprint``."""
        self._shard(fingerprint).put(fingerprint, artifacts)

    def discard(self, fingerprint):
        """Drop one entry if present."""
        self._shard(fingerprint).discard(fingerprint)

    def clear(self):
        """Drop every entry and reset the hit/miss counters."""
        for shard in self._shards:
            shard.clear()

    @property
    def hits(self):
        return sum(shard.hits for shard in self._shards)

    @property
    def misses(self):
        return sum(shard.misses for shard in self._shards)

    def stats(self):
        """Aggregated hit/miss/entry counts plus the shard layout."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self),
            "maxsize": self.maxsize,
            "shards": len(self._shards),
        }

    def __len__(self):
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, fingerprint):
        return fingerprint in self._shard(fingerprint)


_CACHE = DataplaneCache()

_SHARDED_CACHE = ShardedDataplaneCache()


def dataplane_cache():
    """The process-wide compile cache."""
    return _CACHE


def sharded_dataplane_cache():
    """The process-wide sharded compile cache (mega-network pipeline)."""
    return _SHARDED_CACHE


def clear_dataplane_cache():
    """Reset the process-wide compile caches (tests, benchmarks)."""
    _CACHE.clear()
    _SHARDED_CACHE.clear()
