"""Staged canary rollouts: wave plans, health probes, circuit breakers.

The transactional push (docs/ROBUSTNESS.md) guarantees production ends in
one of two states, but a monolithic push still *transits* arbitrary
unverified intermediate states — and a single bad device takes every other
device's change down with it only after all of them applied. This module
supplies the three pieces that turn :meth:`ChangeScheduler.push` into a
staged deployment engine (docs/ARCHITECTURE.md "Staged rollout"):

* :class:`RolloutPlan` partitions the scheduler's ordered category batches
  into **waves** of devices — per-device by default, configurable wave
  size, explicit canary devices first — such that the concatenation of all
  wave batches is a permutation of the input and per-device change order
  is preserved;
* :class:`HealthProbe` compiles the **mixed-version dataplane** of the
  partially-updated production network after every wave (incrementally,
  against a frozen pre-push baseline plane, via the compile cache's
  ``same_except`` fast path) and checks the invariant policies plus a
  route-convergence sanity sweep against it;
* :class:`CircuitBreaker` counts transient apply failures per device
  across the whole push and refuses further applies to a device whose
  flap budget is spent, so one flapping device is quarantined instead of
  burning every wave's retry budget.

All three rollout fault points live here so the chaos campaigns (the
``canary`` campaign in :mod:`repro.faults.chaos`) can exercise probe
failures, device flaps, and mid-wave crashes deterministically.
"""

from dataclasses import dataclass, field

from repro import faults
from repro.control.builder import build_dataplane
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.policy.verification import PolicyVerifier
from repro.util.errors import (
    HealthProbeError,
    PushCrashed,
    TransientDeviceError,
)

_WAVES = obs_metrics.counter(
    "rollout.waves", unit="waves",
    help="rollout waves fully applied and probed healthy",
)
_PROBES = obs_metrics.counter(
    "rollout.probes", unit="probes",
    help="post-wave health probes run on mixed-version dataplanes",
)
_PROBE_VIOLATIONS = obs_metrics.counter(
    "rollout.probe.violations", unit="probes",
    help="health probes that found an invariant violation or a dead route",
)
_QUARANTINED = obs_metrics.counter(
    "rollout.quarantined", unit="devices",
    help="devices quarantined by failed rollout waves",
)
_BREAKER_TRIPS = obs_metrics.counter(
    "rollout.breaker.trips", unit="devices",
    help="per-device circuit breakers opened by spent flap budgets",
)
_PROBE_PARALLEL = obs_metrics.counter(
    "rollout.probe.parallel", unit="probes",
    help="health probes dispatched concurrently within a disjoint-cone "
         "wave group (sequential probes are not counted)",
)

# Fault points the canary chaos campaign arms (docs/ROBUSTNESS.md catalog).
PROBE_FAIL_FAULT = faults.fault_point(
    "rollout.wave.probe_fail", error=HealthProbeError,
    help="a post-wave health probe reports an invariant violation on the "
         "mixed-version dataplane; the wave's devices are quarantined and "
         "every applied wave rolls back",
)
FLAP_FAULT = faults.fault_point(
    "rollout.device.flap", error=TransientDeviceError,
    help="a device flaps during a staged wave apply; retried like any "
         "transient failure but counted against the device's circuit "
         "breaker, which quarantines it once the flap budget is spent",
)
MIDWAVE_CRASH_FAULT = faults.fault_point(
    "rollout.crash.midwave", error=PushCrashed,
    help="the pusher dies between waves or mid-wave; the journal's "
         "wave/probe markers let resume() replay only the uncommitted "
         "waves, re-probing each",
)


@dataclass(frozen=True)
class RolloutConfig:
    """How a push should be staged.

    ``wave_size`` devices advance per wave (1 = strict per-device canary);
    ``canary`` devices, when named, always form the leading wave(s);
    ``flap_budget`` transient failures per device open its circuit breaker;
    ``probe_incremental=False`` forces from-scratch probe compiles (the
    rollout benchmark's cold baseline); ``probe_convergence`` toggles the
    dead-next-hop sweep; ``probe_parallel`` lets consecutive waves whose
    dependency cones (:func:`repro.control.deps.wave_cone`) are pairwise
    disjoint apply back-to-back and probe concurrently — overlapping cones
    always fall back to the strict apply-probe-commit sequence.
    """

    wave_size: int = 1
    canary: tuple = ()
    flap_budget: int = 3
    probe_incremental: bool = True
    probe_convergence: bool = True
    probe_parallel: bool = True


@dataclass
class Wave:
    """One wave: a device group plus its slice of the ordered batches."""

    index: int
    devices: tuple
    batches: list = field(default_factory=list)  # list[list[ConfigChange]]
    batch_indices: list = field(default_factory=list)  # into the flat list

    @property
    def change_count(self):
        return sum(len(batch) for batch in self.batches)


class RolloutPlan:
    """A push's changes partitioned into ordered waves.

    Built from the scheduler's category batches: devices are grouped by
    first appearance in the flattened ordered change list (explicit canary
    devices promoted to the front), chunked into waves of
    ``config.wave_size``, and each wave's batches are the scheduled batches
    filtered to that wave's devices. Per-device change order is therefore
    exactly the scheduled order, and ``flat_batches`` — the concatenation
    of every wave's batches, which is what gets journaled — is a
    permutation of the input change set.
    """

    def __init__(self, waves, config):
        self.waves = list(waves)
        self.config = config
        self.flat_batches = []
        for wave in self.waves:
            wave.batch_indices = []
            for batch in wave.batches:
                wave.batch_indices.append(len(self.flat_batches))
                self.flat_batches.append(batch)

    @classmethod
    def from_batches(cls, batches, config=None):
        config = config if config is not None else RolloutConfig()
        order = []
        for batch in batches:
            for change in batch:
                if change.device not in order:
                    order.append(change.device)
        canary = [device for device in config.canary if device in order]
        rest = [device for device in order if device not in canary]
        ordered = canary + rest
        size = max(1, config.wave_size)
        waves = []
        for start in range(0, len(ordered), size):
            devices = tuple(ordered[start:start + size])
            wave_batches = [
                [change for change in batch if change.device in devices]
                for batch in batches
            ]
            wave_batches = [batch for batch in wave_batches if batch]
            waves.append(
                Wave(index=len(waves), devices=devices, batches=wave_batches)
            )
        return cls(waves, config)

    @property
    def device_order(self):
        return [device for wave in self.waves for device in wave.devices]

    def wave_plan(self):
        """The journal-ready description of the waves (plain data)."""
        return [
            {
                "index": wave.index,
                "devices": list(wave.devices),
                "batch_indices": list(wave.batch_indices),
            }
            for wave in self.waves
        ]

    def __len__(self):
        return len(self.waves)


@dataclass
class ProbeResult:
    """What one post-wave health probe found."""

    wave_index: int
    policies_checked: int = 0
    violations: tuple = ()  # invariant policy ids that broke
    dead_routes: tuple = ()  # newly dead next hops ("device: prefix via nh")

    @property
    def healthy(self):
        return not self.violations and not self.dead_routes

    def summary(self):
        if self.healthy:
            return (
                f"healthy: {self.policies_checked} invariants hold, "
                f"routes converged"
            )
        parts = []
        if self.violations:
            parts.append(f"invariants broken: {', '.join(self.violations)}")
        if self.dead_routes:
            parts.append(f"dead routes: {'; '.join(self.dead_routes)}")
        return "UNHEALTHY: " + "; ".join(parts)


class HealthProbe:
    """Verifies each intermediate (mixed-version) state of a staged push.

    The probe owns a **frozen pre-push baseline**: a private copy of
    production taken before the first wave, compiled once (a compile-cache
    hit — the verifier just compiled the same content). Probing after wave
    *k* compiles the live, partially-updated production incrementally
    against that baseline, asserting ``same_except`` the cumulative applied
    device set, so the mixed-version plane reuses every artifact the
    applied waves cannot have touched. The copy matters: an incremental
    compile reads the *old* configs through its baseline plane's network,
    and production mutates in place between waves — a baseline bound to
    production itself would silently see no diff.
    """

    def __init__(self, baseline_plane, policy_verifier=None,
                 invariant_policy_ids=(), incremental=True,
                 check_convergence=True):
        self.baseline_plane = baseline_plane
        self.policy_verifier = policy_verifier
        self.invariants = frozenset(invariant_policy_ids or ())
        self.incremental = incremental
        self.check_convergence = check_convergence
        # Verify only the invariant policies instead of the full set and
        # filtering afterwards — the probe never reports anything else.
        self._invariant_verifier = None
        if policy_verifier is not None and self.invariants:
            policies = getattr(policy_verifier, "policies", None)
            if policies is not None:
                relevant = [
                    policy for policy in policies
                    if policy.policy_id in self.invariants
                ]
                self._invariant_verifier = PolicyVerifier(
                    relevant,
                    max_workers=getattr(policy_verifier, "max_workers", None),
                )
            else:
                self._invariant_verifier = policy_verifier
        # Per-device dead-next-hop sets: the convergence sweep reuses a
        # device's baseline set whenever neither its FIB nor any config on
        # its attached segments can have changed.
        self._baseline_dead_by_device = None
        self.baseline_dead = frozenset()
        if check_convergence:
            self._baseline_dead_by_device = {
                device: self._dead_for_device(baseline_plane, device)
                for device in baseline_plane.network.routers()
            }
            self.baseline_dead = frozenset().union(
                *self._baseline_dead_by_device.values()
            ) if self._baseline_dead_by_device else frozenset()
        # The previous probe's plane: each wave's plane differs from its
        # predecessor by one wave, so traces seed best chain-wise. Read
        # once / written last in check(); races between concurrent group
        # probes are benign (any seed source is valid).
        self._last_plane = None

    @classmethod
    def for_push(cls, production, policy_verifier=None,
                 invariant_policy_ids=(), config=None, devices=None):
        """A probe for a push about to start: baseline = production now.

        ``devices`` — the plan's device order — names every device the push
        will touch. When given, the frozen baseline deep-copies only those
        configs and shares the rest with production by reference: the push
        mutates exactly the named devices, and the copy owns those
        privately. The baseline plane itself is a compile-cache rebind
        (production's own plane re-keyed through ``same_except`` with an
        empty delta), so freezing the baseline re-hashes nothing.
        """
        config = config if config is not None else RolloutConfig()
        if config.probe_incremental:
            production_plane = build_dataplane(production, use_cache=True)
            baseline = (
                production.copy_except(devices) if devices is not None
                else production.copy()
            )
            plane = build_dataplane(
                baseline, baseline=production_plane, same_except=set(),
            )
        else:
            baseline = production.copy()
            plane = build_dataplane(baseline, use_cache=False)
        return cls(
            plane,
            policy_verifier=policy_verifier,
            invariant_policy_ids=invariant_policy_ids,
            incremental=config.probe_incremental,
            check_convergence=config.probe_convergence,
        )

    @classmethod
    def for_journal(cls, production, journal, policy_verifier=None,
                    config=None):
        """A probe for a crashed push: baseline rebuilt from the journal.

        At resume time production already carries the committed waves, so
        the pre-push state is reconstructed by restoring the journal's
        pre-push snapshot onto a copy (sharing every config the push never
        touches).
        """
        config = config if config is not None else (
            journal.rollout if journal.rollout is not None else RolloutConfig()
        )
        baseline = production.copy_except(list(journal.snapshot))
        for device, snapshot_config in journal.snapshot.items():
            baseline.configs[device] = snapshot_config.copy()
        plane = build_dataplane(baseline, use_cache=config.probe_incremental)
        return cls(
            plane,
            policy_verifier=policy_verifier,
            invariant_policy_ids=journal.invariant_policies or (),
            incremental=config.probe_incremental,
            check_convergence=config.probe_convergence,
        )

    def check(self, production, applied_devices, wave_index,
              fire_fault=True):
        """Probe the mixed-version state after a wave applied.

        ``applied_devices`` is the **cumulative** set of devices every
        committed-or-current wave touched — the probe's assertion that
        production matches the frozen baseline everywhere else.

        Returns a :class:`ProbeResult`; raises
        :class:`~repro.util.errors.HealthProbeError` only via the
        ``rollout.wave.probe_fail`` fault point (real violations are
        reported, not raised — the scheduler decides). ``fire_fault=False``
        skips that fault point: the scheduler's parallel wave groups fire
        it themselves, in wave order from the dispatching thread, so
        nth-based fault rules stay deterministic under concurrency.
        """
        _PROBES.inc()
        applied = set(applied_devices)
        with obs_trace.span(
            "rollout.probe", wave=wave_index, applied=len(applied),
            incremental=self.incremental,
        ) as span:
            if fire_fault:
                PROBE_FAIL_FAULT.fire(wave=wave_index, applied=len(applied))
            if self.incremental:
                plane = build_dataplane(
                    production,
                    baseline=self.baseline_plane,
                    same_except=applied,
                )
            else:
                plane = build_dataplane(production, use_cache=False)
            if self.incremental:
                source = self._last_plane
                _seed_probe_traces(
                    source if source is not None else self.baseline_plane,
                    plane,
                )

            violations = ()
            checked = 0
            if self._invariant_verifier is not None:
                report = self._invariant_verifier.verify_dataplane(plane)
                checked = report.checked_count
                violations = tuple(sorted(
                    result.policy.policy_id
                    for result in report.violations
                    if result.policy.policy_id in self.invariants
                ))
            dead = ()
            if self.check_convergence:
                dead = tuple(sorted(
                    self._dead_next_hops_scoped(plane, applied)
                    - self.baseline_dead
                ))
            result = ProbeResult(
                wave_index=wave_index,
                policies_checked=checked,
                violations=violations,
                dead_routes=dead,
            )
            if not result.healthy:
                _PROBE_VIOLATIONS.inc()
            span.set(healthy=result.healthy, violations=len(violations),
                     dead_routes=len(dead))
            self._last_plane = plane
        return result

    def _dead_next_hops_scoped(self, plane, applied):
        """The convergence sweep, scoped to what ``applied`` can have moved.

        A router's dead set depends on its FIB and on the configs of the
        devices sharing its egress segments, so the sweep recomputes only
        routers that are applied, segment-adjacent to an applied device, or
        whose FIB object is no longer the baseline's; everything else
        reuses its baseline per-device set. Falls back to a full sweep when
        the segment table itself was rebuilt (adjacency may have moved).
        """
        base = self.baseline_plane
        if (
            self._baseline_dead_by_device is None
            or plane.segments is not base.segments
        ):
            return self._dead_next_hops(plane)
        tainted = set(applied)
        for segment in plane.segments:
            members = set(segment.devices()) | segment.switches
            if applied & members:
                tainted |= members
        base_fibs = base.artifacts.fibs
        fibs = plane.artifacts.fibs
        dead = set()
        for device in plane.network.routers():
            if (
                device not in tainted
                and fibs.get(device) is base_fibs.get(device)
            ):
                dead.update(self._baseline_dead_by_device.get(device, ()))
            else:
                dead.update(self._dead_for_device(plane, device))
        return frozenset(dead)

    @classmethod
    def _dead_next_hops(cls, plane):
        """Routes whose next hop no live endpoint owns (convergence check).

        Pre-existing dead routes on the baseline are subtracted by the
        caller, so only deadness a wave *introduced* fails a probe.
        """
        dead = set()
        for device in plane.network.routers():
            dead.update(cls._dead_for_device(plane, device))
        return frozenset(dead)

    @staticmethod
    def _dead_for_device(plane, device):
        """One router's dead next hops, memoized on the compile artifacts.

        The set is a pure function of the snapshot content, so it lives in
        ``artifacts.dead_memo`` keyed by device — every plane rebound from
        the same fingerprint (repeated probes of one mixed-version state,
        re-probes after resume) reuses it.
        """
        memo = plane.artifacts.dead_memo
        cached = memo.get(device)
        if cached is not None:
            return cached
        dead = set()
        for route in plane.fib(device).routes():
            if route.next_hop is None:
                continue
            resolved = plane.resolve_next_hop(
                device, route.out_interface, route.next_hop
            )
            if resolved is None:
                dead.add(f"{device}: {route.prefix} via {route.next_hop}")
        dead = frozenset(dead)
        memo[device] = dead
        return dead


def _seed_probe_traces(source_plane, plane):
    """Copy still-valid cached traces from one plane's artifacts to another.

    Forwarding traces are pure functions of the snapshot; a trace stays
    valid when nothing it depends on changed between the planes: the
    segment table is the identical object, every device on its path kept
    both its config fingerprint and its FIB object, and no changed device
    sits on a segment any path device touches (next-hop resolution reads
    neighbouring endpoints' forwarding-index rows). Traces keyed with an
    implicit start (``start_device=None``) are skipped — their owner
    resolution is global, not per-path.
    """
    base_art = source_plane.artifacts
    art = plane.artifacts
    if (
        art is base_art
        or art.trace_cache or not base_art.trace_cache
        or plane.segments is not source_plane.segments
    ):
        return
    base_fps = base_art.device_fingerprints
    changed = {
        device for device, fp in art.device_fingerprints.items()
        if base_fps.get(device) != fp
    }
    tainted = set(changed)
    for segment in plane.segments:
        members = set(segment.devices()) | segment.switches
        if changed & members:
            tainted |= members
    base_fibs = base_art.fibs
    fibs = art.fibs
    seeded = []
    for key, trace in base_art.trace_cache.items():
        _flow, start_device = key
        if start_device is None:
            continue
        path = trace.path()
        if tainted.isdisjoint(path) and all(
            fibs.get(device) is base_fibs.get(device) for device in path
        ):
            seeded.append((key, trace))
    if seeded:
        with art.trace_lock:
            for key, trace in seeded:
                art.trace_cache.setdefault(key, trace)


class CircuitBreaker:
    """Per-device transient-failure budget for one push.

    Every :class:`~repro.util.errors.TransientDeviceError` a device throws
    (across all waves and retries of the push) counts against its
    ``budget``; once spent, the breaker is *open* for that device and
    further applies must not be attempted — the scheduler raises
    :class:`~repro.util.errors.CircuitOpenError`, which is not retryable,
    so the wave fails fast and quarantines the device.
    """

    def __init__(self, budget=3):
        self.budget = max(1, budget)
        self.failures = {}  # device -> transient failures seen so far
        self.open_devices = set()

    def record(self, device):
        """Count one transient failure; returns True when this trip opened
        the device's breaker."""
        count = self.failures.get(device, 0) + 1
        self.failures[device] = count
        if count >= self.budget and device not in self.open_devices:
            self.open_devices.add(device)
            _BREAKER_TRIPS.inc()
            return True
        return False

    def tripped(self, device):
        return device in self.open_devices


def quarantine_devices(journal, devices, reason):
    """Mark ``devices`` quarantined in the journal (metric included)."""
    for device in devices:
        journal.mark_quarantine(device, reason)
        _QUARANTINED.inc()


def record_committed_wave():
    """Count one healthy, committed wave."""
    _WAVES.inc()


def record_parallel_probes(count):
    """Count ``count`` probes dispatched concurrently in one wave group."""
    if count:
        _PROBE_PARALLEL.inc(count)
