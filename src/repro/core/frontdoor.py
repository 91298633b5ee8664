"""The multi-tenant admission front door over per-org session managers.

One Heimdall-as-a-service deployment serves many customer orgs. Each org
gets a fully isolated deployment — its own production network, policies,
enclave, clock, audit chain(s), approvals coordinator, and
:class:`~repro.core.sessions.SessionManager` — and the front door is the
only shared surface. Admission is **overload-safe by construction**:

* every request first resolves its org in the
  :class:`~repro.core.tenancy.TenantRegistry` and presents a capability
  token to that org's :class:`~repro.core.tenancy.TokenAuthority` (both
  fail closed);
* a per-org **token bucket** (``rate_per_s``/``burst``, refilled from the
  org's simulated clock) and an optional total-admissions **quota** bound
  the request rate;
* admitted work parks in a per-org **bounded queue** and runs on the
  org's own **bulkhead worker pool** — one tenant's storm can fill only
  its own queue and burn only its own workers, never another tenant's;
* anything over a bound is **shed explicitly** with
  :class:`~repro.util.errors.FrontDoorOverloadError` carrying a
  retry-after hint, instead of queueing into unbounded latency.

The front door is the only multi-tenant entry point: construct it from
:class:`~repro.core.tenancy.TenantSpec` objects, and it builds one
single-network :class:`~repro.core.heimdall.Heimdall` per org.
"""

import queue as queue_module
import threading

from repro import faults
from repro.core.heimdall import Heimdall
from repro.core.sessions import SessionManager
from repro.core.tenancy import TenantRegistry, TokenAuthority
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.util.clock import monotonic_s
from repro.util.errors import (
    FrontDoorError,
    FrontDoorOverloadError,
    NoisyNeighborError,
    ReproError,
)

_ADMITTED = obs_metrics.counter(
    "frontdoor.admitted", unit="requests",
    help="requests that passed registry, token, rate, and queue gates "
         "and were enqueued on their org's bulkhead",
)
_SHED = obs_metrics.counter(
    "frontdoor.shed", unit="requests",
    help="requests refused with FrontDoorOverloadError (rate limit, "
         "quota, or bounded queue full) instead of queueing unboundedly",
)
_QUEUE_DEPTH = obs_metrics.gauge(
    "frontdoor.queue.depth", unit="requests",
    help="admitted requests currently parked across all tenant queues",
)
_QUEUE_WAIT_MS = obs_metrics.histogram(
    "frontdoor.queue.wait.ms", unit="ms",
    help="wall-clock milliseconds an admitted request waited in its "
         "org's bounded queue before a bulkhead worker picked it up",
)

_FLOOD_FAULT = faults.fault_point(
    "frontdoor.queue.flood", error=FrontDoorOverloadError,
    help="a tenant's request flood hits the bounded-queue gate; the "
         "request is shed with an explicit retry-after instead of "
         "queueing unboundedly",
)
_NOISY_FAULT = faults.fault_point(
    "frontdoor.noisy.neighbor", error=NoisyNeighborError,
    help="one tenant's request storm drains that tenant's own token "
         "bucket; its later requests shed while every other tenant's "
         "admission stays unaffected (bulkhead isolation)",
)


class TokenBucket:
    """A deterministic token bucket refilled from the org's simulated clock.

    ``try_take`` never blocks: it either spends one token or reports
    exhaustion so the caller can shed with a retry-after hint. Refill is
    a pure function of the simulated clock, so admission decisions are
    reproducible run-to-run.
    """

    def __init__(self, rate_per_s, burst, clock):
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.clock = clock
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._stamp = clock.now

    def _refill(self):
        now = self.clock.now
        if now > self._stamp and self.rate_per_s > 0:
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._stamp) * self.rate_per_s,
            )
        self._stamp = now

    def try_take(self):
        with self._lock:
            self._refill()
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def retry_after_s(self):
        """Simulated seconds until one token is available (0 if now)."""
        with self._lock:
            self._refill()
            if self._tokens >= 1.0:
                return 0.0
            if self.rate_per_s <= 0:
                return float("inf")
            return (1.0 - self._tokens) / self.rate_per_s

    def drain(self):
        """Spend every token (the injected noisy-neighbor storm)."""
        with self._lock:
            self._refill()
            self._tokens = 0.0


class Admission:
    """One admitted request's future result."""

    def __init__(self, org_id, label):
        self.org_id = org_id
        self.label = label
        self.enqueued_at = monotonic_s()
        self._done = threading.Event()
        self._result = None
        self._error = None

    def _finish(self, result=None, error=None):
        self._result = result
        self._error = error
        self._done.set()

    @property
    def done(self):
        return self._done.is_set()

    def result(self, timeout_s=120.0):
        """Block for the worker's result; re-raises the work's error."""
        if not self._done.wait(timeout_s):
            raise FrontDoorError(
                f"{self.org_id}/{self.label}: no result within "
                f"{timeout_s:g}s"
            )
        if self._error is not None:
            raise self._error
        return self._result


class Tenant:
    """One org's isolated deployment plus its admission machinery."""

    def __init__(self, spec, heimdall, manager, authority):
        self.spec = spec
        self.heimdall = heimdall
        self.manager = manager
        self.authority = authority
        self.queue = queue_module.Queue(maxsize=spec.queue_limit)
        self.bucket = TokenBucket(
            spec.rate_per_s, spec.burst, heimdall.clock
        )
        self._lock = threading.Lock()
        self.admitted = 0
        self.shed = 0
        self.workers = []

    @property
    def org_id(self):
        return self.spec.org_id


class FrontDoor:
    """Admission control in front of N isolated per-org deployments.

    Args:
        tenants: :class:`~repro.core.tenancy.TenantSpec` per org.
        on_stale: forwarded to each org's
            :class:`~repro.core.sessions.SessionManager`.
        approvals: an :class:`~repro.core.approvals.ApprovalConfig`
            applied to every org (high-risk quorum gate + break-glass
            elevation), or ``None``.
        audit_replicas / audit_quorum: per-org replicated audit trail
            knobs (chains are keyed per org either way).
    """

    def __init__(self, tenants, on_stale="rebase", approvals=None,
                 audit_replicas=0, audit_quorum=None):
        specs = list(tenants)
        if not specs:
            raise FrontDoorError("front door needs at least one tenant")
        self.registry = TenantRegistry()
        self._tenants = []
        self._depth_lock = threading.Lock()
        self._depth = 0
        self._closed = False
        for spec in specs:
            heimdall = Heimdall(
                spec.network, policies=spec.policies, org_id=spec.org_id,
                approvals=approvals, audit_replicas=audit_replicas,
                audit_quorum=audit_quorum,
            )
            manager = SessionManager(heimdall, on_stale=on_stale)
            authority = TokenAuthority(
                spec.org_id, heimdall.enclave, heimdall.clock,
                audit=heimdall.audit, ttl_s=spec.token_ttl_s,
            )
            tenant = Tenant(spec, heimdall, manager, authority)
            self.registry.add(spec.org_id, tenant)
            self._tenants.append(tenant)
        for tenant in self._tenants:
            for index in range(tenant.spec.workers):
                worker = threading.Thread(
                    target=self._worker, args=(tenant,),
                    name=f"frontdoor-{tenant.org_id}-{index}", daemon=True,
                )
                tenant.workers.append(worker)
                worker.start()

    # -- operator plane --------------------------------------------------------

    def org_ids(self):
        return self.registry.org_ids()

    def deployment(self, org_id):
        """The org's :class:`Tenant` — the **service operator's** surface
        (benchmarks, chaos judges, ops tooling), not the technician's:
        technician access always goes through :meth:`admit` with a
        validated capability token."""
        return self.registry.require(org_id)

    def issue_token(self, org_id, subject, scopes=None):
        """Mint a capability token for a technician of ``org_id``."""
        tenant = self.registry.require(org_id)
        return tenant.authority.issue(
            subject,
            scopes if scopes is not None else tenant.spec.scopes,
        )

    def close(self):
        """Stop every bulkhead worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for tenant in self._tenants:
            for _ in tenant.workers:
                tenant.queue.put(None)
        for tenant in self._tenants:
            for worker in tenant.workers:
                worker.join()

    # -- admission -------------------------------------------------------------

    def admit(self, token, org_id, work, scope="session.open", label=""):
        """Admit ``work`` onto ``org_id``'s bulkhead — or refuse, typed.

        ``work`` is a callable of the org's session manager, executed by
        one of the org's own workers. The gates run in order: registry
        (fail-closed), capability token (deny-by-default, ``scope``
        required), quota, token bucket, bounded queue. Anything over a
        bound raises :class:`~repro.util.errors.FrontDoorOverloadError`
        with ``retry_after_s`` — the request is shed, never parked
        unboundedly.

        Returns:
            An :class:`Admission`; ``admission.result()`` blocks for the
            work's return value (or re-raises its error).
        """
        if self._closed:
            raise FrontDoorError("front door is closed")
        with obs_trace.span(
            "frontdoor.admit", org=org_id, label=label, scope=scope,
        ) as span:
            tenant = self.registry.require(org_id)
            tenant.authority.validate(
                token, scope, surface=f"admit:{label or scope}"
            )
            try:
                _NOISY_FAULT.fire(org=org_id)
            except NoisyNeighborError:
                # The storm drains the org's own token bucket: this
                # request (and the org's next ones, until the clock
                # refills) sheds at the rate gate below, while every
                # other org's admission budget is untouched.
                tenant.bucket.drain()
            with tenant._lock:
                quota = tenant.spec.quota
                over_quota = quota is not None and tenant.admitted >= quota
            if over_quota:
                self._shed(
                    tenant, span,
                    f"quota of {quota} admissions exhausted",
                    retry_after_s=None,
                )
            if not tenant.bucket.try_take():
                self._shed(
                    tenant, span, "rate limit exceeded",
                    retry_after_s=tenant.bucket.retry_after_s(),
                )
            try:
                _FLOOD_FAULT.fire(org=org_id)
            except FrontDoorOverloadError:
                self._shed(
                    tenant, span, "queue flood",
                    retry_after_s=self._queue_retry_after(tenant),
                )
            admission = Admission(org_id, label or scope)
            try:
                tenant.queue.put_nowait((admission, work))
            except queue_module.Full:
                self._shed(
                    tenant, span,
                    f"bounded queue full ({tenant.spec.queue_limit})",
                    retry_after_s=self._queue_retry_after(tenant),
                )
            with tenant._lock:
                tenant.admitted += 1
            with self._depth_lock:
                self._depth += 1
                _QUEUE_DEPTH.set(self._depth)
            _ADMITTED.inc()
            span.set(admitted=True)
        return admission

    def resolve_ticket(self, token, org_id, issue, script=None, label="",
                       **open_kwargs):
        """Admit a full open → fix → submit flow for ``issue``.

        Needs the ``session.submit`` scope (the flow imports changes).
        Returns the :class:`Admission` whose result is the
        :class:`~repro.core.sessions.SessionOutcome`.
        """
        fix_script = script if script is not None else issue.fix_script

        def work(manager):
            session = manager.open_ticket(issue, **open_kwargs)
            try:
                session.run_fix_script(fix_script)
            except ReproError:
                session.abandon("fix script failed")
                raise
            return session.submit()

        return self.admit(
            token, org_id, work, scope="session.submit",
            label=label or issue.issue_id,
        )

    # -- token-gated read surfaces ---------------------------------------------

    def audit_export(self, token, org_id):
        """The org's audit export — ``audit.read`` scope required."""
        tenant = self.registry.require(org_id)
        tenant.authority.validate(token, "audit.read", surface="audit.export")
        return tenant.heimdall.audit.export()

    def audit_verify(self, token, org_id):
        """Whether the org's audit chain(s) verify — ``audit.read`` scope."""
        tenant = self.registry.require(org_id)
        tenant.authority.validate(token, "audit.read", surface="audit.verify")
        return tenant.heimdall.audit.verify()

    def push_progress(self, token, org_id, session_id=None):
        """The org's wave-granular push progress — ``session.open`` scope."""
        tenant = self.registry.require(org_id)
        tenant.authority.validate(
            token, "session.open", surface="push.progress"
        )
        return tenant.manager.push_progress(session_id)

    # -- internals -------------------------------------------------------------

    def _shed(self, tenant, span, reason, retry_after_s):
        _SHED.inc()
        with tenant._lock:
            tenant.shed += 1
        span.set(shed=True, reason=reason)
        retry = (
            "" if retry_after_s is None
            else f"; retry after {retry_after_s:g}s"
        )
        raise FrontDoorOverloadError(
            f"{tenant.org_id}: load shed ({reason}){retry}",
            retry_after_s=retry_after_s,
        )

    def _queue_retry_after(self, tenant):
        depth = tenant.queue.qsize()
        rate = max(tenant.spec.rate_per_s, 1.0)
        return max(1.0, depth / rate)

    def _worker(self, tenant):
        while True:
            job = tenant.queue.get()
            if job is None:
                return
            admission, work = job
            with self._depth_lock:
                self._depth -= 1
                _QUEUE_DEPTH.set(self._depth)
            _QUEUE_WAIT_MS.observe(
                (monotonic_s() - admission.enqueued_at) * 1000.0
            )
            with obs_trace.span(
                "frontdoor.request", org=tenant.org_id,
                label=admission.label,
            ) as span:
                try:
                    admission._finish(result=work(tenant.manager))
                    span.set(ok=True)
                except Exception as exc:
                    span.set(ok=False, error=type(exc).__name__)
                    admission._finish(error=exc)
