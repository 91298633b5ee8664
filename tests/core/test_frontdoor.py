"""Multi-tenant front door (repro.core.frontdoor).

Admission mechanics run against tiny square-network tenants (the work
callables never touch the manager); the full open → fix → submit flow
runs once against real enterprise orgs to prove org-scoped session ids,
isolated audit chains, and cross-tenant refusal end to end.
"""

import threading

import pytest

from repro import faults, obs
from repro.core.frontdoor import FrontDoor, TokenBucket
from repro.core.tenancy import TenantSpec
from repro.faults.registry import Rule
from repro.util import rand
from repro.util.clock import SimulatedClock
from repro.util.errors import (
    CapabilityDeniedError,
    FrontDoorError,
    FrontDoorOverloadError,
    TenantIsolationError,
)

from tests.fixtures import square_network


@pytest.fixture(autouse=True)
def _obs_state():
    obs.enable()
    obs.reset()
    yield
    faults.disarm()
    rand.reset()
    obs.disable()
    obs.reset()


def counter(name):
    metric = obs.registry().get(name)
    return metric.value if metric is not None else 0


def spec(org_id="acme", **kwargs):
    kwargs.setdefault("network", square_network())
    return TenantSpec(org_id=org_id, **kwargs)


@pytest.fixture
def door():
    frontdoor = FrontDoor([spec("acme"), spec("blue")])
    yield frontdoor
    frontdoor.close()


class TestTokenBucket:
    def test_burst_then_exhaustion_then_clock_refill(self):
        clock = SimulatedClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=2, clock=clock)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        assert bucket.retry_after_s() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_take()

    def test_zero_rate_never_refills(self):
        clock = SimulatedClock()
        bucket = TokenBucket(rate_per_s=0.0, burst=1, clock=clock)
        assert bucket.try_take()
        clock.advance(3600.0)
        assert not bucket.try_take()
        assert bucket.retry_after_s() == float("inf")


class TestAdmission:
    def test_admitted_work_runs_on_the_org_bulkhead(self, door):
        token = door.issue_token("acme", "tech-1")
        admission = door.admit(
            token, "acme", lambda manager: "ran", label="job-0",
        )
        assert admission.result() == "ran"
        assert counter("frontdoor.admitted") == 1

    def test_work_errors_are_reraised_not_swallowed(self, door):
        token = door.issue_token("acme", "tech-1")

        def broken(manager):
            raise RuntimeError("fix script exploded")

        admission = door.admit(token, "acme", broken)
        with pytest.raises(RuntimeError, match="exploded"):
            admission.result()

    def test_unknown_org_fails_closed(self, door):
        token = door.issue_token("acme", "tech-1")
        with pytest.raises(TenantIsolationError, match="unknown org"):
            door.admit(token, "ghost", lambda manager: "never")

    def test_foreign_token_refused_and_victim_audited(self, door):
        stolen = door.issue_token("acme", "tech-1")
        with pytest.raises(TenantIsolationError) as excinfo:
            door.admit(stolen, "blue", lambda manager: "never")
        assert excinfo.value.org_id == "blue"
        assert excinfo.value.token_org == "acme"
        victim = door.deployment("blue").heimdall.audit
        (record,) = victim.query(action_prefix="tenancy.violation")
        assert not record.allowed
        assert victim.verify()

    def test_closed_door_admits_nothing(self):
        frontdoor = FrontDoor([spec("acme")])
        token = frontdoor.issue_token("acme", "tech-1")
        frontdoor.close()
        with pytest.raises(FrontDoorError, match="closed"):
            frontdoor.admit(token, "acme", lambda manager: "never")
        frontdoor.close()  # idempotent

    def test_needs_at_least_one_tenant(self):
        with pytest.raises(FrontDoorError):
            FrontDoor([])


class TestShedding:
    def test_bounded_queue_sheds_typed_with_retry_after(self):
        frontdoor = FrontDoor([
            spec("acme", queue_limit=1, workers=1, burst=8,
                 rate_per_s=1000.0),
        ])
        token = frontdoor.issue_token("acme", "tech-1")
        started = threading.Event()
        release = threading.Event()

        def blocked(manager):
            started.set()
            release.wait(30.0)
            return "done"

        # #1 occupies the single worker, #2 parks in the one queue slot,
        # #3 must shed — typed, with a retry-after hint.
        first = frontdoor.admit(token, "acme", blocked, label="job-0")
        assert started.wait(30.0)  # the worker holds #1, the queue is empty
        second = frontdoor.admit(
            token, "acme", lambda manager: "done", label="job-1",
        )
        with pytest.raises(FrontDoorOverloadError) as excinfo:
            frontdoor.admit(token, "acme", lambda manager: "never")
        assert "queue full" in str(excinfo.value)
        assert excinfo.value.retry_after_s >= 1.0
        release.set()
        assert first.result() == "done"
        assert second.result() == "done"
        assert counter("frontdoor.shed") == 1
        assert frontdoor.deployment("acme").shed == 1
        frontdoor.close()

    def test_rate_limit_sheds_until_the_clock_refills(self):
        frontdoor = FrontDoor([
            spec("acme", burst=1, rate_per_s=0.5, queue_limit=8),
        ])
        token = frontdoor.issue_token("acme", "tech-1")
        frontdoor.admit(token, "acme", lambda manager: "ran").result()
        with pytest.raises(FrontDoorOverloadError) as excinfo:
            frontdoor.admit(token, "acme", lambda manager: "never")
        assert "rate limit" in str(excinfo.value)
        assert excinfo.value.retry_after_s == pytest.approx(2.0)
        # The simulated clock refills deterministically.
        frontdoor.deployment("acme").heimdall.clock.advance(2.0)
        assert frontdoor.admit(
            token, "acme", lambda manager: "ran"
        ).result() == "ran"
        frontdoor.close()

    def test_quota_exhaustion_sheds_without_retry(self):
        frontdoor = FrontDoor([spec("acme", quota=1)])
        token = frontdoor.issue_token("acme", "tech-1")
        frontdoor.admit(token, "acme", lambda manager: "ran").result()
        with pytest.raises(FrontDoorOverloadError) as excinfo:
            frontdoor.admit(token, "acme", lambda manager: "never")
        assert "quota" in str(excinfo.value)
        assert excinfo.value.retry_after_s is None
        frontdoor.close()

    def test_noisy_neighbor_storm_stays_inside_its_bulkhead(self, door):
        acme = door.issue_token("acme", "tech-1")
        blue = door.issue_token("blue", "tech-2")
        faults.arm({"frontdoor.noisy.neighbor": Rule(nth=1)}, seed=7)
        # The storm drains acme's own bucket: the flagged request and the
        # org's next one both shed at the rate gate.
        with pytest.raises(FrontDoorOverloadError, match="rate limit"):
            door.admit(acme, "acme", lambda m: "never")
        faults.disarm()
        with pytest.raises(FrontDoorOverloadError, match="rate limit"):
            door.admit(acme, "acme", lambda m: "never")
        # blue's admission budget never noticed.
        assert door.admit(blue, "blue", lambda m: "ran").result() == "ran"
        assert door.deployment("blue").shed == 0

    def test_flood_fault_sheds_at_the_queue_gate(self, door):
        token = door.issue_token("acme", "tech-1")
        faults.arm({"frontdoor.queue.flood": Rule(nth=1)}, seed=7)
        with pytest.raises(FrontDoorOverloadError, match="queue flood"):
            door.admit(token, "acme", lambda manager: "never")


class TestReadSurfaces:
    def test_audit_read_scope_gates_export_and_verify(self, door):
        reader = door.issue_token("acme", "auditor")
        assert door.audit_verify(reader, "acme")
        assert door.audit_export(reader, "acme")
        narrow = door.issue_token("acme", "tech-1", scopes=("session.open",))
        with pytest.raises(CapabilityDeniedError):
            door.audit_export(narrow, "acme")
        with pytest.raises(CapabilityDeniedError):
            door.audit_verify(narrow, "acme")

    def test_cross_org_reads_are_violations(self, door):
        reader = door.issue_token("acme", "auditor")
        with pytest.raises(TenantIsolationError):
            door.audit_export(reader, "blue")
        with pytest.raises(TenantIsolationError):
            door.push_progress(reader, "blue", "SES-0001")


class TestHeimdallWiring:
    def test_org_scoped_deployments_are_fully_disjoint(self, door):
        acme = door.deployment("acme").heimdall
        blue = door.deployment("blue").heimdall
        assert acme.org_id == "acme" and blue.org_id == "blue"
        assert acme.production is not blue.production
        assert acme.enclave is not blue.enclave
        assert acme.audit is not blue.audit


class TestFullFlow:
    def test_resolve_ticket_end_to_end_with_org_scoped_sessions(self):
        from repro.policy.mining import mine_policies
        from repro.scenarios.enterprise import build_enterprise_network
        from repro.scenarios.issues import standard_issues

        policies = mine_policies(build_enterprise_network())
        productions = {
            org: build_enterprise_network() for org in ("acme", "blue")
        }
        issue = standard_issues("enterprise")["ospf"]
        issue.inject(productions["acme"])
        frontdoor = FrontDoor([
            spec(org, network=productions[org], policies=policies)
            for org in ("acme", "blue")
        ])
        token = frontdoor.issue_token("acme", "tech-1")
        outcome = frontdoor.resolve_ticket(
            token, "acme", issue, mode="optimistic",
        ).result()
        assert outcome.imported
        assert outcome.session_id.startswith("acme:SESSION-")
        assert not issue.is_broken(productions["acme"])
        # blue's deployment never heard about any of it.
        blue = frontdoor.deployment("blue").heimdall
        assert blue.audit.query(actor=outcome.session_id) == []
        frontdoor.close()
