"""Change verification: the gate between twin output and production.

Deferred verification (the paper's choice over per-action checking): the
verifier sees only the final semantic change set, checks every change
against the Privilege_msp, simulates the changes on a copy of production,
and re-verifies the network policies. A change set is approved only when it
introduces no privilege violation and no *new* policy violation (policies
already broken in production — e.g. the ticket's own fault — don't block
the fix that repairs them).

Verification rides the incremental compile pipeline by default: the
production plane comes from the process-wide compile cache (so repeated
tickets against the same production snapshot compile it once and share its
traces), the candidate plane is built incrementally against production
reusing every artifact the change set cannot have touched, and cached
production traces that provably avoid the changed devices are pre-seeded
into the candidate so neither the policy sweep nor the impact analysis
re-traces them. Pass ``incremental=False`` to force from-scratch compiles
(the benchmarks use this as the cold baseline).
"""

from dataclasses import dataclass, field

from repro.config.apply import apply_changes
from repro.control.builder import build_dataplane
from repro.dataplane.differential import diff_reachability, seed_unaffected_traces
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.policy.verification import PolicyVerifier

_VERIFICATIONS = obs_metrics.counter(
    "enforcer.verifications", unit="verifications",
    help="full change-set verification passes",
)
_APPROVED = obs_metrics.counter(
    "enforcer.approved", unit="verifications",
    help="verification passes that approved the change set",
)
_REJECTED = obs_metrics.counter(
    "enforcer.rejected", unit="verifications",
    help="verification passes that rejected the change set",
)
_TRACES_SEEDED = obs_metrics.counter(
    "enforcer.traces.seeded", unit="traces",
    help="cached production traces proven valid and reused on the candidate",
)


@dataclass
class EnforcementDecision:
    """The verifier's verdict on one change set."""

    changes: list
    privilege_violations: list = field(default_factory=list)
    new_policy_violations: list = field(default_factory=list)
    preexisting_violations: list = field(default_factory=list)
    baseline_report: object = None  # production's policy state pre-change
    candidate_report: object = None
    impact: object = None  # ReachabilityDiff: the change set's blast radius
    push_report: object = None  # PushReport once the import ran (or rolled back)
    # Quorum-approval outcome (None unless the deployment runs approvals):
    # the RiskAssessment that scored the change set, and the
    # ApprovalRequest when the score crossed the high-risk threshold. An
    # approved decision whose approval was denied is never pushed.
    risk: object = None
    approval: object = None

    def invariant_policy_ids(self):
        """Policies holding both before and after the full change set.

        These are the **rollout invariants**: policies no intermediate
        wave of a staged push is supposed to disturb, so the post-wave
        health probes check exactly this set against each mixed-version
        dataplane. Policies the change set itself (correctly) flips —
        the ticket's own fix — are excluded by construction.
        """
        if self.baseline_report is None or self.candidate_report is None:
            return ()
        before = {
            r.policy.policy_id for r in self.baseline_report.results if r.holds
        }
        after = {
            r.policy.policy_id for r in self.candidate_report.results if r.holds
        }
        return tuple(sorted(before & after))

    @property
    def approved(self):
        return not self.privilege_violations and not self.new_policy_violations

    def summary(self):
        if self.approved:
            return (
                f"approved: {len(self.changes)} changes, "
                f"{len(self.preexisting_violations)} pre-existing violations "
                f"remain"
            )
        return (
            f"REJECTED: {len(self.privilege_violations)} privilege violations, "
            f"{len(self.new_policy_violations)} new policy violations"
        )


class ChangeVerifier:
    """Verifies change sets against a Privilege_msp and network policies."""

    def __init__(self, policies, privilege_spec=None, incremental=True,
                 max_workers=None, verify_workers=None):
        self.policy_verifier = PolicyVerifier(policies, max_workers=max_workers)
        self.privilege_spec = privilege_spec
        self.incremental = incremental
        # Mega-network escape hatch: route the two policy sweeps through
        # the process-sharded verifier instead of the in-process one. Off
        # (None) by default — forking only pays for generated-scale policy
        # sets; see docs/SCALING.md.
        self.verify_workers = verify_workers

    def _verify_policies(self, dataplane):
        if self.verify_workers is None:
            return self.policy_verifier.verify_dataplane(dataplane)
        from repro.control.shard import sharded_verify

        return sharded_verify(
            self.policy_verifier.policies, dataplane,
            workers=self.verify_workers,
        )

    @property
    def constraint_count(self):
        """How many constraints one verification pass checks (timing driver)."""
        return len(self.policy_verifier)

    def check_privileges(self, changes):
        """Changes the Privilege_msp forbids (empty when no spec is set)."""
        if self.privilege_spec is None:
            return []
        violations = []
        for change in changes:
            resource = (
                f"{change.device}:{change.path}" if change.path else change.device
            )
            if not self.privilege_spec.allows(change.action, resource):
                violations.append(change)
        return violations

    def simulate(self, production, changes):
        """A copy of production with ``changes`` applied."""
        candidate = production.copy()
        apply_changes(candidate.configs, changes)
        return candidate

    def verify(self, production, changes):
        """Full verification; returns an :class:`EnforcementDecision`.

        Besides the policy verdict, the decision carries an **impact
        analysis** (differential reachability between production and the
        simulated candidate) so reviewers see collateral effects on flows
        no policy covers.

        Args:
            production: the live :class:`~repro.net.network.Network` the
                changes would be imported into (never mutated here).
            changes: the semantic change set the twin emitted
                (:class:`~repro.config.diffing.ConfigChange` list).

        Returns:
            An :class:`EnforcementDecision`; ``decision.approved`` is the
            import verdict.
        """
        changes = list(changes)
        with obs_trace.span(
            "enforcer.verify", changes=len(changes),
            incremental=self.incremental,
        ) as vspan:
            decision = EnforcementDecision(changes=changes)
            with obs_trace.span("enforcer.privileges"):
                decision.privilege_violations = self.check_privileges(changes)

            with obs_trace.span("enforcer.compile.production"):
                production_dataplane = build_dataplane(
                    production, use_cache=self.incremental
                )
            with obs_trace.span("enforcer.policy.baseline"):
                baseline_report = self._verify_policies(production_dataplane)
            decision.baseline_report = baseline_report
            already_broken = {
                result.policy.policy_id
                for result in baseline_report.violations
            }

            with obs_trace.span("enforcer.compile.candidate") as cspan:
                if self.incremental:
                    # The change set is authoritative here (we build the
                    # candidate from it ourselves), so the copy can share
                    # unchanged config objects and fingerprinting can skip
                    # re-hashing them.
                    changed = {change.device for change in changes}
                    candidate = production.copy_except(changed)
                    apply_changes(candidate.configs, changes)
                    candidate_dataplane = build_dataplane(
                        candidate,
                        baseline=production_dataplane,
                        same_except=changed,
                    )
                    seeded = seed_unaffected_traces(
                        production_dataplane, candidate_dataplane
                    )
                    _TRACES_SEEDED.inc(seeded)
                    cspan.set(seeded_traces=seeded)
                else:
                    candidate = self.simulate(production, changes)
                    candidate_dataplane = build_dataplane(
                        candidate, use_cache=False
                    )
            with obs_trace.span("enforcer.policy.candidate"):
                decision.candidate_report = self._verify_policies(
                    candidate_dataplane
                )
            with obs_trace.span("enforcer.impact"):
                decision.impact = diff_reachability(
                    production_dataplane, candidate_dataplane
                )
            for result in decision.candidate_report.violations:
                if result.policy.policy_id in already_broken:
                    decision.preexisting_violations.append(result)
                else:
                    decision.new_policy_violations.append(result)

            _VERIFICATIONS.inc()
            (_APPROVED if decision.approved else _REJECTED).inc()
            vspan.set(approved=decision.approved)
        return decision
