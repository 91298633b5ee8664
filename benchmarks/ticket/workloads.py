"""The four seeded ticket workloads and the closed-loop ticket runner.

Every input a ticket needs — which fault, on which LAN, which commands, in
which order — is drawn from ``random.Random(f"{seed}:{name}:{k}")`` for
ticket ``k`` while preparing it, before its clock starts. Heimdall only ever
sees those prepared inputs, through its public API:
``Heimdall.open_ticket`` -> ``TicketSession.execute`` -> ``submit``.
"""

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro import Heimdall
from repro.faults.adversary import generate_attacks
from repro.policy.mining import mine_policies
from repro.scenarios.enterprise import build_enterprise_network
from repro.scenarios.generate import generate_scenario
from repro.scenarios.issues import FixStep, Issue, standard_issues
from repro.scenarios.university import build_university_network
from repro.util.errors import PrivilegeError

WARMUP_TICKETS = 3


@dataclass
class Expect:
    """The outcome a ticket must reach to count as passed.

    ``approved``/``resolved`` of ``None`` are not checked; ``denied_max`` of
    ``None`` leaves the monitor-denial count unbounded above.
    """

    committed: bool = True
    approved: bool = True
    resolved: bool = True
    denied_min: int = 0
    denied_max: int = 0

    def misses(self, outcome, refused, escalations):
        """Reasons ``outcome`` missed this expectation (empty when passed)."""
        report = outcome.decision.push_report
        committed = bool(
            outcome.changes and report is not None and report.committed
        )
        reasons = []
        if committed != self.committed:
            reasons.append(f"committed={committed}")
        if self.approved is not None and outcome.approved != self.approved:
            reasons.append(f"approved={outcome.approved}")
        if self.resolved is not None and outcome.resolved != self.resolved:
            reasons.append(f"resolved={outcome.resolved}")
        if outcome.denied_commands < self.denied_min or (
            self.denied_max is not None
            and outcome.denied_commands > self.denied_max
        ):
            reasons.append(f"denied={outcome.denied_commands}")
        if refused != escalations:
            reasons.append(f"refused {refused}/{escalations} escalations")
        return reasons


@dataclass
class Ticket:
    """One prepared ticket."""

    heimdall: object
    issue: object
    commands: list  # (device, command line)
    expect: Expect = field(default_factory=Expect)
    open_kwargs: dict = field(default_factory=dict)
    escalations: tuple = ()
    # Fresh-copy workloads own one Heimdall per ticket and verify its audit
    # chain right after the ticket; a persistent deployment is verified once,
    # by its workload's finish().
    verify_audit: bool = True


@dataclass
class TicketRun:
    """Timings and verdict of one ticket."""

    ticket_ms: float
    open_ms: float
    submit_ms: float
    command_ms: list
    misses: list


def run_ticket(ticket, ticket_id, tracer=None):
    """Drive one ticket end to end; the clock covers open_ticket..submit."""
    clock = time.perf_counter
    command_ms = []
    refused = 0
    span = tracer.ticket(ticket_id) if tracer is not None else nullcontext()
    with span:
        start = clock()
        session = ticket.heimdall.open_ticket(ticket.issue, **ticket.open_kwargs)
        opened = clock()
        for device, command in ticket.commands:
            before = clock()
            session.execute(device, command)
            command_ms.append((clock() - before) * 1000.0)
        for profile in ticket.escalations:
            try:
                session.request_escalation(profile, "benchmark probe")
            except PrivilegeError:
                refused += 1
        submitting = clock()
        outcome = session.submit()
        end = clock()
    misses = ticket.expect.misses(outcome, refused, len(ticket.escalations))
    if ticket.verify_audit and not ticket.heimdall.audit.verify():
        misses.append("audit chain broken")
    return TicketRun(
        ticket_ms=(end - start) * 1000.0,
        open_ms=(opened - start) * 1000.0,
        submit_ms=(end - submitting) * 1000.0,
        command_ms=command_ms,
        misses=misses,
    )


def _script(fix_script):
    return [(step.device, command) for step in fix_script
            for command in step.commands]


class Workload:
    """Base: set-up (including warm-up tickets) and per-ticket preparation."""

    name = ""

    def __init__(self, seed):
        self.seed = seed

    def rng(self, k):
        return random.Random(f"{self.seed}:{self.name}:{k}")

    def setup(self):
        """Build inputs and deployment, then run the untimed warm-up tickets."""
        self.build()
        for k in range(-WARMUP_TICKETS, 0):
            run = run_ticket(self.ticket(k), k)
            if run.misses:
                raise RuntimeError(
                    f"{self.name} warm-up ticket {k} missed: {run.misses}"
                )

    def build(self):
        raise NotImplementedError

    def ticket(self, k):
        raise NotImplementedError

    def finish(self):
        """Workload-level problems found after the last ticket."""
        return []


class UniversityTickets(Workload):
    """The standard ospf/isp/vlan tickets in seeded round-robin order, each
    on a fresh copy of pristine production with its own deployment."""

    name = "university-tickets"

    def build(self):
        self.pristine = build_university_network()
        self.policies = mine_policies(self.pristine)
        self.issues = standard_issues("university")
        self.order = random.Random(f"{self.seed}:{self.name}").sample(
            sorted(self.issues), len(self.issues)
        )

    def fresh(self, k):
        """A fresh copy of pristine production with ticket ``k``'s fault."""
        issue = self.issues[self.order[k % len(self.order)]]
        production = self.pristine.copy()
        issue.inject(production)
        return issue, Heimdall(production, policies=self.policies)

    def ticket(self, k):
        issue, heimdall = self.fresh(k)
        return Ticket(heimdall, issue, _script(issue.fix_script))


class ConsoleUniversity(UniversityTickets):
    """Long debug sessions: 25 command loops of 12, then the real fix.

    Each loop edits one element inside the ticket's task profile (a static
    route on a router, a VLAN on a switch), pings so the emulation rebuilds
    its data plane incrementally, runs two show commands against that
    plane, reverts the edit, runs two more show commands, and sends one
    out-of-profile ``reload`` that the monitor must deny. Show order within
    each pair is seeded. Only the ping rebuilds the plane: the shows that
    read it run before the revert dirties it again.

    A ticket toggles three seeded elements in turn: the first ping after
    each compiles, later ones find the plane in the compile cache. Distinct
    elements in every loop would push ~25 twin states per ticket through
    the 64-entry compile cache and evict production's planes, making
    open/submit latency depend on eviction order rather than on the code.
    """

    name = "console-university"
    LOOPS = 25
    ELEMENTS = 3
    PROBE = "reload"  # system.reboot: no task profile grants it

    def build(self):
        super().build()
        self.plans = {
            issue_id: self._plan(issue)
            for issue_id, issue in self.issues.items()
        }

    def _plan(self, issue):
        production = self.pristine
        plan = {
            "edit_device": issue.root_cause_device,
            "target": str(production.host_address(issue.dst_host)),
        }
        if issue.root_cause_device in production.routers():
            iface = next(
                iface for iface in production.config(
                    issue.root_cause_device
                ).routed_interfaces()
                if not iface.shutdown
            )
            next_hop = next(
                host for host in iface.address.network.hosts()
                if host != iface.address.ip
            )
            route = f"ip route 10.99.{{i}}.0 255.255.255.0 {next_hop}"
            return {
                **plan,
                "ping_device": issue.root_cause_device,
                "edit": route,
                "revert": f"no {route}",
                "before": ("show ip route", "show ip ospf neighbor"),
                "after": ("show interfaces", "show ip interface brief"),
            }
        return {
            **plan,
            "ping_device": next(
                step.device for step in issue.fix_script
                if step.device in production.routers()
            ),
            "edit": "vlan {i}",
            "revert": "no vlan {i}",
            "before": ("show vlan", "show interfaces"),
            "after": ("show running-config", "show version"),
        }

    def ticket(self, k):
        issue, heimdall = self.fresh(k)
        plan = self.plans[issue.issue_id]
        rng = self.rng(k)
        elements = rng.sample(range(2, 252), self.ELEMENTS)
        device = plan["edit_device"]
        commands = []
        for loop in range(self.LOOPS):
            i = elements[loop % self.ELEMENTS]
            before = rng.sample(plan["before"], len(plan["before"]))
            after = rng.sample(plan["after"], len(plan["after"]))
            commands += [
                (device, "configure terminal"),
                (device, plan["edit"].format(i=i)),
                (device, "end"),
                (plan["ping_device"], f"ping {plan['target']}"),
                *((device, show) for show in before),
                (device, "configure terminal"),
                (device, plan["revert"].format(i=i)),
                (device, "end"),
                *((device, show) for show in after),
                (device, self.PROBE),
            ]
        commands += _script(issue.fix_script)
        return Ticket(
            heimdall, issue, commands,
            expect=Expect(denied_min=self.LOOPS, denied_max=self.LOOPS),
        )


class EstateTickets(Workload):
    """A persistent generated hub-spoke estate whose production drifts.

    Before each ticket a seeded maintenance edit (an interface description)
    lands on production, so production's compile and trace caches miss,
    then a seeded gateway-down or wrong-access-VLAN fault is injected on a
    seeded LAN. The technician checks the LAN's router and switch, applies
    the fix, and checks them again.

    Fault kinds cycle gateway-down, gateway-down, wrong-VLAN. The kinds
    differ in scope size (~43 vs 14 devices) and hence in open and
    per-command cost; with an even mix every per-phase median would sit
    on the seam between the two populations.
    """

    name = "estate-tickets"
    # 60 devices (49 hosts, 2352 probed pairs) keeps >= 100 tickets inside
    # one 25 s run on a 2-core host; at 120 devices a ticket takes ~0.55 s.
    SHAPE, SIZE = "hub-spoke", 60

    def build(self):
        self.scenario = generate_scenario(self.SHAPE, self.SIZE, self.seed)
        production = self.scenario.network
        self.heimdall = Heimdall(production, policies=self.scenario.policies)
        self.maintained = sorted(production.routers() + production.switches())

    def ticket(self, k):
        rng = self.rng(k)
        production = self.heimdall.production
        config = production.config(rng.choice(self.maintained))
        iface = rng.choice(sorted(config.interfaces))
        config.interface(iface).description = f"maintenance {self.seed}:{k}"

        lans = self.scenario.lans
        lan = rng.choice(lans)
        if k % 3 != 2:
            remote_lan = rng.choice([
                other for other in lans
                if other is not lan
                and not (other.tag == "guest" and lan.tag == "secure")
            ])
            issue = _gateway_down(
                lan, rng.choice(remote_lan.hosts)[0], rng.choice(lan.hosts)[0]
            )
        else:
            victim, _ip, port = rng.choice(lan.hosts)
            peer = rng.choice([h for h, _ip, _p in lan.hosts if h != victim])
            issue = _wrong_access_vlan(lan, victim, peer, port)
        issue.inject(production)
        checks = [(lan.router, "show interfaces"), (lan.switch, "show vlan")]
        return Ticket(
            self.heimdall, issue, checks + _script(issue.fix_script) + checks,
            verify_audit=False,
        )

    def finish(self):
        return [] if self.heimdall.audit.verify() else ["audit chain broken"]


def _gateway_down(lan, remote, local):
    def inject(network):
        network.config(lan.router).interface(lan.router_iface).shutdown = True

    return Issue(
        issue_id=f"ifdown:{lan.router}:{lan.router_iface}",
        title=f"Gateway interface down on {lan.router}",
        description=f"{remote} cannot reach {local}.",
        src_host=remote,
        dst_host=local,
        root_cause_device=lan.router,
        complexity="simple",
        fix_script=[FixStep(lan.router, (
            "configure terminal",
            f"interface {lan.router_iface}",
            "no shutdown",
            "end",
            "write memory",
        ))],
        _inject=inject,
    )


def _wrong_access_vlan(lan, victim, peer, port):
    def inject(network):
        network.config(lan.switch).interface(port).access_vlan = lan.vlan_id + 10

    return Issue(
        issue_id=f"vlan:{lan.switch}:{port}",
        title=f"Access port in the wrong VLAN on {lan.switch}",
        description=f"{victim} lost connectivity to {peer}.",
        src_host=victim,
        dst_host=peer,
        root_cause_device=lan.switch,
        complexity="complex",
        fix_script=[FixStep(lan.switch, (
            "configure terminal",
            f"interface {port}",
            f"switchport access vlan {lan.vlan_id}",
            "end",
            "write memory",
        ))],
        _inject=inject,
    )


class AttackEnterprise(Workload):
    """Adversarial cover tickets on fresh enterprise copies (the reject path).

    Ticket ``k`` runs attack ``k % 6`` of ``generate_attacks(seed + k // 6)``:
    the cover fix (when the attack keeps it), the attack script, then the
    escalation requests, each of which must be refused.
    """

    name = "attack-enterprise"

    def build(self):
        self.pristine = build_enterprise_network()
        self.policies = mine_policies(self.pristine)
        self.issues = standard_issues("enterprise")
        self._attacks = {}

    def attacks(self, block):
        if block not in self._attacks:
            self._attacks = {block: generate_attacks(self.seed + block)}
        return self._attacks[block]

    def ticket(self, k):
        attacks = self.attacks(k // 6)
        attack = attacks[k % len(attacks)]
        issue = self.issues[attack.cover_issue]
        production = self.pristine.copy()
        issue.inject(production)
        open_kwargs = {}
        if attack.profile:
            open_kwargs["profile"] = attack.profile
        if attack.exempt_devices:
            open_kwargs["exempt_devices"] = tuple(attack.exempt_devices)
        commands = _script(issue.fix_script) if attack.run_fix else []
        commands += _script(attack.script)
        return Ticket(
            Heimdall(production, policies=self.policies),
            issue,
            commands,
            expect=Expect(
                committed=attack.expect == "committed",
                approved=(
                    False if attack.expect_blocked_by == "verifier" else None
                ),
                resolved=None,
                denied_min=attack.min_denied,
                denied_max=None,
            ),
            open_kwargs=open_kwargs,
            escalations=tuple(attack.escalations),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        UniversityTickets, EstateTickets, AttackEnterprise, ConsoleUniversity,
    )
}
