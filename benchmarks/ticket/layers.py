"""Outside-in per-layer tracing for the ticket benchmark.

The program under test carries no benchmark spans of its own, so this module
records them from the outside: :meth:`Tracer.install` rebinds each layer's
public entry points (the ``repro.*`` module globals, class attributes and
dispatch-table entries that refer to them) to timing wrappers, and
:meth:`Tracer.restore` puts every original object back. Nothing under
``src/`` changes.

Spans live in memory as ``[name, start, end, parent, ticket]`` rows. A layer's
self time is each span's duration minus the time its direct child spans
cover; the benchmark's ticket root span is layer ``core.heimdall``, so its
self time is the ticket time no other layer claims. Execution is
single-threaded (one technician, Heimdall defaults), so spans nest strictly.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.control.cache import dataplane_cache

ROOT_LAYER = "core.heimdall"

# Marker attribute on every wrapper, naming the function it wraps; the
# restore pass also uses it to find wrappers that a module imported while
# tracing was on copied into its own globals.
_ORIGINAL = "_ticket_bench_original"


def _scope_devices(counts, args, result, frame):
    counts["core.twin.scoping.scope_devices"] += len(result)


def _twin_nodes(counts, args, result, frame):
    counts["core.twin.nodes"] += args[0].node_count()


def _spec_rules(counts, args, result, frame):
    counts["core.privilege.rules"] += len(result.rules)
    counts["core.privilege.specs"] += 1


def _monitor_denied(counts, args, result, frame):
    # The monitor appends exactly one decision per mediated command.
    counts["core.twin.monitor.denied"] += not args[0].decisions[-1].allowed


def _emulation_recompiled(counts, args, result, frame):
    # A cached plane returns without calling the builder.
    counts["emulation.recompiles"] += "control.builder" in frame.children


def _diff_changes(counts, args, result, frame):
    counts["config.diffing.changes"] += len(result)


def _verifier_approved(counts, args, result, frame):
    counts["core.enforcer.verifier.approved"] += result.approved


def _policy_count(counts, args, result, frame):
    counts["policy.verification.policies"] += len(result.results)


def _flows_probed(counts, args, result, frame):
    counts["dataplane.differential.flows_probed"] += result.probed


def _traces_seeded(counts, args, result, frame):
    counts["dataplane.differential.traces_seeded"] += result


# (layer, module, entry point, extra counter). An entry point is a module
# function (rebound in every repro module holding it), ``Class.method``, or
# ``TABLE[*]`` for every value of a module-level dispatch dict.
ENTRY_POINTS = (
    ("control.builder", "repro.control.builder", "build_dataplane", None),
    ("core.twin.scoping", "repro.core.twin.scoping", "SCOPING_STRATEGIES[*]",
     _scope_devices),
    ("core.twin", "repro.core.twin.twin", "TwinNetwork.__init__", _twin_nodes),
    ("core.privilege", "repro.core.privilege.generator",
     "generate_privilege_spec", _spec_rules),
    ("core.privilege", "repro.core.privilege.translator",
     "policy_guard_rules", None),
    ("core.twin.monitor", "repro.core.twin.monitor",
     "ReferenceMonitor.execute", _monitor_denied),
    ("emulation", "repro.emulation.console", "Console.execute", None),
    ("emulation", "repro.emulation.network", "EmulatedNetwork.dataplane",
     _emulation_recompiled),
    ("core.enforcer.audit", "repro.core.enforcer.audit", "AuditTrail.record",
     None),
    ("config.diffing", "repro.config.diffing", "diff_networks",
     _diff_changes),
    ("core.enforcer.verifier", "repro.core.enforcer.verifier",
     "ChangeVerifier.verify", _verifier_approved),
    ("policy.verification", "repro.policy.verification",
     "PolicyVerifier.verify_dataplane", _policy_count),
    ("dataplane.differential", "repro.dataplane.differential",
     "diff_reachability", _flows_probed),
    ("dataplane.differential", "repro.dataplane.differential",
     "seed_unaffected_traces", _traces_seeded),
    ("dataplane.forwarding", "repro.dataplane.forwarding", "trace_flow",
     None),
    ("core.enforcer.scheduler", "repro.core.enforcer.scheduler",
     "ChangeScheduler.push", None),
    ("scenarios.issues", "repro.scenarios.issues", "Issue.is_resolved", None),
)

LAYERS = tuple(dict.fromkeys(
    [layer for layer, *_ in ENTRY_POINTS] + [ROOT_LAYER]
))

# Per-layer metric name -> unit. Counts and self times are per ticket;
# sizes (devices, nodes, rules, policies, changes) are means per call.
LAYER_METRICS = {
    "control.builder.calls": "count/ticket",
    "control.builder.compiles": "count/ticket",
    "control.builder.hit_ratio": "ratio",
    "control.builder.self_ms": "ms/ticket",
    "core.twin.scoping.calls": "count/ticket",
    "core.twin.scoping.self_ms": "ms/ticket",
    "core.twin.scoping.scope_devices": "devices",
    "core.twin.self_ms": "ms/ticket",
    "core.twin.nodes": "nodes",
    "core.privilege.self_ms": "ms/ticket",
    "core.privilege.rules": "rules",
    "core.twin.monitor.calls": "count/ticket",
    "core.twin.monitor.self_ms": "ms/ticket",
    "core.twin.monitor.denied_ratio": "ratio",
    "emulation.self_ms": "ms/ticket",
    "emulation.recompiles": "count/ticket",
    "core.enforcer.audit.calls": "count/ticket",
    "core.enforcer.audit.self_ms": "ms/ticket",
    "config.diffing.self_ms": "ms/ticket",
    "config.diffing.changes": "changes",
    "core.enforcer.verifier.self_ms": "ms/ticket",
    "core.enforcer.verifier.approved_ratio": "ratio",
    "policy.verification.calls": "count/ticket",
    "policy.verification.self_ms": "ms/ticket",
    "policy.verification.policies": "policies",
    "dataplane.differential.self_ms": "ms/ticket",
    "dataplane.differential.flows_probed": "count/ticket",
    "dataplane.differential.traces_seeded": "count/ticket",
    "dataplane.forwarding.calls": "count/ticket",
    "dataplane.forwarding.self_ms": "ms/ticket",
    "core.enforcer.scheduler.calls": "count/ticket",
    "core.enforcer.scheduler.self_ms": "ms/ticket",
    "scenarios.issues.self_ms": "ms/ticket",
    "core.heimdall.self_ms": "ms/ticket",
    "trace_overhead": "ratio",
}


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class _Frame:
    __slots__ = ("layer", "index", "start", "child", "children")

    def __init__(self, layer, index):
        self.layer = layer
        self.index = index
        self.start = 0.0
        self.child = 0.0
        self.children = set()


class Tracer:
    """In-memory spans, per-layer self time and counters for traced tickets.

    Wrappers record only while a :meth:`ticket` span is open, so set-up,
    input preparation and outcome checks between tickets stay untraced.
    """

    def __init__(self):
        self.spans = []
        self.self_ms = defaultdict(float)
        self.counts = defaultdict(float)
        self.tickets = 0
        self._stack = []
        self._ticket = None
        self._patches = []  # (owner, key, original, is_item)

    # -- spans ----------------------------------------------------------------

    def _enter(self, layer, name):
        parent = self._stack[-1].index if self._stack else -1
        frame = _Frame(layer, len(self.spans))
        self.spans.append([name, 0.0, 0.0, parent, self._ticket])
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.self_ms[frame.layer] += (duration - frame.child) * 1000.0
        span = self.spans[frame.index]
        span[1] = frame.start
        span[2] = end
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            parent.children.add(frame.layer)

    @contextmanager
    def ticket(self, ticket_id):
        """The root span of one ticket (layer ``core.heimdall``)."""
        before = dataplane_cache().stats()
        self._ticket = ticket_id
        frame = self._enter(ROOT_LAYER, "ticket")
        try:
            yield
        finally:
            self._exit(frame)
            self._ticket = None
            self.tickets += 1
            after = dataplane_cache().stats()
            self.counts["control.builder.compiles"] += (
                after["misses"] - before["misses"]
            )
            self.counts["control.builder.hits"] += after["hits"] - before["hits"]

    def _wrap(self, layer, name, fn, count):
        tracer = self
        calls = f"{layer}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._ticket is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer.counts[calls] += 1
            if count is not None:
                count(tracer.counts, args, result, frame)
            return result

        setattr(traced, _ORIGINAL, fn)
        return traced

    # -- install / restore --------------------------------------------------------

    def _patch(self, owner, key, original, wrapper, is_item=False):
        self._patches.append((owner, key, original, is_item))
        if is_item:
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)

    def install(self):
        """Rebind every entry point in :data:`ENTRY_POINTS` to a wrapper."""
        for layer, module_name, path, count in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if path.endswith("[*]"):
                table = getattr(module, path[:-3])
                for key, fn in list(table.items()):
                    wrapper = self._wrap(layer, f"{path[:-3]}[{key}]", fn, count)
                    self._patch(table, key, fn, wrapper, is_item=True)
            elif "." in path:
                class_name, attr = path.split(".")
                cls = getattr(module, class_name)
                fn = cls.__dict__[attr]
                self._patch(cls, attr, fn, self._wrap(layer, path, fn, count))
            else:
                fn = getattr(module, path)
                wrapper = self._wrap(layer, path, fn, count)
                for holder in _repro_modules():
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, fn, wrapper)

    def restore(self):
        """Put every original object back, including stray copies."""
        while self._patches:
            owner, key, original, is_item = self._patches.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        for holder in _repro_modules():
            for key, value in list(vars(holder).items()):
                original = getattr(value, _ORIGINAL, None)
                if original is not None and callable(value):
                    setattr(holder, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results ----------------------------------------------------------------------

    def layer_metrics(self, trace_overhead):
        """Every :data:`LAYER_METRICS` value for the traced tickets."""
        tickets = max(self.tickets, 1)
        counts = self.counts

        def ratio(numerator, denominator):
            return counts[numerator] / counts[denominator] if counts[denominator] else 0.0

        values = {"trace_overhead": trace_overhead}
        for name in LAYER_METRICS:
            layer, _, metric = name.rpartition(".")
            if metric == "self_ms":
                values[name] = self.self_ms[layer] / tickets
            elif metric in ("calls", "compiles", "recompiles", "flows_probed",
                            "traces_seeded"):
                values[name] = counts[name] / tickets
        lookups = counts["control.builder.hits"] + counts["control.builder.compiles"]
        values["control.builder.hit_ratio"] = (
            counts["control.builder.hits"] / lookups if lookups else 0.0
        )
        values["core.twin.scoping.scope_devices"] = ratio(
            "core.twin.scoping.scope_devices", "core.twin.scoping.calls"
        )
        values["core.twin.nodes"] = ratio("core.twin.nodes", "core.twin.calls")
        values["core.privilege.rules"] = ratio(
            "core.privilege.rules", "core.privilege.specs"
        )
        values["core.twin.monitor.denied_ratio"] = ratio(
            "core.twin.monitor.denied", "core.twin.monitor.calls"
        )
        values["config.diffing.changes"] = ratio(
            "config.diffing.changes", "config.diffing.calls"
        )
        values["core.enforcer.verifier.approved_ratio"] = ratio(
            "core.enforcer.verifier.approved", "core.enforcer.verifier.calls"
        )
        values["policy.verification.policies"] = ratio(
            "policy.verification.policies", "policy.verification.calls"
        )
        return values

    def dump(self, path):
        """Write the spans as JSON rows ``[name, start_s, end_s, parent, ticket]``."""
        with open(path, "w") as out:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "ticket"],
                    "spans": self.spans,
                },
                out,
            )
