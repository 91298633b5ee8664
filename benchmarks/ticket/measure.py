"""One workload, one process: set up, run tickets in a closed loop, summarise.

One technician drives tickets back to back — the next ticket (and, inside a
ticket, the next command) is sent only after the previous one returns. No
threads, Heimdall defaults, ``repro.obs`` off.
"""

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro.control.cache import clear_dataplane_cache

from layers import Tracer
from workloads import WORKLOADS, run_ticket

# Set-up runs this many times per measurement (each from a cleared compile
# cache) and setup_s is their median; the last one's deployment is measured.
SETUP_REPEATS = 5

END_TO_END_METRICS = {
    "ticket_ms_p50": "ms",
    "ticket_ms_p75": "ms",
    "tickets_per_s": "1/s",
    "open_ms_p50": "ms",
    "submit_ms_p50": "ms",
    "command_ms_p50": "ms",
    "command_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Result:
    """What one workload run measured."""

    workload: str
    metrics: dict  # name -> value: end-to-end, or per-layer when traced
    attempted: int
    failed: int
    commands: int
    problems: list = field(default_factory=list)
    traced_ticket_ms_mean: float = 0.0
    tracer: object = None

    @property
    def correct(self):
        return not self.problems

    @property
    def failed_ratio(self):
        return self.failed / self.attempted


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _prepared(workload_cls, seed):
    clear_dataplane_cache()
    workload = workload_cls(seed)
    workload.setup()
    return workload


def _loop(workload, seconds=None, tickets=None, tracer=None):
    """Run tickets 0, 1, ... until ``seconds`` pass or ``tickets`` are done."""
    deadline = None if seconds is None else time.perf_counter() + seconds
    runs, problems = [], []
    attempted = 0
    while (tickets is None or attempted < tickets) and (
        deadline is None or time.perf_counter() < deadline
    ):
        k = attempted
        attempted += 1
        try:
            run = run_ticket(workload.ticket(k), k, tracer)
        except Exception as exc:  # a raising ticket is a failed ticket
            problems.append(f"ticket {k} raised {type(exc).__name__}: {exc}")
            continue
        runs.append(run)
        if run.misses:
            problems.append(f"ticket {k}: {', '.join(run.misses)}")
    if not runs:
        raise RuntimeError(f"{workload.name}: no ticket completed: {problems[:3]}")
    return attempted, runs, problems


def measure(name, seed, seconds, tickets=None, trace=False):
    """Measure workload ``name``; see :data:`END_TO_END_METRICS`."""
    workload_cls = WORKLOADS[name]
    if trace:
        return _measure_traced(workload_cls, seed, seconds, tickets)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload = _prepared(workload_cls, seed)
        setup_s.append(time.perf_counter() - started)
    gc.collect()
    attempted, runs, problems = _loop(workload, seconds, tickets)
    problems += workload.finish()

    ticket_ms = [run.ticket_ms for run in runs]
    command_ms = [ms for run in runs for ms in run.command_ms]
    metrics = {
        "ticket_ms_p50": percentile(ticket_ms, 50),
        "ticket_ms_p75": percentile(ticket_ms, 75),
        "tickets_per_s": len(runs) / (sum(ticket_ms) / 1000.0),
        "open_ms_p50": percentile([run.open_ms for run in runs], 50),
        "submit_ms_p50": percentile([run.submit_ms for run in runs], 50),
        "command_ms_p50": percentile(command_ms, 50),
        "command_ms_p95": percentile(command_ms, 95),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return Result(
        workload=name, metrics=metrics, attempted=attempted,
        failed=_failed(attempted, runs), commands=len(command_ms),
        problems=problems,
    )


def _failed(attempted, runs):
    return attempted - sum(1 for run in runs if not run.misses)


def _measure_traced(workload_cls, seed, seconds, tickets):
    """Untraced pass, then the same tickets again with every layer wrapped.

    Both passes start from a freshly set-up deployment and a cleared
    compile cache, so their caches are equally warm.
    """
    workload = _prepared(workload_cls, seed)
    gc.collect()
    attempted, untraced, problems = _loop(workload, seconds / 2.0, tickets)
    problems += workload.finish()

    workload = _prepared(workload_cls, seed)
    gc.collect()
    tracer = Tracer()
    with tracer.installed():
        traced_attempted, traced, traced_problems = _loop(
            workload, tickets=attempted, tracer=tracer
        )
    problems += traced_problems + workload.finish()

    traced_ms = [run.ticket_ms for run in traced]
    overhead = percentile(traced_ms, 50) / percentile(
        [run.ticket_ms for run in untraced], 50
    )
    return Result(
        workload=workload_cls.name,
        metrics=tracer.layer_metrics(overhead),
        attempted=attempted + traced_attempted,
        failed=_failed(attempted, untraced)
        + _failed(traced_attempted, traced),
        commands=sum(len(run.command_ms) for run in traced),
        problems=problems,
        traced_ticket_ms_mean=statistics.fmean(traced_ms),
        tracer=tracer,
    )
