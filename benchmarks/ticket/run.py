#!/usr/bin/env python3
"""Whole-ticket benchmark: seeded ticket workloads through Heimdall's public API.

One workload, one fresh process::

    python3 benchmarks/ticket/run.py --workload university-tickets \\
        --seed 7 --seconds 25 --trace 0

prints every metric as ``workload metric value unit`` and, as its last line,
``{"correct", "attempted", "failed", "metrics"}`` JSON: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. It
exits 1 when any ticket missed its expected outcome or an audit chain broke.

Every workload, each in its own sequential subprocess, ``--repeats`` times::

    python3 benchmarks/ticket/run.py --seed 7 [--trace]

prints each metric's median and quartiles across the repeats plus host facts
(see README.md in this directory).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"


def _use_checkout_sources():
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload in this process "
                             "(default: every workload, one subprocess each)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="ticket-loop length per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced rerun")
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh-process runs per workload (full run only)")
    parser.add_argument("--tickets", type=int,
                        help="stop after this many tickets (smoke tests)")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seconds <= 0 or (
        args.tickets is not None and args.tickets < 1
    ):
        parser.error("--repeats, --seconds and --tickets must be positive")
    return args


def _line(workload, metric, value, unit):
    return f"{workload} {metric} {value:.6g} {unit}"


def run_one(args):
    """Measure one workload in this process; returns the exit code."""
    from layers import LAYER_METRICS
    from measure import END_TO_END_METRICS, measure

    result = measure(
        args.workload, args.seed, args.seconds, tickets=args.tickets,
        trace=bool(args.trace),
    )
    units = LAYER_METRICS if args.trace else END_TO_END_METRICS
    for metric, unit in units.items():
        print(_line(args.workload, metric, result.metrics[metric], unit))
    print(_line(args.workload, "failed_ratio", result.failed_ratio, "ratio"))
    print(_line(args.workload, "tickets", result.attempted, "count"))
    print(_line(args.workload, "commands", result.commands, "count"))
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        result.tracer.dump(spans)
        print(f"spans: {spans.relative_to(ROOT)}", file=sys.stderr)
    for problem in result.problems[:20]:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric: {"value": result.metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))
    return 0 if result.correct else 1


def _git_head():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_all(args, workloads):
    """Every workload, ``--repeats`` fresh processes each; returns exit code."""
    failures = []
    table = {}  # (workload, metric) -> (unit, [values])
    for workload in workloads:
        for repeat in range(args.repeats):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            if args.tickets is not None:
                command += ["--tickets", str(args.tickets)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                failures.append(f"{workload} run {repeat}: exit {done.returncode}")
            for line in done.stdout.splitlines():
                fields = line.split()
                if len(fields) == 4 and fields[0] == workload:
                    unit, values = table.setdefault(
                        (workload, fields[1]), (fields[3], [])
                    )
                    values.append(float(fields[2]))
    for (workload, metric), (unit, values) in table.items():
        q1, q3 = _quartiles(values)
        print(f"{_line(workload, metric, statistics.median(values), unit)}"
              f"  q1={q1:.6g} q3={q3:.6g} n={len(values)}")
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_head(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "trace": args.trace,
    }
    for key, value in facts.items():
        print(f"host {key} {value}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None):
    _use_checkout_sources()
    from workloads import WORKLOADS

    args = _parse(argv, list(WORKLOADS))
    return run_one(args) if args.workload else run_all(args, list(WORKLOADS))


if __name__ == "__main__":
    sys.exit(main())
