"""Self-test of the ticket benchmark at tiny ticket counts.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ticket`` (tier-1
``testpaths`` stays ``tests``).
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import measure
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=600,
    )


def _check_printed(workload, done, declared):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in declared}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    for name, unit in expected.items():
        assert any(
            line.startswith(f"{workload} {name} ") and line.endswith(f" {unit}")
            for line in lines
        ), name


@pytest.mark.parametrize(
    "workload", [workload["name"] for workload in BENCHMARK["workloads"]]
)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    done = _run("--workload", workload, "--seconds", "60", "--tickets", "2")
    _check_printed(workload, done, BENCHMARK["end_to_end"])


def test_every_layer_metric_is_printed_with_its_unit():
    done = _run(
        "--workload", "attack-enterprise", "--seconds", "60", "--tickets", "6",
        "--trace", "1",
    )
    _check_printed("attack-enterprise", done, BENCHMARK["per_layer"])


def test_wrong_expectation_raises_failed_ratio(monkeypatch):
    prepare = workloads.UniversityTickets.ticket

    def wrongly_expected(self, k):
        ticket = prepare(self, k)
        if k >= 0:  # warm-up tickets keep the right expectation
            ticket.expect = workloads.Expect(approved=False)
        return ticket

    monkeypatch.setattr(workloads.UniversityTickets, "ticket", wrongly_expected)
    result = measure.measure("university-tickets", 7, seconds=60, tickets=3)
    assert result.attempted == 3
    assert result.failed == 3 and result.failed_ratio == 1.0
    assert not result.correct


def _bindings():
    """Every callable a repro module, patched class or dispatch table holds."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for key, value in vars(module).items():
                if callable(value):
                    found[(name, key)] = value
    for _layer, module_name, path, _count in layers.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if path.endswith("[*]"):
            for key, fn in getattr(module, path[:-3]).items():
                found[(module_name, path, key)] = fn
        elif "." in path:
            class_name, attr = path.split(".")
            found[(module_name, path)] = vars(getattr(module, class_name))[attr]
    return found


@pytest.mark.parametrize("workload", ["university-tickets", "estate-tickets"])
def test_traced_self_times_cover_ticket_time_and_restore(workload):
    before = _bindings()
    result = measure.measure(workload, 7, seconds=60, tickets=2, trace=True)
    assert result.correct, result.problems

    self_ms = {
        layer: result.metrics[f"{layer}.self_ms"] for layer in layers.LAYERS
    }
    assert all(ms > 0 for ms in self_ms.values()), self_ms
    assert sum(self_ms.values()) == pytest.approx(
        result.traced_ticket_ms_mean, rel=0.05
    )

    after = _bindings()
    assert [key for key, fn in before.items() if after[key] is not fn] == []
    assert not [
        key for key, fn in after.items() if hasattr(fn, layers._ORIGINAL)
    ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ticket",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = _run(
        "--workload", "university-tickets", "--seconds", "1",
        script=tmp_path / "benchmarks" / "ticket" / "run.py",
    )
    assert done.returncode != 0
    assert done.stdout == ""
