"""Session-wide guards for the tier-1 suite."""

import hashlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_reports():
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(ROOT.glob("BENCH_*.json"))
    }


@pytest.fixture(scope="session", autouse=True)
def _committed_reports_untouched():
    """Fail the run if any test rewrote a committed ``BENCH_*.json``.

    Benchmark reports are regenerated deliberately, by a person running
    ``repro.cli bench``; a test that reaches the default output path would
    silently churn them on every run.
    """
    before = _bench_reports()
    yield
    after = _bench_reports()
    changed = sorted(
        name for name, digest in before.items() if after.get(name) != digest
    )
    assert not changed, f"tests rewrote committed reports: {changed}"
