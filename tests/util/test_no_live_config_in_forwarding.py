"""Lint: the forwarding walk reads only compiled artifacts.

A trace must be a pure function of the snapshot fingerprint — that is what
lets every equal-fingerprint plane share one trace cache. The walk gets that
property by reading the plane's forwarding index and FIBs, never the live
configs of the network the plane happens to be bound to. This test walks
``repro/dataplane/forwarding.py`` with ``ast`` and fails on any read of
``.network``, ``.configs`` or a ``.config(...)`` call, so a live-config read
cannot creep back in.
"""

import ast
from pathlib import Path

FORWARDING = (
    Path(__file__).resolve().parents[2]
    / "src" / "repro" / "dataplane" / "forwarding.py"
)

FORBIDDEN_ATTRIBUTES = {"network", "configs"}


def _live_config_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRIBUTES:
            yield node.lineno, f".{node.attr}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "config"
        ):
            yield node.lineno, ".config("


def test_forwarding_reads_no_live_config():
    offenders = sorted(_live_config_reads(ast.parse(FORWARDING.read_text())))
    assert not offenders, (
        "repro/dataplane/forwarding.py reads live configs (use the plane's "
        "forwarding index):\n"
        + "\n".join(f"line {line}: {what}" for line, what in offenders)
    )


def test_lint_catches_each_forbidden_read():
    source = (
        "def walk(plane, device):\n"
        "    plane.network.config(device)\n"
        "    return plane.network.configs\n"
    )
    found = {what for _line, what in _live_config_reads(ast.parse(source))}
    assert found == {".network", ".configs", ".config("}
