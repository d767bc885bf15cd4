"""Checks on the source of src/tracelab itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tracelab"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_self_checks_survive_optimized_mode(path):
    # python -O strips assert statements; a self-check must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("rule", ["% 4 == 1", "2 - t"],
                         ids=["omega-rule", "basis-change"])
def test_ring_rule_has_one_owner(rule):
    # the choice of omega and the change from (1, omega) to (1, sqrt(d))
    # are each written once, in qfield.RingOfIntegers
    lines = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if rule in line]
    assert len(lines) == 1, f"{rule!r} written on {lines}"
