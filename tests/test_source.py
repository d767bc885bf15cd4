"""Checks on the source of src/tracelab itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tracelab"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_self_checks_survive_optimized_mode(path):
    # python -O strips assert statements; a self-check must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def _lines_with(text):
    return [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if text in line]


@pytest.mark.parametrize("rule", ["% 4 == 1", "2 - t"],
                         ids=["omega-rule", "basis-change"])
def test_ring_rule_has_one_owner(rule):
    # the choice of omega and the change from (1, omega) to (1, sqrt(d))
    # are each written once, in qfield.RingOfIntegers
    lines = _lines_with(rule)
    assert len(lines) == 1, f"{rule!r} written on {lines}"


@pytest.mark.parametrize("text", ["90_000", "finite points", "2 + dd", "math.sqrt(-d)",
                                  "GroupSpec(", "cannot mix elements", "n >>= 1",
                                  "self.b * self.c", ".17g", "bisect_left(range("],
                         ids=["default-pair-budget", "finite-points-message", "m2-squared",
                              "float-rule", "group-spec-construction", "field-mixing",
                              "square-and-multiply", "determinant", "float-text",
                              "envelope-bisection"])
def test_written_once(text):
    # the default pair budget, the precondition of unit cells, the exact
    # M2^2 = (2 + d^2) + 2*sqrt(1 + d^2) of qfield.m_power_sign and the float
    # rule of RingOfIntegers.embed_values each have one owner, which the
    # other modules import; group_spec_from_dict builds every GroupSpec, the
    # catalog's included; qfield._common_field mixes Q with a quadratic
    # field, qfield._power powers QuadElem and Mat2, Mat2.det is the one
    # determinant and cli._DEC the one text of a float; analytics._least_abs
    # bisects only where its estimated zero fails, the envelope's one search
    lines = _lines_with(text)
    assert len(lines) == 1, f"{text!r} written on {lines}"


def test_euclid_loop_has_one_owner():
    # qfield._euclid runs Euclid's algorithm for gcd_ring and bezout; the
    # other division is bezout_bounded's reduction of v modulo r
    lines = _lines_with("= divmod_ring(")
    assert len(lines) == 2, f"divmod_ring called on {lines}"


def test_unit_cells_have_one_owner():
    # math.floor of a point's coordinates appears only in analytics._cells,
    # which cluster_counts and gap share with its finite-points precondition
    users = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                users |= {(path.name, func.name) for node in ast.walk(func)
                          if getattr(node, "attr", getattr(node, "id", None)) == "floor"}
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and "floor" in [alias.name for alias in node.names]], path.name
    assert users == {("analytics.py", "_cells")}


def test_runtime_imports_are_the_standard_library():
    # tracelab has no runtime dependency: every absolute import names a
    # module of the standard library
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_comparator_sorts_stay_off_the_hot_paths():
    # a sort by an exact comparator makes n*log(n) comparisons; trace sets
    # sort by float key and certify it with n - 1, so cmp_to_key runs only
    # in the fallback of groups._sorted_traces and over the few units of
    # RingOfIntegers.canonical_associate
    users = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                users += [(path.name, func.name) for node in ast.walk(func)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "attr", getattr(node.func, "id", None))
                          == "cmp_to_key"]
    assert sorted(users) == [("groups.py", "_sorted_traces"),
                             ("qfield.py", "canonical_associate")]
    assert len(_lines_with("cmp_to_key(")) == 2
