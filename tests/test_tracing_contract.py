"""The benchmark's span tracer (perfbench/tracing.py) patches tracelab
functions and methods by name. These tests run it against this checkout, so
renaming or deleting a traced name fails here and not only in a traced
benchmark run. The tracer module is loaded read-only."""

import importlib.util
import sys
from pathlib import Path

import pytest

import tracelab
from tracelab import analytics, arithmeticity, cli, groups, psl2, qfield

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _bindings():
    owners = (tracelab, analytics, arithmeticity, cli, groups, psl2, qfield,
              qfield.QuadElem, psl2.ProjMat, groups.TraceSet, cli.Report)
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}


def test_tracer_installs_records_and_restores(tracing):
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["arith-check", "--group", "hecke(5)", "--radius", "3",
                         "--pair-budget", "100"]) == 0
        assert cli.main(["corollary", "--group", "psl2z", "--radius", "3"]) == 0
        # multiplies field elements itself: the catalog parses each group once
        # per process, so its field products may have run before this test
        assert cli.main(["delta-c", "--c", "3/2", "--ring", "Z", "--witness", "2"]) == 0
    finally:
        tracer.uninstall()
    assert _bindings() == before
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "cli.cmd_arith_check", "groups.enumerate_ball",
            "groups.gamma2_ball", "arithmeticity.takeuchi_verdict",
            "arithmeticity.subtraction_closure_check", "cli.Report.render"} <= names
    leaves = {name for name, _ in tracer.leaves}
    assert {"psl2.ProjMat.__mul__", "qfield.QuadElem.__mul__",
            "psl2.canonical_trace"} <= leaves


def test_element_counter_sees_every_ball(tracing):
    ball = groups.enumerate_ball(groups.catalog("psl2z"), 3)
    expected = ball.size + groups.gamma2_ball(ball, 100).size
    with tracing.ElementCounter() as counter:
        groups.enumerate_ball(groups.catalog("psl2z"), 3)
        arithmeticity.takeuchi_verdict(ball, pair_budget=100)
    assert counter.elements == expected
