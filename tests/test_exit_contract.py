"""The exit contract of the command line, on every input: the exit code is
0, 2, 3 or 4; a nonzero exit prints nothing on stdout and one `error:` line
on stderr; JSON output parses strictly (no NaN or Infinity). Checked on
spec files whose traces embed beyond float range, or lie beyond float
range of each other, with every group command in every format, and by a
fuzz test over the parser's own subcommands and options."""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from tracelab import analytics, catalog_names
from tracelab.cli import build_parser, main

from conftest import strict_json

N = "1" + "0" * 200
OVERFLOWING_SPECS = {  # spec files of groups whose traces reach N^2
    "field-null": {"name": "big", "field_d": None,
                   "generators": [f"[1,{N};0,1]", f"[1,0;{N},1]"]},
    "field-2": {"name": "big", "field_d": 2,
                "generators": [f"[1,{N}*sqrt(2);0,1]", f"[1,0;{N},1]"]},
    "field--1": {"name": "big", "field_d": -1,
                 "generators": [f"[1,{N};0,1]", f"[1,0;{N}*sqrt(-1),1]"]},
}
# traces with finite coordinates whose distances pass the float maximum:
# 2 and 1.3e308*(1 + i) (only +inf apart), and 2, 1.3e308 and 2 +- 1.3e308*i
# (1.3e308 apart at least, though 2 + 1.3e308*i and 1.3e308 are +inf apart)
FAR_N, FAR_M = "1" + "0" * 154, "13" + "0" * 153
FAR_SPECS = {
    "far-diagonal": {"name": "far", "field_d": -1,
                     "generators": [f"[1,{FAR_N};0,1]", f"[1,0;{FAR_M}+{FAR_M}*sqrt(-1),1]"]},
    "far-axes": {"name": "far", "field_d": -1,
                 "generators": [f"[1,{FAR_N};0,1]", f"[1,0;{FAR_M},1]",
                                f"[1,0;{FAR_M}*sqrt(-1),1]"]},
}
FAR_GAPS = {"far-diagonal": (None, "inf"), "far-axes": (1.3e308, "1.3000000000000001e+308")}
MALFORMED_SPECS = {
    "not-json": "{", "not-object": "[1]",
    "bad-literal": json.dumps({"name": "x", "generators": ["[1,2;0]"]}),
    "bad-determinant": json.dumps({"name": "x", "generators": ["[1,1;1,1]"]}),
    "bad-field": json.dumps({"name": "x", "field_d": 4, "generators": ["[1,1;0,1]"]}),
    "wrong-field": json.dumps({"name": "x", "field_d": 5, "generators": ["[1,sqrt(2);0,1]"]}),
    # no square below the trial-division bound divides 10^30 + 57
    "big-field": json.dumps({"name": "x", "field_d": 10 ** 30 + 57,
                             "generators": ["[1,1;0,1]"]}),
}
FORMATS = ("json", "csv", "data")
# values an option may take, small enough to keep each command fast; the
# field generator 10^30 + 57 exits 3 at once as a --ring or inside a --c
# literal, but would run long as a --radius or --K, so it is not in VALUES
GOOD_VALUES = {
    "--radius": ("1", "2"), "--cap": ("0", "5", "100"), "--max-n": ("0", "1", "3"),
    "--pair-budget": ("0", "100", "2000"),
    "--ring": ("Z", "-1", "-3", "2", "5", str(10 ** 30 + 57)),
    "--c": ("3/2", "2", "1/2+1/2*sqrt(-1)", "1/3-4/3*sqrt(-1)", "-1/2+1/2*sqrt(5)",
            "1" + "0" * 5000 + "/7", f"sqrt({10 ** 30 + 57})"),
    "--k-bound": ("1", "3", "10"), "--n-bound": ("1", "3", "40"), "--m1": ("0", "1", "2"),
    "--witness": ("1", "2"), "--N": ("1", "2", "40"), "--K": ("1", "50"),
    "--theta1": ("1.4142135623730951", "0", "1e308", "5e-324"),
    "--theta2": ("1", "-1e308"), "--delta": ("0", "0.5", "1e308"),
    "--window": ("0", "1", "5/2", "-1"),
}
# values of any option: small ints, 0, -1, non-finite and malformed numbers,
# literals, and an integer past the interpreter's 4300-digit str limit
VALUES = ("0", "-1", "1", "2", "3/2", "nan", "inf", "1e400", "1/0", "abc", "",
          "sqrt(-1)", "1/2+1/2*sqrt(-1)", "1" * 4400)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    ap = build_parser()
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices


GROUP_COMMANDS = sorted(name for name, p in _subcommands().items()
                        if "--group" in p._option_string_actions)


def assert_exit_contract(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
    else:
        assert err == "", argv
        if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
            strict_json(out)
    return code


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory) -> dict[str, str]:
    folder = tmp_path_factory.mktemp("specs")
    paths = {}
    for name, text in [*((k, json.dumps(v)) for k, v in OVERFLOWING_SPECS.items()),
                       *((k, json.dumps(v)) for k, v in FAR_SPECS.items()),
                       *MALFORMED_SPECS.items()]:
        paths[name] = str(folder / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def test_group_commands_are_the_seven():
    assert GROUP_COMMANDS == ["arith-check", "cluster", "corollary", "enumerate", "gap",
                              "growth", "traces"]


@pytest.mark.parametrize("spec", sorted(OVERFLOWING_SPECS))
@pytest.mark.parametrize("command", GROUP_COMMANDS)
def test_traces_beyond_float_range(spec_files, command, spec):
    for fmt in FORMATS:
        code = assert_exit_contract([command, "--spec-file", spec_files[spec],
                                     "--radius", "2", "--format", fmt])
        # unit cells need finite points; every other command prints them
        assert code == (4 if command in ("cluster", "gap") else 0)


@pytest.mark.parametrize("spec", sorted(FAR_SPECS))
@pytest.mark.parametrize("command", GROUP_COMMANDS)
def test_distances_beyond_float_range(spec_files, command, spec):
    # every coordinate is finite, so every command prints its result
    for fmt in FORMATS:
        assert assert_exit_contract([command, "--spec-file", spec_files[spec],
                                     "--radius", "2", "--format", fmt]) == 0


@pytest.mark.parametrize("spec", sorted(FAR_SPECS))
def test_gap_beyond_float_range(spec_files, spec):
    # the least distance reads +inf (JSON null) when it passes float range
    json_gap, text_gap = FAR_GAPS[spec]
    outputs = {}
    for fmt in FORMATS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["gap", "--spec-file", spec_files[spec], "--radius", "2",
                         "--format", fmt]) == 0
        outputs[fmt] = out.getvalue()
    assert strict_json(outputs["json"])["gap"] == json_gap
    assert outputs["csv"] == f"radius,gap\n2,{text_gap}\n"
    assert outputs["data"] == f"2 {text_gap}\n"


# inputs whose tables pass the default element budget: each exits 3 before
# it allocates, where it would otherwise fail with MemoryError or run long
OVERSIZED = [
    ["counting", "--kind", "totient", "--N", "10000000000"],
    ["counting", "--kind", "dn", "--N", "10000000000"],
    ["counting", "--kind", "rn", "--N", "10000000"],
    ["delta-c", "--c", "3/2", "--ring", "Z", "--k-bound", "1000000000", "--n-bound", "1"],
    ["delta-c", "--c", "1/2+1/2*sqrt(-1)", "--ring", "-1", "--k-bound", "100000",
     "--n-bound", "1"],
    ["kronecker", "--theta1", "1.5", "--theta2", "1", "--K", "10000000000"],
]


@pytest.mark.parametrize("argv", OVERSIZED, ids=lambda argv: " ".join(argv[:3]))
def test_oversized_tables_are_3_at_once(monkeypatch, argv):
    # every table and loop of these commands runs over a range of its size
    # argument, so none may start before the budget refuses
    def short_range(*args):
        values = range(*args)
        if len(values) > 10 ** 5:
            raise AssertionError(f"{values} was built before the budget check")
        return values

    monkeypatch.setattr(analytics, "range", short_range, raising=False)
    assert assert_exit_contract(argv) == 3


@pytest.mark.parametrize("argv, code", [
    # preconditions and the float-range exit of delta-c come before the budget
    (["counting", "--kind", "totient", "--N", "1"], 4),
    (["counting", "--kind", "dn", "--N", "0"], 4),
    (["delta-c", "--c", "3/2", "--ring", "Z", "--k-bound", "0"], 4),
    (["delta-c", "--c", "3/2", "--ring", "Z", "--m1", "0"], 4),
    (["delta-c", "--c", "3/2", "--ring", "Z", "--n-bound", "40"], 4),
    (["kronecker", "--theta1", "1.5", "--theta2", "1", "--K", "0"], 4),
    (["counting", "--kind", "dn", "--N", "3"], 3),
    (["kronecker", "--theta1", "1.5", "--theta2", "1", "--K", "3"], 3),
    # two-to-one counts fibers and builds no table, so the budget never refuses it
    (["counting", "--kind", "two-to-one", "--N", "400"], 0),
])
def test_budget_comes_after_the_preconditions(monkeypatch, argv, code):
    monkeypatch.setenv("TRACELAB_BUDGET", "2")
    assert assert_exit_contract(argv) == code


@pytest.mark.parametrize("env, argv", [
    (None, ["enumerate", "--group", "psl2z", "--radius", "3", "--cap", "-1"]),
    ("-1", ["enumerate", "--group", "psl2z", "--radius", "3"]),
    ("-1", ["counting", "--kind", "dn", "--N", "3"]),
])
def test_negative_budget_is_2(monkeypatch, env, argv):
    if env is not None:
        monkeypatch.setenv("TRACELAB_BUDGET", env)
    assert assert_exit_contract(argv) == 2


def test_empty_spec_file_path_is_2():
    # an empty path is a path that cannot be read, not a missing --spec-file
    assert assert_exit_contract(["enumerate", "--spec-file", "", "--radius", "2"]) == 2


@st.composite
def command_lines(draw, spec_files):
    """A subcommand of the parser with a drawn subset of its options. Each
    value is one of its GOOD_VALUES or choices seven times in eight, else any
    of VALUES; a group comes from --group or --spec-file, now and then from
    both or neither."""
    name = draw(st.sampled_from(sorted(_subcommands())))
    source = draw(st.sampled_from(("--group", "--spec-file") * 4 + ("both", "neither")))
    argv = [name]
    for action in _subcommands()[name]._actions:
        flag = action.option_strings[0] if action.option_strings else None
        if flag in (None, "-h", "--output"):
            continue
        if flag in ("--group", "--spec-file"):
            if source not in (flag, "both"):
                continue
        elif draw(st.integers(0, 7)) == 7:  # left out, required or not
            continue
        if action.nargs == 0:
            argv.append(flag)
            continue
        good = action.choices or {**GOOD_VALUES, "--group": catalog_names(),
                                  "--spec-file": list(spec_files.values())}[flag]
        pool = good if draw(st.integers(0, 7)) < 7 else (*VALUES, "nope", "missing.json")
        argv += [flag, draw(st.sampled_from(tuple(pool)))]
    return argv


def test_fuzz_exit_contract(spec_files):
    @settings(max_examples=500, deadline=None, database=None)
    @given(command_lines(spec_files))
    def check(argv):
        assert_exit_contract(argv)

    check()
