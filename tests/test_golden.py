"""Golden CLI outputs: every case below must reproduce its committed file in
tests/golden/ byte for byte. The cases are the criterion-8 command set,
the Delta_c set path over other rings and the heavy analytics commands at
benchmark size, each in every format, plus `enumerate` (json) and `traces`
(csv) for each catalog group at radius 6.

The files are the regression oracle for refactors. Regenerate them only for
an intended output change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import re
import sys
from pathlib import Path

import pytest

from tracelab import QuadElem, RingOfIntegers, catalog_names, cli
from tracelab.cli import main

from test_acceptance import CLI_COMMANDS

GOLDEN_DIR = Path(__file__).parent / "golden"

# the Delta_c set path over rings other than Z: Z[i], Z[(1+sqrt(-3))/2] with
# M1 = 2, and the real ring Z[(1+sqrt(5))/2]
DELTA_C_SET_COMMANDS = [
    ["delta-c", "--c", "3/2+1/2*sqrt(-1)", "--ring", "-1",
     "--k-bound", "3", "--n-bound", "2"],
    ["delta-c", "--c", "2/3+1/2*sqrt(-3)", "--ring", "-3",
     "--k-bound", "3", "--n-bound", "2", "--m1", "2"],
    ["delta-c", "--c", "1/2+1/3*sqrt(5)", "--ring", "5",
     "--k-bound", "3", "--n-bound", "2"],
]

# the heavy analytics commands at the size the benchmark runs them
BENCHMARK_SIZE_COMMANDS = [
    ["kronecker", "--theta1", "1.4142135623730951", "--theta2", "1", "--K", "400"],
    ["counting", "--kind", "two-to-one", "--N", "400"],
    ["counting", "--kind", "rn", "--N", "200"],
]

CASES = [(argv, fmt)
         for argv in CLI_COMMANDS + DELTA_C_SET_COMMANDS + BENCHMARK_SIZE_COMMANDS
         for fmt in ("json", "csv", "data")]
CASES += [(["enumerate", "--group", name, "--radius", "6"], "json")
          for name in catalog_names()]
CASES += [(["traces", "--group", name, "--radius", "6"], "csv")
          for name in catalog_names()]


def golden_path(argv, fmt) -> Path:
    stem = re.sub(r"[^A-Za-z0-9().+-]", "_", "_".join(a.removeprefix("--") for a in argv))
    return GOLDEN_DIR / f"{stem}.{fmt}"


def test_golden_set_is_exactly_the_cases():
    assert sorted(GOLDEN_DIR.iterdir()) == sorted(golden_path(a, f) for a, f in CASES)


@pytest.mark.parametrize("argv,fmt", CASES,
                         ids=[golden_path(a, f).name for a, f in CASES])
def test_output_matches_golden(argv, fmt, tmp_path):
    out = tmp_path / "out"
    assert main(argv + ["--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == golden_path(argv, fmt).read_bytes()


def test_golden_csv_cells_need_no_quoting():
    # `delta-c` writes its table without csv.writer: csv.reader must read
    # every golden table back as the cells that split(",") gives
    for path in sorted(GOLDEN_DIR.glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert list(csv.reader(lines)) == [line.split(",") for line in lines], path.name


DELTA_C_SET_CASES = [argv for argv in CLI_COMMANDS + DELTA_C_SET_COMMANDS
                     if argv[0] == "delta-c" and "--witness" not in argv]


@pytest.mark.parametrize("fmt, unused", [
    ("json", ("format_values", "_value_rows")), ("data", ("format_values",))])
@pytest.mark.parametrize("argv", DELTA_C_SET_CASES,
                         ids=[golden_path(a, "").stem for a in DELTA_C_SET_CASES])
def test_delta_c_builds_only_the_table_it_prints(argv, fmt, unused, monkeypatch,
                                                  tmp_path):
    # JSON prints no rows and data prints no value text: neither is built
    def refuse(*args):
        raise AssertionError(f"delta-c --format {fmt} built text it does not print")
    for name in unused:
        monkeypatch.setattr(RingOfIntegers if name == "format_values" else cli,
                            name, refuse)
    out = tmp_path / "out"
    assert main(argv + ["--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == golden_path(argv, fmt).read_bytes()


JSON_VALUE_CASES = [argv for argv in CLI_COMMANDS
                    if argv[0] == "traces" or "--witness" in argv]


@pytest.mark.parametrize("argv", JSON_VALUE_CASES,
                         ids=[golden_path(a, "").stem for a in JSON_VALUE_CASES])
def test_value_json_builds_no_rows(argv, monkeypatch, tmp_path):
    # `traces` and the witness print their values in JSON without the table
    def refuse(*args):
        raise AssertionError(f"{argv[0]} --format json built rows it does not print")
    monkeypatch.setattr(cli, "_value_rows", refuse)
    out = tmp_path / "out"
    assert main(argv + ["--format", "json", "--output", str(out)]) == 0
    assert out.read_bytes() == golden_path(argv, "json").read_bytes()


TRACES_CASES = [(argv, fmt) for argv, fmt in CASES if argv[0] == "traces"]


@pytest.mark.parametrize("argv,fmt", TRACES_CASES,
                         ids=[golden_path(a, f).name for a, f in TRACES_CASES])
def test_traces_embed_a_list_at_a_time(argv, fmt, monkeypatch, tmp_path):
    # trace_set embeds its traces in one call per ring, and `traces` renders
    # from TraceSet.embedded: no value is embedded on its own
    def refuse(*args, **kwargs):
        raise AssertionError("traces embedded a single value")
    monkeypatch.setattr(QuadElem, "embed", refuse)
    out = tmp_path / "out"
    assert main(argv + ["--format", fmt, "--output", str(out)]) == 0
    assert out.read_bytes() == golden_path(argv, fmt).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv, fmt in CASES:
        code = main(argv + ["--format", fmt, "--output", str(golden_path(argv, fmt))])
        if code != 0:
            sys.exit(f"{' '.join(argv)} --format {fmt} exited {code}")
