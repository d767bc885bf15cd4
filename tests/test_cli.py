import json
import time
from fractions import Fraction

import pytest

from tracelab import QuadElem, cli, parse_quadelem
from tracelab.cli import _beyond_float_range, _ring_from_flag, main

from conftest import strict_json


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_enumerate_json(self, capsys):
        code, out, _ = run_cli(["enumerate", "--group", "psl2z", "--radius", "3"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] >= 10
        assert payload["version"]

    def test_traces_csv_round_trips(self, capsys):
        code, out, _ = run_cli(["traces", "--group", "hecke(5)", "--radius", "3",
                                "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trace,re,im,word_length"
        for line in lines[1:]:
            value, re_s, im_s, wl = line.split(",")
            x = parse_quadelem(value)
            z = complex(x.embed())
            assert abs(z.real - float(re_s)) < 1e-12
            assert abs(z.imag - float(im_s)) < 1e-12
            assert int(wl) >= 1

    def test_cluster_json(self, capsys):
        code, out, _ = run_cli(["cluster", "--group", "psl2z", "--radius", "5"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_count"] == 1
        assert payload["mass"] == payload["cells_touched"]

    @pytest.mark.parametrize("fmt, called", [("csv", []), ("data", []),
                                             ("json", ["gap", "growth_profile"])])
    def test_cluster_builds_only_what_it_prints(self, fmt, called, capsys, monkeypatch):
        # gap and the growth slope appear only in the JSON object
        calls = []
        for name in ("gap", "growth_profile"):
            def record(*args, name=name, orig=getattr(cli, name)):
                calls.append(name)
                return orig(*args)
            monkeypatch.setattr(cli, name, record)
        code, out, _ = run_cli(["cluster", "--group", "hecke(5)", "--radius", "4",
                                "--format", fmt], capsys)
        assert code == 0 and out
        assert calls == called

    @pytest.mark.parametrize("fmt, calls", [("csv", 0), ("data", 0), ("json", 1)])
    def test_delta_c_builds_only_what_it_prints(self, fmt, calls, capsys, monkeypatch):
        # the cell counts appear only in the JSON object
        seen = []

        def record(points, orig=cli.cluster_counts):
            seen.append(len(points))
            return orig(points)

        monkeypatch.setattr(cli, "cluster_counts", record)
        code, out, _ = run_cli(["delta-c", "--c", "3/2", "--ring", "Z", "--k-bound", "20",
                                "--n-bound", "2", "--format", fmt], capsys)
        assert code == 0 and out
        assert len(seen) == calls

    def test_gap_data(self, capsys):
        code, out, _ = run_cli(["gap", "--group", "psl2z", "--radius", "4",
                                "--format", "data"], capsys)
        assert code == 0
        radius, value = out.split()
        assert radius == "4" and float(value) == 1.0

    def test_growth(self, capsys):
        code, out, _ = run_cli(["growth", "--group", "psl2z", "--radius", "4",
                                "--max-n", "5"], capsys)
        payload = strict_json(out)
        assert code == 0
        assert len(payload["counts"]) == 5
        assert isinstance(payload["slope"], float)

    def test_arith_check(self, capsys):
        code, out, _ = run_cli(["arith-check", "--group", "psl2z", "--radius", "6",
                                "--pair-budget", "2000"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"].startswith("consistent")
        assert payload["integral"] is True

    def test_delta_c_set(self, capsys):
        code, out, _ = run_cli(["delta-c", "--c", "3/2", "--ring", "Z",
                                "--k-bound", "5", "--n-bound", "2"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["size"] > 0

    def test_delta_c_witness(self, capsys):
        code, out, _ = run_cli(["delta-c", "--c", "3/2", "--ring", "Z",
                                "--witness", "4"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert len(payload["points"]) == 5
        assert payload["max_deviation"] <= 0.5

    def test_counting_kinds(self, capsys):
        for kind, n in (("dn", 10), ("rn", 10), ("two-to-one", 20), ("totient", 10)):
            code, out, _ = run_cli(["counting", "--kind", kind, "--N", str(n)],
                                   capsys)
            assert code == 0
            assert json.loads(out)["kind"] == kind

    def test_kronecker(self, capsys):
        code, out, _ = run_cli(["kronecker", "--theta1", "1.4142135623730951",
                                "--theta2", "1", "--K", "30"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["final_min"] < 0.05

    def test_corollary(self, capsys):
        code, out, _ = run_cli(["corollary", "--group", "psl2z", "--radius", "6",
                                "--window", "3"], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["closed"] is True and payload["identities_ok"] is True

    def test_spec_file_source(self, capsys, tmp_path):
        spec = {"name": "custom", "field_d": None, "generators": ["[1,2;0,1]"]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(["enumerate", "--spec-file", str(path),
                                "--radius", "3"], capsys)
        assert code == 0
        assert json.loads(out)["group"] == "custom"


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["traces", "--radius", "3"]) == 2  # missing group source
        capsys.readouterr()

    def test_unknown_group_is_2(self, capsys):
        code, _, err = run_cli(["traces", "--group", "nope", "--radius", "2"],
                               capsys)
        assert code == 2
        assert "unknown catalog group" in err

    @pytest.mark.parametrize("name", ["hecke(x)", "gamma0()", "bianchi(1.5)", "hecke(5))"])
    def test_catalog_index_that_is_not_an_int_is_an_unknown_group(self, name, capsys):
        code, out, err = run_cli(["enumerate", "--group", name, "--radius", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: unknown catalog group {name!r}; known: psl2z, ")

    @pytest.mark.parametrize("name, canonical", [
        ("Hecke( 5 )", "hecke(5)"), ("hecke(05)", "hecke(5)"), ("hecke(+5)", "hecke(5)"),
        ("hecke(\u0665)", "hecke(5)"), ("GAMMA0(2)", "gamma0(2)"), ("GAMMA0(02)", "gamma0(2)"),
        ("gamma0(1)", "psl2z"), ("gamma0(01)", "psl2z"), ("gamma0(+1)", "psl2z"),
        ("bianchi(-3)", "bianchi(-3)"), ("bianchi(-01)", "bianchi(-1)"), ("PSL2Z", "psl2z")])
    def test_catalog_spellings(self, name, canonical, capsys):
        code, out, _ = run_cli(["enumerate", "--group", name, "--radius", "1"], capsys)
        assert code == 0 and json.loads(out)["group"] == canonical

    def test_budget_cap_is_3(self, capsys):
        code, _, err = run_cli(["enumerate", "--group", "psl2z", "--radius", "6",
                                "--cap", "5"], capsys)
        assert code == 3
        assert "budget" in err

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TRACELAB_BUDGET", "5")
        code, _, err = run_cli(["enumerate", "--group", "psl2z", "--radius", "6"],
                               capsys)
        assert code == 3

    def test_precondition_is_4(self, capsys):
        code, _, err = run_cli(["delta-c", "--c", "2", "--ring", "Z",
                                "--witness", "3"], capsys)
        assert code == 4
        assert "algebraic integer" in err

    def test_bad_budget_env_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("TRACELAB_BUDGET", "abc")
        code, out, err = run_cli(["enumerate", "--group", "psl2z", "--radius", "3"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "TRACELAB_BUDGET" in err

    def test_zero_denominator_is_2(self, capsys):
        code, out, err = run_cli(["delta-c", "--c", "1/0", "--ring", "Z"], capsys)
        assert code == 2 and out == ""
        assert "zero denominator" in err

    def test_output_into_missing_directory_is_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(["enumerate", "--group", "psl2z", "--radius", "3",
                                  "--output", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize("spec, needle", [
        ([1, 2], "JSON object"),
        ({"name": "x", "generators": 5}, "list of matrix literals"),
        ({"generators": [["1"]]}, "list of matrix literals"),
        ({"name": "x", "field_d": [1], "generators": ["[1,1;0,1]"]}, "field_d"),
        ({"generators": ["[1,1;0,1]"]}, "key 'name'"),
        ({"name": "x", "field_d": None}, "key 'generators'"),
    ], ids=["not-object", "generators-not-list", "generator-not-string",
            "field-d-not-integer", "missing-name", "missing-generators"])
    def test_malformed_spec_file_is_2(self, capsys, tmp_path, spec, needle):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(["enumerate", "--spec-file", str(path),
                                  "--radius", "2"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("m1, path", [
        ("0", ["--witness", "2"]), ("-5", ["--witness", "2"]),
        ("0", ["--k-bound", "3", "--n-bound", "1"]), ("-5", []),
    ], ids=["0", "-5", "0-set", "-5-set"])
    def test_witness_m1_below_one_is_4(self, capsys, m1, path):
        code, out, err = run_cli(["delta-c", "--c", "3/2", "--ring", "Z",
                                  *path, "--m1", m1], capsys)
        assert code == 4 and out == ""
        assert "m1 >= 1" in err

    @pytest.mark.parametrize("budget", ["-1", "-5", "-90000"])
    def test_negative_pair_budget_is_2(self, capsys, budget):
        code, out, err = run_cli(["arith-check", "--group", "psl2z", "--radius", "2",
                                  "--pair-budget", budget], capsys)
        assert code == 2 and out == ""
        assert "--pair-budget" in err and "non-negative" in err

    @pytest.mark.parametrize("argv", [
        ["traces", "--radius", "3"],
        ["arith-check", "--group", "psl2z", "--radius", "2", "--pair-budget", "-5"],
        ["kronecker", "--theta1", "nan", "--theta2", "1", "--K", "3"],
        ["frobnicate"],
    ], ids=["missing-group", "negative-pair-budget", "nan-theta1", "unknown-subcommand"])
    def test_argparse_error_is_one_line(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_is_0(self, capsys):
        code, out, err = run_cli(["arith-check", "--help"], capsys)
        assert code == 0 and err == ""
        assert out.startswith("usage: tracelab arith-check") and "--pair-budget" in out

    def test_zero_denominator_window_is_2(self, capsys):
        code, out, err = run_cli(["corollary", "--group", "psl2z", "--radius", "2",
                                  "--window", "1/0"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "zero denominator" in err

    @pytest.mark.parametrize("group", ["psl2z", "bianchi(-1)", "hecke(5)"])
    def test_negative_window_is_2(self, capsys, group):
        code, out, err = run_cli(["corollary", "--group", group, "--radius", "3",
                                  "--window", "-3"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "negative window" in err

    def test_decimal_window_is_exact(self, capsys):
        code, out, _ = run_cli(["corollary", "--group", "psl2z", "--radius", "2",
                                "--window", "2.5"], capsys)
        assert code == 0 and json.loads(out)["window"] == "5/2"

    def test_error_messages_name_precondition(self, capsys):
        code, _, err = run_cli(["gap", "--group", "psl2z", "--radius", "0"],
                               capsys)
        assert code == 4
        assert "radius" in err


class TestDeterminism:
    COMMANDS = [
        ["enumerate", "--group", "psl2z", "--radius", "4"],
        ["traces", "--group", "hecke(5)", "--radius", "4"],
        ["cluster", "--group", "bianchi(-1)", "--radius", "4"],
        ["gap", "--group", "psl2z", "--radius", "4"],
        ["growth", "--group", "psl2z", "--radius", "4"],
        ["arith-check", "--group", "psl2z", "--radius", "4",
         "--pair-budget", "1000"],
        ["delta-c", "--c", "3/2", "--ring", "Z", "--k-bound", "20",
         "--n-bound", "2"],
        ["delta-c", "--c", "1/2+1/2*sqrt(-1)", "--ring", "-1", "--witness", "2"],
        ["counting", "--kind", "two-to-one", "--N", "25"],
        ["kronecker", "--theta1", "1.4142135623730951", "--theta2", "1",
         "--K", "20"],
        ["corollary", "--group", "psl2z", "--radius", "5"],
    ]

    @pytest.mark.parametrize("fmt", ["json", "csv", "data"])
    def test_byte_identical_runs(self, fmt, tmp_path):
        for i, argv in enumerate(self.COMMANDS):
            out1 = tmp_path / f"{i}_a.{fmt}"
            out2 = tmp_path / f"{i}_b.{fmt}"
            assert main(argv + ["--format", fmt, "--output", str(out1)]) == 0
            assert main(argv + ["--format", fmt, "--output", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes(), argv


class TestStrictJson:
    @pytest.mark.parametrize("argv, key", [
        (["growth", "--max-n", "1"], "slope"),
        (["growth", "--max-n", "0"], "slope"),
        (["cluster", "--max-n", "1"], "growth_slope"),
    ])
    def test_undefined_slope_is_null(self, capsys, argv, key):
        code, out, _ = run_cli(argv + ["--group", "psl2z", "--radius", "3"], capsys)
        assert code == 0
        assert strict_json(out)[key] is None

    @pytest.mark.parametrize("flag, value", [
        ("--theta1", "nan"), ("--theta1", "inf"), ("--theta2", "-inf"),
        ("--theta2", "NaN"), ("--delta", "inf"), ("--delta", "nan"),
    ])
    def test_non_finite_kronecker_input_is_2(self, capsys, flag, value):
        argv = {"--theta1": "1.5", "--theta2": "1", "--delta": "0"}
        argv[flag] = value
        code, out, err = run_cli(["kronecker", "--K", "3"]
                                 + [f"{k}={v}" for k, v in argv.items()], capsys)
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("fmt, expected", [
        ("json", None),
        ("csv", "cell,m,n,count\n0,100000000000000000000,0,2\n"),
        ("data", "100000000000000000000 0 2\n"),
    ])
    def test_gap_of_traces_embedded_to_one_point_is_null(self, capsys, tmp_path,
                                                         fmt, expected):
        # the traces 10^20 + 1 and 10^20 + 2 are distinct but both embed to
        # 1e+20, so there is no distance between two distinct points
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"name": "near", "field_d": None, "generators": [
            "[100000000000000000000,99999999999999999999;1,1]",
            "[100000000000000000001,100000000000000000000;1,1]"]}))
        code, out, err = run_cli(["cluster", "--spec-file", str(path), "--radius", "1",
                                  "--format", fmt], capsys)
        assert code == 0, err
        if fmt == "json":
            payload = strict_json(out)
            assert payload["gap"] is None
            assert (payload["mass"], payload["max_count"]) == (2, 2)
        else:
            assert out == expected

    def test_trace_beyond_float_range_is_null(self, capsys, tmp_path):
        n = "1" + "0" * 200
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "big", "field_d": None,
                                    "generators": [f"[1,{n};0,1]", f"[1,0;{n},1]"]}))
        code, out, _ = run_cli(["traces", "--spec-file", str(path), "--radius", "2",
                                "--format", "json"], capsys)
        assert code == 0
        traces = {t["value"]: t for t in strict_json(out)["traces"]}
        big = traces["1" + "0" * 399 + "2"]  # N^2 + 2, the trace of [1,N;0,1][1,0;N,1]
        assert big["re"] is None and big["im"] == 0.0
        assert traces["2"]["re"] == 2.0


class TestLargeWitnessOutput:
    def test_witness_points_beyond_float_range(self, capsys):
        # the n=4 family for 3/(1+i) has coordinates near 10^976; the report
        # must still render, with embeddings saturating to inf
        code, out, _ = run_cli(["delta-c", "--c", "3/2-3/2*sqrt(-1)",
                                "--ring", "-1", "--witness", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 5
        assert payload["max_deviation"] <= 0.5


class TestValuesBeyondLimits:
    def test_values_beyond_int_str_digit_limit_round_trip(self, capsys):
        # 5001-digit terms: past the interpreter's 4300-digit limit on
        # int <-> str conversion, in the flag and in the CSV it prints
        c = QuadElem.of(Fraction(10 ** 5000 + 1, 10 ** 5000))
        code, out, err = run_cli(["delta-c", "--c", "1" + "0" * 4999 + "1/1" + "0" * 5000,
                                  "--ring", "Z", "--k-bound", "1", "--n-bound", "1",
                                  "--format", "csv"], capsys)
        assert code == 0, err
        values = {parse_quadelem(line.split(",")[0]) for line in out.splitlines()[1:]}
        assert values == {k * c for k in (-1, 0, 1)} | {k * c * c for k in (-1, 1)}

    @pytest.mark.parametrize("n_bound", ["20", "40"])
    def test_power_beyond_float_range_is_4_at_once(self, capsys, n_bound):
        # (3/2)^(2^20) has about 300,000 digits; the exit must not wait for it
        t0 = time.perf_counter()
        code, out, err = run_cli(["delta-c", "--c", "3/2", "--ring", "Z",
                                  "--k-bound", "1", "--n-bound", n_bound], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 4 and out == ""
        assert "finite points" in err

    @pytest.mark.parametrize("c, n_bound", [("3/2", "1000"), ("1/2", "40")])
    def test_power_past_bit_budget_is_3_at_once(self, capsys, c, n_bound):
        # |c| within 2^-900 of 1 or below it: no float-range exit can decide,
        # and the exact powers stop at the bit budget
        t0 = time.perf_counter()
        code, out, err = run_cli(["delta-c", "--c", c, "--ring", "Z",
                                  "--k-bound", "1", "--n-bound", n_bound], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "bit budget" in err

    @pytest.mark.parametrize("extra", [["--witness", "8"], ["--witness", "2000"],
                                       ["--witness", "2", "--m1", str(10 ** 400)]],
                             ids=["8", "2000", "m1-1e400"])
    def test_witness_past_bit_budget_is_3_at_once(self, capsys, extra):
        t0 = time.perf_counter()
        code, out, err = run_cli(["delta-c", "--c", "3/2", "--ring", "Z", *extra], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "bit budget" in err

    def test_witness_denominator_past_factor_bound_is_3_at_once(self, capsys):
        # 10^30 + 57 has no prime factor below FACTOR_BOUND; trial division
        # would go on toward its square root, about 10^15
        t0 = time.perf_counter()
        code, out, err = run_cli(["delta-c", "--c", "1/1000000000000000000000000000057",
                                  "--ring", "Z", "--witness", "1"], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "trial-division bound" in err

    @pytest.mark.parametrize("source", ["c", "ring", "spec-file"])
    def test_field_generator_past_factor_bound_is_3_at_once(self, capsys, tmp_path, source):
        # 10^30 + 57 has no prime factor below FACTOR_BOUND, so no square
        # below its bound divides it; trial division would go on toward its
        # square root, about 10^15
        d = "1000000000000000000000000000057"
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"name": "big", "field_d": int(d),
                                    "generators": ["[1,1;0,1]", "[1,0;1,1]"]}))
        argv = {"c": ["delta-c", "--c", f"sqrt({d})", "--ring", "Z",
                      "--k-bound", "1", "--n-bound", "1"],
                "ring": ["delta-c", "--c", "1/2", "--ring", d,
                         "--k-bound", "1", "--n-bound", "1"],
                "spec-file": ["enumerate", "--spec-file", str(spec), "--radius", "2"]}
        t0 = time.perf_counter()
        code, out, err = run_cli(argv[source], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "trial-division bound" in err

    def test_embedding_nan_is_4(self, capsys):
        # both coefficients of c^(2^11) overflow a float with opposite signs,
        # so the embedding is inf - inf, though |c^(2^11)| is tiny
        code, out, err = run_cli(["delta-c", "--c=-1/2+1/2*sqrt(5)", "--ring", "5",
                                  "--k-bound", "1", "--n-bound", "11"], capsys)
        assert code == 4 and out == ""
        assert "finite points" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "data"])
    @pytest.mark.parametrize("c, ring", [(f"{2 ** 514}", "Z"),
                                         (f"{2 ** 514}+{2 ** 514}*sqrt(-1)", "-1")],
                             ids=["Z", "Z[i]"])
    def test_float_range_band_is_4_in_every_format(self, capsys, c, ring, fmt):
        # c^2 embeds to inf (over Z[i], to the complex 0 + inf*i), while
        # |c| < 2^515 is too small for the early exit to decide: the points
        # are checked finite whatever the format prints
        ring_ = _ring_from_flag(ring)
        assert not _beyond_float_range(parse_quadelem(c, ring_.field), 1, 1, 1)
        code, out, err = run_cli(["delta-c", "--c", c, "--ring", ring, "--k-bound", "1",
                                  "--n-bound", "1", "--format", fmt], capsys)
        assert code == 4 and out == ""
        assert "finite points" in err

    def test_cluster_beyond_float_range_is_4(self, capsys):
        code, out, err = run_cli(["delta-c", "--c", "1" + "0" * 5000 + "/7", "--ring", "Z",
                                  "--k-bound", "1", "--n-bound", "1"], capsys)
        assert code == 4 and out == ""
        assert "finite points" in err
