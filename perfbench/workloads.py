"""The three benchmark workloads as lists of timed operations.

A workload is built from a seed by `build(name, seed)`, which returns its
`Task` list. Building is the benchmark's input construction and counts
towards `setup_s`; running a task's `fn` is one timed operation; `check`
turns a result into a JSON-able summary plus a list of problems found by
exact invariants. Summaries are compared with `expected.json`, which
`capture.py` writes from the code under test at `DEFAULT_SEED`.

tracelab is reached only through its public API and `tracelab.cli.main`,
always through module attributes so that the tracer in `tracing.py` sees
every call it wraps.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import tracelab
from tracelab import arithmeticity, cli, groups, psl2, qfield

DEFAULT_SEED = 1

# ball_enum: one catalog group per field kind, plus one seeded free group per
# field of the spec-file kind. Radii are sized for a ~2 s pass.
BALL_ENUM_CATALOG = (("gamma0(6)", 5), ("hecke(5)", 9),
                     ("bianchi(-1)", 5), ("bianchi(-3)", 5))
SEEDED_FIELDS = (None, -1, 5)   # Q, Q(i), Q(sqrt 5)
SEEDED_RADIUS = 5

# catalog_verdicts: criterion 5 scaled down. The balls are inputs (built in
# set-up); the pass is the verdict plus the cluster/gap/growth analytics.
CATALOG_GROUPS = (("psl2z", 8), ("hecke(4)", 6), ("hecke(5)", 7),
                  ("bianchi(-1)", 4), ("bianchi(-3)", 4))
PAIR_BUDGET = 5000
EXPECTED_VERDICTS = {
    "psl2z": (arithmeticity.VERDICT_CONSISTENT, arithmeticity.FLAG_NA_RATIONAL),
    "hecke(4)": (arithmeticity.VERDICT_CONSISTENT, arithmeticity.FLAG_NA_RATIONAL),
    "hecke(5)": (arithmeticity.VERDICT_WITNESS, arithmeticity.FLAG_UNBOUNDED),
    "bianchi(-1)": (arithmeticity.VERDICT_CONSISTENT, arithmeticity.FLAG_NA_IMAGINARY),
    "bianchi(-3)": (arithmeticity.VERDICT_CONSISTENT, arithmeticity.FLAG_NA_IMAGINARY),
}

# cli_analytics: the acceptance criterion-8 command set, run in every format.
CRITERION_8_COMMANDS = (
    ("enumerate", "--group", "psl2z", "--radius", "5"),
    ("traces", "--group", "hecke(5)", "--radius", "5"),
    ("cluster", "--group", "bianchi(-1)", "--radius", "5"),
    ("gap", "--group", "psl2z", "--radius", "5"),
    ("growth", "--group", "psl2z", "--radius", "5"),
    ("arith-check", "--group", "hecke(5)", "--radius", "6", "--pair-budget", "2000"),
    ("delta-c", "--c", "3/2", "--ring", "Z", "--k-bound", "50", "--n-bound", "3"),
    ("delta-c", "--c", "3/2-3/2*sqrt(-1)", "--ring", "-1", "--witness", "3"),
    ("counting", "--kind", "dn", "--N", "40"),
    ("counting", "--kind", "rn", "--N", "25"),
    ("counting", "--kind", "two-to-one", "--N", "40"),
    ("counting", "--kind", "totient", "--N", "100"),
    ("kronecker", "--theta1", "1.4142135623730951", "--theta2", "1", "--K", "50"),
    ("corollary", "--group", "psl2z", "--radius", "6", "--window", "4"),
)
HEAVY_COMMANDS = (
    ("two-to-one", ("counting", "--kind", "two-to-one", "--N", "400")),
    ("rn-csv", ("counting", "--kind", "rn", "--N", "200", "--format", "csv")),
    ("kronecker", ("kronecker", "--theta1", "1.4142135623730951", "--theta2", "1",
                   "--K", "400")),
    ("witness", ("delta-c", "--c", "1/2+1/2*sqrt(-1)", "--ring", "-1",
                 "--witness", "4")),
)
# Documented error paths: (name, argv, exit code). Exit 3 goes through the
# partial-Ball path of BudgetExceededError; exit 4 is a precondition failure.
ERROR_COMMANDS = (
    ("budget-exceeded", ("enumerate", "--group", "gamma0(6)", "--radius", "9",
                         "--cap", "1000"), 3),
    ("precondition", ("delta-c", "--c", "2", "--ring", "Z", "--witness", "3"), 4),
)

WORKLOADS = ("ball_enum", "catalog_verdicts", "cli_analytics")


@dataclass
class Task:
    """One timed operation; `seeded` tasks change with the seed."""

    id: str
    fn: Callable[[], Any]
    check: Callable[[Any], tuple[dict, list[str]]]
    seeded: bool = False


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- ball_enum --------------------------------------------------------------

def _shear(x, lower: bool, fld):
    one, zero = qfield.QuadElem.rational(1, fld), qfield.QuadElem.rational(0, fld)
    return psl2.Mat2(one, zero, x, one) if lower else psl2.Mat2(one, x, zero, one)


def _draw(rng: random.Random, fld, big: bool):
    """A small field element; with `big`, one whose embedding has modulus >= 2."""
    while True:
        if fld.d is None:
            x = qfield.QuadElem.of(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))
        else:
            x = qfield.QuadElem.of(rng.randint(-3, 3), rng.randint(-2, 2), fld)
            if big and fld.d > 0 and x.b == 0:
                continue
        if x.is_zero() or abs(complex(x.embed())) < (2 if big else 0):
            continue
        return x


def seeded_spec_dict(seed: int, d) -> dict:
    """A spec-file group h U(a) h^-1, h L(b) h^-1 with h = U(s) L(t).

    U and L are the elementary upper and lower shears. With |a|, |b| >= 2
    under the principal embedding, ping-pong makes U(a) and L(b) generate a
    free group of rank 2, so the ball of radius r has exactly 2*3^r - 1
    elements whatever the seed draws; conjugation by h keeps that.
    """
    fld = qfield.QQ if d is None else qfield.FieldDesc(d)
    rng = random.Random(f"{seed}:{d}")
    a, b = _draw(rng, fld, True), _draw(rng, fld, True)
    s, t = _draw(rng, fld, False), _draw(rng, fld, False)
    h = _shear(s, False, fld) * _shear(t, True, fld)
    gens = [h * _shear(a, False, fld) * h.adj(), h * _shear(b, True, fld) * h.adj()]
    return {"name": f"seeded-{'q' if d is None else d}-{seed}", "field_d": d,
            "generators": [psl2.format_mat2(g) for g in gens],
            "expected_class": "unknown"}


def _ball_task(task_id: str, spec, radius: int, seeded: bool) -> Task:
    def fn():
        ball = groups.enumerate_ball(spec, radius)
        return ball, groups.trace_set(ball)

    def check(result):
        ball, ts = result
        lines = "".join(f"{qfield.format_quadelem(t)} {ts.provenance[t]}\n"
                        for t in ts.exact)
        per_radius = ball.per_radius_counts()
        summary = {"size": ball.size, "per_radius": [c for _, c in per_radius],
                   "n_traces": ts.size, "traces_sha256": sha256(lines)}
        problems = []
        if per_radius[-1][1] != ball.size:
            problems.append("ball size differs from the last cumulative count")
        missing = [g for g in spec.generators if g.inv() not in ball.word_length]
        if missing:
            problems.append(f"{len(missing)} generator inverses missing from the ball")
        if seeded:
            free = [2 * 3 ** r - 1 for r in range(radius + 1)]
            if summary["per_radius"] != free:
                problems.append(f"per-radius counts {summary['per_radius']} "
                                f"differ from the free-group counts {free}")
        return summary, problems

    return Task(task_id, fn, check, seeded)


def _build_ball_enum(seed: int) -> list[Task]:
    tasks = [_ball_task(f"{name} r={r}", groups.catalog(name), r, False)
             for name, r in BALL_ENUM_CATALOG]
    for d in SEEDED_FIELDS:
        spec = groups.group_spec_from_dict(seeded_spec_dict(seed, d))
        tasks.append(_ball_task(f"seeded field_d={d} r={SEEDED_RADIUS}", spec,
                                SEEDED_RADIUS, True))
    return tasks


# -- catalog_verdicts -------------------------------------------------------

def _verdict_task(name: str, ball) -> Task:
    shells = (ball.radius - 2, ball.radius - 1, ball.radius)

    def fn():
        rep = arithmeticity.takeuchi_verdict(ball, pair_budget=PAIR_BUDGET)
        ts = groups.trace_set(ball)
        cuts = [ts.restrict(s).embedded for s in shells]
        max_counts = [tracelab.cluster_counts(c).max_count for c in cuts]
        gaps = [tracelab.gap(c) for c in cuts]
        growth = tracelab.growth_profile(ts.embedded, list(range(1, 21)))
        return rep, max_counts, gaps, growth

    def check(result):
        rep, max_counts, gaps, growth = result
        summary = {
            "verdict": rep.verdict,
            "flag": rep.conjugate_growth.flag,
            "gamma2_size": rep.gamma2_size,
            "integral": rep.integral,
            "trace_field_d": rep.trace_field_d,
            "report_sha256": sha256(json.dumps(rep.to_dict(), sort_keys=True)),
            "analytics_sha256": sha256(repr((max_counts, gaps, growth))),
        }
        problems = []
        if (rep.verdict, rep.conjugate_growth.flag) != EXPECTED_VERDICTS[name]:
            problems.append(f"{name}: verdict {rep.verdict}/{rep.conjugate_growth.flag}, "
                            f"expected {'/'.join(EXPECTED_VERDICTS[name])}")
        return summary, problems

    return Task(f"{name} r={ball.radius}", fn, check)


def _build_catalog_verdicts(seed: int) -> list[Task]:
    return [_verdict_task(name, groups.enumerate_ball(groups.catalog(name), r))
            for name, r in CATALOG_GROUPS]


# -- cli_analytics ----------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def seeded_delta_c_bases(seed: int) -> tuple[str, str]:
    """Non-integral bases c for `delta-c` over Z and over Z[i].

    Every coordinate has denominator 3 and a numerator of the same size, so
    the work, and with it the timing, changes little from seed to seed."""
    rng = random.Random(f"{seed}:delta-c")
    numerators = (1, 2, 4, 5)
    cz = qfield.QuadElem.of(Fraction(rng.choice(numerators) + 3, 3))
    czi = qfield.QuadElem.of(Fraction(rng.choice(numerators), 3),
                             Fraction(rng.choice((-1, 1)) * rng.choice(numerators), 3),
                             qfield.FieldDesc(-1))
    return qfield.format_quadelem(cz), qfield.format_quadelem(czi)


def _cli_task(task_id: str, argv, exit_code: int = 0, seeded: bool = False) -> Task:
    argv = list(argv)

    def fn():
        return run_cli(argv)

    def check(result):
        code, out, err = result
        summary = {"exit": code, "stdout_sha256": sha256(out)}
        problems = []
        if code != exit_code:
            problems.append(f"exit code {code}, expected {exit_code}: {err.strip()[:200]}")
        if exit_code == 0 and err:
            problems.append(f"unexpected stderr: {err.strip()[:200]}")
        if exit_code != 0 and (out or not err.startswith("error:")):
            problems.append("error path must print nothing on stdout and 'error:' on stderr")
        if seeded and code == 0:
            problems += _delta_c_csv_problems(out)
        return summary, problems

    return Task(task_id, fn, check, seeded)


def _delta_c_csv_problems(text: str) -> list[str]:
    """Exact invariants of a `delta-c --format csv` table: header, distinct
    values, 0 present, rows ordered by embedding."""
    lines = text.splitlines()
    if not lines or lines[0] != "value,re,im":
        return ["delta-c csv header missing"]
    rows = [line.split(",") for line in lines[1:]]
    values = [r[0] for r in rows]
    keys = [(float(r[1]), float(r[2])) for r in rows]
    problems = []
    if len(set(values)) != len(values):
        problems.append("delta-c csv repeats a value")
    if "0" not in values:
        problems.append("delta-c csv lacks 0")
    if any(k2 < k1 for k1, k2 in zip(keys, keys[1:])):
        problems.append("delta-c csv rows are not sorted by embedding")
    return problems


def _build_cli_analytics(seed: int) -> list[Task]:
    tasks = [_cli_task(f"{' '.join(argv[:3])} --format {fmt}", [*argv, "--format", fmt])
             for argv in CRITERION_8_COMMANDS for fmt in ("json", "csv", "data")]
    cz, czi = seeded_delta_c_bases(seed)
    tasks.append(_cli_task("delta-c Z seeded", ["delta-c", "--c", cz, "--ring", "Z",
                                                "--k-bound", "10000", "--n-bound", "4",
                                                "--format", "csv"], seeded=True))
    tasks.append(_cli_task("delta-c Z[i] seeded", ["delta-c", "--c", czi, "--ring", "-1",
                                                   "--k-bound", "40", "--n-bound", "3",
                                                   "--format", "csv"], seeded=True))
    tasks += [_cli_task(name, argv) for name, argv in HEAVY_COMMANDS]
    tasks += [_cli_task(name, argv, code) for name, argv, code in ERROR_COMMANDS]
    return tasks


_TASK_LISTS = {"ball_enum": _build_ball_enum,
             "catalog_verdicts": _build_catalog_verdicts,
             "cli_analytics": _build_cli_analytics}


def build(name: str, seed: int) -> list[Task]:
    return _TASK_LISTS[name](seed)
