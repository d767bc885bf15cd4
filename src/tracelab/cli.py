"""Command-line front end: reproducible enumeration, statistics, and
arithmeticity experiments with deterministic CSV/JSON/data output."""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import math
import io
import itertools
import json
import os
import sys
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from . import __version__
from .analytics import (CELLS_NEED_FINITE_POINTS, cluster_counts,
                        delta_c_cluster_witness, delta_c_set, dn_set, gap,
                        growth_profile, kronecker_gap_demo, rn_set,
                        rn_two_to_one_check, totient_sum_check)
from .arithmeticity import subtraction_closure_check, takeuchi_verdict
from .errors import BudgetExceededError, PreconditionError
from .groups import (DEFAULT_CAP, DEFAULT_PAIR_BUDGET, Ball, GroupSpec, catalog,
                     enumerate_ball, load_group_spec, trace_set)
from .qfield import (QQ, FieldDesc, QuadElem, RingOfIntegers, embed_elements,
                     format_quadelem, parse_quadelem, ring_of_integers)

BUDGET_ENV = "TRACELAB_BUDGET"


_DEC = "%.17g"  # a float's text: 17 significant digits read back exactly


def _json_values(x):
    """x with every NaN and +-inf in it, at any depth, made None (JSON
    null): JSON cannot carry them."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _json_values(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return list(map(_json_values, x))
    return x


def _finite_float(text: str) -> float:
    """argparse type: a float that JSON can carry (no NaN or Infinity)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, not {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, not {text!r}")
    return value


def _budget() -> int:
    """The element budget: $TRACELAB_BUDGET, else DEFAULT_CAP."""
    raw = os.environ.get(BUDGET_ENV)
    try:
        return _non_negative_int(raw) if raw else DEFAULT_CAP
    except argparse.ArgumentTypeError:
        raise ValueError(f"{BUDGET_ENV} must be a non-negative integer, not {raw!r}") from None


def _group_ball(args) -> tuple[GroupSpec, Ball]:
    """The group of --group or --spec-file and its ball of --radius, within
    --cap elements (default: the element budget)."""
    cap = _budget() if args.cap is None else args.cap
    spec = (load_group_spec(args.spec_file) if args.spec_file is not None
            else catalog(args.group))
    return spec, enumerate_ball(spec, args.radius, cap)


def _ring_from_flag(text: str) -> RingOfIntegers:
    key = text.strip().upper()
    if key in ("Z", "ZZ", "Q"):
        return RingOfIntegers(QQ)
    return ring_of_integers(FieldDesc(int(text)))


def _table(rows: Iterable[Sequence], sep: str = ",") -> str:
    """Text of rows, one line each, fields separated by sep: CSV, or with
    sep " " the data format."""
    buf = io.StringIO()
    csv.writer(buf, delimiter=sep, lineterminator="\n").writerows(rows)
    return buf.getvalue()


Table = Callable[[], str]


class Report:
    """One deterministic result: zero-argument builders of its JSON object
    and of the text of its CSV and data tables, so that a format builds only
    what it prints."""

    def __init__(self, payload: Callable[[], dict], csv_table: Table, data_table: Table):
        self.payload = payload
        self.csv_table = csv_table
        self.data_table = data_table

    def render(self, fmt: str) -> str:
        if fmt == "json":
            obj = _json_values({"version": __version__, **self.payload()})
            return json.dumps(obj, indent=2, sort_keys=True) + "\n"
        return self.csv_table() if fmt == "csv" else self.data_table()


def _emit(report: Report, args) -> None:
    text = report.render(args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _value_rows(embedded: Sequence, sep: str, texts: Sequence = (), tail: Sequence = ()) -> str:
    """A table of embedded values, one line per value: its entry of `texts`
    (when given), its real and imaginary parts as _DEC writes them (0 for
    a float), then its entry of `tail` (when given), separated by `sep`.
    One %-format over the whole table writes them."""
    row, columns = ("%s" + sep, [texts]) if texts else ("", [])
    if complex in set(map(type, embedded)):
        row += f"{_DEC}{sep}{_DEC}"
        columns += [map(attrgetter("real"), embedded), map(attrgetter("imag"), embedded)]
    else:
        row += f"{_DEC}{sep}0"
        columns.append(embedded)
    if tail:
        row += sep + "%s"
        columns.append(tail)
    return ((row + "\n") * len(embedded)) % tuple(itertools.chain.from_iterable(zip(*columns)))


# -- subcommands -------------------------------------------------------------

def cmd_enumerate(args) -> Report:
    spec, ball = _group_ball(args)
    per_radius = ball.per_radius_counts()
    return Report(lambda: {
        "command": "enumerate",
        "group": spec.name,
        "field_d": spec.field.d,
        "radius": ball.radius,
        "size": ball.size,
        "complete": ball.complete,
        "per_radius": [{"radius": r, "cumulative": c} for r, c in per_radius],
    }, lambda: _table([["radius", "cumulative_size"], *per_radius]),
       lambda: _table(per_radius, " "))


def cmd_traces(args) -> Report:
    spec, ball = _group_ball(args)
    ts = trace_set(ball, reduced=not args.all)
    texts = list(map(format_quadelem, ts.exact))
    lengths = list(map(ts.provenance.__getitem__, ts.exact))
    return Report(lambda: {
        "command": "traces",
        "group": spec.name,
        "radius": ts.radius,
        "reduced": ts.reduced,
        "size": ts.size,
        "traces": [{"value": v, "re": z.real, "im": z.imag, "word_length": wl}
                   for v, z, wl in zip(texts, ts.embedded, lengths)],
    }, lambda: "trace,re,im,word_length\n" + _value_rows(ts.embedded, ",", texts, lengths),
       lambda: _value_rows(ts.embedded, " "))


def cmd_cluster(args) -> Report:
    spec, ball = _group_ball(args)
    ts = trace_set(ball)
    grid = cluster_counts(ts.embedded)
    cells = sorted(grid.counts.items())
    return Report(lambda: {
        "command": "cluster",
        "group": spec.name,
        "radius": ts.radius,
        "max_count": grid.max_count,
        "cells_touched": grid.cells_touched,
        "mass": grid.mass,
        "gap": gap(ts.embedded) if len(set(ts.embedded)) >= 2 else None,
        "growth_slope": growth_profile(ts.embedded, list(range(1, args.max_n + 1)))[1],
    }, lambda: _table([["cell", "m", "n", "count"],
                       *([idx, m, n, cnt] for idx, ((m, n), cnt) in enumerate(cells))]),
       lambda: _table(([m, n, cnt] for (m, n), cnt in cells), " "))


def cmd_gap(args) -> Report:
    spec, ball = _group_ball(args)
    ts = trace_set(ball)
    val = gap(ts.embedded)
    row = [ball.radius, _DEC % val]
    return Report(lambda: {"command": "gap", "group": spec.name, "radius": ts.radius,
                           "n_traces": ts.size, "gap": val},
                  lambda: _table([["radius", "gap"], row]), lambda: _table([row], " "))


def cmd_growth(args) -> Report:
    spec, ball = _group_ball(args)
    ts = trace_set(ball)
    ns = list(range(1, args.max_n + 1))
    counts, slope = growth_profile(ts.embedded, ns)
    return Report(lambda: {
        "command": "growth", "group": spec.name, "radius": ts.radius,
        "counts": [{"n": n, "count": c} for n, c in counts],
        "slope": slope,
    }, lambda: _table([["n", "count"], *counts]), lambda: _table(counts, " "))


def cmd_arith_check(args) -> Report:
    spec, ball = _group_ball(args)
    report = takeuchi_verdict(ball, pair_budget=args.pair_budget)
    growth = report.conjugate_growth
    csv_rows = [["key", "value"],
                ["radius", report.radius],
                ["trace_field_d", report.trace_field_d],
                ["integral", report.integral],
                ["verdict", report.verdict],
                ["conjugate_flag", growth.flag],
                ["elementary", report.elementary]]
    return Report(lambda: {"command": "arith-check", "group": spec.name,
                           "expected_class": spec.expected_class, **report.to_dict()},
                  lambda: _table(csv_rows),
                  lambda: _table(zip(growth.shells, map(_DEC.__mod__, growth.maxima)), " "))


# |z| above 2^1026 has no finite embedding, whatever rounding the float
# conversion does; four more bits leave room for the float estimate below
_FLOAT_LOG2_LIMIT = 1030


def _beyond_float_range(c: QuadElem, k_bound: int, n_bound: int, m1: int) -> bool:
    """True only when m1*k_bound*c^(2^n_bound), a member of Delta_c, certainly
    embeds beyond float range, decided without forming the power: |c| is
    compared exactly with a rational r >= 2^(T/2^n_bound), where
    T = 1030 - log2(m1*k_bound). Inputs it cannot decide that way (r within
    2^-900 of 1, or T <= 0) are left to the exact path."""
    if min(k_bound, n_bound, m1) < 1:
        return False
    y = math.ldexp(_FLOAT_LOG2_LIMIT - math.log2(m1 * k_bound), -n_bound)
    if y < 2.0 ** -900:
        return False
    # expm1 is within an ulp; 2^-20 of slack keeps r above the bound
    r = 1 + Fraction(math.expm1(y * math.log(2))) * (1 + Fraction(1, 2 ** 20))
    return c.abs_sign(r) > 0


def cmd_delta_c(args) -> Report:
    ring = _ring_from_flag(args.ring)
    c = parse_quadelem(args.c, ring.field)
    if args.witness is not None:
        wit = delta_c_cluster_witness(c, ring, args.witness, m1=args.m1)
        texts = list(map(format_quadelem, wit.points))
        embedded = embed_elements(wit.points)
        return Report(lambda: {
            "command": "delta-c-witness",
            "c": format_quadelem(c),
            "ring_d": ring.field.d,
            "n": wit.n,
            "f_values": list(wit.f_values),
            "exponents": list(wit.exponents),
            "p": format_quadelem(wit.p),
            "q": format_quadelem(wit.q),
            "points": texts,
            "max_deviation": wit.max_deviation(),
        }, lambda: "point,re,im\n" + _value_rows(embedded, ",", texts),
           lambda: _value_rows(embedded, " "))
    if _beyond_float_range(c, args.k_bound, args.n_bound, args.m1):
        raise PreconditionError(CELLS_NEED_FINITE_POINTS)
    dset = delta_c_set(c, ring, args.k_bound, args.n_bound, m1=args.m1, cap=_budget())
    # only the JSON object counts cells, yet every format rejects an
    # infinite or NaN value as counting cells would: _beyond_float_range
    # decides only the values certainly out of range
    if not all(map(cmath.isfinite, dset.embedded)):
        raise PreconditionError(CELLS_NEED_FINITE_POINTS)

    def payload():
        grid = cluster_counts(dset.embedded)
        return {
            "command": "delta-c",
            "c": format_quadelem(c),
            "ring_d": ring.field.d,
            "k_bound": args.k_bound,
            "n_bound": args.n_bound,
            "size": len(dset),
            "max_count": grid.max_count,
            "cells_touched": grid.cells_touched,
        }

    return Report(payload, lambda: "value,re,im\n" + _value_rows(
           dset.embedded, ",", dset.ring.format_values(dset.coords)),
       lambda: _value_rows(dset.embedded, " "))


def cmd_counting(args) -> Report:
    n, cap = args.N, _budget()
    if args.kind == "dn":
        ds = dn_set(n, cap)
        return Report(lambda: {"command": "counting", "kind": "dn", "N": n, "size": ds.size,
                               "lower_bound": n * math.log(n) - n},
                      lambda: _table([["k", "l"], *ds.tuples]), lambda: _table(ds.tuples, " "))
    if args.kind == "rn":
        rs = rn_set(n, cap)  # rn_set checks its size against the totient formula
        return Report(lambda: {"command": "counting", "kind": "rn", "N": n, "size": rs.size,
                               "totient_formula": rs.size, "ratio_n2": rs.size / (n * n)},
                      lambda: _table([["r1", "r2", "r3", "r4"], *rs.tuples]),
                      lambda: _table(rs.tuples, " "))
    if args.kind == "two-to-one":
        rep = rn_two_to_one_check(n)
        rows = [["n_tuples", rep.n_tuples], ["n_fibers", rep.n_fibers],
                ["max_fiber_size", rep.max_fiber_size], ["ok", rep.ok]]
        return Report(lambda: {"command": "counting", "kind": "two-to-one", "N": n,
                               "n_tuples": rep.n_tuples, "n_fibers": rep.n_fibers,
                               "max_fiber_size": rep.max_fiber_size,
                               "swap_fibers_ok": rep.swap_fibers_ok,
                               "diagonal_ok": rep.diagonal_ok, "ok": rep.ok},
                      lambda: _table([["key", "value"], *rows]), lambda: _table(rows, " "))
    rep = totient_sum_check(n, cap)
    rows = [["sum_phi", rep.sum_phi],
            ["ratio", _DEC % rep.ratio_to_asymptotic],
            ["pointwise_ok", rep.pointwise_ok]]
    return Report(lambda: {"command": "counting", "kind": "totient", "N": n,
                           "sum_phi": rep.sum_phi,
                           "ratio_to_asymptotic": rep.ratio_to_asymptotic,
                           "pointwise_ok": rep.pointwise_ok,
                           "pointwise_checked_from": rep.pointwise_checked_from},
                  lambda: _table([["key", "value"], *rows]), lambda: _table(rows, " "))


def cmd_kronecker(args) -> Report:
    env = kronecker_gap_demo(args.theta1, args.theta2, args.K, args.delta, _budget())

    def rows():
        return ([k, _DEC % m] for k, m in env)

    return Report(lambda: {
        "command": "kronecker", "theta1": args.theta1, "theta2": args.theta2,
        "K": args.K, "delta": args.delta,
        "final_min": env[-1][1],
        "envelope": [{"K": k, "min": m} for k, m in env],
    }, lambda: _table([["K", "min"], *rows()]), lambda: _table(rows(), " "))


def cmd_corollary(args) -> Report:
    spec, ball = _group_ball(args)
    ts = trace_set(ball)
    rep = subtraction_closure_check(ts, args.window)
    rows = [["closed", rep.closed], ["has_two", rep.has_two],
            ["has_four", rep.has_four], ["identities_ok", rep.identities_ok],
            ["pairs_checked", rep.pairs_checked]]
    return Report(lambda: {
        "command": "corollary", "group": spec.name, "radius": ts.radius,
        "window": str(rep.window), "closed": rep.closed,
        "violations": [[format_quadelem(a), format_quadelem(b), format_quadelem(d)]
                       for a, b, d in rep.violations],
        "has_two": rep.has_two, "has_four": rep.has_four,
        "identities_ok": rep.identities_ok, "pairs_checked": rep.pairs_checked,
    }, lambda: _table([["key", "value"], *rows]), lambda: _table(rows, " "))


# -- argument parsing --------------------------------------------------------

def _add_group_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--group", help="catalog group name, e.g. psl2z, hecke(5)")
    src.add_argument("--spec-file", help="path to a JSON group-spec file")
    p.add_argument("--radius", type=int, required=True, help="word-ball radius")
    p.add_argument("--cap", type=_non_negative_int, default=None,
                   help=f"element budget (default {DEFAULT_CAP}, env {BUDGET_ENV})")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "data"), default="json")
    p.add_argument("--output", help="write to this path instead of stdout")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error, in subcommands too, is one `error:` line, exit 2."""
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. A command runs as the cmd_*
    function of this module named after it, looked up at each call, so
    that a replacement of that name takes effect."""
    ap = _Parser(
        prog="tracelab",
        description="Exact trace-set experiments for matrix groups over "
                    "quadratic fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, group=False):
        p = sub.add_parser(name)
        if group:
            _add_group_args(p)
        _add_output_args(p)
        return p

    add("enumerate", group=True)
    p = add("traces", group=True)
    p.add_argument("--all", action="store_true",
                   help="include the identity trace (unreduced set)")
    p = add("cluster", group=True)
    p.add_argument("--max-n", type=int, default=20)
    add("gap", group=True)
    p = add("growth", group=True)
    p.add_argument("--max-n", type=int, default=20)
    p = add("arith-check", group=True)
    p.add_argument("--pair-budget", type=_non_negative_int, default=DEFAULT_PAIR_BUDGET)
    p = add("delta-c")
    p.add_argument("--c", required=True, help="the base value, e.g. 3/2")
    p.add_argument("--ring", required=True,
                   help="Z, or a squarefree d in {-1,-2,-3,-7,-11}")
    p.add_argument("--k-bound", type=int, default=100)
    p.add_argument("--n-bound", type=int, default=3)
    p.add_argument("--m1", type=int, default=1)
    p.add_argument("--witness", type=int, default=None,
                   help="emit the n-point clustering-failure witness instead")
    p = add("counting")
    p.add_argument("--kind", choices=("dn", "rn", "two-to-one", "totient"),
                   required=True)
    p.add_argument("--N", type=int, required=True)
    p = add("kronecker")
    p.add_argument("--theta1", type=_finite_float, required=True)
    p.add_argument("--theta2", type=_finite_float, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--delta", type=_finite_float, default=0.0)
    p = add("corollary", group=True)
    p.add_argument("--window", default="5")
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        command = globals()["cmd_" + args.command.replace("-", "_")]
        _emit(command(args), args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return 4
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
