#!/usr/bin/env python3
"""tracelab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload {ball_enum,catalog_verdicts,cli_analytics,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. tracelab is imported from `src/` of the same
checkout and driven in this one process, single-threaded. A run:

1. times `SETUP_PROBES` fresh interpreters that import tracelab and build
   the workload's inputs (`setup_s`);
2. runs one untimed warm-up pass, counts the elements the pass enumerates,
   and checks every output against `expected.json` and exact invariants;
3. with `--trace 0`, repeats timed passes, each in a seeded random op
   order, for `--seconds` seconds and reports the end-to-end metrics;
   with `--trace 1`, times two untraced passes, then traced passes, for
   `--seconds` seconds in all, and reports the per-layer metrics, the layer
   self-time shares, span coverage and tracing overhead, and writes the
   spans to `.bench_out/`.

Every pass output is compared with the warm-up output. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7
MIN_PASSES = 3
UNTRACED_PASSES = 2
MIN_TRACED_PASSES = 2


def _import_program():
    """Import tracelab from this checkout's src/, and nowhere else."""
    if not (SRC / "tracelab" / "__init__.py").is_file():
        raise SystemExit(f"error: no tracelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tracelab
    if Path(tracelab.__file__).resolve().parent != (SRC / "tracelab").resolve():
        raise SystemExit(f"error: imported tracelab from {tracelab.__file__}, not {SRC}")
    import tracing
    import workloads
    return workloads, tracing


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, task_id: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{task_id}: {why}")


def run_pass(fns, tasks, ledger: Ledger, order=None):
    """Call every task once, in `order` (default: list order); returns
    (pass seconds, op latencies, results), both lists in list order.
    A task that raises gets result None and counts as failed."""
    n = len(tasks)
    results, latencies = [None] * n, [0.0] * n
    clock = time.perf_counter
    start = clock()
    for i in range(n) if order is None else order:
        t0 = clock()
        try:
            results[i] = fns[i]()
        except Exception as exc:  # an op failure is counted, the run goes on
            ledger.fail(tasks[i].id, f"raised {type(exc).__name__}: {exc}")
        latencies[i] = clock() - t0
    elapsed = clock() - start
    ledger.attempted += n
    return elapsed, latencies, results


def check_pass(tasks, results, reference, ledger: Ledger) -> list:
    """Summaries of one pass; an op fails on a problem or on a summary that
    differs from `reference` (the warm-up pass), when one is given."""
    summaries = []
    for i, (task, result) in enumerate(zip(tasks, results)):
        if result is None:
            summaries.append(None)
            continue
        summary, problems = task.check(result)
        if reference is not None and summary != reference[i]:
            problems.append("output differs from the warm-up pass")
        if problems:
            ledger.fail(task.id, "; ".join(problems))
        summaries.append(summary)
    return summaries


def check_expected(workloads, name: str, seed: int, tasks, summaries, ledger) -> None:
    """Compare the warm-up summaries with those captured at the default seed.
    Seeded tasks are compared only at the default seed; at any other seed
    their exact invariants in `Task.check` stand in."""
    expected = json.loads((HERE / "expected.json").read_text())["workloads"][name]
    for task, summary in zip(tasks, summaries):
        if summary is None or (task.seeded and seed != workloads.DEFAULT_SEED):
            continue
        want = expected.get(task.id)
        if want is None:
            ledger.fail(task.id, "no expected output recorded")
        elif summary != want:
            keys = sorted(k for k in want if summary.get(k) != want[k])
            ledger.fail(task.id, f"differs from expected.json in {keys}")


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import tracelab and build
    the workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


def timed_passes(tasks, seconds: float, min_passes: int, reference, ledger,
                 rng=None):
    """Repeat passes until `min_passes` ran and `seconds` have gone by, less
    half a pass, so that the passes take `seconds` on average. With `rng`,
    each pass runs the ops in a fresh random order: an op's samples then fall
    at scattered times of the run rather than at one point of every pass."""
    fns = [t.fn for t in tasks]
    pass_times, latencies = [], []
    deadline = time.perf_counter() + seconds
    while (len(pass_times) < min_passes or
           time.perf_counter() + statistics.median(pass_times) / 2 < deadline):
        order = None
        if rng is not None:
            order = list(range(len(tasks)))
            rng.shuffle(order)
        gc.collect()
        elapsed, lat, results = run_pass(fns, tasks, ledger, order)
        check_pass(tasks, results, reference, ledger)
        pass_times.append(elapsed)
        latencies += lat
    return pass_times, latencies


def end_to_end(name, seed, seconds, tasks, reference, elements, ledger) -> dict:
    setup_s = measure_setup(name, seed)
    pass_times, latencies = timed_passes(tasks, seconds, MIN_PASSES, reference, ledger,
                                         random.Random(f"{seed}:order"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(pass_times)
    print(f"# {name}: {len(pass_times)} passes of {len(tasks)} ops; pass seconds "
          + " ".join(f"{t:.4f}" for t in pass_times))
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "elements_per_s": (elements / wall_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
    }


# -- traced run -------------------------------------------------------------

class SpanIndex:
    """Queries over the spans and leaves a Tracer recorded."""

    def __init__(self, tracer):
        self.spans = tracer.spans
        self.by_id = {s[0]: s for s in tracer.spans}
        self.leaves = tracer.leaves

    def _has_ancestor_in(self, span, names) -> bool:
        parent = span[2]
        while parent is not None:
            p = self.by_id[parent]
            if p[1] in names:
                return True
            parent = p[2]
        return False

    def inclusive(self, *names) -> float:
        """Time inside spans of these names, each nested call counted once."""
        return sum(s[4] - s[3] for s in self.spans
                   if s[1] in names and not self._has_ancestor_in(s, names))

    def self_time(self, *names) -> float:
        return sum(s[5] for s in self.spans if s[1] in names)

    def calls(self, *names) -> int:
        return sum(1 for s in self.spans if s[1] in names)

    def count(self, name: str, index=None) -> int:
        return sum(s[6] if index is None else (s[6][index] if s[6] else 0)
                   for s in self.spans if s[1] == name)

    def leaf(self, name: str, within=None, field: int = 0):
        return sum(v[field] for (n, w), v in self.leaves.items()
                   if n == name and (within is None or w == within))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracing, idx: SpanIndex, n_passes: int, untraced_s: float,
                  bytes_per_element: float) -> dict:
    """Per-layer metrics per traced pass; see README.md for what each moves."""
    per = 1.0 / n_passes
    mul = "psl2.ProjMat.__mul__"
    products = idx.leaf(mul)
    enum_products = idx.leaf(mul, "groups.enumerate_ball")
    enum_new = idx.count("groups.enumerate_ball") - idx.calls("groups.enumerate_ball")
    g2_products = idx.leaf(mul, "groups.gamma2_ball")
    closure_pairs = idx.count("arithmeticity.subtraction_closure_check", 0)
    closure_all = idx.count("arithmeticity.subtraction_closure_check", 1)
    cmds = tuple(f"cli.{c}" for c in tracing.CLI_COMMANDS)
    render = "cli.Report.render"

    passes = [s for s in idx.spans if s[1] == "bench.pass"]
    pass_total = sum(s[4] - s[3] for s in passes)
    op_ids = {s[0]: s[2] for s in idx.spans if s[1].startswith("bench.op:")}
    covered = {p[0]: 0.0 for p in passes}
    for s in idx.spans:
        if s[2] in op_ids and not s[1].startswith("bench."):
            covered[op_ids[s[2]]] += s[4] - s[3]
    coverage = min(covered[p[0]] / (p[4] - p[3]) for p in passes)

    layer_self = {layer: 0.0 for layer in (*tracing.LAYERS, "bench")}
    for s in idx.spans:
        layer_self[tracing.layer_of(s[1])] += s[5]
    for (name, _), (_, _, self_s) in idx.leaves.items():
        layer_self[tracing.layer_of(name)] += self_s

    m = {
        "qfield.mul_calls": (idx.leaf("qfield.QuadElem.__mul__") * per, "count"),
        "qfield.addsub_calls": (sum(idx.leaf(f"qfield.QuadElem.{a}")
                                    for a in tracing.QFIELD_ADD) * per, "count"),
        "psl2.products": (products * per, "count"),
        "psl2.product_s": (idx.leaf(mul, field=1) * per, "s"),
        "psl2.product_us": (_ratio(idx.leaf(mul, field=1), products) * 1e6, "us"),
        "groups.enumerate_self_s": (idx.self_time("groups.enumerate_ball") * per, "s"),
        "groups.enumerate_new_ratio": (_ratio(enum_new, enum_products), "ratio"),
        "groups.bytes_per_element": (bytes_per_element, "B"),
        "groups.trace_set_s": (idx.inclusive("groups.trace_set") * per, "s"),
        "groups.gamma2_s": (idx.inclusive("groups.gamma2_ball") * per, "s"),
        "groups.gamma2_products": (g2_products * per, "count"),
        "groups.gamma2_new_ratio": (_ratio(idx.count("groups.gamma2_ball"), g2_products),
                                    "ratio"),
        "arithmeticity.verdict_self_s": (
            idx.self_time("arithmeticity.takeuchi_verdict") * per, "s"),
        "arithmeticity.integrality_s": (
            idx.inclusive("arithmeticity.integrality_check") * per, "s"),
        "arithmeticity.conjugate_growth_s": (
            idx.inclusive("arithmeticity.conjugate_boundedness") * per, "s"),
        "arithmeticity.conjugate_growth_work": (
            idx.count("arithmeticity.conjugate_boundedness") * per, "count"),
        "arithmeticity.closure_s": (
            idx.inclusive("arithmeticity.subtraction_closure_check") * per, "s"),
        "arithmeticity.closure_pairs": (closure_pairs * per, "count"),
        "arithmeticity.closure_window_ratio": (_ratio(closure_pairs, closure_all), "ratio"),
        "analytics.delta_c_s": (idx.inclusive("analytics.delta_c_set") * per, "s"),
        "analytics.delta_c_values": (idx.count("analytics.delta_c_set") * per, "count"),
        "analytics.cluster_s": (idx.inclusive("analytics.cluster_counts") * per, "s"),
        "analytics.cluster_points": (idx.count("analytics.cluster_counts") * per, "count"),
        "analytics.gap_s": (idx.inclusive("analytics.gap") * per, "s"),
        "analytics.gap_points": (idx.count("analytics.gap") * per, "count"),
        "analytics.growth_s": (idx.inclusive("analytics.growth_profile") * per, "s"),
        "analytics.growth_points": (idx.count("analytics.growth_profile") * per, "count"),
        "analytics.counting_s": (idx.inclusive(
            "analytics.dn_set", "analytics.rn_set", "analytics.rn_two_to_one_check",
            "analytics.totient_sum_check", "analytics.totients") * per, "s"),
        "analytics.witness_s": (
            idx.inclusive("analytics.delta_c_cluster_witness") * per, "s"),
        "analytics.kronecker_s": (idx.inclusive("analytics.kronecker_gap_demo") * per, "s"),
        "cli.render_s": (idx.inclusive(render) * per, "s"),
        "cli.render_bytes": (idx.count(render) * per, "count"),
        "cli.command_self_s": (idx.self_time(*cmds) * per, "s"),
        "cli.main_overhead_s": ((idx.inclusive("cli.main") - idx.inclusive(*cmds)
                                 - idx.inclusive(render)) * per, "s"),
    }
    for layer, self_s in layer_self.items():
        m[f"share.{layer}"] = (_ratio(self_s, pass_total), "ratio")
    m["share.products"] = (_ratio(idx.leaf(mul, field=1), pass_total), "ratio")
    m["trace.coverage"] = (coverage, "ratio")
    m["trace.overhead"] = (_ratio(pass_total * per, untraced_s), "ratio")
    m["trace.spans"] = (len(idx.spans) * per, "count")
    return m


def bytes_per_element(tracing, workloads, tasks, idx: SpanIndex) -> float:
    """tracemalloc peak over ball size for the largest ball a task
    enumerated in the traced passes; 0 when no task enumerates."""
    best = None
    for s in idx.spans:
        if s[1] == "groups.enumerate_ball" and (best is None or s[6] > best[6]):
            best = s
    if best is None:
        return 0.0
    op = best
    while not op[1].startswith("bench.op:"):
        op = idx.by_id[op[2]]
    task = next(t for t in tasks if op[1] == f"bench.op:{t.id}")
    found = []

    def measuring(name, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ball = fn(*args, **kwargs)
            found.append((ball.size, tracemalloc.get_traced_memory()[1] - base))
            return ball
        return wrapper

    patcher = tracing.Patcher([workloads])
    patcher.function(tracing.groups, "enumerate_ball", measuring)
    tracemalloc.start()
    try:
        task.fn()
    finally:
        tracemalloc.stop()
        patcher.restore()
    size, peak = max(found)
    return peak / size


def per_layer(name, seed, seconds, tasks, reference, ledger, workloads, tracing) -> dict:
    """Untraced passes for the overhead baseline, then traced passes, all
    within `seconds` once the minimum pass counts are met."""
    deadline = time.perf_counter() + seconds
    untraced, _ = timed_passes(tasks, 0, UNTRACED_PASSES, reference, ledger)
    tracer = tracing.Tracer([workloads])
    op_fns = [tracer.span(f"bench.op:{t.id}", t.fn) for t in tasks]
    n_traced = 0
    while n_traced < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        gc.collect()
        tracer.install()
        try:
            _, _, results = tracer.span("bench.pass", run_pass)(op_fns, tasks, ledger)
        finally:
            tracer.uninstall()
        check_pass(tasks, results, reference, ledger)
        n_traced += 1
    idx = SpanIndex(tracer)
    bpe = bytes_per_element(tracing, workloads, tasks, idx)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(path)
    print(f"# {name}: {n_traced} traced passes; spans written to {path.relative_to(ROOT)}")
    return layer_metrics(tracing, idx, n_traced, statistics.median(untraced), bpe)


# -- entry point ------------------------------------------------------------

def run_workload(workloads, tracing, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    ledger = Ledger()
    tasks = workloads.build(name, seed)
    with tracing.ElementCounter([workloads]) as counter:
        _, _, results = run_pass([t.fn for t in tasks], tasks, ledger)
    reference = check_pass(tasks, results, None, ledger)
    del results
    check_expected(workloads, name, seed, tasks, reference, ledger)
    if trace:
        metrics = per_layer(name, seed, seconds, tasks, reference, ledger,
                            workloads, tracing)
    else:
        metrics = end_to_end(name, seed, seconds, tasks, reference,
                             counter.elements, ledger)
    for problem in ledger.problems:
        print(f"# FAILED {problem}")
    for key, (value, unit) in metrics.items():
        print(f"# {key} = {value!r} {unit}")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ball_enum", "catalog_verdicts", "cli_analytics", "all"))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the seed expected.json was captured at)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workloads, tracing = _import_program()
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.setup_probe:
        for name in names:
            workloads.build(name, seed)
        return 0
    for name in names:
        result = run_workload(workloads, tracing, name, seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
