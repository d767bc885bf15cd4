"""Acceptance checklist: every criterion below runs at its stated tolerance
and prints one PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 4b contrasts Delta_2, a subset of 2Z that puts at most one point in
a unit cell at every truncation, with Delta_{3/2}, which puts five in one. Each
scale (3/2)^(2^n) >= 3/2 contributes at most one point to a half-open unit
cell, so a five-point cell needs a point from each scale n = 0..4. An exact
search over the cells of the n = 4 scale finds the first such cell at
m = -173406, with k = -115604, -77069, -34253, -6766, -264; the first positive
one is m = 1571820. The five-point claim therefore cannot hold at
k_bound = 10^4 (the maximum there is 4); the test checks it at
k_bound = 115604, the least bound at which it holds, and checks the
maximum of 4 at k_bound = 10^4 exactly.
"""

import math
import random
import time
from collections import defaultdict
from fractions import Fraction

import mpmath
import pytest

from tracelab import (FieldDesc, Mat2, QQ, QuadElem, RingOfIntegers,
                      an_iteration, an_step, catalog, cluster_counts,
                      delta_c_cluster_witness, delta_c_set, dn_set,
                      enumerate_ball, enumerate_largest_ball, f_map, gap,
                      is_delta_c_member, kronecker_gap_demo,
                      parabolic_shift_trace, parse_quadelem,
                      ring_of_integers, rn_set, rn_two_to_one_check,
                      subtraction_closure_check, takeuchi_verdict,
                      totient_sum_check, totients, trace_set)
from tracelab.arithmeticity import (FLAG_UNBOUNDED, VERDICT_CONSISTENT,
                                    VERDICT_WITNESS,
                                    check_square_trace_identities)
from tracelab.cli import main as cli_main

from conftest import rand_elem, rand_mat

FI = FieldDesc(-1)


def q(a, b=0, field=QQ):
    return QuadElem.of(a, b, field)


def report(cid: str, checks: list, elapsed: float, budget: float):
    ok = all(passed for _, passed in checks) and elapsed < budget
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s/{budget:.0f}s)"
    bad = [name for name, passed in checks if not passed]
    if bad:
        line += " failing: " + "; ".join(bad)
    print(line)
    assert not bad, f"criterion {cid} failed: {bad}"
    assert elapsed < budget, f"criterion {cid} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_exact_algebra_suite():
    t0 = time.perf_counter()
    rng = random.Random(1)
    checks = []
    fields = [FieldDesc(d) for d in (-1, -2, -3, -7, -11, 2, 3, 5)]
    rings = {f.d: ring_of_integers(f) for f in fields}

    ok = True
    for _ in range(1000):
        f = rng.choice(fields)
        x, y = rand_elem(rng, f), rand_elem(rng, f)
        ok &= (x * y).norm() == x.norm() * y.norm()
    checks.append(("norm multiplicativity x1000", ok))

    ok = True
    for _ in range(1000):
        f = rng.choice(fields)
        x, y = rand_elem(rng, f), rand_elem(rng, f)
        ok &= (x + y).trace() == x.trace() + y.trace()
    checks.append(("trace additivity x1000", ok))

    ok = True
    for _ in range(1000):
        f = rng.choice(fields)
        x = rand_elem(rng, f, den_max=12)
        ok &= x.is_algebraic_integer() == rings[f.d].contains(x)
    checks.append(("integrality iff lattice membership x1000", ok))

    pools = {f.d: [rand_mat(rng, f) for _ in range(40)]
             for f in (QQ, FI, FieldDesc(5))}
    ok = True
    count = 0
    while count < 1000:
        pool = pools[rng.choice([None, -1, 5])]
        m = rng.choice(pool) * rng.choice(pool)
        det = m.det()
        ok &= det.a == 1 and det.b == 0
        count += 1
    checks.append(("det-1 preservation x1000", ok))

    mats = pools[None] + pools[-1] + pools[5]
    ok = True
    for i in range(1000):
        m = mats[i % len(mats)]
        t = m.trace()
        ok &= (m * m).trace() == t * t - 2
    checks.append(("tr(A^2) = tr(A)^2 - 2 x1000", ok))

    ok = True
    count = 0
    while count < 1000:
        b = mats[count % len(mats)]
        traces = [Mat2.identity(b.field).trace()] + [
            (b ** n).trace() for n in range(1, 9)]
        for n in range(2, 9):
            ok &= traces[n] == b.trace() * traces[n - 1] - traces[n - 2]
            count += 1
    checks.append(("power-trace recursion x1000", ok))

    report("1 exact-algebra", checks, time.perf_counter() - t0, 10.0)


def test_criterion_2_an_gadget():
    t0 = time.perf_counter()
    rng = random.Random(2)
    checks = []
    closed_form_ok = True
    powers_ok = True
    shift_ok = True
    for i in range(50):
        field = QQ if i < 25 else FI
        m = rand_mat(rng, field)
        a, c = m.a, m.c
        step = an_step(m)
        closed_form_ok &= (step.a == 1 + a * c + c * c
                           and step.b == 1 - a * c - a * a
                           and step.c == c * c
                           and step.d == 1 - a * c)
        for n in range(1, 6):
            mn = an_iteration(m, n)
            cpow = c ** (2 ** n)
            powers_ok &= mn.c == cpow and mn.trace() == cpow + 2
            if n <= 2:
                for k in range(-5, 6):
                    shift_ok &= parabolic_shift_trace(mn, k) == cpow * (k + 1) + 2
    checks.append(("step matches printed closed form (50 matrices)", closed_form_ok))
    checks.append(("lower-left c^(2^n), trace 2+c^(2^n), n <= 5", powers_ok))
    checks.append(("shift trace 2+(k+1)c^(2^n), k in [-5,5]", shift_ok))
    report("2 squaring-gadget", checks, time.perf_counter() - t0, 5.0)


def test_criterion_3_counting_lemmas():
    t0 = time.perf_counter()
    checks = []

    dn_ok = True
    for n in (10, 100, 1000):
        size = dn_set(n).size
        dn_ok &= size >= n * math.log(n) - n
        dn_ok &= size == sum(n // k for k in range(1, n + 1))
    checks.append(("#D_N >= N ln N - N for N in {10,100,1000}", dn_ok))

    # single enumeration at 400; membership in R_N is r1*r3 <= N
    rn400 = rn_set(400)
    fibers = defaultdict(list)
    for u in rn400.tuples:
        fibers[f_map(*u)].append(u)
    max_fiber = max(len(v) for v in fibers.values())
    swap_ok = all(v[1] == (v[0][2], v[0][3], v[0][0], v[0][1])
                  for v in fibers.values() if len(v) == 2)
    diag_ok = all(len(v) == 1 for v in fibers.values()
                  if any(u[:2] == u[2:] for u in v))
    checks.append(("fibers at N=400: size <= 2, swaps, diagonal",
                   max_fiber <= 2 and swap_ok and diag_ok))

    # the threshold r1*r3 decides membership for every N <= 400: fibers of
    # R_N are restrictions of the (verified) fibers of R_400, so the three
    # properties hold for all N; confirm the threshold and spot-check
    threshold_ok = True
    for n in (1, 7, 50, 123):
        direct = set(rn_set(n).tuples)
        derived = {u for u in rn400.tuples if u[0] * u[2] <= n}
        threshold_ok &= direct == derived
    literal_ok = all(rn_two_to_one_check(n).ok
                     for n in (1, 2, 3, 5, 8, 13, 21, 50, 100, 237, 400))
    checks.append(("two-to-one exhaustive for all N <= 400",
                   threshold_ok and literal_ok))

    # #R_N equals the totient double-sum formula for every N <= 400
    by_threshold = defaultdict(int)
    for u in rn400.tuples:
        by_threshold[u[0] * u[2]] += 1
    phi = totients(400)
    prefix = [0]
    for m in range(1, 401):
        prefix.append(prefix[-1] + phi[m])
    formula_ok = True
    running = 0
    sizes = {}
    for n in range(1, 401):
        running += by_threshold.get(n, 0)
        sizes[n] = running
        formula = sum(phi[i] * prefix[n // i] for i in range(1, n + 1))
        formula_ok &= running == formula
    checks.append(("#R_N = sum-phi formula for all N <= 400", formula_ok))

    ratios = [sizes[n] / (n * n) for n in (50, 100, 200, 400)]
    checks.append(("#R_N/N^2 strictly increasing over {50,100,200,400}",
                   all(b > a for a, b in zip(ratios, ratios[1:]))))

    rep10 = totient_sum_check(10)
    rep4 = totient_sum_check(10 ** 4)
    checks.append(("sum phi(n<=10) = 32", rep10.sum_phi == 32))
    checks.append(("ratio to (3/pi^2)N^2 in [0.9, 1.1] at N=10^4",
                   0.9 <= rep4.ratio_to_asymptotic <= 1.1))
    checks.append(("pointwise totient lower bound to 10^4", rep4.pointwise_ok))

    report("3 counting-lemmas", checks, time.perf_counter() - t0, 60.0)


WITNESS_CASES = [
    ("3/2", None), ("5/3", None),
    ("1/2+1/2*sqrt(-1)", -1), ("3/2-3/2*sqrt(-1)", -1),
]


def test_criterion_4a_delta_witness_families():
    t0 = time.perf_counter()
    checks = []
    for ctext, d in WITNESS_CASES:
        ring = (RingOfIntegers(QQ) if d is None
                else ring_of_integers(FieldDesc(d)))
        c = parse_quadelem(ctext, ring.field)
        for n in (2, 3, 4):
            wit = delta_c_cluster_witness(c, ring, n)
            distinct = len(set(wit.points)) == n + 1
            members = all(
                ring.contains(x) and z == x * wit.m1 * c ** (2 ** e)
                and is_delta_c_member(z, c, ring, e, wit.m1)
                for z, x, e in zip(wit.points, wit.lattice_factors, wit.exponents))
            with mpmath.workdps(30):
                half = mpmath.mpf(1) / 2
                devs_ok = True
                for z in wit.points:
                    nrm = (z - wit.points[0]).norm()
                    dev = mpmath.sqrt(mpmath.mpf(nrm.numerator)
                                      / mpmath.mpf(nrm.denominator))
                    devs_ok &= dev <= half
            diameter_ok = wit.max_deviation() * 2 <= 1.0
            checks.append((f"witness c={ctext} n={n}",
                           distinct and members and devs_ok and diameter_ok))
    report("4a delta-witnesses", checks, time.perf_counter() - t0, 60.0)


# Delta_{3/2}: the first unit cell holding one distinct nonzero point from each
# of the five scales n = 0..4, and the k that put each scale's point there
FIVE_SCALE_CELL = -173406
FIVE_SCALE_KS = (-115604, -77069, -34253, -6766, -264)


def test_criterion_4b_clustering_contrast():
    """Delta_2 clusters boundedly; Delta_{3/2} puts five points in one cell
    from k_bound = 115604 on (see the module docstring)."""
    t0 = time.perf_counter()
    zz = RingOfIntegers(QQ)
    c = q(Fraction(3, 2))
    k_stated, n_bound = 10 ** 4, 4
    k_five = abs(FIVE_SCALE_KS[0])
    cell = (FIVE_SCALE_CELL, 0)

    integral_vals = delta_c_set(q(2), zz, k_stated, n_bound)
    integral_max = cluster_counts(integral_vals.embedded).max_count

    stated_vals = delta_c_set(c, zz, k_stated, n_bound)
    stated_max = cluster_counts(stated_vals.embedded).max_count

    five_grid = cluster_counts(delta_c_set(c, zz, k_five, n_bound).embedded)
    crowded = sorted(m for m, cnt in five_grid.counts.items() if cnt >= 5)

    # companion: the five exact values in the cell, one per scale
    window_vals = set()
    scales_ok = True
    for n, k_listed in enumerate(FIVE_SCALE_KS):
        ratio = Fraction(3, 2) ** (2 ** n)
        k = math.ceil(Fraction(FIVE_SCALE_CELL) / ratio)
        val = k * ratio
        scales_ok &= (k == k_listed
                      and FIVE_SCALE_CELL <= val < FIVE_SCALE_CELL + 1
                      and is_delta_c_member(q(val), c, zz, n))
        window_vals.add(val)

    # minimality: truncations are nested in k_bound, so a five-point cell
    # below k_bound = 115604 would be this cell with the same five points,
    # but its point -173406 = -115604 * 3/2 lies only on the n = 0 scale
    corner = q(FIVE_SCALE_CELL)
    corner_only_n0 = (
        FIVE_SCALE_CELL in window_vals
        and is_delta_c_member(corner, c, zz, 0)
        and corner / c == q(FIVE_SCALE_KS[0])
        and not any(is_delta_c_member(corner, c, zz, e)
                    for e in range(1, n_bound + 1)))

    checks = [
        ("integral c=2 max_count <= 2 at k=10^4, n=4", integral_max <= 2),
        ("non-integral c=3/2 max_count == 4 at k=10^4, n=4 "
         f"(actual {stated_max})", stated_max == 4),
        ("companion: five distinct values of Delta_{3/2} in [-173406, -173405)",
         len(window_vals) == 5 and scales_ok),
        ("non-integral c=3/2: cell (-173406, 0) is the only cell with >= 5 "
         f"points and holds exactly 5 at k=115604, n=4 (cells {crowded})",
         crowded == [cell] and five_grid.counts.get(cell) == 5),
        ("minimality: -173406 is in Delta_{3/2} only at n=0, k=-115604",
         corner_only_n0),
    ]
    report("4b clustering-contrast", checks, time.perf_counter() - t0, 60.0)


def test_criterion_5_catalog_verdicts():
    t0 = time.perf_counter()
    checks = []
    cap = 5_000_000

    psl2z = enumerate_largest_ball(catalog("psl2z"), 10, cap)
    assert psl2z.radius >= 6
    rep = takeuchi_verdict(psl2z)
    checks.append(("psl2z: integral, field Q, consistent",
                   rep.integral and rep.trace_field_d is None
                   and rep.verdict == VERDICT_CONSISTENT))

    for name in ("bianchi(-1)", "bianchi(-3)"):
        ball = enumerate_largest_ball(catalog(name), 10, cap)
        assert ball.radius >= 6
        rep = takeuchi_verdict(ball)
        ts = trace_set(ball)
        shells = [ball.radius - 4, ball.radius - 2, ball.radius]
        max_counts = [cluster_counts(ts.restrict(s).embedded).max_count
                      for s in shells]
        checks.append((f"{name}: integral, K imaginary quadratic, consistent",
                       rep.integral and rep.trace_field_d is not None
                       and rep.trace_field_d < 0
                       and rep.verdict == VERDICT_CONSISTENT))
        checks.append((f"{name}: cluster max_count flat across L={shells}",
                       max_counts[0] == max_counts[1] == max_counts[2]))

    h5_10 = enumerate_largest_ball(catalog("hecke(5)"), 10, cap)
    rep5 = takeuchi_verdict(h5_10)
    checks.append(("hecke(5): non-arithmetic witness via conjugate growth",
                   rep5.verdict == VERDICT_WITNESS
                   and rep5.conjugate_growth.flag == FLAG_UNBOUNDED))

    h5_12 = enumerate_largest_ball(catalog("hecke(5)"), 12, cap)
    ts12 = trace_set(h5_12)
    gaps = [gap(ts12.restrict(L).embedded) for L in (4, 8, 12)]
    checks.append(("hecke(5): gap strictly decreasing across L in {4,8,12}",
                   gaps[0] > gaps[1] > gaps[2]))
    checks.append(("hecke(5): gap < 0.1 by L=12", gaps[2] < 0.1))

    h4 = enumerate_largest_ball(catalog("hecke(4)"), 10, cap)
    rep4 = takeuchi_verdict(h4)
    checks.append(("hecke(4): consistent (arithmetic)",
                   rep4.verdict == VERDICT_CONSISTENT))

    report("5 catalog-verdicts", checks, time.perf_counter() - t0, 600.0)


def test_criterion_6_kronecker_demo():
    t0 = time.perf_counter()
    env = kronecker_gap_demo(math.sqrt(2), 1.0, 100)
    vals = [m for _, m in env]

    s2 = math.sqrt(2)
    best, p0, q0, p1, q1 = float("inf"), 1, 0, 1, 1
    for a in [2] * 30:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > 100 or p1 > 100:
            break
        best = min(best, abs(q1 * s2 - p1))

    checks = [
        ("envelope non-increasing", all(b <= a for a, b in zip(vals, vals[1:]))),
        ("min < 0.01 by K=100", vals[-1] < 0.01),
        ("matches continued-fraction oracle to 1e-12",
         abs(vals[-1] - best) < 1e-12),
    ]
    report("6 kronecker-demo", checks, time.perf_counter() - t0, 1.0)


def test_criterion_7_corollary_suite():
    t0 = time.perf_counter()
    ball = enumerate_ball(catalog("psl2z"), 8)
    rep = subtraction_closure_check(trace_set(ball), 5)
    checks = [
        ("polynomial identities hold", check_square_trace_identities()),
        ("psl2z L=8 closed under subtraction within W=5", rep.closed),
        ("2 and 4 in the trace set", rep.has_two and rep.has_four),
    ]
    report("7 corollary-suite", checks, time.perf_counter() - t0, 5.0)


CLI_COMMANDS = [
    ["enumerate", "--group", "psl2z", "--radius", "5"],
    ["traces", "--group", "hecke(5)", "--radius", "5"],
    ["cluster", "--group", "bianchi(-1)", "--radius", "5"],
    ["gap", "--group", "psl2z", "--radius", "5"],
    ["growth", "--group", "psl2z", "--radius", "5"],
    ["arith-check", "--group", "hecke(5)", "--radius", "6", "--pair-budget", "2000"],
    ["delta-c", "--c", "3/2", "--ring", "Z", "--k-bound", "50", "--n-bound", "3"],
    ["delta-c", "--c", "3/2-3/2*sqrt(-1)", "--ring", "-1", "--witness", "3"],
    ["counting", "--kind", "dn", "--N", "40"],
    ["counting", "--kind", "rn", "--N", "25"],
    ["counting", "--kind", "two-to-one", "--N", "40"],
    ["counting", "--kind", "totient", "--N", "100"],
    ["kronecker", "--theta1", "1.4142135623730951", "--theta2", "1", "--K", "50"],
    ["corollary", "--group", "psl2z", "--radius", "6", "--window", "4"],
]


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    checks = []
    for i, argv in enumerate(CLI_COMMANDS):
        identical = True
        for fmt in ("json", "csv", "data"):
            a = tmp_path / f"{i}_{fmt}_a"
            b = tmp_path / f"{i}_{fmt}_b"
            code_a = cli_main(argv + ["--format", fmt, "--output", str(a)])
            code_b = cli_main(argv + ["--format", fmt, "--output", str(b)])
            identical &= code_a == 0 and code_b == 0
            identical &= a.read_bytes() == b.read_bytes()
        checks.append((" ".join(argv[:2]), identical))
    report("8 cli-determinism", checks, time.perf_counter() - t0, 300.0)
