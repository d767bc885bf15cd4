import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import tracelab

from tracelab import (BudgetExceededError, FieldDesc, FieldMismatchError, PreconditionError,
                      QQ, QuadElem, RingOfIntegers, catalog, cluster_counts,
                      delta_c_cluster_witness, delta_c_set, dn_set,
                      enumerate_ball, f_map, g_map, gap, growth_count,
                      growth_profile, is_delta_c_member, kronecker_gap_demo,
                      omega_collision_scan, ring_of_integers, rn_set,
                      rn_two_to_one_check, theta_map, totient_sum_check,
                      totients, trace_set)

from tracelab import analytics, qfield
from tracelab.analytics import POWER_BIT_BUDGET, WITNESS_BIT_BUDGET
from tracelab.qfield import prime_power_factor

from conftest import (KRONECKER_SPECIALS, delta_c_reference, kronecker_reference,
                      rn_reference, two_to_one_reference)
from test_acceptance import CLI_COMMANDS
from test_golden import golden_path

FI = FieldDesc(-1)


def q(a, b=0, field=QQ):
    return QuadElem.of(a, b, field)


class TestCluster:
    def test_small_example(self):
        grid = cluster_counts([0.5, 1.5, 1.6, 2.9])
        assert grid.max_count == 2
        assert grid.counts[(1, 0)] == 2
        assert grid.cells_touched == 3

    def test_mass_conservation(self):
        pts = [0.1, 0.2, 5.5, -3.3, 2 + 1j, 2.5 + 1.5j]
        grid = cluster_counts(pts)
        assert grid.mass == len(pts)

    def test_half_open_boundary(self):
        grid = cluster_counts([1.0, 0.999999, 2.0])
        assert grid.counts[(1, 0)] == 1
        assert grid.counts[(0, 0)] == 1
        assert grid.counts[(2, 0)] == 1

    @pytest.mark.parametrize("point", [math.inf, -math.inf, math.nan,
                                       complex(0, math.inf), complex(math.nan, 0)])
    def test_non_finite_point_is_a_precondition(self, point):
        with pytest.raises(PreconditionError, match="finite points"):
            cluster_counts([0.5, point])

    def test_integer_traces_one_per_cell(self):
        ts = trace_set(enumerate_ball(catalog("psl2z"), 6))
        grid = cluster_counts(ts.embedded)
        assert grid.max_count == 1

    def test_hecke5_max_count_grows(self):
        ts = trace_set(enumerate_ball(catalog("hecke(5)"), 10))
        low = cluster_counts(ts.restrict(6).embedded).max_count
        high = cluster_counts(ts.restrict(10).embedded).max_count
        assert high > low


class TestGapGrowth:
    def test_gap_examples(self):
        assert gap([2, 3, 5]) == 1
        assert gap(trace_set(enumerate_ball(catalog("psl2z"), 6)).embedded) == 1.0

    def test_gap_needs_two_points(self):
        with pytest.raises(PreconditionError):
            gap([1.0])

    def test_complex_gap_matches_full_scan(self):
        pts = [complex(m, n * 0.866) for m in range(6) for n in range(6)]
        pts += [0.3 + 0.25j, 5.9 + 4.33j]
        oracle = min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:])
        assert abs(gap(pts) - oracle) < 1e-15

    def test_far_apart_points(self):
        assert gap([0.0, 10.0 + 3j, 20.0]) == abs(10 + 3j - 20)

    def test_moduli_beyond_float_range_are_inf(self):
        # |z| of a finite z may pass the float maximum: abs() raises there,
        # and gap and growth_count read it as +inf
        far = complex(1.3e308, 1.3e308)
        assert gap([2, far]) == math.inf
        assert gap([2, 1.3e308, complex(2, 1.3e308), complex(2, -1.3e308)]) == 1.3e308
        assert growth_count([2, far], 1e308) == 1
        assert growth_count([2, far], math.inf) == 2

    def test_growth_count_and_slope(self):
        pts = list(range(-10, 11))
        assert growth_count(pts, 5) == 11
        counts, slope = growth_profile(pts, list(range(1, 11)))
        assert counts[0] == (1, 3)
        assert abs(slope - 2.0) < 0.2


class TestThetaOmega:
    def test_zero(self):
        assert theta_map(q(1), q(1), q(2), q(1), 0, 0) == q(0)

    def test_degenerate_family_collides_per_l(self):
        # a = b = 0: value is l*c, so each fiber is a full row of k values
        rep = omega_collision_scan(q(0), q(0), q(2), q(1), 5)
        assert rep.n_distinct == 11
        for value, kls in rep.collision_groups:
            ls = {l for _, l in kls}
            assert len(ls) == 1
            assert len(kls) == 11

    def test_rational_instance_against_recount(self):
        a, b, c, b2 = q(1), q(1), q(2), q(1)
        rep = omega_collision_scan(a, b, c, b2, 20)
        counts = {}
        for k in range(-20, 21):
            for l in range(-20, 21):
                v = (k * l) + k + 2 * l  # beta^2 a = 1, beta^2 b = 1, c = 2
                counts[v] = counts.get(v, 0) + 1
        assert rep.n_distinct == len(counts)
        assert sum(len(g[1]) for g in rep.collision_groups) == sum(
            c for c in counts.values() if c > 1)

    def test_phi_comparison(self):
        # beta^2 a = s beta^2 b + t c with s = 1, t = 0 here
        rep = omega_collision_scan(q(1), q(1), q(2), q(1), 8,
                                   s=Fraction(1), t=Fraction(0))
        assert rep.phi_checked
        assert rep.phi_equal_collision_pairs + rep.phi_distinct_collision_pairs > 0


class TestCountingSets:
    def test_dn4_exact_list(self):
        ds = dn_set(4)
        assert set(ds.tuples) == {(1, 1), (1, 2), (2, 1), (1, 3), (3, 1),
                                  (1, 4), (2, 2), (4, 1)}
        assert ds.size == 8

    def test_dn_lower_bound(self):
        for n in (10, 100, 1000):
            ds = dn_set(n)
            assert ds.size >= n * math.log(n) - n
            # independent count
            assert ds.size == sum(n // k for k in range(1, n + 1))

    def test_budgets_are_the_exact_sizes(self):
        # each set is built at a budget of its size and refused below it
        for n in (1, 2, 9, 40):
            dn_size, rn_size = len(dn_set(n).tuples), len(rn_set(n).tuples)
            assert dn_set(n, cap=dn_size).size == dn_size
            assert rn_set(n, cap=rn_size).size == rn_size
            with pytest.raises(BudgetExceededError, match="D_N"):
                dn_set(n, cap=dn_size - 1)
            with pytest.raises(BudgetExceededError, match="R_N"):
                rn_set(n, cap=rn_size - 1)
        totient_sum_check(40, cap=41)
        with pytest.raises(BudgetExceededError):
            totient_sum_check(40, cap=40)

    def test_rn_refuses_before_it_builds_pairs(self, monkeypatch):
        # |R_3| = 7 passes a budget of 6 = 3*4/2, which the lower bound meets
        def no_pairs(n):
            raise AssertionError("the pairs were built")

        monkeypatch.setattr(analytics, "_rn_pairs", no_pairs)
        with pytest.raises(BudgetExceededError, match="R_N"):
            rn_set(3, cap=6)

    def test_rn_pairs_are_the_gcd_definition(self):
        # the sieve's coprime pairs, in lexicographic order, and the count
        # of pairs with r <= m
        for n in range(1, 61):
            pairs, upto = analytics._rn_pairs(n)
            expected = [(r, s) for r in range(1, n + 1) for s in range(1, r + 1)
                        if math.gcd(r, s) == 1]
            assert pairs == expected
            assert upto == [sum(1 for r, _ in expected if r <= m) for m in range(n + 1)]

    def test_rn_holds_an_image_of_every_pair(self):
        # the first budget check of R_N: (r, s) -> (r/g, s/g, g, 1) maps the
        # N(N+1)/2 pairs 1 <= s <= r <= N one to one into R_N
        for n in range(1, 81):
            image = {(r // math.gcd(r, s), s // math.gcd(r, s), math.gcd(r, s), 1)
                     for r in range(1, n + 1) for s in range(1, r + 1)}
            assert len(image) == n * (n + 1) // 2
            assert image <= set(rn_reference(n))

    def test_rn1(self):
        assert rn_set(1).tuples == ((1, 1, 1, 1),)

    def test_rn_formula_against_bruteforce_totient(self):
        # phi recomputed by gcd counting, independent of the sieve
        def phi_brute(m):
            return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
        n = 30
        rs = rn_set(n)
        formula = sum(phi_brute(i) * sum(phi_brute(j) for j in range(1, n // i + 1))
                      for i in range(1, n + 1))
        assert rs.size == formula

    def test_rn_constraints_hold(self):
        for r1, r2, r3, r4 in rn_set(12).tuples:
            assert 1 <= r2 <= r1 <= 12
            assert math.gcd(r1, r2) == 1
            assert 1 <= r4 <= r3 <= 12 // r1
            assert math.gcd(r3, r4) == 1

    def test_f_g_examples(self):
        assert f_map(1, 1, 1, 1) == (1, 2, 1)
        assert f_map(2, 1, 1, 1) == (1, 3, 2)
        x = Fraction(7, 3)
        assert g_map(x, (1, 1, 1, 1)) == x * x + 2 * x + 1

    def test_f_g_compatibility(self, rng):
        # tuples with equal f-image evaluate identically under g_x
        u, v = (2, 1, 1, 1), (1, 1, 2, 1)
        assert f_map(*u) == f_map(*v)
        for _ in range(100):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            assert g_map(x, u) == g_map(x, v)

    def test_two_to_one_small(self):
        rep = rn_two_to_one_check(4)
        assert rep.ok and rep.max_fiber_size <= 2

    def test_two_to_one_swap_fiber(self):
        rs = rn_set(2)
        assert (2, 1, 1, 1) in rs.tuples and (1, 1, 2, 1) in rs.tuples
        assert f_map(2, 1, 1, 1) == f_map(1, 1, 2, 1)
        rep = rn_two_to_one_check(2)
        assert rep.swap_fibers_ok

    def test_two_to_one_diagonal(self):
        # (3, 2, 3, 2) is diagonal and must sit alone in its fiber
        rep = rn_two_to_one_check(9)
        assert rep.diagonal_ok
        others = [u for u in rn_set(9).tuples
                  if f_map(*u) == f_map(3, 2, 3, 2)]
        assert others == [(3, 2, 3, 2)]

    def test_two_to_one_bound(self):
        with pytest.raises(PreconditionError):
            rn_two_to_one_check(401)

    def test_rn_and_its_image_are_closed_under_the_swap(self):
        # rn_two_to_one_check counts each unordered pair of halves once
        for n in range(1, 81):
            tuples = set(rn_reference(n))
            for r1, r2, r3, r4 in tuples:
                assert (r3, r4, r1, r2) in tuples
                assert f_map(r3, r4, r1, r2) == f_map(r1, r2, r3, r4)

    @pytest.mark.parametrize("n", [*range(1, 81), 400])
    def test_rn_and_two_to_one_match_the_exhaustive_loops(self, n):
        assert rn_set(n).tuples == rn_reference(n)
        assert rn_two_to_one_check(n) == two_to_one_reference(n)

    def test_totient_sum(self):
        rep = totient_sum_check(10)
        assert rep.sum_phi == 32
        assert abs(rep.ratio_to_asymptotic - 32 * math.pi ** 2 / 300) < 1e-12
        assert rep.pointwise_ok

    def test_totient_pointwise_at_3(self):
        eg = math.exp(0.5772156649015329)
        ll = math.log(math.log(3))
        assert 2 > 3 / (eg * ll + 3 / ll)

    def test_totients_sieve_matches_bruteforce(self):
        phi = totients(60)
        for m in range(1, 61):
            assert phi[m] == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


class TestDeltaCSet:
    def test_integral_c_stays_integral(self):
        zz = RingOfIntegers(QQ)
        vals = delta_c_set(q(2), zz, 3, 2).values()
        assert set(vals) == {q(k * 2 ** (2 ** n)) for k in range(-3, 4)
                             for n in range(0, 3)}
        for v in vals:
            assert v.a.denominator == 1

    def test_three_halves_powers_present(self):
        zz = RingOfIntegers(QQ)
        vals = set(delta_c_set(q(Fraction(3, 2)), zz, 2, 2).values())
        assert q(Fraction(9, 4)) in vals
        assert q(Fraction(81, 16)) in vals

    def test_gaussian_denominators_grow(self):
        ring = ring_of_integers(FI)
        c = q(Fraction(1, 2), Fraction(1, 2), FI)
        for n in range(0, 4):
            power = c ** (2 ** n)
            assert power.norm().denominator == 2 ** (2 ** n)

    def test_bounds_required(self):
        with pytest.raises(PreconditionError):
            delta_c_set(q(2), RingOfIntegers(QQ), 0, 2)

    @pytest.mark.parametrize("m1", [0, -3])
    def test_m1_below_one_rejected(self, m1):
        with pytest.raises(PreconditionError, match="m1 >= 1"):
            delta_c_set(q(Fraction(3, 2)), RingOfIntegers(QQ), 3, 1, m1)

    @pytest.mark.parametrize("d", [None, -1, 5])
    def test_equal_embeddings_order_by_exact_value(self, d):
        # c = 1 + 10^-20 (1 + sqrt(d)): each k*c^(2^n) rounds to the float
        # of k (+ k*sqrt(d)), so the exact a, b decide the order
        field = QQ if d is None else FieldDesc(d)
        ring = RingOfIntegers(QQ) if d is None else ring_of_integers(field)
        tiny = Fraction(1, 10 ** 20)
        c = q(1 + tiny, 0 if d is None else tiny, field)
        dset = delta_c_set(c, ring, 2, 2)
        assert len(set(dset.embedded)) < len(dset)
        assert dset.values() == delta_c_reference(c, ring, 2, 2)

    def test_power_bit_budget(self):
        # (1/2)^(2^17) has a 131,073-bit denominator; its square would pass
        # the 2^18-bit budget, and the power is refused before it is formed
        assert POWER_BIT_BUDGET == 2 ** 18
        zz, half = RingOfIntegers(QQ), q(Fraction(1, 2))
        dset = delta_c_set(half, zz, 1, 17)
        assert max(den for _, _, den in dset.coords) == 2 ** (2 ** 17)
        with pytest.raises(BudgetExceededError, match=r"c\^\(2\^18\)"):
            delta_c_set(half, zz, 1, 18)

    def test_c_of_another_field_is_refused(self):
        with pytest.raises(FieldMismatchError, match="cannot mix elements"):
            delta_c_set(q(1, 1, FieldDesc(5)), RingOfIntegers(FI), 2, 1)

    def test_row_budget(self):
        # (n_bound + 1)*(2*k_bound + 1)^rank values before deduplication
        zz, gauss = RingOfIntegers(QQ), RingOfIntegers(FI)
        c = q(Fraction(3, 2))
        assert len(delta_c_set(c, zz, 2, 1, cap=10)) <= 10
        with pytest.raises(BudgetExceededError, match="element budget 9"):
            delta_c_set(c, zz, 2, 1, cap=9)
        delta_c_set(c, gauss, 1, 1, cap=18)
        with pytest.raises(BudgetExceededError, match="element budget 17"):
            delta_c_set(c, gauss, 1, 1, cap=17)

    def test_rational_lattice_keeps_the_field_of_c(self):
        c = q(1, 1, FI)
        dset = delta_c_set(c, RingOfIntegers(QQ), 2, 1)
        assert dset.values() == delta_c_reference(c, RingOfIntegers(QQ), 2, 1)
        assert {v.field for v in dset.values()} == {FI}


WITNESS_CASES = [
    ("3/2", None),
    ("5/3", None),
    ("1/2+1/2*sqrt(-1)", -1),   # (1+i)/2
    ("3/2-3/2*sqrt(-1)", -1),   # 3/(1+i)
]


class TestDeltaWitness:
    @pytest.mark.parametrize("ctext,d", WITNESS_CASES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witness_contract(self, ctext, d, n):
        from tracelab import parse_quadelem
        ring = (RingOfIntegers(QQ) if d is None
                else ring_of_integers(FieldDesc(d)))
        c = parse_quadelem(ctext, ring.field)
        wit = delta_c_cluster_witness(c, ring, n)
        assert len(wit.points) == n + 1
        assert len(set(wit.points)) == n + 1
        # membership in Delta_c, via the carried lattice factor and exponent
        for z, x, e in zip(wit.points, wit.lattice_factors, wit.exponents):
            assert ring.contains(x)
            assert z == x * wit.m1 * c ** (2 ** e)
            assert is_delta_c_member(z, c, ring, e, wit.m1)
        # |z_j - z_0| <= 1/2 at 30 significant digits, and diameter <= 1
        with mpmath.workdps(30):
            z0 = wit.points[0]
            for z in wit.points:
                diff = z - z0
                nrm = diff.norm()
                dev = mpmath.sqrt(mpmath.mpf(nrm.numerator) / mpmath.mpf(nrm.denominator))
                assert dev <= mpmath.mpf(1) / 2
        assert wit.max_deviation() <= 0.5
        dev = wit.max_deviation()
        assert 2 * dev <= 1.0  # diameter bound

    def test_f_values_strictly_increase(self):
        zz = RingOfIntegers(QQ)
        wit = delta_c_cluster_witness(q(Fraction(3, 2)), zz, 4)
        fs = wit.f_values
        assert all(b > a for a, b in zip(fs, fs[1:]))

    def test_witness_bit_budget(self):
        # c = 3/2: f = 0, 3, 15, 63, 255, 1023 sums to 1359, and 1359*log2(3)
        # is 2,154 bits, within the 2^12-bit budget; f(6) = 4095 takes the
        # sum to 8,644 bits and is refused before any Bezout step
        assert WITNESS_BIT_BUDGET == 2 ** 12
        zz = RingOfIntegers(QQ)
        wit = delta_c_cluster_witness(q(Fraction(3, 2)), zz, 5)
        assert wit.f_values == (0, 3, 15, 63, 255, 1023)
        with pytest.raises(BudgetExceededError, match=r"f\(6\) = 4095"):
            delta_c_cluster_witness(q(Fraction(3, 2)), zz, 6)

    def test_schedule_takes_the_least_exponent_at_a_tie(self):
        # c = (1+3i)/10 over Z[i] with M1 = 5: N(q)^2 = 100 = 4 * 5^2 * N(p)
        # at j = 1, so f(1) = 1 meets the bound with equality; the float
        # schedule rounded past it to f = (0, 3, 7, 15)
        ring = ring_of_integers(FI)
        wit = delta_c_cluster_witness(q(Fraction(1, 10), Fraction(3, 10), FI), ring, 3, m1=5)
        assert wit.f_values == (0, 1, 3, 7)
        assert wit.max_deviation() == 0.5
        # c = 1/2 over Z ties at every j, and the float schedule already took
        # the least exponent there
        wit = delta_c_cluster_witness(q(Fraction(1, 2)), RingOfIntegers(QQ), 4)
        assert wit.f_values == (0, 1, 3, 7, 15)

    @pytest.mark.parametrize("n", [1, 3])
    def test_witness_factors_the_denominator_once(self, monkeypatch, n):
        # q1 is a primary factor of q by construction; the Bezout steps
        # must not factor it again to check that
        calls = []

        def counted(x, ring):
            calls.append(x)
            return prime_power_factor(x, ring)

        monkeypatch.setattr(qfield, "prime_power_factor", counted)
        monkeypatch.setattr(analytics, "prime_power_factor", counted)
        delta_c_cluster_witness(q(Fraction(5, 9)), RingOfIntegers(QQ), n)
        assert calls == [q(9)]

    def test_integral_c_rejected(self):
        with pytest.raises(PreconditionError):
            delta_c_cluster_witness(q(2), RingOfIntegers(QQ), 3)

    def test_non_euclidean_rejected(self):
        ring = ring_of_integers(FieldDesc(-19))
        c = q(Fraction(1, 2), Fraction(1, 2), FieldDesc(-19))
        with pytest.raises(PreconditionError):
            delta_c_cluster_witness(c, ring, 2)


def sqrt2_best_approx_oracle(k_max: int) -> float:
    """Best |q*sqrt(2) - p| over convergents with p, q <= K."""
    s2 = math.sqrt(2)
    best = float("inf")
    p0, q0, p1, q1 = 1, 0, 1, 1
    for a in [2] * 30:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > k_max or p1 > k_max:
            break
        best = min(best, abs(q1 * s2 - p1))
    return best


class TestKronecker:
    def test_envelope_non_increasing(self):
        env = kronecker_gap_demo(math.sqrt(2), 1.0, 100)
        vals = [m for _, m in env]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01

    def test_matches_continued_fraction_oracle(self):
        env = kronecker_gap_demo(math.sqrt(2), 1.0, 100)
        assert abs(env[-1][1] - sqrt2_best_approx_oracle(100)) < 1e-12

    def test_commensurable_degenerate(self):
        env = kronecker_gap_demo(1.7, 1.7, 3)
        assert env[-1][1] == 0.0

    def test_envelope_budget(self):
        assert len(kronecker_gap_demo(math.sqrt(2), 1, 5, cap=5)) == 5
        with pytest.raises(BudgetExceededError, match="element budget 4"):
            kronecker_gap_demo(math.sqrt(2), 1, 5, cap=4)

    def test_k1_exhaustive(self):
        th1, th2, delta = 1.3, 0.4, 0.05
        env = kronecker_gap_demo(th1, th2, 1, delta)
        oracle = min(abs(k * th1 - l * th2 - delta)
                     for k in (-1, 0, 1) for l in (-1, 0, 1)
                     if (k, l) != (0, 0))
        assert env[0][1] == oracle

    def test_matches_exhaustive_loop_past_the_property_range(self):
        # the property test stops at K = 40; here K runs to 120 over one scale
        # in 1e-20..1e20 per input, the float specials and the commensurable
        # theta2 = theta1 and 2*theta1, whose zeros fall on integers
        rng = random.Random(20261020)

        def draw(scale):
            if rng.random() < 0.2:
                return rng.choice(KRONECKER_SPECIALS)
            return rng.choice((1.0, -1.0)) * scale * rng.uniform(0.1, 10.0)

        for _ in range(60):
            scale = 10.0 ** rng.uniform(-20, 20)
            theta1, delta = draw(scale), draw(scale)
            theta2 = rng.choice((draw(scale), theta1, 2 * theta1))
            k_max = rng.randint(41, 120)
            assert repr(kronecker_gap_demo(theta1, theta2, k_max, delta)) == repr(
                kronecker_reference(theta1, theta2, k_max, delta)), (theta1, theta2, delta)

    @pytest.mark.parametrize("theta1, theta2, delta, k_max",
                             [(0.0, -2.667604741847276e-06, 0.0, 7),
                              (5e-324, 1.1082327570555277, 0.0, 11),
                              (3.8402672127825075e+17, 1e-300, 0.0, 17),
                              (-396730.5000873442, -132243.50002911474, 0.0, 20),
                              (-0.08008604972273589, -0.08008604972273589, 1e-300, 27)],
                             ids=["zero-slope", "subnormal-slope", "zero-past-float-range",
                                  "misplaced-zero", "misplaced-zero-tiny-delta"])
    def test_edges_without_a_usable_zero_bisect(self, theta1, theta2, delta, k_max,
                                                monkeypatch):
        # the last two have finite zeros on or next to integers, where the
        # rounded values put the sign change one index off the estimate
        calls = _count_bisections(monkeypatch)
        assert repr(kronecker_gap_demo(theta1, theta2, k_max, delta)) == repr(
            kronecker_reference(theta1, theta2, k_max, delta))
        assert calls[0] > 0

    @pytest.mark.parametrize("theta1, k_max", [(1.4142135623730951, 400), (math.sqrt(2), 100)],
                             ids=["golden", "criterion-6"])
    def test_estimated_zeros_need_no_bisection(self, theta1, k_max, monkeypatch):
        calls = _count_bisections(monkeypatch)
        kronecker_gap_demo(theta1, 1.0, k_max)
        assert calls[0] == 0

    def test_products_per_shell_do_not_grow_with_k(self):
        # every k*theta1 the envelope forms calls theta1's __rmul__
        class Counted(float):
            products = 0

            def __rmul__(self, other):
                Counted.products += 1
                return float.__rmul__(self, other)

        per_shell = {}
        for k_max in (100, 1000):
            Counted.products = 0
            kronecker_gap_demo(Counted(math.sqrt(2)), 1.0, k_max)
            per_shell[k_max] = Counted.products / k_max
        assert per_shell[1000] <= 10
        assert per_shell[1000] <= per_shell[100]


def _count_bisections(monkeypatch) -> list:
    """A one-item list counting the bisect.bisect_left calls from here on."""
    calls = [0]
    bisect_left = analytics.bisect.bisect_left

    def counted(*args, **kwargs):
        calls[0] += 1
        return bisect_left(*args, **kwargs)

    monkeypatch.setattr(analytics.bisect, "bisect_left", counted)
    return calls


def _fresh_python(code: str, *args: str) -> str:
    """stdout of code run in a new interpreter that imports tracelab from
    this checkout."""
    src = Path(tracelab.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120).stdout


def test_import_leaves_mpmath_unloaded():
    # tracelab has no runtime dependency; mpmath is only a test oracle
    out = _fresh_python("import sys, tracelab, tracelab.cli; "
                        "print('mpmath' in sys.modules)")
    assert out == "False\n"


# every criterion-8 command in every format, and two witness commands: the
# benchmark's and an exact tie of the exponent schedule
MPMATH_BLOCKED_COMMANDS = [
    *([*argv, "--format", fmt] for argv in CLI_COMMANDS for fmt in ("json", "csv", "data")),
    ["delta-c", "--c", "1/2+1/2*sqrt(-1)", "--ring", "-1", "--witness", "4"],
    ["delta-c", "--c", "1/10+3/10*sqrt(-1)", "--ring", "-1", "--witness", "3", "--m1", "5"],
]


def test_witness_leaves_mpmath_unloaded():
    # the schedule is decided from exact norms, and max_deviation rounds an
    # exact integer square root
    out = _fresh_python(
        "import sys\n"
        "from tracelab import FieldDesc, delta_c_cluster_witness, parse_quadelem, "
        "ring_of_integers\n"
        "ring = ring_of_integers(FieldDesc(-1))\n"
        "c = parse_quadelem('1/10+3/10*sqrt(-1)', ring.field)\n"
        "wit = delta_c_cluster_witness(c, ring, 3, m1=5)\n"
        "print(wit.f_values, wit.max_deviation(), 'mpmath' in sys.modules)")
    assert out == "(0, 1, 3, 7) 0.5 False\n"  # |z_j - z_0| = 1/2 exactly
    # with mpmath made unimportable, each command exits 0 and prints its
    # golden file, where it has one
    out = _fresh_python(
        "import contextlib, io, json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from tracelab.cli import main\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        runs.append((main(argv), buf.getvalue()))\n"
        "print(json.dumps(runs))", json.dumps(MPMATH_BLOCKED_COMMANDS))
    for argv, (code, text) in zip(MPMATH_BLOCKED_COMMANDS, json.loads(out), strict=True):
        assert code == 0, argv
        if "--format" in argv:
            golden = golden_path(argv[:-2], argv[-1])
            assert text.encode("utf-8") == golden.read_bytes(), golden.name
