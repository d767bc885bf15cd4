import copy
import dataclasses
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from tracelab import (BudgetExceededError, FieldDesc, FieldMismatchError,
                      PreconditionError, QQ,
                      QuadElem, RingOfIntegers, UnsupportedRingError, bezout,
                      bezout_bounded, delta_c_set, format_quadelem, m1_constant,
                      m2_constant, parse_quadelem, ring_of_integers)
from tracelab.groups import group_spec_from_dict
from tracelab.qfield import (FACTOR_BOUND, _digits_int, _is_squarefree, _power,
                             _sqrt_ratio_float, divides, divmod_ring, gcd_ring, is_primary,
                             prime_power_factor)

from conftest import rand_elem

F5 = FieldDesc(5)
FI = FieldDesc(-1)
F3N = FieldDesc(-3)


def q(a, b=0, field=QQ):
    return QuadElem.of(a, b, field)


class TestArithmetic:
    def test_difference_of_squares(self):
        x = q(1, 1, F5)
        y = q(1, -1, F5)
        assert x * y == q(-4, 0, F5)

    def test_inverse_identity(self):
        x = q(Fraction(3, 2), 1, FI)
        assert (x * (1 / x)) == q(1, 0, FI)

    def test_golden_ratio_square(self):
        # ((1+sqrt5)/2)^2 = (1 + 2 sqrt5 + 5)/4 = (3+sqrt5)/2, reduced by hand
        lam = q(Fraction(1, 2), Fraction(1, 2), F5)
        assert lam * lam == q(Fraction(3, 2), Fraction(1, 2), F5)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q(1, 1, F5) / q(0, 0, F5)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            q(1, 1, F5) + q(1, 1, FI)

    def test_rational_promotes_into_quadratic(self):
        assert q(2) + q(0, 1, F5) == q(2, 1, F5)

    def test_pow(self):
        x = q(1, 1, FI)
        assert x ** 4 == x * x * x * x
        assert x ** 0 == q(1, 0, FI)
        assert x ** -2 == 1 / (x * x)

    def test_power_squares_only_below_the_top_bit(self):
        # square-and-multiply makes popcount(n) multiplications into the
        # result and bit_length(n) - 1 squarings, none after the top bit
        class Counted(int):
            calls = 0

            def __mul__(self, other):
                Counted.calls += 1
                return Counted(int(self) * int(other))

        for n in range(70):
            Counted.calls = 0
            assert _power(Counted(3), n, Counted(1)) == 3 ** n
            expected = n.bit_count() + n.bit_length() - 1 if n else 0
            assert Counted.calls == expected, n

    def test_exact_results_in_lowest_terms(self, rng):
        for _ in range(200):
            x = rand_elem(rng, F5)
            y = rand_elem(rng, F5)
            z = x * y
            for frac in (z.a, z.b):
                assert math.gcd(frac.numerator, frac.denominator) == 1


class TestNormTrace:
    def test_examples(self):
        assert q(1, 2, FI).norm() == 5
        assert q(Fraction(1, 2), Fraction(1, 2), F5).trace() == 1
        assert q(Fraction(1, 2), Fraction(1, 2), F3N).norm() == 1

    def test_norm_multiplicative_trace_additive(self, rng):
        for _ in range(1000):
            field = rng.choice([F5, FI, F3N, FieldDesc(2)])
            x = rand_elem(rng, field)
            y = rand_elem(rng, field)
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x + y).trace() == x.trace() + y.trace()

    def test_norm_is_conjugate_product(self, rng):
        for _ in range(100):
            x = rand_elem(rng, F5)
            prod = x * x.conjugate()
            assert prod.b == 0 and prod.a == x.norm()


class TestIntegrality:
    def test_examples(self):
        assert q(Fraction(1, 2), Fraction(1, 2), F5).is_algebraic_integer()
        assert not q(Fraction(3, 2)).is_algebraic_integer()
        # trace 1 and norm 1, via the norm oracle
        x = q(Fraction(1, 2), Fraction(1, 2), F3N)
        assert x.trace() == 1 and x.norm() == 1
        assert x.is_algebraic_integer()

    def test_cross_oracle_lattice_membership(self, rng):
        # integrality iff membership in Z + Z*omega, on random elements
        fields = [FieldDesc(d) for d in (-1, -2, -3, -7, -11, 2, 3, 5)]
        rings = {f.d: ring_of_integers(f) for f in fields}
        for _ in range(1000):
            field = rng.choice(fields)
            x = rand_elem(rng, field, den_max=12)
            assert x.is_algebraic_integer() == rings[field.d].contains(x)


class TestFieldGenerator:
    def test_squarefree_is_exact_below_the_square_of_the_bound(self):
        prime = 2 ** 34 - 41  # the largest prime below FACTOR_BOUND^2
        assert FieldDesc(prime).d == prime and FieldDesc(-prime).d == -prime
        for d in (4, -12, 131071 ** 2, 2 * 131071 ** 2):
            with pytest.raises(ValueError, match="squarefree"):
                FieldDesc(d)

    def test_past_the_bound_is_budget_exceeded_unless_a_square_is_found(self):
        # 10^30 + 57 and 131101 * 131111 have no prime factor below
        # FACTOR_BOUND; 4 * (10^30 + 57) has the square 4
        big = 10 ** 30 + 57
        for d in (big, -big, 131101 * 131111):
            with pytest.raises(BudgetExceededError, match="trial-division bound"):
                FieldDesc(d)
        with pytest.raises(ValueError, match="squarefree"):
            FieldDesc(4 * big)

    def test_squarefree_check_runs_once_per_generator(self):
        # field_d and each radical literal build FieldDesc(d); the trial
        # division up to FACTOR_BOUND runs for the first of them only
        d = 17179869143  # squarefree, just below FACTOR_BOUND^2
        _is_squarefree.cache_clear()
        group_spec_from_dict({"name": "x", "field_d": d, "generators": [
            f"[1,sqrt({d});0,1]", f"[1,0;2*sqrt({d}),1]", f"[1,1+sqrt({d});0,1]"]})
        assert _is_squarefree.cache_info().misses == 1


class TestAbsSign:
    def test_examples(self):
        assert q(3, 4, FI).abs_sign(5) == 0  # |3 + 4i| = 5
        assert q(3, 4, FI).abs_sign(Fraction(49, 10)) == 1
        assert q(-1, 1, F5).abs_sign(Fraction(5, 4)) == -1  # |-1 + sqrt(5)| = 1.236...
        assert q(-1, -1, F5).abs_sign(Fraction(13, 4)) == -1  # |-1 - sqrt(5)| = 3.236...
        assert q(-1, -1, F5).abs_sign(Fraction(16, 5)) == 1
        assert q(Fraction(-7, 2)).abs_sign(Fraction(7, 2)) == 0
        assert q(Fraction(-7, 2), 0, F5).abs_sign(Fraction(7, 2)) == 0
        assert q(0).abs_sign(0) == 0 and q(0, 1, FI).abs_sign(0) == 1

    def test_negative_bound_is_refused(self):
        with pytest.raises(ValueError, match="r >= 0"):
            q(1, 1, FI).abs_sign(-1)


class TestSqrtRatioFloat:
    def test_examples(self):
        assert _sqrt_ratio_float(0, 7) == 0.0
        assert _sqrt_ratio_float(1, 4) == 0.5 and _sqrt_ratio_float(9, 16) == 0.75
        assert _sqrt_ratio_float(2, 1) == math.sqrt(2)
        assert _sqrt_ratio_float(2 * 10 ** 40, 10 ** 40) == math.sqrt(2)
        assert _sqrt_ratio_float(10 ** 600, 1) == 1e300

    def test_beyond_float_range_is_inf(self):
        assert _sqrt_ratio_float(10 ** 700, 1) == math.inf


class TestDigitsInt:
    @pytest.mark.parametrize("length", [1, 640, 641, 4300, 4301, 9000, 200_001])
    def test_matches_decimal(self, length):
        rng = random.Random(length)
        digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789")
                                                  for _ in range(length - 1))
        assert _digits_int(digits) == int(Decimal(digits))
        zeros = "0" * (length - 1) + "7"
        assert _digits_int(zeros) == int(Decimal(zeros)) == 7


class TestRingOfIntegers:
    def test_table(self):
        assert ring_of_integers(FI).omega == q(0, 1, FI)
        assert ring_of_integers(F3N).omega == q(Fraction(1, 2), Fraction(1, 2), F3N)
        assert ring_of_integers(F5).omega == q(Fraction(1, 2), Fraction(1, 2), F5)
        assert ring_of_integers(FieldDesc(-2)).omega == q(0, 1, FieldDesc(-2))
        assert ring_of_integers(FieldDesc(-7)).omega.a == Fraction(1, 2)

    def test_rational_field_rejected(self):
        with pytest.raises(PreconditionError):
            ring_of_integers(QQ)

    def test_one_ring_per_field_with_omega_trace_and_norm(self):
        for d, t, n in ((-1, 0, 1), (-3, 1, 1), (-7, 1, 2), (2, 0, -2), (5, 1, -1)):
            ring = ring_of_integers(FieldDesc(d))
            assert ring is ring_of_integers(FieldDesc(d))
            assert (ring.t, ring.n) == (t, n)
            assert ring.omega * ring.omega == ring.omega * t - n
        zz = RingOfIntegers(QQ)
        assert zz is RingOfIntegers(QQ) and (zz.t, zz.n) == (0, 0)

    def test_constructor_returns_the_one_ring(self):
        r = RingOfIntegers(FieldDesc(-1))
        assert r is ring_of_integers(FI) is parse_quadelem("sqrt(-1)").ring
        assert copy.deepcopy(r) is r and pickle.loads(pickle.dumps(r)) is r
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.t = 1
        i = parse_quadelem("sqrt(-1)")
        assert r.element(0, 1) == i and r.element(0, 1) + i == q(0, 2, FI)
        u, v = bezout(r.element(3), r.element(0, 1), r)
        assert (u * 3 + v * i - 1).is_zero()
        assert delta_c_set(q(Fraction(3, 2), 0, FI), r, 1, 1).ring is r

    def test_omega_is_integral_and_lattice_closed(self, rng):
        for d in (-1, -2, -3, -7, -11, 5):
            ring = ring_of_integers(FieldDesc(d))
            assert ring.omega.is_algebraic_integer()
            for _ in range(50):
                m, n = rng.randint(-9, 9), rng.randint(-9, 9)
                assert ring.element(m, n).is_algebraic_integer()


class TestM1:
    def brute_force_m1(self, ring, alpha, bound=50):
        for m in range(1, bound + 1):
            target = ring.omega * m
            # solve target = i + j*alpha over rationals
            j = target.b / alpha.b
            i = target.a - j * alpha.a
            if i.denominator == 1 and j.denominator == 1:
                return m
        raise AssertionError("no M found")

    def test_examples(self):
        r3 = ring_of_integers(F3N)
        assert m1_constant(r3, q(0, 1, F3N)) == 2
        ri = ring_of_integers(FI)
        assert m1_constant(ri, q(0, 1, FI)) == 1
        assert m1_constant(r3, q(Fraction(1, 2), Fraction(1, 2), F3N)) == 1

    def test_against_brute_force(self, rng):
        for _ in range(50):
            d = rng.choice([-1, -2, -3, -7, -11, 5])
            ring = ring_of_integers(FieldDesc(d))
            alpha = rand_elem(rng, FieldDesc(d), num_max=5, den_max=4)
            if alpha.b == 0:
                continue
            assert m1_constant(ring, alpha) == self.brute_force_m1(ring, alpha)

    def test_rational_alpha_rejected(self):
        with pytest.raises(PreconditionError):
            m1_constant(ring_of_integers(FI), q(3, 0, FI))


def common_divisors(r, s, ring, bound=None):
    """Exhaustive nonunit common divisors of norm <= min(N(r), N(s))."""
    limit = int(min(abs(r.norm()), abs(s.norm())))
    found = []
    if ring.is_rational:
        for g in range(2, limit + 1):
            ge = QuadElem.rational(g)
            if divides(ge, r, ring) and divides(ge, s, ring):
                found.append(ge)
        return found
    reach = int(math.isqrt(limit)) + 2
    for m in range(-2 * reach, 2 * reach + 1):
        for n in range(-2 * reach, 2 * reach + 1):
            g = ring.element(m, n)
            if 1 < abs(g.norm()) <= limit and divides(g, r, ring) and divides(g, s, ring):
                found.append(g)
    return found


class TestBezout:
    def test_gaussian_example(self):
        ring = ring_of_integers(FI)
        r = q(1, 1, FI)
        s = q(3, 0, FI)
        u, v = bezout(r, s, ring)
        assert u * r + v * s == q(1, 0, FI)
        # the hand-computed pair (1+i)(-1+i) + 1*3 = 1 is one valid answer
        assert q(-1, 1, FI) * r + q(1, 0, FI) * s == q(1, 0, FI)

    def test_not_coprime(self):
        ring = RingOfIntegers(QQ)
        assert bezout(q(2), q(4), ring) is None
        assert common_divisors(q(2), q(4), ring)

    def test_unit_operand(self):
        ring = RingOfIntegers(QQ)
        u, v = bezout(q(1), q(712), ring)
        assert u * q(1) + v * q(712) == q(1)

    def test_random_contract(self, rng):
        for d in (None, -1, -2, -3, -7, -11):
            ring = (RingOfIntegers(QQ) if d is None
                    else ring_of_integers(FieldDesc(d)))
            fld = ring.field
            for _ in range(60):
                r = ring.element(rng.randint(-9, 9), 0 if d is None else rng.randint(-9, 9))
                s = ring.element(rng.randint(-9, 9), 0 if d is None else rng.randint(-9, 9))
                if r.is_zero() or s.is_zero():
                    continue
                pair = bezout(r, s, ring)
                if pair is None:
                    assert common_divisors(r, s, ring), (
                        f"no common divisor found for {format_quadelem(r)}, "
                        f"{format_quadelem(s)} in d={d}")
                else:
                    u, v = pair
                    assert u * r + v * s == QuadElem.rational(1, fld)
                    assert ring.contains(u) and ring.contains(v)

    def test_non_euclidean_rejected(self):
        ring = ring_of_integers(FieldDesc(-5))
        with pytest.raises(UnsupportedRingError):
            bezout(q(2, 0, FieldDesc(-5)), q(3, 0, FieldDesc(-5)), ring)

    def test_division_tie_break(self):
        # quotient exactly halfway rounds toward the smaller integer
        ring = RingOfIntegers(QQ)
        quo, rem = divmod_ring(q(3), q(2), ring)
        assert quo == q(1) and rem == q(1)
        quo, rem = divmod_ring(q(-3), q(2), ring)
        assert quo == q(-2) and rem == q(1)
        # (1+i)/2 is as near to 0, 1, i and 1+i; (1+w)/3 over
        # Z[(1+sqrt(-3))/2] is the vertex of the Voronoi cells of 0, 1 and w.
        # Ties go to the smaller real part, then the smaller imaginary part.
        for d, x, y in ((-1, (1, 1), 2), (-3, (1, 1), 3)):
            ring = ring_of_integers(FieldDesc(d))
            quo, rem = divmod_ring(ring.element(*x), ring.element(y), ring)
            assert quo.is_zero() and rem == ring.element(*x)

    @pytest.mark.parametrize("d", [-1, -2, -3, -7, -11])
    def test_division_step_forms_few_norms(self, monkeypatch, d):
        # x/y costs one norm, the two candidate rows one each, and the check
        # N(r) < N(y) two; the search over 16 candidates took 19
        ring = ring_of_integers(FieldDesc(d))
        x, y = ring.element(10 ** 300 + 7, -(10 ** 299) + 3), ring.element(12345, 678)
        calls = []
        norm = RingOfIntegers.norm

        def counted(self, x0, x1):
            calls.append((x0, x1))
            return norm(self, x0, x1)

        monkeypatch.setattr(RingOfIntegers, "norm", counted)
        quo, rem = divmod_ring(x, y, ring)
        assert len(calls) <= 5
        monkeypatch.undo()
        assert x == quo * y + rem and abs(rem.norm()) < abs(y.norm())

    def test_gcd_euclidean_reduces(self, rng):
        for d in (-1, -2, -3, -7, -11):
            ring = ring_of_integers(FieldDesc(d))
            for _ in range(20):
                x = ring.element(rng.randint(-8, 8), rng.randint(-8, 8))
                y = ring.element(rng.randint(-8, 8), rng.randint(-8, 8))
                if y.is_zero():
                    continue
                quo, rem = divmod_ring(x, y, ring)
                assert x == quo * y + rem
                assert abs(rem.norm()) < abs(y.norm())
                g = gcd_ring(x, y, ring)
                if not g.is_zero():
                    assert divides(g, x, ring) and divides(g, y, ring)


class TestBezoutBounded:
    def test_integer_example(self):
        ring = RingOfIntegers(QQ)
        r, s, s1 = q(3), q(4), q(2)
        u, v = bezout_bounded(r, s, s1, ring)
        assert u * r + v * s == q(1)
        assert abs(float(v.a)) <= m2_constant(ring) * 3
        assert math.gcd(int(v.a), 2) == 1

    def test_gaussian_example(self):
        ring = ring_of_integers(FI)
        r, s, s1 = q(1, 1, FI), q(3, 0, FI), q(3, 0, FI)
        u, v = bezout_bounded(r, s, s1, ring)
        assert u * r + v * s == q(1, 0, FI)
        assert bezout(v, s1, ring) is not None
        assert abs(v.embed()) <= m2_constant(ring) * abs(r.embed()) + 1e-9

    def test_unit_r_correction(self):
        # with r a unit the reduced v is 0, which is never coprime to s1;
        # the v + r correction must kick in
        ring = RingOfIntegers(QQ)
        u, v = bezout_bounded(q(1), q(8), q(2), ring)
        assert u * q(1) + v * q(8) == q(1)
        assert not v.is_zero()
        assert math.gcd(int(v.a), 2) == 1

    def test_preconditions(self):
        ring = RingOfIntegers(QQ)
        with pytest.raises(PreconditionError):
            bezout_bounded(q(2), q(4), q(2), ring)  # (r, s) != 1
        with pytest.raises(PreconditionError):
            bezout_bounded(q(3), q(4), q(5), ring)  # s not in (s1)
        with pytest.raises(PreconditionError):
            bezout_bounded(q(5), q(12), q(12), ring)  # (12) not primary

    def test_randomized_contract(self, rng):
        for d in (None, -1, -3):
            ring = (RingOfIntegers(QQ) if d is None
                    else ring_of_integers(FieldDesc(d)))
            checked = 0
            while checked < 40:
                s1 = ring.element(rng.randint(-6, 6), 0 if d is None else rng.randint(-6, 6))
                if s1.is_zero() or ring.is_unit(s1) or not is_primary(s1, ring):
                    continue
                mult = ring.element(rng.randint(1, 4), 0 if d is None else rng.randint(0, 2))
                if mult.is_zero():
                    continue
                s = s1 * mult
                r = ring.element(rng.randint(-9, 9), 0 if d is None else rng.randint(-9, 9))
                if r.is_zero() or bezout(r, s, ring) is None:
                    continue
                u, v = bezout_bounded(r, s, s1, ring)
                assert u * r + v * s == QuadElem.rational(1, ring.field)
                assert bezout(v, s1, ring) is not None
                m2 = m2_constant(ring)
                assert abs(complex(v.embed())) <= m2 * abs(complex(r.embed())) + 1e-9
                checked += 1


def least_prime_of_norm(ell, x, ring):
    """The first m + n*omega, in the order of (m, n) over a box that holds
    every element of norm ell, with norm ell that divides x, or None."""
    b = 2 * math.isqrt(ell) + 6
    return next((p for m in range(-b, b + 1) for n in range(-b, b + 1)
                 for p in (ring.element(m, n),)
                 if p.norm() == ell and divides(p, x, ring)), None)


class TestPrimePowerFactor:
    @pytest.mark.parametrize("d", [-1, -2, -3, -7, -11])
    def test_prime_of_norm_ell_is_the_least_in_the_box(self, d):
        ring = ring_of_integers(FieldDesc(d))
        for m in range(-7, 8):
            for n in range(-7, 8):
                x = ring.element(m, n)
                if x.is_zero() or ring.is_unit(x):
                    continue
                norm = int(x.norm())
                ell = next(k for k in range(2, norm + 1) if norm % k == 0)
                pi = least_prime_of_norm(ell, x, ring) or QuadElem.rational(ell, ring.field)
                pe = prime_power_factor(x, ring)
                assert divides(pe, x, ring) and not divides(pe * pi, x, ring)
                assert any(pe == pi ** e for e in range(1, 8))

    def test_exact_below_the_square_of_the_bound(self):
        assert FACTOR_BOUND == 2 ** 17
        zz = RingOfIntegers(QQ)
        prime = 2 ** 34 - 41  # the largest prime below FACTOR_BOUND^2
        assert prime_power_factor(zz.element(prime), zz) == zz.element(prime)
        assert prime_power_factor(zz.element(2 * prime), zz) == zz.element(2)
        gauss = ring_of_integers(FI)
        x = gauss.element(131071, 0)  # a prime below the bound, inert in Z[i]
        assert prime_power_factor(x, gauss) == x

    def test_past_the_bound_is_budget_exceeded(self):
        # 131101 and 131111 are the least primes above FACTOR_BOUND
        zz = RingOfIntegers(QQ)
        with pytest.raises(BudgetExceededError, match="trial-division bound"):
            prime_power_factor(zz.element(131101 * 131111), zz)
        gauss = ring_of_integers(FI)
        with pytest.raises(BudgetExceededError, match="trial-division bound"):
            prime_power_factor(gauss.element(131101, 0), gauss)


class TestEmbed:
    def test_examples(self):
        assert abs(q(1, 1, F5).embed() - 3.23606797749979) < 1e-14
        assert abs(q(1, 1, F5).conjugate().embed() + 1.2360679774997898) < 1e-14
        assert q(2, 3, FI).embed() == complex(2, 3)
        assert q(2, 3, FI).conjugate().embed() == complex(2, -3)
        assert q(Fraction(7, 2)).embed() == 3.5


class TestTextFormat:
    def test_examples(self):
        assert format_quadelem(q(Fraction(3, 2))) == "3/2"
        assert format_quadelem(q(Fraction(1, 2), Fraction(1, 2), F5)) == "1/2+1/2*sqrt(5)"
        assert format_quadelem(q(0, -2, FI)) == "-2*sqrt(-1)"
        assert format_quadelem(q(0, 1, F5)) == "sqrt(5)"
        assert format_quadelem(q(-1, -1, FI)) == "-1-sqrt(-1)"

    def test_parse_liberal_forms(self):
        assert parse_quadelem("sqrt(5)") == q(0, 1, F5)
        assert parse_quadelem("-sqrt(-1)+1") == q(1, -1, FI)
        assert parse_quadelem("+3/2") == q(Fraction(3, 2))
        assert parse_quadelem("2*sqrt(-3)") == q(0, 2, F3N)
        assert parse_quadelem("1 + sqrt(5)") == q(1, 1, F5)

    def test_round_trip(self, rng):
        for _ in range(300):
            field = rng.choice([QQ, F5, FI, F3N, FieldDesc(-7)])
            x = rand_elem(rng, field)
            text = format_quadelem(x)
            back = parse_quadelem(text, field)
            assert back.a == x.a and back.b == x.b

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_quadelem("")
        with pytest.raises(ValueError):
            parse_quadelem("sqrt(5)+sqrt(-1)")
        with pytest.raises(ValueError):
            parse_quadelem("1+2+3")
