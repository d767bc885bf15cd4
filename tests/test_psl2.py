from fractions import Fraction

import pytest

from tracelab import (FieldDesc, Mat2, MatClass, PreconditionError, ProjMat,
                      QQ, QuadElem, an_iteration, an_step, canonical_trace,
                      catalog, catalog_names, classify, cusp_normalize,
                      enumerate_ball, format_mat2, parabolic_shift_trace,
                      parse_mat2, trace_set)

from conftest import (mat2_canonical, mat2_is_identity, mat2_least_traces, projmat,
                      rand_elem, rand_mat)

FI = FieldDesc(-1)
F5 = FieldDesc(5)


def q(a, b=0, field=QQ):
    return QuadElem.of(a, b, field)


class TestGroupLaws:
    def test_product_example(self):
        x = projmat(1, 1, 0, 1)
        y = projmat(1, 0, 1, 1)
        z = x * y
        assert z == projmat(2, 1, 1, 1)
        assert z.trace() == q(3)

    def test_inverse(self):
        x = projmat(2, 1, 3, 2)
        assert (x * x.inv()).is_identity()
        assert (x * x.inv()).trace() == q(2)

    def test_trace_canonical_sign(self):
        assert projmat(0, -1, 1, 0).trace() == q(0)
        assert projmat(-2, 1, 1, -1).trace() == q(3)  # folded from -3

    def test_det_enforced(self):
        with pytest.raises(ValueError):
            Mat2.of(1, 0, 0, 2)

    def test_det_preserved_by_products(self, rng):
        one = q(1)
        for _ in range(200):
            m = rand_mat(rng, QQ) * rand_mat(rng, F5)
            det = m.det()
            assert det.a == 1 and det.b == 0

    def test_canonicalization_kills_sign(self, rng):
        for _ in range(1000):
            field = [QQ, F5, FI][_ % 3]
            m = rand_mat(rng, field)
            assert ProjMat.of(m) == ProjMat.of(-m)

    def test_associativity_spot(self, rng):
        for _ in range(50):
            a, b, c = (ProjMat.of(rand_mat(rng, FI)) for _ in range(3))
            assert (a * b) * c == a * (b * c)


class TestClassify:
    def test_examples(self):
        assert classify(projmat(1, 5, 0, 1)) is MatClass.PARABOLIC
        assert classify(projmat(0, -1, 1, 0)) is MatClass.ELLIPTIC
        assert classify(projmat(2, 1, 1, 1)) is MatClass.HYPERBOLIC_OR_LOXODROMIC
        assert classify(ProjMat.identity()) is MatClass.IDENTITY
        assert classify(projmat(-1, 0, 0, -1)) is MatClass.IDENTITY

    def test_loxodromic_complex_trace(self):
        m = projmat(q(1, 1, FI), q(1, 0, FI), q(0, 1, FI), q(1, 0, FI))
        t = m.rep.trace()
        assert t.b != 0
        assert classify(m) is MatClass.HYPERBOLIC_OR_LOXODROMIC

    def test_negative_parabolic(self):
        assert classify(projmat(-1, 3, 0, -1)) is MatClass.PARABOLIC


class TestCuspNormalize:
    def test_basic_example(self):
        p = projmat(1, 1, 0, 1)
        g = projmat(0, -1, 1, 0)
        h, beta_sq = cusp_normalize(p, g)
        assert h.is_identity()
        assert beta_sq == q(1)

    def test_scaled_example(self):
        # g = (0, -1/2; 2, 0) conjugates (1,2;0,1) to (1,0;-8,1): beta^2 = 4
        p = projmat(1, 2, 0, 1)
        g = projmat(0, Fraction(-1, 2), 2, 0)
        h, beta_sq = cusp_normalize(p, g)
        assert h.is_identity()
        assert beta_sq == q(4)

    def test_elliptic_rejected(self):
        with pytest.raises(PreconditionError):
            cusp_normalize(projmat(0, -1, 1, 0), projmat(1, 1, 0, 1))

    def test_fixed_point_not_moved(self):
        p = projmat(1, 1, 0, 1)
        with pytest.raises(PreconditionError):
            cusp_normalize(p, projmat(1, 5, 0, 1))  # also fixes infinity

    def test_conjugated_instance_postconditions(self, rng):
        # conjugating the data must still produce unitriangular forms
        r = projmat(2, 1, 1, 1)
        p = r * projmat(1, 3, 0, 1) * r.inv()
        g = r * projmat(0, -1, 1, 0) * r.inv()
        h, beta_sq = cusp_normalize(p, g)
        upper = h.rep * p.rep * h.rep.adj()
        assert upper.c.is_zero() and upper.a == upper.d
        lower = h.rep * (g.rep * p.rep * g.rep.adj()) * h.rep.adj()
        assert lower.b.is_zero() and lower.a == lower.d
        t = upper.b / upper.a
        u = lower.c / lower.a
        assert beta_sq == -(u / t)

    def test_gaussian_field_instance(self):
        p = projmat(q(1, 0, FI), q(0, 1, FI), q(0, 0, FI), q(1, 0, FI))
        g = projmat(0, -1, 1, 0, field=FI)
        h, beta_sq = cusp_normalize(p, g)
        assert not beta_sq.is_zero()


class TestAnIteration:
    def test_printed_step_formula(self, rng):
        # step result must match (1+ac+c^2, 1-ac-a^2; c^2, 1-ac) literally
        for _ in range(50):
            m = rand_mat(rng, QQ if _ % 2 else FI)
            a, c = m.a, m.c
            step = an_step(m)
            assert step.a == 1 + a * c + c * c
            assert step.b == 1 - a * c - a * a
            assert step.c == c * c
            assert step.d == 1 - a * c

    def test_example_matrix(self):
        m = Mat2.of(2, 1, 3, 2)
        m1 = an_iteration(m, 1)
        assert m1.entries() == Mat2.of(16, -9, 9, -5).entries()
        assert m1.trace() == q(11)
        m2 = an_iteration(m, 2)
        assert m2.c == q(81)
        assert m2.trace() == q(83)

    def test_lower_left_and_trace_powers(self, rng):
        for i in range(50):
            field = QQ if i % 2 else FI
            m = rand_mat(rng, field)
            for n in range(1, 6):
                mn = an_iteration(m, n)
                cpow = m.c ** (2 ** n)
                assert mn.c == cpow
                assert mn.trace() == cpow + 2

    def test_zero_lower_left(self):
        m = Mat2.of(1, 7, 0, 1)
        for n in (1, 2, 3):
            assert an_iteration(m, n).trace() == q(2)

    def test_n_zero_is_base(self):
        m = Mat2.of(2, 1, 3, 2)
        assert an_iteration(m, 0).entries() == m.entries()


class TestParabolicShift:
    def test_examples(self):
        a1 = an_iteration(Mat2.of(2, 1, 3, 2), 1)
        assert parabolic_shift_trace(a1, 1) == q(20)
        assert parabolic_shift_trace(a1, -1) == q(2)
        assert parabolic_shift_trace(a1, 0) == a1.trace()

    def test_integer_range(self, rng):
        for _ in range(20):
            m = rand_mat(rng, QQ)
            a2 = an_iteration(m, 2)
            c4 = m.c ** 4
            for k in range(-5, 6):
                assert parabolic_shift_trace(a2, k) == c4 * (k + 1) + 2

    def test_lattice_shift_element(self):
        m = rand_mat_gauss()
        a1 = an_iteration(m, 1)
        k = q(2, 3, FI)  # 2 + 3*alpha with alpha = sqrt(-1)
        expected = (k + 1) * (m.c ** 2) + 2
        assert parabolic_shift_trace(a1, k) == expected

    def test_requires_iteration_shape(self):
        with pytest.raises(PreconditionError):
            parabolic_shift_trace(Mat2.of(2, 1, 3, 2), 1)


def rand_mat_gauss():
    import random
    return rand_mat(random.Random(7), FI)


class TestConjugationIdentity:
    def test_trace_expansion(self, rng):
        # (1,0;k b2,1) A (1,l;0,1) has trace a + d + k l b2 a + k b2 b + l c
        for _ in range(60):
            field = F5 if _ % 2 else QQ
            m = rand_mat(rng, field)
            beta_sq = rand_elem(rng, field, num_max=4, den_max=3)
            k = rng.randint(-10, 10)
            l = rng.randint(-10, 10)
            one = q(1, 0, field)
            zero = q(0, 0, field)
            left = Mat2(one, zero, beta_sq * k, one)
            right = Mat2(one, q(l, 0, field), zero, one)
            got = (left * m * right).trace()
            a, b, c, d = m.entries()
            want = a + d + beta_sq * a * (k * l) + beta_sq * b * k + c * l
            assert got == want


class TestMatrixText:
    def test_round_trip(self, rng):
        for _ in range(100):
            field = [QQ, F5, FI][_ % 3]
            m = rand_mat(rng, field)
            assert parse_mat2(format_mat2(m)).entries() == m.entries()

    def test_examples(self):
        m = parse_mat2("[1,1/2+1/2*sqrt(5);0,1]")
        assert m.b == q(Fraction(1, 2), Fraction(1, 2), F5)
        with pytest.raises(ValueError):
            parse_mat2("[1,2;3]")

    def test_canonical_trace_helper(self):
        assert canonical_trace(q(-3)) == q(3)
        assert canonical_trace(q(0, -2, FI)) == q(0, 2, FI)
        assert canonical_trace(q(0)) == q(0)


class TestMat2Oracle:
    """The integer-coordinate ProjMat against the same computation done with
    Mat2 products of field elements."""

    @staticmethod
    def mat2_ball(spec, radius):
        letters = []
        for g in spec.generators:
            for cand in (g.rep, g.rep.adj()):
                cand = mat2_canonical(cand)
                if not mat2_is_identity(cand) and cand not in letters:
                    letters.append(cand)
        ident = Mat2.identity(spec.field)
        seen = {ident: 0}
        frontier = [ident]
        for level in range(1, radius + 1):
            new_frontier = []
            for g in frontier:
                for let in letters:
                    h = mat2_canonical(g * let)
                    if h not in seen:
                        seen[h] = level
                        new_frontier.append(h)
            frontier = new_frontier
        return seen

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_ball_and_traces_at_radius_5(self, name):
        spec = catalog(name)
        ball = enumerate_ball(spec, 5)
        expected = self.mat2_ball(spec, 5)
        assert [(g.rep, wl) for g, wl in ball.word_length.items()] == list(expected.items())
        least = mat2_least_traces(expected.items())
        ts = trace_set(ball)
        assert ts.provenance == least and ts.size == len(least)
