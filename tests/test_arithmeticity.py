from fractions import Fraction

import pytest

from tracelab import (FieldDesc, Mat2, PreconditionError, QQ, arithmeticity,
                      canonical_trace, QuadElem, catalog, catalog_names,
                      conjugate_boundedness, enumerate_ball,
                      gamma2_traces, integrality_check,
                      subtraction_closure_check, takeuchi_verdict, trace_field,
                      trace_set)
from tracelab.arithmeticity import (FLAG_BOUNDED, FLAG_NA_IMAGINARY,
                                    FLAG_NA_RATIONAL, FLAG_UNBOUNDED,
                                    VERDICT_CONSISTENT, VERDICT_INCONCLUSIVE,
                                    VERDICT_WITNESS,
                                    check_square_trace_identities)
from tracelab.groups import GroupSpec, TraceSet

from conftest import projmat, rand_mat

F5 = FieldDesc(5)
FI = FieldDesc(-1)


def q(a, b=0, field=QQ):
    return QuadElem.of(a, b, field)


def make_trace_set(values, word_length=1) -> TraceSet:
    exact = tuple(values)
    return TraceSet(exact, tuple(v.embed() for v in exact),
                    {v: word_length for v in exact}, True, word_length)


@pytest.fixture(scope="module")
def hecke5_ball_10():
    return enumerate_ball(catalog("hecke(5)"), 10)


@pytest.fixture(scope="module")
def psl2z_ball_8():
    return enumerate_ball(catalog("psl2z"), 8)


class TestTraceField:
    def test_psl2z_rational(self, psl2z_ball_8):
        assert trace_field(trace_set(psl2z_ball_8)) == QQ

    def test_hecke5_quadratic(self):
        ts = trace_set(enumerate_ball(catalog("hecke(5)"), 2))
        assert trace_field(ts) == F5

    def test_bianchi_imaginary(self):
        ts = trace_set(enumerate_ball(catalog("bianchi(-1)"), 4))
        fld = trace_field(ts)
        assert fld == FI and fld.is_imaginary

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            trace_field(make_trace_set([]))


class TestIntegrality:
    def test_psl2z_integral(self, psl2z_ball_8):
        res = integrality_check(trace_set(psl2z_ball_8))
        assert res.integral and not res.violations

    def test_injected_rational_violation(self):
        res = integrality_check(make_trace_set([q(Fraction(3, 2))]))
        assert not res.integral
        v = res.violations[0]
        # 3/2 -> 1/4 -> -31/16 -> ... denominators 2, 4, 16, 256
        assert v.doubled_denominators == (2, 4, 16, 256)
        assert v.certified
        assert res.certified_violation is v

    def test_golden_ratio_integral(self):
        res = integrality_check(make_trace_set(
            [q(Fraction(1, 2), Fraction(1, 2), F5)]))
        assert res.integral

    def test_half_integer_lattice_violation(self):
        # sqrt(-3)/2 is non-integral although its coordinates have denominator 2
        f3 = FieldDesc(-3)
        res = integrality_check(make_trace_set([q(0, Fraction(1, 2), f3)]))
        assert not res.integral
        assert res.violations[0].certified


class TestConjugateBoundedness:
    def test_constant_traces_bounded(self):
        ts = make_trace_set([q(1, 1, F5)])
        growth = conjugate_boundedness(ts)
        assert growth.flag == FLAG_BOUNDED

    def test_rational_not_applicable(self, psl2z_ball_8):
        growth = conjugate_boundedness(trace_set(psl2z_ball_8))
        assert growth.flag == FLAG_NA_RATIONAL

    def test_imaginary_not_applicable(self):
        ts = trace_set(enumerate_ball(catalog("bianchi(-1)"), 4))
        assert conjugate_boundedness(ts).flag == FLAG_NA_IMAGINARY

    def test_hecke5_gamma2_unbounded(self, hecke5_ball_10):
        g2 = gamma2_traces(hecke5_ball_10, pair_budget=4000)
        growth = conjugate_boundedness(g2)
        assert growth.flag == FLAG_UNBOUNDED
        assert len(growth.shells) >= 4

    @pytest.mark.parametrize("name, squares", [("hecke(4)", False), ("hecke(6)", False),
                                               ("hecke(5)", False), ("hecke(5)", True)])
    def test_matches_the_lookup_per_shell(self, name, squares, monkeypatch):
        # the word lengths are read once, one provenance lookup per trace;
        # the reference looks each trace up again in every shell
        ball = enumerate_ball(catalog(name), 6)
        ts = gamma2_traces(ball, pair_budget=4000) if squares else trace_set(ball)
        moduli = [abs(t.conjugate().embed()) for t in ts.exact]
        shells = range(2, max(ts.provenance.values()) + 1, 2)
        running, maxima = 0.0, []
        for s in shells:
            vals = [m for m, t in zip(moduli, ts.exact) if ts.provenance[t] <= s]
            running = max([running, *vals])
            maxima.append(running)
        hashes = [0]
        quad_hash = QuadElem.__hash__

        def counted(self):
            hashes[0] += 1
            return quad_hash(self)

        monkeypatch.setattr(QuadElem, "__hash__", counted)
        growth = conjugate_boundedness(ts)
        assert growth.shells == tuple(shells) and growth.maxima == tuple(maxima)
        assert hashes[0] == ts.size


class TestGamma2Traces:
    def test_psl2z_subset_of_integers(self, psl2z_ball_8):
        g2 = gamma2_traces(psl2z_ball_8, pair_budget=4000)
        for t in g2.exact:
            assert t.b == 0 and t.a.denominator == 1

    def test_square_trace_identity_on_ball(self, psl2z_ball_8):
        from tracelab.psl2 import canonical_trace
        count = 0
        for g in psl2z_ball_8.word_length:
            t = g.rep.trace()
            sq = g * g
            assert sq.trace() == canonical_trace(t * t - 2)
            count += 1
        assert count == psl2z_ball_8.size

    def test_identity_trace_excluded(self, psl2z_ball_8):
        g2 = gamma2_traces(psl2z_ball_8, pair_budget=4000)
        # reduced set may contain 2 from parabolics, but not from the identity
        assert g2.reduced

    def test_power_trace_recursion(self, rng):
        # tr(B^n) = tr(B) tr(B^(n-1)) - tr(B^(n-2)), exactly
        for _ in range(100):
            field = [QQ, F5, FI][_ % 3]
            b = rand_mat(rng, field)
            traces = [Mat2.identity(field).trace()] + [
                (b ** n).trace() for n in range(1, 9)]
            for n in range(2, 9):
                assert traces[n] == b.trace() * traces[n - 1] - traces[n - 2]


class TestVerdicts:
    def test_psl2z_consistent(self, psl2z_ball_8):
        rep = takeuchi_verdict(psl2z_ball_8, pair_budget=4000)
        assert rep.verdict == VERDICT_CONSISTENT
        assert rep.integral and rep.trace_field_d is None
        assert rep.radius == 8

    def test_hecke5_witness(self, hecke5_ball_10):
        rep = takeuchi_verdict(hecke5_ball_10, pair_budget=4000)
        assert rep.verdict == VERDICT_WITNESS
        assert rep.witness is not None
        assert rep.conjugate_growth.flag == FLAG_UNBOUNDED

    def test_witness_monotone_under_radius_growth(self, hecke5_ball_10):
        smaller = enumerate_ball(catalog("hecke(5)"), 8)
        rep8 = takeuchi_verdict(smaller, pair_budget=4000)
        rep10 = takeuchi_verdict(hecke5_ball_10, pair_budget=4000)
        assert rep8.verdict == VERDICT_WITNESS
        assert rep10.verdict == VERDICT_WITNESS

    def test_elementary_group_flagged(self):
        spec = GroupSpec("parabolic", (projmat(1, 1, 0, 1),), QQ)
        rep = takeuchi_verdict(enumerate_ball(spec, 4))
        assert rep.elementary
        assert rep.verdict == VERDICT_INCONCLUSIVE

    @pytest.mark.parametrize("entries", [(0, -1, 1, 0), (1, 1, -1, 0), (2, 1, 1, 1)],
                             ids=["order-2", "order-3", "hyperbolic"])
    def test_one_generator_of_trace_other_than_2_is_not_elementary(self, entries):
        # the ball of S, of order 2, is {1, S}: its one non-identity trace decides
        spec = GroupSpec("one", (projmat(*entries),), QQ)
        assert not takeuchi_verdict(enumerate_ball(spec, 2)).elementary

    @pytest.mark.parametrize("name", catalog_names())
    def test_trace_field_runs_once_per_verdict(self, name, monkeypatch):
        # takeuchi_verdict hands its trace field to conjugate_boundedness,
        # which finds the field itself only when called without one
        ball = enumerate_ball(catalog(name), 5)
        g2 = gamma2_traces(ball, pair_budget=1000)
        expected = (trace_field(g2).d, conjugate_boundedness(g2))
        calls = [0]

        def counted(traces):
            calls[0] += 1
            return trace_field(traces)

        monkeypatch.setattr(arithmeticity, "trace_field", counted)
        rep = takeuchi_verdict(ball, pair_budget=1000)
        assert calls[0] == 1
        assert (rep.trace_field_d, rep.conjugate_growth) == expected

    def test_report_serialization(self, psl2z_ball_8):
        rep = takeuchi_verdict(psl2z_ball_8, pair_budget=4000)
        data = rep.to_dict()
        for key in ("radius", "trace_field_d", "integral", "violations",
                    "conjugate_growth", "verdict", "witness"):
            assert key in data

    def test_injected_violation_gives_witness(self):
        # a fabricated group whose ball has a certified non-integral trace:
        # conjugate of the translation by diag(2, 1/2) scales b by 4
        g = projmat(q(1), q(Fraction(1, 4)), q(0), q(1))
        h = projmat(q(2), q(1), q(1), q(1))
        spec = GroupSpec("skewed", (g, h), QQ)
        rep = takeuchi_verdict(enumerate_ball(spec, 6))
        if not rep.integral:
            assert rep.verdict in (VERDICT_WITNESS, VERDICT_INCONCLUSIVE)


class TestSubtractionClosure:
    def test_polynomial_identities(self):
        assert check_square_trace_identities()

    def test_small_closed_set(self):
        rep = subtraction_closure_check(make_trace_set([q(0), q(5)]), 5)
        assert rep.closed

    def test_small_violation(self):
        rep = subtraction_closure_check(make_trace_set([q(3), q(5)]), 5)
        assert not rep.closed
        a, b, diff = rep.violations[0]
        assert diff == q(2)

    def test_psl2z_radius8(self, psl2z_ball_8):
        rep = subtraction_closure_check(trace_set(psl2z_ball_8), 5)
        assert rep.closed
        assert rep.has_two and rep.has_four
        assert rep.identities_ok
        assert rep.pairs_checked > 0

    def test_window_limits_pairs(self, psl2z_ball_8):
        narrow = subtraction_closure_check(trace_set(psl2z_ball_8), 1)
        wide = subtraction_closure_check(trace_set(psl2z_ball_8), 5)
        assert narrow.pairs_checked < wide.pairs_checked

    def test_quadratic_field_window(self):
        lam = q(Fraction(1, 2), Fraction(1, 2), F5)
        ts = make_trace_set([lam, lam + 1, q(1, 0, F5)])
        rep = subtraction_closure_check(ts, 5)
        # lam+1 - lam = 1 present, lam - 1 = (-1+sqrt5)/2 missing
        assert not rep.closed

    @pytest.mark.parametrize("name, radius, window", [
        ("bianchi(-1)", 5, 3), ("bianchi(-1)", 5, Fraction(5, 2)), ("bianchi(-3)", 4, 2),
        ("bianchi(-2)", 4, 4)])
    def test_imaginary_field_window_against_brute_force(self, name, radius, window):
        # |a - b|^2 = x^2 + |d| y^2 for a - b = x + y*sqrt(d), exactly
        ts = trace_set(enumerate_ball(catalog(name), radius))
        d = -ts.exact[0].field.d
        pairs = [(a, b) for i, a in enumerate(ts.exact) for b in ts.exact[i + 1:]
                 if (a - b).a ** 2 + d * (a - b).b ** 2 <= window ** 2]
        assert any((a - b).b for a, b in pairs)  # some differences are not rational
        rep = subtraction_closure_check(ts, window)
        assert rep.pairs_checked == len(pairs)
        assert [v[:2] for v in rep.violations] == [
            (a, b) for a, b in pairs if canonical_trace(a - b) not in ts.provenance]
