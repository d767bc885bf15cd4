import functools
import itertools
import json
from fractions import Fraction

import pytest

from tracelab import (Ball, BudgetExceededError, FieldDesc, PreconditionError,
                      ProjMat, QQ, QuadElem, RingOfIntegers, catalog, catalog_names,
                      enumerate_ball, enumerate_largest_ball, format_quadelem,
                      gamma2_ball, groups, load_group_spec, trace_set)
from tracelab.arithmeticity import gamma2_traces
from tracelab.groups import (ARITHMETIC, DEFAULT_CAP, NON_ARITHMETIC, GroupSpec,
                             group_spec_from_dict)
from tracelab.psl2 import format_mat2, parse_mat2
from tracelab.qfield import EUCLIDEAN_IMAGINARY_D

from conftest import (catalog_reference, enumerate_ball_reference, gamma2_ball_reference,
                      mat2_least_traces, projmat)

FI = FieldDesc(-1)
F5 = FieldDesc(5)

# a spec-file group free of rank 2 (Sanov's subgroup of PSL(2, Z)), so its
# ball of radius r has 2*3^r - 1 elements
FREE_RANK_2 = {"name": "free", "field_d": None, "generators": ["[1,2;0,1]", "[1,0;2,1]"]}


def spec_of(name):
    return group_spec_from_dict(FREE_RANK_2) if name == "free" else catalog(name)


def count_products(monkeypatch):
    """Count the calls of ProjMat.__mul__ from here on: calls[0]."""
    calls = [0]
    mul = ProjMat.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(ProjMat, "__mul__", counted)
    return calls


def q(a, b=0, field=QQ):
    return QuadElem.of(a, b, field)


def brute_force_ball(generators, radius):
    """Independent oracle: dedup all words over generators and inverses."""
    letters = []
    for g in generators:
        letters.append(g)
        letters.append(g.inv())
    seen = {ProjMat.identity(generators[0].field)}
    for length in range(1, radius + 1):
        for word in itertools.product(letters, repeat=length):
            m = ProjMat.identity(generators[0].field)
            for let in word:
                m = m * let
            seen.add(m)
    return seen


class TestEnumerateBall:
    def test_psl2z_radius2_matches_word_dedup_oracle(self):
        spec = catalog("psl2z")
        oracle = brute_force_ball(spec.generators, 2)
        ball = enumerate_ball(spec, 2)
        assert set(ball.word_length) == oracle
        assert ball.size == len(oracle) == 10

    def test_radius1_generator_bound(self):
        for name in ("psl2z", "hecke(5)", "bianchi(-1)"):
            spec = catalog(name)
            ball = enumerate_ball(spec, 1)
            assert ball.size <= 2 * len(spec.generators) + 1

    def test_free_abelian_translations(self):
        gens = (projmat(1, 1, 0, 1, field=FI),
                projmat(1, q(0, 1, FI), 0, 1, field=FI))
        spec = GroupSpec("translations", gens, FI)
        ball = enumerate_ball(spec, 3)
        # lattice points m + n*i with |m| + |n| <= 3
        expected = sum(1 for m in range(-3, 4) for n in range(-3, 4)
                       if abs(m) + abs(n) <= 3)
        assert ball.size == expected == 25

    def test_monotone_and_word_lengths(self):
        spec = catalog("psl2z")
        b4 = enumerate_ball(spec, 4)
        b5 = enumerate_ball(spec, 5)
        assert set(b4.word_length) <= set(b5.word_length)
        assert all(wl <= 4 for wl in b4.word_length.values())
        for g in b4.word_length:
            assert b5.word_length[g] == b4.word_length[g]

    def test_inverse_closure_same_length(self):
        ball = enumerate_ball(catalog("hecke(5)"), 4)
        for g in ball.word_length:
            assert ball.word_length[g.inv()] == ball.word_length[g]

    def test_all_elements_det1_and_field(self):
        ball = enumerate_ball(catalog("bianchi(-3)"), 3)
        for g in ball.word_length:
            det = g.rep.det()
            assert det.a == 1 and det.b == 0

    def test_budget_cap_partial_result(self):
        spec = catalog("psl2z")
        full = enumerate_ball(spec, 6)
        cap = full.size - 5
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_ball(spec, 6, cap=cap)
        partial = exc.value.partial
        assert not partial.complete
        assert partial.radius >= 1
        reference = enumerate_ball(spec, partial.radius)
        assert set(partial.word_length) == set(reference.word_length)
        assert enumerate_largest_ball(spec, 6, cap=cap).radius == partial.radius

    def test_radius_zero_rejected(self):
        with pytest.raises(PreconditionError):
            enumerate_ball(catalog("psl2z"), 0)

    @pytest.mark.parametrize("name", catalog_names() + ["free"])
    def test_matches_the_mat2_reference(self, name):
        # the same elements, in the same order, with the same word lengths as
        # a breadth-first search that tries every letter at every element
        spec = spec_of(name)
        ref = list(enumerate_ball_reference(spec, 4, DEFAULT_CAP).word_length.items())
        sizes = []
        for radius in range(1, 5):
            ball = enumerate_ball(spec, radius)
            assert (ball.radius, ball.complete) == (radius, True)
            assert [(g.rep, wl) for g, wl in ball.word_length.items()] == [
                (m, wl) for m, wl in ref if wl <= radius]
            sizes.append(ball.size)
        # and the same partial ball when the budget runs out, at every level
        for cap in {1, 2, *sizes, *(n - 1 for n in sizes), *(n + 1 for n in sizes)}:
            with pytest.raises(BudgetExceededError) as exc:
                enumerate_ball_reference(spec, 5, cap)
            ref_partial = exc.value.partial
            with pytest.raises(BudgetExceededError) as exc:
                enumerate_ball(spec, 5, cap)
            partial = exc.value.partial
            assert (partial.radius, partial.complete) == (ref_partial.radius, False)
            assert [(g.rep, wl) for g, wl in partial.word_length.items()] == list(
                ref_partial.word_length.items())

    @pytest.mark.parametrize("radius", range(1, 7))
    def test_free_group_products_are_all_new(self, radius, monkeypatch):
        # no element is multiplied by the inverse of the letter that first
        # reached it, so in a free group of rank 2 every product is new
        spec = spec_of("free")
        calls = count_products(monkeypatch)
        ball = enumerate_ball(spec, radius)
        assert ball.size == 2 * 3 ** radius - 1
        assert calls[0] == ball.size - 1 == 2 * 3 ** radius - 2


class TestTraceSet:
    def test_psl2z_radius2_traces(self):
        # derived from the 10-element oracle ball: traces fold to {0, 1, 2}
        ball = enumerate_ball(catalog("psl2z"), 2)
        ts = trace_set(ball)
        assert [format_quadelem(t) for t in ts.exact] == ["0", "1", "2"]

    def test_provenance_is_least_word_length_in_any_element_order(self):
        # an enumerated ball lists elements by word length; a ball may not
        ball = enumerate_ball(catalog("gamma0(6)"), 3)
        back = Ball(ball.radius, dict(reversed(ball.word_length.items())))
        ts, ts_back = trace_set(ball), trace_set(back)
        assert ts_back.exact == ts.exact and ts_back.provenance == ts.provenance

    @pytest.mark.parametrize("name", catalog_names())
    def test_traces_come_from_the_trace_keys(self, name, monkeypatch):
        # trace_set builds each trace from its ProjMat.trace_key, never
        # through ProjMat.trace; the Mat2 path gives the reference
        ball = enumerate_ball(catalog(name), 4)
        expected = mat2_least_traces((g.rep, wl) for g, wl in ball.word_length.items())

        def no_trace(self):
            raise AssertionError("trace_set called ProjMat.trace")

        monkeypatch.setattr(ProjMat, "trace", no_trace)
        ts = trace_set(ball)
        assert ts.provenance == expected and set(ts.exact) == set(expected)

    def test_identity_only_ball_reduced_empty(self):
        spec = GroupSpec("trivial", (ProjMat.identity(),), QQ)
        ball = enumerate_ball(spec, 3)
        assert ball.size == 1
        assert trace_set(ball, reduced=True).size == 0
        assert trace_set(ball, reduced=False).size == 1

    def test_hecke5_contains_lambda(self):
        ball = enumerate_ball(catalog("hecke(5)"), 2)
        ts = trace_set(ball)
        lam = q(Fraction(1, 2), Fraction(1, 2), F5)
        assert lam in ts.exact

    def test_psl2z_traces_are_integers(self):
        ts = trace_set(enumerate_ball(catalog("psl2z"), 8))
        for t in ts.exact:
            assert t.b == 0 and t.a.denominator == 1

    def test_provenance_is_least_word_length(self):
        ball = enumerate_ball(catalog("psl2z"), 4)
        ts = trace_set(ball)
        for t in ts.exact:
            realized = min(ball.word_length[g] for g in ball.word_length
                           if not g.is_identity() and g.trace() == t)
            assert ts.provenance[t] == realized

    def test_sorted_by_embedding(self):
        ts = trace_set(enumerate_ball(catalog("bianchi(-1)"), 4))
        embedded = [complex(z) for z in ts.embedded]
        assert embedded == sorted(embedded, key=lambda z: (z.real, z.imag))

    @pytest.mark.parametrize("name", catalog_names())
    def test_embedded_is_each_trace_embedded(self, name):
        for reduced in (True, False):
            ts = trace_set(enumerate_ball(catalog(name), 5), reduced)
            expected = tuple(t.embed() for t in ts.exact)
            assert ts.embedded == expected
            assert list(map(type, ts.embedded)) == list(map(type, expected))

    def test_embedded_of_a_ball_over_several_fields(self):
        # a ball built by hand may mix Q with a quadratic field: each trace
        # keeps its own embedding, a float over Q and a complex over Q(i)
        mats = [projmat(2, 1, 1, 1), projmat(5, 2, 2, 1),
                projmat(1, q(0, 1, FI), q(0, 1, FI), 0, field=FI),
                projmat(3, 1, 2, 1, field=FI), projmat(1 + q(0, 1, FI), 1, -1, 0, field=FI)]
        ts = trace_set(Ball(1, dict.fromkeys(mats, 1)))
        assert {t.field for t in ts.exact} == {QQ, FI}
        expected = tuple(t.embed() for t in ts.exact)
        assert ts.embedded == expected
        assert list(map(type, ts.embedded)) == list(map(type, expected))

    def test_restrict(self):
        ball = enumerate_ball(catalog("psl2z"), 6)
        ts = trace_set(ball)
        sub = ts.restrict(4)
        direct = trace_set(enumerate_ball(catalog("psl2z"), 4))
        assert sub.exact == direct.exact

    @pytest.mark.parametrize("order", ["enumerated", "reversed", "gamma2", "two-identities",
                                       "identity-over-a-later-field"])
    def test_identity_is_dropped_by_a_lookup(self, order, monkeypatch):
        # the reduced trace set drops the identity without testing each
        # element (it tests the first one): wherever the identity sits in
        # the ball, and with the identities over Q and over the quadratic
        # ring both present
        ball = enumerate_ball(catalog("hecke(5)"), 4)
        if order == "reversed":
            ball = Ball(4, dict(reversed(ball.word_length.items())))
        elif order == "gamma2":
            ball = gamma2_ball(ball, 400)
        elif order == "two-identities":
            ball = Ball(2, {ProjMat.identity(F5): 0, projmat(1, 1, 0, 1): 1,
                            projmat(1, q(0, 1, F5), 0, 1): 1, projmat(2, 1, 1, 1): 1,
                            ProjMat.identity(QQ): 2})
        elif order == "identity-over-a-later-field":
            ball = Ball(2, {projmat(2, 1, 1, 1): 1, projmat(1, 1, 0, 1, F5): 2,
                            projmat(1, q(0, 1, F5), 0, 1): 2, ProjMat.identity(F5): 0})
        expected = mat2_least_traces((g.rep, wl) for g, wl in ball.word_length.items())
        calls = [0]
        is_identity = ProjMat.is_identity

        def counted(self):
            calls[0] += 1
            return is_identity(self)

        monkeypatch.setattr(ProjMat, "is_identity", counted)
        ts = trace_set(ball)
        assert calls[0] == 1
        assert ts.provenance == expected and set(ts.exact) == set(expected)


def comparator_order(traces):
    return sorted(traces, key=functools.cmp_to_key(QuadElem.compare_embedded))


def trace_matrix(t, field=QQ):
    """[t, 1; -1, 0], of trace t."""
    return projmat(t, 1, -1, 0, field)


def lucas_and_fibonacci(n):
    f = [0, 1]
    while len(f) <= n + 1:
        f.append(f[-1] + f[-2])
    return f[n - 1] + f[n + 1], f[n]


# pairs of distinct traces whose float keys do not order them: one float
# for two integers, L_50 and F_50*sqrt(5) (2*|psi|^50 apart, at 2.8e10), and
# a value whose parts overflow to +inf and -inf, so that it embeds as NaN
FALLBACK_PAIRS = {
    "one-float": lambda: [ProjMat.of(parse_mat2(text)) for text in (
        "[100000000000000000000,99999999999999999999;1,1]",
        "[100000000000000000001,100000000000000000000;1,1]")],
    "lucas-fibonacci": lambda: [trace_matrix(q(lucas_and_fibonacci(50)[0], 0, F5), F5),
                                trace_matrix(q(0, lucas_and_fibonacci(50)[1], F5), F5)],
    "beyond-float-range": lambda: [trace_matrix(q(10 ** 400, -10 ** 399, F5), F5),
                                   trace_matrix(q(3, 0, F5), F5)],
}


class TestCertifiedOrder:
    @pytest.mark.parametrize("name", catalog_names())
    def test_is_the_comparator_order(self, name):
        for radius in range(1, 6):
            ball = enumerate_ball(catalog(name), radius)
            for ts in (trace_set(ball), trace_set(ball, reduced=False)):
                assert list(ts.exact) == comparator_order(ts.exact)
        g2 = gamma2_traces(ball)
        assert list(g2.exact) == comparator_order(g2.exact)
        assert g2.embedded == tuple(t.embed() for t in g2.exact)

    @pytest.mark.parametrize("case", FALLBACK_PAIRS)
    def test_fallback_gives_the_comparator_order(self, case, monkeypatch):
        mats = FALLBACK_PAIRS[case]()
        fallbacks = []
        cmp_to_key = functools.cmp_to_key

        def spy(cmp):
            fallbacks.append(cmp)
            return cmp_to_key(cmp)

        monkeypatch.setattr(functools, "cmp_to_key", spy)
        sets = [trace_set(Ball(1, dict.fromkeys(order, 1))) for order in (mats, mats[::-1])]
        monkeypatch.undo()
        # the floats tie or misorder the pair in one insertion order, which
        # the comparator sorts
        assert len(fallbacks) == 1
        expected = comparator_order(sets[0].exact)
        for ts in sets:
            assert list(ts.exact) == expected
            assert list(map(repr, ts.embedded)) == [repr(t.embed()) for t in expected]
            assert ts.provenance == dict.fromkeys(expected, 1)

    @pytest.mark.parametrize("name", ["gamma0(6)", "hecke(5)", "bianchi(-3)"])
    def test_certificate_is_one_comparison_per_neighbour_pair(self, name, monkeypatch):
        ball = enumerate_ball(catalog(name), 5)
        calls = [0]
        compare = QuadElem.compare_embedded

        def counted(self, other):
            calls[0] += 1
            return compare(self, other)

        monkeypatch.setattr(QuadElem, "compare_embedded", counted)
        ts = gamma2_traces(ball)
        assert ts.size > 200 and calls[0] == ts.size - 1


class TestGamma2Ball:
    def test_squares_present_with_provenance(self):
        ball = enumerate_ball(catalog("psl2z"), 4)
        g2 = gamma2_ball(ball)
        for g in ball.word_length:
            sq = g * g
            assert sq in g2.word_length
            assert g2.word_length[sq] <= 2 * ball.word_length[g]

    def test_square_trace_identity(self):
        ball = enumerate_ball(catalog("hecke(5)"), 5)
        for g in ball.word_length:
            t = g.rep.trace()
            assert (g * g).rep.trace() in (t * t - 2, -(t * t - 2))

    def test_pair_products_present(self):
        ball = enumerate_ball(catalog("psl2z"), 3)
        g2 = gamma2_ball(ball, pair_budget=10_000)
        a = projmat(1, 1, 0, 1)
        b = projmat(0, -1, 1, 0)
        prod = (a * a) * (b * b)
        assert prod in g2.word_length

    @pytest.mark.parametrize("name", catalog_names() + ["free"])
    def test_pairs_run_over_the_distinct_squares(self, name, monkeypatch):
        # one product per ball element, then one per ordered pair of the
        # distinct non-identity squares of the sub-ball
        ball = enumerate_ball(spec_of(name), 4)
        calls = count_products(monkeypatch)
        for budget in (0, 100, 5000):
            sub_radius = max((r for r, n in ball.per_radius_counts() if n * n <= budget),
                             default=0)
            squares = {g * g for g, wl in ball.word_length.items() if wl <= sub_radius}
            u = len([sq for sq in squares if not sq.is_identity()])
            calls[0] = 0
            gamma2_ball(ball, budget)
            assert calls[0] == ball.size + u * u

    @pytest.mark.parametrize("name", catalog_names())
    def test_matches_the_reference_loop(self, name):
        # the same elements with the same word lengths, in the same order,
        # also from a ball whose elements are not listed by word length
        for radius in range(1, 5):
            ball = enumerate_ball(catalog(name), radius)
            back = Ball(radius, dict(reversed(ball.word_length.items())))
            for b, budget in itertools.product((ball, back), (0, 100, 5000)):
                got, ref = gamma2_ball(b, budget), gamma2_ball_reference(b, budget)
                assert (got.radius, got.complete) == (ref.radius, ref.complete)
                assert list(got.word_length.items()) == list(ref.word_length.items())


class TestCatalog:
    def test_psl2z(self):
        spec = catalog("psl2z")
        assert spec.field == QQ
        assert spec.expected_class == ARITHMETIC

    def test_hecke_lambdas(self):
        lam4 = catalog("hecke(4)").generators[1].rep.b
        lam5 = catalog("hecke(5)").generators[1].rep.b
        lam6 = catalog("hecke(6)").generators[1].rep.b
        assert lam4 == q(0, 1, FieldDesc(2))
        assert lam5 == q(Fraction(1, 2), Fraction(1, 2), F5)
        assert lam6 == q(0, 1, FieldDesc(3))
        assert catalog("hecke(5)").expected_class == NON_ARITHMETIC
        assert catalog("hecke(4)").expected_class == ARITHMETIC

    def test_bianchi(self):
        spec = catalog("bianchi(-1)")
        assert spec.field == FI
        assert spec.expected_class == ARITHMETIC
        assert spec.generators[1].rep.b == q(0, 1, FI)
        spec3 = catalog("bianchi(-3)")
        assert spec3.generators[1].rep.b == q(Fraction(1, 2), Fraction(1, 2),
                                              FieldDesc(-3))

    def test_gamma0_matrices_in_gamma0(self):
        for n in range(2, 7):
            spec = catalog(f"gamma0({n})")
            for g in spec.generators:
                c = g.rep.c
                assert c.b == 0 and c.a.denominator == 1
                assert int(c.a) % n == 0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("psl3z")

    def test_names_all_resolve(self):
        for name in catalog_names():
            catalog(name)

    def test_names_keep_their_order(self):
        # the unknown-group message lists the names in this order
        assert catalog_names() == ["psl2z", *(f"gamma0({n})" for n in range(2, 7)),
                                   *(f"hecke({n})" for n in (4, 5, 6)),
                                   *(f"bianchi({d})" for d in (-1, -2, -3, -7, -11))]

    @pytest.mark.parametrize("name", catalog_names())
    def test_row_is_the_hand_built_group(self, name):
        # same name, field, expected_class and generators, in the same order
        assert catalog(name) == catalog_reference(name)

    def test_bianchi_rows_are_the_euclidean_rings(self):
        # (T, T_omega, S) generates PSL(2, O_d) only over the Euclidean rings
        rows = [groups._CATALOG[name] for name in catalog_names()
                if name.startswith("bianchi(")]
        assert [row["field_d"] for row in rows] == list(EUCLIDEAN_IMAGINARY_D)
        for row in rows:
            fld = FieldDesc(row["field_d"])
            assert parse_mat2(row["generators"][1], fld).b == RingOfIntegers(fld).omega

    def test_each_name_is_parsed_once(self):
        groups._catalog_spec.cache_clear()
        for _ in range(3):
            for name in catalog_names():
                assert catalog(name.upper()) is catalog(name)
        info = groups._catalog_spec.cache_info()
        assert (info.misses, info.currsize) == (len(catalog_names()), len(catalog_names()))


class TestGroupSpecFiles:
    @pytest.mark.parametrize("name", catalog_names())
    def test_round_trip(self, name, tmp_path):
        spec = catalog(name)
        data = {"name": spec.name, "field_d": spec.field.d,
                "generators": [format_mat2(g.rep) for g in spec.generators],
                "expected_class": spec.expected_class}
        assert data == groups._CATALOG[name]  # each row is the spec file of the group
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        loaded = load_group_spec(path)
        assert loaded.name == spec.name
        assert loaded.field == spec.field
        assert loaded.generators == spec.generators
        assert loaded.expected_class == spec.expected_class

    def test_from_dict_rational(self):
        spec = group_spec_from_dict(
            {"name": "ex", "field_d": None, "generators": ["[1,1;0,1]"]})
        assert spec.field == QQ
        assert spec.expected_class == "unknown"

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            GroupSpec("bad", (), QQ)
