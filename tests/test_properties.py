"""Property tests: text round-trips (including integers past the
interpreter's 4300-digit int <-> str limit), determinant and sign
invariants of products, agreement of the integer-coordinate ProjMat with
the Mat2 path, and invariance of the trace set under the choice of
generators, the shared embedded-sign rule against a high-precision
evaluation, QuadElem against the Fraction reference path, delta_c_set
against the QuadElem reference path, the `delta-c` csv and data tables
against the row-by-row writer, cluster_counts against the point-by-point
loop, gap against the spatial hash and full scan it replaced, the early
float-range exit of `delta-c` against the exact path,
the edge-by-edge Kronecker envelope against the exhaustive loop, the
literal parsers against the depth-counting splitters, the two-row division
step against the 16-candidate search, and the exact exponent schedule of
the witness against the float one."""

import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from tracelab import (QQ, BudgetExceededError, FieldDesc, GroupSpec, Mat2,
                      PreconditionError, ProjMat, QuadElem, RingOfIntegers,
                      canonical_trace, cluster_counts, delta_c_cluster_witness,
                      delta_c_set, enumerate_ball, gap,
                      format_mat2, format_quadelem, kronecker_gap_demo,
                      parse_mat2, parse_quadelem, qfield, ring_of_integers, trace_set)
from tracelab.analytics import _exponent_schedule, lowest_terms
from tracelab.cli import _beyond_float_range, _ring_from_flag
from tracelab.groups import group_spec_from_dict
from tracelab.qfield import _sqrt_ratio_float, divmod_ring, embedded_sign, m2_constant

from conftest import (KRONECKER_SPECIALS, FracQuad, cli_output, cluster_counts_reference,
                      delta_c_reference,
                      delta_c_tables_reference, divmod_ring_reference,
                      exponent_schedule_reference, gap_reference, kronecker_reference,
                      mat2_canonical,
                      max_deviation_reference,
                      mat2_is_identity, mat2_least_traces, parse_mat2_reference,
                      parse_quadelem_reference)

FIELDS = (QQ, FieldDesc(-1), FieldDesc(-3), FieldDesc(2), FieldDesc(5))
CHEAP = settings(max_examples=30, deadline=None, database=None)

small_ints = st.integers(-50, 50)
huge_ints = st.builds(lambda k, e: k * 10 ** e + 1, st.integers(-9, 9),
                      st.integers(4300, 4400))
small_rationals = st.builds(Fraction, small_ints, st.integers(1, 50))
fractional = st.builds(Fraction, small_ints, st.integers(2, 6))
rationals = st.builds(Fraction, small_ints | huge_ints,
                      st.integers(1, 50) | huge_ints.map(abs))


@st.composite
def elems(draw, field, coef=rationals):
    b = 0 if field.is_rational else draw(coef)
    return QuadElem.of(draw(coef), b, field)


@st.composite
def det1_mats(draw, field, coef=small_rationals, shears=4):
    """Products of elementary upper and lower shears."""
    one, zero = QuadElem.rational(1, field), QuadElem.rational(0, field)
    m = Mat2.identity(field)
    for i in range(draw(st.integers(1, shears))):
        x = draw(elems(field, coef))
        m = m * (Mat2(one, x, zero, one) if i % 2 == 0 else Mat2(one, zero, x, one))
    return m


fields = st.sampled_from(FIELDS)


@CHEAP
@given(fields.flatmap(elems))
def test_quadelem_text_round_trip(x):
    assert parse_quadelem(format_quadelem(x), x.field) == x


@CHEAP
@given(fields.flatmap(lambda f: det1_mats(f, rationals, shears=2)))
def test_mat2_text_round_trip(m):
    assert parse_mat2(format_mat2(m), m.field) == m


@CHEAP
@given(fields.flatmap(lambda f: st.tuples(det1_mats(f), det1_mats(f))))
def test_products_keep_determinant_one(pair):
    det = (pair[0] * pair[1]).det()
    assert det.a == 1 and det.b == 0


@CHEAP
@given(fields.flatmap(det1_mats))
def test_canonical_projmat_ignores_sign(m):
    assert ProjMat.of(m) == ProjMat.of(-m)
    assert hash(ProjMat.of(m)) == hash(ProjMat.of(-m))


@st.composite
def spec_file_groups(draw):
    """Generator matrices with entries of denominator > 1, and the group
    read from a spec-file document listing them."""
    field = draw(fields)
    mats = draw(st.lists(det1_mats(field, fractional), min_size=2, max_size=3))
    return mats, group_spec_from_dict({"name": "drawn", "field_d": field.d,
                                       "generators": [format_mat2(m) for m in mats]})


@CHEAP
@given(spec_file_groups(), st.data())
def test_projmat_agrees_with_mat2_path(drawn, data):
    mats, spec = drawn
    assert [g.rep for g in spec.generators] == [mat2_canonical(m) for m in mats]
    gens = list(spec.generators) + [g.inv() for g in spec.generators]
    x = data.draw(st.sampled_from(gens))
    y = data.draw(st.sampled_from(gens + [x.inv()]))
    for z in (x, y, x * y):
        assert ProjMat.of(z.rep) == z and hash(ProjMat.of(z.rep)) == hash(z)
        assert mat2_canonical(z.rep) == z.rep
        assert z.inv().rep == mat2_canonical(z.rep.adj())
        assert z.trace() == canonical_trace(z.rep.trace())
        assert z.is_identity() == mat2_is_identity(z.rep)
    assert (x * y).rep == mat2_canonical(x.rep * y.rep)
    assert (x * x.inv()).is_identity()
    ball = enumerate_ball(spec, 2)
    assert trace_set(ball).provenance == mat2_least_traces(
        (g.rep, wl) for g, wl in ball.word_length.items())


@settings(max_examples=15, deadline=None, database=None)
@given(fields.flatmap(lambda f: st.lists(
           det1_mats(f, st.integers(-3, 3).map(Fraction)), min_size=1, max_size=3)),
       st.randoms(use_true_random=False))
def test_trace_set_ignores_generator_order_and_inversion(mats, rnd):
    field = mats[0].field
    gens = [ProjMat.of(m) for m in mats]
    other = [g.inv() if rnd.random() < 0.5 else g for g in gens]
    rnd.shuffle(other)
    a = trace_set(enumerate_ball(GroupSpec("a", tuple(gens), field), 3))
    b = trace_set(enumerate_ball(GroupSpec("b", tuple(other), field), 3))
    assert a.exact == b.exact and a.provenance == b.provenance


SIGN_DS = (-11, -7, -3, -2, -1, 2, 3, 5, 6, 7, 13)
# zero often, so that the real part ties and the imaginary part decides
sign_coefs = st.builds(Fraction, st.just(0) | st.integers(-10 ** 6, 10 ** 6),
                       st.integers(1, 10 ** 3))


@st.composite
def sign_inputs(draw):
    """(a, b, d); for real fields, half the draws put a next to -b*sqrt(d),
    where only the exact comparison of a^2 with d*b^2 decides the sign."""
    d, a, b = draw(st.sampled_from(SIGN_DS)), draw(sign_coefs), draw(sign_coefs)
    if d > 0 and draw(st.booleans()):
        den = draw(st.integers(1, 10 ** 3))
        a = Fraction(math.floor(-b * math.sqrt(d) * den) + draw(st.integers(-2, 2)), den)
    return a, b, d


def _mp_sign(x) -> int:
    return (x > 0) - (x < 0)


@settings(max_examples=400, deadline=None, database=None)
@given(sign_inputs())
def test_embedded_sign_matches_high_precision_value(drawn):
    # |a + b*sqrt(d)| >= 1e-20 at these sizes, far above the 60-digit error
    a, b, d = drawn
    with mpmath.workdps(60):
        a_mp = mpmath.mpf(a.numerator) / a.denominator
        b_mp = mpmath.mpf(b.numerator) / b.denominator
        root = mpmath.sqrt(abs(d))
        re, im = (a_mp + b_mp * root, 0) if d > 0 else (a_mp, b_mp * root)
        expected = _mp_sign(re) or _mp_sign(im)
    assert embedded_sign(a, b, d) == expected


ring_coords = st.just(0) | st.integers(-3, 3) | st.integers(-10 ** 6, 10 ** 6)


@st.composite
def ring_sign_inputs(draw):
    """(ring, x0, x1) over Z and nine quadratic rings, x0 and x1 often 0;
    half the quadratic draws put the doubled real part 2*x0 + t*x1 next to
    0 (imaginary) or next to -s*x1*sqrt(d) (real), with
    2*omega = t + s*sqrt(d). Over the real rings the other half draws x0
    as 0, of x1's sign or of the opposite sign, a third each."""
    d = draw(st.sampled_from((None, -11, -7, -3, -2, -1, 2, 3, 5, 13)))
    ring = RingOfIntegers(QQ) if d is None else ring_of_integers(FieldDesc(d))
    x0, x1 = draw(ring_coords), 0 if d is None else draw(ring_coords)
    if d is not None and draw(st.booleans()):
        near = 0 if d < 0 else -math.isqrt(d * (ring.s * x1) ** 2) * (1 if x1 > 0 else -1)
        x0 = (near - ring.t * x1) // 2 + draw(st.integers(-2, 2))
    elif d is not None and d > 0:
        x0 = abs(x0) * draw(st.sampled_from((0, 1, -1))) * (-1 if x1 < 0 else 1)
    return ring, x0, x1


REAL_SIGN_EXAMPLES = [(ring_of_integers(FieldDesc(d)), x0, x1) for d in (2, 3, 5, 13)
                      for x0, x1 in ((0, 7), (0, -7), (3, 7), (-3, -7), (3, -7), (-3, 7))]


def with_examples(examples):
    def decorate(test):
        for ex in examples:
            test = example(ex)(test)
        return test
    return decorate


@settings(max_examples=400, deadline=None, database=None)
@with_examples(REAL_SIGN_EXAMPLES)
@given(ring_sign_inputs())
def test_ring_sign_matches_embedded_sign(drawn):
    ring, x0, x1 = drawn
    assert ring.sign(x0, x1) == embedded_sign(*ring.doubled(x0, x1), ring.field.d)


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_ring_sign_compares_squares_only_on_mixed_signs(d, monkeypatch):
    # omega > 0 over a real ring, so x0 + x1*omega has x1's sign when x0
    # is 0 or of x1's sign; only x0 and x1 of opposite signs need the
    # comparison of squares in embedded_sign
    ring = ring_of_integers(FieldDesc(d))
    coords = [(x0, x1) for x0 in range(-39, 40, 3) for x1 in range(-39, 40, 3)]
    expected = [embedded_sign(*ring.doubled(x0, x1), d) for x0, x1 in coords]
    calls = []

    def counted(a, b, d):
        calls.append((a, b))
        return embedded_sign(a, b, d)

    monkeypatch.setattr(qfield, "embedded_sign", counted)
    assert [ring.sign(x0, x1) for x0, x1 in coords] == expected
    mixed = [ring.doubled(x0, x1) for x0, x1 in coords if x0 * x1 < 0]
    assert calls == mixed and len(mixed) > 300


REFERENCE_DS = (None, -11, -7, -3, -2, -1, 2, 3, 5, 13)
reference_coefs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def reference_pairs(draw):
    """Two (QuadElem, FracQuad) of one field, either sometimes a value of Q;
    the second sometimes repeats the first's coefficients."""
    d = draw(st.sampled_from(REFERENCE_DS))
    pair = []
    for i in range(2):
        e = None if d is None or draw(st.integers(0, 3)) == 0 else d
        a, b = draw(reference_coefs), draw(reference_coefs)
        if i and draw(st.booleans()):
            a, b = pair[0][1].a, pair[0][1].b
        b = 0 if e is None else b
        pair.append((QuadElem.of(a, b, FieldDesc(e)), FracQuad(Fraction(a), Fraction(b), e)))
    return pair


def _agrees(x: QuadElem, ref: FracQuad) -> bool:
    """x is ref's value in ref's field, equal (and equal in hash) to the
    element QuadElem.of builds for it."""
    built = QuadElem.of(ref.a, ref.b, FieldDesc(ref.d))
    return ((x.a, x.b, x.field.d) == (ref.a, ref.b, ref.d)
            and x == built and hash(x) == hash(built))


@settings(max_examples=500, deadline=None, database=None)
@given(reference_pairs(), st.integers(-4, 4))
def test_quadelem_agrees_with_fraction_path(pair, k):
    (x, rx), (y, ry) = pair
    assert _agrees(x, rx) and _agrees(y, ry)
    assert _agrees(x + y, rx + ry) and _agrees(x - y, rx - ry)
    assert _agrees(x * y, rx * ry) and _agrees(-x, -rx)
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert _agrees(x / y, rx / ry)
    if k >= 0 or not x.is_zero():
        assert _agrees(x ** k, rx ** k)
    assert _agrees(x.conjugate(), rx.conjugate())
    assert (x.norm(), x.trace()) == (rx.norm(), rx.trace())
    assert x.is_algebraic_integer() == rx.is_algebraic_integer()
    assert x.embed() == rx.embed() and x.conjugate().embed() == rx.conjugate().embed()
    assert (x.real_sign(), x.imag_sign()) == (rx.real_sign(), rx.imag_sign())
    assert x.compare_embedded(y) == rx.compare_embedded(ry)
    assert format_quadelem(x) == rx.text()
    assert parse_quadelem(format_quadelem(x), x.field) == x
    assert (x == y) == (rx == ry)
    assert x != y or hash(x) == hash(y)


@pytest.mark.parametrize("d", REFERENCE_DS[1:])
def test_rational_and_lifted_values_differ(d):
    # equal values of Q and of Q(sqrt(d)) are different elements
    for a in (0, 1, Fraction(-3, 2)):
        rational, lifted = QuadElem.rational(a), QuadElem.rational(a, FieldDesc(d))
        assert rational != lifted and hash(rational) != hash(lifted)
        assert (rational - lifted).is_zero() and rational.compare_embedded(lifted) == 0
    assert not QuadElem.rational(1) == 1


DELTA_C_DS = (None, -1, -2, -3, -7, -11, 2, 5, 13)
delta_c_coefs = st.builds(Fraction, st.just(0) | st.integers(-6, 6), st.integers(1, 6))


@st.composite
def delta_c_inputs(draw):
    """(c, ring, k_bound, n_bound, m1) with c's coefficients of denominator
    1 to 6, zero drawn often."""
    d = draw(st.sampled_from(DELTA_C_DS))
    field = FieldDesc(d)
    ring = RingOfIntegers(QQ) if d is None else ring_of_integers(field)
    c = QuadElem.of(draw(delta_c_coefs), 0 if d is None else draw(delta_c_coefs), field)
    return (c, ring, draw(st.integers(1, 4)), draw(st.integers(1, 3)),
            draw(st.sampled_from((1, 2, 3))))


@settings(max_examples=40, deadline=None, database=None)
@given(delta_c_inputs())
def test_delta_c_set_agrees_with_quadelem_path(drawn):
    c, ring, k_bound, n_bound, m1 = drawn
    expected = delta_c_reference(c, ring, k_bound, n_bound, m1)
    dset = delta_c_set(c, ring, k_bound, n_bound, m1)
    assert len(dset) == len(expected)
    assert dset.values() == expected
    assert list(dset.embedded) == [v.embed() for v in expected]
    assert dset.ring.format_values(dset.coords) == [
        format_quadelem(v) for v in expected]


# c over Z (rational, or in Q(sqrt(5))), over Z[i] and over Z[(1+sqrt(-3))/2],
# as (field of c, --ring flag)
DELTA_C_TABLE_RINGS = ((None, "Z"), (5, "Z"), (-1, "-1"), (-3, "-3"))


def _assert_delta_c_tables_match(c, flag, k_bound, n_bound, m1=1):
    argv = [f"--c={format_quadelem(c)}", "--ring", flag, "--k-bound", str(k_bound),
            "--n-bound", str(n_bound), "--m1", str(m1)]
    expected = delta_c_tables_reference(c, _ring_from_flag(flag), k_bound, n_bound, m1)
    for fmt, table in expected.items():
        assert cli_output(["delta-c", *argv, "--format", fmt]) == (0, table)


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(DELTA_C_TABLE_RINGS), delta_c_coefs, delta_c_coefs,
       st.integers(1, 4), st.integers(1, 3), st.sampled_from((1, 2, 3)))
def test_delta_c_tables_match_the_row_by_row_writer(ring, a, b, k_bound, n_bound, m1):
    d, flag = ring
    c = QuadElem.of(a, 0 if d is None else b, QQ if d is None else FieldDesc(d))
    _assert_delta_c_tables_match(c, flag, k_bound, n_bound, m1)


TINY = Fraction(1, 10 ** 20)


@pytest.mark.parametrize("c, flag, k_bound, n_bound", [
    # the seeded benchmark inputs at seed 1
    (QuadElem.of(Fraction(8, 3)), "Z", 10000, 4),
    (QuadElem.of(Fraction(1, 3), Fraction(-4, 3), FieldDesc(-1)), "-1", 40, 3),
    # value text of 4,935 characters, past the 4,300-digit limit, and
    # embeddings that print 0 and -0
    (QuadElem.of(Fraction(1, 2)), "Z", 1, 14),
    # equal embeddings, ordered by the exact value
    (QuadElem.of(1 + TINY), "Z", 2, 2),
    (QuadElem.of(1 + TINY, TINY, FieldDesc(-1)), "-1", 2, 2),
    (QuadElem.of(1 + TINY, TINY, FieldDesc(5)), "Z", 2, 2),
], ids=["seeded-Z", "seeded-Zi", "digit-limit", "ties-Z", "ties-Zi", "ties-Z-sqrt5"])
def test_delta_c_tables_match_the_row_by_row_writer_at_fixed_inputs(c, flag, k_bound,
                                                                   n_bound):
    _assert_delta_c_tables_match(c, flag, k_bound, n_bound)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
near_integers = st.builds(lambda k, up: math.nextafter(float(k), math.inf if up else -math.inf),
                          st.integers(-10 ** 6, 10 ** 6), st.booleans())
cluster_points = st.lists(
    st.sampled_from((0.0, -0.0)) | finite_floats | near_integers
    | st.integers(-10 ** 20, 10 ** 20) | st.builds(Fraction, small_ints, st.integers(1, 7))
    | st.builds(complex, finite_floats | near_integers, finite_floats | near_integers),
    max_size=40)


@settings(max_examples=100, deadline=None, database=None)
@given(cluster_points)
def test_cluster_counts_matches_the_point_by_point_loop(points):
    counts, max_count, cells = cluster_counts_reference(points)
    grid = cluster_counts(iter(points))
    assert (grid.counts, grid.max_count, grid.cells_touched) == (counts, max_count, cells)
    assert list(grid.counts) == list(counts)  # the same cell order


# signed zeros, subnormals, magnitudes up to the float maximum, lattice
# points and real-only sets, each set with some of its points repeated
gap_coords = (st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1e308, -1e308, 1.7976931348623157e308))
              | finite_floats | st.floats(-4, 4) | st.integers(-5, 5).map(float))
gap_points = (st.lists(gap_coords, min_size=2, max_size=40)
              | st.lists(st.builds(complex, gap_coords, gap_coords)
                         | st.builds(complex, st.integers(-5, 5), st.integers(-5, 5))
                         | gap_coords, min_size=2, max_size=40)
              ).flatmap(lambda ps: st.lists(st.sampled_from(ps), max_size=4)
                        .map(lambda repeats: ps + repeats))


@settings(max_examples=300, deadline=None, database=None)
@given(gap_points)
def test_gap_matches_the_spatial_hash(points):
    try:
        expected = gap_reference(points)
    except OverflowError:  # a distance beyond float range; test_analytics pins those
        return
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=re.escape(str(exc))):
            gap(points)
        return
    assert gap(points) == expected


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf),
                                 complex(math.nan, 0)])
def test_cluster_counts_of_non_finite_points_is_a_precondition_error(bad):
    for points in ([bad], [0.5, bad, 1.5]):
        with pytest.raises(PreconditionError, match="finite points"):
            cluster_counts(points)
        with pytest.raises(PreconditionError, match="finite points"):
            cluster_counts_reference(points)


@settings(max_examples=40, deadline=None, database=None)
@given(delta_c_inputs(), st.integers(0, 1020).map(lambda e: 2 ** e + 1))
def test_early_float_range_exit_only_where_exact_path_exits(drawn, big_m1):
    # at the least n_bound where the estimate fires, the exact embeddings
    # must already leave float range (or be NaN); M1 up to 2^1022 moves
    # that point across the whole range of magnitudes
    c, ring, k_bound, _, m1 = drawn
    k_bound, m1 = min(k_bound, 2), m1 * big_m1
    n_bound = next((n for n in range(1, 16)
                    if _beyond_float_range(c, k_bound, n, m1)), None)
    if n_bound is None:
        assert abs(c.embed()) < 1.03  # 2^15 * log2(1.03) > 1030
        return
    dset = delta_c_set(c, ring, k_bound, n_bound, m1)
    with pytest.raises(PreconditionError, match="finite points"):
        cluster_counts(dset.embedded)


kronecker_floats = (st.sampled_from(KRONECKER_SPECIALS)
                    | st.builds(lambda m, s: s * m, st.floats(1e-20, 1e20),
                                st.sampled_from((1.0, -1.0))))


@settings(max_examples=300, deadline=None, database=None)
@given(kronecker_floats, kronecker_floats, kronecker_floats, st.integers(1, 40))
def test_kronecker_envelope_matches_exhaustive_loop(theta1, theta2, delta, k_max):
    # repr tells 0.0 from -0.0 and shows inf and nan, so equal reprs mean
    # the same floats
    assert repr(kronecker_gap_demo(theta1, theta2, k_max, delta)) == repr(
        kronecker_reference(theta1, theta2, k_max, delta))


# the literal alphabet, with whitespace, signs after signs, unbalanced
# parentheses and non-ASCII digits (ARABIC-INDIC THREE, FULLWIDTH FIVE)
LITERAL_TOKENS = ("0", "1", "2", "3", "12", "/", "/0", "*", "+", "-", "(", ")", "sqrt",
                  "sqrt(", "sqrt(-1)", "sqrt(2)", "sqrt(-3)", "sqrt(5)", "sqrt(4)",
                  " ", "\n", "\t", "٣", "５")
literal_junk = st.lists(st.sampled_from(LITERAL_TOKENS), max_size=10).map("".join)
literal_terms = st.builds(lambda sign, coef, star, root: f"{sign}{coef}{star}{root}",
                          st.sampled_from(("", "+", "-", "\n", " - ")),
                          st.sampled_from(("", "1", "3/2", "0", "12/0", "٣")),
                          st.sampled_from(("", "*", " * ")),
                          st.sampled_from(("", "sqrt(-1)", "sqrt(5)", "sqrt(-3)", "sqrt(2)")))
literals = literal_junk | st.lists(literal_terms, min_size=1, max_size=3).map("".join)
literal_fields = st.sampled_from((None, QQ, FieldDesc(-1), FieldDesc(5)))


def _outcome(parse, *args):
    """The parsed value, or the kind of error: every rejected literal is a
    ValueError, as the command line reports it (exit 2)."""
    try:
        return parse(*args)
    except ValueError:
        return ValueError


@settings(max_examples=600, deadline=None, database=None)
@given(literals, literal_fields)
def test_parse_quadelem_matches_the_depth_counting_splitter(text, field):
    assert _outcome(parse_quadelem, text, field) == _outcome(
        parse_quadelem_reference, text, field)


ENTRY_POOLS = tuple(tuple(map(parse_quadelem, texts)) for texts in (
    ("0", "1", "-2", "3/2"), ("0", "-2", "sqrt(-1)", "1-sqrt(-1)"),
    ("1", "3/2", "sqrt(5)", "1/2+1/2*sqrt(5)")))


# the parts of "[a,b;c,d]" outside its entries, each valid as the first
# choice, and the other choices that may stand in for one of them
MATRIX_PARTS = (("[", " [", "", "(["), (",", ",(", ")", "\n,", ""), (";", ",", ";;", "(;)"),
                (",", ";", "),", "(,"), ("]", "]\n", ")]", ""))


@st.composite
def matrix_literals(draw):
    """[1,b;c,1+bc], of determinant 1, with drawn whitespace, and at most one
    of its brackets, separators or entries replaced by a drawn alternative."""
    pool = draw(st.sampled_from(ENTRY_POOLS))
    b, c = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    entries = [draw(st.sampled_from(("", " ", "\t"))) + format_quadelem(e)
               for e in (QuadElem.rational(1), b, c, 1 + b * c)]
    parts = [choices[0] for choices in MATRIX_PARTS]
    changed = draw(st.integers(-4, len(parts) + 3))
    if 0 <= changed < len(parts):
        parts[changed] = draw(st.sampled_from(MATRIX_PARTS[changed]))
    elif changed >= len(parts):
        entries[changed - len(parts)] = draw(literals)
    return "".join(p + e for p, e in zip(parts, entries)) + parts[-1]


@settings(max_examples=300, deadline=None, database=None)
@given(matrix_literals(), literal_fields)
def test_parse_mat2_matches_the_depth_counting_splitter(text, field):
    assert _outcome(parse_mat2, text, field) == _outcome(parse_mat2_reference, text, field)


def test_a_trailing_newline_still_ends_a_term():
    # "$" in the term pattern matches before a trailing newline
    assert parse_quadelem("1\n+2") == parse_quadelem_reference("1\n+2") == QuadElem.rational(3)


EUCLIDEAN_DS = (None, -1, -2, -3, -7, -11)
division_coords = st.integers(-6, 6) | st.integers(-10 ** 400, 10 ** 400)


def _euclidean_ring(d):
    return RingOfIntegers(QQ) if d is None else ring_of_integers(FieldDesc(d))


@st.composite
def division_inputs(draw):
    """(x, y, ring) over Z and the five Euclidean imaginary rings: y a small
    nonzero integer, so that quotients often tie, and x with coordinates up
    to 10^400 over a denominator of 1 to 6."""
    ring = _euclidean_ring(draw(st.sampled_from(EUCLIDEAN_DS)))
    small = st.integers(-3, 3)
    y0, y1 = draw(small), 0 if ring.is_rational else draw(small)
    if y0 == y1 == 0:
        y0 = draw(st.sampled_from((-2, -1, 1, 2)))
    x0, x1 = draw(division_coords), 0 if ring.is_rational else draw(division_coords)
    return QuadElem(ring, draw(st.integers(1, 6)), x0, x1), ring.element(y0, y1), ring


@settings(max_examples=1000, deadline=None, database=None)
@given(division_inputs())
def test_divmod_ring_agrees_with_the_candidate_search(drawn):
    x, y, ring = drawn
    assert divmod_ring(x, y, ring) == divmod_ring_reference(x, y, ring)


@st.composite
def schedule_inputs(draw):
    """(p, q, ring, n, m1): c = p/q in lowest terms, non-integral, from
    coordinates in [-15, 15] over a denominator of 2 to 12, over Z and the
    five Euclidean imaginary rings; m1 from 1 to 14 reaches past every M2."""
    ring = _euclidean_ring(draw(st.sampled_from(EUCLIDEAN_DS)))
    coord = st.integers(-15, 15)
    c = QuadElem(ring, draw(st.integers(2, 12)), draw(coord),
                 0 if ring.is_rational else draw(coord))
    if ring.contains(c):
        c = c + QuadElem(ring, 2, 1, 0)
    return (*lowest_terms(c, ring), ring, draw(st.integers(1, 4)), draw(st.integers(1, 14)))


def _last_exponent(schedule, *args) -> tuple[int, bool]:
    """(f(n), whether the bit budget refused it)."""
    try:
        return schedule(*args)[-1], False
    except BudgetExceededError as exc:
        return int(re.search(r"with f\(\d+\) = (\d+)", str(exc)).group(1)), True


@settings(max_examples=1000, deadline=None, database=None)
@given(schedule_inputs())
def test_exponent_schedule_agrees_with_the_float_schedule(drawn):
    # the two agree up to the first j where the squared bound
    # N(q)^(2^k) >= 4 M^(2j) N(p)^(1 + f(0) + ... + f(j-1)) holds with
    # equality; there the exact schedule takes that k, the least, and the
    # float one may round past it. Equality needs an integral M^2.
    p, q, ring, n, m1 = drawn
    f = [0]
    for j in range(1, n + 1):
        (new, refused), old = (_last_exponent(schedule, p, q, ring, j, m1)
                               for schedule in (_exponent_schedule, exponent_schedule_reference))
        if (new, refused) != old:
            big_m = m1 if m1 >= m2_constant(ring) else 2 if ring.is_rational else None
            assert big_m is not None, "M is irrational, so the bound cannot tie"
            rhs = 4 * big_m ** (2 * j) * int(p.norm()) ** (1 + sum(f))
            k = new.bit_length()
            assert int(q.norm()) ** (2 ** k) == rhs and new < old[0]
            assert 2 ** (k - 1) - 1 <= f[-1] or int(q.norm()) ** (2 ** (k - 1)) < rhs
            return
        if refused:
            return
        f.append(new)


def _rounds_to(f: float, x: Fraction) -> bool:
    """f is sqrt(x) rounded to the nearest float, ties to even, for a positive
    x whose root is a normal float: x lies between the squares of the
    midpoints from f to its neighbours, and on one of them only if f is
    even."""
    mid_lo = (Fraction(math.nextafter(f, 0)) + Fraction(f)) / 2
    mid_hi = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    even = (Fraction(f) / Fraction(math.ulp(f))).numerator % 2 == 0
    return mid_lo ** 2 < x < mid_hi ** 2 or even and x in (mid_lo ** 2, mid_hi ** 2)


@st.composite
def near_midpoint_squares(draw):
    """(num, den) with num/den the square of the midpoint of two adjacent
    floats, times 1, or 1 plus or minus 10^-e for e in 20..80."""
    f = draw(st.floats(min_value=1e-150, max_value=1e150))
    mid = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    shift = draw(st.sampled_from((-1, 0, 1))) * Fraction(1, 10 ** draw(st.integers(20, 80)))
    x = mid * mid * (1 + shift)
    return x.numerator, x.denominator


big_ints = st.integers(1, 10 ** 400)


@settings(max_examples=500, deadline=None, database=None)
@given(st.tuples(big_ints, big_ints)
       | st.builds(lambda a, b: (a * a, b * b), st.integers(1, 10 ** 200),
                   st.integers(1, 10 ** 200))
       | near_midpoint_squares())
def test_sqrt_ratio_float_is_correctly_rounded(drawn):
    num, den = drawn
    assert _rounds_to(_sqrt_ratio_float(num, den), Fraction(num, den))


ABS_DS = (None, -1, -2, -3, -5, -7, -11, 2, 3, 5, 13)


@st.composite
def abs_inputs(draw):
    """(x, r): x of Q, an imaginary field or Q(sqrt(d)) for d in 2, 3, 5, 13,
    with r drawn at random, as the float |x| written exactly, or as |x|
    itself where that is rational: r = |s| for x = s*y/conj(y) over an
    imaginary field, and x = +-r elsewhere."""
    d = draw(st.sampled_from(ABS_DS))
    field = QQ if d is None else FieldDesc(d)
    x = draw(elems(field, small_rationals))
    how = draw(st.sampled_from(("random", "float", "exact")))
    if how == "random":
        return x, abs(draw(small_rationals))
    if how == "float":
        return x, Fraction(abs(x.embed()))
    r = abs(draw(small_rationals))
    if field.is_imaginary:
        y = draw(elems(field, small_rationals).filter(lambda y: not y.is_zero()))
        return r * draw(st.sampled_from((1, -1))) * y / y.conjugate(), r
    return QuadElem.rational(draw(st.sampled_from((r, -r))), field), r


@settings(max_examples=400, deadline=None, database=None)
@given(abs_inputs())
def test_abs_sign_matches_high_precision_modulus(drawn):
    # a nonzero |x| - r is above 1e-45 at these sizes, r = |x| as a float
    # included, far above the 60-digit error
    x, r = drawn
    with mpmath.workdps(60):
        a_mp, b_mp = (mpmath.mpf(v.numerator) / v.denominator for v in (x.a, x.b))
        root = mpmath.sqrt(abs(x.field.d or 0))
        modulus = (mpmath.sqrt(a_mp ** 2 + (b_mp * root) ** 2) if x.field.is_imaginary
                   else abs(a_mp + b_mp * root))
        diff = modulus - mpmath.mpf(r.numerator) / r.denominator
        expected = 0 if abs(diff) < mpmath.mpf(10) ** -50 else _mp_sign(diff)
    assert x.abs_sign(r) == expected


@st.composite
def witness_inputs(draw):
    """(c, ring, n, m1): c non-integral with coordinates in [-15, 15] over a
    denominator of 2 to 12, over Z and the five Euclidean imaginary rings,
    n from 1 to 4 and m1 in 1, 2, 5."""
    ring = _euclidean_ring(draw(st.sampled_from(EUCLIDEAN_DS)))
    coord = st.integers(-15, 15)
    c = QuadElem(ring, draw(st.integers(2, 12)), draw(coord),
                 0 if ring.is_rational else draw(coord))
    if ring.contains(c):
        c = c + QuadElem(ring, 2, 1, 0)
    return c, ring, draw(st.integers(1, 4)), draw(st.sampled_from((1, 2, 5)))


@settings(max_examples=150, deadline=None, database=None)
@given(witness_inputs())
def test_max_deviation_agrees_with_the_30_digit_value(drawn):
    # the two differ only where the 30-digit value lies within about 1e-30
    # of a midpoint between floats and was rounded twice
    c, ring, n, m1 = drawn
    try:
        wit = delta_c_cluster_witness(c, ring, n, m1)
    except BudgetExceededError:
        return
    assert wit.max_deviation() == max_deviation_reference(wit)
