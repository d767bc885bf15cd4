import contextlib
import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional

import mpmath
import pytest

from tracelab import (Ball, BudgetExceededError, FieldDesc, FieldMismatchError, Mat2,
                      PreconditionError, ProjMat, QQ, QuadElem, RingOfIntegers,
                      canonical_trace, m2_constant)
from tracelab.groups import ARITHMETIC, NON_ARITHMETIC, GroupSpec
from tracelab.analytics import WITNESS_BIT_BUDGET, _cells
from tracelab.qfield import _TERM_RE, _common_field, _nearest_int, _parse_rat
from tracelab.cli import main


def rand_fraction(rng: random.Random, num_max: int = 12, den_max: int = 12) -> Fraction:
    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def rand_elem(rng: random.Random, field: FieldDesc = QQ,
              num_max: int = 12, den_max: int = 12) -> QuadElem:
    a = rand_fraction(rng, num_max, den_max)
    b = Fraction(0) if field.is_rational else rand_fraction(rng, num_max, den_max)
    return QuadElem.of(a, b, field)


def rand_mat(rng: random.Random, field: FieldDesc = QQ, factors: int = 4) -> Mat2:
    """Random determinant-1 matrix as a product of elementary shears."""
    m = Mat2.identity(field)
    for i in range(factors):
        x = rand_elem(rng, field, num_max=3, den_max=3)
        one = QuadElem.rational(1, field)
        zero = QuadElem.rational(0, field)
        if i % 2 == 0:
            m = m * Mat2(one, x, zero, one)
        else:
            m = m * Mat2(one, zero, x, one)
    return m


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)


def projmat(a, b, c, d, field: Optional[FieldDesc] = None) -> ProjMat:
    """The class in PSL(2) of [[a, b], [c, d]], entries as Mat2.of takes them."""
    return ProjMat.of(Mat2.of(a, b, c, d, field))


# -- the Mat2 path: the reference arithmetic for ProjMat ------------------

def mat2_canonical(m: Mat2) -> Mat2:
    """Sign-canonical lift: the first nonzero entry gets positive embedded
    real part, ties broken by positive imaginary part."""
    for e in m.entries():
        if not e.is_zero():
            s = e.real_sign() or e.imag_sign()
            return m if s > 0 else -m
    raise AssertionError("zero matrix")


def mat2_is_identity(m: Mat2) -> bool:
    """m = +-1, i.e. the identity of PSL(2)."""
    return (m.b.is_zero() and m.c.is_zero() and m.a == m.d
            and (m.a * m.a - 1).is_zero())


def mat2_least_traces(items) -> dict:
    """Sign-folded trace -> least word length over (Mat2, word length)
    pairs, identity excluded: the reduced trace set's provenance."""
    least = {}
    for m, wl in items:
        if not mat2_is_identity(m):
            t = canonical_trace(m.trace())
            least[t] = min(wl, least.get(t, wl))
    return least


def gamma2_ball_reference(ball: Ball, pair_budget: int = 90_000) -> Ball:
    """groups.gamma2_ball as a visit closure with a membership test and a
    second lookup per product: the reference for its one-lookup loop."""
    prov = {}

    def visit(g, wl: int):
        if g not in prov or wl < prov[g]:
            prov[g] = wl

    squares = []
    for g, wl in ball.word_length.items():
        sq = g * g
        visit(sq, 2 * wl)
        squares.append((sq, 2 * wl))
    sub_radius = max((r for r, n in ball.per_radius_counts()
                      if n * n <= pair_budget), default=0)
    sub = [(sq, wl) for (sq, wl) in squares if wl <= 2 * sub_radius]
    for s1, w1 in sub:
        for s2, w2 in sub:
            visit(s1 * s2, w1 + w2)
    return Ball(2 * ball.radius, dict(sorted(prov.items(), key=lambda kv: kv[1])))


def enumerate_ball_reference(spec: GroupSpec, radius: int, cap: int) -> Ball:
    """groups.enumerate_ball on the Mat2 path, trying every letter at every
    element: a ball of sign-canonical Mat2 in breadth-first order, or
    BudgetExceededError with the same partial ball once cap runs out."""
    letters = []
    for g in spec.generators:
        for m in (g.rep, g.rep.adj()):
            m = mat2_canonical(m)
            if not mat2_is_identity(m) and m not in letters:
                letters.append(m)
    seen = {Mat2.identity(spec.field): 0}
    frontier = list(seen)
    for level in range(1, radius + 1):
        new_frontier = []
        for g in frontier:
            for let in letters:
                h = mat2_canonical(g * let)
                if h not in seen:
                    seen[h] = level
                    new_frontier.append(h)
            if len(seen) > cap:
                done = level - 1
                raise BudgetExceededError(
                    "budget", partial=Ball(done, {e: w for e, w in seen.items() if w <= done},
                                           complete=False))
        frontier = new_frontier
    return Ball(radius, seen)


# -- the hand-built catalog: the reference for its spec-file rows ---------

_GAMMA0_TABLES = {
    2: [[1, 1, 0, 1], [1, -1, 2, -1]],
    3: [[1, 1, 0, 1], [1, -1, 3, -2]],
    4: [[1, 1, 0, 1], [1, 0, 4, 1]],
    5: [[1, 1, 0, 1], [2, -1, 5, -2], [-2, -1, 5, 2]],
    6: [[1, 1, 0, 1], [5, -1, 6, -1], [7, -3, 12, -5]],
}

_HECKE_LAMBDA = {
    4: (2, QuadElem.of(0, 1, FieldDesc(2))),                      # sqrt(2)
    5: (5, QuadElem.of(Fraction(1, 2), Fraction(1, 2), FieldDesc(5))),
    6: (3, QuadElem.of(0, 1, FieldDesc(3))),                      # sqrt(3)
}


def catalog_reference(name: str) -> GroupSpec:
    """The catalog group of a canonical name, built from matrix entries by
    hand rather than parsed from matrix literals."""
    if name == "psl2z":
        gens = (projmat(0, -1, 1, 0), projmat(1, 1, 0, 1))
        return GroupSpec("psl2z", gens, QQ, ARITHMETIC)
    family, _, index = name.partition("(")
    n = int(index[:-1])
    if family == "gamma0":
        gens = tuple(projmat(*row) for row in _GAMMA0_TABLES[n])
        return GroupSpec(name, gens, QQ, ARITHMETIC)
    if family == "hecke":
        d, lam = _HECKE_LAMBDA[n]
        fld = FieldDesc(d)
        gens = (projmat(0, -1, 1, 0, field=fld), projmat(1, lam, 0, 1, field=fld))
        return GroupSpec(name, gens, fld, NON_ARITHMETIC if n == 5 else ARITHMETIC)
    if family == "bianchi":
        fld = FieldDesc(n)
        gens = (projmat(1, 1, 0, 1, field=fld),
                projmat(1, RingOfIntegers(fld).omega, 0, 1, field=fld),
                projmat(0, -1, 1, 0, field=fld))
        return GroupSpec(name, gens, fld, ARITHMETIC)
    raise KeyError(name)


# -- the Fraction path: the reference arithmetic for QuadElem -------------

def fraction_sign(a: Fraction, b: Fraction, d: Optional[int]) -> int:
    """Exact sign of a + b*sqrt(d) under the principal embedding: the sign of
    the real part, ties broken by the sign of the imaginary part."""
    if not b:
        return (a > 0) - (a < 0)
    if d < 0:
        return (a > 0) - (a < 0) or (1 if b > 0 else -1)
    if a and (a > 0) != (b > 0) and a * a > d * b * b:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def _fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class FracQuad:
    """a + b*sqrt(d) with Fraction a, b (d None over Q, where b == 0):
    field elements as held before integer ring coordinates. Values of
    different fields are unequal; a rational operand joins the other's
    field."""

    a: Fraction
    b: Fraction
    d: Optional[int]

    def _field(self, other: "FracQuad") -> Optional[int]:
        return self.d if other.d is None else other.d

    def __add__(self, other):
        return FracQuad(self.a + other.a, self.b + other.b, self._field(other))

    def __sub__(self, other):
        return FracQuad(self.a - other.a, self.b - other.b, self._field(other))

    def __neg__(self):
        return FracQuad(-self.a, -self.b, self.d)

    def __mul__(self, other):
        d = self._field(other)
        return FracQuad(self.a * other.a + (d or 0) * self.b * other.b,
                        self.a * other.b + self.b * other.a, d)

    def __truediv__(self, other):
        n = other.norm()
        return self * FracQuad(other.a / n, -other.b / n, other.d)

    def __pow__(self, n: int):
        base = FracQuad(Fraction(1), Fraction(0), self.d) / self if n < 0 else self
        result = FracQuad(Fraction(1), Fraction(0), self.d)
        for _ in range(abs(n)):
            result = result * base
        return result

    def conjugate(self):
        return FracQuad(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - (self.d or 0) * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    def is_algebraic_integer(self) -> bool:
        if self.b == 0:
            return self.a.denominator == 1
        return self.trace().denominator == 1 and self.norm().denominator == 1

    def real_sign(self) -> int:
        imaginary = self.d is not None and self.d < 0
        return fraction_sign(self.a, 0 if imaginary else self.b, self.d)

    def imag_sign(self) -> int:
        return (self.b > 0) - (self.b < 0) if self.d is not None and self.d < 0 else 0

    def compare_embedded(self, other) -> int:
        diff = self - other
        return fraction_sign(diff.a, diff.b, diff.d)

    def embed(self):
        a, b = float(self.a), float(self.b)
        if self.d is None:
            return a
        if self.d > 0:
            return a + b * math.sqrt(self.d)
        return complex(a, b * math.sqrt(-self.d))

    def text(self) -> str:
        if not self.b:
            return _fraction_text(self.a)
        coef = "" if abs(self.b) == 1 else f"{_fraction_text(abs(self.b))}*"
        root = f"{coef}sqrt({self.d})"
        if not self.a:
            return root if self.b > 0 else f"-{root}"
        return f"{_fraction_text(self.a)}{'+' if self.b > 0 else '-'}{root}"


# -- the QuadElem path: the reference arithmetic for delta_c_set ----------

def delta_c_sort_key(x: QuadElem):
    z = complex(x.embed())
    return (z.real, z.imag, x.a.numerator, x.a.denominator,
            x.b.numerator, x.b.denominator)


def delta_c_reference(c: QuadElem, ring, k_bound: int, n_bound: int,
                      m1: int = 1) -> list:
    """{m1 * x * c^(2^n)} for lattice x with coordinates in [-k_bound, k_bound]
    and 0 <= n <= n_bound, in QuadElem arithmetic, deduplicated and sorted
    by embedding, then by a and b."""
    powers = [c ** (2 ** n) for n in range(0, n_bound + 1)]
    values = set()
    for pw in powers:
        scaled = pw * m1
        for i in range(-k_bound, k_bound + 1):
            if ring.is_rational:
                values.add(scaled * i)
                continue
            base = scaled * i
            for j in range(-k_bound, k_bound + 1):
                values.add(base + scaled * ring.omega * j)
    return sorted(values, key=delta_c_sort_key)


# -- the row-by-row Delta_c table: the reference for `delta-c` csv and data --

def _int_text(n: int) -> str:
    """Decimal digits of n, past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _rat_text(x: Fraction) -> str:
    text = _int_text(x.numerator)
    return text if x.denominator == 1 else f"{text}/{_int_text(x.denominator)}"


def reference_text(x: QuadElem) -> str:
    """The canonical text a + b*sqrt(d) of x, from its Fractions a and b."""
    a, b = x.a, x.b
    if not b:
        return _rat_text(a)
    coef = "" if abs(b) == 1 else f"{_rat_text(abs(b))}*"
    root = f"{coef}sqrt({x.field.d})"
    if not a:
        return root if b > 0 else f"-{root}"
    return f"{_rat_text(a)}{'+' if b > 0 else '-'}{root}"


def _dec(x: float) -> str:
    return format(float(x), ".17g")


def delta_c_tables_reference(c: QuadElem, ring, k_bound: int, n_bound: int,
                             m1: int) -> dict[str, str]:
    """The csv and data tables of `delta-c`, each written one row at a time
    (csv through csv.writer), from the QuadElem reference set
    (delta_c_reference)."""
    rows = [[reference_text(v), _dec(z.real), _dec(z.imag)]
            for v, z in ((v, complex(v.embed()))
                         for v in delta_c_reference(c, ring, k_bound, n_bound, m1))]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([["value", "re", "im"], *rows])
    return {"csv": buf.getvalue(),
            "data": "".join(" ".join(row[1:]) + "\n" for row in rows)}


def strict_json(text):
    """json.loads that, like RFC 8259 parsers, rejects NaN and Infinity."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def cli_output(argv) -> tuple[int, str]:
    """Exit code and stdout of the tracelab command line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


# -- the point-by-point loop: the reference for cluster_counts ------------

def cluster_counts_reference(points) -> tuple[dict, int, int]:
    """(counts per half-open unit cell, max count, cells touched)."""
    counts: dict = {}
    for p in points:
        z = complex(p)
        try:
            cell = (math.floor(z.real), math.floor(z.imag))
        except (OverflowError, ValueError):
            raise PreconditionError("cluster_counts requires finite points") from None
        counts[cell] = counts.get(cell, 0) + 1
    return counts, max(counts.values(), default=0), len(counts)


# -- the spatial hash and the full scan: the reference for gap -------------

def gap_reference(points) -> float:
    """analytics.gap as it paired points within a 3x3 block of unit cells,
    with a scan of every pair when no pair was closer than 1, and the
    difference of neighbours over real points. |z - w| beyond float range
    raises OverflowError."""
    pts = list(dict.fromkeys(complex(p) for p in points))
    if len(pts) < 2:
        raise PreconditionError("gap requires at least 2 distinct points")
    cells = _cells(pts, list)
    if all(z.imag == 0 for z in pts):
        xs = sorted(z.real for z in pts)
        return min(b - a for a, b in zip(xs, xs[1:]))
    best = float("inf")
    grid: dict = {}
    for z, cell in zip(pts, cells):
        grid.setdefault(cell, []).append(z)
    for (cx, cy), bucket in grid.items():
        neighbours = [w for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                      for w in grid.get((cx + dx, cy + dy), ())]
        for z in bucket:
            for w in neighbours:
                if w != z:
                    best = min(best, abs(z - w))
    if best > 1.0:
        best = min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:])
    return best


# -- the exhaustive loops: the reference for kronecker_gap_demo, rn_set and
# -- rn_two_to_one_check ---------------------------------------------------

# the float specials a Kronecker envelope is tested at: signed zeros,
# subnormals, magnitudes at either end of float range, infinities and NaN
KRONECKER_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308, -1e308,
                      math.inf, -math.inf, math.nan)


def kronecker_reference(theta1: float, theta2: float, k_max: int,
                        delta: float = 0.0) -> list:
    """The envelope K -> min |k*theta1 - l*theta2 - delta| over every pair of
    each shell max(|k|, |l|) = K, 1 <= K <= k_max."""
    best = float("inf")
    envelope = []
    for k_cur in range(1, k_max + 1):
        for k in range(-k_cur, k_cur + 1):
            for l in (-k_cur, k_cur):
                best = min(best, abs(k * theta1 - l * theta2 - delta))
        for l in range(-k_cur + 1, k_cur):
            for k in (-k_cur, k_cur):
                best = min(best, abs(k * theta1 - l * theta2 - delta))
        envelope.append((k_cur, best))
    return envelope


def rn_reference(n: int) -> tuple:
    """R_N in lexicographic order, with a gcd call per candidate pair."""
    return tuple((r1, r2, r3, r4)
                 for r1 in range(1, n + 1) for r2 in range(1, r1 + 1)
                 if math.gcd(r1, r2) == 1
                 for r3 in range(1, n // r1 + 1) for r4 in range(1, r3 + 1)
                 if math.gcd(r3, r4) == 1)


def two_to_one_reference(n: int):
    """TwoToOneReport from fibers keyed by the image tuple f(u)."""
    from tracelab.analytics import TwoToOneReport, f_map
    tuples = rn_reference(n)
    fibers: dict = {}
    for u in tuples:
        fibers.setdefault(f_map(*u), []).append(u)
    max_size = max((len(v) for v in fibers.values()), default=0)
    swap_ok = all(v[1] == (v[0][2], v[0][3], v[0][0], v[0][1])
                  for v in fibers.values() if len(v) == 2)
    diagonal_ok = all(len(v) == 1 for v in fibers.values()
                      if any(u[:2] == u[2:] for u in v))
    return TwoToOneReport(n, len(tuples), len(fibers), max_size, swap_ok, diagonal_ok)


# -- the depth-counting splitters: the reference for the literal parsers --

def split_terms_reference(s: str) -> list[str]:
    """s split before each sign outside parentheses, except a sign that
    starts s or directly follows such a split."""
    terms, start, depth = [], 0, 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and i > start and depth == 0:
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    return terms


def split_entries_reference(row: str) -> list[str]:
    """row split at each comma outside parentheses."""
    parts, start, depth = [], 0, 0
    for i, ch in enumerate(row):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(row[start:i])
            start = i + 1
    parts.append(row[start:])
    return parts


def parse_quadelem_reference(text: str, field: Optional[FieldDesc] = None) -> QuadElem:
    """qfield.parse_quadelem as it split terms with split_terms_reference."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty field-element literal")
    terms = split_terms_reference(s)
    if len(terms) > 2:
        raise ValueError(f"cannot parse field element: {text!r}")
    a = b = Fraction(0)
    d_seen = None
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("root") is None):
            raise ValueError(f"cannot parse field element term: {term!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = _parse_rat(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("root"):
            if d_seen is not None and d_seen != int(m.group("d")):
                raise ValueError(f"mixed radicands in {text!r}")
            d_seen = int(m.group("d"))
            b += sign * coef
        else:
            a += sign * coef
    if d_seen is not None:
        f = FieldDesc(d_seen)
        if field is not None and not field.is_rational and field != f:
            raise FieldMismatchError(f"literal {text!r} does not live in {field}")
        return QuadElem.of(a, b, f)
    return QuadElem.rational(a, field or QQ)


def parse_mat2_reference(text: str, field: Optional[FieldDesc] = None) -> Mat2:
    """psl2.parse_mat2 as it split rows with split_entries_reference."""
    m = re.match(r"^\[([^;]*);([^;]*)\]$", text.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse matrix literal: {text!r}")
    cells = split_entries_reference(m.group(1)) + split_entries_reference(m.group(2))
    if len(cells) != 4:
        raise ValueError(f"matrix literal needs 4 entries: {text!r}")
    elems = [parse_quadelem_reference(cell, field) for cell in cells]
    f = QQ
    for e in elems:
        f = _common_field(f, e.field)
    if field is not None and not field.is_rational:
        f = _common_field(f, field)
    return Mat2(*(QuadElem(RingOfIntegers(f), e.den, e.x0, e.x1) for e in elems))


# -- the candidate search: the reference for divmod_ring -------------------

def divmod_ring_reference(x: QuadElem, y: QuadElem, ring) -> tuple[QuadElem, QuadElem]:
    """qfield.divmod_ring as it searched 16 candidate quotients, 4 on each of
    the rows n0 - 1 .. n0 + 2 over the imaginary rings, for the least key
    (norm, doubled a, doubled b)."""
    t = x / y
    t0, t1, den = t.x0, t.x1, t.den
    if ring.is_rational:
        q = ring.element(_nearest_int(t0, den))
        return q, x - q * y
    best = None
    best_key = None
    n0 = t1 // den
    for n in range(n0 - 1, n0 + 3):
        m0 = ring.doubled(t0, t1 - n * den)[0] // (2 * den)
        for m in range(m0 - 1, m0 + 3):
            key = (ring.norm(t0 - m * den, t1 - n * den), *ring.doubled(m, n))
            if best_key is None or key < best_key:
                best, best_key = (m, n), key
    q = ring.element(*best)
    return q, x - q * y


# -- the float schedule: the reference for analytics._exponent_schedule ----

def exponent_schedule_reference(p: QuadElem, q: QuadElem, ring, n: int,
                                m1: int) -> list[int]:
    """The witness's exponent schedule as it compared float logarithms with
    a 1e-9 tolerance and re-decided near-ties in 80-digit mpmath, with M2
    rounded to a float."""
    def log_abs(x):
        nrm = x.norm()
        return 0.5 * (math.log(nrm.numerator) - math.log(nrm.denominator))

    def abs_mp(x):
        nrm = x.norm()
        return mpmath.sqrt(mpmath.mpf(nrm.numerator) / mpmath.mpf(nrm.denominator))

    c = p / q
    big_m = max(m1, m2_constant(ring))
    log_p, log_q, log_c = log_abs(p), log_abs(q), log_abs(c)
    f = [0]
    for j in range(1, n + 1):
        target = math.log(2) + j * math.log(big_m) + log_c + sum(fi * log_p for fi in f)
        k = 1
        while (2 ** k - 1) <= f[-1] or (2 ** k - 1) * log_q < target - 1e-9:
            k += 1
        if (2 ** k - 1) * log_q < target + 1e-9:
            with mpmath.workdps(80):
                lq = mpmath.log(abs_mp(q))
                tgt = (mpmath.log(2) + j * mpmath.log(big_m) + mpmath.log(abs_mp(c))
                       + sum(fi * mpmath.log(abs_mp(p)) for fi in f))
                while (2 ** k - 1) * lq < tgt:
                    k += 1
        f.append(2 ** k - 1)
        if sum(f) * max(log_p, log_q) > WITNESS_BIT_BUDGET * math.log(2):
            raise BudgetExceededError(
                f"the witness powers p^f(i), q^f(i), i <= {j}, with f({j}) = {f[-1]}, "
                f"would pass the {WITNESS_BIT_BUDGET}-bit budget of an exact witness")
    return f


# -- the 30-digit deviation: the reference for DeltaWitness.max_deviation --

def max_deviation_reference(wit) -> float:
    """max_j |z_j - z_0| of a witness as it was computed in 30-digit mpmath:
    each modulus the root of N(z_j - z_0), rounded to a float."""
    with mpmath.workdps(30):
        return max(float(mpmath.sqrt(mpmath.mpf(n.numerator) / mpmath.mpf(n.denominator)))
                   for n in ((z - wit.points[0]).norm() for z in wit.points))
