"""Exact determinant-1 2x2 matrices over Q and quadratic fields: Mat2, with
field-element entries, for parsing, formatting and cusp normalization; and
ProjMat, the element of PSL(2) on integer coordinates that products,
hashing and trace extraction run on. Also trace classification and the
squaring-iteration / parabolic-shift trace gadgets."""

from __future__ import annotations

import enum
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import PreconditionError
from .qfield import (QQ, FieldDesc, QuadElem, RingOfIntegers, _common_field, _power,
                     format_quadelem, parse_quadelem)

Scalar = Union[int, Fraction, QuadElem]


@dataclass(frozen=True, slots=True)
class Mat2:
    """Row-major (a, b; c, d) with ad - bc = 1 exactly."""

    a: QuadElem
    b: QuadElem
    c: QuadElem
    d: QuadElem

    def __post_init__(self):
        det = self.det()
        if not (det.x0 == 1 and det.x1 == 0 and det.den == 1):
            raise ValueError(f"determinant is {format_quadelem(det)}, not 1")

    @staticmethod
    def of(a: Scalar, b: Scalar, c: Scalar, d: Scalar,
           field: Optional[FieldDesc] = None) -> Mat2:
        if field is None:
            field = QQ
            for x in (a, b, c, d):
                if isinstance(x, QuadElem):
                    field = _common_field(field, x.field)
        return Mat2(*(x if isinstance(x, QuadElem) else QuadElem.rational(x, field)
                      for x in (a, b, c, d)))

    @staticmethod
    def identity(field: FieldDesc = QQ) -> Mat2:
        return Mat2.of(1, 0, 0, 1, field)

    @property
    def field(self) -> FieldDesc:
        return _common_field(_common_field(self.a.field, self.b.field),
                             _common_field(self.c.field, self.d.field))

    def entries(self) -> tuple[QuadElem, QuadElem, QuadElem, QuadElem]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: Mat2) -> Mat2:
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def __neg__(self) -> Mat2:
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def adj(self) -> Mat2:
        """The adjugate (d, -b; -c, a); equals the inverse at det 1."""
        return Mat2(self.d, -self.b, -self.c, self.a)

    def trace(self) -> QuadElem:
        return self.a + self.d

    def det(self) -> QuadElem:
        return self.a * self.d - self.b * self.c

    def __pow__(self, n: int) -> Mat2:
        return _power(self.adj() if n < 0 else self, abs(n), Mat2.identity(self.a.field))


def canonical_trace(t: QuadElem) -> QuadElem:
    """Fold the sign: nonnegative embedded real part, tie broken to
    nonnegative imaginary part."""
    return -t if t.ring.sign(t.x0, t.x1) < 0 else t


# -- PSL(2) on integer coordinates -----------------------------------------

_IDENTITY = (1, 0, 0, 0, 0, 0, 1, 0)
_INTEGERS = RingOfIntegers(QQ)


class ProjMat:
    """Element of PSL(2) over Q or a quadratic field.

    The entries a, b, c, d are (x0 + x1*omega)/den for the integer
    coordinates x = (a0, a1, b0, b1, c0, c1, d0, d1) in the basis
    (1, omega) of the ring of integers and one denominator den > 0. The
    tuple is in lowest terms (gcd(den, *x) == 1) and sign-canonical: the
    first nonzero entry has positive embedded real part, ties broken by
    positive imaginary part. So products, inverses, equality and hashing
    are exact integer operations. Build elements with of or identity; the
    determinant is checked there, when the Mat2 is made.
    """

    __slots__ = ("_ring", "den", "x", "_hash")

    def __init__(self, ring: RingOfIntegers, den: int, x: tuple[int, ...]):
        if den != 1:
            g = math.gcd(den, *x)
            if g != 1:
                den //= g
                x = tuple(v // g for v in x)
        i = 0 if x[0] or x[1] else 2  # a or b is nonzero, as ad - bc = 1
        # a rational coordinate (x1 == 0) has the sign of x0
        if (ring.sign(x[i], x[i + 1]) < 0) if x[i + 1] else x[i] < 0:
            x = tuple(map(operator.neg, x))
        self._ring = ring
        self.den = den
        self.x = x
        self._hash = hash((den, x))

    @staticmethod
    def of(m: Mat2) -> ProjMat:
        entries = m.entries()  # of m's field or of Q, whose (x0, 0) fit every ring
        den = math.lcm(*(e.den for e in entries))
        return ProjMat(RingOfIntegers(m.field), den,
                       tuple(v * (den // e.den) for e in entries for v in (e.x0, e.x1)))

    @staticmethod
    def identity(field: FieldDesc = QQ) -> ProjMat:
        return ProjMat(RingOfIntegers(field), 1, _IDENTITY)

    @property
    def field(self) -> FieldDesc:
        return self._ring.field

    @property
    def rep(self) -> Mat2:
        """The sign-canonical matrix, as a Mat2 of field elements."""
        ring, x, den = self._ring, self.x, self.den
        return Mat2(*(QuadElem(ring, den, x[i], x[i + 1]) for i in (0, 2, 4, 6)))

    def __mul__(self, other: ProjMat) -> ProjMat:
        ring = self._ring
        if other._ring is not ring:
            ring = RingOfIntegers(_common_field(ring.field, other._ring.field))
        a0, a1, b0, b1, c0, c1, d0, d1 = self.x
        e0, e1, f0, f1, g0, g1, h0, h1 = other.x
        if ring is _INTEGERS:  # every omega-coordinate is 0
            return ProjMat(ring, self.den * other.den,
                           (a0 * e0 + b0 * g0, 0, a0 * f0 + b0 * h0, 0,
                            c0 * e0 + d0 * g0, 0, c0 * f0 + d0 * h0, 0))
        # (p0 + p1 w)(q0 + q1 w) = p0 q0 - n p1 q1 + (p0 q1 + p1 q0 + t p1 q1) w
        n, t = ring.n, ring.t
        ae, af = a1 * e1 + b1 * g1, a1 * f1 + b1 * h1
        ce, cf = c1 * e1 + d1 * g1, c1 * f1 + d1 * h1
        x = (a0 * e0 + b0 * g0 - n * ae, a0 * e1 + a1 * e0 + b0 * g1 + b1 * g0 + t * ae,
             a0 * f0 + b0 * h0 - n * af, a0 * f1 + a1 * f0 + b0 * h1 + b1 * h0 + t * af,
             c0 * e0 + d0 * g0 - n * ce, c0 * e1 + c1 * e0 + d0 * g1 + d1 * g0 + t * ce,
             c0 * f0 + d0 * h0 - n * cf, c0 * f1 + c1 * f0 + d0 * h1 + d1 * h0 + t * cf)
        return ProjMat(ring, self.den * other.den, x)

    def inv(self) -> ProjMat:
        a0, a1, b0, b1, c0, c1, d0, d1 = self.x
        return ProjMat(self._ring, self.den, (d0, d1, -b0, -b1, -c0, -c1, a0, a1))

    def trace(self) -> QuadElem:
        """The trace a + d, sign-folded as canonical_trace folds it."""
        t0, t1, den, ring = self.trace_key()
        return QuadElem(ring, den, t0, t1)

    def trace_key(self) -> tuple:
        """trace() as its coordinates (t0, t1, den) and ring, the arguments
        of QuadElem in another order: equal keys iff equal traces, as rings
        are one per field."""
        x, den = self.x, self.den
        t0, t1 = x[0] + x[6], x[1] + x[7]
        if den != 1:
            g = math.gcd(den, t0, t1)
            den, t0, t1 = den // g, t0 // g, t1 // g
        if (self._ring.sign(t0, t1) < 0) if t1 else t0 < 0:
            t0, t1 = -t0, -t1
        return (t0, t1, den, self._ring)

    def is_identity(self) -> bool:
        return self.den == 1 and self.x == _IDENTITY

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjMat):
            return NotImplemented
        return self.x == other.x and self.den == other.den and self._ring is other._ring

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self):
        return f"ProjMat({format_mat2(self.rep)!r}, field={self.field!r})"


class MatClass(enum.Enum):
    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    HYPERBOLIC_OR_LOXODROMIC = "hyperbolic_or_loxodromic"


def classify(x: ProjMat) -> MatClass:
    if x.is_identity():
        return MatClass.IDENTITY
    t = x.trace()
    t2m4 = t * t - 4
    if t2m4.is_zero():
        return MatClass.PARABOLIC
    if t.imag_sign() == 0 and t2m4.real_sign() < 0:
        return MatClass.ELLIPTIC
    return MatClass.HYPERBOLIC_OR_LOXODROMIC


# -- cusp normalization -----------------------------------------------------

_INFINITY = None  # boundary point at infinity


def _mobius_apply(m: Mat2, x: Optional[QuadElem]) -> Optional[QuadElem]:
    if x is _INFINITY:
        if m.c.is_zero():
            return _INFINITY
        return m.a / m.c
    den = m.c * x + m.d
    if den.is_zero():
        return _INFINITY
    return (m.a * x + m.b) / den


def _parabolic_fixed_point(p: Mat2) -> Optional[QuadElem]:
    if p.c.is_zero():
        return _INFINITY
    # trace is +-2; normalize the lift to trace +2 so (a - d)/(2c) is fixed
    if (p.trace() + 2).is_zero():
        p = -p
    return (p.a - p.d) / (p.c * 2)


def cusp_normalize(p: ProjMat, g: ProjMat) -> tuple[ProjMat, QuadElem]:
    """Conjugator h sending the fixed point of p to infinity and its
    g-image to 0, together with the ratio beta^2.

    After conjugation h p h^-1 = (1, t; 0, 1) and h (g p g^-1) h^-1 =
    (1, 0; -beta^2 t, 1); beta^2 is reported for the returned h.
    """
    if classify(p) is not MatClass.PARABOLIC:
        raise PreconditionError("cusp_normalize requires a parabolic p")
    field = _common_field(p.field, g.field)
    x = _parabolic_fixed_point(p.rep)
    y = _mobius_apply(g.rep, x)
    if (x is _INFINITY and y is _INFINITY) or (
            x is not _INFINITY and y is not _INFINITY and (x - y).is_zero()):
        raise PreconditionError("cusp_normalize requires g to move the fixed point of p")
    if x is _INFINITY:
        h = Mat2.of(1, -y, 0, 1, field)
    elif y is _INFINITY:
        h = Mat2.of(0, -1, 1, -x, field)
    else:
        alpha = 1 / (y - x)
        h = Mat2.of(alpha, -alpha * y, 1, -x, field)
    hinv = h.adj()
    upper = h * p.rep * hinv
    lower = h * (g.rep * p.rep * g.rep.adj()) * hinv
    if not upper.c.is_zero() or not (upper.a - upper.d).is_zero():
        raise AssertionError("conjugation did not upper-triangularize p")
    if not lower.b.is_zero() or not (lower.a - lower.d).is_zero():
        raise AssertionError("conjugation did not lower-triangularize g p g^-1")
    # diagonal entries are +-1; rescale both to unitriangular form
    t = upper.b / upper.a
    u = lower.c / lower.a
    if t.is_zero():
        raise AssertionError("parabolic translation length vanished")
    beta_sq = -(u / t)
    return ProjMat.of(h), beta_sq


# -- squaring iteration and parabolic shifts -------------------------------

def an_step(m: Mat2) -> Mat2:
    """One step (1,1;0,1) M (1,-1;0,1) adj(M); doubles the lower-left."""
    field = m.field
    t = Mat2.of(1, 1, 0, 1, field)
    ti = Mat2.of(1, -1, 0, 1, field)
    return t * m * ti * m.adj()


def an_iteration(m: Mat2, n: int) -> Mat2:
    """n-fold squaring step; lower-left c^(2^n), trace 2 + c^(2^n) for n >= 1."""
    if n < 0:
        raise PreconditionError("an_iteration requires n >= 0")
    c = m.c
    result = m
    for _ in range(n):
        result = an_step(result)
    if n >= 1:
        expect = c ** (2 ** n)
        if not (result.c - expect).is_zero():
            raise AssertionError("lower-left entry is not c^(2^n)")
        if not (result.trace() - (expect + 2)).is_zero():
            raise AssertionError("trace is not 2 + c^(2^n)")
    return result


def parabolic_shift_trace(a_n: Mat2, k: Scalar) -> QuadElem:
    """Trace of A_n (1, k; 0, 1), which equals 2 + (k+1) c^(2^n)."""
    c = a_n.c
    if not (a_n.trace() - (c + 2)).is_zero():
        raise PreconditionError("parabolic_shift_trace requires a matrix of trace 2 + c")
    shift = Mat2.of(1, k, 0, 1, a_n.field)
    expected = (shift.b + 1) * c + 2
    actual = (a_n * shift).trace()
    if not (actual - expected).is_zero():
        raise AssertionError("shifted trace is not 2 + (k+1) c")
    return expected


# -- matrix text format -----------------------------------------------------

_MAT_RE = re.compile(r"^\[([^;]*;[^;]*)\]$")


def format_mat2(m: Mat2) -> str:
    a, b, c, d = (format_quadelem(e) for e in m.entries())
    return f"[{a},{b};{c},{d}]"


def parse_mat2(text: str, field: Optional[FieldDesc] = None) -> Mat2:
    s = text.replace(" ", "")
    m = _MAT_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse matrix literal: {text!r}")
    cells = re.split("[,;]", m.group(1))  # no comma or ";" is inside an entry
    if len(cells) != 4:
        raise ValueError(f"matrix literal needs 4 entries: {text!r}")
    elems = [parse_quadelem(cell, field) for cell in cells]
    f = QQ
    for e in elems:
        f = _common_field(f, e.field)
    if field is not None and not field.is_rational:
        f = _common_field(f, field)
    return Mat2(*(QuadElem(RingOfIntegers(f), e.den, e.x0, e.x1) for e in elems))
