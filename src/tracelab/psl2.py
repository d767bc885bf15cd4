"""Exact determinant-1 2x2 matrices over quadratic fields, with projective
sign normalization, trace classification, cusp normalization, and the
squaring-iteration / parabolic-shift trace gadgets."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import PreconditionError
from .qfield import QQ, FieldDesc, QuadElem, _common_field, format_quadelem, parse_quadelem

Scalar = Union[int, Fraction, QuadElem]


def _as_elem(x: Scalar, field: FieldDesc) -> QuadElem:
    if isinstance(x, QuadElem):
        return x
    return QuadElem.rational(x, field)


@dataclass(frozen=True, slots=True)
class Mat2:
    """Row-major (a, b; c, d) with ad - bc = 1 exactly."""

    a: QuadElem
    b: QuadElem
    c: QuadElem
    d: QuadElem

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not (det.a == 1 and det.b == 0):
            raise ValueError(f"determinant is {format_quadelem(det)}, not 1")

    @staticmethod
    def of(a: Scalar, b: Scalar, c: Scalar, d: Scalar,
           field: Optional[FieldDesc] = None) -> Mat2:
        if field is None:
            field = QQ
            for x in (a, b, c, d):
                if isinstance(x, QuadElem):
                    field = _common_field(field, x.field)
        return Mat2(*(_as_elem(x, field) for x in (a, b, c, d)))

    @staticmethod
    def identity(field: FieldDesc = QQ) -> Mat2:
        one = QuadElem.rational(1, field)
        zero = QuadElem.rational(0, field)
        return Mat2(one, zero, zero, one)

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

    def is_identity_up_to_sign(self) -> bool:
        return (self.b.is_zero() and self.c.is_zero()
                and self.a == self.d and (self.a * self.a - 1).is_zero())

    def __pow__(self, n: int) -> Mat2:
        if n < 0:
            return self.adj() ** (-n)
        result = Mat2.identity(self.a.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def _sign_canonical(m: Mat2) -> Mat2:
    """First nonzero entry in (a, b, c, d) gets positive embedded real part,
    ties broken by positive imaginary part."""
    for e in m.entries():
        if e.is_zero():
            continue
        s = e.real_sign()
        if s == 0:
            s = e.imag_sign()
        return m if s > 0 else -m
    raise AssertionError("zero matrix cannot have determinant 1")


def canonical_trace(t: QuadElem) -> QuadElem:
    """Fold the sign: nonnegative embedded real part, tie broken to
    nonnegative imaginary part."""
    s = t.real_sign()
    if s == 0:
        s = t.imag_sign()
    return -t if s < 0 else t


@dataclass(frozen=True, slots=True)
class ProjMat:
    """Element of PSL(2): a Mat2 held in sign-canonical form."""

    rep: Mat2

    @staticmethod
    def of(m: Mat2) -> ProjMat:
        return ProjMat(_sign_canonical(m))

    @staticmethod
    def make(a: Scalar, b: Scalar, c: Scalar, d: Scalar,
             field: Optional[FieldDesc] = None) -> ProjMat:
        return ProjMat.of(Mat2.of(a, b, c, d, field))

    @staticmethod
    def identity(field: FieldDesc = QQ) -> ProjMat:
        return ProjMat.of(Mat2.identity(field))

    @property
    def field(self) -> FieldDesc:
        return self.rep.field

    def __mul__(self, other: ProjMat) -> ProjMat:
        return ProjMat.of(self.rep * other.rep)

    def inv(self) -> ProjMat:
        return ProjMat.of(self.rep.adj())

    def trace(self) -> QuadElem:
        return canonical_trace(self.rep.trace())

    def is_identity(self) -> bool:
        return self.rep.is_identity_up_to_sign()


class MatClass(enum.Enum):
    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    HYPERBOLIC_OR_LOXODROMIC = "hyperbolic_or_loxodromic"


def classify(x: ProjMat) -> MatClass:
    if x.is_identity():
        return MatClass.IDENTITY
    t = x.rep.trace()
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
    one = QuadElem.rational(1, field)
    zero = QuadElem.rational(0, field)
    if x is _INFINITY:
        h = Mat2(one, -y, zero, one)
    elif y is _INFINITY:
        h = Mat2(zero, -one, one, -x)
    else:
        alpha = one / (y - x)
        h = Mat2(alpha, -alpha * y, one, -x)
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
        assert (result.c - expect).is_zero()
        assert (result.trace() - (expect + 2)).is_zero()
    return result


def parabolic_shift_trace(a_n: Mat2, k: Scalar) -> QuadElem:
    """Trace of A_n (1, k; 0, 1), which equals 2 + (k+1) c^(2^n)."""
    field = a_n.field
    kk = _as_elem(k, field)
    c = a_n.c
    if not (a_n.trace() - (c + 2)).is_zero():
        raise PreconditionError("parabolic_shift_trace requires a matrix of trace 2 + c")
    shift = Mat2(QuadElem.rational(1, field), kk,
                 QuadElem.rational(0, field), QuadElem.rational(1, field))
    expected = (kk + 1) * c + 2
    actual = (a_n * shift).trace()
    assert (actual - expected).is_zero()
    return expected


# -- matrix text format -----------------------------------------------------

_MAT_RE = re.compile(r"^\[([^;]*);([^;]*)\]$")


def format_mat2(m: Mat2) -> str:
    a, b, c, d = (format_quadelem(e) for e in m.entries())
    return f"[{a},{b};{c},{d}]"


def _split_entries(row: str) -> list[str]:
    parts = []
    depth = 0
    start = 0
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


def parse_mat2(text: str, field: Optional[FieldDesc] = None) -> Mat2:
    s = text.replace(" ", "")
    m = _MAT_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse matrix literal: {text!r}")
    cells = _split_entries(m.group(1)) + _split_entries(m.group(2))
    if len(cells) != 4:
        raise ValueError(f"matrix literal needs 4 entries: {text!r}")
    elems = [parse_quadelem(cell, field) for cell in cells]
    f = QQ
    for e in elems:
        f = _common_field(f, e.field)
    if field is not None and not field.is_rational:
        f = _common_field(f, field)
    return Mat2(*(QuadElem(e.a, e.b, f) if e.field != f else e for e in elems))
