"""Exact arithmetic in Q and quadratic fields Q(sqrt(d)).

Elements are a + b*sqrt(d) with rational a, b. The module also provides
rings of integers, norm/trace, integrality tests, the lattice constant M1,
the Bezout bound constant M2, and extended-Euclidean Bezout pairs in Z and
the five norm-Euclidean imaginary quadratic rings (d in {-1,-2,-3,-7,-11}).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Union

from .errors import FieldMismatchError, PreconditionError, UnsupportedRingError

Rational = Union[int, Fraction]

EUCLIDEAN_IMAGINARY_D = (-1, -2, -3, -7, -11)


def _ratio_float(num: int, den: int) -> float:
    """num/den (den > 0) correctly rounded; beyond float range it overflows
    to +-inf."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _embed_terms(an: int, ad: int, bn: int, bd: int, d: Optional[int]):
    """Double-precision value of an/ad + (bn/bd)*sqrt(d) (ad, bd > 0):
    complex for d < 0, float otherwise. Values beyond float range overflow
    to +-inf."""
    if d is None:
        return _ratio_float(an, ad)
    if d > 0:
        return _ratio_float(an, ad) + _ratio_float(bn, bd) * math.sqrt(d)
    return complex(_ratio_float(an, ad), _ratio_float(bn, bd) * math.sqrt(-d))


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True, slots=True)
class FieldDesc:
    """Q (d is None) or the quadratic field Q(sqrt(d)) for squarefree d."""

    d: Optional[int] = None

    def __post_init__(self):
        if self.d is not None:
            if self.d in (0, 1) or not _is_squarefree(self.d):
                raise ValueError(f"d={self.d} is not a valid squarefree field generator")

    @property
    def is_rational(self) -> bool:
        return self.d is None

    @property
    def is_imaginary(self) -> bool:
        return self.d is not None and self.d < 0

    def __repr__(self):
        return "QQ" if self.d is None else f"QQ(sqrt({self.d}))"


QQ = FieldDesc(None)


def _common_field(f: FieldDesc, g: FieldDesc) -> FieldDesc:
    if f == g:
        return f
    if f.is_rational:
        return g
    if g.is_rational:
        return f
    raise FieldMismatchError(f"cannot mix elements of {f} and {g}")


def embedded_sign(a: Rational, b: Rational, d: Optional[int]) -> int:
    """Exact sign of a + b*sqrt(d) under the principal embedding: the sign of
    the real part, ties broken by the sign of the imaginary part. b is 0
    over Q (d None)."""
    if not b:
        return (a > 0) - (a < 0)
    if d < 0:
        return (a > 0) - (a < 0) or (1 if b > 0 else -1)
    # real field: when a and b differ in sign the larger of a^2 and d*b^2
    # wins; they never tie because sqrt(d) is irrational
    if a and (a > 0) != (b > 0) and a * a > d * b * b:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


@dataclass(frozen=True, slots=True)
class QuadElem:
    """Exact value a + b*sqrt(d); rationals carry the field QQ and b == 0."""

    a: Fraction
    b: Fraction
    field: FieldDesc

    def __post_init__(self):
        if self.field.is_rational and self.b != 0:
            raise ValueError("rational-field element must have b == 0")

    @staticmethod
    def of(a: Rational, b: Rational = 0, field: FieldDesc = QQ) -> QuadElem:
        return QuadElem(Fraction(a), Fraction(b), field)

    @staticmethod
    def rational(a: Rational, field: FieldDesc = QQ) -> QuadElem:
        return QuadElem(Fraction(a), Fraction(0), field)

    # -- ring structure -------------------------------------------------

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(Fraction(other), Fraction(0), self.field)
        return NotImplemented

    def _join(self, other: QuadElem) -> tuple["QuadElem", "QuadElem", FieldDesc]:
        field = _common_field(self.field, other.field)
        x = self if self.field == field else QuadElem(self.a, self.b, field)
        y = other if other.field == field else QuadElem(other.a, other.b, field)
        return x, y, field

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y, field = self._join(other)
        return QuadElem(x.a + y.a, x.b + y.b, field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y, field = self._join(other)
        return QuadElem(x.a - y.a, x.b - y.b, field)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.field)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y, field = self._join(other)
        if field.is_rational:
            return QuadElem(x.a * y.a, Fraction(0), field)
        d = field.d
        return QuadElem(x.a * y.a + d * x.b * y.b, x.a * y.b + x.b * y.a, field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y, _ = self._join(other)
        if y.is_zero():
            raise ZeroDivisionError("division by zero field element")
        n = y.norm()
        return x * QuadElem(y.a / n, -y.b / n, y.field)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return (QuadElem.rational(1, self.field) / self) ** (-n)
        result = QuadElem.rational(1, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- field invariants ------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conjugate(self) -> QuadElem:
        """Galois conjugate a - b*sqrt(d)."""
        return QuadElem(self.a, -self.b, self.field)

    def norm(self) -> Fraction:
        """N(a + b*sqrt(d)) = a^2 - d*b^2."""
        if self.field.is_rational:
            return self.a * self.a
        return self.a * self.a - self.field.d * self.b * self.b

    def trace(self) -> Fraction:
        """Tr(a + b*sqrt(d)) = 2a."""
        return 2 * self.a

    def is_algebraic_integer(self) -> bool:
        if self.b == 0:
            return self.a.denominator == 1
        return self.trace().denominator == 1 and self.norm().denominator == 1

    # -- exact sign data of the embedded value ---------------------------

    def real_sign(self) -> int:
        """Exact sign of Re(a + b*sqrt(d)) under the principal embedding."""
        return embedded_sign(self.a, 0 if self.field.is_imaginary else self.b,
                             self.field.d)

    def imag_sign(self) -> int:
        d = self.field.d
        if d is None or d > 0:
            return 0
        return -1 if self.b < 0 else (1 if self.b > 0 else 0)

    def compare_embedded(self, other: QuadElem) -> int:
        """Exact comparison by embedded real part, then imaginary part."""
        x, y, field = self._join(self._coerce(other))
        return embedded_sign(x.a - y.a, x.b - y.b, field.d)

    def embed(self, conjugate: bool = False):
        """Double-precision value; complex for d < 0, float otherwise.
        Values beyond float range overflow to +-inf."""
        a, b = self.a, -self.b if conjugate else self.b
        return _embed_terms(a.numerator, a.denominator, b.numerator, b.denominator,
                           self.field.d)

    def __repr__(self):
        return f"QuadElem({format_quadelem(self)!r}, field={self.field!r})"


# -- text format ----------------------------------------------------------

_TERM_RE = re.compile(
    rf"^(?P<sign>[+-]?)(?:(?P<coef>\d+(?:/\d+)?)\*?)?(?:(?P<root>sqrt\((?P<d>-?\d+)\)))?$"
)


def _int_text(n: int) -> str:
    """Decimal digits of n, past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _rat_text(num: int, den: int) -> str:
    text = _int_text(num)
    return text if den == 1 else f"{text}/{_int_text(den)}"


def _parse_rat(text: str) -> Fraction:
    """Exact p or p/q, with no limit on the number of digits."""
    parts = [int(Decimal(part)) for part in text.split("/")]
    if parts[1:] == [0]:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(*parts)


def _format_terms(an: int, ad: int, bn: int, bd: int, d: Optional[int]) -> str:
    """Canonical whitespace-free text form of an/ad + (bn/bd)*sqrt(d), each
    fraction in lowest terms with a positive denominator: "p/q" or
    "p/q+r/s*sqrt(d)"."""
    if not bn:
        return _rat_text(an, ad)
    coef = "" if abs(bn) == 1 and bd == 1 else f"{_rat_text(abs(bn), bd)}*"
    bpart = f"{coef}sqrt({d})"
    if not an:
        return bpart if bn > 0 else f"-{bpart}"
    return f"{_rat_text(an, ad)}{'+' if bn > 0 else '-'}{bpart}"


def format_quadelem(x: QuadElem) -> str:
    """Canonical whitespace-free text form: "p/q" or "p/q+r/s*sqrt(d)"."""
    return _format_terms(x.a.numerator, x.a.denominator, x.b.numerator,
                        x.b.denominator, x.field.d)


def parse_quadelem(text: str, field: Optional[FieldDesc] = None) -> QuadElem:
    """Parse the canonical text form; accepts optional signs and omitted
    unit coefficients (e.g. "sqrt(5)", "-sqrt(-1)", "3/2+sqrt(5)")."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty field-element literal")
    # split into at most two signed terms outside of sqrt parentheses
    terms = []
    start = 0
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and i > start and depth == 0:
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    if len(terms) > 2:
        raise ValueError(f"cannot parse field element: {text!r}")
    a = Fraction(0)
    b = Fraction(0)
    d_seen: Optional[int] = None
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("root") is None):
            raise ValueError(f"cannot parse field element term: {term!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = _parse_rat(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("root"):
            d_term = int(m.group("d"))
            if d_seen is not None and d_seen != d_term:
                raise ValueError(f"mixed radicands in {text!r}")
            d_seen = d_term
            b += sign * coef
        else:
            a += sign * coef
    if d_seen is not None:
        f = FieldDesc(d_seen)
        if field is not None and not field.is_rational and field != f:
            raise FieldMismatchError(f"literal {text!r} does not live in {field}")
        return QuadElem(a, b, f)
    if field is not None and not field.is_rational:
        return QuadElem(a, Fraction(0), field)
    return QuadElem(a, Fraction(0), QQ)


# -- rings of integers -----------------------------------------------------

@dataclass(frozen=True, slots=True)
class RingOfIntegers:
    """Z (field QQ) or Z + Z*omega inside a quadratic field, where
    omega^2 = t*omega - n for the integers t = Tr(omega) and n = N(omega);
    t = n = 0 over Z."""

    field: FieldDesc
    omega: QuadElem
    t: int = dataclasses.field(init=False, repr=False, compare=False)
    n: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "t", int(self.omega.trace()))
        object.__setattr__(self, "n", int(self.omega.norm()))

    @staticmethod
    def integers() -> "RingOfIntegers":
        return _ring_of(QQ)

    @property
    def is_rational(self) -> bool:
        return self.field.is_rational

    @property
    def is_euclidean(self) -> bool:
        return self.is_rational or self.field.d in EUCLIDEAN_IMAGINARY_D

    def lattice_coords(self, x: QuadElem) -> tuple[Fraction, Fraction]:
        """Rational (m, n) with x = m + n*omega."""
        if self.is_rational:
            if x.b != 0:
                raise FieldMismatchError("element outside the rational field")
            return x.a, Fraction(0)
        if x.field != self.field and not x.field.is_rational:
            raise FieldMismatchError(f"element of {x.field} not in ring over {self.field}")
        n = x.b / self.omega.b
        m = x.a - n * self.omega.a
        return m, n

    def coords(self, x: QuadElem) -> tuple[int, int, int]:
        """Integers (x0, x1, den) with x = (x0 + x1*omega)/den, den > 0 and
        gcd(x0, x1, den) = 1."""
        m, n = self.lattice_coords(x)
        den = math.lcm(m.denominator, n.denominator)
        return (m.numerator * (den // m.denominator),
                n.numerator * (den // n.denominator), den)

    def sqrt_terms(self, x0: int, x1: int, den: int) -> tuple[int, int, int, int]:
        """(an, ad, bn, bd) with (x0 + x1*omega)/den = an/ad + (bn/bd)*sqrt(d)
        (den > 0), each fraction in lowest terms with a positive denominator:
        the numerators and denominators of QuadElem's a and b."""
        t, den2 = self.t, 2 * den
        an, bn = 2 * x0 + t * x1, (2 - t) * x1
        g, h = math.gcd(an, den2), math.gcd(bn, den2)
        return an // g, den2 // g, bn // h, den2 // h

    def embed_coords(self, x0: int, x1: int, den: int):
        """QuadElem.embed() of (x0 + x1*omega)/den (den > 0)."""
        t, den2 = self.t, 2 * den
        return _embed_terms(2 * x0 + t * x1, den2, (2 - t) * x1, den2,
                            self.field.d)

    def format_coords(self, x0: int, x1: int, den: int) -> str:
        """format_quadelem of (x0 + x1*omega)/den (den > 0)."""
        return _format_terms(*self.sqrt_terms(x0, x1, den), self.field.d)

    def contains(self, x: QuadElem) -> bool:
        m, n = self.lattice_coords(x)
        return m.denominator == 1 and n.denominator == 1

    def element(self, m: Rational, n: Rational = 0) -> QuadElem:
        """The field element m + n*omega."""
        if self.is_rational:
            if n != 0:
                raise ValueError("Z has a rank-1 lattice")
            return QuadElem.rational(m)
        w = self.omega
        return QuadElem(m + n * w.a, n * w.b, self.field)

    def is_unit(self, x: QuadElem) -> bool:
        return self.contains(x) and abs(x.norm()) == 1

    def units(self) -> tuple[QuadElem, ...]:
        one = QuadElem.rational(1, self.field)
        if self.is_rational or self.field.d not in (-1, -3):
            return (one, -one)
        if self.field.d == -1:
            i = QuadElem.of(0, 1, self.field)
            return (one, i, -one, -i)
        # d == -3: the sixth roots of unity, powers of (1+sqrt(-3))/2
        w = QuadElem.of(Fraction(1, 2), Fraction(1, 2), self.field)
        return tuple(w ** k for k in range(6))

    def canonical_associate(self, x: QuadElem) -> QuadElem:
        """Deterministic representative among unit multiples of x."""
        if x.is_zero():
            return x
        best = None
        for u in self.units():
            cand = x * u
            if best is None or cand.compare_embedded(best) > 0:
                best = cand
        return best


@functools.cache
def _ring_of(field: FieldDesc) -> RingOfIntegers:
    """The one ring of integers of each field: omega = (1+sqrt(d))/2 when
    d = 1 (mod 4), else sqrt(d); omega = 0 over Q."""
    d = field.d
    if d is None:
        omega = QuadElem.rational(0)
    elif d % 4 == 1:
        omega = QuadElem.of(Fraction(1, 2), Fraction(1, 2), field)
    else:
        omega = QuadElem.of(0, 1, field)
    return RingOfIntegers(field, omega)


def ring_of_integers(field: FieldDesc) -> RingOfIntegers:
    """The ring of integers Z + Z*omega of a quadratic field."""
    if field.is_rational:
        raise PreconditionError("ring_of_integers requires a quadratic field")
    return _ring_of(field)


def m1_constant(ring: RingOfIntegers, alpha: QuadElem) -> int:
    """Least M >= 1 with M*1 and M*omega inside the lattice Z + Z*alpha."""
    if alpha.b == 0:
        raise PreconditionError("m1_constant requires an irrational alpha")
    if ring.is_rational:
        raise PreconditionError("m1_constant requires a quadratic ring")
    # coordinates of omega in the basis (1, alpha); 1 itself is always a
    # lattice element, so only omega constrains M
    n = ring.omega.b / alpha.b
    m = ring.omega.a - n * alpha.a
    return math.lcm(m.denominator, n.denominator)


def m2_constant(ring: RingOfIntegers) -> float:
    """Bezout remainder bound: sqrt(1 + D^2) + 1 with D = |d|, 2 over Z."""
    if ring.is_rational:
        return 2.0
    return math.sqrt(1 + ring.field.d ** 2) + 1


def _norm_sq_bound_holds(v: QuadElem, r: QuadElem, ring: RingOfIntegers) -> bool:
    """Exact check of |v| <= M2 |r| via N(v) <= M2^2 N(r)."""
    nv, nr = abs(v.norm()), abs(r.norm())
    if ring.is_rational:
        return nv <= 4 * nr
    dd = ring.field.d ** 2
    # M2^2 = (2 + dd) + 2*sqrt(1 + dd)
    lhs = nv - (2 + dd) * nr
    if lhs <= 0:
        return True
    return lhs * lhs <= 4 * (1 + dd) * nr * nr


# -- Euclidean division and Bezout -----------------------------------------

def _nearest_int(q: Fraction) -> int:
    """Round to nearest; exact ties toward the smaller integer."""
    fl = q.numerator // q.denominator
    frac = q - fl
    return fl if frac <= Fraction(1, 2) else fl + 1


def divmod_ring(x: QuadElem, y: QuadElem, ring: RingOfIntegers) -> tuple[QuadElem, QuadElem]:
    """Nearest-lattice-point division: x = q*y + r with N(r) < N(y).

    Ties are broken toward smaller real part, then smaller imaginary part.
    """
    if not ring.is_euclidean:
        raise UnsupportedRingError(
            f"no Euclidean division in the ring of integers of {ring.field}")
    if y.is_zero():
        raise ZeroDivisionError("division by zero ring element")
    if ring.is_rational:
        q = QuadElem.rational(_nearest_int(x.a / y.a))
        return q, x - q * y
    t = x / y
    tm, tn = ring.lattice_coords(t)
    best = None
    best_key = None
    n0 = tn.numerator // tn.denominator
    for n in range(n0 - 1, n0 + 3):
        # with n fixed, Re(t - (m + n*omega)) = Re(tm + (tn - n)*omega) - m
        m_center = ring.element(tm, tn - n).a
        m0 = m_center.numerator // m_center.denominator
        for m in range(m0 - 1, m0 + 3):
            cand = ring.element(m, n)
            key = ((t - cand).norm(), cand.a, cand.b)
            if best_key is None or key < best_key:
                best, best_key = cand, key
    r = x - best * y
    if abs(r.norm()) >= abs(y.norm()):
        raise AssertionError("division failed to reduce the norm")
    return best, r


def gcd_ring(x: QuadElem, y: QuadElem, ring: RingOfIntegers) -> QuadElem:
    while not y.is_zero():
        _, r = divmod_ring(x, y, ring)
        x, y = y, r
    return ring.canonical_associate(x)


def bezout(r: QuadElem, s: QuadElem, ring: RingOfIntegers
           ) -> Optional[tuple[QuadElem, QuadElem]]:
    """(u, v) with u*r + v*s = 1 exactly, or None when r, s share a nonunit
    divisor. Requires Z or a Euclidean imaginary quadratic ring."""
    if not ring.is_euclidean:
        raise UnsupportedRingError(
            f"coprimality undecidable here: {ring.field} has no Euclidean division")
    for z in (r, s):
        if not ring.contains(z):
            raise PreconditionError(f"{format_quadelem(z)} is not integral in the ring")
    one = QuadElem.rational(1, ring.field)
    zero = QuadElem.rational(0, ring.field)
    u0, u1 = one, zero
    v0, v1 = zero, one
    a, b = r, s
    while not b.is_zero():
        q, rem = divmod_ring(a, b, ring)
        a, b = b, rem
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    # u0*r + v0*s == a (the gcd)
    if abs(a.norm()) != 1:
        return None
    inv = a.conjugate() * QuadElem.rational(Fraction(1, int(a.norm())), ring.field)
    u, v = u0 * inv, v0 * inv
    if not (u * r + v * s - 1).is_zero():
        raise AssertionError("Bezout identity u*r + v*s = 1 failed")
    return u, v


def divides(x: QuadElem, y: QuadElem, ring: RingOfIntegers) -> bool:
    """True when y is an exact ring multiple of x."""
    if x.is_zero():
        return y.is_zero()
    return ring.contains(y / x)


def prime_power_factor(x: QuadElem, ring: RingOfIntegers) -> QuadElem:
    """A primary divisor pi^e of x (pi prime, e maximal), desk scale."""
    if not ring.contains(x) or ring.is_unit(x) or x.is_zero():
        raise PreconditionError("prime_power_factor requires a nonzero nonunit integer")
    n = int(abs(x.norm()))
    ell = None
    k = 2
    while k * k <= n:
        if n % k == 0:
            ell = k
            break
        k += 1
    if ell is None:
        ell = n
    pi = None
    if ring.is_rational:
        pi = QuadElem.rational(ell)
    else:
        # search a prime of norm ell dividing x, else ell is inert
        bound = int(math.isqrt(ell)) + 2
        for m in range(-2 * bound - 2, 2 * bound + 3):
            for nn in range(-2 * bound - 2, 2 * bound + 3):
                cand = ring.element(m, nn)
                if cand.norm() == ell and divides(cand, x, ring):
                    pi = cand
                    break
            if pi is not None:
                break
        if pi is None:
            pi = QuadElem.rational(ell, ring.field)
    e = 0
    rest = x
    while divides(pi, rest, ring):
        rest = rest / pi
        e += 1
    if e < 1:
        raise AssertionError("the prime found does not divide x")
    return pi ** e


def is_primary(x: QuadElem, ring: RingOfIntegers) -> bool:
    """True when (x) is a prime-power ideal (class number 1 rings)."""
    if not ring.contains(x) or x.is_zero() or ring.is_unit(x):
        return False
    q1 = prime_power_factor(x, ring)
    return ring.is_unit(x / q1)


def bezout_bounded(r: QuadElem, s: QuadElem, s1: QuadElem, ring: RingOfIntegers
                   ) -> tuple[QuadElem, QuadElem]:
    """(u, v) with u*r + v*s = 1, |v| <= M2*|r|, and (v, s1) = 1.

    Requires (r, s) = 1, s a multiple of s1, and (s1) primary. Obtained by
    reducing the s-coefficient of a Bezout pair modulo r to its least-norm
    representative, then applying the v+r correction when (v, s1) != 1.
    """
    if not divides(s1, s, ring):
        raise PreconditionError("bezout_bounded requires s in the ideal (s1)")
    if not is_primary(s1, ring):
        raise PreconditionError("bezout_bounded requires (s1) primary")
    pair = bezout(r, s, ring)
    if pair is None:
        raise PreconditionError("bezout_bounded requires (r, s) = 1")
    u, v = pair
    w, v = divmod_ring(v, r, ring)
    u = u + w * s
    if not (u * r + v * s - 1).is_zero():
        raise AssertionError("Bezout identity failed after reducing v mod r")
    if bezout(v, s1, ring) is None:
        v = v + r
        u = u - s
        if not (u * r + v * s - 1).is_zero():
            raise AssertionError("Bezout identity failed after the v + r correction")
    if bezout(v, s1, ring) is None:
        raise PreconditionError("bezout_bounded correction failed: (v, s1) != 1")
    if not _norm_sq_bound_holds(v, r, ring):
        raise AssertionError("remainder bound |v| <= M2|r| violated")
    return u, v
