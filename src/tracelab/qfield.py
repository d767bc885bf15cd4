"""Exact arithmetic in Q and quadratic fields Q(sqrt(d)).

An element a + b*sqrt(d) is held as integers (x0 + x1*omega)/den in the
basis (1, omega) of the ring of integers of its field, in lowest terms
with den > 0; the ring (RingOfIntegers, one per field) owns omega and
the integer rules on such coordinates. The module also provides norm/trace,
integrality tests, the lattice constant M1, the Bezout bound constant M2,
and extended-Euclidean Bezout pairs in Z and the five norm-Euclidean
imaginary quadratic rings (d in {-1,-2,-3,-7,-11}).
"""

from __future__ import annotations

import dataclasses
import decimal
import functools
import itertools
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from operator import add, mul, truediv
from typing import Optional, Sequence, Union

from .errors import (BudgetExceededError, FieldMismatchError, PreconditionError,
                     UnsupportedRingError)

Rational = Union[int, Fraction]

EUCLIDEAN_IMAGINARY_D = (-1, -2, -3, -7, -11)


def _ratio_float(num: int, den: int) -> float:
    """num/den (den > 0) correctly rounded; beyond float range it overflows
    to +-inf."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _sqrt_ratio_float(num: int, den: int) -> float:
    """sqrt(num/den) (num >= 0, den > 0) correctly rounded."""
    # the root of num*4^k/den has 55 bits or more, so the floats near it and
    # the midpoints between them are even: an inexact root with its last bit
    # set (a sticky bit) rounds as the exact root does
    k = max(0, (110 + den.bit_length() - num.bit_length()) // 2)
    scaled = num << 2 * k
    root = math.isqrt(scaled // den)
    return _ratio_float(root | (root * root * den != scaled), 1 << k)


@functools.cache
def _is_squarefree(n: int) -> bool:
    """Exact for |n| < FACTOR_BOUND^2. Past that, False when the square of
    some k < FACTOR_BOUND divides n, else BudgetExceededError. A decision
    is kept per n, so that each field generator is trial-divided once."""
    n = abs(n)
    if n == 0:
        return False
    top = min(math.isqrt(n), FACTOR_BOUND - 1)
    if any(n % (k * k) == 0 for k in range(2, top + 1)):
        return False
    if n >= FACTOR_BOUND ** 2:
        raise BudgetExceededError(
            f"no square k^2 with k below the trial-division bound {FACTOR_BOUND} divides "
            f"the {n.bit_length()}-bit field generator, so whether it is squarefree is "
            f"undecided")
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


class QuadElem:
    """Exact value (x0 + x1*omega)/den of Q or a quadratic field: integers
    in lowest terms with den > 0 in the basis (1, omega) of `ring`, the
    ring of integers of the field (x1 == 0 over Q). A value of Q and the
    same value of a quadratic field are different elements. Build elements
    with of, rational or RingOfIntegers.element."""

    __slots__ = ("ring", "den", "x0", "x1")

    def __init__(self, ring: RingOfIntegers, den: int, x0: int, x1: int):
        """(x0 + x1*omega)/den for den > 0, put in lowest terms here."""
        if den != 1:
            g = math.gcd(den, x0, x1)
            if g != 1:
                den, x0, x1 = den // g, x0 // g, x1 // g
        self.ring = ring
        self.den = den
        self.x0 = x0
        self.x1 = x1

    @staticmethod
    def of(a: Rational, b: Rational = 0, field: FieldDesc = QQ) -> QuadElem:
        """The element a + b*sqrt(d) of field."""
        ring = RingOfIntegers(field)
        if b and ring.is_rational:
            raise ValueError("rational-field element must have b == 0")
        return (QuadElem.rational(a, field)
                + (2 * ring.omega - ring.t) * (Fraction(b) / ring.s))

    @staticmethod
    def rational(a: Rational, field: FieldDesc = QQ) -> QuadElem:
        a = Fraction(a)
        return QuadElem(RingOfIntegers(field), a.denominator, a.numerator, 0)

    @property
    def field(self) -> FieldDesc:
        return self.ring.field

    @property
    def a(self) -> Fraction:
        """a in a + b*sqrt(d)."""
        return Fraction(*self.ring.sqrt_terms(self.x0, self.x1, self.den)[:2])

    @property
    def b(self) -> Fraction:
        """b in a + b*sqrt(d)."""
        return Fraction(*self.ring.sqrt_terms(self.x0, self.x1, self.den)[2:])

    # -- ring structure -------------------------------------------------

    def _with(self, other) -> Optional[tuple[RingOfIntegers, QuadElem]]:
        """(ring of the result, other as an element), or None when other is
        not a QuadElem, int or Fraction."""
        ring = self.ring
        if isinstance(other, QuadElem):
            if other.ring is not ring:
                ring = RingOfIntegers(_common_field(ring.field, other.field))
            return ring, other
        if isinstance(other, (int, Fraction)):
            return ring, QuadElem(ring, other.denominator, other.numerator, 0)
        return None

    def __add__(self, other):
        pair = self._with(other)
        if pair is None:
            return NotImplemented
        ring, y = pair
        d, e = self.den, y.den
        return QuadElem(ring, d * e, self.x0 * e + y.x0 * d, self.x1 * e + y.x1 * d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadElem(self.ring, self.den, -self.x0, -self.x1)

    def __mul__(self, other):
        pair = self._with(other)
        if pair is None:
            return NotImplemented
        ring, y = pair
        # (p0 + p1 w)(q0 + q1 w) = p0 q0 - n p1 q1 + (p0 q1 + p1 q0 + t p1 q1) w
        p0, p1, q0, q1 = self.x0, self.x1, y.x0, y.x1
        w = p1 * q1
        return QuadElem(ring, self.den * y.den, p0 * q0 - ring.n * w,
                        p0 * q1 + p1 * q0 + ring.t * w)

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._with(other)
        if pair is None:
            return NotImplemented
        y = pair[1]
        if y.is_zero():
            raise ZeroDivisionError("division by zero field element")
        return self * y.conjugate() * (1 / y.norm())

    def __rtruediv__(self, other):
        pair = self._with(other)
        return NotImplemented if pair is None else pair[1] / self

    def __pow__(self, n: int):
        return _power(1 / self if n < 0 else self, abs(n), QuadElem(self.ring, 1, 1, 0))

    def __eq__(self, other):
        if not isinstance(other, QuadElem):
            return NotImplemented
        return (self.x0 == other.x0 and self.x1 == other.x1 and self.den == other.den
                and self.ring is other.ring)

    def __hash__(self):
        return hash((self.x0, self.x1, self.den, self.ring.field.d))

    # -- field invariants ------------------------------------------------

    def is_zero(self) -> bool:
        return self.x0 == 0 and self.x1 == 0

    def conjugate(self) -> QuadElem:
        """Galois conjugate a - b*sqrt(d); omega's conjugate is t - omega."""
        return QuadElem(self.ring, self.den, self.x0 + self.ring.t * self.x1, -self.x1)

    def norm(self) -> Fraction:
        """N(a + b*sqrt(d)) = a^2 - d*b^2."""
        return Fraction(self.ring.norm(self.x0, self.x1), self.den * self.den)

    def trace(self) -> Fraction:
        """Tr(a + b*sqrt(d)) = 2a."""
        return Fraction(self.ring.doubled(self.x0, self.x1)[0], self.den)

    def is_algebraic_integer(self) -> bool:
        return self.den == 1

    # -- exact sign data of the embedded value ---------------------------

    def real_sign(self) -> int:
        """Exact sign of Re(a + b*sqrt(d)) under the principal embedding."""
        field, (re, im) = self.field, self.ring.doubled(self.x0, self.x1)
        return embedded_sign(re, 0 if field.is_imaginary else im, field.d)

    def imag_sign(self) -> int:
        if not self.ring.field.is_imaginary:
            return 0
        return (self.x1 > 0) - (self.x1 < 0)

    def abs_sign(self, r: Rational) -> int:
        """Exact sign of |x| - r, for a rational r >= 0 and |x| the modulus
        of the principal embedding of x."""
        if r < 0:
            raise ValueError(f"abs_sign requires r >= 0, not {r}")
        if self.ring.field.is_imaginary or not self.x1:  # |x|^2 = N(x) here
            rn, rd = r.numerator, r.denominator
            diff = self.ring.norm(self.x0, self.x1) * rd * rd - (rn * self.den) ** 2
            return (diff > 0) - (diff < 0)
        return max(self.compare_embedded(r), -self.compare_embedded(-r))

    def compare_embedded(self, other) -> int:
        """Exact comparison by embedded real part, then imaginary part."""
        ring, y = self._with(other)
        d, e = self.den, y.den
        return ring.sign(self.x0 * e - y.x0 * d, self.x1 * e - y.x1 * d)

    def embed(self):
        """Double-precision value; complex for d < 0, float otherwise.
        Values beyond float range overflow to +-inf."""
        return self.ring.embed_values([self.x0], [self.x1], [self.den])[0]

    def __repr__(self):
        return f"QuadElem({format_quadelem(self)!r}, field={self.field!r})"


def _power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply, from the identity one: the
    power of QuadElem and of psl2.Mat2."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:  # no square after the top bit
            base = base * base
    return result


def embed_elements(xs: Sequence[QuadElem]) -> list:
    """[x.embed() for x in xs], each ring's values embedded a list at a time."""
    out = list(xs)
    for ring in {x.ring for x in xs}:
        at = [i for i, x in enumerate(xs) if x.ring is ring]
        coords = zip(*((xs[i].x0, xs[i].x1, xs[i].den) for i in at))
        for i, z in zip(at, ring.embed_values(*coords)):
            out[i] = z
    return out


# -- text format ----------------------------------------------------------

_TERM_RE = re.compile(
    rf"^(?P<sign>[+-]?)(?:(?P<coef>\d+(?:/\d+)?)\*?)?(?:(?P<root>sqrt\((?P<d>-?\d+)\)))?$"
)

# a sign starts a term unless it starts the text or follows "(": inside
# parentheses a literal holds only the radicand of sqrt(-d)
_TERM_SPLIT_RE = re.compile(r"(?<=[^(])(?=[+-])")


def _digits_int(digits: str) -> int:
    """int(digits) for decimal digits of any length, past the interpreter's
    int/str digit limit: the low 640 * 2^j digits, the most below the
    length, and the rest convert apart, down to parts of at most 640
    digits, the least limit the interpreter accepts."""
    if len(digits) <= 640:
        return int(digits)
    low = 640 << (((len(digits) - 1) // 640).bit_length() - 1)
    return _digits_int(digits[:-low]) * 10 ** low + _digits_int(digits[-low:])


def _parse_rat(text: str) -> Fraction:
    """Exact p or p/q, with no limit on the number of digits."""
    parts = [_digits_int(part) for part in text.split("/")]
    if parts[1:] == [0]:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(*parts)


def _format_terms(terms, d: Optional[int]) -> list[str]:
    """Canonical whitespace-free text form of each an/ad + (bn/bd)*sqrt(d)
    of `terms`, each fraction in lowest terms with a positive denominator:
    "p/q" or "p/q+r/s*sqrt(d)". The four numbers may be ints or Decimals."""
    texts = []
    try:
        for an, ad, bn, bd in terms:
            a = f"{an}" if ad == 1 else f"{an}/{ad}"
            if not bn:
                texts.append(a)
                continue
            b = abs(bn)
            coef = "" if b == 1 and bd == 1 else f"{b}*" if bd == 1 else f"{b}/{bd}*"
            sign = "+" if bn > 0 else "-"
            texts.append(f"{a}{sign}{coef}sqrt({d})" if an
                         else f"{coef}sqrt({d})" if bn > 0 else f"-{coef}sqrt({d})")
    except ValueError:  # an int past the interpreter's int-to-str digit limit
        with decimal.localcontext() as ctx:
            ctx.prec = decimal.MAX_PREC  # keeps abs() exact
            return _format_terms([tuple(map(Decimal, t)) for t in terms], d)
    return texts


def format_quadelem(x: QuadElem) -> str:
    """Canonical whitespace-free text form: "p/q" or "p/q+r/s*sqrt(d)"."""
    return _format_terms([x.ring.sqrt_terms(x.x0, x.x1, x.den)], x.field.d)[0]


def parse_quadelem(text: str, field: Optional[FieldDesc] = None) -> QuadElem:
    """Parse the canonical text form; accepts optional signs and omitted
    unit coefficients (e.g. "sqrt(5)", "-sqrt(-1)", "3/2+sqrt(5)")."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty field-element literal")
    terms = _TERM_SPLIT_RE.split(s)
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
        return QuadElem.of(a, b, f)
    return QuadElem.rational(a, field or QQ)


# -- rings of integers -----------------------------------------------------

_RINGS: dict[Optional[int], RingOfIntegers] = {}  # by field.d


@dataclass(frozen=True, slots=True, init=False, eq=False)
class RingOfIntegers:
    """Z (field QQ) or Z + Z*omega, omega = (1+sqrt(d))/2 when d = 1 (mod 4)
    and sqrt(d) otherwise, with omega^2 = t*omega - n for t = Tr(omega) and
    n = N(omega) (t = n = 0 over Z), and 2*omega = t + s*sqrt(d). Its
    methods are the integer rules on the coordinates (x0 + x1*omega)/den of
    QuadElem, ProjMat and DeltaCSet.

    RingOfIntegers(field) is the one ring of field, made on first use, so
    that rings compare by identity; copies and pickles are that ring too."""

    field: FieldDesc
    t: int = dataclasses.field(repr=False)
    n: int = dataclasses.field(repr=False)
    s: int = dataclasses.field(repr=False)

    def __new__(cls, field: FieldDesc) -> RingOfIntegers:
        ring = _RINGS.get(field.d)
        if ring is None:
            d = field.d
            t, n = (0, 0) if d is None else (1, (1 - d) // 4) if d % 4 == 1 else (0, -d)
            ring = object.__new__(cls)
            for name, value in (("field", field), ("t", t), ("n", n), ("s", 2 - t)):
                object.__setattr__(ring, name, value)
            ring = _RINGS.setdefault(d, ring)  # stored once built; the first one wins
        return ring

    def __reduce__(self):
        return RingOfIntegers, (self.field,)

    @property
    def is_rational(self) -> bool:
        return self.field.is_rational

    @property
    def is_euclidean(self) -> bool:
        return self.is_rational or self.field.d in EUCLIDEAN_IMAGINARY_D

    @property
    def omega(self) -> QuadElem:
        """omega; 0 over Z."""
        return QuadElem(self, 1, 0, 0 if self.is_rational else 1)

    def doubled(self, x0: int, x1: int) -> tuple[int, int]:
        """(A, B) with 2*(x0 + x1*omega) = A + B*sqrt(d): the change to the
        basis (1, sqrt(d))."""
        return 2 * x0 + self.t * x1, self.s * x1

    def norm(self, x0: int, x1: int) -> int:
        """N(x0 + x1*omega) = x0^2 + t*x0*x1 + n*x1^2."""
        return x0 * (x0 + self.t * x1) + self.n * x1 * x1

    def sign(self, x0: int, x1: int) -> int:
        """The embedded sign (embedded_sign) of x0 + x1*omega."""
        # the cases that need no comparison of squares, on the coordinates:
        # a rational value; over an imaginary ring the real part
        # (2*x0 + t*x1)/2 with the imaginary part's sign that of x1; and over
        # a real ring, where omega > 0, x0 = 0 or x0 of x1's sign
        if not x1:
            return (x0 > 0) - (x0 < 0)
        d = self.field.d
        if d < 0:
            re = 2 * x0 + self.t * x1
            return (re > 0) - (re < 0) or (1 if x1 > 0 else -1)
        if x1 > 0:
            if x0 >= 0:
                return 1
        elif x0 <= 0:
            return -1
        return embedded_sign(2 * x0 + self.t * x1, self.s * x1, d)

    def sqrt_terms(self, x0: int, x1: int, den: int) -> tuple[int, int, int, int]:
        """(an, ad, bn, bd) with (x0 + x1*omega)/den = an/ad + (bn/bd)*sqrt(d)
        for (x0, x1, den) in lowest terms with den > 0, each fraction in
        lowest terms with a positive denominator."""
        if not x1:
            return x0, den, 0, 1
        (an, bn), den2 = self.doubled(x0, x1), 2 * den
        g, h = math.gcd(an, den2), math.gcd(bn, den2)
        return an // g, den2 // g, bn // h, den2 // h

    def embed_values(self, x0s: Sequence[int], x1s: Sequence[int], dens: Sequence[int]) -> list:
        """Double-precision value of each (x0 + x1*omega)/den (den > 0) given
        by the three equal-length lists, computed a list at a time: complex
        for d < 0, float otherwise. Values beyond float range overflow to
        +-inf."""
        d = self.field.d
        if d is None:  # x0/den is correctly rounded, as (2*x0)/(2*den) is
            nums = [x0s]
        else:  # the parts (2*x0 + t*x1)/(2*den) and s*x1/(2*den) of 1 and sqrt(d)
            nums = [list(map(add, map(mul, x0s, repeat(2)), map(mul, x1s, repeat(self.t)))),
                    list(map(mul, x1s, repeat(self.s)))]
            dens = list(map(mul, dens, repeat(2)))
        try:
            parts = [list(map(truediv, num, dens)) for num in nums]
        except OverflowError:  # a quotient beyond float range, which is +-inf
            parts = [list(map(_ratio_float, num, dens)) for num in nums]
        if d is None:
            return parts[0]
        re, im = parts
        if d > 0:
            return list(map(add, re, map(mul, im, repeat(math.sqrt(d)))))
        return list(map(complex, re, map(mul, im, repeat(math.sqrt(-d)))))

    def format_values(self, coords) -> list[str]:
        """format_quadelem of each value (x0 + x1*omega)/den, given as
        (x0, x1, den) in lowest terms with den > 0."""
        if self.is_rational:
            try:  # x0 or x0/den, as _format_terms writes them
                return [f"{x0}" if den == 1 else f"{x0}/{den}" for x0, _, den in coords]
            except ValueError:  # past the int-to-str digit limit: see _format_terms
                return _format_terms([(x0, den, 0, 1) for x0, _, den in coords], None)
        return _format_terms(list(itertools.starmap(self.sqrt_terms, coords)),
                             self.field.d)

    def contains(self, x: QuadElem) -> bool:
        if x.ring is not self and (x.x1 if self.is_rational else not x.ring.is_rational):
            raise FieldMismatchError(f"element of {x.field} not in ring over {self.field}")
        return x.den == 1

    def element(self, m: int, n: int = 0) -> QuadElem:
        """The ring element m + n*omega."""
        if n and self.is_rational:
            raise ValueError("Z has a rank-1 lattice")
        return QuadElem(self, 1, m, n)

    def is_unit(self, x: QuadElem) -> bool:
        return self.contains(x) and abs(x.norm()) == 1

    def units(self) -> tuple[QuadElem, ...]:
        """The roots of unity, powers of omega over Z[i] and the ring of
        Q(sqrt(-3)) (where omega = (1+sqrt(-3))/2), else +-1."""
        order = {-1: 4, -3: 6}.get(self.field.d, 2)
        generator = self.omega if order > 2 else QuadElem(self, 1, -1, 0)
        return tuple(generator ** k for k in range(order))

    def canonical_associate(self, x: QuadElem) -> QuadElem:
        """Deterministic representative among unit multiples of x."""
        return max((x * u for u in self.units()),
                   key=functools.cmp_to_key(QuadElem.compare_embedded))


def ring_of_integers(field: FieldDesc) -> RingOfIntegers:
    """The ring of integers Z + Z*omega of a quadratic field."""
    if field.is_rational:
        raise PreconditionError("ring_of_integers requires a quadratic field")
    return RingOfIntegers(field)


def m1_constant(ring: RingOfIntegers, alpha: QuadElem) -> int:
    """Least M >= 1 with M*1 and M*omega inside the lattice Z + Z*alpha."""
    if alpha.x1 == 0:
        raise PreconditionError("m1_constant requires an irrational alpha")
    if ring.is_rational:
        raise PreconditionError("m1_constant requires a quadratic ring")
    # alpha = (a0 + a1*omega)/den in lowest terms: omega = (den*alpha - a0)/a1
    # is in the lattice after scaling by M iff a1 divides M*a0 and M*den
    return abs(alpha.x1)


def m2_constant(ring: RingOfIntegers) -> float:
    """Bezout remainder bound: sqrt(1 + D^2) + 1 with D = |d|, 2 over Z."""
    if ring.is_rational:
        return 2.0
    return math.sqrt(1 + ring.field.d ** 2) + 1


def m_power_sign(x: Rational, y: Rational, j: int, ring: RingOfIntegers,
                 m1: int = 1) -> int:
    """The exact sign of x - y*M^(2j), with M = max(m1, M2), for y >= 0."""
    dd = 0 if ring.is_rational else ring.field.d ** 2
    # M^2 = a + b*sqrt(1 + dd) is m1^2 when m1 >= M2, else M2^2. That test
    # is exact: an int and a float compare exactly, and M2 is 2 over Z, else
    # irrational and, over the Euclidean rings, 0.04 or more from any integer
    a, b = ((m1 * m1, 0) if m1 >= m2_constant(ring) else (4, 0) if ring.is_rational
            else (2 + dd, 2))
    pa, pb = 1, 0  # M^(2j) = pa + pb*sqrt(1 + dd)
    for _ in range(j):
        pa, pb = pa * a + pb * b * (1 + dd), pa * b + pb * a
    # where pb != 0, 1 + dd = 1 + d^2 is not a square, as embedded_sign needs
    return embedded_sign(x - y * pa, -y * pb, 1 + dd)


# -- Euclidean division and Bezout -----------------------------------------

def _nearest_int(num: int, den: int) -> int:
    """num/den (den > 0) rounded to nearest; exact ties toward the smaller
    integer."""
    q, r = divmod(num, den)
    return q if 2 * r <= den else q + 1


def divmod_ring(x: QuadElem, y: QuadElem, ring: RingOfIntegers) -> tuple[QuadElem, QuadElem]:
    """Nearest-lattice-point division: x = q*y + r with N(r) < N(y).

    Ties are broken toward smaller real part, then smaller imaginary part.
    """
    if not ring.is_euclidean:
        raise UnsupportedRingError(
            f"no Euclidean division in the ring of integers of {ring.field}")
    if y.is_zero():
        raise ZeroDivisionError("division by zero ring element")
    t = x / y
    t0, t1, den = t.x0, t.x1, t.den
    if ring.is_rational:
        q = ring.element(_nearest_int(t0, den))
        return q, x - q * y
    # t lies between the rows n0 and n0 + 1 of points m + n*omega, and so do
    # its nearest point and every point tied with it: rows lie Im(omega)
    # apart, more than the covering radius of the ring (1 > 0.71,
    # 1.41 > 0.87, 0.87 > 0.58, 1.32 > 0.76, 1.66 > 0.90 for d = -1, -2, -3,
    # -7, -11)
    n0 = t1 // den
    keys = []
    for n in (n0, n0 + 1):
        # Re(t - n*omega) = Re((t0 + (t1 - n*den)*omega)/den) rounds to m; the
        # key is N(t - (m + n*omega)) * den^2, then the doubled a and b of
        # m + n*omega
        m = _nearest_int(ring.doubled(t0, t1 - n * den)[0], 2 * den)
        keys.append((ring.norm(t0 - m * den, t1 - n * den), *ring.doubled(m, n), m, n))
    q = ring.element(*min(keys)[-2:])
    r = x - q * y
    if abs(r.norm()) >= abs(y.norm()):
        raise AssertionError("division failed to reduce the norm")
    return q, r


def _euclid(x: QuadElem, y: QuadElem, ring: RingOfIntegers
            ) -> tuple[QuadElem, QuadElem, QuadElem]:
    """(g, u, v) with u*x + v*y = g, a gcd of x and y, by the extended
    Euclidean algorithm over divmod_ring."""
    one, zero = QuadElem.rational(1, ring.field), QuadElem.rational(0, ring.field)
    u0, u1, v0, v1 = one, zero, zero, one
    while not y.is_zero():
        q, r = divmod_ring(x, y, ring)
        x, y = y, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return x, u0, v0


def gcd_ring(x: QuadElem, y: QuadElem, ring: RingOfIntegers) -> QuadElem:
    return ring.canonical_associate(_euclid(x, y, ring)[0])


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
    g, u, v = _euclid(r, s, ring)
    if abs(g.norm()) != 1:
        return None
    u, v = u / g, v / g
    if not (u * r + v * s - 1).is_zero():
        raise AssertionError("Bezout identity u*r + v*s = 1 failed")
    return u, v


def divides(x: QuadElem, y: QuadElem, ring: RingOfIntegers) -> bool:
    """True when y is an exact ring multiple of x."""
    if x.is_zero():
        return y.is_zero()
    return ring.contains(y / x)


# prime_power_factor finds the least prime factor of n = |x| over Z, and of
# n = N(x) otherwise, by trial division with k < this bound: exact for
# n < FACTOR_BOUND^2, BudgetExceededError past that. On a 2-core x86-64 VM
# (Python 3.11) the division takes at most about 0.015 s, and the search
# for a prime of norm ell < FACTOR_BOUND^2 over an imaginary ring, in
# O(sqrt(ell)) steps, at most about 0.1 s
FACTOR_BOUND = 2 ** 17


def prime_power_factor(x: QuadElem, ring: RingOfIntegers) -> QuadElem:
    """A primary divisor pi^e of x (pi prime, e maximal), desk scale.

    Raises BudgetExceededError when n (|x| over Z, else N(x)) is at least
    FACTOR_BOUND^2 and has no prime factor below FACTOR_BOUND, so that
    trial division cannot find its least one."""
    if not ring.contains(x) or ring.is_unit(x) or x.is_zero():
        raise PreconditionError("prime_power_factor requires a nonzero nonunit integer")
    n = abs(x.x0) if ring.is_rational else int(abs(x.norm()))
    ell = next((k for k in range(2, min(math.isqrt(n), FACTOR_BOUND - 1) + 1)
                if n % k == 0), None)
    if ell is None:
        if n >= FACTOR_BOUND ** 2:
            raise BudgetExceededError(
                f"no prime below the trial-division bound {FACTOR_BOUND} divides "
                f"the {n.bit_length()}-bit integer to factor")
        ell = n
    if ring.is_rational:
        pi = QuadElem.rational(ell)
    else:
        # the least (m, nn) with N(m + nn*omega) = ell, i.e.
        # (2m + t*nn)^2 + (4n - t^2)*nn^2 = 4*ell, that divides x; else ell
        # is inert
        t, disc = ring.t, 4 * ring.n - ring.t ** 2
        found = []
        top = math.isqrt(4 * ell // disc)
        for nn in range(-top, top + 1):
            square = 4 * ell - disc * nn * nn
            root = math.isqrt(square)
            if root * root == square:
                found += [((u - t * nn) // 2, nn) for u in {root, -root}
                          if (u - t * nn) % 2 == 0]
        pi = next((cand for cand in (ring.element(m, nn) for m, nn in sorted(found))
                   if divides(cand, x, ring)), QuadElem.rational(ell, ring.field))
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
    return _bezout_bounded_unchecked(r, s, s1, ring)


def _bezout_bounded_unchecked(r: QuadElem, s: QuadElem, s1: QuadElem, ring: RingOfIntegers
                              ) -> tuple[QuadElem, QuadElem]:
    """bezout_bounded for a caller that knows (s1) is primary and divides s,
    so that no factorization runs again to check it."""
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
    if m_power_sign(v.norm(), r.norm(), 1, ring) > 0:  # N(v) > M2^2 N(r)
        raise AssertionError("remainder bound |v| <= M2|r| violated")
    return u, v
