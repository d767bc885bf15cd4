"""Clustering, gap and growth statistics, the counting sets D_N and R_N with
their totient estimates, the collision maps, the truncated sets Delta_c, and
the constructive clustering-failure witness for non-integral c."""

from __future__ import annotations

import bisect
import itertools
import math
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, attrgetter, eq, floordiv, mul, sub
from typing import Iterable, Optional, Sequence, Union

from .errors import BudgetExceededError, PreconditionError
from .groups import DEFAULT_CAP
from .qfield import (QuadElem, RingOfIntegers, _bezout_bounded_unchecked, _common_field,
                     _sqrt_ratio_float, gcd_ring, m_power_sign, prime_power_factor)

Number = Union[int, float, complex, Fraction]
EULER_GAMMA = 0.5772156649015329


# -- clustering -------------------------------------------------------------

@dataclass(frozen=True)
class ClusterGrid:
    """Counts of points per half-open unit cell [m, m+1) x [n, n+1)."""

    counts: dict[tuple[int, int], int]
    max_count: int
    cells_touched: int

    @property
    def mass(self) -> int:
        return sum(self.counts.values())


CELLS_NEED_FINITE_POINTS = "unit cells require finite points"


def _cells(zs: Sequence[complex], collect):
    """collect applied to the iterator of the unit cells (m, n) of the points
    zs, m and n the floors of the real and imaginary parts. Raises
    PreconditionError for a point with an infinite or NaN coordinate."""
    try:
        return collect(zip(map(math.floor, map(attrgetter("real"), zs)),
                           map(math.floor, map(attrgetter("imag"), zs))))
    except (OverflowError, ValueError):
        raise PreconditionError(CELLS_NEED_FINITE_POINTS) from None


def cluster_counts(points: Iterable[Number]) -> ClusterGrid:
    counts = _cells(list(map(complex, points)), Counter)
    max_count = max(counts.values(), default=0)
    return ClusterGrid(counts, max_count, len(counts))


# -- gap and growth ---------------------------------------------------------

def _modulus(z: complex) -> float:
    """|z|, or +inf when |z| is beyond float range though z is finite."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def gap(points: Sequence[Number]) -> float:
    """Minimum pairwise distance over distinct points; a point with an
    infinite or NaN coordinate raises PreconditionError, as in _cells. A
    sweep by real part: rounding is monotone, so once the real-part
    difference reaches the best distance, no later point is closer."""
    pts = sorted(dict.fromkeys(map(complex, points)), key=attrgetter("real"))
    if len(pts) < 2:
        raise PreconditionError("gap requires at least 2 distinct points")
    _cells(pts, list)
    best = math.inf
    for i, z in enumerate(pts):
        x = z.real
        for j in range(i + 1, len(pts)):
            w = pts[j]
            if w.real - x >= best:
                break
            d = _modulus(w - z)
            if d < best:
                best = d
    return best


def growth_count(points: Sequence[Number], n: float) -> int:
    return sum(1 for p in points if _modulus(complex(p)) <= n)


def growth_profile(points: Sequence[Number], n_values: Sequence[float]
                   ) -> tuple[list[tuple[float, int]], float]:
    """Counts #{|a| <= n} per n plus the least-squares slope."""
    counts = [(n, growth_count(points, n)) for n in n_values]
    if len(counts) >= 2:
        slope = statistics.linear_regression([c[0] for c in counts],
                                             [float(c[1]) for c in counts]).slope
    else:
        slope = float("nan")
    return counts, slope


# -- collision maps ---------------------------------------------------------

def theta_map(a, b, c, beta_sq, k, l):
    """k*l*beta^2*a + k*beta^2*b + l*c, evaluated exactly."""
    return beta_sq * a * k * l + beta_sq * b * k + c * l


def phi_map(s, t, k: int, l: int):
    return (s * k * l + k, t * k * l + l)


@dataclass(frozen=True)
class CollisionReport:
    n_pairs: int
    n_distinct: int
    collision_groups: tuple[tuple[object, tuple[tuple[int, int], ...]], ...]
    phi_checked: bool
    phi_equal_collision_pairs: int
    phi_distinct_collision_pairs: int


def omega_collision_scan(a, b, c, beta_sq, k_range: int,
                         s=None, t=None) -> CollisionReport:
    """Scan k, l in [-K, K]^2 for collisions of the trace-increment map,
    and compare collision pairs under (k,l) -> (skl+k, tkl+l) when s, t
    are supplied."""
    groups: dict[object, list[tuple[int, int]]] = {}
    for k in range(-k_range, k_range + 1):
        for l in range(-k_range, k_range + 1):
            v = theta_map(a, b, c, beta_sq, k, l)
            groups.setdefault(v, []).append((k, l))
    collisions = [(v, tuple(kl)) for v, kl in groups.items() if len(kl) > 1]
    phi_eq = phi_ne = 0
    phi_checked = s is not None and t is not None
    if phi_checked:
        for _, kls in collisions:
            for i in range(len(kls)):
                for j in range(i + 1, len(kls)):
                    if phi_map(s, t, *kls[i]) == phi_map(s, t, *kls[j]):
                        phi_eq += 1
                    else:
                        phi_ne += 1
    n_pairs = (2 * k_range + 1) ** 2
    return CollisionReport(n_pairs, len(groups), tuple(collisions),
                           phi_checked, phi_eq, phi_ne)


# -- counting sets ----------------------------------------------------------

def _within_budget(rows: int, cap: int, what: str) -> None:
    """Raise BudgetExceededError, before `what` is built, when rows, a count
    of its rows that never undercounts, pass the element budget cap."""
    if rows > cap:
        raise BudgetExceededError(f"{what} would have more rows than the element budget {cap}")


@dataclass(frozen=True)
class CountingSet:
    kind: str  # "D_N" or "R_N"
    n: int
    tuples: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.tuples)


def dn_set(n: int, cap: int = DEFAULT_CAP) -> CountingSet:
    """{(k, l) : 1 <= kl <= N}; its size is at least N ln N - N. Raises
    BudgetExceededError when it has more than cap tuples."""
    if n < 1:
        raise PreconditionError("dn_set requires N >= 1")
    # |D_N| >= N, and |D_N| = 2*(N//1 + ... + N//s) - s^2 for s = isqrt(N)
    _within_budget(n, cap, "D_N")
    s = math.isqrt(n)
    _within_budget(2 * sum(n // k for k in range(1, s + 1)) - s * s, cap, "D_N")
    tuples = [(k, l) for k in range(1, n + 1) for l in range(1, n // k + 1)]
    if len(tuples) < n * math.log(n) - n:
        raise AssertionError("|D_N| fell below N ln N - N")
    return CountingSet("D_N", n, tuple(tuples))


def totients(n: int) -> list[int]:
    """phi(0..n) by sieve."""
    phi = list(range(n + 1))
    for i in range(2, n + 1):
        if phi[i] == i:  # i prime
            for j in range(i, n + 1, i):
                phi[j] -= phi[j] // i
    return phi


def _rn_pairs(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The coprime pairs (r, s), 1 <= s <= r <= N, in lexicographic order,
    and upto[m], the number of them with r <= m, for 0 <= m <= N. Both
    halves of a tuple of R_N are such pairs, the second with r <= N/r1."""
    if n < 1:
        raise PreconditionError("rn_set requires N >= 1")
    # the s prime to r are those no prime p | r divides; the multiples of p
    # sit at mask[p-1::p]
    primes: list[list[int]] = [[] for _ in range(n + 1)]  # the primes dividing r
    for p in range(2, n + 1):
        if not primes[p]:
            for r in range(p, n + 1, p):
                primes[r].append(p)
    pairs: list[tuple[int, int]] = []
    for r in range(1, n + 1):
        mask = bytearray(b"\x01") * r
        for p in primes[r]:
            mask[p - 1::p] = bytes(r // p)
        pairs += zip(repeat(r), itertools.compress(range(1, r + 1), mask))
    return pairs, [bisect.bisect_left(pairs, (m + 1,)) for m in range(n + 1)]


def _rn_size(n: int) -> int:
    """|R_N| by the totient double sum."""
    phi = totients(n)
    return sum(phi[i] * sum(phi[j] for j in range(1, n // i + 1))
               for i in range(1, n + 1))


def _check_rn_size(size: int, formula: int) -> None:
    """Raise unless size is the totient double sum formula for |R_N|."""
    if size != formula:
        raise AssertionError(f"|R_N| = {size} != totient formula {formula}")


def rn_set(n: int, cap: int = DEFAULT_CAP) -> CountingSet:
    """Tuples (r1, r2, r3, r4) with 1 <= r2 <= r1 <= N, (r1, r2) = 1,
    1 <= r4 <= r3 <= N/r1, (r3, r4) = 1, in lexicographic order; size
    cross-checked against the totient double-sum formula. Raises
    BudgetExceededError when there are more than cap tuples."""
    # R_N has at least N(N+1)/2 tuples: (r, s) -> (r/g, s/g, g, 1),
    # g = gcd(r, s), maps the pairs 1 <= s <= r <= N one to one into it;
    # this bound caps N before the totients are built (_rn_pairs refuses N < 1)
    _within_budget(max(n, 0) * (n + 1) // 2, cap, "R_N")
    size = _rn_size(n)
    _within_budget(size, cap, "R_N")
    pairs, upto = _rn_pairs(n)
    tuples = tuple([a + b for a in pairs for b in pairs[:upto[n // a[0]]]])
    _check_rn_size(len(tuples), size)
    return CountingSet("R_N", n, tuples)


def f_map(m: int, n: int, mp: int, np: int) -> tuple:
    return (n * np, n * mp + m * np, m * mp)


def g_map(x, tup) -> object:
    m, n, mp, np = tup
    return n * np * x * x + (n * mp + m * np) * x + m * mp


@dataclass(frozen=True)
class TwoToOneReport:
    n: int
    n_tuples: int
    n_fibers: int
    max_fiber_size: int
    swap_fibers_ok: bool
    diagonal_ok: bool

    @property
    def ok(self) -> bool:
        return self.max_fiber_size <= 2 and self.swap_fibers_ok and self.diagonal_ok


def rn_two_to_one_check(n: int) -> TwoToOneReport:
    """Group R_N by its image under f; every fiber has size <= 2, size-2
    fibers are swaps (r1,r2,r3,r4) <-> (r3,r4,r1,r2), diagonal tuples sit
    in singleton fibers. Exhaustive, so N is at most 400."""
    if n > 400:
        raise PreconditionError("rn_two_to_one_check is exhaustive only up to N=400")
    pairs, upto = _rn_pairs(n)
    # every coordinate of f(u) = (r2*r4, r2*r3 + r1*r4, r1*r3) lies in [0, 2N],
    # so in base B = 2N + 1 the image of u is the one int
    # (r2*B + r1)*(r4*B + r3): the product of the keys of its two pairs
    base = 2 * n + 1
    keys = [s * base + r for r, s in pairs]
    # R_N is closed under the swap (a, b) -> (b, a), which keeps the image,
    # so it is counted by unordered pair: the tuples (pairs[i], pairs[j]),
    # i < j, each standing for itself and its swap, and the diagonal tuples
    # (pairs[i], pairs[i]); both need r_i^2 <= N
    roots = upto[math.isqrt(n)]
    half: Counter = Counter()
    for i in range(roots):
        half.update(map(keys[i].__mul__, keys[i + 1:upto[n // pairs[i][0]]]))
    diag = Counter(map(mul, keys[:roots], keys[:roots]))
    n_tuples = 2 * half.total() + diag.total()
    _check_rn_size(n_tuples, _rn_size(n))
    # the fiber of y has 2*half[y] + diag[y] tuples; one of size 2 is a
    # half tuple with its swap, or two diagonal tuples, which are no swap
    return TwoToOneReport(
        n, n_tuples, len(half) + sum(y not in half for y in diag),
        max(2 * max(half.values(), default=0),
            *(2 * half[y] + k for y, k in diag.items())),
        not any(k == 2 and y not in half for y, k in diag.items()),
        all(k == 1 and y not in half for y, k in diag.items()))


@dataclass(frozen=True)
class TotientSumReport:
    n: int
    sum_phi: int
    ratio_to_asymptotic: float  # sum / ((3/pi^2) N^2)
    pointwise_ok: bool          # phi(m) > m/(e^g loglog m + 3/loglog m), 3 <= m <= N
    pointwise_checked_from: int = 3


def totient_sum_check(n: int, cap: int = DEFAULT_CAP) -> TotientSumReport:
    if n < 2:
        raise PreconditionError("totient_sum_check requires N >= 2")
    _within_budget(n + 1, cap, "phi(0..N)")
    phi = totients(n)
    total = sum(phi[1:])
    ratio = total / ((3 / math.pi ** 2) * n * n)
    # the displayed lower bound is vacuous at m = 2 where loglog < 0
    ok = True
    eg = math.exp(EULER_GAMMA)
    for m in range(3, n + 1):
        ll = math.log(math.log(m))
        if phi[m] <= m / (eg * ll + 3 / ll):
            ok = False
            break
    return TotientSumReport(n, total, ratio, ok)


# -- truncated Delta_c sets -------------------------------------------------

@dataclass(frozen=True)
class DeltaCSet:
    """A truncated Delta_c sorted by embedding. Each value is
    (x0 + x1*omega)/den in the basis (1, omega) of `ring`, held as the
    integers (x0, x1, den) in lowest terms with den > 0; `embedded` holds
    the values' QuadElem.embed() in the same order."""

    ring: RingOfIntegers
    coords: tuple[tuple[int, int, int], ...]
    embedded: tuple[Union[float, complex], ...]

    def __len__(self) -> int:
        return len(self.coords)

    def values(self) -> list[QuadElem]:
        """The values as QuadElems of the ring's field, built on demand."""
        return [QuadElem(self.ring, den, x0, x1) for x0, x1, den in self.coords]


# delta_c_set squares c^(2^e) only while its coordinates have at most half
# this many bits, so that the squarings and their gcds stay well under a
# second (about 0.1 s for c = 3/2 on a 2-core x86-64 VM, Python 3.11)
POWER_BIT_BUDGET = 2 ** 18

# delta_c_cluster_witness needs Bezout operands of at most this many bits,
# estimated as (f(1) + ... + f(n))*log2(max(|p|, |q|)): ~1 s at most on the
# VM above, slowest over imaginary rings (c = 3/2 over Z: n = 5 is 2,154
# bits, 0.016 s; n = 6 is 8,644 bits, 0.16 s; n = 7 is 34,611 bits, 5.4 s)
WITNESS_BIT_BUDGET = 2 ** 12


def delta_c_set(c: QuadElem, ring: RingOfIntegers, k_bound: int, n_bound: int,
                m1: int = 1, cap: int = DEFAULT_CAP) -> DeltaCSet:
    """Exact truncation {m1 * x * c^(2^n)} over lattice x with coordinates of
    absolute value <= k_bound and 0 <= n <= n_bound, deduplicated and
    sorted by embedding, ties broken by the exact value.

    Raises BudgetExceededError when there are more than cap values before
    deduplication, and instead of squaring a power with a coordinate
    (numerator or denominator) of more than POWER_BIT_BUDGET / 2 bits, whose
    square would pass the budget."""
    if k_bound < 1 or n_bound < 1:
        raise PreconditionError("delta_c_set requires positive bounds")
    if m1 < 1:
        raise PreconditionError("delta_c_set requires m1 >= 1")
    # values live in c's field; over Z the lattice is Z whatever c is
    basis = RingOfIntegers(_common_field(c.field, ring.field))
    _within_budget((n_bound + 1) * (2 * k_bound + 1) ** (1 if ring.is_rational else 2),
                   cap, "Delta_c")
    t, n = basis.t, basis.n
    gcd = math.gcd
    powers = [(c.x0, c.x1, c.den)]
    for e in range(1, n_bound + 1):  # c^(2^e) is the square of c^(2^(e-1))
        p0, p1, q = powers[-1]
        if 2 * max(p0.bit_length(), p1.bit_length(), q.bit_length()) > POWER_BIT_BUDGET:
            raise BudgetExceededError(
                f"c^(2^{e}) would pass the {POWER_BIT_BUDGET}-bit budget "
                "of an exact Delta_c power")
        p0, p1, q = p0 * p0 - n * p1 * p1, 2 * p0 * p1 + t * p1 * p1, q * q
        g = gcd(p0, p1, q)
        powers.append((p0 // g, p1 // g, q // g))
    # the lattice points i + j*omega as two parallel lists; over Z, j = 0
    ks = range(-k_bound, k_bound + 1)
    if not ring.is_rational:
        lattice_i = list(itertools.chain.from_iterable(map(repeat, ks, repeat(len(ks)))))
        lattice_j = list(ks) * len(ks)
    values: dict[tuple[int, int, int], Union[float, complex]] = {}
    for p0, p1, q in powers:
        # m1*(i + j*omega)*(p0 + p1*omega)/q with omega^2 = t*omega - n
        u0, v0, u1, v1 = m1 * p0, m1 * n * p1, m1 * p1, m1 * (p0 + t * p1)
        if basis.is_rational:  # c rational over Z: every omega-coordinate is 0
            x0 = list(map(mul, ks, repeat(u0)))
            g = list(map(gcd, x0, repeat(q)))
            x0, x1 = list(map(floordiv, x0, g)), [0] * len(g)
        else:
            if ring.is_rational:
                x0, x1 = list(map(mul, ks, repeat(u0))), list(map(mul, ks, repeat(u1)))
            else:
                x0 = list(map(sub, map(mul, lattice_i, repeat(u0)),
                              map(mul, lattice_j, repeat(v0))))
                x1 = list(map(add, map(mul, lattice_i, repeat(u1)),
                              map(mul, lattice_j, repeat(v1))))
            g = list(map(gcd, x0, x1, repeat(q)))
            x0, x1 = list(map(floordiv, x0, g)), list(map(floordiv, x1, g))
        den = list(map(floordiv, repeat(q), g))
        values.update(zip(zip(x0, x1, den), basis.embed_values(x0, x1, den)))
    coords, embedded = list(values), list(values.values())
    keys = (list(zip(map(attrgetter("real"), embedded), map(attrgetter("imag"), embedded)))
            if basis.field.is_imaginary else embedded)
    order = sorted(range(len(coords)), key=keys.__getitem__)
    sorted_keys = list(map(keys.__getitem__, order))
    if any(map(eq, sorted_keys, sorted_keys[1:])):
        # equal embeddings keep the exact order of QuadElem's a, then b
        exact = basis.sqrt_terms
        order = [k for _, run in itertools.groupby(order, keys.__getitem__)
                 for k in sorted(run, key=lambda k: exact(*coords[k]))]
    elif keys is embedded:  # real values with no ties: the keys are the values
        return DeltaCSet(basis, tuple(map(coords.__getitem__, order)), tuple(sorted_keys))
    return DeltaCSet(basis, tuple(map(coords.__getitem__, order)),
                     tuple(map(embedded.__getitem__, order)))


def is_delta_c_member(z: QuadElem, c: QuadElem, ring: RingOfIntegers,
                      exponent: int, m1: int = 1) -> bool:
    """Membership z = m1 * x * c^(2^exponent) with x integral, checked exactly."""
    x = z / (c ** (2 ** exponent) * m1)
    return ring.contains(x)


# -- the clustering-failure witness -----------------------------------------

@dataclass(frozen=True)
class DeltaWitness:
    """Family z_0..z_n of distinct members of Delta_c within diameter <= 1."""

    points: tuple[QuadElem, ...]
    lattice_factors: tuple[QuadElem, ...]
    exponents: tuple[int, ...]
    f_values: tuple[int, ...]
    p: QuadElem
    q: QuadElem
    m1: int

    @property
    def n(self) -> int:
        return len(self.points) - 1

    def max_deviation(self) -> float:
        """max_j |z_j - z_0|, correctly rounded: the root of the largest
        N(z_j - z_0), as |x|^2 = N(x) over Z and the imaginary rings."""
        z0 = self.points[0]
        top = max((zj - z0).norm() for zj in self.points)
        return _sqrt_ratio_float(top.numerator, top.denominator)


def lowest_terms(c: QuadElem, ring: RingOfIntegers) -> tuple[QuadElem, QuadElem]:
    """c = p/q with p, q integral and coprime, q a canonical associate."""
    q0 = QuadElem.rational(c.den, ring.field)
    p0 = c * q0
    g = gcd_ring(p0, q0, ring)
    p, q = p0 / g, q0 / g
    unit = ring.canonical_associate(q) / q
    return p * unit, q * unit


def _exponent_schedule(p: QuadElem, q: QuadElem, ring: RingOfIntegers, n: int,
                       m1: int) -> list[int]:
    """f(0) = 0 and, for j = 1..n, the least f(j) = 2^k - 1 > f(j-1) with
    N(q)^(2^k) >= 4 M^(2j) N(p)^(1 + f(0) + ... + f(j-1)): the bound
    |q|^f(j) >= 2 M^j |c| prod_{i<j} |p|^f(i), c = p/q, squared, as
    |x|^2 = N(x) over Z and the imaginary rings. Raises BudgetExceededError
    once p^f(i), q^f(i), i <= j, would pass WITNESS_BIT_BUDGET bits in all."""
    norm_p, norm_q = int(p.norm()), int(q.norm())
    if norm_q <= 1:
        raise AssertionError("the reduced denominator q is a unit")
    log_pq = 0.5 * math.log(max(norm_p, norm_q))  # log max(|p|, |q|)
    # 2^k - 1, as c^(2^k) = (p/q)^(2^k - 1) * c
    f = [0]
    for j in range(1, n + 1):
        rhs = 4 * norm_p ** (1 + sum(f))
        k = f[-1].bit_length() + 1  # the least k with 2^k - 1 > f(j-1)
        while m_power_sign(norm_q ** (2 ** k), rhs, j, ring, m1) < 0:
            k += 1
        f.append(2 ** k - 1)
        if sum(f) * log_pq > WITNESS_BIT_BUDGET * math.log(2):
            raise BudgetExceededError(
                f"the witness powers p^f(i), q^f(i), i <= {j}, with f({j}) = {f[-1]}, "
                f"would pass the {WITNESS_BIT_BUDGET}-bit budget of an exact witness")
    return f


def delta_c_cluster_witness(c: QuadElem, ring: RingOfIntegers, n: int,
                            m1: int = 1) -> DeltaWitness:
    """Construct z_0..z_n in Delta_c, pairwise distinct, with
    |z_j - z_0| <= 1/2 for every j.

    Write c = p/q in lowest terms and pick the primary factor q1 of q. The
    exponent schedule f(0) = 0 < f(1) < ... < f(n) takes values 2^k - 1 and
    is chosen so |q|^f(j) dominates 2 M^j |c| prod_{i<j} |p|^f(i) with
    M = max(M1, M2). Downward induction then produces Bezout data
    u_i p^f(i) - v_i (v_{i+1}..v_n) q^f(i) = 1 with (v_i, q1) = 1 and
    |v_i| <= M|p|^f(i), and the points are z_0 = M1 (prod v_i) c,
    z_j = M1 u_j (prod_{i<j} v_i) c (p/q)^f(j). Distinctness and the 1/2
    bound are asserted exactly; the telescoping identity makes
    z_j - z_0 = M1 c (prod_{i<j} v_i) / q^f(j).

    Raises BudgetExceededError, before any Bezout step, when the powers
    p^f(i), q^f(i) would pass WITNESS_BIT_BUDGET bits in all.
    """
    if n < 1:
        raise PreconditionError("delta_c_cluster_witness requires n >= 1")
    if m1 < 1:
        raise PreconditionError("delta_c_cluster_witness requires m1 >= 1")
    if not ring.is_euclidean:
        raise PreconditionError("witness construction needs a Euclidean ring or Z")
    if ring.contains(c):
        raise PreconditionError("c is an algebraic integer: Delta_c clusters boundedly")
    p, q = lowest_terms(c, ring)
    q1 = prime_power_factor(q, ring)
    f = _exponent_schedule(p, q, ring, n, m1)

    pq = p / q

    u: list[Optional[QuadElem]] = [None] * (n + 1)
    v: list[Optional[QuadElem]] = [None] * (n + 1)
    tail = QuadElem.rational(1, ring.field)
    for i in range(n, 0, -1):
        r_i = p ** f[i]
        s_i = -(tail * q ** f[i])
        u_i, v_i = _bezout_bounded_unchecked(r_i, s_i, q1, ring)  # q1 | q | s_i
        u[i], v[i] = u_i, v_i
        tail = tail * v_i

    factors = [None] * (n + 1)
    factors[0] = tail  # v_1 ... v_n
    points = [factors[0] * m1 * c]
    exponents = [0]
    running = QuadElem.rational(1, ring.field)
    for j in range(1, n + 1):
        factors[j] = u[j] * running
        k_j = (f[j] + 1).bit_length() - 1
        points.append(factors[j] * m1 * c * pq ** f[j])
        exponents.append(k_j)
        running = running * v[j]

    if len(set(points)) != n + 1:
        raise AssertionError("witness points collided")
    for j, (z, x, e) in enumerate(zip(points, factors, exponents)):
        if not ring.contains(x):
            raise AssertionError(f"lattice factor {j} not integral")
        if not (z - x * m1 * c ** (2 ** e)).is_zero():
            raise AssertionError(f"z_{j} is not m1 * x_{j} * c^(2^{e})")
        if (z - points[0]).abs_sign(Fraction(1, 2)) > 0:
            raise AssertionError(f"|z_{j} - z_0| > 1/2")
    return DeltaWitness(tuple(points), tuple(factors), tuple(exponents),
                        tuple(f), p, q, m1)


# -- Kronecker gap collapse demo --------------------------------------------

def kronecker_gap_demo(theta1: float, theta2: float, k_max: int, delta: float = 0.0,
                       cap: int = DEFAULT_CAP) -> list[tuple[int, float]]:
    """Running minimum over |k*theta1 - l*theta2 - delta| for k, l in
    [-K, K]^2, (k, l) != (0, 0), reported as the envelope K -> min.

    On each edge of the shell max(|k|, |l|) = K one index is fixed, and the
    float value is monotone in the other, since rounding to nearest is
    monotone: it moves with theta1 along k and with -theta2 along l. Its
    least |.| therefore sits at the sign change, which `_least_abs` finds
    from the real zero in O(1) evaluations of the same expression, so the
    envelope costs O(K) evaluations. An edge whose fixed product is not
    finite yields only inf or NaN, which the minimum never takes, and so
    does every edge when an input is not finite.
    Raises BudgetExceededError when K passes cap."""
    if k_max < 1:
        raise PreconditionError("kronecker_gap_demo requires K >= 1")
    _within_budget(k_max, cap, "the envelope")
    if not all(map(math.isfinite, (theta1, theta2, delta))):
        return [(k_cur, math.inf) for k_cur in range(1, k_max + 1)]
    best = math.inf
    envelope = []
    for k_cur in range(1, k_max + 1):
        # pairs with max(|k|, |l|) == k_cur; (0, 0) is never visited
        for l in (-k_cur, k_cur):
            lt = l * theta2
            if math.isfinite(lt):
                best = min(best, _least_abs(lambda k: k * theta1 - lt - delta,
                                            -k_cur, k_cur, theta1, lt + delta))
        for k in (-k_cur, k_cur):
            kt = k * theta1
            if math.isfinite(kt):
                best = min(best, _least_abs(lambda l: kt - l * theta2 - delta,
                                            1 - k_cur, k_cur - 1, -theta2, delta - kt))
        envelope.append((k_cur, best))
    return envelope


def _least_abs(value, lo: int, hi: int, slope: float, shift: float) -> float:
    """min |value(i)| over lo <= i <= hi, for a value never NaN that is
    monotone in i in the direction of slope, as slope*i - shift is.

    The least |.| is at the first i past the sign change or just before it.
    That i is first taken as ceil(shift / slope), the real zero, clamped to
    [lo, hi + 1]. It is kept when value(i - 1) is below 0 and value(i) is
    not, in the direction of slope (only one of them at an end of the
    range); then the values in hand give the answer. A slope of 0, a zero
    out of float range or a misplaced guess falls back to bisection, which
    finds the same i in O(log(hi - lo)) evaluations."""
    zero = shift / slope if slope else math.nan
    if math.isfinite(zero):
        i, direction = math.ceil(zero), (1.0 if slope > 0 else -1.0)
        if i <= lo:
            at = value(lo)
            if direction * at >= 0:
                return abs(at)
        elif i > hi:
            before = value(hi)
            if direction * before < 0:
                return abs(before)
        else:
            before, at = value(i - 1), value(i)
            if direction * before < 0 <= direction * at:
                return min(abs(before), abs(at))
    sign = 1.0 if value(lo) <= value(hi) else -1.0
    i = lo + bisect.bisect_left(range(lo, hi + 1), 0.0, key=lambda j: sign * value(j))
    return min(abs(value(j)) for j in (i - 1, i) if lo <= j <= hi)
