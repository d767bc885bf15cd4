"""Desk-scale trace-based arithmeticity checks on enumerated balls: trace
field, integrality with denominator-doubling certification, growth of the
Galois-conjugate embedding, the squares-subgroup trace approximation, and
the subtraction-closure criterion."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import PreconditionError
from .groups import DEFAULT_PAIR_BUDGET, Ball, TraceSet, gamma2_ball, trace_set
from .psl2 import canonical_trace
from .qfield import QQ, FieldDesc, QuadElem, embed_elements, format_quadelem

VERDICT_CONSISTENT = "consistent_with_derived_from_quaternion_algebra"
VERDICT_WITNESS = "non_arithmetic_witness"
VERDICT_INCONCLUSIVE = "inconclusive"

FLAG_UNBOUNDED = "unbounded_trend"
FLAG_BOUNDED = "bounded_so_far"
FLAG_NA_RATIONAL = "not_applicable_rational"
FLAG_NA_IMAGINARY = "not_applicable_imaginary"

GROWTH_RATIO_THRESHOLD = 1.5
GROWTH_SHELL_PERSISTENCE = 4


def trace_field(traces: TraceSet) -> FieldDesc:
    """QQ when every trace is rational, else the common quadratic field."""
    if not traces.exact:
        raise PreconditionError("trace_field requires a nonempty trace set")
    found = QQ
    for t in traces.exact:
        if t.x1:
            if not found.is_rational and found != t.field:
                raise PreconditionError("traces span more than one quadratic field")
            found = t.field
    return found


@dataclass(frozen=True)
class IntegralityViolation:
    trace: QuadElem
    doubled_denominators: tuple[int, ...]

    @property
    def certified(self) -> bool:
        seq = self.doubled_denominators
        return all(b > a for a, b in zip(seq, seq[1:])) and seq[0] > 1


@dataclass(frozen=True)
class IntegralityResult:
    integral: bool
    violations: tuple[IntegralityViolation, ...]

    @property
    def certified_violation(self) -> Optional[IntegralityViolation]:
        for v in self.violations:
            if v.certified:
                return v
        return None


def integrality_check(traces: TraceSet) -> IntegralityResult:
    """Every trace must be an algebraic integer; violations are certified by
    strict denominator growth along t -> t^2 - 2 (traces of repeated squares),
    over t and its first three such steps."""
    violations = []
    for t in traces.exact:
        if t.is_algebraic_integer():
            continue
        denoms = []
        cur = t
        for _ in range(4):
            denoms.append(cur.den)
            cur = cur * cur - 2
        violations.append(IntegralityViolation(t, tuple(denoms)))
    return IntegralityResult(not violations, tuple(violations))


@dataclass(frozen=True)
class ConjugateGrowth:
    """Per-shell running maxima of |conjugate embedding| and the trend flag."""

    shells: tuple[int, ...]
    maxima: tuple[float, ...]
    flag: str


def _sustained_growth(maxima: Sequence[float]) -> bool:
    run = 0
    prev = None
    for m in maxima:
        if prev is not None and prev > 0:
            if m >= GROWTH_RATIO_THRESHOLD * prev:
                run += 1
                if run >= GROWTH_SHELL_PERSISTENCE:
                    return True
            else:
                run = 0
        prev = m
    return False


def conjugate_boundedness(traces: TraceSet, field: Optional[FieldDesc] = None
                          ) -> ConjugateGrowth:
    """Running max of |t.conjugate().embed()| per even word-length shell.

    Not applicable for rational trace fields (no non-identity embedding) and
    for imaginary quadratic ones (identity and complex conjugation are both
    excluded, leaving nothing to test). field is trace_field(traces), taken
    from a caller that has it already, or computed here when not given."""
    fld = trace_field(traces) if field is None else field
    if fld.is_rational:
        return ConjugateGrowth((), (), FLAG_NA_RATIONAL)
    if fld.is_imaginary:
        return ConjugateGrowth((), (), FLAG_NA_IMAGINARY)
    lengths = list(map(traces.provenance.__getitem__, traces.exact))
    shells = range(2, max(lengths, default=0) + 1, 2)
    moduli = list(map(abs, embed_elements([t.conjugate() for t in traces.exact])))
    per_shell = []
    running = 0.0
    for s in shells:
        vals = [m for m, wl in zip(moduli, lengths) if wl <= s]
        if vals:
            running = max(running, max(vals))
        per_shell.append(running)
    flag = FLAG_UNBOUNDED if _sustained_growth(per_shell) else FLAG_BOUNDED
    return ConjugateGrowth(tuple(shells), tuple(per_shell), flag)


def gamma2_traces(ball: Ball, pair_budget: int = DEFAULT_PAIR_BUDGET) -> TraceSet:
    """Traces of squares of ball elements and pairwise products of squares."""
    return trace_set(gamma2_ball(ball, pair_budget), reduced=True)


@dataclass(frozen=True)
class ArithmeticityReport:
    radius: int
    trace_field_d: Optional[int]
    integral: bool
    violations: tuple[IntegralityViolation, ...]
    conjugate_growth: ConjugateGrowth
    verdict: str
    witness: Optional[str]
    elementary: bool
    gamma2_size: int

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "trace_field_d": self.trace_field_d,
            "integral": self.integral,
            "violations": [
                {"trace": format_quadelem(v.trace),
                 "doubled_denominators": list(v.doubled_denominators),
                 "certified": v.certified}
                for v in self.violations
            ],
            "conjugate_growth": {
                "shells": list(self.conjugate_growth.shells),
                "maxima": list(self.conjugate_growth.maxima),
                "flag": self.conjugate_growth.flag,
            },
            "verdict": self.verdict,
            "witness": self.witness,
            "elementary": self.elementary,
            "gamma2_size": self.gamma2_size,
        }


def takeuchi_verdict(ball: Ball, pair_budget: int = DEFAULT_PAIR_BUDGET
                     ) -> ArithmeticityReport:
    """Trace-criterion verdict on the squares-subgroup ball approximation.

    The checks run on traces of the squares subgroup (whose derived-from-
    quaternion-algebra property characterizes arithmeticity of the whole
    group), and every verdict is relative to the enumerated radius.
    """
    g2 = gamma2_traces(ball, pair_budget)
    # every element has the sign-folded trace 2, i.e. trace_key (2, 0, 1, ring)
    elementary = all(g.trace_key()[:3] == (2, 0, 1) for g in ball.word_length)
    fld = trace_field(g2) if g2.exact else QQ
    integ = integrality_check(g2)
    growth = conjugate_boundedness(g2, fld)
    witness: Optional[str] = None
    if elementary:
        verdict = VERDICT_INCONCLUSIVE
    elif integ.certified_violation is not None:
        verdict = VERDICT_WITNESS
        witness = ("non-integral trace "
                   + format_quadelem(integ.certified_violation.trace)
                   + " with doubling denominators "
                   + str(list(integ.certified_violation.doubled_denominators)))
    elif growth.flag == FLAG_UNBOUNDED:
        verdict = VERDICT_WITNESS
        conj_max = growth.maxima[-1] if growth.maxima else float("nan")
        witness = (f"conjugate-embedding growth sustained over "
                   f">={GROWTH_SHELL_PERSISTENCE} shells, reaching {conj_max:.6g}")
    elif integ.integral:
        verdict = VERDICT_CONSISTENT
    else:
        verdict = VERDICT_INCONCLUSIVE
    return ArithmeticityReport(
        radius=ball.radius,
        trace_field_d=fld.d,
        integral=integ.integral,
        violations=integ.violations,
        conjugate_growth=growth,
        verdict=verdict,
        witness=witness,
        elementary=elementary,
        gamma2_size=g2.size,
    )


# -- subtraction closure ----------------------------------------------------

def check_square_trace_identities() -> bool:
    """(a+b)^2 - 2 + (a-b)^2 - 2 - 2(a^2-2) - 2(b^2-2) == 4 as a polynomial,
    and 4^2 - 2 - 3*4 == 2.

    The difference of the two sides of the first identity has degree <= 2 in
    each of a and b, so it is the zero polynomial iff it vanishes on the grid
    {0, 1, 2}^2, where it is evaluated exactly."""
    return all((a + b) ** 2 - 2 + (a - b) ** 2 - 2 - 2 * (a * a - 2) - 2 * (b * b - 2) == 4
               for a in range(3) for b in range(3)) and 4 ** 2 - 2 - 3 * 4 == 2


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    violations: tuple[tuple[QuadElem, QuadElem, QuadElem], ...]  # (a, b, missing a-b)
    has_two: bool
    has_four: bool
    identities_ok: bool
    window: Fraction
    pairs_checked: int


def subtraction_closure_check(traces: TraceSet, window) -> ClosureReport:
    """For distinct trace pairs with |a - b| <= window, the sign-folded
    difference must be in the set; also reports membership of 2 and 4 and
    asserts the two square-trace polynomial identities."""
    try:
        win = Fraction(window)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in window {window!r}") from None
    if win < 0:
        raise ValueError(f"negative window {window!r}")
    identities_ok = check_square_trace_identities()
    tset = set(traces.exact)
    violations = []
    pairs = 0
    exact = traces.exact
    for i, a in enumerate(exact):
        for b in exact[i + 1:]:
            diff = canonical_trace(a - b)
            if diff.abs_sign(win) > 0:
                continue
            pairs += 1
            if diff not in tset:
                violations.append((a, b, diff))
    two = QuadElem.rational(2)
    four = QuadElem.rational(4)
    has_two = any((t - two).is_zero() for t in exact)
    has_four = any((t - four).is_zero() for t in exact)
    return ClosureReport(not violations, tuple(violations), has_two, has_four,
                         identities_ok, win, pairs)
