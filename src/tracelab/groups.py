"""Word-ball enumeration for finitely generated subgroups of PSL(2) over
exact fields, a catalog of standard groups, and trace-set extraction."""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .errors import BudgetExceededError, PreconditionError
from .psl2 import ProjMat, parse_mat2
from .qfield import QQ, FieldDesc, QuadElem, embed_elements

DEFAULT_CAP = 5_000_000
DEFAULT_PAIR_BUDGET = 90_000  # of gamma2_ball

ARITHMETIC = "arithmetic"
NON_ARITHMETIC = "non_arithmetic"
UNKNOWN = "unknown"

_REAL_IMAG = attrgetter("real", "imag")


@dataclass(frozen=True)
class GroupSpec:
    """Generator presentation; expected_class is metadata only."""

    name: str
    generators: tuple[ProjMat, ...]
    field: FieldDesc
    expected_class: str = UNKNOWN

    def __post_init__(self):
        if not self.generators:
            raise ValueError("generator list must be nonempty")
        for g in self.generators:
            if g.field != self.field and not g.field.is_rational:
                raise ValueError(f"generator field {g.field} != group field {self.field}")
        if self.expected_class not in (ARITHMETIC, NON_ARITHMETIC, UNKNOWN):
            raise ValueError(f"unknown expected_class {self.expected_class!r}")


@dataclass(frozen=True)
class Ball:
    """Deduplicated word ball: every element carries its least word length.
    The insertion order of word_length is the ball's element order."""

    radius: int
    word_length: dict[ProjMat, int]
    complete: bool = True

    @property
    def size(self) -> int:
        return len(self.word_length)

    def per_radius_counts(self) -> list[tuple[int, int]]:
        counts: dict[int, int] = {}
        for wl in self.word_length.values():
            counts[wl] = counts.get(wl, 0) + 1
        total = 0
        out = []
        for r in range(self.radius + 1):
            total += counts.get(r, 0)
            out.append((r, total))
        return out


def _letters(spec: GroupSpec) -> list[ProjMat]:
    out: list[ProjMat] = []
    for g in spec.generators:
        for cand in (g, g.inv()):
            if not cand.is_identity() and cand not in out:
                out.append(cand)
    return out


def enumerate_ball(spec: GroupSpec, radius: int, cap: int = DEFAULT_CAP) -> Ball:
    """Breadth-first ball of all distinct elements of word length <= radius.

    Raises BudgetExceededError (carrying the ball truncated to the last
    fully completed radius) when the element budget is exceeded.
    """
    if radius < 1:
        raise PreconditionError("enumerate_ball requires radius >= 1")
    ident = ProjMat.identity(spec.field)
    letters = _letters(spec)
    # moves[i]: (letter, moves of the product) for every letter but the
    # inverse of letters[i], which from an element first reached by
    # letters[i] only leads back to its parent; moves[-1], of the identity,
    # has every letter (_letters holds the inverse of each letter)
    inverse = [letters.index(let.inv()) for let in letters]
    moves: list[list] = [[] for _ in range(len(letters) + 1)]
    for skip, out in zip(inverse + [None], moves):
        out += [(let, moves[j]) for j, let in enumerate(letters) if j != skip]
    seen: dict[ProjMat, int] = {ident: 0}
    frontier: list[tuple[ProjMat, list]] = [(ident, moves[-1])]
    for level in range(1, radius + 1):
        new_frontier: list[tuple[ProjMat, list]] = []
        for g, tries in frontier:
            for let, then in tries:
                h = g * let
                if h not in seen:
                    seen[h] = level
                    new_frontier.append((h, then))
            if len(seen) > cap:
                done = level - 1
                partial = Ball(done, {e: w for e, w in seen.items() if w <= done},
                               complete=False)
                raise BudgetExceededError(
                    f"element budget {cap} exceeded at radius {level}; "
                    f"completed radius {done}", partial=partial)
        frontier = new_frontier
    return Ball(radius, seen)


def enumerate_largest_ball(spec: GroupSpec, radius: int,
                           cap: int = DEFAULT_CAP) -> Ball:
    """The requested ball, or the largest completed one under the budget."""
    try:
        return enumerate_ball(spec, radius, cap)
    except BudgetExceededError as exc:
        return exc.partial


@dataclass(frozen=True)
class TraceSet:
    """Sorted canonical reduced (or full) trace set with numeric embeddings
    and least-word-length provenance."""

    exact: tuple[QuadElem, ...]
    embedded: tuple[complex, ...]
    provenance: dict[QuadElem, int]
    reduced: bool
    radius: int

    @property
    def size(self) -> int:
        return len(self.exact)

    def restrict(self, radius: int) -> "TraceSet":
        """Traces first realized at word length <= radius."""
        prov = self.provenance
        keep = [prov[t] <= radius for t in self.exact]
        exact = tuple(itertools.compress(self.exact, keep))
        return TraceSet(exact, tuple(itertools.compress(self.embedded, keep)),
                        {t: prov[t] for t in exact}, self.reduced, radius)


def _sorted_traces(traces: list[QuadElem]) -> tuple[list[int], list]:
    """The indices of traces in compare_embedded order, and the embedded
    traces in that order. A sort by float key (by (re, im) when a value is
    complex) is certified by n - 1 exact comparisons of neighbours, as a
    strict chain under a total order is the one sorted order; where a float
    tie, a misrounded pair or a value past float range breaks the chain,
    the comparator sorts instead."""
    values = embed_elements(traces)
    keys = values if complex not in map(type, values) else list(map(_REAL_IMAG, values))
    order = sorted(range(len(traces)), key=keys.__getitem__)
    ranked = list(map(traces.__getitem__, order))
    if not all(x.compare_embedded(y) < 0 for x, y in zip(ranked, ranked[1:])):
        order = sorted(range(len(traces)), key=functools.cmp_to_key(
            lambda i, j: traces[i].compare_embedded(traces[j])))
    return order, list(map(values.__getitem__, order))


def _least_word_lengths(items) -> dict[tuple, int]:
    """The least word length per distinct trace of (element, word length)
    pairs, keyed by the trace's exact integer form (ProjMat.trace_key)."""
    least: dict[tuple, int] = {}
    get = least.get
    for g, wl in items:
        key = g.trace_key()
        old = get(key)
        if old is None or wl < old:
            least[key] = wl
    return least


def trace_set(ball: Ball, reduced: bool = True) -> TraceSet:
    # the reduced set drops the identity without a test of every element:
    # an enumerated ball lists it first, and a lookup of the identity over
    # each field of the ball finds it anywhere else
    word_length = ball.word_length
    first = next(iter(word_length), None)
    lead = reduced and first is not None and first.is_identity()
    least = _least_word_lengths(itertools.islice(word_length.items(), lead, None))
    if reduced:
        fields = {key[3].field for key in least} | ({first.field} if lead else set())
        idents = word_length.keys() & set(map(ProjMat.identity, fields))
        if idents - {first}:
            least = _least_word_lengths((g, wl) for g, wl in word_length.items()
                                        if g not in idents)
    # each distinct trace becomes a QuadElem once, from its key
    traces = [QuadElem(ring, den, t0, t1) for t0, t1, den, ring in least]
    order, embedded = _sorted_traces(traces)
    exact = tuple(map(traces.__getitem__, order))
    wls = list(least.values())
    return TraceSet(exact, tuple(embedded), dict(zip(exact, map(wls.__getitem__, order))),
                    reduced, ball.radius)


def gamma2_ball(ball: Ball, pair_budget: int = DEFAULT_PAIR_BUDGET) -> Ball:
    """Squares of ball elements plus pairwise products of squares drawn from
    the largest sub-ball whose square count fits the pair budget; word
    lengths are inherited from the constructions."""
    # a repeated square, or the identity (the square of every element of
    # order 2), only gives products an earlier pair already gave, with no
    # smaller word length; so the pairs run over the distinct non-identity
    # squares of the sub-ball, each at its first place with its least length
    sub_radius = max((r for r, n in ball.per_radius_counts()
                      if n * n <= pair_budget), default=0)
    prov: dict[ProjMat, int] = {}
    sub: dict[ProjMat, int] = {}
    setdefault = prov.setdefault
    for g, wl in ball.word_length.items():
        sq, wl = g * g, 2 * wl
        if setdefault(sq, wl) > wl:
            prov[sq] = wl
        if wl <= 2 * sub_radius and sub.setdefault(sq, wl) > wl:
            sub[sq] = wl
    squares = [(sq, wl) for sq, wl in sub.items() if not sq.is_identity()]
    for s1, w1 in squares:
        for s2, w2 in squares:
            h, wl = s1 * s2, w1 + w2
            if setdefault(h, wl) > wl:
                prov[h] = wl
    # deterministic order: by provenance, ties by insertion
    return Ball(2 * ball.radius, dict(sorted(prov.items(), key=itemgetter(1))))


# -- catalog ----------------------------------------------------------------

# One group spec file's JSON object per canonical name. Generator order fixes
# the BFS order of a ball, and so its word-length provenance. (T, T_omega, S)
# generates PSL(2, O_d) only over the Euclidean imaginary quadratic rings.
_CATALOG = {name: {"name": name, "field_d": d, "generators": gens, "expected_class": cls}
            for name, d, gens, cls in [
    ("psl2z", None, ["[0,1;-1,0]", "[1,1;0,1]"], ARITHMETIC),
    ("gamma0(2)", None, ["[1,1;0,1]", "[1,-1;2,-1]"], ARITHMETIC),
    ("gamma0(3)", None, ["[1,1;0,1]", "[1,-1;3,-2]"], ARITHMETIC),
    ("gamma0(4)", None, ["[1,1;0,1]", "[1,0;4,1]"], ARITHMETIC),
    ("gamma0(5)", None, ["[1,1;0,1]", "[2,-1;5,-2]", "[2,1;-5,-2]"], ARITHMETIC),
    ("gamma0(6)", None, ["[1,1;0,1]", "[5,-1;6,-1]", "[7,-3;12,-5]"], ARITHMETIC),
    ("hecke(4)", 2, ["[0,1;-1,0]", "[1,sqrt(2);0,1]"], ARITHMETIC),
    ("hecke(5)", 5, ["[0,1;-1,0]", "[1,1/2+1/2*sqrt(5);0,1]"], NON_ARITHMETIC),
    ("hecke(6)", 3, ["[0,1;-1,0]", "[1,sqrt(3);0,1]"], ARITHMETIC),
    ("bianchi(-1)", -1, ["[1,1;0,1]", "[1,sqrt(-1);0,1]", "[0,1;-1,0]"], ARITHMETIC),
    ("bianchi(-2)", -2, ["[1,1;0,1]", "[1,sqrt(-2);0,1]", "[0,1;-1,0]"], ARITHMETIC),
    ("bianchi(-3)", -3, ["[1,1;0,1]", "[1,1/2+1/2*sqrt(-3);0,1]", "[0,1;-1,0]"], ARITHMETIC),
    ("bianchi(-7)", -7, ["[1,1;0,1]", "[1,1/2+1/2*sqrt(-7);0,1]", "[0,1;-1,0]"], ARITHMETIC),
    ("bianchi(-11)", -11, ["[1,1;0,1]", "[1,1/2+1/2*sqrt(-11);0,1]", "[0,1;-1,0]"],
     ARITHMETIC),
]}


def catalog_names() -> list[str]:
    return list(_CATALOG)


@functools.cache
def _catalog_spec(name: str) -> GroupSpec:
    return group_spec_from_dict(_CATALOG[name])


def catalog(name: str) -> GroupSpec:
    """The catalog group of a name: spaces and case are ignored, an index is
    any int literal, and gamma0(1) is psl2z."""
    key = name.replace(" ", "").lower()
    family, _, index = key.partition("(")
    try:
        n = int(index[:-1]) if index.endswith(")") else None
    except ValueError:  # no int literal between the parentheses
        n = None
    if n is not None:
        key = "psl2z" if (family, n) == ("gamma0", 1) else f"{family}({n})"
    if key not in _CATALOG:
        raise KeyError(f"unknown catalog group {name!r}; known: {', '.join(_CATALOG)}")
    return _catalog_spec(key)


# -- group spec files -------------------------------------------------------

def _required(data: dict, key: str):
    if key not in data:
        raise ValueError(f"a group spec needs the key {key!r}")
    return data[key]


def group_spec_from_dict(data: dict) -> GroupSpec:
    if not isinstance(data, dict):
        raise ValueError("a group spec must be a JSON object")
    d = data.get("field_d")
    if d is not None and type(d) is not int:
        raise ValueError(f"field_d must be an integer or null, not {d!r}")
    texts = _required(data, "generators")
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError("generators must be a list of matrix literals")
    fld = QQ if d is None else FieldDesc(d)
    gens = tuple(ProjMat.of(parse_mat2(text, fld)) for text in texts)
    return GroupSpec(str(_required(data, "name")), gens, fld,
                     str(data.get("expected_class", UNKNOWN)))


def load_group_spec(path: str | os.PathLike) -> GroupSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return group_spec_from_dict(json.load(fh))
