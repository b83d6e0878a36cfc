"""Componentwise-ordered posets of pair facets, and their antichains.

A *pair facet* on [n] is a 2k-subset that splits into k runs of exactly
two consecutive labels, recorded as its sorted tuple.  Pair facets compare
by componentwise <=; the strict variant requires every coordinate to drop.
Antichains are stored sorted, and an antichain with k = 0 may contain the
empty tuple as its only element.

A *grid point* is a strictly increasing k-tuple x with 1 <= x_1 and
x_k <= n-k; grid_to_facet sends x to the union of the pairs
{x_j + j - 1, x_j + j} and is an isomorphism onto the pair facets ordered
componentwise.  Grid points only enter and enumerate: an antichain of grid
points (grid=True) is built, compared, shifted, printed and converted by
`to_pair_facets`, and every ideal, restriction and ball built from an
antichain refuses one (`_require_pair_facets`).

`Antichain(...)` and `parse_antichain` check input from outside the program.
The antichains that `enumerate_antichains` yields, the conversion to pair
facets, and the results of `shift_down` and `restrict` are sorted, valid
and pairwise incomparable by construction and go through the private
unchecked constructor `Antichain._trusted`.

An antichain keeps what is derived from it in its instance dict, computed
at most once by `faces._kept`, the rule that keeps what a complex
derives: its order ideal (`ideal_with_min(s, 1)` is that ideal, so every
ball built from s reads it), the ideal split by leading label
(`ideal_by_lead`, which every block of a relative ball reads), and, kept
by `squeezed`, its decomposition pieces.  What is kept takes no part in
equality, hashing or repr, and pickles and copies carry the four fields
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import le, lt
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .faces import Face, _kept

GridPoint = tuple[int, ...]


def componentwise_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Componentwise order on equal-length tuples."""
    if len(a) != len(b):
        raise ValueError(f"cannot compare tuples of lengths {len(a)} and {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def _is_pair_facet(f: tuple[int, ...], k: int, n: int) -> bool:
    if len(f) != 2 * k:
        return False
    if any(a >= b for a, b in zip(f, f[1:])):
        return False
    if f and (f[0] < 1 or f[-1] > n):
        return False
    return all(f[2 * j + 1] == f[2 * j] + 1 for j in range(k))


def _is_grid_point(x: tuple[int, ...], k: int, n: int) -> bool:
    if len(x) != k:
        return False
    if any(a >= b for a, b in zip(x, x[1:])):
        return False
    return not x or (x[0] >= 1 and x[-1] <= n - k)


@dataclass(frozen=True)
class Antichain:
    """A pairwise-incomparable set of pair facets (or grid points, if grid=True)."""

    k: int
    n: int
    elements: tuple[tuple[int, ...], ...]
    grid: bool = False

    def __post_init__(self) -> None:
        elems = tuple(sorted(set(map(tuple, self.elements))))
        object.__setattr__(self, "elements", elems)
        if self.k < 0 or self.n < 0:
            raise ValueError("ambient parameters must be non-negative")
        ok = _is_grid_point if self.grid else _is_pair_facet
        for e in elems:
            if not ok(e, self.k, self.n):
                kind = "grid point" if self.grid else "pair facet"
                raise ValueError(f"{e} is not a {kind} for k={self.k}, n={self.n}")
        for a, b in combinations(elems, 2):
            if componentwise_leq(a, b) or componentwise_leq(b, a):
                raise ValueError(f"elements {a} and {b} are comparable")

    @classmethod
    def _trusted(cls, k: int, n: int, elements: tuple[tuple[int, ...], ...],
                 grid: bool) -> "Antichain":
        """Antichain on elements that are sorted, valid and pairwise
        incomparable by construction, taken without the checks of
        `__post_init__`."""
        a = object.__new__(cls)
        object.__setattr__(a, "k", k)
        object.__setattr__(a, "n", n)
        object.__setattr__(a, "elements", elements)
        object.__setattr__(a, "grid", grid)
        return a

    def __reduce__(self):
        # pickles and copies carry the fields only, never the kept ideal;
        # the elements of an existing antichain are checked already
        return (Antichain._trusted, (self.k, self.n, self.elements, self.grid))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    # grid_to_facet preserves both the componentwise and the lexicographic
    # order, so a converted antichain is sorted and valid as is

    def to_pair_facets(self) -> "Antichain":
        if not self.grid:
            return self
        return Antichain._trusted(self.k, self.n, tuple(map(grid_to_facet, self.elements)), False)


def antichain_lt(t: Antichain, s: Antichain) -> bool:
    """Every element of t lies strictly below some element of s, coordinatewise."""
    if (t.k, t.n, t.grid) != (s.k, s.n, s.grid):
        raise ValueError("antichains live in different ambient posets")
    return all(any(all(map(lt, g, f)) for f in s) for g in t)


def _require_pair_facets(s: Antichain) -> None:
    """Refuse an antichain of grid points: ideals, restrictions and balls read pair facets."""
    if s.grid:
        raise ValueError("ideals, restrictions and balls are built from pair-facet antichains")


def _down_set(top: Face, lo: int = 1) -> list[Face]:
    """Pair facets componentwise below top whose smallest label is at least lo, sorted.

    Each pair is built as a tuple literal; it starts after the previous pair
    ends and no later than the pair of top in the same position.
    """
    out: list[Face] = [()]
    for t in top[::2]:
        out = [x + (i, i + 1) for x in out for i in range(x[-1] + 1 if x else lo, t + 1)]
    return out


def pair_facets(k: int, m: int, n: int) -> tuple[Face, ...]:
    """All pair facets on [n] whose leftmost label is at least m, sorted.

    For k = 0 the single empty facet is returned regardless of the window.
    """
    if k < 0 or m < 1:
        raise ValueError(f"bad parameters k={k}, m={m}")
    return tuple(_down_set(tuple(range(n - 2 * k + 1, n + 1)), m))


def grid_points(k: int, n: int) -> tuple[GridPoint, ...]:
    """All grid points for the given ambient, sorted."""
    if k < 0:
        raise ValueError(f"bad parameter k={k}")
    return tuple(combinations(range(1, n - k + 1), k))


def grid_to_facet(x: GridPoint) -> Face:
    """Pair facet whose j-th pair starts at x_j + j - 1."""
    return tuple(v for j, xj in enumerate(x) for v in (xj + j, xj + j + 1))


def max_slope_element(k: int, n: int) -> GridPoint:
    """The grid point (1, n-2k+2, ..., n-k) singled out by the census family."""
    if k < 1 or n < 2 * k:
        raise ValueError(f"no such element for k={k}, n={n}")
    return (1,) + tuple(range(n - 2 * k + 2, n - k + 1))


def shift_down(s: Antichain) -> Antichain:
    """Drop elements with a coordinate at 1 and lower the rest by one."""
    # a uniform shift keeps the elements valid, sorted and incomparable
    kept = tuple(
        tuple(v - 1 for v in e) for e in s.elements if e and e[0] > 1)
    return Antichain._trusted(s.k, s.n, kept, s.grid)


@_kept
def order_ideal(s: Antichain) -> frozenset[Face]:
    """Downward closure of s among pair facets: the union of its elements' down-sets."""
    _require_pair_facets(s)
    return frozenset(x for e in s for x in _down_set(e))


@_kept
def ideal_by_lead(s: Antichain) -> Mapping[int, frozenset[Face]]:
    """The order ideal of s split by leading label: each label j maps to the
    members that start at j.  The empty tuple has no label and is in no part."""
    split: dict[int, list[Face]] = {}
    for x in order_ideal(s):
        if x:
            split.setdefault(x[0], []).append(x)
    return MappingProxyType({j: frozenset(xs) for j, xs in split.items()})


def ideal_with_min(s: Antichain, m: int) -> frozenset[Face]:
    """Members of the order ideal of s whose smallest label is at least m.

    The empty facet has no labels and passes every such filter.  For m = 1
    this is the kept order ideal itself.
    """
    _require_pair_facets(s)
    if m < 1:
        raise ValueError(f"minimum label must be at least 1, got {m}")
    if m == 1:
        return order_ideal(s)
    return frozenset(x for e in s for x in _down_set(e, m))


def maximal_elements(xs: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Maximal members of a set of equal-length tuples, sorted.

    A member below another is lexicographically smaller, so in descending
    order it comes after every member above it, and one pass keeps each
    member that lies below none kept so far.
    """
    pool = sorted(set(xs), reverse=True)
    width = len(pool[0]) if pool else 0
    for x in pool:
        if len(x) != width:
            raise ValueError(f"cannot compare tuples of lengths {width} and {len(x)}")
    kept: list[tuple[int, ...]] = []
    for x in pool:
        if not any(all(map(le, x, y)) for y in kept):
            kept.append(x)
    return tuple(reversed(kept))


def restrict(s: Antichain, interval: tuple[int, int]) -> Antichain:
    """Antichain of tails extending a fixed initial even run.

    For the run J = [j, j+2l-1] given by `interval`, collect every facet in
    the order ideal of s that starts with exactly J and continues at or after
    j+2l, strip J from each, and return the maximal tails.  The result lives
    among pair facets with l fewer pairs; when l = k the only possible tail
    is the empty facet.  J + H lies below an element e exactly when J lies
    below the first 2l labels of e and H below the rest, so the maximal
    tails are the maximal rests of the elements whose first 2l labels lie
    above J.
    """
    run = _run(s, interval)
    l = len(run) // 2
    # map stops at the end of the run, so this compares the first 2l labels
    tails = (e[2 * l:] for e in s if all(map(le, run, e)))
    return Antichain._trusted(s.k - l, s.n, maximal_elements(tails), False)


def _run(s: Antichain, interval: tuple[int, int]) -> tuple[int, ...]:
    """The run [j, j+2l-1] that `interval` names, for restricting s to it.

    Refuses a grid antichain, an interval that is not such a run, and a run
    longer than the facets of s.
    """
    _require_pair_facets(s)
    j, hi = interval
    length = hi - j + 1
    if length < 2 or length % 2 or j < 1:
        raise ValueError(f"need an even interval [j, j+2l-1] with j >= 1, got {interval}")
    if length // 2 > s.k:
        raise ValueError(f"interval longer than the facets: {interval}")
    return tuple(range(j, hi + 1))


def enumerate_antichains(
    k: int, n: int, must_contain: Iterable[int] | None = None,
) -> Iterator[Antichain]:
    """All antichains of grid points, in lexicographic order of their element lists.

    They enter every ideal, restriction and ball by `to_pair_facets`.

    With must_contain, only antichains through that grid point are produced;
    elements comparable to it are pruned up front.

    The walk runs over bitmasks of point indices.  A point later in
    lexicographic order never lies below an earlier one, so after[i], the
    later points incomparable to point i, needs only the test p <= q.  An
    antichain whose last point is i extends by the points of its candidate
    mask, lowest first, and choosing point j leaves the candidates that are
    also in after[j].  Through a target point t, an antichain that stops
    before t tries only points up to t next: past t without it, no extension
    reaches it.
    """
    if k < 1 or n < 2 * k:
        raise ValueError(f"ambient requires k >= 1 and n >= 2k, got k={k}, n={n}")
    pts = list(grid_points(k, n))
    t, upto_t = 0, -1  # antichains are produced once their last point is at or past t
    if must_contain is not None:
        g = tuple(must_contain)
        if g not in set(pts):
            raise ValueError(f"{g} is not a grid point for k={k}, n={n}")
        pts = [p for p in pts
               if p == g or not (componentwise_leq(p, g) or componentwise_leq(g, p))]
        t = pts.index(g)
        upto_t = (2 << t) - 1
    after = [sum(1 << j for j in range(i + 1, len(pts)) if not componentwise_leq(p, pts[j]))
             for i, p in enumerate(pts)]
    everything = (1 << len(pts)) - 1

    def walk() -> Iterator[Antichain]:
        if must_contain is None:
            yield Antichain._trusted(k, n, (), True)
        # a chosen antichain, the points it still tries next, and its candidates
        stack = [((), everything & upto_t, everything)]
        while stack:
            chosen, todo, cand = stack.pop()
            if not todo:
                continue
            low = todo & -todo
            i = low.bit_length() - 1
            stack.append((chosen, todo ^ low, cand))
            grown = chosen + (pts[i],)
            cand &= after[i]
            stack.append((grown, cand if i >= t else cand & upto_t, cand))
            if i >= t:
                yield Antichain._trusted(k, n, grown, True)

    return walk()


def format_antichain(s: Antichain) -> str:
    """One-line text form, elements like (1,2,7,8) separated by spaces."""
    return " ".join("(" + ",".join(map(str, e)) + ")" for e in s.elements)


def parse_antichain(text: str, k: int, n: int) -> Antichain:
    """Parse the one-line antichain format; a blank line is the empty antichain."""
    elems = []
    for tok in text.split():
        if not (tok.startswith("(") and tok.endswith(")")):
            raise ValueError(f"bad antichain element: {tok!r}")
        body = tok[1:-1]
        elems.append(tuple(int(p) for p in body.split(",")) if body else ())
    return Antichain(k, n, tuple(elems))
