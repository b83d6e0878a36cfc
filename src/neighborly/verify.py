"""Checkable certificates: neighborliness, stackedness, shellings, sanity.

Every check returns a Certificate carrying the property name, a verdict,
and a witness.  Verdicts are True/False for decided properties; the
shelling search may also return None when it runs out of budget, which is
inconclusive rather than a refutation.  Stackedness is decided two ways at
once (skeleton comparison and vanishing of the tail of the h-vector) and a
disagreement raises instead of picking a side.

A shelling step is tested by its restriction face on the facet and ridge
masks of `faces`, in O(d) operations.  The census certifies each ball as a
bitmask of the facets of its ambient sphere, on what the ambient keeps
(`_patch`): one greedy shelling certifies the ball, and its boundary as a
sphere, in place of the homology of `ball_sanity` and `sphere_sanity`,
and one walk of the ball's faces, on the ambient's masks, gives its
f-vector, its neighborliness and both sides of its stackedness.  The full
checks stay for outside input, and run for any certificate the patch does
not give as True.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Any, Iterable, Iterator, Sequence

from .faces import (
    Complex,
    Face,
    FVector,
    HVector,
    _holding,
    _ridge_degrees,
    _ridge_holders,
    _step_pairs,
    _walk,
    boundary_complex,
    f_vector,
    h_vector,
    links_strongly_connected,
    ridge_facets,
    strongly_connected,
    z2_reduced_betti,
)
from .posets import Antichain
from .squeezed import relative_ball_general

ShellingOrder = tuple[Face, ...]


def _jsonable(value: Any) -> Any:
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class Certificate:
    """Outcome of one verification: property name, verdict, witness."""

    property: str
    verdict: bool | None
    witness: Any = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "property": self.property,
            "verdict": self.verdict,
            "witness": _jsonable(self.witness),
        }


def is_i_neighborly(c: Complex, i: int, vertex_set: Iterable[int]) -> Certificate:
    """Does every i-subset of the vertex set span a face of c?

    Every face of c lies in the vertex set, so c is i-neighborly exactly
    when its walk's level of faces with i vertices has as many entries as
    the vertex set has i-subsets.  Only on failure is the witness sought:
    the first i-subset in combinations order that spans no face.
    """
    if i < 1:
        raise ValueError(f"neighborliness degree must be at least 1, got {i}")
    verts = sorted(set(vertex_set))
    if c.is_void or not set(c.vertices) <= set(verts):
        raise ValueError("vertex set must contain the vertices of the complex")
    name = f"neighborly({i})"
    if len(next(islice(_walk(c), i, None), ())) == comb(len(verts), i):
        return Certificate(name, True)
    return Certificate(name, False, witness=next(
        t for t in combinations(verts, i) if not _holding(c, t)))


def is_r_stacked(b: Complex, r: int) -> Certificate:
    """Is every face of dimension at most dim-r-1 a boundary face of the ball b?

    It is decided two ways: b and its boundary have as many faces of each
    size up to dim-r, and, from the f-vector, h_i = 0 for i > r; the two
    must agree.  The boundary's faces are faces of b, so equal counts mean
    equal levels.  The witness, sought only on failure, is the least face
    of the first size whose counts differ that is not a boundary face.
    """
    if b.is_void or not b.is_pure:
        raise ValueError("stackedness requires a pure non-void complex")
    if r < 0:
        raise ValueError(f"stackedness parameter must be >= 0, got {r}")
    bd = boundary_complex(b)
    # a point's boundary is the empty complex too, but one facet is never closed
    if bd.is_empty and len(b.maximal_faces) > 1:
        raise ValueError("closed complex")
    dim = b.dimension
    # a non-empty boundary has faces of every size up to dim, and a point's has the empty face
    counts, bd_counts = f_vector(b), f_vector(bd)
    missing = next((size for size in range(dim - r + 1) if counts[size] != bd_counts[size]), None)
    by_skeleton = missing is None
    h = h_vector(counts, dim + 1)
    by_h = all(x == 0 for x in h[r + 1:])
    if by_skeleton != by_h:
        raise RuntimeError(
            f"stackedness checks disagree (skeleton {by_skeleton}, h-vector {by_h}, h={h})")
    witness = None if by_skeleton else next(
        t for t in combinations(b.vertices, missing) if _holding(b, t) and not _holding(bd, t))
    return Certificate(f"stacked({r})", by_skeleton, witness=witness)


def _step(pairs: Iterable[tuple[int, int]], placed: int) -> int | None:
    """One shelling step: the size of the restriction face R, or None when
    the step is bad.

    `pairs` holds each vertex v of the new facet F as its facet mask and the
    mask of the facets holding F - v (`faces._ridge_holders`); `placed` is
    the mask of the facets placed before F.  R is the set of vertices v such
    that F - v lies in a placed facet.  The part of F that meets placed
    facets is pure of codimension 1 exactly when each face of F in a placed
    facet misses a vertex of R, that is when R itself lies in no placed
    facet.  An empty R after the first step fails that test, as the empty
    face lies in every facet.
    """
    meet = -1  # the AND of R's masks
    size = 0
    for mask, holder in pairs:
        if holder & placed:
            meet &= mask
            size += 1
    return None if meet & placed else size


def is_shelling(c: Complex, order: Iterable[Face]) -> Certificate:
    """Check a proposed shelling order of the facets of a pure complex.

    Each step is tested by its restriction face (`_step`); the witness is
    the order when every step is good, else the index of the first bad one.
    """
    if c.is_void or not c.is_pure:
        raise ValueError("shellings are defined for pure non-void complexes")
    order = tuple(tuple(sorted(f)) for f in order)
    if sorted(order) != sorted(c.facets):
        raise ValueError("order is not a permutation of the facets")
    steps = dict(zip(c.facets, enumerate(_step_pairs(c))))
    placed = 0
    for idx, f in enumerate(order):
        j, pairs = steps[f]
        if _step(pairs, placed) is None:
            return Certificate("shellable", False, witness=idx)
        placed |= 1 << j
    return Certificate("shellable", True, witness=list(order))


def find_shelling(c: Complex, budget: int = 1_000_000) -> Certificate:
    """Search for a shelling order by depth-first extension, trying the
    facets in sorted order (`_shell`).

    Exceeding the node budget yields verdict None; exhausting the search
    space without success is a genuine refutation.
    """
    if c.is_void or not c.is_pure:
        raise ValueError("shellings are defined for pure non-void complexes")
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, got {budget}")
    facets = c.facets
    verdict, order = _shell(_step_pairs(c), (1 << len(facets)) - 1, budget)
    return Certificate("shellable", verdict,
                       witness=[facets[j] for j, _ in order] if verdict else None)


def _shell(steps: Sequence[Sequence[tuple[int, int]]], every: int,
           budget: int) -> tuple[bool | None, list[tuple[int, int]]]:
    """Search for a shelling of the facets in the mask `every`, given the
    `_step` pairs of each facet (`faces._step_pairs`), by depth-first
    extension; the verdict and, when it is True, the order as (facet index,
    size of its restriction face) pairs.

    The facets are tried in index order, so the first path of the search
    places, at each step, the first facet whose step is good.  Prefixes
    that use the same facet set succeed or fail together, so dead facet
    sets are memoized as bitmasks.  Each node of the search counts against
    the budget, and a successful search has one node per facet at least,
    with exactly that many only when its first path succeeds.  Exceeding
    the budget gives None, and exhausting the search False.  The search
    keeps its own stack, so its depth is not bounded by the interpreter's
    recursion limit.
    """
    count = every.bit_count()
    dead: set[int] = set()
    nodes = 0
    order: list[tuple[int, int]] = []

    def candidates(placed: int) -> Iterator[tuple[int, int]]:
        rest = every & ~placed
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            size = _step(steps[j], placed)
            if size is not None:
                yield j, size

    # the open nodes, one per facet of the order plus the root: the facets
    # placed and the candidates not yet tried
    stack: list[tuple[int, Iterator[tuple[int, int]]]] = []
    placed = 0
    while len(order) < count:
        if placed in dead:
            order.pop()
        else:
            nodes += 1
            if nodes > budget:
                return None, []
            stack.append((placed, candidates(placed)))
        while stack:
            placed, todo = stack[-1]
            step = next(todo, None)
            if step is not None:
                order.append(step)
                placed |= 1 << step[0]
                break
            dead.add(placed)
            stack.pop()
            if order:
                order.pop()
        else:
            return False, []
    return True, order


def k2_shelling(s: Antichain, t: Antichain) -> ShellingOrder:
    """Closed-form shelling of a two-pair relative ball, certified before return.

    Facets are grouped by leading pair and each group is emitted in reverse
    componentwise order, which for two pairs means descending second pair.
    """
    pf = s.to_pair_facets()
    pt = t.to_pair_facets()
    if pf.k != 2:
        raise ValueError(f"closed-form shelling applies to two pairs, got k={pf.k}")
    if not pf.elements:
        raise ValueError("antichain must be non-empty")
    rel = relative_ball_general(pf, pt)
    if rel.is_void:
        raise ValueError("relative ball has no facets")
    order = sorted(rel.facets, key=lambda x: (x[0], -x[2]))
    cert = is_shelling(rel, order)
    if cert.verdict is not True:
        raise RuntimeError(f"constructed order is not a shelling at step {cert.witness}")
    return tuple(order)


def sphere_sanity(c: Complex) -> Certificate:
    """Necessary conditions for a sphere: closed pseudomanifold, connected,
    and the mod-2 homology of a sphere of its dimension.

    Once every ridge lies in exactly two facets, a set of facets is a mod-2
    top cycle exactly when it holds both facets of each ridge or neither,
    that is when it is a union of facet-ridge components.  So the top Betti
    number counts the components, and more than one means disconnected.
    Whether c is a closed pseudomanifold is read off its ridge degrees, once
    per complex, and the ridge map is built only for the witness.
    """
    if c.is_void:
        raise ValueError("void complex")
    if not c.is_pure:
        raise ValueError("sanity checks require a pure complex")
    name = "sphere-homology"
    if c.is_empty:
        return Certificate(name, True)  # boundary of a point
    if _ridge_degrees(c) != {2}:
        r, ms = next((r, ms) for r, ms in ridge_facets(c).items() if len(ms) != 2)
        return Certificate(name, False, witness={"ridge": r, "facet_count": len(ms)})
    betti = z2_reduced_betti(c)
    if betti[-1] > 1:
        return Certificate(name, False, witness={"reason": "disconnected"})
    if betti != (0,) * (len(betti) - 1) + (1,):
        return Certificate(name, False, witness={"betti": betti})
    return Certificate(name, True)


def ball_sanity(c: Complex) -> Certificate:
    """Necessary conditions for a ball: pseudomanifold with non-empty boundary,
    connected, trivial mod-2 homology, and a boundary passing sphere_sanity.

    Whether a ridge lies in three or more facets is read off the ridge
    degrees, and the ridge map is built only for the witness.  Connectivity
    is the star of the empty face, searched as every face link is (a ball
    pinched at a vertex has the homology of a point), and whether c is
    closed is read off the boundary that is certified anyway.
    """
    if c.is_void:
        raise ValueError("void complex")
    if not c.is_pure:
        raise ValueError("sanity checks require a pure complex")
    name = "ball-homology"
    if c.is_empty:
        return Certificate(name, False, witness={"reason": "no facets of dimension >= 0"})
    if max(_ridge_degrees(c)) > 2:
        r, ms = next((r, ms) for r, ms in ridge_facets(c).items() if len(ms) > 2)
        return Certificate(name, False, witness={"ridge": r, "facet_count": len(ms)})
    boundary = boundary_complex(c)
    # a point's boundary is the empty complex too, but one facet is never closed
    if boundary.is_empty and len(c.maximal_faces) > 1:
        return Certificate(name, False, witness={"reason": "closed"})
    if not strongly_connected(c):
        return Certificate(name, False, witness={"reason": "disconnected"})
    betti = z2_reduced_betti(c)
    if any(betti):
        return Certificate(name, False, witness={"betti": betti})
    sub = sphere_sanity(boundary)
    if sub.verdict is not True:
        return Certificate(name, False, witness={"boundary": sub.as_dict()})
    return Certificate(name, True)


@dataclass(frozen=True)
class _Patch:
    """A ball b certified as a set of facets of a sphere delta (`_patch`)."""

    boundary: frozenset[Face]  # the facets of the boundary of b: its ridges in one facet of b
    shelled: bool  # b is a PL ball whose boundary is a PL sphere
    f_vector: FVector  # b's
    h_vector: HVector  # b's, from its f-vector
    interior: int  # the size of the smallest face of b that is not a boundary face

    def neighborly(self, i: int, vertex_count: int) -> bool:
        """`is_i_neighborly`'s verdict on b, for a vertex set of that size."""
        return (self.f_vector[i] if i < len(self.f_vector) else 0) == comb(vertex_count, i)

    def stacked(self, r: int) -> bool:
        """Do both sides of `is_r_stacked(b, r)` hold?"""
        d = len(self.f_vector) - 1
        return self.interior >= d - r and not any(self.h_vector[r + 1:])


def _patch(delta: Complex, bits: int) -> _Patch | None:
    """Certify the ball b of the facets in the bitmask `bits` of delta's
    sorted facets, on what delta keeps; None when delta is no closed
    pseudomanifold whose face links are strongly connected, or `bits` holds
    every facet of delta.  `bits` must hold some facet.  Callers then run
    the full checks, and they run them too for any verdict that is not True.

    - Every ridge of b is a ridge of delta, so it lies in at most two facets
      of b, and the boundary of b is the set of ridges F - v of b's facets
      F whose holder in delta (`faces._ridge_holders`), ANDed with `bits`,
      is F's own bit.
    - `_shell` runs with budget one node per facet, so it returns True only
      when its first path, the greedy shelling, shells b.  Its steps
      (`_step`) read delta's pairs (`faces._step_pairs`, built once per
      complex) and try only the facets in `bits`, so the facets placed lie
      in `bits`, and a ridge or a face lies in a placed facet of b exactly
      when it lies in a placed facet of delta.
    - One walk of b's faces (`faces._walk` within `bits`) carries each
      face's AND in delta.  Its levels count out the f-vector of b, and a
      face of b is a boundary face exactly when that AND has a bit outside
      `bits`, by the link condition (`construct.sew` gives the argument).

    b is shelled when that search succeeds, no step has R = F, and the sizes
    of the restriction faces count out the h-vector of b.  A shellable
    pseudomanifold is a PL ball or sphere, and a ball exactly when no step
    has R = F (Danaraj and Klee, "Shellings of spheres and polytopes",
    1974); its boundary is then a PL sphere, and b is contractible
    (Bjorner, "Topological methods", 1995).  So `ball_sanity(b)` and
    `sphere_sanity(boundary_complex(b))` pass when b is shelled.
    """
    if (delta.is_empty or not delta.is_pure
            or _ridge_degrees(delta) != {2} or not links_strongly_connected(delta)):
        return None
    facets = delta.facets
    outside = ((1 << len(facets)) - 1) & ~bits
    if not outside:
        return None
    holders = _ridge_holders(delta)
    boundary = frozenset(f[:i] + f[i + 1:] for j, f in enumerate(facets) if (own := 1 << j) & bits
                         for i, h in enumerate(holders[j]) if h & bits == own)
    counts: list[int] = []  # the f-vector
    interior = 0  # not yet found: the empty face is a boundary face, as b is proper
    for size, level in enumerate(_walk(delta, within=bits)):
        counts.append(len(level))
        if not interior and not all(map(outside.__and__, next(zip(*level)))):
            interior = size
    verdict, order = _shell(_step_pairs(delta), bits, bits.bit_count())
    sizes = [size for _, size in order]
    d = len(counts) - 1
    h = h_vector(tuple(counts), d)
    shelled = verdict is True and d not in sizes and tuple(map(sizes.count, range(d + 1))) == h
    return _Patch(boundary, shelled, tuple(counts), h, interior)
