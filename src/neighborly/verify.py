"""Checkable certificates: neighborliness, stackedness, shellings, sanity.

Every check returns a Certificate carrying the property name, a verdict,
and a witness.  Verdicts are True/False for decided properties; the
shelling search may also return None when it runs out of budget, which is
inconclusive rather than a refutation.  Stackedness is decided two ways at
once (skeleton comparison and vanishing of the tail of the h-vector) and a
disagreement raises instead of picking a side.

A shelling step is tested by its restriction face on the facet and ridge
masks of `faces`, in O(d) operations.  The census certifies each ball, and its
boundary as a sphere, by one shelling (`_shelled_ball`) rather than by the
homology of `ball_sanity` and `sphere_sanity`, which stay the full checks
for outside input and run whenever the shelling certificate fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Any, Iterable, Iterator

from .faces import (
    Complex,
    Face,
    _holding,
    _ridge_holders,
    _walk,
    boundary_complex,
    f_vector,
    h_vector,
    ridge_facets,
    strongly_connected,
    vertex_masks,
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

    It is decided two ways: a walk over the faces of b up to size dim-r,
    with the boundary as the second complex, finds no face whose AND of
    boundary masks is zero, and, from the f-vector, h_i = 0 for i > r; the
    two must agree.  The witness, sought only on failure, is the least face
    of the smallest size that is not a boundary face.
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
    missing = next((size for size, level in enumerate(islice(_walk(b, bd), max(dim - r + 1, 0)))
                    if not all(rest for _, rest, _ in level)), None)
    by_skeleton = missing is None
    h = h_vector(f_vector(b), dim + 1)
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


def _step_pairs(c: Complex) -> list[list[tuple[int, int]]]:
    """The `_step` pairs of each facet of c in sorted order."""
    masks = vertex_masks(c)
    # the one facet of the empty complex has no vertices, and so no ridges
    holders = _ridge_holders(c) if c.dimension >= 0 else [()]
    return [list(zip(map(masks.__getitem__, f), held)) for f, held in zip(c.facets, holders)]


def _restriction_sizes(c: Complex, order: Iterable[Face]) -> Iterator[int | None]:
    """`_step` of each facet of the order after the facets before it."""
    steps = dict(zip(c.facets, enumerate(_step_pairs(c))))
    placed = 0
    for f in order:
        j, pairs = steps[f]
        yield _step(pairs, placed)
        placed |= 1 << j


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
    for idx, size in enumerate(_restriction_sizes(c, order)):
        if size is None:
            return Certificate("shellable", False, witness=idx)
    return Certificate("shellable", True, witness=list(order))


def find_shelling(c: Complex, budget: int = 1_000_000) -> Certificate:
    """Search for a shelling order by depth-first extension.

    The facets are tried in sorted order, so the first path of the search
    places, at each step, the first facet whose step is good; each step is
    tested on facet bitmasks by `_step`.  Prefixes that use the same facet
    set succeed or fail together, so dead facet sets are memoized as
    bitmasks.  Each node of the search counts against the budget, and a
    successful search has one node per facet at least, with exactly that
    many only when its first path succeeds.  Exceeding the node budget
    yields verdict None; exhausting the search space without success is a
    genuine refutation.  The search keeps its own stack, so its depth is
    not bounded by the interpreter's recursion limit.
    """
    if c.is_void or not c.is_pure:
        raise ValueError("shellings are defined for pure non-void complexes")
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, got {budget}")
    facets = c.facets
    steps = _step_pairs(c)
    every = (1 << len(facets)) - 1
    dead: set[int] = set()
    nodes = 0
    order: list[int] = []

    def candidates(placed: int) -> Iterator[int]:
        rest = every & ~placed
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            if _step(steps[j], placed) is not None:
                yield j

    # the open nodes, one per facet of the order plus the root: the facets
    # placed and the candidates not yet tried
    stack: list[tuple[int, Iterator[int]]] = []
    placed = 0
    while len(order) < len(facets):
        if placed in dead:
            order.pop()
        else:
            nodes += 1
            if nodes > budget:
                return Certificate("shellable", None, witness=None)
            stack.append((placed, candidates(placed)))
        while stack:
            placed, todo = stack[-1]
            j = next(todo, None)
            if j is not None:
                order.append(j)
                placed |= 1 << j
                break
            dead.add(placed)
            stack.pop()
            if order:
                order.pop()
        else:
            return Certificate("shellable", False, witness=None)
    return Certificate("shellable", True, witness=[facets[j] for j in order])


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
    """
    if c.is_void:
        raise ValueError("void complex")
    if not c.is_pure:
        raise ValueError("sanity checks require a pure complex")
    name = "sphere-homology"
    if c.is_empty:
        return Certificate(name, True)  # boundary of a point
    for r, ms in ridge_facets(c).items():
        if len(ms) != 2:
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

    Connectivity is the star of the empty face, searched as every face link
    is (a ball pinched at a vertex has the homology of a point), and whether
    c is closed is read off the boundary that is certified anyway.
    """
    if c.is_void:
        raise ValueError("void complex")
    if not c.is_pure:
        raise ValueError("sanity checks require a pure complex")
    name = "ball-homology"
    if c.is_empty:
        return Certificate(name, False, witness={"reason": "no facets of dimension >= 0"})
    for r, ms in ridge_facets(c).items():
        if len(ms) > 2:
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


def _shelled_ball(b: Complex) -> bool:
    """Is b certified by a shelling to be a PL ball whose boundary is a PL sphere?

    True when every ridge of b lies in at most two facets, the first path
    of `find_shelling` shells b (the budget is one node per facet), no step
    has R = F, and the sizes of the restriction faces count out b's
    h-vector, read from its f-vector.  A shellable pseudomanifold is a PL
    ball or sphere, and a ball exactly when no step has R = F (Danaraj and
    Klee, "Shellings of spheres and polytopes", 1974); its boundary is then
    a PL sphere, and b is contractible (Bjorner, "Topological methods",
    1995).  So True implies that `ball_sanity(b)` and
    `sphere_sanity(boundary_complex(b))` pass.  False decides nothing:
    callers run the full checks then.
    """
    if (b.is_void or b.is_empty or not b.is_pure
            or any(h.bit_count() > 2 for held in _ridge_holders(b) for h in held)):
        return False
    found = find_shelling(b, len(b.facets))
    if found.verdict is not True:
        return False
    d = b.dimension + 1
    sizes = list(_restriction_sizes(b, found.witness))
    return d not in sizes and tuple(map(sizes.count, range(d + 1))) == h_vector(f_vector(b), d)
