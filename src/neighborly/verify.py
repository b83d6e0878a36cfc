"""Checkable certificates: neighborliness, stackedness, shellings, sanity.

Every check returns a Certificate carrying the property name, a verdict,
and a witness.  Verdicts are True/False for decided properties; the
shelling search may also return None when it runs out of budget, which is
inconclusive rather than a refutation.  Stackedness is decided two ways at
once (skeleton comparison and vanishing of the tail of the h-vector) and a
disagreement raises instead of picking a side.
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
    _walk,
    boundary_complex,
    h_vector,
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

    One walk over the faces of b, with the boundary as the second complex,
    decides it two ways: the levels up to size dim-r hold no face whose AND
    of boundary masks is zero, and, from the level sizes, h_i = 0 for
    i > r; the two must agree.  The witness, sought only on failure, is
    the least face of the smallest size that is not a boundary face.
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
    f: list[int] = []
    missing = None  # the smallest size of a face of b that is not a face of bd
    for size, level in enumerate(_walk(b, bd)):
        f.append(len(level))
        if missing is None and size <= dim - r and not all(rest for _, rest, _ in level):
            missing = size
    by_skeleton = missing is None
    h = h_vector(tuple(f), dim + 1)
    by_h = all(x == 0 for x in h[r + 1:])
    if by_skeleton != by_h:
        raise RuntimeError(
            f"stackedness checks disagree (skeleton {by_skeleton}, h-vector {by_h}, h={h})")
    witness = None if by_skeleton else next(
        t for t in combinations(b.vertices, missing) if _holding(b, t) and not _holding(bd, t))
    return Certificate(f"stacked({r})", by_skeleton, witness=witness)


def _step_ok(new: Face, earlier: list[Face]) -> bool:
    """Shelling step: the part of `new` meeting earlier facets is pure of codim 1,
    i.e. every meet lies in a codimension-1 meet: every gap `new - f` holds
    the missing vertex of some one-vertex gap."""
    snew = set(new)
    gaps = [snew - set(f) for f in earlier]
    ridge_vertices = {v for gap in gaps if len(gap) == 1 for v in gap}
    return all(gap & ridge_vertices for gap in gaps)


def is_shelling(c: Complex, order: Iterable[Face]) -> Certificate:
    """Check a proposed shelling order of the facets of a pure complex."""
    if c.is_void or not c.is_pure:
        raise ValueError("shellings are defined for pure non-void complexes")
    order = tuple(tuple(sorted(f)) for f in order)
    if sorted(order) != sorted(c.facets):
        raise ValueError("order is not a permutation of the facets")
    for idx in range(1, len(order)):
        if not _step_ok(order[idx], list(order[:idx])):
            return Certificate("shellable", False, witness=idx)
    return Certificate("shellable", True, witness=list(order))


def find_shelling(c: Complex, budget: int = 1_000_000) -> Certificate:
    """Search for a shelling order by depth-first extension.

    Prefixes that use the same facet set succeed or fail together, so dead
    facet sets are memoized.  Exceeding the node budget yields verdict None;
    exhausting the search space without success is a genuine refutation.
    The search keeps its own stack, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    if c.is_void or not c.is_pure:
        raise ValueError("shellings are defined for pure non-void complexes")
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, got {budget}")
    facets = sorted(c.facets)
    total = len(facets)
    dead: set[frozenset[Face]] = set()
    nodes = 0
    prefix: list[Face] = []

    def candidates(used: frozenset[Face]) -> Iterator[Face]:
        # drawn lazily: `prefix` holds the prefix of the node whose candidates
        # are drawn whenever one is drawn
        return (f for f in facets if f not in used and (not prefix or _step_ok(f, prefix)))

    # the open nodes, one per facet of the prefix plus the root: the facets
    # used and the candidates not yet tried
    stack: list[tuple[frozenset[Face], Iterator[Face]]] = []
    used: frozenset[Face] = frozenset()
    while len(prefix) < total:
        if used in dead:
            prefix.pop()
        else:
            nodes += 1
            if nodes > budget:
                return Certificate("shellable", None, witness=None)
            stack.append((used, candidates(used)))
        while stack:
            used, todo = stack[-1]
            f = next(todo, None)
            if f is not None:
                prefix.append(f)
                used |= {f}
                break
            dead.add(used)
            stack.pop()
            if prefix:
                prefix.pop()
        else:
            return Certificate("shellable", False, witness=None)
    return Certificate("shellable", True, witness=list(prefix))


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
