"""Simplicial complexes stored by their maximal faces.

A face is a strictly increasing tuple of positive integer vertex labels;
the empty tuple is the empty face.  A complex is either *void* (no faces
at all) or non-void; the non-void complex whose only face is the empty
face is the *empty complex*.  The two are distinct values and every
operation here defines its behaviour on both.  All values are immutable
and all operations are pure functions.

What is derived from a complex's facets is computed at most once per
complex and kept in the complex's instance dict, by one rule: the
dimension, purity, vertices and sorted facets are cached properties of
`Complex`, and each function of one complex that keeps its result (each
vertex's bitmask of the sorted facets holding it, the f-vector, the ridge
incidence and degrees, the shelling steps' masks, the boundary, the Betti
numbers and whether every face link is strongly connected) is decorated
`_kept`.  A call that raises keeps nothing.  What is kept is a cache: it
takes no part in equality, hashing, repr or pickling, which read
`maximal_faces` only.  The same rule keeps what an antichain derives: its
order ideal and the ideal's split by leading label in `posets`, and its
decomposition pieces in `squeezed`.

One rule answers every face question: a set of vertices is a face exactly
when the AND of its vertices' facet masks is not zero, and that AND is
the bitmask of the facets holding it.  `in` and `link` read it off
directly.  The faces themselves are enumerated by one walk, one size at a
time, each size in lexicographic order: a face extends by each later
vertex that keeps the AND non-zero.  The f-vector counts the walk's
levels, `all_faces` lists them, `verify` reads neighborliness off the
length of one level, and stackedness off the f-vectors of a ball and of
its boundary.  The walk reads the masks of one complex only.  Given a mask
of facets, it keeps the faces whose AND meets it: the faces of the
subcomplex those facets generate, walked on the whole complex's masks.

`_ridge_holders` holds the mask of the facets holding each ridge F - v of
each facet F.  The ridge map, the ridge degrees (`_ridge_degrees`), which
decide whether the complex is a pseudomanifold and whether it is closed,
and the shelling steps of `verify` (`_step_pairs`) read it, and a flood
across it decides strong connectivity: over all facets for the complex,
over those holding each face for its link.

The mod-2 homology eliminates over the chain complex relative to the star
of the vertex in the most facets, whose cells are only the faces outside
that star, each level in order of first appearance over the sorted
facets.

One private rule, `_maximal`, decides which faces of a collection are
maximal.  It holds each face as the bitmask of its vertices, one bit per
vertex, and keeps, from the largest masks down, each mask that no kept
mask covers; `intersect` feeds the same rule the ANDs of the two facet
lists' masks.  Input from outside the program is checked where it enters:
`Complex(...)` rejects facets that are not increasing tuples or that contain
one another, `Complex.from_facets` canonicalises each face and keeps the
maximal ones, and `parse_complex` checks the facet file.  Everything built
here from canonical parts (links, joins, complements, intersections,
boundaries, cyclic boundaries, the balls of `squeezed`, the census balls
and sewn spheres of `construct`, and unpickled complexes) goes through the
private unchecked constructor `Complex._trusted`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce, wraps
from itertools import accumulate, chain, combinations, compress, count, filterfalse, islice, repeat
from math import comb
from operator import and_, or_
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

Face = tuple[int, ...]
FVector = tuple[int, ...]
HVector = tuple[int, ...]
_T = TypeVar("_T")
_O = TypeVar("_O")


def face(vertices: Iterable[int]) -> Face:
    """Canonical face: strictly increasing tuple of positive labels."""
    vs = tuple(sorted(vertices))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex in face: {vs}")
    if vs and vs[0] <= 0:
        raise ValueError(f"vertex labels must be positive: {vs}")
    return vs


def _vertex_bits(vertices: Iterable[int]) -> dict[int, int]:
    """Each of the given distinct vertices with its own bit, in the order given."""
    return dict(zip(vertices, map((1).__lshift__, count())))


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """The vertex masks of the collection that no other mask of it covers.

    Only a mask of more vertices can cover another, so the masks are taken
    largest first, and each is kept when no mask kept before it covers it;
    a repeat is covered by its first copy.
    """
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for k in kept:
            if m | k == k:
                break
        else:
            kept.append(m)
    return kept


def _maximal(faces: Iterable[Face]) -> frozenset[Face]:
    """The faces of the collection that no larger face of it contains.

    A collection of one size makes no containment test.  Otherwise each face
    is held as the mask of its vertices, one bit for each vertex of the
    collection, and the maximal masks are mapped back to their faces.
    """
    fs = set(faces)
    if len(set(map(len, fs))) <= 1:
        return frozenset(fs)
    bit = _vertex_bits(set(chain.from_iterable(fs))).__getitem__
    by_mask = {sum(map(bit, f)): f for f in fs}
    return frozenset(map(by_mask.__getitem__, _maximal_masks(by_mask)))


def _kept(compute: Callable[[_O], _T]) -> Callable[[_O], _T]:
    """Decorate a function of one value (a complex, or an antichain of
    `posets`) to keep its result in the value's instance dict, under the
    function's name, on first use.  A call that raises keeps nothing, so it
    raises again on the next call."""
    name = compute.__name__

    @wraps(compute)
    def kept(c: _O) -> _T:
        store = c.__dict__
        if name not in store:
            store[name] = compute(c)
        return store[name]
    return kept


@dataclass(frozen=True)
class Complex:
    """A simplicial complex; ``maximal_faces is None`` encodes the void complex."""

    maximal_faces: frozenset[Face] | None

    def __post_init__(self) -> None:
        if self.maximal_faces is None:
            return
        given = tuple(self.maximal_faces)
        for f in given:
            if face(f) != f:
                raise ValueError(f"face must be an increasing tuple: {f}")
        object.__setattr__(self, "maximal_faces", frozenset(given))
        if not self.maximal_faces:
            raise ValueError("a complex without facets is void: use Complex.void()")
        if len(_maximal(self.maximal_faces)) != len(self.maximal_faces):
            raise ValueError("maximal faces must not contain one another")

    @classmethod
    def _trusted(cls, facets: frozenset[Face] | None) -> "Complex":
        """Complex on facets that are canonical and pairwise incomparable by
        construction, taken without the checks of `__post_init__`."""
        c = object.__new__(cls)
        object.__setattr__(c, "maximal_faces", facets)
        return c

    @staticmethod
    def void() -> "Complex":
        return Complex._trusted(None)

    @staticmethod
    def empty() -> "Complex":
        return Complex._trusted(frozenset({()}))

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "Complex":
        """Complex generated by the given faces; an empty collection gives void."""
        fs = _maximal(map(face, facets))
        return cls._trusted(fs) if fs else cls.void()

    @property
    def is_void(self) -> bool:
        return self.maximal_faces is None

    @property
    def is_empty(self) -> bool:
        return self.maximal_faces == frozenset({()})

    @cached_property
    def dimension(self) -> int:
        if self.maximal_faces is None:
            raise ValueError("void complex has no dimension")
        return max(map(len, self.maximal_faces)) - 1

    @cached_property
    def is_pure(self) -> bool:
        return self.maximal_faces is None or len(set(map(len, self.maximal_faces))) == 1

    @cached_property
    def facets(self) -> tuple[Face, ...]:
        if self.maximal_faces is None:
            raise ValueError("void complex has no facets")
        return tuple(sorted(self.maximal_faces))

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        if self.maximal_faces is None:
            raise ValueError("void complex has no vertices")
        return tuple(sorted(set(chain.from_iterable(self.maximal_faces))))

    def __contains__(self, f: Iterable[int]) -> bool:
        return _holding(self, f) != 0

    def __repr__(self) -> str:
        if self.maximal_faces is None:
            return "Complex(VOID)"
        if self.is_empty:
            return "Complex(EMPTY)"
        return f"Complex({len(self.maximal_faces)} facets, dim {self.dimension})"

    def __reduce__(self):
        # pickles and copies carry the facets only, never what is kept in
        # the instance dict; the facets of an existing complex are canonical
        # already, so they are not checked again on unpickling
        return (Complex._trusted, (self.maximal_faces,))


@_kept
def vertex_masks(c: Complex) -> Mapping[int, int]:
    """Map each vertex to the bitmask of the facets holding it, bit j for the
    j-th facet in sorted order.

    The map is read-only and built once per complex.
    """
    if c.is_void:
        raise ValueError("void has no faces")
    masks: dict[int, int] = {}
    for bit, f in zip(map((1).__lshift__, range(len(c.facets))), c.facets):
        for v in f:
            masks[v] = masks.get(v, 0) | bit
    return MappingProxyType(masks)


def _holding(c: Complex, vertices: Iterable[int]) -> int:
    """Bitmask of the sorted facets of c holding every given vertex: the AND
    of their masks, not zero exactly for a face.  -1, every bit set, for
    the empty face, which lies in every facet; 0 in the void complex."""
    if c.maximal_faces is None:
        return 0
    masks = vertex_masks(c)
    meet = -1
    for v in vertices:
        meet &= masks.get(v, 0)
    return meet


def _walk(c: Complex, within: int = -1) -> Iterator[list[tuple[int, int]]]:
    """The faces of c one size at a time, from the empty face up to the
    facets of the largest size, each level in lexicographic order.

    A face is held as (the AND of its vertices' masks, the index in c's
    sorted vertices of the first vertex that may follow it).  A face extends
    by each later vertex that keeps the AND non-zero inside the facet mask
    `within`, so no level holds a vertex set that is not a face of the
    subcomplex of c generated by the facets in `within`; every facet by
    default.
    """
    verts = c.vertices
    own = list(map(vertex_masks(c).__getitem__, verts))
    # later[j]: each vertex from the j-th on, as its mask and the index after
    # it; lists, because tuples of every length would fill the interpreter's
    # per-length free lists and raise a census's peak memory
    later = [list(zip(own[j:], range(j + 1, len(verts) + 1))) for j in range(len(verts) + 1)]
    level = [(-1, 0)]
    while level:
        yield level
        level = [(meet, after) for mask, start in level
                 for mask1, after in later[start] if (meet := mask & mask1) & within]


def all_faces(c: Complex, k: int) -> frozenset[Face]:
    """Every face of dimension at most k (the k-skeleton as a face set).

    The faces are found as `_walk` finds them, each carrying its vertices,
    which the walk leaves out to stay fast.
    """
    if c.is_void:
        raise ValueError("void has no faces")
    if k < -1:
        raise ValueError(f"skeleton dimension must be >= -1, got {k}")
    verts = c.vertices
    own = list(map(vertex_masks(c).__getitem__, verts))
    level: list[tuple[Face, int, int]] = [((), -1, 0)]
    faces = [()]
    for _ in range(min(k, c.dimension) + 1):
        level = [(t + (verts[j],), meet, j + 1) for t, mask, start in level
                 for j in range(start, len(verts)) if (meet := mask & own[j])]
        faces += (t for t, _, _ in level)
    return frozenset(faces)


def link(c: Complex, t: Iterable[int]) -> Complex:
    """Link of the face t: all faces disjoint from t whose union with t is in c."""
    t = face(t)
    holding = _holding(c, t)
    if not holding:
        raise ValueError("not a face")
    st = set(t)
    # M - t over maximal M containing t: increasing, and pairwise incomparable
    # because M - t lies in M' - t only if M lies in M'
    return Complex._trusted(frozenset(
        tuple(v for v in m if v not in st)
        for j, m in enumerate(c.facets) if holding >> j & 1))


def join(a: Complex, b: Complex) -> Complex:
    """Join of two complexes on disjoint vertex sets."""
    if a.is_void or b.is_void:
        return Complex.void()
    va, vb = set(a.vertices), set(b.vertices)
    if va & vb:
        raise ValueError(f"join requires disjoint vertex sets, shared: {sorted(va & vb)}")
    # on disjoint vertex sets, fa | fb lies in fa' | fb' only if fa lies in fa' and fb in fb'
    return Complex._trusted(frozenset(
        tuple(sorted(fa + fb)) for fa in a.maximal_faces for fb in b.maximal_faces))


def complement(a: Complex, g: Complex) -> Complex:
    """Subcomplex of a generated by the facets of a that are not facets of g.

    g must be a full-dimensional pure subcomplex of a (the void complex is
    allowed and removes nothing).  The result is void when every facet is
    removed.
    """
    if g.is_void:
        return a
    if a.is_void:
        raise ValueError("g not full-dimensional subcomplex")
    if not (a.is_pure and g.is_pure and a.dimension == g.dimension):
        raise ValueError("g not full-dimensional subcomplex")
    if not g.maximal_faces <= a.maximal_faces:
        raise ValueError("g not full-dimensional subcomplex")
    remaining = a.maximal_faces - g.maximal_faces
    # a subset of the facets of a
    return Complex._trusted(remaining) if remaining else Complex.void()


def intersect(a: Complex, b: Complex) -> Complex:
    """Intersection of two complexes as face sets, by maximal faces.

    Every common face lies in some meet of a facet of a with a facet of b,
    so the maximal common faces are the maximal pairwise meets.  Each facet
    is held as the mask of its vertices among those of a, bit i for the i-th
    in increasing order, so a meet is the AND of two masks, and the maximal
    meets are kept by the rule of `_maximal`.
    """
    if a.is_void or b.is_void:
        return Complex.void()
    verts = a.vertices
    bit = _vertex_bits(verts)
    own = [sum(map(bit.__getitem__, f)) for f in a.maximal_faces]
    other = [sum(map(bit.get, f, repeat(0))) for f in b.maximal_faces]
    kept = _maximal_masks({x & y for x in own for y in other})
    bits = list(bit.values())
    return Complex._trusted(frozenset(tuple(compress(verts, map(m.__and__, bits))) for m in kept))


@_kept
def f_vector(c: Complex) -> FVector:
    """Face counts (f_{-1}, f_0, ..., f_{d-1}); f_{-1} = 1 always."""
    if c.is_void:
        raise ValueError("void has no faces")
    return tuple(map(len, _walk(c)))


def h_vector(f: FVector, d: int) -> HVector:
    """h-vector of a (d-1)-dimensional complex from its f-vector.

    Defined by sum_j h_j t^(d-j) = sum_i f_{i-1} (t-1)^(d-i); requires f to
    carry entries f_{-1} .. f_{d-1}.
    """
    if len(f) != d + 1:
        raise ValueError(f"length mismatch: need {d + 1} entries f_-1..f_{d - 1}, got {len(f)}")
    return tuple(
        sum((-1) ** (j - i) * comb(d - i, j - i) * f[i] for i in range(j + 1))
        for j in range(d + 1))


@_kept
def _ridge_holders(c: Complex) -> tuple[tuple[int, ...], ...]:
    """For each facet F in sorted order and each vertex v of F in order, the
    bitmask of the facets holding the ridge F - v: the AND of the masks of
    the vertices before v and after it.  Built once per complex."""
    if c.is_void:
        raise ValueError("void has no faces")
    if not c.is_pure:
        raise ValueError("ridge counting requires a pure complex")
    if c.dimension < 0:
        raise ValueError("no ridges in the empty complex")
    masks = vertex_masks(c)
    # not -1: in dimension 0 the ridge () lies in every facet and no other
    every = (1 << len(c.facets)) - 1
    table = []
    for f in c.facets:
        own = list(map(masks.__getitem__, f))
        after = list(accumulate(reversed(own), and_, initial=every))[-2::-1]  # after the i-th
        table.append(tuple(map(and_, accumulate(own, and_, initial=every), after)))
    return tuple(table)


@_kept
def _ridge_degrees(c: Complex) -> frozenset[int]:
    """The numbers of facets holding a ridge, over the ridges of the pure
    complex c, read off the ridge holders once per complex: c is a
    pseudomanifold when none is above 2, and closed when they are {2}.
    Raises as `_ridge_holders` does."""
    return frozenset(h.bit_count() for held in _ridge_holders(c) for h in held)


@_kept
def _step_pairs(c: Complex) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each facet F in sorted order, each vertex v of F in order as its
    mask (`vertex_masks`) and the mask of the facets holding F - v
    (`_ridge_holders`): what a shelling step of `verify` reads.  Built once
    per complex; raises as `_ridge_holders` does, but the one facet of the
    empty complex has no vertices, and so no pairs."""
    masks = vertex_masks(c)
    holders = _ridge_holders(c) if c.dimension >= 0 else [()]
    return tuple(tuple(zip(map(masks.__getitem__, f), held))
                 for f, held in zip(c.facets, holders))


@_kept
def ridge_facets(c: Complex) -> Mapping[Face, tuple[Face, ...]]:
    """Map each ridge (codimension-1 face) to the facets containing it.

    Ridges appear in the order their first facet comes in sorted facet order,
    leaving out its vertices last to first as `combinations` does, and each
    ridge's facets in sorted order.  The map is read-only and built once per
    complex; raises as `_ridge_holders` does.
    """
    holders = _ridge_holders(c)
    facets = c.facets
    return MappingProxyType({
        f[:i] + f[i + 1:]: tuple(facets[k] for k in range(j, h.bit_length()) if h >> k & 1)
        for j, (f, held) in enumerate(zip(facets, holders))
        for i in range(len(f) - 1, -1, -1) if (h := held[i]) & -h == 1 << j})


@_kept
def boundary_complex(b: Complex) -> Complex:
    """Boundary of a pure complex by the ridge rule.

    A ridge is a boundary face iff it lies in exactly one facet; the result
    is generated by the boundary ridges.  Returns the empty complex when
    there are none (a closed pseudomanifold) and raises when a ridge lies
    in three or more facets.
    """
    if max(_ridge_degrees(b)) > 2:
        raise ValueError("not a pseudomanifold")
    holders = _ridge_holders(b)
    bd = frozenset(f[:i] + f[i + 1:] for j, (f, held) in enumerate(zip(b.facets, holders))
                   for i, h in enumerate(held) if h == 1 << j)
    return Complex._trusted(bd) if bd else Complex.empty()


def strongly_connected(c: Complex) -> bool:
    """Are the facets of the pure complex c one class under sharing a ridge?
    Void has no facets; otherwise raises as `ridge_facets` does."""
    every = (1 << len(c.facets)) - 1
    return _connected(_ridge_holders(c), every)


@_kept
def links_strongly_connected(c: Complex) -> bool:
    """Is the link of every face of the pure complex c strongly connected?

    The facets of the link of a face t are the facets of c that hold t, less
    t, and two of them share a ridge of the link exactly when their facets
    share a ridge of c, which then holds t.  So each face's link is flooded
    over the facets holding it, as the walk gives them, below the ridges:
    the links of ridges and facets are sets of points or the empty complex,
    which are strongly connected.  Raises as `ridge_facets` does.
    """
    holders = _ridge_holders(c)
    every = (1 << len(holders)) - 1  # the walk gives the empty face -1
    return all(_connected(holders, meet & every)
               for level in islice(_walk(c), c.dimension) for meet, _ in level)


def _connected(holders: Sequence[Sequence[int]], within: int) -> bool:
    """Do the facets in the non-zero mask `within` form one class under
    sharing a ridge?  A flood from the lowest, across the ridge holders."""
    seen = todo = within & -within
    while todo:
        low = todo & -todo
        new = reduce(or_, holders[low.bit_length() - 1]) & within & ~seen
        seen |= new
        todo ^= low | new
    return seen == within


def _gf2_pivots(columns: Iterable[int]) -> set[int]:
    """Pivot rows of a GF(2) matrix given as column bitmasks, reduced by
    highest set bit; there is one pivot per unit of rank."""
    basis: dict[int, int] = {}
    for v in columns:
        while v:
            h = v.bit_length() - 1
            b = basis.get(h)
            if b is None:
                basis[h] = v
                break
            v ^= b
    return set(basis)


@_kept
def z2_reduced_betti(c: Complex) -> tuple[int, ...]:
    """Reduced mod-2 Betti numbers in dimensions -1 .. dim(c).

    The star of a vertex v is a cone, so its reduced chain complex is
    acyclic and the long exact sequence of the pair (c, star v) gives
    H~_i(c) = H_i(c, star v) (the first coreduction of Mrozek and Batko,
    "Coreduction homology algorithm", 2009).  The cells of the relative
    chain complex are the faces outside the star: the faces of the facets
    that miss v, less the faces of the links F - {v} of the facets F that
    hold v.  v is the vertex in the most facets, ties to the smallest label,
    which leaves the fewest cells; the empty face lies in every star.

    The ranks of the relative boundary matrices are found from the top
    dimension down with clearing (Chen and Kerber, "Persistent homology
    computation with a twist", 2011): a cell that is the pivot row of a
    reduced column one dimension up has a boundary in the span of the
    boundaries of cells before it, so its column is skipped without changing
    the rank.
    """
    if c.is_void:
        raise ValueError("void has no faces")
    dim = c.dimension
    if dim < 0:
        return (1,)  # the empty complex: the empty face is a cycle
    facets = c.facets
    masks = vertex_masks(c)
    v = min(c.vertices, key=lambda u: -masks[u].bit_count())
    outside = [f for f in facets if v not in f]
    links = [tuple(filter(v.__ne__, f)) for f in facets if v in f]
    # cells[s] = faces of size s outside the star; any fixed order is
    # correct, and first-seen order over the sorted facets keeps the
    # reductions short
    cells: list[dict[Face, None]] = [{}]
    for s in range(1, dim + 2):
        star = set(chain.from_iterable(map(combinations, links, repeat(s))))
        cells.append(dict.fromkeys(filterfalse(
            star.__contains__, chain.from_iterable(map(combinations, outside, repeat(s))))))
    # ranks[s] = rank of the boundary map from cells of size s to size s-1
    ranks = [0] * (dim + 3)
    cleared: set[int] = set()  # indices into cells[s] of columns to skip
    for s in range(dim + 1, 1, -1):
        rows = cells[s - 1]
        bit = dict(zip(rows, map((1).__lshift__, range(len(rows))))).get
        # the subfaces are distinct, so their sum is the column's bitmask;
        # a subface in the star is zero in the relative complex
        columns = (sum(map(bit, combinations(f, s - 1), repeat(0)))
                   for j, f in enumerate(cells[s]) if j not in cleared)
        cleared = _gf2_pivots(columns)
        ranks[s] = len(cleared)
    return tuple(len(cells[s]) - ranks[s] - ranks[s + 1] for s in range(dim + 2))


_HEADER = re.compile(r"^complex d=(\d+) n=(\d+)$")


def format_complex(c: Complex) -> str:
    """Facet-list text format; the inverse of parse_complex."""
    if c.is_void:
        return "VOID\n"
    if c.is_empty:
        return "EMPTY\n"
    if not c.is_pure:
        raise ValueError("facet-list format requires a pure complex")
    d = c.dimension + 1
    n = c.vertices[-1]
    lines = [f"complex d={d} n={n}"]
    lines.extend(" ".join(map(str, f)) for f in c.facets)
    return "\n".join(lines) + "\n"


def parse_complex(text: str) -> Complex:
    """Parse the facet-list text format."""
    lines = text.splitlines()
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise ValueError("empty facet file")
    if lines[0] == "VOID":
        return Complex.void()
    if lines[0] == "EMPTY":
        return Complex.empty()
    m = _HEADER.match(lines[0])
    if m is None:
        raise ValueError(f"bad header line: {lines[0]!r}")
    d, n = int(m.group(1)), int(m.group(2))
    if d < 1:
        # format_complex writes the empty complex as EMPTY, never as d=0
        raise ValueError(f"facets need at least one vertex, got d={d}")
    facets = []
    for ln in lines[1:]:
        f = face(int(tok) for tok in ln.split())
        if len(f) != d:
            raise ValueError(f"facet {f} does not have {d} vertices")
        if f[-1] > n:
            raise ValueError(f"facet {f} exceeds declared n={n}")
        facets.append(f)
    if not facets:
        raise ValueError("header present but no facets")
    return Complex(frozenset(facets))
