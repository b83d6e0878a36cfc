"""Simplicial complexes stored by their maximal faces.

A face is a strictly increasing tuple of positive integer vertex labels;
the empty tuple is the empty face.  A complex is either *void* (no faces
at all) or non-void; the non-void complex whose only face is the empty
face is the *empty complex*.  The two are distinct values and every
operation here defines its behaviour on both.  All values are immutable
and all operations are pure functions.

What is derived from a complex's facets (the facets in sorted order, its
faces by size, the ridge incidence, the boundary, the Betti numbers, and the
sphere and ball sanity certificates of `verify`) is computed at most once per
complex and kept in a private record attached to it.  Each face level holds
its faces in order of first appearance over the sorted facets, and the
homology reads them in that order.  The record is a cache: it takes no part
in equality, hashing, repr or pickling.

`Complex(...)`, `Complex.from_facets` and `parse_complex` check their input.
Facet sets that are canonical and pairwise incomparable by construction (one
facet size, built from canonical tuples) go through the private unchecked
constructor `Complex._trusted` instead, and so do unpickled complexes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, repeat
from math import comb
from types import MappingProxyType
from typing import Any, Iterable, KeysView, Mapping

Face = tuple[int, ...]
FVector = tuple[int, ...]
HVector = tuple[int, ...]


def face(vertices: Iterable[int]) -> Face:
    """Canonical face: strictly increasing tuple of positive labels."""
    vs = tuple(sorted(vertices))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex in face: {vs}")
    if vs and vs[0] <= 0:
        raise ValueError(f"vertex labels must be positive: {vs}")
    return vs


class _Derived:
    """What is computed from the facets of one complex, each part on first use."""

    __slots__ = ("facets", "faces", "ridges", "boundary", "betti", "sphere", "ball")

    def __init__(self) -> None:
        self.facets: tuple[Face, ...] | None = None  # sorted
        # size -> faces of that size, in order of first appearance
        self.faces: dict[int, dict[Face, None]] = {}
        self.ridges: dict[Face, tuple[Face, ...]] | None = None
        self.boundary: Complex | None = None
        self.betti: tuple[int, ...] | None = None
        self.sphere: Any = None  # the verify.sphere_sanity certificate
        self.ball: Any = None  # the verify.ball_sanity certificate


@dataclass(frozen=True)
class Complex:
    """A simplicial complex; ``maximal_faces is None`` encodes the void complex."""

    maximal_faces: frozenset[Face] | None

    def __post_init__(self) -> None:
        if self.maximal_faces is None:
            return
        for f in self.maximal_faces:
            if face(f) != f:
                raise ValueError(f"face must be an increasing tuple: {f}")
        # containment can only happen across different facet sizes
        by_len: dict[int, list[set[int]]] = {}
        for f in self.maximal_faces:
            by_len.setdefault(len(f), []).append(set(f))
        sizes = sorted(by_len)
        for i, small in enumerate(sizes):
            for big in sizes[i + 1:]:
                for sf in by_len[small]:
                    if any(sf <= bf for bf in by_len[big]):
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
        return Complex(None)

    @staticmethod
    def empty() -> "Complex":
        return Complex(frozenset({()}))

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "Complex":
        """Complex generated by the given faces; an empty collection gives void."""
        fs = {face(f) for f in facets}
        if not fs:
            return cls.void()
        keep: list[Face] = []
        kept_sets: list[set[int]] = []
        for f in sorted(fs, key=lambda t: (-len(t), t)):
            sf = set(f)
            if not any(len(ks) > len(sf) and sf <= ks for ks in kept_sets):
                keep.append(f)
                kept_sets.append(sf)
        return cls(frozenset(keep))

    @property
    def is_void(self) -> bool:
        return self.maximal_faces is None

    @property
    def is_empty(self) -> bool:
        return self.maximal_faces == frozenset({()})

    @property
    def dimension(self) -> int:
        if self.maximal_faces is None:
            raise ValueError("void complex has no dimension")
        return max(len(f) for f in self.maximal_faces) - 1

    @property
    def is_pure(self) -> bool:
        if self.maximal_faces is None:
            return True
        return len({len(f) for f in self.maximal_faces}) == 1

    @property
    def facets(self) -> tuple[Face, ...]:
        if self.maximal_faces is None:
            raise ValueError("void complex has no facets")
        record = self._derived
        if record.facets is None:
            record.facets = tuple(sorted(self.maximal_faces))
        return record.facets

    @property
    def vertices(self) -> tuple[int, ...]:
        if self.maximal_faces is None:
            raise ValueError("void complex has no vertices")
        return tuple(sorted({v for f in self.maximal_faces for v in f}))

    def __contains__(self, f: Iterable[int]) -> bool:
        if self.maximal_faces is None:
            return False
        sf = set(f)
        return any(sf.issubset(m) for m in self.maximal_faces)

    def __repr__(self) -> str:
        if self.maximal_faces is None:
            return "Complex(VOID)"
        if self.is_empty:
            return "Complex(EMPTY)"
        return f"Complex({len(self.maximal_faces)} facets, dim {self.dimension})"

    def __reduce__(self):
        # pickles carry the facets only, never the derived record; the facets
        # of an existing complex are canonical already, so they are not
        # checked again on unpickling
        return (Complex._trusted, (self.maximal_faces,))

    @cached_property
    def _derived(self) -> _Derived:
        return _Derived()


def faces_of_size(c: Complex, size: int) -> KeysView[Face]:
    """Every face with exactly `size` vertices; empty above the top dimension.

    A read-only set view, in order of first appearance over the sorted facets.
    """
    if c.is_void:
        raise ValueError("void has no faces")
    if size < 0:
        raise ValueError(f"face size must be >= 0, got {size}")
    levels = c._derived.faces
    level = levels.get(size)
    if level is None:
        level = levels[size] = dict.fromkeys(
            chain.from_iterable(map(combinations, c.facets, repeat(size))))
    return level.keys()


def all_faces(c: Complex, k: int) -> frozenset[Face]:
    """Every face of dimension at most k (the k-skeleton as a face set)."""
    if c.is_void:
        raise ValueError("void has no faces")
    if k < -1:
        raise ValueError(f"skeleton dimension must be >= -1, got {k}")
    top = min(k, c.dimension) + 1
    return frozenset().union(*(faces_of_size(c, size) for size in range(top + 1)))


def link(c: Complex, t: Iterable[int]) -> Complex:
    """Link of the face t: all faces disjoint from t whose union with t is in c."""
    t = face(t)
    if t not in c:
        raise ValueError("not a face")
    st = set(t)
    # maximal faces of the link are exactly M \ t over maximal M containing t
    return Complex(frozenset(
        tuple(v for v in m if v not in st)
        for m in c.maximal_faces if st.issubset(m)))


def antistar(c: Complex, t: Iterable[int]) -> Complex:
    """All faces of c not containing t, presented by maximal faces."""
    if c.is_void:
        raise ValueError("void has no faces")
    t = face(t)
    st = set(t)
    if not st:
        return Complex.void()  # every face contains the empty face
    candidates: set[Face] = set()
    for m in c.maximal_faces:
        if st.issubset(m):
            # maximal subsets of m avoiding t drop one element of t each
            for v in t:
                candidates.add(tuple(w for w in m if w != v))
        else:
            candidates.add(m)
    return Complex.from_facets(candidates)


def join(a: Complex, b: Complex) -> Complex:
    """Join of two complexes on disjoint vertex sets."""
    if a.is_void or b.is_void:
        return Complex.void()
    va, vb = set(a.vertices), set(b.vertices)
    if va & vb:
        raise ValueError(f"join requires disjoint vertex sets, shared: {sorted(va & vb)}")
    return Complex(frozenset(
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
    if not remaining:
        return Complex.void()
    return Complex(remaining)


def intersect(a: Complex, b: Complex) -> Complex:
    """Intersection of two complexes as face sets, by maximal faces.

    Every common face lies in some meet of a facet of a with a facet of b,
    so the maximal common faces are the maximal pairwise meets.
    """
    if a.is_void or b.is_void:
        return Complex.void()
    return Complex.from_facets(
        set(fa).intersection(fb) for fa in a.maximal_faces for fb in b.maximal_faces)


def f_vector(c: Complex) -> FVector:
    """Face counts (f_{-1}, f_0, ..., f_{d-1}); f_{-1} = 1 always."""
    if c.is_void:
        raise ValueError("void has no faces")
    return tuple(len(faces_of_size(c, size)) for size in range(c.dimension + 2))


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


def ridge_facets(c: Complex) -> Mapping[Face, tuple[Face, ...]]:
    """Map each ridge (codimension-1 face) to the facets containing it.

    Ridges appear in the order their first facet comes in sorted facet order,
    and each ridge's facets in sorted order.  The map is read-only.
    """
    if c.is_void:
        raise ValueError("void has no faces")
    if not c.is_pure:
        raise ValueError("ridge counting requires a pure complex")
    d = c.dimension
    if d < 0:
        raise ValueError("no ridges in the empty complex")
    record = c._derived
    if record.ridges is None:
        out: dict[Face, list[Face]] = {}
        for m in c.facets:
            for r in combinations(m, d):
                out.setdefault(r, []).append(m)
        record.ridges = {r: tuple(ms) for r, ms in out.items()}
    return MappingProxyType(record.ridges)


def boundary_complex(b: Complex) -> Complex:
    """Boundary of a pure complex by the ridge rule.

    A ridge is a boundary face iff it lies in exactly one facet; the result
    is generated by the boundary ridges.  Returns the empty complex when
    there are none (a closed pseudomanifold) and raises when a ridge lies
    in three or more facets.
    """
    incidence = ridge_facets(b)
    record = b._derived
    if record.boundary is None:
        for r, ms in incidence.items():
            if len(ms) > 2:
                raise ValueError("not a pseudomanifold")
        bd = frozenset(r for r, ms in incidence.items() if len(ms) == 1)
        record.boundary = Complex._trusted(bd) if bd else Complex.empty()
    return record.boundary


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


def z2_reduced_betti(c: Complex) -> tuple[int, ...]:
    """Reduced mod-2 Betti numbers in dimensions -1 .. dim(c).

    Computed from the ranks of the boundary matrices of the reduced chain
    complex (the empty face spans the (-1)-chains), from the top dimension
    down with clearing (Chen and Kerber, "Persistent homology computation
    with a twist", 2011): a face that is the pivot row of a reduced column
    one dimension up has a boundary in the span of the boundaries of faces
    before it, so its column is skipped without changing the rank.
    """
    if c.is_void:
        raise ValueError("void has no faces")
    record = c._derived
    if record.betti is not None:
        return record.betti
    dim = c.dimension
    # any fixed order is correct; first-seen order keeps the reductions short
    by_size = [faces_of_size(c, size) for size in range(dim + 2)]
    # ranks[s] = rank of the boundary map from faces of size s to size s-1
    ranks = [0] * (dim + 3)
    cleared: set[int] = set()  # indices into by_size[s] of columns to skip
    for s in range(dim + 1, 0, -1):
        rows = by_size[s - 1]
        bit = dict(zip(rows, map((1).__lshift__, range(len(rows))))).__getitem__
        # the subfaces are distinct, so their sum is the column's bitmask
        columns = (sum(map(bit, combinations(f, s - 1)))
                   for j, f in enumerate(by_size[s]) if j not in cleared)
        cleared = _gf2_pivots(columns)
        ranks[s] = len(cleared)
    record.betti = tuple(
        len(by_size[s]) - ranks[s] - ranks[s + 1] for s in range(dim + 2))
    return record.betti


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
