"""Sewing balls into spheres, and censuses of highly neighborly spheres.

Sewing replaces a full-dimensional ball inside a sphere by the cone over
the ball's boundary from a fresh vertex.  Both censuses run over the
antichains through the distinguished grid point and build each relative
ball as a bitmask of the facets of the boundary of an even-dimensional
cyclic polytope; the even census sews it in, the odd census takes its
boundary.  Every entry carries certificates that are checked at
generation time.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce
from itertools import islice
from operator import or_
from typing import Any, Callable, Iterator, Sequence

from .cyclic import cyclic_boundary
from .faces import Complex, Face, boundary_complex, links_strongly_connected
from .posets import (
    Antichain,
    _down_set,
    enumerate_antichains,
    max_slope_element,
    pair_facets,
    shift_down,
)
from .verify import (
    Certificate,
    _Patch,
    _patch,
    ball_sanity,
    is_i_neighborly,
    is_r_stacked,
    sphere_sanity,
)


@dataclass(frozen=True)
class CensusEntry:
    """One census item: the antichain, the ball, the sphere, its certificates.

    The ball and sphere are fresh complexes: the faces derived while
    certifying them are not kept with the entry.
    """

    antichain: Antichain
    ball: Complex
    sphere: Complex
    certificates: tuple[Certificate, ...]


def sew(delta: Complex, b: Complex, new_vertex: int, *, patch: _Patch | None = None) -> Complex:
    """Replace the ball b inside the sphere delta by the cone over its boundary.

    b must be a full-dimensional proper subcomplex of delta and a ball,
    delta must pass `sphere_sanity`, and the new vertex must be unused.  The
    ball is certified on what delta keeps by `verify._patch` on the bitmask of
    b's facets among delta's sorted facets, made here when b's facets are
    delta's, unless the caller passes the one it made as `patch` (the census
    reads the ball's own certificates off it too): by a shelling, whose
    shelled b is a PL ball whose boundary is a PL sphere (Danaraj and Klee,
    "Shellings of spheres and polytopes", 1974), and it is contractible
    (Bjorner, "Topological methods", 1995).  When that certificate fails or
    cannot be given, `ball_sanity` decides, with its errors and witnesses.
    A returned sphere passes `sphere_sanity`.

    When every face link of delta is strongly connected, that follows from
    the certified parts, and the result is not checked again.  The link
    condition holds for the boundary of a simplicial polytope, whose face
    links are boundaries of polytopes again (Ziegler, *Lectures on
    Polytopes*), and it is checked on delta, once per complex.  With A the
    complex generated by the facets of delta outside b, and C the cone over
    the boundary of b:

    - The result is a closed pseudomanifold.  Each ridge of delta lies in
      two facets of delta, which passed `sphere_sanity`.  A facet r of the
      boundary of b is a ridge of delta, as b lies in delta, and exactly one
      of those two facets is in b, so r lies in one facet of A and one cone
      facet.  Any other ridge missing the new vertex lies in a facet of A
      and keeps its two facets of delta, both in A, or it would be a
      boundary ridge of b.  A ridge through the new vertex lies in two cone
      facets, as the boundary of b is a closed pseudomanifold: a PL sphere
      when b is shelled, and passing `sphere_sanity` in `ball_sanity`
      otherwise.
    - A meets b in the boundary of b.  A boundary ridge of b lies in two
      facets of the closed pseudomanifold delta, and the one not in b is in
      A.  A face t of b that lies in a facet of A is joined to a facet of b
      by a chain of facets through t, each sharing a ridge through t with
      the next.  Some ridge of the chain has one facet in b and one in A, so
      it is a boundary ridge of b, and t lies in it.  So a face of b is a
      boundary face exactly when it lies in a facet of delta outside b,
      which is how `verify._patch` reads the boundary faces off delta's
      masks in both parities of the census.
    - A meets C in the boundary of b as well, since the new vertex is fresh.
    - b is mod-2 acyclic, as it is contractible when shelled and by its
      sanity check otherwise, and C is a cone.  Mayer-Vietoris needs
      nothing more of b.

    So the reduced Mayer-Vietoris sequences of delta = A + b and of the
    result = A + C (Hatcher, *Algebraic Topology*, section 2.2) are zero in
    the b and C terms and hold the same map from the homology of the
    boundary of b to that of A, which gives both the same Betti numbers.
    Those of a sphere make it connected.
    Without the link condition `sphere_sanity` runs on the result itself.

    When delta is a PL sphere, as the boundary of a simplicial polytope is,
    and b is shelled, the result is a PL sphere too: the closure A of delta
    less b is a PL ball by Newman's theorem (Rourke and Sanderson,
    *Introduction to Piecewise-Linear Topology*, section 3), its boundary
    is that of b, and a PL ball with the cone over its boundary glued on is
    a PL sphere.  The certificate returned is still `sphere_sanity`'s.
    """
    sphere_cert = sphere_sanity(delta)
    if sphere_cert.verdict is not True:
        raise ValueError(f"ambient complex fails sphere sanity: {sphere_cert.witness}")
    if patch is None and not b.is_void and b.maximal_faces <= delta.maximal_faces:
        ours = b.maximal_faces
        patch = _patch(delta, sum(1 << j for j, f in enumerate(delta.facets) if f in ours))
    if patch is None or not patch.shelled:
        ball_cert = ball_sanity(b)
        if ball_cert.verdict is not True:
            raise ValueError(f"patch fails ball sanity: {ball_cert.witness}")
    if not b.maximal_faces <= delta.maximal_faces:
        raise ValueError("patch facets must be facets of the ambient complex")
    if b.maximal_faces == delta.maximal_faces:
        raise ValueError("patch must be a proper subcomplex")
    if new_vertex in delta.vertices:
        raise ValueError(f"vertex {new_vertex} already present")
    ridges = boundary_complex(b).maximal_faces if patch is None else patch.boundary
    # the cone facets: one facet size, canonical tuples, so no need to check them again
    cone = frozenset(tuple(sorted((*r, new_vertex))) for r in ridges)
    result = Complex._trusted((delta.maximal_faces - b.maximal_faces) | cone)
    if links_strongly_connected(delta):
        return result
    post = sphere_sanity(result)
    if post.verdict is not True:
        raise RuntimeError(f"sewing produced a non-sphere: {post.witness}")
    return result


def _entry(parity: str, k: int, n: int, down: dict[Face, int], a: Antichain) -> CensusEntry:
    """Build and certify one census entry; the parity picks only the sphere step.

    The ball B is a bitmask of the facets of the ambient sphere delta =
    `cyclic_boundary(2k, max(n, 2k+1))` in both parities.  Every pair facet
    on [n] is a facet of delta (Gale's evenness condition), and at n = 2k
    delta is the boundary of the 2k-simplex, which holds the one pair facet.
    B is the order ideal of the antichain S less that of S shifted down,
    and an ideal is the union of its elements' down-sets, so B's bits are
    the OR of `down[x]` over x in S, less the OR over shift S: `down` maps
    each pair facet x to the mask of the pair facets below it (`census`).
    `CensusEntry.ball` is decoded from the bits.

    B is certified on what delta keeps by `verify._patch`: one shelling
    search and one walk of B's faces give its shelling certificate, its
    boundary, and the verdicts of its neighborliness and stackedness
    certificates.  B's boundary faces are the faces of B that lie in a
    facet of delta outside B; `sew` proves it from the link condition,
    which `verify._patch` checks on delta, once per complex, with whether
    delta is a closed pseudomanifold.  The odd census needs nothing more of
    delta, and skips its homology.  The full checks (`ball_sanity`,
    `sphere_sanity`, `is_i_neighborly` and `is_r_stacked`) run for each
    certificate that cannot be read off the patch as True, and for every
    certificate when the patch cannot be given.

    A sphere that `sew` returns passes `sphere_sanity`, so a sewn sphere's
    sanity certificate is not computed again.  The odd sphere is the
    boundary of the ball, so a shelled ball gives it, and `sphere_sanity`
    runs only when that certificate fails.

    The sphere's neighborliness follows from the ball's two certificates,
    and the full `is_i_neighborly` on the sphere runs only when one of them
    fails.  The ball B is (k-1)-neighborly on [n], and (k-1)-stacked: every
    face of B with at most k vertices lies in its boundary.

    - Odd: the sphere is the boundary of B.  Every (k-1)-subset of [n] is a
      face of B, by neighborliness.  It has at most k vertices, so it lies
      in the boundary.
    - Even: let A be the complex of the facets of delta outside B, so the
      sphere is A plus the cone over the boundary of B from n+1.  `census`
      has checked that delta is k-neighborly on [n], and `sew` that delta
      is a closed pseudomanifold and that B lies in it.
      - The boundary of B lies in A.  Each boundary ridge of B lies in two
        facets of delta, and one of them is outside B.
      - A k-subset t of [n] is a face of delta.  If t is in B, stackedness
        puts it in the boundary of B, which lies in A.  If not, it lies in
        a facet of delta outside B, which is in A.
      - A set t + {n+1} with |t| = k-1: t is a face of B by
        neighborliness, so t lies in the boundary of B, and t + {n+1} is a
        cone face.
    """
    s = a.to_pair_facets()
    delta = cyclic_boundary(2 * k, max(n, 2 * k + 1))
    upper, lower = (reduce(or_, map(down.__getitem__, t), 0) for t in (s, shift_down(s)))
    bits = upper & ~lower
    ball = Complex._trusted(frozenset(f for j, f in enumerate(delta.facets) if bits >> j & 1))
    patch = _patch(delta, bits)
    if parity == "even":
        sphere, degree, top = sew(delta, ball, n + 1, patch=patch), k, n + 1
        sanity = Certificate("sphere-homology", True)
    else:
        sphere = boundary_complex(ball) if patch is None else Complex._trusted(patch.boundary)
        degree, top = k - 1, n
        sanity = (Certificate("sphere-homology", True) if patch and patch.shelled
                  else sphere_sanity(sphere))
    ball_certs = (
        Certificate(f"neighborly({k - 1})", True) if patch and patch.neighborly(k - 1, n)
        else is_i_neighborly(ball, k - 1, range(1, n + 1)),
        Certificate(f"stacked({k - 1})", True) if patch and patch.stacked(k - 1)
        else is_r_stacked(ball, k - 1))
    neighborly = (Certificate(f"neighborly({degree})", True)
                  if all(c.verdict is True for c in ball_certs)
                  else is_i_neighborly(sphere, degree, range(1, top + 1)))
    certs = (*ball_certs, neighborly, sanity)
    if not all(c.verdict is True for c in certs):
        bad = [c.property for c in certs if c.verdict is not True]
        raise RuntimeError(f"certificates {bad} failed for antichain {s.elements}")
    return CensusEntry(s, Complex._trusted(ball.maximal_faces),
                       Complex._trusted(sphere.maximal_faces), certs)


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"census needs k >= 2, got {k}")


def _check_census(parity: str, k: int, n: int) -> None:
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    _check_k(k)
    if parity == "even" and n < 2 * k + 2:
        raise ValueError(f"census needs n >= 2k+2, got n={n}")
    if parity == "odd" and n < 2 * k:
        raise ValueError(f"census needs n >= 2k, got n={n}")


def _family(k: int, n: int) -> Iterator[Antichain]:
    return enumerate_antichains(k, n, must_contain=max_slope_element(k, n))


def census(parity: str, k: int, n: int, jobs: int = 1,
           then: Callable[[CensusEntry], Any] | None = None) -> Iterator[Any]:
    """Certified entries of the even or odd census, in family order.

    The parameters are checked on the call, before any entry is built.  So
    is, once, the k-neighborliness of the even census's ambient sphere, on
    which every entry's sphere certificate builds (`_entry`); a RuntimeError
    says it fails.  The table of each pair facet's down-set, as a mask of
    the ambient's facets, is built here once and handed to every entry;
    each process takes the ambient itself from `cyclic_boundary`.

    With `then`, the stream holds `then(entry)` in place of each entry,
    applied in the process that built the entry: a pool worker sends back
    only what `then` returns, so `then` must be picklable (a module-level
    function, or a `partial` of one).  With jobs > 1 the entries are built
    in a pool of that many processes, in chunks of consecutive antichains
    (`_stream`); they come back in the same order as with one.
    """
    _check_census(parity, k, n)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    delta = cyclic_boundary(2 * k, max(n, 2 * k + 1))
    if parity == "even":
        ambient = is_i_neighborly(delta, k, range(1, n + 1))
        if ambient.verdict is not True:
            raise RuntimeError(f"ambient sphere is not {k}-neighborly: {ambient.witness}")
    own = {f: 1 << j for j, f in enumerate(delta.facets)}
    down = {x: sum(own[y] for y in _down_set(x)) for x in pair_facets(k, 1, n)}
    make = partial(_entry, parity, k, n, down)
    if then is not None:
        make = partial(_then, then, make)
    return _stream(make, _family(k, n), jobs)


def _then(then: Callable[[CensusEntry], Any], entry: Callable[[Antichain], CensusEntry],
          a: Antichain) -> Any:
    return then(entry(a))


# antichains per pool task, and tasks in flight per worker process: a task
# carries `make` and its down-set table once for the whole chunk, and the
# window keeps the workers busy while the parent consumes a finished chunk
_CHUNK = 8
_WINDOW = 4


def _chunk(make: Callable[[Antichain], Any], chunk: list[Antichain]) -> list[Any]:
    return [make(a) for a in chunk]


def _stream(make: Callable[[Antichain], Any], family: Iterator[Antichain],
            jobs: int) -> Iterator[Any]:
    """`make` of each antichain of the family, in family order, from `jobs` processes.

    With jobs > 1 the family is drawn lazily, `_CHUNK` antichains to a pool
    task, and at most `_WINDOW * jobs` tasks are in flight: a task is
    submitted as the oldest one's results are handed on.  A task's results
    come whole, so they appear when its last antichain is done, and a
    failure raises when its task is reached, after every earlier result.
    Closing the stream, or a failure, cancels the tasks not yet started.
    """
    if jobs == 1:
        yield from map(make, family)
        return
    pool = ProcessPoolExecutor(max_workers=jobs)
    pending = deque()
    try:
        while chunk := list(islice(family, _CHUNK)):
            pending.append(pool.submit(_chunk, make, chunk))
            if len(pending) == _WINDOW * jobs:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def even_census(k: int, n: int) -> Iterator[CensusEntry]:
    """Certified (2k-1)-spheres on [n+1] sewn from relative balls, k-neighborly."""
    return census("even", k, n)


def odd_census(k: int, n: int) -> Iterator[CensusEntry]:
    """Certified (2k-2)-spheres on [n]: boundaries of the squeezed balls."""
    return census("odd", k, n)


def collect_census(parity: str, k: int, n: int, jobs: int = 1) -> list[CensusEntry]:
    """The whole census as a list, built by `jobs` processes."""
    return list(census(parity, k, n, jobs))


def census_counts(k: int, n_range: Sequence[int]) -> list[tuple[int, int, int, bool]]:
    """Rows (n, census size, lower bound, size >= bound) for each n.

    The bound is the number of antichains of pair facets on a ground set
    shortened by 2k; a ground set too small for any pair facet contributes
    the single empty antichain.  Each n is checked first, as the odd census
    checks it.
    """
    _check_k(k)
    for n in n_range:
        _check_census("odd", k, n)
    rows = []
    for n in n_range:
        size = sum(1 for _ in _family(k, n))
        shortened = n - 2 * k
        if shortened < 2 * k:
            bound = 1
        else:
            bound = sum(1 for _ in enumerate_antichains(k, shortened))
        rows.append((n, size, bound, size >= bound))
    return rows
