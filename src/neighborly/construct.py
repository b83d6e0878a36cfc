"""Sewing balls into spheres, and censuses of highly neighborly spheres.

Sewing replaces a full-dimensional ball inside a sphere by the cone over
the ball's boundary from a fresh vertex.  The even census runs over the
antichains through the distinguished grid point, builds each relative
ball inside the boundary of an even-dimensional cyclic polytope, and sews;
the odd census takes boundaries of the squeezed balls directly.  Every
entry carries certificates that are checked at generation time.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from .cyclic import cyclic_boundary
from .faces import Complex, boundary_complex, join
from .posets import Antichain, enumerate_antichains, max_slope_element
from .squeezed import relative_ball
from .verify import Certificate, ball_sanity, is_i_neighborly, is_r_stacked, sphere_sanity


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


def sew(delta: Complex, b: Complex, new_vertex: int) -> Complex:
    """Replace the ball b inside the sphere delta by the cone over its boundary.

    b must be a full-dimensional proper subcomplex of delta, both must pass
    their sanity checks, and the new vertex must be unused.  The result is
    itself checked to be a sphere candidate before it is returned.
    """
    sphere_cert = sphere_sanity(delta)
    if sphere_cert.verdict is not True:
        raise ValueError(f"ambient complex fails sphere sanity: {sphere_cert.witness}")
    ball_cert = ball_sanity(b)
    if ball_cert.verdict is not True:
        raise ValueError(f"patch fails ball sanity: {ball_cert.witness}")
    if not b.maximal_faces <= delta.maximal_faces:
        raise ValueError("patch facets must be facets of the ambient complex")
    if b.maximal_faces == delta.maximal_faces:
        raise ValueError("patch must be a proper subcomplex")
    if new_vertex in delta.vertices:
        raise ValueError(f"vertex {new_vertex} already present")
    cone = join(boundary_complex(b), Complex(frozenset({(new_vertex,)})))
    # one facet size, canonical tuples: no need to check them again
    result = Complex._trusted((delta.maximal_faces - b.maximal_faces) | cone.maximal_faces)
    post = sphere_sanity(result)
    if post.verdict is not True:
        raise RuntimeError(f"sewing produced a non-sphere: {post.witness}")
    return result


def _entry(parity: str, k: int, n: int, a: Antichain) -> CensusEntry:
    """Build and certify one census entry; the parity picks only the sphere step."""
    s = a.to_pair_facets()
    ball = relative_ball(s)
    if parity == "even":
        sphere, degree, top = sew(cyclic_boundary(2 * k, n), ball, n + 1), k, n + 1
    else:
        sphere, degree, top = boundary_complex(ball), k - 1, n
    certs = (
        is_i_neighborly(ball, k - 1, range(1, n + 1)),
        is_r_stacked(ball, k - 1),
        is_i_neighborly(sphere, degree, range(1, top + 1)),
        sphere_sanity(sphere),
    )
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


def census(parity: str, k: int, n: int, jobs: int = 1) -> Iterator[CensusEntry]:
    """Certified entries of the even or odd census, in family order.

    The parameters are checked on the call, before any entry is built.
    With jobs > 1 the entries are built in a pool of that many processes;
    they come back in the same order as with one.
    """
    _check_census(parity, k, n)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return _stream(partial(_entry, parity, k, n), _family(k, n), jobs)


def _stream(entry: Callable[[Antichain], CensusEntry], family: Iterator[Antichain],
            jobs: int) -> Iterator[CensusEntry]:
    if jobs == 1:
        yield from map(entry, family)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(entry, family)


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
    the single empty antichain.
    """
    _check_k(k)
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
