"""Boundary complexes of cyclic polytopes via the evenness condition.

A d-subset of [n] spans a facet of the cyclic d-polytope on n vertices iff
any two elements outside it have an even number of elements of the subset
strictly between them.  For even d the facets decompose canonically into a
(possibly absent) odd-length run at 1, interior runs of even length, and a
(possibly absent) odd-length run at n, which gives a direct enumeration;
for odd d the condition is checked subset by subset.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

from .faces import Complex, Face, face
from .posets import pair_facets


def gale_even(f: Iterable[int], d: int, n: int) -> bool:
    """Evenness test for a candidate facet of the cyclic d-polytope on [n]."""
    f = face(f)
    if len(f) != d:
        raise ValueError(f"candidate must have {d} vertices, got {len(f)}")
    if f and f[-1] > n:
        raise ValueError(f"vertex {f[-1]} exceeds n={n}")
    inside = set(f)
    # prefix[x] = how many elements of f are <= x
    prefix = [0] * (n + 1)
    for x in range(1, n + 1):
        prefix[x] = prefix[x - 1] + (x in inside)
    outside = [x for x in range(1, n + 1) if x not in inside]
    for a, b in combinations(outside, 2):
        if (prefix[b - 1] - prefix[a]) % 2:
            return False
    return True


def _even_facets(k: int, n: int) -> Iterator[Face]:
    """Facets of the cyclic 2k-polytope on [n], by run structure."""
    yield from pair_facets(k, 1, n)
    # odd run [1, a], interior pairs, odd run [n-b+1, n]; a or b may cover
    # the whole facet, and either end run may be absent (length 0 handled
    # by the pairs-only case above)
    for a in range(1, 2 * k + 1, 2):
        for b in range(1, 2 * k - a + 1, 2):
            rest = (2 * k - a - b) // 2
            head = tuple(range(1, a + 1))
            tail = tuple(range(n - b + 1, n + 1))
            for mid in pair_facets(rest, a + 2, n - b - 1):
                yield head + mid + tail


@lru_cache(maxsize=None)
def cyclic_boundary(d: int, n: int) -> Complex:
    """Boundary complex of the cyclic d-polytope on vertices 1..n."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if n <= d:
        raise ValueError(f"need more vertices than the dimension: n={n}, d={d}")
    if d % 2 == 0:
        facets = frozenset(_even_facets(d // 2, n))
    else:
        facets = frozenset(
            f for f in combinations(range(1, n + 1), d) if gale_even(f, d, n))
    return Complex(facets)
