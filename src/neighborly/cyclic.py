"""Boundary complexes of cyclic polytopes via the evenness condition.

A d-subset of [n] spans a facet of the cyclic d-polytope on n vertices iff
any two elements outside it have an even number of elements of the subset
strictly between them.  So every facet decomposes canonically into a
(possibly absent) odd-length run at 1, interior runs of even length, and a
(possibly absent) odd-length run at n, which gives a direct enumeration
for either parity of d.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .faces import Complex, Face
from .posets import pair_facets


def _facets(d: int, n: int) -> Iterator[Face]:
    """Facets of the cyclic d-polytope on [n], by run structure.

    A facet is a head run [1, a] and a tail run [n-b+1, n], each of odd
    length or absent, with the rest of its d labels in pairs that touch
    neither run.
    """
    for a in (0, *range(1, d + 1, 2)):
        for b in (0, *range(1, d - a + 1, 2)):
            if (d - a - b) % 2:
                continue
            head = tuple(range(1, a + 1))
            tail = tuple(range(n - b + 1, n + 1))
            for mid in pair_facets((d - a - b) // 2, a + 2 if a else 1, n - b - 1 if b else n):
                yield head + mid + tail


@lru_cache(maxsize=None)
def cyclic_boundary(d: int, n: int) -> Complex:
    """Boundary complex of the cyclic d-polytope on vertices 1..n."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if n <= d:
        raise ValueError(f"need more vertices than the dimension: n={n}, d={d}")
    # canonical facets of one size: none contains another
    return Complex._trusted(frozenset(_facets(d, n)))
