"""Cyclic polytope boundaries via the evenness condition."""

from itertools import combinations

import pytest

from neighborly.cyclic import cyclic_boundary
from neighborly.faces import all_faces, face, link, z2_reduced_betti
from neighborly.posets import Antichain
from neighborly.squeezed import squeezed_ball

from oracles import gale_even_by_runs, ridge_multiplicities


def gale_even(f, d, n):
    """Evenness test for a candidate facet of the cyclic d-polytope on [n]:
    any two labels outside f have an even number of labels of f between them."""
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


def test_gale_even_known_values():
    assert gale_even((1, 2, 3, 4), 4, 6)
    assert not gale_even((1, 2, 4, 6), 4, 6)
    assert gale_even((2, 3, 4, 5), 4, 6)


def test_gale_even_wrong_size():
    with pytest.raises(ValueError):
        gale_even((1, 2, 3), 4, 6)


def test_gale_even_agrees_with_runs_oracle():
    for d in range(2, 7):
        for n in range(d + 1, 10):
            for f in combinations(range(1, n + 1), d):
                assert gale_even(f, d, n) == gale_even_by_runs(f, n), (f, d, n)


def test_boundary_counts():
    assert len(cyclic_boundary(4, 6).facets) == 9
    assert len(cyclic_boundary(4, 8).facets) == 20


def test_pentagon():
    got = cyclic_boundary(2, 5)
    assert got.maximal_faces == frozenset(
        {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)})


def test_boundary_equals_brute_filter():
    for d, n in ((2, 6), (3, 6), (4, 5), (4, 7), (5, 8), (6, 7), (6, 9), (7, 12), (8, 12),
                 (9, 13)):
        want = frozenset(
            f for f in combinations(range(1, n + 1), d) if gale_even(f, d, n))
        assert cyclic_boundary(d, n).maximal_faces == want


def test_parameter_validation():
    with pytest.raises(ValueError):
        cyclic_boundary(1, 5)
    with pytest.raises(ValueError):
        cyclic_boundary(4, 4)


def test_half_dimension_neighborliness():
    c = cyclic_boundary(4, 8)
    assert all_faces(c, 1) >= set(combinations(range(1, 9), 2))
    c6 = cyclic_boundary(6, 10)
    assert all_faces(c6, 2) >= set(combinations(range(1, 11), 3))


def test_closed_pseudomanifold_and_sphere_homology():
    for d, n in ((2, 5), (3, 7), (4, 9), (5, 9), (6, 12)):
        c = cyclic_boundary(d, n)
        assert all(m == 2 for m in ridge_multiplicities(c.facets).values())
        betti = z2_reduced_betti(c)
        assert betti == (0,) * d + (1,)


def test_vertex_link_drops_a_dimension():
    for n in (6, 7):
        got = link(cyclic_boundary(4, n + 1), (n + 1,))
        assert got == cyclic_boundary(3, n)


def test_facets_avoiding_last_vertex_form_an_ideal():
    """Facets of the even boundary missing the top vertex are a squeezed ball."""
    for k, n in ((2, 6), (2, 7), (3, 8)):
        c = cyclic_boundary(2 * k, n + 1)
        avoid = frozenset(f for f in c.facets if n + 1 not in f)
        top = Antichain(k, n, (tuple(range(n - 2 * k + 1, n + 1)),))
        assert avoid == squeezed_ball(top).maximal_faces
