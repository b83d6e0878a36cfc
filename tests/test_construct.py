"""Sewing and the census stream."""

from itertools import combinations

import pytest

from neighborly import construct
from neighborly.construct import (
    CensusEntry,
    census,
    census_counts,
    collect_census,
    even_census,
    odd_census,
    sew,
)
from neighborly.cyclic import cyclic_boundary
from neighborly.faces import (
    Complex,
    all_faces,
    boundary_complex,
    complement,
    f_vector,
    link,
)
from neighborly.posets import Antichain, enumerate_antichains, max_slope_element
from neighborly.squeezed import relative_ball

S28 = Antichain(2, 8, ((1, 2, 7, 8), (3, 4, 6, 7)))
REL = relative_ball(S28)


def test_sew_worked_example():
    sphere = sew(cyclic_boundary(4, 8), REL, 9)
    assert len(sphere.facets) == 27
    assert sphere.vertices == tuple(range(1, 10))
    assert link(sphere, (9,)) == boundary_complex(REL)


def test_sew_facet_count_law():
    delta = cyclic_boundary(4, 8)
    sphere = sew(delta, REL, 9)
    f_delta = f_vector(delta)
    f_ball = f_vector(REL)
    f_bd = f_vector(boundary_complex(REL))
    assert len(sphere.facets) == f_delta[4] - f_ball[4] + f_bd[3]


def test_sew_cone_over_one_facet():
    simplex_boundary = Complex.from_facets(combinations(range(1, 6), 4))
    got = sew(simplex_boundary, Complex.from_facets([(1, 2, 3, 4)]), 6)
    assert len(got.facets) == 8


def test_sew_guards():
    delta = cyclic_boundary(4, 8)
    # a closed patch is caught by the ball sanity gate before the
    # proper-subcomplex comparison ever runs
    with pytest.raises(ValueError, match="sanity"):
        sew(delta, delta, 9)
    with pytest.raises(ValueError, match="already present"):
        sew(delta, REL, 5)
    outside = Complex.from_facets([(1, 2, 3, 9)])
    with pytest.raises(ValueError):
        sew(delta, outside, 10)
    not_a_sphere = Complex.from_facets([(1, 2, 3), (2, 3, 4)])
    with pytest.raises(ValueError, match="sphere sanity"):
        sew(not_a_sphere, Complex.from_facets([(1, 2, 3)]), 9)


# a 2-sphere: an annulus of six triangles between 1 2 3 and 4 5 6, capped by both
ANNULUS = [(1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6)]
CAPPED = Complex.from_facets(ANNULUS + [(1, 2, 3), (4, 5, 6)])


@pytest.mark.parametrize("patch", [
    [(1, 2, 3), (1, 2, 4), (1, 2, 5)],  # a ridge in three facets
    [(1, 2, 3), (4, 5, 6)],             # disconnected
    ANNULUS,                            # connected, with a hole
], ids=["three-on-a-ridge", "disconnected", "annulus"])
def test_sew_refuses_patches_that_are_not_balls(patch):
    with pytest.raises(ValueError, match="ball sanity"):
        sew(CAPPED, Complex.from_facets(patch), 7)


def test_sew_preserves_low_skeleton():
    """Cutting out a 1-stacked ball keeps every edge of the ambient sphere."""
    delta = cyclic_boundary(4, 8)
    rest = complement(delta, REL)
    assert all_faces(rest, 1) == all_faces(delta, 1)


def test_even_census_smallest_case():
    entries = list(even_census(2, 6))
    assert len(entries) == 2
    for e in entries:
        assert e.sphere.vertices == tuple(range(1, 8))
        assert e.sphere.dimension == 3
        assert all(c.verdict is True for c in e.certificates)


@pytest.mark.parametrize("parity, k, n, names", [
    ("even", 2, 6, ["neighborly(1)", "stacked(1)", "neighborly(2)", "sphere-homology"]),
    ("odd", 2, 6, ["neighborly(1)", "stacked(1)", "neighborly(1)", "sphere-homology"]),
    ("odd", 3, 8, ["neighborly(2)", "stacked(2)", "neighborly(2)", "sphere-homology"]),
])
def test_certificate_names_by_parity(parity, k, n, names):
    entries = list(census(parity, k, n))
    assert entries
    for e in entries:
        assert [c.property for c in e.certificates] == names


def test_even_census_contains_worked_example():
    entries = {e.antichain: e for e in even_census(2, 8)}
    assert len(entries) == 8
    e = entries[S28]
    assert len(e.sphere.facets) == 27
    assert e.ball == REL


def test_even_census_order_is_deterministic():
    got = [e.antichain for e in even_census(2, 7)]
    want = [a.to_pair_facets()
            for a in enumerate_antichains(2, 7, must_contain=max_slope_element(2, 7))]
    assert got == want


def test_odd_census_worked_example():
    entries = {e.antichain: e for e in odd_census(2, 8)}
    e = entries[S28]
    assert e.sphere == boundary_complex(REL)
    assert len(e.sphere.facets) == 12
    assert e.sphere.dimension == 2


def test_odd_census_k3():
    entries = list(odd_census(3, 9))
    assert len(entries) == 11
    for e in entries:
        assert e.sphere.dimension == 4
        assert e.sphere.vertices == tuple(range(1, 10))
        assert all(c.verdict is True for c in e.certificates)


def test_census_spheres_are_pairwise_distinct():
    for parity, k, n in (("even", 2, 8), ("odd", 2, 9), ("odd", 3, 9)):
        spheres = [e.sphere.maximal_faces for e in census(parity, k, n)]
        assert len(set(spheres)) == len(spheres)


def test_census_builds_entries_on_demand(monkeypatch):
    """Taking the first entry certifies one ball, and no other."""
    real = construct._patch
    certified = []

    def counted(delta, bits):
        certified.append(bits)
        return real(delta, bits)

    monkeypatch.setattr(construct, "_patch", counted)
    stream = census("odd", 3, 9)
    assert certified == []
    first = next(stream)
    delta = cyclic_boundary(6, 9)
    assert certified == [sum(1 << delta.facets.index(f) for f in first.ball.maximal_faces)]


def test_closing_a_pooled_census_draws_a_bounded_part_of_the_family(monkeypatch):
    """The pool draws antichains a window of chunks ahead, not the whole family."""
    real = construct._family
    want = next(census("odd", 4, 12))
    drawn = []

    def counted(k, n):
        for a in real(k, n):
            drawn.append(a)
            yield a

    monkeypatch.setattr(construct, "_family", counted)
    jobs = 2
    bound = construct._WINDOW * jobs * construct._CHUNK
    assert bound < sum(1 for _ in real(4, 12)) == 320
    stream = census("odd", 4, 12, jobs=jobs)
    first = next(stream)
    stream.close()
    assert first == want
    assert 0 < len(drawn) <= bound


def test_census_parameter_guards():
    with pytest.raises(ValueError):
        list(even_census(1, 8))
    with pytest.raises(ValueError):
        list(even_census(2, 5))
    with pytest.raises(ValueError):
        list(odd_census(2, 3))


def test_census_counts_table():
    rows = census_counts(2, range(6, 10))
    assert rows == [
        (6, 2, 1, True), (7, 4, 1, True), (8, 8, 2, True), (9, 16, 4, True)]


def test_census_counts_needs_k_at_least_2():
    with pytest.raises(ValueError, match="census needs k >= 2, got 1"):
        census_counts(1, range(2, 5))


def test_census_counts_checks_every_n_as_the_odd_census_does():
    with pytest.raises(ValueError, match=r"census needs n >= 2k, got n=3"):
        census_counts(2, range(3, 6))
    with pytest.raises(ValueError, match=r"census needs n >= 2k, got n=3"):
        census_counts(2, [6, 3])


def test_collect_census_parallel_matches_serial():
    for parity, k, n in (("even", 2, 6), ("odd", 3, 8)):
        serial = collect_census(parity, k, n, jobs=1)
        parallel = collect_census(parity, k, n, jobs=2)
        assert len(serial) > 0
        assert serial == parallel


def test_collect_census_guards():
    with pytest.raises(ValueError):
        collect_census("sideways", 2, 6)
    with pytest.raises(ValueError):
        collect_census("even", 2, 6, jobs=0)
    with pytest.raises(ValueError):
        collect_census("even", 2, 5, jobs=2)


def test_entries_are_frozen():
    entry = next(iter(even_census(2, 6)))
    assert isinstance(entry, CensusEntry)
    with pytest.raises(AttributeError):
        entry.sphere = Complex.void()
