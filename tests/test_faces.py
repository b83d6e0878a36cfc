"""Complex data model: faces, links, joins, vectors, boundaries, homology."""

import pytest

from neighborly.faces import (
    Complex,
    all_faces,
    boundary_complex,
    complement,
    f_vector,
    face,
    format_complex,
    h_vector,
    intersect,
    join,
    link,
    parse_complex,
    ridge_facets,
    z2_reduced_betti,
)

from oracles import closure_faces, f_vector_by_closure, fh_identity_holds
from test_fast_paths import CENSUS, MIXED, PURE

# Running example used throughout: two pair facets on [8] and the five-facet
# relative ball they generate.
BALL_10 = Complex.from_facets([
    (1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6), (1, 2, 6, 7), (1, 2, 7, 8),
    (2, 3, 4, 5), (2, 3, 5, 6), (2, 3, 6, 7), (3, 4, 5, 6), (3, 4, 6, 7),
])
BALL_5 = Complex.from_facets([
    (1, 2, 6, 7), (1, 2, 7, 8), (2, 3, 6, 7), (3, 4, 5, 6), (3, 4, 6, 7),
])
TETRA = Complex.from_facets([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


def test_face_normalizes_and_validates():
    assert face([3, 1, 2]) == (1, 2, 3)
    assert face([]) == ()
    with pytest.raises(ValueError):
        face([1, 1, 2])
    with pytest.raises(ValueError):
        face([0, 1])


def test_void_and_empty_are_distinct():
    v = Complex.void()
    e = Complex.empty()
    assert v.is_void and not v.is_empty
    assert e.is_empty and not e.is_void
    assert v != e
    assert Complex.from_facets([]) == v
    assert Complex.from_facets([()]) == e
    assert e.dimension == -1


def test_maximal_face_containment_rejected():
    with pytest.raises(ValueError):
        Complex(frozenset({(1, 2), (1, 2, 3)}))
    with pytest.raises(ValueError, match="increasing"):
        Complex(frozenset({(3, 1, 2)}))
    # a face that is not a tuple is rejected before the facets are hashed
    with pytest.raises(ValueError, match="increasing"):
        Complex([[1, 2]])
    # a complex without facets is the void complex, which has its own value
    with pytest.raises(ValueError, match="void"):
        Complex(frozenset())
    # from_facets absorbs dominated faces instead
    c = Complex.from_facets([(1, 2), (1, 2, 3)])
    assert c.facets == ((1, 2, 3),)


def test_shape_and_ridge_map_are_kept_and_keep_their_errors():
    void, empty = Complex.void(), Complex.empty()
    mixed = Complex.from_facets([(1, 2, 3), (3, 4)])
    for _ in range(2):  # the second round reads what the first kept
        with pytest.raises(ValueError, match="void complex has no dimension"):
            void.dimension
        with pytest.raises(ValueError, match="void complex has no vertices"):
            void.vertices
        assert void.is_pure and empty.is_pure and not mixed.is_pure
        assert (empty.dimension, empty.vertices) == (-1, ())
        assert (mixed.dimension, mixed.vertices) == (2, (1, 2, 3, 4))
        with pytest.raises(ValueError, match="void has no faces"):
            ridge_facets(void)
        with pytest.raises(ValueError, match="no ridges in the empty complex"):
            ridge_facets(empty)
        with pytest.raises(ValueError, match="ridge counting requires a pure complex"):
            ridge_facets(mixed)
    assert ridge_facets(TETRA) is ridge_facets(TETRA)
    assert ridge_facets(TETRA)[(1, 2)] == ((1, 2, 3), (1, 2, 4))


def test_checked_constructor_stores_a_frozenset():
    c = Complex([(1, 2), (2, 3), (1, 2)])
    assert c.maximal_faces == frozenset({(1, 2), (2, 3)})
    assert type(c.maximal_faces) is frozenset
    assert c == Complex(frozenset({(1, 2), (2, 3)}))
    assert hash(c) == hash(Complex(frozenset({(1, 2), (2, 3)})))
    with pytest.raises(ValueError, match="void"):
        Complex([])


def test_membership_and_vertices():
    c = Complex.from_facets([(1, 2, 3)])
    assert () in c
    assert (2,) in c
    assert (1, 3) in c
    assert (4,) not in c
    assert c.vertices == (1, 2, 3)


def test_all_faces_triangle():
    c = Complex.from_facets([(1, 2, 3)])
    got = all_faces(c, 1)
    assert got == {(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)}


def test_all_faces_empty_and_void():
    assert all_faces(Complex.empty(), 0) == {()}
    with pytest.raises(ValueError):
        all_faces(Complex.void(), 0)


def test_all_faces_matches_closure_oracle():
    for c in (BALL_5, TETRA):
        want = closure_faces(c.facets)
        got = all_faces(c, c.dimension)
        assert got == want


def test_link_of_vertex_in_tetrahedron_boundary():
    got = link(TETRA, (1,))
    assert got == Complex.from_facets([(2, 3), (2, 4), (3, 4)])


def test_link_of_empty_face_is_identity():
    assert link(BALL_5, ()) == BALL_5


def test_link_rejects_non_face():
    with pytest.raises(ValueError, match="not a face"):
        link(TETRA, (1, 5))


def test_link_union_consistency():
    for v in BALL_10.vertices:
        lk = link(BALL_10, (v,))
        for m in lk.facets:
            assert tuple(sorted(m + (v,))) in BALL_10


def test_join_edge_with_vertex():
    e = Complex.from_facets([(1, 2)])
    v = Complex.from_facets([(3,)])
    assert join(e, v) == Complex.from_facets([(1, 2, 3)])


def test_join_units():
    assert join(BALL_5, Complex.empty()) == BALL_5
    assert join(Complex.empty(), BALL_5) == BALL_5
    assert join(BALL_5, Complex.void()).is_void
    assert join(Complex.void(), Complex.void()).is_void


def test_join_rejects_shared_vertices():
    with pytest.raises(ValueError):
        join(TETRA, Complex.from_facets([(4, 5)]))


def test_join_associative_on_disjoint_pieces():
    a = Complex.from_facets([(1, 2)])
    b = Complex.from_facets([(3,), (4,)])
    c = Complex.from_facets([(5, 6)])
    assert join(join(a, b), c) == join(a, join(b, c))


def test_complement_running_example():
    sub = Complex.from_facets([
        (1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6), (2, 3, 4, 5), (2, 3, 5, 6)])
    assert complement(BALL_10, sub) == BALL_5


def test_complement_edge_cases():
    assert complement(BALL_10, BALL_10).is_void
    assert complement(BALL_10, Complex.void()) == BALL_10
    with pytest.raises(ValueError):
        complement(BALL_10, Complex.from_facets([(1, 2, 3)]))
    with pytest.raises(ValueError):
        complement(BALL_10, Complex.from_facets([(5, 6, 7, 8)]))


def test_complement_reunion_restores_facets():
    sub = Complex.from_facets([(1, 2, 6, 7), (1, 2, 7, 8)])
    rest = complement(BALL_5, sub)
    assert rest.maximal_faces | sub.maximal_faces == BALL_5.maximal_faces


def test_intersect_matches_face_sets():
    a = Complex.from_facets([(1, 2, 3), (2, 3, 4)])
    for b in (Complex.from_facets([(2, 3, 4), (4, 5)]),
              Complex.from_facets([(1, 2, 3), (4, 6)]),  # non-pure meet
              Complex.from_facets([(5, 6, 7), (7, 8)])):  # vertex-disjoint
        got = intersect(a, b)
        want_faces = closure_faces(a.facets) & closure_faces(b.facets)
        assert closure_faces(got.facets) == want_faces
    assert got.is_empty  # the vertex-disjoint pair meets in the empty face
    assert intersect(a, Complex.void()).is_void
    assert intersect(a, Complex.empty()).is_empty


def test_f_vector_values():
    assert f_vector(TETRA) == (1, 4, 6, 4)
    assert f_vector(BALL_10) == (1, 8, 23, 26, 10)
    assert f_vector(BALL_5) == (1, 8, 18, 16, 5)
    assert f_vector(Complex.empty()) == (1,)
    with pytest.raises(ValueError):
        f_vector(Complex.void())


def test_f_vector_matches_closure_oracle():
    for c in [TETRA, BALL_5, BALL_10] + PURE + MIXED + CENSUS:
        assert f_vector(c) == f_vector_by_closure(c.facets)


def test_h_vector_values():
    assert h_vector(f_vector(BALL_5), 4) == (1, 4, 0, 0, 0)
    assert h_vector((1,), 0) == (1,)
    assert h_vector(f_vector(TETRA), 3) == (1, 1, 1, 1)


def test_h_vector_length_mismatch():
    with pytest.raises(ValueError):
        h_vector((1, 4, 6, 4), 2)


def test_h_vector_sums_to_facet_count():
    for c in (TETRA, BALL_5, BALL_10):
        d = c.dimension + 1
        h = h_vector(f_vector(c), d)
        assert sum(h) == len(c.facets)
        assert h[0] == 1


def test_fh_polynomial_identity():
    for c in (TETRA, BALL_5, BALL_10):
        d = c.dimension + 1
        f = f_vector(c)
        h = h_vector(f, d)
        assert fh_identity_holds(f, h, d)


def test_boundary_of_full_triangle():
    got = boundary_complex(Complex.from_facets([(1, 2, 3)]))
    assert got == Complex.from_facets([(1, 2), (1, 3), (2, 3)])


def test_boundary_of_running_ball():
    bd = boundary_complex(BALL_5)
    assert bd.dimension == 2
    assert len(bd.facets) == 12


def test_boundary_of_closed_complex_is_empty():
    assert boundary_complex(TETRA).is_empty


def test_boundary_rejects_overcrowded_ridge():
    c = Complex.from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)])
    with pytest.raises(ValueError, match="not a pseudomanifold"):
        boundary_complex(c)


def test_z2_betti_patterns():
    assert z2_reduced_betti(TETRA) == (0, 0, 0, 1)
    assert z2_reduced_betti(BALL_5) == (0, 0, 0, 0, 0)
    assert z2_reduced_betti(Complex.from_facets([(1,), (2,)])) == (0, 1)
    assert z2_reduced_betti(Complex.empty()) == (1,)


def test_z2_betti_circle_and_projective_plane():
    circle = Complex.from_facets([(1, 2), (2, 3), (1, 3)])
    assert z2_reduced_betti(circle) == (0, 0, 1)
    # six-vertex projective plane: mod-2 homology in both dimensions
    rp2 = Complex.from_facets([
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ])
    assert z2_reduced_betti(rp2) == (0, 0, 1, 1)


def test_format_and_parse_round_trip():
    for c in (TETRA, BALL_5, Complex.void(), Complex.empty()):
        assert parse_complex(format_complex(c)) == c


def test_format_is_sorted_and_headed():
    text = format_complex(BALL_5)
    lines = text.splitlines()
    assert lines[0] == "complex d=4 n=8"
    assert lines[1:] == sorted(lines[1:])
    assert text.endswith("\n")
    assert format_complex(Complex.void()) == "VOID\n"
    assert format_complex(Complex.empty()) == "EMPTY\n"


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_complex("")
    with pytest.raises(ValueError):
        parse_complex("complex d=3 n=4\n1 2\n")
    with pytest.raises(ValueError):
        parse_complex("complex d=2 n=3\n1 5\n")
    with pytest.raises(ValueError):
        parse_complex("no header\n1 2 3\n")
    with pytest.raises(ValueError, match="at least one vertex"):
        parse_complex("complex d=0 n=5\n\n\n1\n")
