"""Squeezed and relative balls, their block decomposition, and the facet count."""

import pytest

from neighborly import squeezed
from neighborly.cyclic import cyclic_boundary
from neighborly.faces import (
    Complex,
    f_vector,
    h_vector,
    intersect,
    z2_reduced_betti,
)
from neighborly.posets import Antichain, enumerate_antichains, max_slope_element, restrict, shift_down
from neighborly.squeezed import (
    block_D,
    block_Gamma,
    facet_count_relative,
    relative_ball,
    relative_ball_general,
    squeezed_ball,
    verify_decomposition,
    verify_intersection_formula,
)

S28 = Antichain(2, 8, ((1, 2, 7, 8), (3, 4, 6, 7)))
T28 = Antichain(2, 8, ((2, 3, 5, 6),))
# the same antichains as grid points: the j-th pair starts at x_j + j - 1
S28_GRID = Antichain(2, 8, ((1, 6), (3, 5)), grid=True)
T28_GRID = Antichain(2, 8, ((2, 4),), grid=True)
GRID_REFUSAL = "ideals, restrictions and balls are built from pair-facet antichains"
REL_FACETS = frozenset({
    (1, 2, 6, 7), (1, 2, 7, 8), (2, 3, 6, 7), (3, 4, 5, 6), (3, 4, 6, 7)})

S314 = Antichain(3, 14, (
    (1, 2, 3, 4, 13, 14),
    (1, 2, 6, 7, 11, 12),
    (2, 3, 4, 5, 12, 13),
    (2, 3, 5, 6, 10, 11),
    (2, 3, 7, 8, 9, 10),
))


def test_squeezed_ball_small():
    s = Antichain(2, 6, ((1, 2, 5, 6), (2, 3, 4, 5)))
    got = squeezed_ball(s)
    assert got.maximal_faces == frozenset(
        {(1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6), (2, 3, 4, 5)})


def test_squeezed_ball_from_restriction():
    tails = restrict(S314, (2, 3))
    got = squeezed_ball(tails, 6)
    assert got.maximal_faces == frozenset(
        {(6, 7, 8, 9), (6, 7, 9, 10), (7, 8, 9, 10)})


def test_squeezed_ball_degenerate_inputs():
    assert squeezed_ball(Antichain(2, 4, ((1, 2, 3, 4),)), 2).is_void
    with pytest.raises(ValueError, match="non-empty"):
        squeezed_ball(Antichain(2, 8, ()))
    with pytest.raises(ValueError, match=GRID_REFUSAL):
        squeezed_ball(S28_GRID)
    # an empty antichain is refused as empty in either form
    with pytest.raises(ValueError, match="non-empty"):
        squeezed_ball(Antichain(2, 8, (), grid=True))


def test_relative_ball_worked_example():
    assert relative_ball(S28).maximal_faces == REL_FACETS


def test_relative_ball_when_shift_vanishes():
    s = Antichain(2, 6, ((1, 2, 5, 6),))
    got = relative_ball(s)
    assert got == squeezed_ball(s)
    assert len(got.maximal_faces) == 3


def test_relative_ball_single_edge():
    s = Antichain(1, 4, ((3, 4),))
    assert relative_ball(s).maximal_faces == frozenset({(3, 4)})


def test_relative_ball_general_min_start_two():
    got = relative_ball_general(S28, T28, 2)
    assert got.maximal_faces == frozenset(
        {(2, 3, 6, 7), (3, 4, 5, 6), (3, 4, 6, 7)})


def test_relative_ball_general_matches_relative_ball():
    for a in enumerate_antichains(2, 8):
        if not a.elements:
            continue
        s = a.to_pair_facets()
        assert relative_ball_general(s, shift_down(s), 1) == relative_ball(s)


def test_relative_ball_general_is_a_path_for_one_pair():
    s = Antichain(1, 6, ((5, 6),))
    t = Antichain(1, 6, ((2, 3),))
    got = relative_ball_general(s, t, 1)
    assert got.maximal_faces == frozenset({(3, 4), (4, 5), (5, 6)})
    assert z2_reduced_betti(got) == (0, 0, 0)


def test_relative_ball_general_guards():
    with pytest.raises(ValueError, match="strictly below"):
        relative_ball_general(S28, Antichain(2, 8, ((1, 2, 6, 7),)), 1)
    tall = Antichain(2, 8, ((1, 2, 3, 4),))
    with pytest.raises(ValueError, match="void"):
        relative_ball_general(tall, Antichain(2, 8, ()), 2)


def test_grid_antichains_are_refused():
    assert S28_GRID.to_pair_facets() == S28 and T28_GRID.to_pair_facets() == T28
    for build in (lambda s, t: relative_ball_general(s, t, 1), lambda s, t: block_D(s, t, 1),
                  lambda s, t: block_Gamma(s, t, 1, 1),
                  lambda s, t: verify_intersection_formula(s, t, 1),
                  lambda s, t: relative_ball(s), lambda s, t: verify_decomposition(s, 1),
                  lambda s, t: verify_decomposition(s, 8)):
        with pytest.raises(ValueError, match=GRID_REFUSAL):
            build(S28_GRID, T28_GRID)
    assert vars(S28_GRID).keys() == vars(T28_GRID).keys() == {"k", "n", "elements", "grid"}


def test_blocks_by_leading_pair():
    assert block_D(S28, T28, 1).maximal_faces == frozenset(
        {(1, 2, 6, 7), (1, 2, 7, 8)})
    assert block_D(S28, T28, 2).maximal_faces == frozenset({(2, 3, 6, 7)})
    assert block_D(S28, T28, 3).maximal_faces == frozenset(
        {(3, 4, 5, 6), (3, 4, 6, 7)})
    assert block_D(S28, T28, 5).is_void


def test_blocks_cover_the_relative_ball():
    rel = relative_ball_general(S28, T28, 1)
    union = set()
    for j in range(1, 8):
        d = block_D(S28, T28, j)
        if not d.is_void:
            union |= d.maximal_faces
    assert union == rel.maximal_faces


def test_block_gamma_values():
    assert block_Gamma(S28, T28, 1, 1).maximal_faces == frozenset({(6, 7)})
    assert block_Gamma(S28, T28, 1, 2).is_void
    with pytest.raises(ValueError):
        block_Gamma(S28, T28, 1, 3)


def test_verify_decomposition():
    assert verify_decomposition(S28, 1)
    assert verify_decomposition(S28, 2)
    assert verify_decomposition(S314, 1)
    assert verify_decomposition(Antichain(1, 4, ((3, 4),)), 2)
    with pytest.raises(ValueError):
        verify_decomposition(Antichain(2, 8, ()), 1)


def test_intersection_formula_worked_example():
    assert verify_intersection_formula(S28, T28, 1)
    assert verify_intersection_formula(S28, T28, 2)
    meet = intersect(block_D(S28, T28, 1), block_D(S28, T28, 2))
    assert meet.maximal_faces == frozenset({(2, 6, 7)})


def test_intersection_formula_one_pair_meets_in_a_vertex():
    s = Antichain(1, 6, ((5, 6),))
    t = Antichain(1, 6, ((2, 3),))
    assert verify_intersection_formula(s, t, 3)
    meet = intersect(block_D(s, t, 3), block_D(s, t, 4))
    assert meet.maximal_faces == frozenset({(4,)})


def test_intersection_formula_requires_next_block():
    with pytest.raises(ValueError, match="hypothesis of lemma violated"):
        verify_intersection_formula(S28, T28, 4)


def test_facet_count_values():
    assert facet_count_relative(S28) == facet_count_relative(S28_GRID) == 5
    assert facet_count_relative(Antichain(3, 10, ((1, 2, 7, 8, 9, 10),))) == 15
    assert facet_count_relative(Antichain(2, 6, ((1, 2, 5, 6),))) == 3


def test_facet_count_requires_distinguished_element():
    with pytest.raises(ValueError, match="maximal-slope"):
        facet_count_relative(T28)


def test_facet_count_refuses_a_doctored_ideal(monkeypatch):
    """Dropping the top element of S from S's ideal breaks the translation
    bijection onto the ideal of the distinguished pair facet."""
    real = squeezed.order_ideal
    monkeypatch.setattr(squeezed, "order_ideal",
                        lambda a: real(a) - {max(a.elements)} if a == S28 else real(a))
    with pytest.raises(RuntimeError, match="translation bijection failed"):
        facet_count_relative(S28)


@pytest.mark.parametrize("dropped", [1, 5], ids=["one-facet", "every-facet"])
def test_facet_count_refuses_a_doctored_ball(monkeypatch, dropped):
    """A built relative ball with facets missing disagrees with the count."""
    real = squeezed.relative_ball

    def doctored(a):
        kept = sorted(real(a).maximal_faces)[dropped:]
        return Complex.from_facets(kept) if kept else Complex.void()

    monkeypatch.setattr(squeezed, "relative_ball", doctored)
    with pytest.raises(RuntimeError, match="relative ideal size disagrees"):
        facet_count_relative(S28)


def test_relative_ball_h_vector_tail_vanishes():
    for k, n in ((2, 8), (2, 10), (3, 9)):
        g = max_slope_element(k, n)
        for a in enumerate_antichains(k, n, must_contain=g):
            b = relative_ball(a.to_pair_facets())
            h = h_vector(f_vector(b), 2 * k)
            assert all(x == 0 for x in h[k:]), (a.elements, h)


def test_general_relative_ball_h_tail():
    """One extra nonzero entry is allowed when the lower antichain is arbitrary."""
    s = S28
    for t_elems in (((2, 3, 5, 6),), ((2, 3, 4, 5),), ()):
        t = Antichain(2, 8, t_elems)
        b = relative_ball_general(s, t, 1)
        h = h_vector(f_vector(b), 4)
        assert all(x == 0 for x in h[3:]), (t_elems, h)


def test_relative_ball_lives_in_the_cyclic_antistar():
    for k, n in ((2, 6), (2, 7), (3, 8)):
        # the 2k-facets of the antistar of n + 1: the facets avoiding n + 1
        hull = {f for f in cyclic_boundary(2 * k, n + 1).maximal_faces if n + 1 not in f}
        g = max_slope_element(k, n)
        for a in enumerate_antichains(k, n, must_contain=g):
            b = relative_ball(a.to_pair_facets())
            assert b.maximal_faces <= hull
