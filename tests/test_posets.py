"""Pair-facet and grid posets, antichains, ideals, restriction, enumeration."""

from itertools import combinations
from math import comb

import pytest

from neighborly.posets import (
    Antichain,
    antichain_lt,
    componentwise_leq,
    enumerate_antichains,
    format_antichain,
    grid_points,
    grid_to_facet,
    ideal_with_min,
    max_slope_element,
    maximal_elements,
    order_ideal,
    pair_facets,
    parse_antichain,
    restrict,
    shift_down,
)

from oracles import antichain_count_bitmask, antichain_count_powerset

S28 = Antichain(2, 8, ((1, 2, 7, 8), (3, 4, 6, 7)))
T28 = Antichain(2, 8, ((2, 3, 5, 6),))
S28_GRID = Antichain(2, 8, ((1, 6), (3, 5)), grid=True)
GRID_REFUSAL = "ideals, restrictions and balls are built from pair-facet antichains"

# five three-pair facets on [14] forming an antichain; the restriction
# examples below are all read off from this one input
S314 = Antichain(3, 14, (
    (1, 2, 3, 4, 13, 14),
    (1, 2, 6, 7, 11, 12),
    (2, 3, 4, 5, 12, 13),
    (2, 3, 5, 6, 10, 11),
    (2, 3, 7, 8, 9, 10),
))


def test_componentwise_orders():
    assert componentwise_leq((1, 2, 6, 7), (1, 2, 7, 8))
    assert not componentwise_leq((2, 3, 5, 6), (1, 2, 7, 8))
    with pytest.raises(ValueError):
        componentwise_leq((1, 2), (1, 2, 3))


def test_pair_facets_window_one():
    got = pair_facets(2, 1, 6)
    assert got == (
        (1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6),
        (2, 3, 4, 5), (2, 3, 5, 6), (3, 4, 5, 6))


def test_pair_facets_empty_window():
    assert pair_facets(2, 6, 8) == ()
    assert pair_facets(0, 1, 8) == ((),)


def test_pair_facet_counts():
    for k in range(1, 4):
        for n in range(2 * k, 13):
            assert len(pair_facets(k, 1, n)) == comb(n - k, k)


def test_pair_facets_window_translates():
    shifted = tuple(
        tuple(v + 2 for v in f) for f in pair_facets(2, 1, 6))
    assert tuple(sorted(shifted)) == pair_facets(2, 3, 8)


def test_grid_point_counts():
    for k in range(1, 4):
        for n in range(2 * k, 13):
            assert len(grid_points(k, n)) == comb(n - k, k)


def test_grid_facet_bijection():
    assert grid_to_facet((1, 3, 4)) == (1, 2, 4, 5, 6, 7)
    for k in range(1, 4):
        # onto the pair facets, one to one and in lexicographic order
        assert tuple(map(grid_to_facet, grid_points(k, 10))) == pair_facets(k, 1, 10)


def test_grid_map_is_an_order_isomorphism():
    pts = grid_points(2, 9)
    for x, y in combinations(pts, 2):
        assert componentwise_leq(x, y) == componentwise_leq(
            grid_to_facet(x), grid_to_facet(y))


def test_max_slope_element():
    assert max_slope_element(2, 8) == (1, 6)
    assert max_slope_element(3, 10) == (1, 6, 7)
    assert max_slope_element(1, 5) == (1,)
    assert grid_to_facet(max_slope_element(2, 8)) == (1, 2, 7, 8)
    with pytest.raises(ValueError):
        max_slope_element(2, 3)


def test_shift_down():
    assert shift_down(S28).elements == ((2, 3, 5, 6),)
    assert shift_down(Antichain(2, 6, ((1, 2, 5, 6),))).elements == ()
    g = Antichain(2, 8, ((2, 5), (3, 4)), grid=True)
    assert shift_down(g).elements == ((1, 4), (2, 3))


def test_antichain_validation():
    with pytest.raises(ValueError, match="comparable"):
        Antichain(2, 8, ((1, 2, 5, 6), (2, 3, 6, 7)))
    with pytest.raises(ValueError, match="not a pair facet"):
        Antichain(2, 8, ((1, 2, 5, 7),))
    with pytest.raises(ValueError, match="not a grid point"):
        Antichain(2, 8, ((1, 7),), grid=True)
    # sorting and dedup happen on construction
    a = Antichain(2, 8, ((3, 4, 6, 7), (1, 2, 7, 8), (3, 4, 6, 7)))
    assert a.elements == ((1, 2, 7, 8), (3, 4, 6, 7))


def test_antichain_grid_round_trip():
    """An antichain of grid points converts to pair facets; its ideal and
    restrictions are refused with the one text, and it keeps nothing."""
    assert S28_GRID.to_pair_facets() == S28
    assert S28.to_pair_facets() is S28
    for call in (order_ideal, lambda g: ideal_with_min(g, 1), lambda g: ideal_with_min(g, 0),
                 lambda g: ideal_with_min(g, 3), lambda g: restrict(g, (1, 2))):
        with pytest.raises(ValueError, match=GRID_REFUSAL):
            call(S28_GRID)
    assert vars(S28_GRID).keys() == {"k", "n", "elements", "grid"}


def test_antichain_comparisons():
    t_weak = Antichain(2, 8, ((1, 2, 6, 7),))
    assert not antichain_lt(t_weak, S28)
    assert antichain_lt(T28, S28)
    assert antichain_lt(Antichain(2, 8, ()), S28)
    with pytest.raises(ValueError):
        antichain_lt(Antichain(2, 6, ()), S28)


def test_antichain_lt_matches_the_ideal_of_the_shifted_antichain():
    # x lies strictly below a pair facet e exactly when x <= e - 1, and
    # shift_down(s) holds the facets e - 1 that are still pair facets
    for k, n in ((2, 8), (3, 8), (3, 9)):
        chains = list(enumerate_antichains(k, n))
        for s in chains:
            below = order_ideal(shift_down(s.to_pair_facets()))
            assert shift_down(s).to_pair_facets() == shift_down(s.to_pair_facets())
            for t in chains:
                want = all(grid_to_facet(x) in below for x in t)
                assert antichain_lt(t, s) == want, (t, s)
                assert antichain_lt(t.to_pair_facets(), s.to_pair_facets()) == want, (t, s)
            assert not antichain_lt(s, s) or not s


def test_order_ideal_example():
    s = Antichain(2, 6, ((1, 2, 5, 6), (2, 3, 4, 5)))
    assert order_ideal(s) == {
        (1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6), (2, 3, 4, 5)}


def test_ideal_with_min():
    s = Antichain(2, 6, ((1, 2, 5, 6), (2, 3, 4, 5)))
    assert ideal_with_min(s, 2) == {(2, 3, 4, 5)}
    assert ideal_with_min(s, 3) == frozenset()
    with pytest.raises(ValueError):
        ideal_with_min(s, 0)


def test_empty_facet_passes_min_filter():
    zero = Antichain(0, 8, ((),))
    assert ideal_with_min(zero, 5) == {()}


def test_maximal_elements_recover_antichain():
    for s in (S28, T28, S314):
        assert maximal_elements(order_ideal(s)) == s.elements


def test_restrict_examples():
    assert restrict(S314, (1, 2)).elements == (
        (3, 4, 13, 14), (4, 5, 12, 13), (6, 7, 11, 12), (7, 8, 9, 10))
    assert restrict(S314, (2, 3)).elements == (
        (4, 5, 12, 13), (5, 6, 10, 11), (7, 8, 9, 10))
    assert restrict(S314, (3, 4)).elements == ()
    assert restrict(S314, (2, 7)).elements == ((),)
    assert restrict(S314, (3, 8)).elements == ()


def test_restrict_validation():
    with pytest.raises(ValueError):
        restrict(S28, (1, 3))
    with pytest.raises(ValueError):
        restrict(S28, (1, 6))
    with pytest.raises(ValueError, match=GRID_REFUSAL):
        restrict(S28_GRID, (1, 2))


def test_enumerate_antichains_chain_poset():
    """For one pair the poset is a chain, so antichains are empty or singletons."""
    got = list(enumerate_antichains(1, 3))
    assert len(got) == 3
    for n in (5, 9, 14):
        assert sum(1 for _ in enumerate_antichains(1, n)) == n


def test_enumerate_antichains_counts():
    for n in range(6, 13):
        assert sum(1 for _ in enumerate_antichains(2, n)) == 2 ** (n - 3)
    known = {8: 16, 9: 66, 10: 352, 11: 2431}
    for n, want in known.items():
        assert sum(1 for _ in enumerate_antichains(3, n)) == want


def test_enumerate_antichains_against_subset_oracles():
    pinned = {(3, 12): 21_760, (4, 12): 9_304}
    for k, n in ((1, 6), (1, 12), (2, 6), (2, 7), (2, 8), (3, 12), (4, 12)):
        pts = grid_points(k, n)
        want = antichain_count_bitmask(pts, componentwise_leq)
        assert want == pinned.get((k, n), want)
        assert sum(1 for _ in enumerate_antichains(k, n)) == want
        if len(pts) <= 16:
            assert want == antichain_count_powerset(pts, componentwise_leq)


def test_enumerate_antichains_must_contain():
    counts = {6: 2, 8: 8, 10: 32, 12: 128}
    for n, want in counts.items():
        g = max_slope_element(2, n)
        got = list(enumerate_antichains(2, n, must_contain=g))
        assert len(got) == want
        assert all(g in a.elements for a in got)
    assert sum(1 for _ in enumerate_antichains(3, 9, must_contain=(1, 5, 6))) == 11
    # the families of the even k=3 n=13 census and of the shelling benchmark
    for k, n, want in ((3, 13, 19_329), (4, 13, 8_952)):
        got = enumerate_antichains(k, n, must_contain=max_slope_element(k, n))
        assert sum(1 for _ in got) == want


def test_enumerate_antichains_must_contain_any_sequence():
    want = [a.elements for a in enumerate_antichains(2, 8, must_contain=(1, 5))]
    assert [a.elements for a in enumerate_antichains(2, 8, must_contain=[1, 5])] == want
    assert [a.elements for a in enumerate_antichains(2, 8, must_contain=iter((1, 5)))] == want
    with pytest.raises(ValueError, match="not a grid point"):
        enumerate_antichains(2, 8, must_contain=[9, 9])


def test_enumerate_antichains_is_sorted_and_unique():
    got = [a.elements for a in enumerate_antichains(2, 8)]
    assert got == sorted(got)
    assert len(set(got)) == len(got)


def test_enumerate_antichains_validation():
    with pytest.raises(ValueError):
        list(enumerate_antichains(0, 5))
    with pytest.raises(ValueError):
        list(enumerate_antichains(2, 8, must_contain=(9, 9)))


def test_format_and_parse():
    assert format_antichain(S28) == "(1,2,7,8) (3,4,6,7)"
    assert parse_antichain("(1,2,7,8) (3,4,6,7)", 2, 8) == S28
    assert parse_antichain("", 2, 8).elements == ()
    assert parse_antichain("()", 0, 8).elements == ((),)
    with pytest.raises(ValueError):
        parse_antichain("1,2,7,8", 2, 8)
