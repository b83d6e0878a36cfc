"""Certificates: neighborliness, stackedness, shellings, sphere/ball sanity."""

import json
from itertools import combinations
from math import comb

import pytest

from neighborly.cyclic import cyclic_boundary
from neighborly.faces import Complex, f_vector, h_vector, join
from neighborly.posets import Antichain, enumerate_antichains, max_slope_element, shift_down
from neighborly.squeezed import relative_ball, squeezed_ball
from neighborly.verify import (
    ball_sanity,
    find_shelling,
    is_i_neighborly,
    is_r_stacked,
    is_shelling,
    k2_shelling,
    sphere_sanity,
)

S28 = Antichain(2, 8, ((1, 2, 7, 8), (3, 4, 6, 7)))
T28 = Antichain(2, 8, ((2, 3, 5, 6),))
REL = relative_ball(S28)
FULL = squeezed_ball(S28)
SHELL_ORDER = (
    (1, 2, 7, 8), (1, 2, 6, 7), (2, 3, 6, 7), (3, 4, 6, 7), (3, 4, 5, 6))


def test_neighborly_cyclic():
    cert = is_i_neighborly(cyclic_boundary(4, 8), 2, range(1, 9))
    assert cert.verdict is True
    assert cert.property == "neighborly(2)"


def test_neighborly_relative_ball():
    assert is_i_neighborly(REL, 1, range(1, 9)).verdict is True


def test_neighborly_failure_names_a_witness():
    c = Complex.from_facets([(1, 2, 3)])
    cert = is_i_neighborly(c, 1, range(1, 5))
    assert cert.verdict is False
    assert cert.witness == (4,)


def test_neighborly_guards():
    c = Complex.from_facets([(1, 2, 3)])
    with pytest.raises(ValueError):
        is_i_neighborly(c, 0, range(1, 4))
    with pytest.raises(ValueError):
        is_i_neighborly(c, 1, [1, 2])


def test_stacked_verdicts():
    assert is_r_stacked(REL, 1).verdict is True
    assert is_r_stacked(FULL, 1).verdict is False
    assert is_r_stacked(FULL, 2).verdict is True
    simplex = Complex.from_facets([(1, 2, 3, 4)])
    assert is_r_stacked(simplex, 0).verdict is True
    assert is_r_stacked(squeezed_ball(Antichain(2, 8, ((5, 6, 7, 8),))), 2).verdict is True


def test_stacked_rejects_closed_input():
    with pytest.raises(ValueError, match="closed"):
        is_r_stacked(cyclic_boundary(4, 8), 1)
    with pytest.raises(ValueError):
        is_r_stacked(REL, -1)


def test_stacked_takes_a_point_and_refuses_closed_complexes():
    # a point's boundary is the empty complex, as a closed complex's is
    point = Complex(frozenset({(1,)}))
    assert h_vector(f_vector(point), 1) == (1, 0)
    for r in (0, 1):
        cert = is_r_stacked(point, r)
        assert (cert.verdict, cert.witness) == (True, None)
    for closed in ([(1,), (2,)], combinations(range(1, 5), 3)):
        with pytest.raises(ValueError, match="closed"):
            is_r_stacked(Complex.from_facets(closed), 0)


def test_stacked_failure_witness_is_an_interior_face():
    cert = is_r_stacked(FULL, 1)
    assert cert.verdict is False
    assert cert.witness is not None


def test_shelling_listed_order():
    cert = is_shelling(REL, SHELL_ORDER)
    assert cert.verdict is True
    assert cert.witness == list(SHELL_ORDER)


def test_shelling_reversed_order_also_works():
    assert is_shelling(REL, SHELL_ORDER[::-1]).verdict is True


def test_shelling_disconnected_fails():
    c = Complex.from_facets([(1, 2, 3), (4, 5, 6)])
    cert = is_shelling(c, [(1, 2, 3), (4, 5, 6)])
    assert cert.verdict is False
    assert cert.witness == 1


def test_shelling_requires_a_permutation():
    with pytest.raises(ValueError, match="permutation"):
        is_shelling(REL, SHELL_ORDER[:-1])


def test_find_shelling_on_the_relative_ball():
    cert = find_shelling(REL)
    assert cert.verdict is True
    assert is_shelling(REL, cert.witness).verdict is True


def test_find_shelling_single_facet():
    cert = find_shelling(Complex.from_facets([(1, 2, 3)]))
    assert cert.verdict is True


def test_find_shelling_budget_exhaustion_is_inconclusive():
    cert = find_shelling(cyclic_boundary(4, 8), budget=0)
    assert cert.verdict is None


def test_find_shelling_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        find_shelling(cyclic_boundary(4, 8), budget=-3)


def test_k2_shelling_worked_example():
    assert k2_shelling(S28, T28) == SHELL_ORDER


def test_k2_shelling_with_empty_subtrahend():
    s = Antichain(2, 6, ((1, 2, 5, 6),))
    got = k2_shelling(s, Antichain(2, 6, ()))
    assert got == ((1, 2, 5, 6), (1, 2, 4, 5), (1, 2, 3, 4))


def test_k2_shelling_rejects_other_k():
    s3 = Antichain(3, 9, ((1, 2, 5, 6, 8, 9),))
    with pytest.raises(ValueError, match="k=3"):
        k2_shelling(s3, Antichain(3, 9, ()))


def test_k2_shelling_certified_for_whole_family():
    for n in (6, 7, 8):
        for a in enumerate_antichains(2, n):
            if not a.elements:
                continue
            s = a.to_pair_facets()
            order = k2_shelling(s, shift_down(s))
            assert is_shelling(relative_ball(s), order).verdict is True


def test_sphere_sanity_verdicts():
    assert sphere_sanity(cyclic_boundary(4, 8)).verdict is True
    assert sphere_sanity(Complex.empty()).verdict is True
    open_disk = Complex.from_facets([(1, 2, 3)])
    cert = sphere_sanity(open_disk)
    assert cert.verdict is False
    two_circles = Complex.from_facets(
        [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert sphere_sanity(two_circles).witness == {"reason": "disconnected"}
    rp2 = Complex.from_facets([
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)])
    assert sphere_sanity(rp2).verdict is False


def test_ball_sanity_verdicts():
    cert = ball_sanity(REL)
    assert cert.verdict is True
    assert ball_sanity(Complex.empty()).verdict is False
    closed = ball_sanity(cyclic_boundary(4, 6))
    assert closed.verdict is False and closed.witness == {"reason": "closed"}
    wedge = ball_sanity(Complex.from_facets([(1, 2, 3, 4), (4, 5, 6, 7)]))
    assert wedge.verdict is False and wedge.witness == {"reason": "disconnected"}
    path = Complex.from_facets([(1, 2), (2, 3)])
    assert ball_sanity(path).verdict is True


def test_h_vector_bounds_hold_on_the_family():
    for a in enumerate_antichains(2, 8, must_contain=max_slope_element(2, 8)):
        b = relative_ball(a.to_pair_facets())
        f = f_vector(b)
        h = h_vector(f, 4)
        n = f[1]
        for i, hi in enumerate(h):
            assert 0 <= hi <= comb(n - 4 + i - 1, i)


def test_neighborliness_matches_h_equality():
    """Degree-i neighborliness of a ball is the same as h hitting its cap up to i."""
    for a in enumerate_antichains(2, 8, must_contain=max_slope_element(2, 8)):
        b = relative_ball(a.to_pair_facets())
        f = f_vector(b)
        h = h_vector(f, 4)
        n = f[1]
        verts = b.vertices
        for i in (1, 2):
            by_cert = is_i_neighborly(b, i, verts).verdict
            by_h = all(h[j] == comb(n - 4 + j - 1, j) for j in range(i + 1))
            assert by_cert == by_h


def test_join_adds_stackedness_degrees():
    segment = Complex.from_facets([(9, 10)])
    glued = join(REL, segment)
    assert is_r_stacked(glued, 1).verdict is True
    assert is_r_stacked(glued, 0).verdict is False


def test_certificates_serialize_to_json():
    cert = is_i_neighborly(Complex.from_facets([(1, 2, 3)]), 1, range(1, 5))
    blob = json.dumps(cert.as_dict())
    assert json.loads(blob) == {
        "property": "neighborly(1)", "verdict": False, "witness": [4]}
