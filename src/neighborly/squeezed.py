"""Squeezed balls from antichains of pair facets, and their relative variants.

The squeezed ball of an antichain S collects every pair facet in the order
ideal of S; filtering the ideal by a minimum label m gives the ball B(S, m).
Removing the ball of a strictly smaller antichain leaves a relative ball.
Relative balls split into blocks by leading pair, and consecutive blocks
meet in a join of a lower-order relative ball with a vertex; both of those
statements are checkable here rather than assumed.

The lemma checks read what each antichain keeps by the `_kept` rule of
`faces` (see `posets`): the block of S - T at j is the part of S's kept
ideal that starts at j (`ideal_by_lead`) less T's, and the decomposition
of B(S, i) compares those parts, for each j >= i, with S's decomposition
pieces (`_decomposition_pieces`), kept once for every j.  The pieces come
from the restrictions of S, the parts from its elements' down-sets, so the
two sides of the check stay independent.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping

from .faces import Complex, Face, _kept, intersect
from .posets import (
    Antichain,
    _run,
    antichain_lt,
    grid_to_facet,
    ideal_by_lead,
    ideal_with_min,
    max_slope_element,
    order_ideal,
    restrict,
    shift_down,
)

_NO_FACETS: frozenset[Face] = frozenset()


def _complex(facets: frozenset[Face]) -> Complex:
    """Complex on a set of pair facets of one size; void when the set is empty."""
    return Complex._trusted(facets) if facets else Complex.void()


def squeezed_ball(s: Antichain, m: int = 1) -> Complex:
    """Ball B(S, m): pair facets below some element of S with labels >= m."""
    if not s.elements:
        raise ValueError("antichain must be non-empty")
    return _complex(ideal_with_min(s, m))


def relative_ball(s: Antichain) -> Complex:
    """Facets of the ball of S that are not in the ball of S shifted down."""
    return _complex(squeezed_ball(s).maximal_faces - order_ideal(shift_down(s)))


def _require_below(s: Antichain, t: Antichain) -> None:
    if not antichain_lt(t, s):
        raise ValueError("subtracted antichain must lie strictly below")


def relative_ball_general(s: Antichain, t: Antichain, i: int = 1) -> Complex:
    """Facets of B(S, i) not in B(T, i), for T strictly below S."""
    _require_below(s, t)
    ball = ideal_with_min(s, i)
    if not ball:
        raise ValueError(f"ball of {s.elements} with minimum label {i} is void")
    return _complex(ball - ideal_with_min(t, i))


def _blocks(s: Antichain, t: Antichain) -> Callable[[int], Complex]:
    """The blocks of S - T by leading label: the block at j is the part of
    S's kept ideal that starts at j less the part of T's."""
    _require_below(s, t)
    if s.k < 1:
        raise ValueError("blocks need at least one pair")
    upper, lower = ideal_by_lead(s), ideal_by_lead(t)
    return lambda j: _complex(upper.get(j, _NO_FACETS) - lower.get(j, _NO_FACETS))


def block_D(s: Antichain, t: Antichain, j: int) -> Complex:
    """Facets of the relative ball whose leading pair starts at j."""
    return _blocks(s, t)(j)


def _common_tails(s: Antichain, t: Antichain, j: int, l: int, m: int) -> frozenset[Face]:
    """The tails of block_Gamma with labels at or after m, as a set.

    For T strictly below S every tail of T is a tail of S, so the complement
    is a plain set difference.
    """
    upper = ideal_with_min(restrict(s, (j + 1, j + 2 * l)), m)
    lower = ideal_with_min(restrict(t, (j, j + 2 * l - 1)), m)
    return upper - lower


def block_Gamma(s: Antichain, t: Antichain, j: int, l: int) -> Complex:
    """Tails common to the blocks at j and j+1, after an initial run of length 2l.

    Collects the pair facets H at or after j+2l+1 with [j+1, j+2l] + H below S
    but [j, j+2l-1] + H not below T; these are the tails along which the two
    blocks meet.
    """
    if not 1 <= l <= s.k:
        raise ValueError(f"run length parameter must be in 1..{s.k}, got {l}")
    _require_below(s, t)
    return _complex(_common_tails(s, t, j, l, j + 2 * l + 1))


@_kept
def _decomposition_pieces(s: Antichain) -> Mapping[int, frozenset[Face]]:
    """For each j in 1..n-1, the pair [j, j+1] joined with each facet of the
    ball of the restriction of S at [j, j+1], filtered to labels >= j+2."""
    return MappingProxyType({
        j: frozenset((j, j + 1) + h for h in ideal_with_min(restrict(s, (j, j + 1)), j + 2))
        for j in range(1, s.n)})


def verify_decomposition(s: Antichain, i: int = 1) -> bool:
    """Check that B(S, i) splits by leading pair into joined lower-order balls.

    Each facet with leading pair [j, j+1] should arise as that pair joined
    with a facet of the ball of the restriction of S at [j, j+1], filtered
    to labels >= j+2.  Both sides split by leading pair, so comparing the
    members of the ideal that start at j with the piece at j, for every
    j >= i, compares the facet sets of B(S, i) exactly.
    """
    if not s.elements:
        raise ValueError("antichain must be non-empty")
    if not 1 <= i < s.n:
        # no pair starts at i or later, so nothing is pieced; ideal_with_min
        # refuses grid antichains and i < 1
        return not ideal_with_min(s, i)
    # refuses grid antichains and k = 0 as the restriction at [i, i+1] does
    _run(s, (i, i + 1))
    split, pieces = ideal_by_lead(s), _decomposition_pieces(s)
    return all(split.get(j, _NO_FACETS) == pieces[j] for j in range(i, s.n))


def verify_intersection_formula(s: Antichain, t: Antichain, j: int) -> bool:
    """Check both stated forms of the intersection of consecutive blocks.

    The blocks at j and j+1 must meet in the join of a vertex at j+1 with a
    relative ball of tails, and equally in the union over run lengths of the
    common-tail complexes joined with initial segments.  Raises when the
    block at j+1 is void, since the statement presumes it is not.
    """
    block = _blocks(s, t)
    dj1 = block(j + 1)
    if dj1.is_void:
        raise ValueError("hypothesis of lemma violated")
    lhs = intersect(block(j), dj1)

    # every face on the right has 2k-1 labels, so each one is maximal
    rhs_join = _complex(frozenset((j + 1,) + h for h in _common_tails(s, t, j, 1, j + 2)))

    rhs_union = _complex(frozenset(
        tuple(range(j + 1, j + 2 * l)) + h
        for l in range(1, s.k + 1)
        for h in _common_tails(s, t, j, l, j + 2 * l + 1)))

    return lhs == rhs_join and lhs == rhs_union


def facet_count_relative(s: Antichain) -> int:
    """Number of facets of the relative ball, certified by an explicit bijection.

    Translating each pair facet of the relative ideal so its smallest label
    becomes 1 must biject onto the ideal of the single distinguished pair
    facet (translating a grid point by c translates its pair facet by c);
    the count is also cross-checked against the built relative ball.  s may
    hold pair facets or grid points.
    """
    g = grid_to_facet(max_slope_element(s.k, s.n))
    pf = s.to_pair_facets()
    if g not in pf.elements:
        raise ValueError("antichain must contain the maximal-slope element")
    band = order_ideal(pf) - order_ideal(shift_down(pf))
    image = {tuple(v - (f[0] - 1) for v in f) for f in band}
    target = order_ideal(Antichain(s.k, s.n, (g,)))
    if len(image) != len(band) or image != target:
        raise RuntimeError("translation bijection failed on the relative ideal")
    built = relative_ball(pf)
    count = 0 if built.is_void else len(built.maximal_faces)
    if count != len(band):
        raise RuntimeError("relative ideal size disagrees with the built ball")
    return len(band)
