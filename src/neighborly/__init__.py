"""Squeezed balls, sewn spheres, and checkable certificates."""

from .construct import (
    CensusEntry,
    census,
    census_counts,
    collect_census,
    even_census,
    odd_census,
    sew,
)
from .cyclic import cyclic_boundary
from .faces import (
    Complex,
    Face,
    all_faces,
    boundary_complex,
    complement,
    f_vector,
    format_complex,
    h_vector,
    intersect,
    join,
    link,
    parse_complex,
    z2_reduced_betti,
)
from .posets import (
    Antichain,
    antichain_lt,
    componentwise_leq,
    enumerate_antichains,
    format_antichain,
    grid_points,
    grid_to_facet,
    ideal_with_min,
    max_slope_element,
    order_ideal,
    pair_facets,
    parse_antichain,
    restrict,
    shift_down,
)
from .squeezed import (
    block_D,
    block_Gamma,
    facet_count_relative,
    relative_ball,
    relative_ball_general,
    squeezed_ball,
    verify_decomposition,
    verify_intersection_formula,
)
from .verify import (
    Certificate,
    ball_sanity,
    find_shelling,
    is_i_neighborly,
    is_r_stacked,
    is_shelling,
    k2_shelling,
    sphere_sanity,
)

__version__ = "0.1.0"
