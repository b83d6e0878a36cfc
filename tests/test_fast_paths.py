"""Fast paths against slow references: the clearing GF(2) kernel relative to a
star, a sewn sphere's Betti numbers against its ambient's, the sphere
certificate `sew` gives it from its parts, the face-link check that licenses
it and the strong connectivity that shares its flood, each census sphere's
neighborliness taken from its ball's certificates (with the even census's
one ambient check, and the full check when a ball certificate fails), the
ridge-holder table and the ridge map (with its order), boundary and errors
read off it, the face walk (f-vectors, face sets, face tests,
neighborliness and the stackedness skeleton) against face levels built
from facet subsets and against the closure oracles, the sanity
certificates against one walk per condition, the maximal-face rule, order
ideals (whole or from a minimum label), restrictions and pair facets built
from down-sets (against runs built by `range`), maximal elements in one
pass against a scan of every pair, what each antichain keeps (its order
ideal, the ideal's split by leading label, its decomposition pieces) kept
once, the lemma checks that read it against whole-set references and
failing on doctored tables, the facet count of a relative ball on pair
facets against the count on grid points, every ideal, restriction and
ball refusing an antichain of grid points with one guard, the shelling
step on facet bitmasks against gap and meet references, `is_shelling`
against the gap reference, the shelling search on its own stack against a
recursive one, each census ball decoded from
its mask of the ambient's facets against the relative ball, each census
ball's patch in its ambient (shelling certificate, boundary, f-vector,
h-vector, neighborliness and stackedness from one walk) against the full
checks, with the walks and eliminations a census runs, its fallbacks to
the full checks and the masks and holders of its balls it never builds,
intersections on vertex masks against common faces and against the
pairwise meets as tuples, and antichain enumeration over comparability masks; every unchecked result against the checked
constructor; and what a complex keeps staying out of equality, hashing,
repr and pickles, and being kept once and never after an error."""

import copy
import operator
import pickle
import random
import re
from itertools import chain, combinations, product, repeat

import pytest

from neighborly import construct, faces, verify
from neighborly.cli import run
from neighborly.construct import census, collect_census, even_census, odd_census, sew
from neighborly.cyclic import cyclic_boundary
from neighborly.faces import (
    Complex,
    all_faces,
    boundary_complex,
    complement,
    f_vector,
    h_vector,
    intersect,
    join,
    link,
    links_strongly_connected,
    ridge_facets,
    strongly_connected,
    z2_reduced_betti,
)
from neighborly.posets import (
    Antichain,
    _down_set,
    antichain_lt,
    componentwise_leq,
    enumerate_antichains,
    grid_points,
    grid_to_facet,
    ideal_by_lead,
    ideal_with_min,
    max_slope_element,
    maximal_elements,
    order_ideal,
    pair_facets,
    restrict,
    shift_down,
)
from neighborly.squeezed import (
    _decomposition_pieces,
    block_D,
    facet_count_relative,
    relative_ball,
    relative_ball_general,
    verify_decomposition,
    verify_intersection_formula,
)
from neighborly.verify import (
    Certificate,
    ball_sanity,
    find_shelling,
    is_i_neighborly,
    is_r_stacked,
    is_shelling,
    sphere_sanity,
)

from oracles import closure_faces, f_vector_by_closure, ridge_multiplicities


def slow_gf2_rank(columns):
    basis = {}
    for v in columns:
        while v:
            h = v.bit_length() - 1
            if h in basis:
                v ^= basis[h]
            else:
                basis[h] = v
                break
    return len(basis)


def slow_z2_reduced_betti(c):
    """Full elimination of every boundary matrix, no clearing."""
    dim = c.dimension
    by_dim = [sorted(f for f in closure_faces(c.facets) if len(f) == size)
              for size in range(dim + 2)]
    index = [{f: i for i, f in enumerate(fs)} for fs in by_dim]
    ranks = [0] * (dim + 3)
    for i in range(dim + 1):
        cols = []
        for f in by_dim[i + 1]:
            mask = 0
            for sub in combinations(f, i):
                mask |= 1 << index[i][sub]
            cols.append(mask)
        ranks[i + 1] = slow_gf2_rank(cols)
    return tuple(len(by_dim[i + 1]) - ranks[i + 1] - ranks[i + 2] for i in range(-1, dim + 1))


def scan_neighborly(c, i, verts):
    """Verdict and witness by scanning every facet for every i-subset."""
    for sub in combinations(sorted(set(verts)), i):
        if not any(set(sub) <= set(m) for m in c.maximal_faces):
            return False, sub
    return True, None


def random_complexes(seed, count, pure):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 8)
        dim = rng.randint(0, min(4, n - 1))
        facets = []
        for _ in range(rng.randint(1, 10)):
            size = dim + 1 if pure else rng.randint(1, dim + 1)
            facets.append(rng.sample(range(1, n + 1), size))
        out.append(Complex.from_facets(facets))
    return out


def random_non_pure(seed, count):
    """Complexes with facets of several sizes; no facet lies in another, so
    some faces of the smaller facets are faces of no larger one."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 9)
        top = rng.randint(2, min(5, n))
        facets = [rng.sample(range(1, n + 1), rng.randint(1, top)) for _ in range(rng.randint(2, 10))]
        facets.append(rng.sample(range(1, n + 1), top))
        c = Complex.from_facets(facets)
        if not c.is_pure:
            out.append(c)
    return out


PURE = random_complexes(11, 60, pure=True)
MIXED = random_complexes(12, 60, pure=False)
NON_PURE = random_non_pure(16, 60)
CENSUS_BALLS = [e.ball for e in even_census(3, 9)]
CENSUS = [c for e in even_census(3, 9) for c in (e.ball, boundary_complex(e.ball), e.sphere)]
ODD_CENSUS = [c for e in odd_census(3, 9) for c in (e.ball, e.sphere)]


TETRA_BOUNDARY = list(combinations(range(1, 5), 3))
# the seven-vertex torus: Z/2 Betti numbers 1, 2, 1
TORUS = [tuple(sorted(((i + a) % 7 + 1 for a in offsets)))
         for i in range(7) for offsets in ((0, 1, 3), (0, 2, 3))]
# the six-vertex projective plane: every vertex lies in five triangles
RP2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
       (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def polygon(m):
    return [(1, m)] + [(v, v + 1) for v in range(1, m)]


def disjoint_union(*facet_lists):
    """The complexes side by side, each on labels above the last one's."""
    out = []
    for facets in facet_lists:
        shift = max((v for f in out for v in f), default=0)
        out += [tuple(v + shift for v in f) for f in facets]
    return Complex.from_facets(out)


# every facet holds the apex 9, so the relative complex has no cells
CONES = [Complex.from_facets(f + (9,) for f in c.facets)
         for c in PURE + MIXED + [Complex.empty()]]
# the busiest vertex lies in one sphere only, so its star misses the other
TWO_SPHERES = [disjoint_union(a, b) for a, b in [
    (TETRA_BOUNDARY, TETRA_BOUNDARY),
    (TETRA_BOUNDARY, cyclic_boundary(3, 7).facets),
    (cyclic_boundary(3, 7).facets, TETRA_BOUNDARY),
    (polygon(5), TETRA_BOUNDARY),
    (cyclic_boundary(4, 7).facets, polygon(4)),
]]
# several vertices in the most facets
TIED = [Complex.from_facets(fs) for fs in [
    TETRA_BOUNDARY, polygon(3), polygon(6), [(1, 2), (2, 3), (3, 4)],
    [(1, 2, 3), (3, 4, 5), (1, 5, 6)], [(2, 5, 7), (1, 5, 7), (3, 4)],
    [(1, 3), (2, 3), (1, 4), (2, 4), (5,)],
]]
POINTS = ([Complex.from_facets((v,) for v in range(1, m + 1)) for m in range(1, 6)]
          + [Complex.from_facets([(3,), (7,)])])
SURFACES = [Complex(frozenset(TORUS)), Complex(frozenset(RP2))]
CYCLIC = [Complex(cyclic_boundary(d, n).maximal_faces)
          for d in range(2, 8) for n in range(d + 1, 11)]
CENSUS_4_10 = [c for e in even_census(4, 10) for c in (e.ball, boundary_complex(e.ball), e.sphere)]


@pytest.mark.parametrize("complexes", [PURE, MIXED, NON_PURE, CENSUS, ODD_CENSUS, CONES,
                                       TWO_SPHERES, TIED, POINTS, SURFACES, CYCLIC,
                                       CENSUS_4_10],
                         ids=["pure", "mixed", "non-pure", "census", "odd-census", "cones",
                              "two-spheres", "tied", "points", "surfaces", "cyclic",
                              "census-4-10"])
def test_clearing_betti_matches_full_elimination(complexes):
    for c in complexes:
        assert z2_reduced_betti(c) == slow_z2_reduced_betti(c), c.facets


def test_ridge_map_matches_multiplicity_oracle():
    for c in PURE + CENSUS:
        incidence = ridge_facets(c)
        assert {r: len(ms) for r, ms in incidence.items()} == dict(ridge_multiplicities(c.facets))
        for r, ms in incidence.items():
            assert list(ms) == sorted(ms)
            assert all(set(r) < set(m) for m in ms)


def faces_of_size(c, size):
    """Every face with exactly `size` vertices, in order of first appearance
    over the sorted facets."""
    return dict.fromkeys(chain.from_iterable(map(combinations, c.facets, repeat(size)))).keys()


def neighborly_by_levels(c, i, vertex_set):
    """Verdict and witness by looking every i-subset up in the level of faces
    of size i."""
    faces = faces_of_size(c, i)
    for sub in combinations(sorted(set(vertex_set)), i):
        if sub not in faces:
            return False, sub
    return True, None


def stacked_skeleton_by_levels(b, r):
    """The skeleton step of stackedness by face levels: the least face of the
    smallest size up to dim - r that is not a face of the boundary, or None."""
    bd = boundary_complex(b)
    for size in range(b.dimension - r + 1):
        missing = faces_of_size(b, size) - faces_of_size(bd, size)
        if missing:
            return min(missing)
    return None


def half_subcomplexes(seed, complexes, rounds=3):
    """Complexes on a random half of the facets of each given complex."""
    rng = random.Random(seed)
    return [Complex._trusted(frozenset(rng.sample(c.facets, max(1, len(c.facets) // 2))))
            for c in complexes for _ in range(rounds)]


HALVES = half_subcomplexes(21, CENSUS + ODD_CENSUS)


def test_neighborly_lookup_matches_facet_scan():
    """Verdict and witness of the facet-mask lookup against a scan of the
    facets and against the face level, with degrees up to above the
    dimension and above the number of vertices."""
    cases = [(c, i) for c in PURE + MIXED + HALVES for i in range(1, c.dimension + 3)]
    cases += [(c, i) for c in CENSUS + ODD_CENSUS for i in (2, 3, 4)]
    cases += [(Complex.empty(), 1), (Complex.empty(), 2), (Complex.empty(), 4)]
    verdicts = set()
    for c, i in cases:
        top = max(c.vertices, default=0)
        for verts in (c.vertices, range(1, top + 2), range(1, top + 4)):
            for degree in (i, len(verts) + 1):
                cert = is_i_neighborly(c, degree, verts)
                want = scan_neighborly(c, degree, verts)
                assert want == neighborly_by_levels(Complex._trusted(c.maximal_faces), degree, verts)
                assert (cert.verdict, cert.witness) == want, (c.facets, degree, list(verts))
                verdicts.add(want[0])
    assert verdicts == {True, False}


def test_facet_masks_match_face_levels_for_the_stacked_skeleton():
    """Where the skeleton and h-vector checks disagree (the half subcomplexes
    are seldom balls) the error names the skeleton verdict."""
    outcomes = set()
    for b in CENSUS_BALLS + [e.ball for e in odd_census(3, 9)] + HALVES:
        for r in range(b.dimension + 1):
            want = stacked_skeleton_by_levels(Complex._trusted(b.maximal_faces), r)
            try:
                cert = is_r_stacked(b, r)
            except RuntimeError as exc:
                assert f"(skeleton {want is None}," in str(exc), (b.facets, r)
                outcomes.add(("disagree", want is None))
            else:
                assert (cert.verdict, cert.witness) == (want is None, want), (b.facets, r)
                outcomes.add(("agree", want is None))
    assert outcomes >= {("agree", True), ("agree", False), ("disagree", True)}


def stacked_by_levels(b, r):
    """Verdict and witness of stackedness from the skeleton reference, or the
    error: ValueError when the boundary rule refuses b or b is closed, and
    RuntimeError when the h-vector disagrees."""
    try:
        bd = boundary_complex(b)
    except ValueError:
        return ValueError
    if bd.is_empty and len(b.maximal_faces) > 1:
        return ValueError
    missing = stacked_skeleton_by_levels(b, r)
    h = h_vector(f_vector_by_closure(b.facets), b.dimension + 1)
    if (missing is None) != all(x == 0 for x in h[r + 1:]):
        return RuntimeError
    return missing is None, missing


def stacked_outcome(b, r):
    try:
        cert = is_r_stacked(b, r)
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    return cert.verdict, cert.witness


# census balls and spheres, half-facet subcomplexes of them, a point (whose
# boundary is the empty complex), a simplex, two points (closed), and seeded
# random pure, mixed and non-pure complexes
WALK_CORPUS = (CENSUS + ODD_CENSUS + HALVES + NON_PURE + [Complex.empty()]
               + [Complex(frozenset(f)) for f in (((1,),), ((1, 2, 3, 4),), ((1,), (2,)))]
               + random_complexes(31, 150, pure=True) + random_complexes(32, 150, pure=False))


def test_face_walk_matches_closure_and_level_references():
    """f-vectors, skeleta, face tests, neighborliness and stackedness read off
    the mask walk against the closure oracles, face levels built from facet
    subsets and a subset scan, with vertex sets two labels above the top."""
    rng = random.Random(33)
    seen = set()
    for c in WALK_CORPUS:
        closure = closure_faces(c.facets)
        assert f_vector(c) == f_vector_by_closure(c.facets), c.facets
        for k in range(-1, c.dimension + 2):
            assert all_faces(c, k) == {t for t in closure if len(t) <= k + 1}, (c.facets, k)
        verts = range(1, max(c.vertices, default=0) + 3)
        for vertex_set in (c.vertices, verts):
            for i in range(1, c.dimension + 3):
                cert = is_i_neighborly(c, i, vertex_set)
                want = neighborly_by_levels(Complex._trusted(c.maximal_faces), i, vertex_set)
                assert (cert.verdict, cert.witness) == want, (c.facets, i, vertex_set)
                seen.add(("neighborly", want[0]))
        if c.is_pure:
            for r in range(c.dimension + 2):
                want = stacked_by_levels(Complex._trusted(c.maximal_faces), r)
                assert stacked_outcome(c, r) == want, (c.facets, r)
                seen.add(("stacked", want if isinstance(want, type) else want[0]))
        tests = list(closure) + [tuple(rng.sample(verts, rng.randint(0, len(verts))))
                                 for _ in range(40)]
        for t in tests:
            want = any(set(t) <= set(m) for m in c.maximal_faces)
            assert (t in c) == want, (c.facets, t)
            seen.add(("in", want))
    assert seen == {("neighborly", True), ("neighborly", False), ("stacked", True),
                    ("stacked", False), ("stacked", ValueError), ("stacked", RuntimeError),
                    ("in", True), ("in", False)}


def test_derived_record_stays_out_of_equality_hash_repr_and_pickle():
    for e in even_census(2, 8):
        ball, sphere = e.ball, e.sphere
        ball_sanity(ball)
        is_r_stacked(ball, 1)
        is_i_neighborly(ball, 1, range(1, 9))
        find_shelling(ball)
        sphere_sanity(sphere)
        is_i_neighborly(sphere, 2, range(1, 10))
        for c in (ball, boundary_complex(ball), sphere):
            f_vector(c)
            ridge_facets(c)
            z2_reduced_betti(c)
            check = ball_sanity if c is ball else sphere_sanity
            assert check(c) == check(c)
            fresh = Complex(c.maximal_faces)
            assert c == fresh and hash(c) == hash(fresh)
            assert repr(c) == repr(fresh)
            assert len(pickle.dumps(c)) == len(pickle.dumps(fresh))
            twin = pickle.loads(pickle.dumps(c))
            assert twin == c and vars(twin) == {"maximal_faces": c.maximal_faces}


# an annulus of six triangles between the triangles 1 2 3 and 4 5 6
ANNULUS = [(1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6)]
DISJOINT = TETRA_BOUNDARY + [tuple(v + 4 for v in f) for f in TETRA_BOUNDARY]
# two tetrahedron boundaries sharing vertex 1: H~_0 = 0, top Betti number 2
PINCHED = TETRA_BOUNDARY + [tuple(v + 3 if v > 1 else v for v in f) for f in TETRA_BOUNDARY]
THREE_ON_A_RIDGE = [(1, 2, 3), (1, 2, 4), (1, 2, 5)]
SANITY_CASES = [
    (sphere_sanity, TETRA_BOUNDARY, True, None),
    (sphere_sanity, DISJOINT, False, {"reason": "disconnected"}),
    (sphere_sanity, THREE_ON_A_RIDGE, False, {"ridge": (1, 2), "facet_count": 3}),
    (sphere_sanity, TORUS, False, {"betti": (0, 0, 2, 1)}),
    (sphere_sanity, [(1, 2, 3)], False, {"ridge": (1, 2), "facet_count": 1}),
    (ball_sanity, [(1, 2, 3), (2, 3, 4)], True, None),
    (ball_sanity, TETRA_BOUNDARY, False, {"reason": "closed"}),
    (ball_sanity, [(1, 2, 3), (4, 5, 6)], False, {"reason": "disconnected"}),
    (ball_sanity, THREE_ON_A_RIDGE, False, {"ridge": (1, 2), "facet_count": 3}),
    (ball_sanity, ANNULUS, False, {"betti": (0, 0, 1, 0)}),
    (sphere_sanity, PINCHED, False, {"reason": "disconnected"}),
    # dimensions 0 and 1, where the ridges are the empty face or vertices
    (ball_sanity, [(1,)], True, None),
    (ball_sanity, [(1,), (2,)], False, {"reason": "closed"}),
    (sphere_sanity, [(1,), (2,)], True, None),
    (ball_sanity, [(1, 2), (2, 3)], True, None),
    (ball_sanity, [(1, 2), (3, 4)], False, {"reason": "disconnected"}),
    (ball_sanity, [(1, 2), (1, 3), (2, 3)], False, {"reason": "closed"}),
    (sphere_sanity, [(1, 2), (1, 3), (2, 3)], True, None),
]


@pytest.mark.parametrize("check, facets, verdict, witness", SANITY_CASES)
def test_sanity_certificate_from_record_matches_a_fresh_check(check, facets, verdict, witness):
    c = Complex(frozenset(facets))
    first = check(c)
    assert (first.verdict, first.witness) == (verdict, witness)
    assert check(c) == first
    assert check(Complex(frozenset(facets))) == first


VOID = Complex.void()
# void, empty and not pure: the complexes with no ridge holders
REFUSED_RIDGES = [VOID, Complex.empty(), Complex.from_facets([(1, 2, 3), (3, 4)])]
# each cached property of Complex and each function of faces that keeps its
# result, with the complexes it refuses
KEPT = [("dimension", [VOID]), ("is_pure", []), ("facets", [VOID]), ("vertices", [VOID]),
        (faces.vertex_masks, [VOID]), (f_vector, [VOID]),
        (faces._ridge_holders, REFUSED_RIDGES), (faces._ridge_degrees, REFUSED_RIDGES),
        (faces._step_pairs, REFUSED_RIDGES[::2]), (ridge_facets, REFUSED_RIDGES),
        (boundary_complex, REFUSED_RIDGES + [Complex.from_facets(THREE_ON_A_RIDGE)]),
        (links_strongly_connected, REFUSED_RIDGES), (z2_reduced_betti, [VOID])]


@pytest.mark.parametrize("derive, refused", KEPT,
                         ids=[getattr(derive, "__name__", derive) for derive, _ in KEPT])
def test_each_derived_structure_is_kept_once_and_never_after_an_error(derive, refused):
    """The second call returns the object the first kept under its name; a
    refused call raises again and keeps nothing; copies and pickles keep
    nothing but the facets.  The kept functions are those listed, and none
    shares its name with an attribute of Complex."""
    kept = {name for name, f in vars(faces).items() if hasattr(f, "__wrapped__")}
    assert kept == {f.__name__ for f, _ in KEPT if callable(f)}
    name = getattr(derive, "__name__", derive)
    assert callable(derive) != hasattr(Complex, name)
    get = derive if callable(derive) else lambda c: getattr(c, name)
    c = Complex(frozenset([(1, 2, 3), (2, 3, 4)]))
    first = get(c)
    assert get(c) is first and vars(c)[name] is first
    for bad in refused:
        bad = Complex._trusted(bad.maximal_faces)
        for _ in range(2):
            with pytest.raises(ValueError):
                get(bad)
            assert name not in vars(bad)
    for twin in (pickle.loads(pickle.dumps(c)), copy.copy(c)):
        assert twin == c and vars(twin) == {"maximal_faces": c.maximal_faces}


EVEN_GRID = [(2, n) for n in range(6, 13)] + [(3, n) for n in range(8, 11)] + [(4, 10), (4, 11)]


def even_balls(k, n):
    """The relative ball of every entry of the even census, in family order."""
    return [relative_ball(a.to_pair_facets())
            for a in enumerate_antichains(k, n, must_contain=max_slope_element(k, n))]


@pytest.mark.parametrize("k, n", EVEN_GRID)
def test_sewn_betti_match_the_ambient_and_full_elimination(k, n):
    """Also: each entry's sphere certificate, the one `sew` gives without a
    check on the result, is the full `sphere_sanity` of a fresh copy of its
    sphere."""
    delta = cyclic_boundary(2 * k, n)
    for ball, entry in zip(even_balls(k, n), even_census(k, n), strict=True):
        sphere = sew(delta, ball, n + 1)
        sewn = z2_reduced_betti(sphere)
        fresh = Complex._trusted(sphere.maximal_faces)
        assert sewn == slow_z2_reduced_betti(sphere) == z2_reduced_betti(delta), ball.facets
        assert sewn == z2_reduced_betti(fresh)
        assert sphere_sanity(sphere).as_dict() == sphere_sanity(fresh).as_dict()
        assert entry.sphere == sphere
        assert entry.certificates[-1] == sphere_sanity(fresh)


def test_sewn_sphere_record_holds_no_ridge_map_or_face_levels(monkeypatch):
    """Under the link condition neither `sew` nor the sewn sphere's
    neighborliness check builds the sphere's ridge map or asks whether it is
    closed, and no face levels are kept; without it `sew` runs
    `sphere_sanity`, which reads that the sphere is closed off its ridge
    degrees and builds no ridge map for a sphere that passes."""
    delta = cyclic_boundary(6, 9)
    for ball in even_balls(3, 9):
        sphere = sew(delta, ball, 10)
        assert is_i_neighborly(sphere, 3, range(1, 11)).verdict is True
        assert "ridge_facets" not in vars(sphere) and "faces" not in vars(sphere)
        assert "_ridge_degrees" not in vars(sphere)
    monkeypatch.setattr(construct, "links_strongly_connected", lambda c: False)
    for ball in even_balls(3, 9):
        kept = vars(sew(delta, ball, 10))
        assert kept["_ridge_degrees"] == {2} and "ridge_facets" not in kept


def recording_calls(monkeypatch, module, name, *bindings):
    """The first argument of every call of module.name, in call order, through
    every module that binds the name."""
    real = getattr(module, name)
    calls = []

    def recorded(c, *args, **kwargs):
        calls.append(c)
        return real(c, *args, **kwargs)
    for where in (module, *bindings):
        monkeypatch.setattr(where, name, recorded)
    return calls


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_census_builds_no_masks_or_holders_of_a_ball(monkeypatch, parity):
    """A census entry reads its ball off what the ambient keeps: it builds no
    vertex masks or ridge holders of the ball or of its boundary, and so no
    ridge map.  The full stackedness check, which runs only when the patch
    cannot decide, reads the ball's ridge holders, never its ridge map."""
    delta = cyclic_boundary(6, 10)
    masked = recording_calls(monkeypatch, faces, "vertex_masks")
    held = recording_calls(monkeypatch, faces, "_ridge_holders", verify)
    entries = collect_census(parity, 3, 10)
    assert len(entries) == 50
    assert all(c is delta for c in masked + held)
    monkeypatch.undo()
    for ball in even_balls(3, 9):
        assert is_r_stacked(ball, 2).verdict is True
        assert "ridge_facets" not in vars(ball) and "_ridge_holders" in vars(ball)
        assert "ridge_facets" not in vars(boundary_complex(ball))
        assert ball_sanity(ball).verdict is True and "ridge_facets" not in vars(ball)


@pytest.mark.parametrize("parity, whole", [("even", 2), ("odd", 1)])
def test_census_walks_each_ball_once_and_checks_the_ambient_once(monkeypatch, parity, whole):
    """On a fresh ambient, each entry walks its ball's faces once, as the
    ambient's faces within the ball's facets.  The ambient is walked whole
    for its link check, once, and for the even census's neighborliness
    check, once; it is eliminated once by the even census (`sew`'s sphere
    check) and never by the odd one, whose argument needs no homology."""
    fresh = Complex._trusted(cyclic_boundary(6, 10).maximal_faces)
    monkeypatch.setattr(construct, "cyclic_boundary", lambda d, n: fresh)
    real = faces._walk
    walks = []

    def counting(c, within=-1):
        walks.append((c, within))
        return real(c, within)
    monkeypatch.setattr(faces, "_walk", counting)
    monkeypatch.setattr(verify, "_walk", counting)
    entries, eliminations = counting_eliminations(
        monkeypatch, lambda: collect_census(parity, 3, 10))
    assert len(entries) == 50
    assert [c for c, within in walks if within == -1] == [fresh] * whole
    within = [(c, bits) for c, bits in walks if bits != -1]
    assert len(within) == len({bits for _, bits in within}) == 50
    assert all(c is fresh for c, _ in within)
    assert (eliminations > 0) == (parity == "even")
    kept = vars(fresh)
    assert kept["_ridge_degrees"] == {2} and kept["links_strongly_connected"] is True
    # the shelling steps' pairs are the ambient's, kept on it
    assert "_step_pairs" in kept


def counting_eliminations(monkeypatch, call):
    """What call() returns, and the number of GF(2) eliminations it ran."""
    real = faces._gf2_pivots
    calls = []
    monkeypatch.setattr(faces, "_gf2_pivots", lambda columns: calls.append(1) or real(columns))
    out = call()
    monkeypatch.setattr(faces, "_gf2_pivots", real)
    return out, len(calls)


def sew_counting_eliminations(monkeypatch, delta, ball, new_vertex):
    """The sewn sphere and the number of GF(2) eliminations sewing it ran,
    with the records of delta and the ball filled beforehand."""
    sphere_sanity(delta)
    ball_sanity(ball)
    return counting_eliminations(monkeypatch, lambda: sew(delta, ball, new_vertex))


def test_sew_eliminates_only_without_the_link_condition(monkeypatch):
    """Under the link condition `sew` runs no elimination, and the sewn
    sphere's own Betti numbers are its ambient's, as Mayer-Vietoris says."""
    delta = cyclic_boundary(6, 9)
    composed = [sew_counting_eliminations(monkeypatch, delta, ball, 10)
                for ball in even_balls(3, 9)]
    monkeypatch.setattr(construct, "links_strongly_connected", lambda c: False)
    computed = [sew_counting_eliminations(monkeypatch, delta, ball, 10)
                for ball in even_balls(3, 9)]
    assert len(composed) == 11
    for (sphere, eliminations), (again, own_eliminations) in zip(composed, computed):
        assert eliminations == 0
        assert own_eliminations > 0
        assert again == sphere
        assert z2_reduced_betti(again) == z2_reduced_betti(sphere) == z2_reduced_betti(delta)


def test_census_eliminates_only_the_ambient_once(monkeypatch):
    """While every ball shells, the even census runs the eliminations of its
    ambient sphere, once, and the odd census runs none."""
    delta = cyclic_boundary(6, 10)
    _, ambient = counting_eliminations(
        monkeypatch, lambda: z2_reduced_betti(Complex._trusted(delta.maximal_faces)))
    fresh = Complex._trusted(delta.maximal_faces)
    monkeypatch.setattr(construct, "cyclic_boundary", lambda d, n: fresh)
    runs = [counting_eliminations(monkeypatch, lambda: collect_census(parity, 3, 10))
            for parity in ("even", "even", "odd")]
    assert [len(entries) for entries, _ in runs] == [50, 50, 50]
    assert [count for _, count in runs] == [ambient, 0, 0]
    assert ambient > 0


def test_census_falls_back_to_the_eliminations_when_the_search_fails(monkeypatch):
    """With the shelling search failing, `sew`'s patch guard runs the full ball
    check and the odd entry the full sphere check; entries are unchanged."""
    for parity in ("even", "odd"):
        want = collect_census(parity, 3, 9)
        monkeypatch.setattr(verify, "_shell", lambda steps, every, budget: (None, []))
        got, count = counting_eliminations(monkeypatch, lambda: collect_census(parity, 3, 9))
        monkeypatch.undo()
        assert count >= 2 * len(want)
        assert [(e.antichain, e.ball, e.sphere) for e in got] == [
            (e.antichain, e.ball, e.sphere) for e in want]
        assert [[c.as_dict() for c in e.certificates] for e in got] == [
            [c.as_dict() for c in e.certificates] for e in want]


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_census_without_the_link_condition_runs_the_full_checks(monkeypatch, parity):
    """With the ambient's link condition refused, every entry runs the full
    ball, stackedness, neighborliness and sphere checks, and the entries are
    unchanged; so is the error of an entry whose stackedness is refused."""
    want = collect_census(parity, 3, 9)
    monkeypatch.setattr(verify, "links_strongly_connected", lambda c: False)
    monkeypatch.setattr(construct, "links_strongly_connected", lambda c: False)
    checked = recording_neighborliness(monkeypatch)
    stacked = recording_calls(monkeypatch, construct, "is_r_stacked")
    got, count = counting_eliminations(monkeypatch, lambda: collect_census(parity, 3, 9))
    assert count >= len(want)
    assert [(e.antichain, e.ball, e.sphere) for e in got] == [
        (e.antichain, e.ball, e.sphere) for e in want]
    assert [[c.as_dict() for c in e.certificates] for e in got] == [
        [c.as_dict() for c in e.certificates] for e in want]
    assert checked[1 if parity == "even" else 0:] == stacked == [e.ball for e in want]
    bad = want[4]
    real = construct.is_r_stacked
    monkeypatch.setattr(construct, "is_r_stacked", lambda b, r: (
        Certificate(f"stacked({r})", False) if b == bad.ball else real(b, r)))
    with pytest.raises(RuntimeError) as err:
        collect_census(parity, 3, 9)
    assert str(err.value) == (
        f"certificates ['stacked(2)'] failed for antichain {bad.antichain.elements}")


ODD_GRID = [(2, n) for n in range(4, 12)] + [(3, n) for n in range(6, 11)] + [
    (4, n) for n in range(8, 12)]


@pytest.mark.parametrize("parity, k, n", [("even", k, n) for k, n in EVEN_GRID]
                         + [("odd", k, n) for k, n in ODD_GRID])
def test_sphere_neighborliness_from_the_ball_matches_the_full_check(parity, k, n):
    degree, top = (k, n + 1) if parity == "even" else (k - 1, n)
    for entry in census(parity, k, n):
        fresh = Complex._trusted(entry.sphere.maximal_faces)
        assert entry.certificates[2] == is_i_neighborly(fresh, degree, range(1, top + 1))


def recording_neighborliness(monkeypatch):
    """The complexes `construct` checks for neighborliness, in call order."""
    checked = []
    real = construct.is_i_neighborly
    monkeypatch.setattr(construct, "is_i_neighborly",
                        lambda c, i, verts: checked.append(c) or real(c, i, verts))
    return checked


def test_census_walks_no_sphere_and_checks_the_ambient_once(monkeypatch):
    """While both ball certificates hold, no sewn sphere is checked or given
    vertex masks, and no ball is checked on its own (the patch certifies
    it); the ambient is checked once, before the first entry."""
    checked = recording_neighborliness(monkeypatch)
    sewn = []
    real_sew = construct.sew
    monkeypatch.setattr(construct, "sew", lambda *args, **kwargs: sewn.append(
        real_sew(*args, **kwargs)) or sewn[-1])
    stream = census("even", 3, 9)
    assert checked == [cyclic_boundary(6, 9)] and not sewn
    entries = list(stream)
    assert len(entries) == len(sewn) == 11
    assert checked == [cyclic_boundary(6, 9)]
    assert all("vertex_masks" not in vars(sphere) for sphere in sewn)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_failed_ball_certificate_falls_back_to_the_full_sphere_check(monkeypatch, parity):
    """With the stackedness of the fifth ball refused, the full check runs on
    that entry's sphere and the census stops with the error it always gave."""
    entries = collect_census(parity, 3, 9)
    bad = entries[4]
    checked = recording_neighborliness(monkeypatch)
    # the patch cannot decide that ball, so the full stackedness check runs
    real_patch = construct._patch
    bad_bits = facet_mask(cyclic_boundary(6, 9), bad.ball)
    monkeypatch.setattr(construct, "_patch", lambda delta, bits: (
        None if bits == bad_bits else real_patch(delta, bits)))
    real = construct.is_r_stacked
    monkeypatch.setattr(construct, "is_r_stacked", lambda b, r: (
        Certificate(f"stacked({r})", False) if b == bad.ball else real(b, r)))
    want = f"certificates ['stacked(2)'] failed for antichain {bad.antichain.elements}"
    with pytest.raises(RuntimeError) as err:
        collect_census(parity, 3, 9)
    assert str(err.value) == want
    others = {cyclic_boundary(6, 9)} | {e.ball for e in entries}
    assert [c for c in checked if c not in others] == [bad.sphere]


def test_census_refuses_an_ambient_that_is_not_neighborly(monkeypatch, capsys):
    """The boundary of the 4-dimensional cross-polytope passes the sphere
    check but is not 2-neighborly: the even census on it fails before its
    first entry, and the command exits 1."""
    cross = Complex.from_facets(product((1, 2), (3, 4), (5, 6), (7, 8)))
    assert sphere_sanity(cross).verdict is True
    monkeypatch.setattr(construct, "cyclic_boundary", lambda d, n: cross)
    with pytest.raises(RuntimeError, match="not 2-neighborly"):
        census("even", 2, 8)
    assert run(["census", "--parity", "even", "--k", "2", "--n", "8"]) == 1
    assert capsys.readouterr().out == ""


def strongly_connected_by_meets(c):
    """Facets joined by chains of facets that share all but one vertex."""
    fs = c.facets
    seen, queue = {fs[0]}, [fs[0]]
    for f in queue:
        for g in fs:
            if g not in seen and len(set(f) & set(g)) == len(f) - 1:
                seen.add(g)
                queue.append(g)
    return len(seen) == len(fs)


def links_connected_by_meets(c):
    """Every face's link, built by `link`, checked by facet meets."""
    return all(strongly_connected_by_meets(link(c, t))
               for size in range(c.dimension + 2) for t in faces_of_size(c, size))


def test_polytope_boundaries_have_strongly_connected_links():
    for d in range(2, 9):
        for n in range(d + 1, 13):
            assert links_strongly_connected(cyclic_boundary(d, n)), (d, n)
    for n in range(1, 9):
        assert links_strongly_connected(Complex.from_facets(combinations(range(1, n + 2), n)))


# closed pseudomanifolds: two spheres sharing a vertex, an edge or a triangle,
# and two spheres apart
PINCHED_COMPLEXES = [Complex.from_facets(fs) for fs in [
    PINCHED,
    list(combinations(range(1, 6), 4)) + [(1, 2, 6, 7), (1, 2, 6, 8), (1, 2, 7, 8),
                                          (1, 6, 7, 8), (2, 6, 7, 8)],
    list(combinations(range(1, 7), 5)) + [(1, 2, 3, 7, 8), (1, 2, 3, 7, 9), (1, 2, 3, 8, 9),
                                          (1, 2, 7, 8, 9), (1, 3, 7, 8, 9), (2, 3, 7, 8, 9)],
    DISJOINT,
]]


def test_pinched_complexes_fail_the_link_check():
    for c in PINCHED_COMPLEXES:
        assert not links_strongly_connected(c), c.facets
        assert not links_connected_by_meets(c), c.facets


def test_link_check_matches_links_checked_by_meets():
    cases = PURE + CENSUS + ODD_CENSUS + SURFACES + PINCHED_COMPLEXES
    cases += [c for c in TWO_SPHERES if c.is_pure]
    # and two triangles sharing only a vertex
    cases += [Complex(frozenset(facets))
              for facets in (ANNULUS, THREE_ON_A_RIDGE, [(1, 2, 3), (3, 4, 5)])]
    verdicts = set()
    for c in cases:
        want, whole = links_connected_by_meets(c), strongly_connected_by_meets(c)
        assert links_strongly_connected(c) == want, c.facets
        assert links_strongly_connected(Complex(c.maximal_faces)) == want, c.facets
        assert strongly_connected(c) == whole, c.facets
        verdicts.add((want, whole))
    assert verdicts == {(True, True), (False, True), (False, False)}


def ridge_map_by_combinations(facets, size):
    """Each face of the given size, with the facets that hold it, in order of
    first appearance over the facets."""
    out = {}
    for f in facets:
        for t in combinations(f, size):
            out.setdefault(t, []).append(f)
    return out


def scan_holding(c, t):
    """The mask of the sorted facets of c that hold t, by a scan of the facets."""
    return sum(1 << j for j, f in enumerate(c.facets) if set(t) <= set(f))


ONE_FACET = [Complex.from_facets([f]) for f in [(1,), (4,), (1, 2), (2, 5, 7), (1, 3, 4, 8)]]
RIDGE_CORPUS = (PURE + CENSUS + CYCLIC + POINTS + PINCHED_COMPLEXES + ONE_FACET
                + [Complex(frozenset(THREE_ON_A_RIDGE)), Complex(frozenset(ANNULUS))])


def test_ridge_holders_match_combinations_and_a_facet_scan():
    """Everything read off the ridge-holder table, on fresh copies: the ridge
    map in its order, each holder, the boundary and both connectivity
    checks."""
    outcomes = set()
    for c in RIDGE_CORPUS:
        c = Complex._trusted(c.maximal_faces)
        want = {r: tuple(ms) for r, ms in ridge_map_by_combinations(c.facets, c.dimension).items()}
        assert list(ridge_facets(c).items()) == list(want.items()), c.facets
        for r, ms in want.items():
            assert ms == tuple(f for f in c.facets if set(r) <= set(f)), (c.facets, r)
        assert faces._ridge_holders(c) == tuple(
            tuple(scan_holding(c, f[:i] + f[i + 1:]) for i in range(len(f))) for f in c.facets)
        if any(len(ms) > 2 for ms in want.values()):
            with pytest.raises(ValueError, match="^not a pseudomanifold$"):
                boundary_complex(c)
            outcomes.add("not a pseudomanifold")
        else:
            bd = frozenset(r for r, ms in want.items() if len(ms) == 1)
            assert boundary_complex(c) == (Complex(bd) if bd else Complex.empty()), c.facets
            outcomes.add("closed" if not bd else "boundary")
        whole, links = strongly_connected_by_meets(c), links_connected_by_meets(c)
        assert (strongly_connected(c), links_strongly_connected(c)) == (whole, links), c.facets
        outcomes.add((whole, links))
    assert outcomes == {"not a pseudomanifold", "closed", "boundary",
                        (True, True), (True, False), (False, False)}


@pytest.mark.parametrize("check", [ridge_facets, faces._ridge_holders, boundary_complex,
                                   strongly_connected, links_strongly_connected])
def test_ridge_layer_refuses_void_empty_and_non_pure(check):
    void = "void complex has no facets" if check is strongly_connected else "void has no faces"
    for c, message in [(Complex.void(), void),
                       (Complex.empty(), "no ridges in the empty complex")] + [
                          (c, "ridge counting requires a pure complex") for c in NON_PURE[:10]]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(Complex._trusted(c.maximal_faces))


def connected_by_second_walk(c):
    """Facet-ridge connectivity by union-find, in a walk of its own."""
    parent = {f: f for f in c.facets}

    def root(f):
        while parent[f] != f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    components = len(parent)
    for ms in ridge_facets(c).values():
        first = root(ms[0])
        for other in ms[1:]:
            r = root(other)
            if r != first:
                parent[r] = first
                components -= 1
    return components <= 1


def sphere_certificate_by_walks(c):
    """The sphere certificate with one walk per condition and early returns."""
    name = "sphere-homology"
    if c.is_empty:
        return Certificate(name, True)
    for r, ms in ridge_facets(c).items():
        if len(ms) != 2:
            return Certificate(name, False, witness={"ridge": r, "facet_count": len(ms)})
    if not connected_by_second_walk(c):
        return Certificate(name, False, witness={"reason": "disconnected"})
    betti = z2_reduced_betti(c)
    if betti != (0,) * (len(betti) - 1) + (1,):
        return Certificate(name, False, witness={"betti": betti})
    return Certificate(name, True)


def ball_certificate_by_walks(c):
    """The ball certificate with one walk per condition and early returns."""
    name = "ball-homology"
    if c.is_empty:
        return Certificate(name, False, witness={"reason": "no facets of dimension >= 0"})
    boundary_seen = False
    for r, ms in ridge_facets(c).items():
        if len(ms) > 2:
            return Certificate(name, False, witness={"ridge": r, "facet_count": len(ms)})
        boundary_seen = boundary_seen or len(ms) == 1
    if not boundary_seen:
        return Certificate(name, False, witness={"reason": "closed"})
    if not connected_by_second_walk(c):
        return Certificate(name, False, witness={"reason": "disconnected"})
    betti = z2_reduced_betti(c)
    if any(betti):
        return Certificate(name, False, witness={"betti": betti})
    sub = sphere_certificate_by_walks(boundary_complex(c))
    if sub.verdict is not True:
        return Certificate(name, False, witness={"boundary": sub.as_dict()})
    return Certificate(name, True)


def test_one_ridge_walk_matches_a_walk_per_condition():
    cases = [Complex(frozenset(facets)) for _, facets, _, _ in SANITY_CASES]
    cases += PURE + CENSUS + ODD_CENSUS + [Complex.empty()]
    outcomes = set()
    for c in cases:
        for fast, slow in ((sphere_sanity, sphere_certificate_by_walks),
                           (ball_sanity, ball_certificate_by_walks)):
            want = slow(c)
            assert fast(c) == want, (fast.__name__, c.facets)
            w = want.witness or {}
            outcomes.add((want.property, want.verdict, tuple(w), w.get("reason")))
    # every verdict and every kind of witness is reached
    assert outcomes == {
        ("sphere-homology", True, (), None),
        ("sphere-homology", False, ("ridge", "facet_count"), None),
        ("sphere-homology", False, ("reason",), "disconnected"),
        ("sphere-homology", False, ("betti",), None),
        ("ball-homology", True, (), None),
        ("ball-homology", False, ("reason",), "no facets of dimension >= 0"),
        ("ball-homology", False, ("ridge", "facet_count"), None),
        ("ball-homology", False, ("reason",), "closed"),
        ("ball-homology", False, ("reason",), "disconnected"),
        ("ball-homology", False, ("betti",), None),
        ("ball-homology", False, ("boundary",), None),
    }


def maximal_by_scan(collection):
    """The faces of the collection that are a proper subset of no other face."""
    fs = set(collection)
    return frozenset(f for f in fs if not any(set(f) < set(g) for g in fs))


def random_face_collections(seed, count):
    """Seeded face collections: pure, of several sizes, with repeats, with the
    empty face, and empty."""
    rng = random.Random(seed)
    out = [[], [()], [(), ()], [(), (1,)], [(1, 2), (1, 2)]]
    while len(out) < count:
        n = rng.randint(1, 8)
        sizes = [rng.randint(0, n)] if rng.random() < 0.3 else range(n + 1)
        fs = [tuple(sorted(rng.sample(range(1, n + 1), rng.choice(sizes))))
              for _ in range(rng.randint(1, 12))]
        fs += rng.sample(fs, rng.randint(0, len(fs)))  # repeats
        out.append(fs)
    return out


def test_maximal_matches_superset_scan():
    for fs in random_face_collections(17, 400):
        assert faces._maximal(fs) == maximal_by_scan(fs), fs
        assert faces._maximal(iter(fs)) == maximal_by_scan(fs), fs


def trusted_complexes():
    """Every complex the census builds without the constructor's checks."""
    out = []
    for parity in ("even", "odd"):
        serial = collect_census(parity, 3, 9)
        for e, pooled in zip(serial, collect_census(parity, 3, 9, jobs=2), strict=True):
            ball = relative_ball(e.antichain)
            out += [ball, boundary_complex(ball), e.ball, e.sphere, pooled.ball, pooled.sphere]
            if parity == "even":
                out.append(sew(cyclic_boundary(6, 9), ball, 10))
    return out


def operation_results(seed, complexes):
    """Seeded links, joins, complements, intersections and generated complexes
    built from the given complexes."""
    rng = random.Random(seed)
    out = []
    for c in complexes:
        if c.is_void:
            continue
        other = rng.choice(complexes)
        top = max(c.vertices, default=0)
        shifted = other if other.is_void else Complex.from_facets(
            tuple(v + top for v in f) for f in other.maximal_faces)
        some = rng.sample(sorted(c.maximal_faces), rng.randint(1, len(c.maximal_faces)))
        out += [link(c, rng.choice(c.facets)[:rng.randint(0, c.dimension + 1)]),
                join(shifted, c),  # the higher labels first
                intersect(c, other),
                Complex.from_facets(f[:rng.randint(0, len(f))] for f in some)]
        if c.is_pure:
            out.append(complement(c, Complex.from_facets(some)))
    return [c for c in out if not c.is_void]


def test_trusted_complexes_pass_the_checked_constructor():
    built = trusted_complexes()
    assert len(built) == 7 * len(CENSUS_BALLS) + 6 * len(ODD_CENSUS) // 2
    built += operation_results(18, PURE + MIXED + NON_PURE + [Complex.void(), Complex.empty()])
    built += operation_results(19, CENSUS + ODD_CENSUS)
    built += [cyclic_boundary(d, n) for d, n in ((2, 5), (3, 6), (4, 8), (5, 9), (6, 10), (7, 11))]
    for c in built:
        assert Complex(c.maximal_faces) == c
    for c in (Complex.void(), Complex.empty(), built[0]):
        assert pickle.loads(pickle.dumps(c)) == c
    with pytest.raises(ValueError):
        Complex(frozenset({(3, 1, 2)}))


def loop_pair_facets(k, m, n):
    """Pair facets by substituting c_t = i_t - (t-1) in the gap-2 pair starts."""
    if k < 0 or m < 1:
        raise ValueError(f"bad parameters k={k}, m={m}")
    if k == 0:
        return ((),)
    out = []
    for c in combinations(range(m, n - k + 1), k):
        starts = tuple(c[t] + t for t in range(k))
        out.append(tuple(v for i in starts for v in (i, i + 1)))
    return tuple(sorted(out))


def scan_maximal(xs):
    """Maximal members of a set of equal-length tuples, sorted, by comparing
    every pair."""
    pool = set(xs)
    return tuple(sorted(
        x for x in pool
        if not any(x != y and componentwise_leq(x, y) for y in pool)))


def scan_order_ideal(s):
    """Every pair facet lying below some element of s."""
    return frozenset(x for x in loop_pair_facets(s.k, 1, s.n)
                     if any(componentwise_leq(x, e) for e in s))


def scan_restrict(s, interval):
    """Maximal tails after the run, read off the scanned order ideal."""
    j, hi = interval
    length = hi - j + 1
    if length < 2 or length % 2 or j < 1:
        raise ValueError(f"need an even interval [j, j+2l-1] with j >= 1, got {interval}")
    l = length // 2
    if l > s.k:
        raise ValueError(f"interval longer than the facets: {interval}")
    run = tuple(range(j, j + 2 * l))
    tails = [x[2 * l:] for x in scan_order_ideal(s)
             if x[:2 * l] == run and (len(x) == 2 * l or x[2 * l] >= j + 2 * l)]
    return Antichain(s.k - l, s.n, scan_maximal(tails))


def random_antichains(seed):
    """Seeded pair-facet antichains for k = 0..3 and n <= 10, n < 2k included."""
    rng = random.Random(seed)
    out = [Antichain(0, 4, ()), Antichain(0, 4, ((),)), Antichain(2, 3, ()), Antichain(3, 5, ())]
    for k in range(4):
        for n in range(11):
            pool = loop_pair_facets(k, 1, n)
            for _ in range(6):
                picked = rng.sample(pool, rng.randint(0, min(len(pool), 5)))
                out.append(Antichain(k, n, scan_maximal(picked)))
    return out


ANTICHAINS = random_antichains(13)


def grid_form(s):
    """The antichain of grid points that s, of pair facets, is the image of:
    the j-th pair of a facet starts at x_j + j - 1."""
    return Antichain(s.k, s.n, tuple(tuple(f[2 * j] - j for j in range(s.k)) for f in s), grid=True)


GRID_REFUSAL = (ValueError, "ideals, restrictions and balls are built from pair-facet antichains")


def assert_grid_refused(call, g):
    """call(g) on an antichain g of grid points gets the one refusal, twice,
    and g keeps nothing."""
    for _ in range(2):
        assert told(call, g) == GRID_REFUSAL, (call, g)
        assert vars(g).keys() == FIELDS, (call, g)


def outcome(fn, *args):
    """The result, or ValueError when the call rejects its arguments."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def test_pair_facets_match_substitution_loop():
    for k in range(-1, 5):
        for n in range(11):
            for m in range(n + 3):
                assert outcome(pair_facets, k, m, n) == outcome(loop_pair_facets, k, m, n), (k, m, n)


def test_order_ideal_matches_poset_scan():
    for s in ANTICHAINS:
        assert order_ideal(s) == scan_order_ideal(s), s
        assert_grid_refused(order_ideal, grid_form(s))


def test_ideal_with_min_matches_filtered_scan():
    for s in ANTICHAINS:
        ideal = scan_order_ideal(s)
        for m in range(1, s.n + 3):
            want = frozenset(x for x in ideal if not x or x[0] >= m)
            assert ideal_with_min(s, m) == want, (s, m)
        g = grid_form(s)
        for m in range(0, s.n + 3):
            assert_grid_refused(lambda a: ideal_with_min(a, m), g)


MIXED_LENGTHS = re.compile(r"cannot compare tuples of lengths (\d+) and (\d+)")


def maximal_outcome(fn, xs, feed=list):
    """The maximal members of feed(xs), or for mixed lengths whether the
    error names two different lengths of the input in the message both
    rules share.  Which pair the all-pairs scan names depends on the set's
    iteration order."""
    try:
        return fn(feed(xs))
    except ValueError as err:
        named = MIXED_LENGTHS.fullmatch(str(err))
        assert named, err
        a, b = map(int, named.groups())
        return ValueError, a != b and {a, b} <= set(map(len, xs))


def random_tuple_collections(seed, count):
    """Seeded collections of small tuples: of one length, with repeats, of
    mixed lengths, with the empty tuple, and empty."""
    rng = random.Random(seed)
    out = [[], [()], [(), ()], [(), (1,)], [(2, 1), (1, 2), (2, 1)], [(1, 2), (3,), (4, 5, 6)]]
    while len(out) < count:
        lengths = rng.sample(range(5), 1 if rng.random() < 0.7 else rng.randint(2, 3))
        top = rng.randint(1, 6)
        xs = [tuple(rng.randint(1, top) for _ in range(rng.choice(lengths)))
              for _ in range(rng.randint(1, 14))]
        xs += rng.sample(xs, rng.randint(0, len(xs)))  # repeats
        out.append(xs)
    return out


def test_maximal_elements_match_pair_scan():
    for xs in random_tuple_collections(23, 1500):
        want = maximal_outcome(scan_maximal, xs)
        assert maximal_outcome(maximal_elements, xs) == want, xs
        assert maximal_outcome(maximal_elements, xs, iter) == want, xs
        assert want == (ValueError, True) or len(set(map(len, xs))) <= 1, xs


FIELDS = {"k", "n", "elements", "grid"}


KEPT_ON_ANTICHAINS = {"order_ideal", "ideal_by_lead", "_decomposition_pieces"}


def test_order_ideal_is_kept_once_and_never_after_an_error():
    """A second call of order_ideal, ideal_by_lead or _decomposition_pieces
    returns the object the first kept, and ideal_with_min from 1 reads the
    ideal; a refused call raises again and keeps nothing, and an antichain of
    grid points gets the one refusal from each; equality, hashing, repr,
    pickles and copies read the four fields only."""
    for s in ANTICHAINS:
        a = copy.copy(s)
        elsewhere = Antichain(a.k, a.n + 1, ())
        refused = [lambda: ideal_with_min(a, 0), lambda: verify_decomposition(a, 0),
                   lambda: block_D(a, elsewhere, 1)]
        # no restriction of an antichain with no pair, and none at all for n < 2
        pieces_refused = a.k == 0 and a.n >= 2
        if pieces_refused:
            refused.append(lambda: _decomposition_pieces(a))
        for call in refused:
            for _ in range(2):
                with pytest.raises(ValueError):
                    call()
                assert vars(a).keys() == FIELDS, (a, call)
        first = order_ideal(a)
        assert order_ideal(a) is first and vars(a)["order_ideal"] is first
        assert ideal_with_min(a, 1) is first
        split = ideal_by_lead(a)
        assert ideal_by_lead(a) is split and vars(a)["ideal_by_lead"] is split
        kept = {"order_ideal", "ideal_by_lead"}
        if not pieces_refused:
            pieces = _decomposition_pieces(a)
            assert _decomposition_pieces(a) is pieces
            assert vars(a)["_decomposition_pieces"] is pieces
            kept = KEPT_ON_ANTICHAINS
        assert vars(a).keys() == FIELDS | kept, a
        fresh = Antichain(a.k, a.n, a.elements)
        assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
        assert len(pickle.dumps(a)) == len(pickle.dumps(fresh))
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a)):
            assert twin == a and vars(twin).keys() == FIELDS
        grid_calls = [order_ideal, ideal_by_lead, lambda g: ideal_with_min(g, 1),
                      lambda g: ideal_with_min(g, 0), lambda g: restrict(g, (1, 2))]
        if s.n >= 2:
            grid_calls.append(_decomposition_pieces)
        g = grid_form(s)
        for call in grid_calls:
            assert_grid_refused(call, g)


def test_blocks_read_the_ideals_kept_on_both_antichains():
    for g in enumerate_antichains(3, 9, must_contain=max_slope_element(3, 9)):
        s = g.to_pair_facets()
        t = shift_down(s)
        kept = None
        for j in range(1, s.n):
            d = block_D(s, t, j)
            assert KEPT_ON_ANTICHAINS - {"_decomposition_pieces"} <= vars(s).keys() & vars(t).keys(), (s, j)
            now = tuple(vars(a)[name] for a in (s, t) for name in ("order_ideal", "ideal_by_lead"))
            assert kept is None or all(map(operator.is_, now, kept)), (s, j)
            kept = now
            want = now[1].get(j, frozenset()) - now[3].get(j, frozenset())
            assert d.is_void or d.maximal_faces == want == {x for x in now[0] - now[2] if x[0] == j}
        assert relative_ball_general(s, t).maximal_faces == kept[0] - kept[2]


def scan_down_set(top, lo=1):
    """Pair facets below top from label lo, each pair built by tuple(range(...))."""
    out = [()]
    for t in top[::2]:
        out = [x + tuple(range(i, i + 2))
               for x in out for i in range(x[-1] + 1 if x else lo, t + 1)]
    return out


def scan_decomposition(s, i):
    """The decomposition check on whole facet sets, with every restriction
    from i on built for this i alone."""
    if not s.elements:
        raise ValueError("antichain must be non-empty")
    direct = ideal_with_min(s, i)
    pieced = {(j, j + 1) + h
              for j in range(i, s.n)
              for h in ideal_with_min(restrict(s, (j, j + 1)), j + 2)}
    return direct == pieced


def scan_block(s, t, j):
    """The block at j filtered out of the whole relative ideal."""
    if not antichain_lt(t, s):
        raise ValueError("subtracted antichain must lie strictly below")
    if s.k < 1:
        raise ValueError("blocks need at least one pair")
    facets = frozenset(x for x in order_ideal(s) - order_ideal(t) if x[0] == j)
    return Complex(facets) if facets else Complex.void()


def meet_intersect(a, b):
    """The maximal pairwise meets of the two facet lists, as tuples, kept by
    a scan of every pair."""
    if a.is_void or b.is_void:
        return Complex.void()
    # the vertices of a sorted facet that lie in another form an increasing tuple
    b_sets = [set(fb) for fb in b.maximal_faces]
    return Complex(maximal_by_scan(
        tuple(filter(sb.__contains__, fa)) for fa in a.maximal_faces for sb in b_sets))


def scan_intersection(s, t, j):
    """The intersection formula on blocks filtered out of the relative ideal."""
    dj1 = scan_block(s, t, j + 1)
    if dj1.is_void:
        raise ValueError("hypothesis of lemma violated")
    lhs = meet_intersect(scan_block(s, t, j), dj1)

    def tails(l, m):
        return (ideal_with_min(restrict(s, (j + 1, j + 2 * l)), m)
                - ideal_with_min(restrict(t, (j, j + 2 * l - 1)), m))

    def complex_of(facets):
        return Complex(frozenset(facets)) if facets else Complex.void()

    rhs_join = complex_of({(j + 1,) + h for h in tails(1, j + 2)})
    rhs_union = complex_of({tuple(range(j + 1, j + 2 * l)) + h
                            for l in range(1, s.k + 1) for h in tails(l, j + 2 * l + 1)})
    return lhs == rhs_join and lhs == rhs_union


def told(fn, *args):
    """The result, or the type and text of the error the call raises."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


def test_down_set_matches_range_runs():
    """Down-sets of pair facets against runs built by `range`, and against the
    grid points below the grid point of each top, which grid_to_facet maps
    onto them in order; the ideal of that grid point gets the one refusal."""
    for k in range(5):
        for n in range(2 * k + 5):
            for top in loop_pair_facets(k, 1, n):
                for lo in range(1, n + 2):
                    assert _down_set(top, lo) == scan_down_set(top, lo), (top, lo)
            points = grid_points(k, n)
            for x in points:
                for lo in range(1, n + 2):
                    below = [grid_to_facet(y) for y in points
                             if componentwise_leq(y, x) and (not y or y[0] >= lo)]
                    assert _down_set(grid_to_facet(x), lo) == below, (x, lo)
                assert_grid_refused(order_ideal, Antichain(k, n, (x,), grid=True))


def seeded_lemma_pairs(seed, count, k=4, n=12):
    """Seeded pairs (S, T) with S non-empty and T the maximal elements of up
    to three points strictly below S, in pair-facet form."""
    rng = random.Random(seed)
    chains = [a for a in enumerate_antichains(k, n) if a.elements]
    points = grid_points(k, n)
    for _ in range(count):
        s = rng.choice(chains)
        below = [p for p in points if any(all(map(operator.lt, p, e)) for e in s)]
        picked = rng.sample(below, rng.randint(0, min(3, len(below))))
        yield s.to_pair_facets(), Antichain(k, n, scan_maximal(picked), grid=True).to_pair_facets()


def assert_lemmas_match_the_references(s, t, intersections):
    for j in range(s.n + 1):
        assert told(block_D, s, t, j) == told(scan_block, s, t, j), (s, t, j)
        if intersections:
            assert told(verify_intersection_formula, s, t, j) == \
                told(scan_intersection, s, t, j), (s, t, j)


def test_lemma_checks_match_whole_set_references():
    """verify_decomposition and block_D on every antichain and every pair
    T < S for k <= 3 and n <= 2k+4, and on seeded pairs at k=4, n=12, against
    references that filter whole facet sets; verify_intersection_formula on
    the same pairs but those at (3, 10), whose 4,652 pairs would take seconds."""
    for k in range(1, 4):
        for n in range(2 * k, 2 * k + 5):
            chains = [a.to_pair_facets() for a in enumerate_antichains(k, n)]
            for s in chains:
                for i in range(n + 2):
                    assert told(verify_decomposition, s, i) == told(scan_decomposition, s, i), (s, i)
                for t in chains:
                    if antichain_lt(t, s):
                        assert_lemmas_match_the_references(s, t, n < 2 * k + 4)
    for s, t in seeded_lemma_pairs(29, 300):
        for i in range(s.n + 2):
            assert told(verify_decomposition, s, i) == told(scan_decomposition, s, i), (s, i)
        assert_lemmas_match_the_references(s, t, True)


def test_lemma_checks_refuse_as_the_references_do():
    s = Antichain(2, 8, ((1, 2, 7, 8), (3, 4, 6, 7)))
    t = Antichain(2, 8, ((2, 3, 5, 6),))
    nothing = Antichain(0, 4, ((),))
    sg, tg = grid_form(s), grid_form(t)
    decompositions = [(Antichain(2, 8, ()), 1), (s, 0), (s, -1), (s, 8), (s, 9),
                      (nothing, 0), (nothing, 1), (nothing, 3), (nothing, 4),
                      (sg, 0), (sg, 1), (sg, 7), (sg, 8)]
    seen = set()
    for a, i in decompositions:
        got = told(verify_decomposition, a, i)
        assert got == told(scan_decomposition, a, i), (a, i)
        seen.add(got)
    assert seen == {True, False,
                    (ValueError, "antichain must be non-empty"),
                    (ValueError, "minimum label must be at least 1, got 0"),
                    (ValueError, "minimum label must be at least 1, got -1"),
                    (ValueError, "interval longer than the facets: (1, 2)"),
                    (ValueError, "interval longer than the facets: (3, 4)"),
                    GRID_REFUSAL}
    assert vars(sg).keys() == FIELDS
    pairs = [(s, s), (t, s), (s, tg), (sg, t), (s, Antichain(2, 9, ())),
             (sg, tg), (nothing, Antichain(0, 4, ())),
             (Antichain(2, 8, ()), Antichain(2, 8, ()))]
    seen = set()
    for a, b in pairs:
        for j in range(a.n + 1):
            for fn, ref in ((block_D, scan_block), (verify_intersection_formula, scan_intersection)):
                got = told(fn, a, b, j)
                assert got == told(ref, a, b, j), (fn, a, b, j)
                seen.add(got)
    assert seen == {Complex.void(),
                    (ValueError, "subtracted antichain must lie strictly below"),
                    (ValueError, "antichains live in different ambient posets"),
                    (ValueError, "blocks need at least one pair"),
                    GRID_REFUSAL,
                    (ValueError, "hypothesis of lemma violated")}
    assert vars(sg).keys() == vars(tg).keys() == FIELDS


@pytest.mark.parametrize("s", [
    Antichain(1, 6, ((5, 6),)),
    Antichain(2, 8, ((1, 2, 7, 8), (3, 4, 6, 7))),
    Antichain(3, 10, ((1, 2, 6, 7, 9, 10), (2, 3, 4, 5, 8, 9), (3, 4, 5, 6, 7, 8))),
], ids=["k1", "k2", "k3"])
def test_decomposition_fails_when_a_kept_piece_is_doctored(s):
    """A piece at j with one tail dropped, or swapped for a facet outside the
    ambient, fails the check from every i <= j and passes it from every i > j."""
    pieces = _decomposition_pieces(copy.copy(s))
    outside = tuple(range(s.n + 1, s.n + 2 * s.k))
    checked = 0
    for j, piece in pieces.items():
        for dropped in sorted(piece)[:2]:
            for doctored in (piece - {dropped}, piece - {dropped} | {(j,) + outside}):
                a = copy.copy(s)
                vars(a)["_decomposition_pieces"] = {**pieces, j: doctored}
                assert [verify_decomposition(a, i) for i in range(1, s.n + 1)] == \
                    [i > j for i in range(1, s.n + 1)], (j, doctored)
                checked += 1
    # for k = 1 the last piece, at j = n-1, holds a facet too
    assert checked and (s.k > 1 or pieces[s.n - 1])


def test_intersection_formula_fails_when_a_kept_split_loses_a_member():
    """Dropping from S's kept split at j a facet of the block at j whose face
    without j lies in the block at j+1 fails the formula at j and leaves every
    other j but j-1 as it was."""
    checked = 0
    for s, t in seeded_lemma_pairs(31, 40, k=3, n=10):
        split = ideal_by_lead(copy.copy(s))
        honest = {j: told(verify_intersection_formula, s, t, j) for j in range(1, s.n - 1)}
        for j, verdict in honest.items():
            if verdict is not True:
                continue
            below = block_D(s, t, j + 1).maximal_faces
            meeting = [x for x in sorted(block_D(s, t, j).maximal_faces)
                       if any(set(x[1:]) <= set(y) for y in below)]
            for x in meeting[:1]:
                a = copy.copy(s)
                vars(a)["ideal_by_lead"] = {**split, j: split[j] - {x}}
                assert verify_intersection_formula(a, t, j) is False, (s, t, j, x)
                for h, want in honest.items():
                    if h not in (j - 1, j):
                        assert told(verify_intersection_formula, a, t, h) == want, (s, t, j, h)
                checked += 1
    assert checked > 20


def grid_facet_count_relative(s):
    """The facet count of the relative ball certified on grid points: each grid
    point of the relative ideal, translated so its first coordinate becomes
    1, must biject onto the grid points below the distinguished one.  The
    ideals are scanned from every grid point."""
    g = max_slope_element(s.k, s.n)
    pf = s.to_pair_facets()
    if grid_to_facet(g) not in pf.elements:
        raise ValueError("antichain must contain the maximal-slope element")

    def ideal(tops):
        return {x for x in grid_points(s.k, s.n) if any(componentwise_leq(x, e) for e in tops)}

    a = grid_form(pf)
    band = ideal(a) - ideal(shift_down(a))
    image = {tuple(v - (x[0] - 1) for v in x) for x in band}
    if len(image) != len(band) or image != ideal([g]):
        raise RuntimeError("translation bijection failed on the relative ideal")
    built = relative_ball(pf)
    count = 0 if built.is_void else len(built.maximal_faces)
    if count != len(band):
        raise RuntimeError("relative ideal size disagrees with the built ball")
    return len(band)


def test_facet_count_on_pair_facets_matches_the_grid_point_count():
    """facet_count_relative translates pair facets; the count on grid points
    agrees on every census antichain for k = 2, n = 6..12 and k = 3,
    n = 8..11, and on seeded (4, 12) antichains, in either form, including
    ones without the distinguished element."""
    inputs = [a for k, ns in ((2, range(6, 13)), (3, range(8, 12))) for n in ns
              for a in enumerate_antichains(k, n, must_contain=max_slope_element(k, n))]
    rng = random.Random(37)
    family = list(enumerate_antichains(4, 12, must_contain=max_slope_element(4, 12)))
    inputs += rng.sample(family, 200) + rng.sample(list(enumerate_antichains(4, 12)), 20)
    counts = set()
    for a in inputs:
        for s in (a, a.to_pair_facets()):
            got = told(facet_count_relative, s)
            assert got == told(grid_facet_count_relative, s), s
            counts.add(type(got))
    assert counts == {int, tuple}


def test_restrict_matches_ideal_scan():
    for s in ANTICHAINS:
        for j in range(s.n + 2):
            for l in range(s.k + 2):
                interval = (j, j + 2 * l - 1)
                assert outcome(restrict, s, interval) == outcome(scan_restrict, s, interval), (s, interval)
        g = grid_form(s)
        for j in range(s.n + 2):
            assert_grid_refused(lambda a: restrict(a, (j, j + 1)), g)


def gap_step_ok(new, earlier):
    """Shelling step by gaps: the part of `new` meeting earlier facets is pure
    of codim 1, i.e. every meet lies in a codimension-1 meet: every gap
    `new - f` holds the missing vertex of some one-vertex gap."""
    snew = set(new)
    gaps = [snew - set(f) for f in earlier]
    ridge_vertices = {v for gap in gaps if len(gap) == 1 for v in gap}
    return all(gap & ridge_vertices for gap in gaps)


def mask_step_ok(new, earlier):
    """`verify._step` on the facet masks and ridge holders of the list
    earlier + [new], with the earlier facets placed; the holder of new - v
    is found by a scan of the facets."""
    facets = earlier + [new]
    pairs = [(sum(1 << j for j, f in enumerate(facets) if v in f),
              sum(1 << j for j, f in enumerate(facets) if set(new) - {v} <= set(f)))
             for v in new]
    return verify._step(pairs, (1 << len(earlier)) - 1) is not None


def meets_step_ok(new, earlier):
    """Shelling step by building every meet and keeping the maximal ones."""
    want = len(new) - 1
    snew = set(new)
    meets = {tuple(sorted(snew & set(f))) for f in earlier}
    best = [m for m in meets
            if not any(m is not o and set(m) < set(o) for o in meets)]
    return all(len(m) == want for m in best)


def common_faces_intersect(a, b):
    """Common faces of both complexes, kept when no one-vertex extension is common."""
    if a.is_void or b.is_void:
        return Complex.void()
    common = all_faces(a, a.dimension) & all_faces(b, b.dimension)
    verts = {v for f in common for v in f}
    keep = [f for f in common
            if not any(v not in f and tuple(sorted(f + (v,))) in common for v in verts)]
    return Complex(frozenset(keep))


def test_step_ok_matches_maximal_meets():
    rng = random.Random(14)
    verdicts = set()
    for _ in range(20_000):
        d = rng.randint(1, 5)
        n = rng.randint(d + 1, d + 4)
        new = tuple(sorted(rng.sample(range(1, n + 1), d)))
        earlier = []
        for _ in range(rng.randint(0, 8)):
            # swap a few vertices of the new facet, sometimes none or all
            keep = rng.sample(new, d - rng.randint(0, d))
            rest = rng.sample([v for v in range(1, n + 1) if v not in keep], d - len(keep))
            earlier.append(tuple(sorted(keep + rest)))
        want = meets_step_ok(new, earlier)
        assert mask_step_ok(new, earlier) == gap_step_ok(new, earlier) == want, (new, earlier)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_intersect_matches_common_faces():
    rng = random.Random(15)
    pool = PURE + MIXED + [Complex.void(), Complex.empty()]
    pairs = []
    for _ in range(2_000):
        a, b = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.2 and not b.is_void:
            # move b onto vertices a cannot have
            b = Complex(frozenset(tuple(v + 8 for v in f) for f in b.maximal_faces))
        pairs.append((a, b))
    # consecutive blocks, as the intersection formula meets them
    for s, t in seeded_lemma_pairs(37, 40):
        for j in range(1, s.n - 1):
            if not block_D(s, t, j + 1).is_void:
                pairs.append((block_D(s, t, j), block_D(s, t, j + 1)))
    # meets of several sizes, where a small meet lies in a larger one or in
    # none; meets of one size, tied or repeated; the empty and the void complex
    a = Complex.from_facets([(1, 2, 3, 4), (3, 4, 5), (5, 6), (7,)])
    for b in (Complex.from_facets([(1, 2, 3, 5), (2, 3, 4, 6), (4, 5, 7)]),
              Complex.from_facets([(1, 2, 5, 6), (3, 4, 7), (2, 3, 5, 8)]),
              Complex.from_facets([(1, 3, 6), (2, 4, 6), (1, 4, 5), (2, 3, 5)]),
              Complex.from_facets([(1, 2, 8), (1, 2, 9), (3, 4, 8)]),
              Complex.from_facets([(8, 9)]), Complex.empty(), Complex.void()):
        pairs += [(a, b), (b, a)]
    pairs += [(Complex.empty(), Complex.empty()), (Complex.void(), Complex.empty()),
              (Complex.void(), Complex.void())]
    for a, b in pairs:
        got = intersect(a, b)
        assert got == common_faces_intersect(a, b) == meet_intersect(a, b), \
            (a.maximal_faces, b.maximal_faces)


def recursive_find_shelling(c, budget, step_ok=gap_step_ok):
    """Depth-first search by recursion, with the same facet order, node
    budget and dead-set memo as `find_shelling`, testing steps by `step_ok`."""
    facets = sorted(c.facets)
    dead = set()
    nodes = 0

    class Budget(Exception):
        pass

    def extend(used, prefix):
        nonlocal nodes
        if len(prefix) == len(facets):
            return True
        if used in dead:
            return False
        nodes += 1
        if nodes > budget:
            raise Budget
        for f in facets:
            if f in used or (prefix and not step_ok(f, prefix)):
                continue
            prefix.append(f)
            if extend(used | {f}, prefix):
                return True
            prefix.pop()
        dead.add(used)
        return False

    prefix = []
    try:
        found = extend(frozenset(), prefix)
    except Budget:
        return Certificate("shellable", None, witness=None)
    return Certificate("shellable", found, witness=list(prefix) if found else None)


def test_find_shelling_matches_recursive_search():
    cases = [(c, budget) for c in CENSUS_BALLS + PURE for budget in (10, 1_000_000)]
    found = [find_shelling(c, budget) for c, budget in cases]
    assert found == [recursive_find_shelling(c, budget) for c, budget in cases]
    assert {c.verdict for c in found} == {True, False, None}


def test_find_shelling_deeper_than_the_recursion_limit():
    path = Complex.from_facets((v, v + 1) for v in range(1, 1101))
    cert = find_shelling(path)
    assert cert.verdict is True
    assert is_shelling(path, cert.witness).verdict is True


def test_find_shelling_same_with_maximal_meet_step():
    cases = [(c, budget) for c in CENSUS_BALLS + PURE for budget in (10, 1_000_000)]
    fast = [find_shelling(c, budget) for c, budget in cases]
    assert fast == [recursive_find_shelling(c, budget, meets_step_ok) for c, budget in cases]
    assert {c.verdict for c in fast} == {True, False, None}


def gap_is_shelling(c, order):
    """`is_shelling` of an order of c's facets, each step tested by gaps."""
    for idx in range(1, len(order)):
        if not gap_step_ok(order[idx], order[:idx]):
            return Certificate("shellable", False, witness=idx)
    return Certificate("shellable", True, witness=list(order))


def test_is_shelling_matches_gap_reference():
    """On the sorted order and the order found of each census ball, and on
    orders made from them by random swaps."""
    rng = random.Random(16)
    balls = (CENSUS_BALLS + [e.ball for e in odd_census(3, 9)]
             + [e.ball for e in even_census(4, 10)])
    verdicts = set()
    for c in balls:
        for order in (list(c.facets), find_shelling(c).witness):
            for _ in range(8):
                got = is_shelling(c, order)
                assert got == gap_is_shelling(c, order), (c.facets, order)
                verdicts.add(got.verdict)
                i, j = rng.sample(range(len(order)), 2)
                order = order[:]
                order[i], order[j] = order[j], order[i]
    assert verdicts == {True, False}


def slow_restriction(f, earlier):
    """The vertices v of f such that f - v lies in an earlier facet, by sets."""
    return {v for v in f if any(set(f) - {v} <= set(g) for g in earlier)}


# every relative ball of the even and odd censuses up to these sizes; both
# parities build the same ball from an antichain
BALL_GRID = ([(2, n) for n in range(4, 11)] + [(3, n) for n in range(6, 12)]
             + [(4, n) for n in range(8, 12)])


def facet_mask(delta, b):
    """The bitmask of b's facets among delta's sorted facets, by a scan."""
    return sum(1 << j for j, f in enumerate(delta.facets) if f in b.maximal_faces)


def assert_patch_matches_the_full_checks(delta, b, vertex_count):
    """The patch of b in delta against the full checks on a fresh copy of b:
    its boundary, f-vector, h-vector, and neighborliness and stackedness
    verdicts for every degree, with the size of the stackedness witness."""
    patch = verify._patch(delta, facet_mask(delta, b))
    fresh = Complex._trusted(b.maximal_faces)
    assert patch.boundary == boundary_complex(fresh).maximal_faces
    assert patch.f_vector == f_vector(fresh)
    assert patch.h_vector == h_vector(f_vector(fresh), len(patch.f_vector) - 1)
    for i in range(1, len(patch.f_vector) + 1):
        assert patch.neighborly(i, vertex_count) == (
            is_i_neighborly(fresh, i, range(1, vertex_count + 1)).verdict), i
    for r in range(len(patch.f_vector) + 1):
        try:
            cert = is_r_stacked(fresh, r)
        except RuntimeError:  # the two sides disagree, so not both hold
            assert not patch.stacked(r), r
            continue
        assert patch.stacked(r) == cert.verdict, r
        assert cert.verdict or len(cert.witness) == patch.interior
    return patch


@pytest.mark.parametrize("k, n", [(3, 12), (4, 12)])
def test_census_ball_from_its_mask_is_the_relative_ball(k, n):
    """Each census ball, decoded from the mask its antichain gives over the
    ambient's facets, is the relative ball built from the antichain by
    order ideals; `test_patch_matches_the_full_checks` checks the smaller
    censuses, n = 2k included."""
    entries = list(odd_census(k, n))
    assert entries
    for e in entries:
        assert e.ball == relative_ball(e.antichain), e.antichain.elements


@pytest.mark.parametrize("k, n", BALL_GRID)
def test_patch_matches_the_full_checks(k, n):
    """The patch of each census ball in its cyclic boundary, the boundary of
    the 2k-simplex at n = 2k, gives the full checks' boundary, f-vector,
    neighborliness and stackedness and shells the ball, which the entry
    decodes from its mask as the relative ball.  The full ball check passes
    every ball, and the entry's odd sphere certificate equals the full
    check.  The sizes of the restriction faces of the greedy shelling count
    out the h-vector of the closure."""
    delta = cyclic_boundary(2 * k, max(n, 2 * k + 1))
    for entry in odd_census(k, n):
        b = relative_ball(entry.antichain)
        assert entry.ball == b, entry.antichain.elements
        fresh = Complex._trusted(b.maximal_faces)
        patch = assert_patch_matches_the_full_checks(delta, b, n)
        assert patch.shelled, b.facets
        assert ball_sanity(fresh).verdict is True, b.facets
        assert entry.certificates[-1] == sphere_sanity(boundary_complex(fresh))
        order = find_shelling(b, len(b.facets)).witness
        sizes = [len(slow_restriction(f, order[:j])) for j, f in enumerate(order)]
        d = len(order[0])
        assert tuple(map(sizes.count, range(d + 1))) == h_vector(
            f_vector_by_closure(b.facets), d)


# closed pseudomanifolds with strongly connected face links
AMBIENTS = [cyclic_boundary(d, n) for d, n in [(2, 5), (3, 6), (4, 7), (5, 8)]] + [
    Complex.from_facets(product((1, 2), (3, 4), (5, 6))), *SURFACES]


def random_patches(seed, delta, count):
    """Random non-empty proper facet sets of delta, as complexes."""
    rng = random.Random(seed)
    facets = delta.facets
    return [Complex.from_facets(rng.sample(facets, rng.randint(1, len(facets) - 1)))
            for _ in range(count)]


def test_patch_passes_only_balls():
    """On random facet sets of spheres and surfaces, the patch agrees with
    the full checks, and a facet set it shells passes the full ball check,
    with a boundary passing the sphere check.  Two facets sharing one
    vertex are refused, and no patch is given for the whole ambient, or in
    an ambient that is not closed or fails the link condition.  A set that
    is not the ambient's, or no set at all, has no mask: `sew` refuses it."""
    passed = failed = 0
    for seed, delta in enumerate(AMBIENTS):
        assert links_strongly_connected(delta)
        for b in random_patches(seed, delta, 40):
            patch = assert_patch_matches_the_full_checks(delta, b, delta.vertices[-1])
            if patch.shelled:
                passed += 1
                assert ball_sanity(b).verdict is True, b.facets
                assert sphere_sanity(boundary_complex(b)).verdict is True, b.facets
            else:
                failed += 1
    assert passed > 40 and failed > 40
    delta = cyclic_boundary(3, 6)
    wedge = Complex.from_facets([(1, 2, 3), (3, 4, 6)])
    assert wedge.maximal_faces <= delta.maximal_faces
    assert not verify._patch(delta, facet_mask(delta, wedge)).shelled
    assert ball_sanity(wedge).verdict is False
    for delta, b in [(delta, delta),
                     (Complex.from_facets(TORUS[:-1]), Complex.from_facets(TORUS[:1])),
                     (PINCHED_COMPLEXES[0], Complex.from_facets(PINCHED_COMPLEXES[0].facets[:1]))]:
        assert verify._patch(delta, facet_mask(delta, b)) is None
    for b in (Complex.from_facets([(1, 2, 7)]), Complex.void()):
        with pytest.raises(ValueError):
            sew(cyclic_boundary(3, 6), b, 8)


def scan_enumerate_antichains(k, n, must_contain=None):
    """Antichains by a recursive walk that scans every chosen point for each candidate."""
    if k < 1 or n < 2 * k:
        raise ValueError(f"ambient requires k >= 1 and n >= 2k, got k={k}, n={n}")
    pts = list(grid_points(k, n))
    target = None
    if must_contain is not None:
        if must_contain not in set(pts):
            raise ValueError(f"{must_contain} is not a grid point for k={k}, n={n}")
        pts = [p for p in pts
               if p == must_contain
               or not (componentwise_leq(p, must_contain)
                       or componentwise_leq(must_contain, p))]
        target = pts.index(must_contain)

    chosen = []

    def walk(start, have_target):
        if have_target or target is None:
            yield Antichain(k, n, tuple(chosen), grid=True)
        for i in range(start, len(pts)):
            if target is not None and not have_target and i > target:
                break
            p = pts[i]
            if any(componentwise_leq(p, c) or componentwise_leq(c, p) for c in chosen):
                continue
            chosen.append(p)
            yield from walk(i + 1, have_target or i == target)
            chosen.pop()

    return walk(0, False)


def fields(chains):
    return [(a.k, a.n, a.elements, a.grid) for a in chains]


# every ambient whose whole family the scanning walk lists in about a second
SCAN_AMBIENTS = ([(1, n) for n in range(2, 17)] + [(2, n) for n in range(4, 15)]
                 + [(3, n) for n in range(6, 12)] + [(4, n) for n in range(8, 12)])


def test_mask_walk_matches_scanning_walk():
    for k, n in SCAN_AMBIENTS:
        assert fields(enumerate_antichains(k, n)) == fields(scan_enumerate_antichains(k, n)), (k, n)


def test_mask_walk_through_every_point_matches_scanning_walk():
    for k, n in ((1, 7), (2, 8), (2, 10), (3, 9), (3, 10), (4, 10), (4, 11)):
        through = 0
        for g in grid_points(k, n):
            got = fields(enumerate_antichains(k, n, must_contain=g))
            assert got == fields(scan_enumerate_antichains(k, n, must_contain=g)), (k, n, g)
            assert all(g in elements for _, _, elements, _ in got)
            through += len(got)
        # each antichain is listed once through each of its points
        assert through == sum(map(len, enumerate_antichains(k, n))), (k, n)


def test_trusted_antichains_equal_checked_ones():
    chains = [a for k, n in ((1, 6), (2, 9), (3, 10), (4, 11)) for a in enumerate_antichains(k, n)]
    chains += enumerate_antichains(4, 12, must_contain=(1, 6, 7, 8))
    for a in chains:
        checked = Antichain(a.k, a.n, a.elements, grid=True)
        assert a == checked and hash(a) == hash(checked)
        assert pickle.loads(pickle.dumps(a)) == checked
        facets = Antichain(a.k, a.n, tuple(map(grid_to_facet, a.elements)))
        assert a.to_pair_facets() == facets and hash(a.to_pair_facets()) == hash(facets)
        assert grid_form(facets) == a and facets.to_pair_facets() is facets
        assert pickle.loads(pickle.dumps(a.to_pair_facets())) == facets
    rng = random.Random(29)
    for s in ANTICHAINS + [a.to_pair_facets() for a in rng.sample(chains, 400)]:
        g = grid_form(s)
        built = [shift_down(s), shift_down(g)]
        assert built[1].to_pair_facets() == built[0]
        if s.k:
            assert_grid_refused(lambda a: restrict(a, (1, 2)), g)
        for l in range(1, s.k + 1):
            j = rng.randint(1, max(1, s.n - 2 * l + 1))
            built.append(restrict(s, (j, j + 2 * l - 1)))
        for a in built:
            checked = Antichain(a.k, a.n, a.elements, grid=a.grid)
            assert a == checked and hash(a) == hash(checked), (s, a)
