"""Cone construction, duality, faces and supporting functionals."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, assume, strategies as st

from toricfans import cone as cone_module
from toricfans.cone import (
    Cone,
    NonPointedCone,
    NotAFace,
    NotPointed,
    cone_dual_of_generated,
    cone_from_rays,
    contains,
    dual_cone,
    face_join,
    faces,
    gp,
    intersection,
    is_face,
    span_coordinates,
    subcone,
    supporting_functional,
)
from toricfans import intlin as intlin_module
from toricfans.intlin import IntMatrix, NotInLattice, primitivize, reduce_basis

from oracles import (
    caratheodory_member,
    extreme_generators,
    face_ray_sets,
    fraction_free_rank,
    smith_route_record,
    subset_facets,
    supporting_functional_by_scan,
)
from randomgen import random_pointed_cone


QUADRANT = cone_from_rays(2, [(1, 0), (0, 1)])
# the A_1 surface cone: dual computed by hand below
WEDGE = cone_from_rays(2, [(1, 0), (1, 2)])
OCTANT = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_canonical_form_sorts_and_primitivizes():
    c = cone_from_rays(2, [(3, 0), (2, 4), (1, 2)])
    assert c.rays == ((1, 0), (1, 2))


def test_non_extreme_generators_dropped():
    c = cone_from_rays(2, [(1, 0), (1, 1), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))


def test_zero_generators_ignored():
    c = cone_from_rays(2, [(0, 0), (1, 0)])
    assert c.rays == ((1, 0),)


def test_zero_cone():
    c = cone_from_rays(3, [])
    assert c.is_zero() and c.rays == ()


def test_not_pointed_raises():
    with pytest.raises(NotPointed):
        cone_from_rays(2, [(1, 0), (-1, 0)])
    with pytest.raises(NotPointed):
        cone_from_rays(2, [(1, 0), (-1, 1), (0, -1)])


def test_dual_of_quadrant_is_quadrant():
    d = dual_cone(QUADRANT)
    assert isinstance(d, Cone)
    assert d.rays == ((0, 1), (1, 0))


def test_dual_of_wedge():
    # by hand: phi.(1,0) >= 0 and phi.(1,2) >= 0 has extreme solutions
    # (0,1) (active on (1,0)) and (2,-1) (active on (1,2))
    d = dual_cone(WEDGE)
    assert isinstance(d, Cone)
    assert d.rays == ((0, 1), (2, -1))


def test_dual_of_low_dimensional_cone_has_lineality():
    d = dual_cone(cone_from_rays(2, [(1, 0)]))
    assert isinstance(d, NonPointedCone)
    assert d.generators == ((1, 0),)
    assert d.lineality == ((0, 1),)


def test_dual_of_zero_cone_is_everything():
    d = dual_cone(cone_from_rays(2, []))
    assert isinstance(d, NonPointedCone)
    assert d.generators == ()
    assert d.lineality == ((0, 1), (1, 0))


def test_dual_of_generated_halfplane():
    d = cone_dual_of_generated(2, [(1, 0), (-1, 0), (0, 1)])
    assert isinstance(d, Cone)
    assert d.rays == ((0, 1),)


def test_contains():
    assert contains(WEDGE, (1, 1))
    assert contains(WEDGE, (1, 0))
    assert contains(WEDGE, (2, 4))
    assert contains(WEDGE, (0, 0))
    assert not contains(WEDGE, (1, -1))
    assert not contains(WEDGE, (0, 1))
    assert not contains(WEDGE, (-1, 0))


def test_contains_respects_span():
    ray = cone_from_rays(2, [(1, 0)])
    assert contains(ray, (5, 0))
    assert not contains(ray, (-1, 0))
    assert not contains(ray, (1, 1))
    zero = cone_from_rays(2, [])
    assert contains(zero, (0, 0))
    assert not contains(zero, (1, 0))


def test_faces_of_quadrant():
    fs = faces(QUADRANT)
    assert len(fs) == 4
    assert fs[0].is_zero()
    assert {f.rays for f in fs} == {
        (),
        ((1, 0),),
        ((0, 1),),
        ((0, 1), (1, 0)),
    }


def test_faces_of_ray():
    fs = faces(cone_from_rays(2, [(1, 0)]))
    assert [f.rays for f in fs] == [(), ((1, 0),)]


def test_faces_of_octant():
    fs = faces(cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    # 1 zero + 3 rays + 3 two-dimensional faces + the cone itself
    assert len(fs) == 8
    by_count = {}
    for f in fs:
        by_count.setdefault(len(f.rays), 0)
        by_count[len(f.rays)] += 1
    assert by_count == {0: 1, 1: 3, 2: 3, 3: 1}


def test_is_face():
    assert is_face(QUADRANT, cone_from_rays(2, [(1, 0)]))
    assert is_face(QUADRANT, QUADRANT)
    assert is_face(QUADRANT, cone_from_rays(2, []))
    assert not is_face(QUADRANT, cone_from_rays(2, [(1, 1)]))
    assert not is_face(WEDGE, QUADRANT)
    # the same rays in the wrong order, twice, or in another lattice are no face
    assert not is_face(QUADRANT, Cone(2, ((1, 0), (0, 1))))
    assert not is_face(QUADRANT, Cone(2, ((0, 1), (0, 1))))
    assert not is_face(QUADRANT, Cone(3, ()))


def test_subcone_reads_rays_off_the_cone():
    # a fresh instance, so its record is not already held from other tests
    octant = Cone(3, OCTANT.rays)
    cone_module._analyse.cache_clear()
    faces(octant)
    assert subcone(octant, [(0, 0, 2), (1, 0, 0), (0, 0, 1)]) == Cone(3, ((0, 0, 1), (1, 0, 0)))
    assert subcone(octant, []) == Cone(3, ())
    assert cone_module._analyse.cache_info().misses == 1
    # anything else is cone_from_rays, errors included
    assert subcone(OCTANT, [(1, 1, 0), (1, 0, 0)]) == cone_from_rays(3, [(1, 1, 0), (1, 0, 0)])
    with pytest.raises(NotPointed):
        subcone(OCTANT, [(1, 0, 0), (-1, 0, 0)])
    with pytest.raises(TypeError):
        subcone(OCTANT, [(1.0, 0, 0)])
    with pytest.raises(TypeError):
        subcone(OCTANT, [(True, 0, 0)])
    with pytest.raises(ValueError):
        subcone(OCTANT, [(1, 0)])


def test_face_join():
    e1, e2 = Cone(3, ((1, 0, 0),)), Cone(3, ((0, 1, 0),))
    assert face_join(OCTANT, e1, e2) == Cone(3, ((0, 1, 0), (1, 0, 0)))
    assert face_join(OCTANT, e1, Cone(3, ())) == e1
    assert face_join(WEDGE, Cone(2, ((1, 0),)), Cone(2, ((1, 2),))) == WEDGE
    with pytest.raises(NotAFace):
        face_join(OCTANT, e1, Cone(3, ((1, 1, 0),)))


def test_span_coordinates_match_lattice_coordinates():
    c = cone_from_rays(3, [(1, 0, 1), (0, 1, 1)])
    target = IntMatrix.from_cols([(2, 3, 5), (1, -1, 0)], rows=3)
    assert span_coordinates(c, target) == reduce_basis(gp(c)).coordinates(target)
    with pytest.raises(NotInLattice):
        span_coordinates(c, IntMatrix.from_cols([(1, 0, 0)], rows=3))


def test_supporting_functional_values():
    axis = cone_from_rays(2, [(1, 0)])
    chi = supporting_functional(QUADRANT, axis)
    assert chi.coefficients == (0, 1)
    assert chi((1, 0)) == 0 and chi((0, 1)) == 1

    chi0 = supporting_functional(QUADRANT, cone_from_rays(2, []))
    assert chi0.coefficients == (1, 1)

    chi_w = supporting_functional(WEDGE, cone_from_rays(2, [(1, 2)]))
    assert chi_w.coefficients == (2, -1)
    assert chi_w((1, 2)) == 0 and chi_w((1, 0)) == 2


def test_supporting_functional_improper_face_is_zero():
    chi = supporting_functional(QUADRANT, QUADRANT)
    assert chi.coefficients == (0, 0)


def test_supporting_functional_not_a_face():
    with pytest.raises(NotAFace):
        supporting_functional(QUADRANT, cone_from_rays(2, [(1, 1)]))


def test_span_sublattice():
    b = gp(cone_from_rays(2, [(1, 0)]))
    assert b.entries == ((1,), (0,))
    full = gp(WEDGE)
    assert (full.rows, full.cols) == (2, 2)


def test_a_cone_holds_its_record():
    # once read, a cone's record lives on the cone, not only in the bounded cache
    c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    basis, fs = gp(c), faces(c)
    cone_module._analyse.cache_clear()
    assert gp(c) is basis and faces(c) is fs
    assert cone_module._analyse.cache_info().misses == 0
    # the held record is no field: equality and hashing see the rays alone
    again = Cone(c.ambient_rank, c.rays)
    assert again == c and hash(again) == hash(c)


def test_more_cones_than_the_record_cache_holds_are_each_analysed_once():
    # the cone over the 7-dimensional cross-polytope has 3^7 + 1 faces, more
    # than the bounded cache holds records; each face keeps its own
    d = 7
    rays = [(1, *(s * (j == i) for j in range(d))) for i in range(d) for s in (1, -1)]
    fs = faces(cone_from_rays(d + 1, rays))
    assert len(fs) == 3**d + 1 > cone_module._analyse.cache_info().maxsize
    cone_module._analyse.cache_clear()
    for _ in range(2):
        for f in fs:
            gp(f)
    assert cone_module._analyse.cache_info().misses == len(fs)


@pytest.mark.parametrize(
    "generators, analyses",
    [
        ([(1, 0), (1, 2)], 1),
        # (1, 1) is not extreme, so the cone's own rays are a second generator set
        ([(1, 0), (1, 1), (0, 1)], 2),
    ],
)
def test_each_generator_set_is_analysed_once(generators, analyses):
    cone_module._analyse.cache_clear()
    c = cone_from_rays(2, generators)
    assert cone_from_rays(2, generators) == c
    fs = faces(c)
    dual_cone(c)
    assert contains(c, (1, 1))
    gp(c)
    supporting_functional(c, fs[1])
    assert cone_module._analyse.cache_info().misses == analyses


@pytest.mark.parametrize(
    "call",
    [
        lambda: contains(QUADRANT, (-0.5, 1)),
        lambda: contains(QUADRANT, (True, 0)),
        lambda: cone_from_rays(2, [(1.5, 0), (0, 1)]),
        lambda: cone_from_rays(2, [(True, 0), (0, 1)]),
        lambda: cone_dual_of_generated(2, [(1.0, 0), (0, 1)]),
    ],
    ids=["contains-float", "contains-bool", "rays-float", "rays-bool", "dual-integral-float"],
)
def test_non_int_entries_are_refused(call):
    # int() would truncate them: (-0.5, 1) would lie in the quadrant
    with pytest.raises(TypeError):
        call()


def test_intersection_of_wedges():
    other = cone_from_rays(2, [(1, 1), (0, 1)])
    met = intersection(WEDGE, other)
    assert met.rays == ((1, 1), (1, 2))


def test_intersection_of_axes_is_zero():
    a = cone_from_rays(2, [(1, 0)])
    b = cone_from_rays(2, [(0, 1)])
    assert intersection(a, b).is_zero()


def test_intersection_with_face_gives_face():
    half = cone_from_rays(2, [(1, 0), (1, -1)])
    met = intersection(QUADRANT, half)
    assert met.rays == ((1, 0),)


vectors = st.lists(
    st.tuples(*([st.integers(min_value=-6, max_value=6)] * 3)),
    min_size=1,
    max_size=5,
)


def _pointed(vecs):
    try:
        return cone_from_rays(3, vecs)
    except NotPointed:
        return None


@settings(max_examples=150, deadline=None)
@given(vectors)
def test_membership_matches_conic_combination_oracle(vecs):
    c = _pointed(vecs)
    assume(c is not None)
    for v in vecs:
        assert contains(c, v)
    # membership of assorted nearby points agrees with the combination oracle
    probes = {tuple(a + b for a, b in zip(u, w)) for u in vecs for w in vecs}
    probes |= {tuple(-x for x in v) for v in vecs}
    for p in probes:
        assert contains(c, p) == caratheodory_member(list(c.rays), p)


@settings(max_examples=100, deadline=None)
@given(vectors)
def test_faces_are_coherent(vecs):
    c = _pointed(vecs)
    assume(c is not None)
    fs = faces(c)
    assert fs[-1] == c and fs[0].is_zero()
    for f in fs:
        assert set(f.rays) <= set(c.rays)
        chi = supporting_functional(c, f)
        for r in c.rays:
            val = chi(r)
            assert val == 0 if r in f.rays else val >= 1
        # a face of a face is a face
        for g in faces(f):
            assert g in fs


@settings(max_examples=100, deadline=None)
@given(vectors)
def test_double_dual_is_identity_for_full_dimensional(vecs):
    c = _pointed(vecs)
    assume(c is not None and gp(c).cols == 3)
    d = dual_cone(c)
    assert isinstance(d, Cone)
    dd = dual_cone(d)
    assert dd == c


@settings(max_examples=80, deadline=None)
@given(vectors, vectors)
def test_intersection_properties(vs, ws):
    a, b = _pointed(vs), _pointed(ws)
    assume(a is not None and b is not None)
    met = intersection(a, b)
    assert intersection(a, a) == a
    for r in met.rays:
        assert contains(a, r) and contains(b, r)
    for f in faces(a):
        assert intersection(a, f) == f


def _paraboloid(d, n):
    """n lattice points (1, a, |a|^2) with a in Z^(d-2): all extreme rays."""
    points = ((1, *a, sum(x * x for x in a)) for a in product(range(-2, 3), repeat=d - 2))
    return sorted(points, key=lambda p: (p[-1], p))[:n]


def _check_against_subset_oracle(ambient_rank, generators):
    vecs = cone_module._clean_generators(ambient_rank, generators)
    a = cone_module._analyse(ambient_rank, vecs)
    dim = a.basis.cols
    facets = subset_facets(a.coords, dim)
    assert a.facets == facets
    assert a.incidence == tuple(
        sum(1 << i for i, c in enumerate(a.coords) if sum(x * y for x, y in zip(f, c)) == 0)
        for f in facets
    )
    assert a.pointed == (fraction_free_rank(facets) == dim)
    if not a.pointed:
        return
    extreme = extreme_generators(a.coords, facets, dim)
    assert a.cone.rays == tuple(v for v, c in zip(vecs, a.coords) if c in extreme)
    b = cone_module._analyse(ambient_rank, a.cone.rays)
    ray_of = dict(zip(b.coords, b.vecs))
    expected = face_ray_sets(list(b.coords), subset_facets(b.coords, dim))
    assert sorted(f.rays for f in b.faces) == sorted(tuple(sorted(ray_of[c] for c in s)) for s in expected)
    assert [f.rays for f in b.faces] == sorted((f.rays for f in b.faces), key=lambda r: (len(r), r))


@settings(max_examples=150, deadline=None)
@given(vectors)
def test_analysis_matches_subset_enumeration(vecs):
    _check_against_subset_oracle(3, vecs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(*([st.integers(-3, 3)] * 2)), min_size=1, max_size=6),
    st.tuples(*([st.integers(-3, 3)] * 4)),
    st.tuples(*([st.integers(-3, 3)] * 4)),
)
def test_analysis_of_non_spanning_generators_matches_subset_enumeration(weights, u, w):
    # combinations of two vectors of Z^4: the generators span at most a plane
    _check_against_subset_oracle(4, [tuple(a * x + b * y for x, y in zip(u, w)) for a, b in weights])


# in rank 4 a zero set of two generators, like a line, can hold more than
# two normals, so adjacency needs more than counting shared generators
vectors4 = st.lists(st.tuples(*([st.integers(min_value=-1, max_value=1)] * 4)), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(vectors4)
def test_rank_4_analysis_matches_subset_enumeration(vecs):
    _check_against_subset_oracle(4, vecs)


@settings(max_examples=100, deadline=None)
@given(st.one_of(vectors, vectors4))
def test_analysis_of_generators_with_a_line_matches_subset_enumeration(vecs):
    # the first generator and its negative: the generated cone is not pointed
    _check_against_subset_oracle(len(vecs[0]), [*vecs, tuple(-x for x in vecs[0])])


@pytest.mark.parametrize("d, n", [(5, 8), (6, 12), (7, 12)])
def test_paraboloid_analysis_matches_subset_enumeration(d, n):
    points = _paraboloid(d, n)
    assert cone_from_rays(d, points).rays == tuple(sorted(points))
    _check_against_subset_oracle(d, points)


def test_adjacency_is_more_than_counting_shared_generators():
    # two normals sharing d - 2 = 2 generators that are not adjacent: their
    # combination (1, 2, 1, -4) is no facet
    gens = [(-1, 1, -1, 0), (0, -1, -1, -1), (0, -1, 0, -1), (0, 1, -1, 0),
            (1, -1, 1, -1), (1, -1, 1, 0), (1, 0, -1, 0)]
    _check_against_subset_oracle(4, gens)


# random_pointed_cone rejection-samples, so Hypothesis draws its seed only
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_is_face_agrees_with_the_face_list(seed):
    rng = random.Random(seed)
    c = random_pointed_cone(rng)
    n, fs = c.ambient_rank, faces(c)
    claims = list(fs) + list(faces(random_pointed_cone(rng)))
    for k in range(len(c.rays) + 1):
        picked = rng.sample(c.rays, k)
        claims.append(Cone(n, tuple(sorted(picked))))
        claims.append(Cone(n, tuple(picked)))
        claims.append(Cone(n, tuple(sorted(picked + picked[:1]))))
    claims.append(Cone(n + 1, ()))
    claims.append(Cone(n + 1, tuple(r + (0,) for r in c.rays)))
    for f in claims:
        assert is_face(c, f) == (f in fs)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_subcone_agrees_with_cone_from_rays(seed):
    rng = random.Random(seed)
    c = random_pointed_cone(rng)
    n = c.ambient_rank
    multiples = [tuple(k * x for x in r) for r in c.rays for k in (1, 1, 2, 3)]
    others = [(0,) * n, tuple(-x for x in rng.choice(c.rays)), tuple(rng.randint(-3, 3) for _ in range(n))]
    for _ in range(8):
        vs = rng.sample(multiples, rng.randint(0, min(len(multiples), 5)))
        if rng.random() < 0.5:
            vs.insert(rng.randint(0, len(vs)), rng.choice(others))
        try:
            want = cone_from_rays(n, vs)
        except NotPointed:
            with pytest.raises(NotPointed):
                subcone(c, vs)
            continue
        assert subcone(c, vs) == want


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_face_join_is_the_smallest_face_containing_both(seed):
    rng = random.Random(seed)
    c = random_pointed_cone(rng)
    fs = faces(c)
    f, g = rng.choice(fs), rng.choice(fs)
    joint = set(f.rays) | set(g.rays)
    want = min((h for h in fs if joint <= set(h.rays)), key=lambda h: (len(h.rays), h.rays))
    assert face_join(c, f, g) == want


@st.composite
def generator_sets(draw):
    """(rank, generators) in ranks 1-4: random vectors, which mostly span,
    or images of random vectors under a random map of lower rank; pointed or
    not, with zeros, repeats and multiples of some generators."""
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.sampled_from([n, n, *range(n)]))
    entries = st.integers(min_value=-2, max_value=2)
    m = [draw(st.tuples(*[entries] * k)) for _ in range(n)]
    ws = draw(st.lists(st.tuples(*[entries] * k), max_size=7))
    vecs = [tuple(sum(a * b for a, b in zip(row, w)) for row in m) for w in ws]
    if vecs:
        scales = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=2))
        vecs += [tuple(c * x for x in draw(st.sampled_from(vecs))) for c in scales]
    return n, vecs


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_a_record_equals_the_smith_route_record(case):
    n, generators = case
    vecs = cone_module._clean_generators(n, generators)
    record = cone_module._analyse.__wrapped__(n, vecs)
    expected = smith_route_record(n, vecs)
    assert tuple(getattr(record, f) for f in cone_module._Analysis._fields[1:]) == expected
    reduced = expected[3]
    assert record.lifts == tuple(primitivize(reduced.lift(h)) for h in record.facets)
    assert record.dual_generators == tuple(sorted(record.lifts))
    if not record.lineality:
        assert record.basis is IntMatrix.identity(n) and record.reduced is reduce_basis(record.basis)


def test_the_record_of_a_full_rank_set_needs_no_smith_reduction(monkeypatch):
    calls = []
    smith = intlin_module._smith
    monkeypatch.setattr(intlin_module, "_smith", lambda *args: calls.append(args) or smith(*args))
    cone_module._analyse.cache_clear()
    c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2), (2, 2, 4)])
    fs = faces(c)
    assert gp(c) is IntMatrix.identity(3)
    assert span_coordinates(c, IntMatrix.identity(3)) is IntMatrix.identity(3)
    assert dual_cone(c).rays == ((0, 0, 1), (0, 2, -1), (2, 0, -1))
    assert fs[1].rays == ((0, 1, 0),) and supporting_functional(c, fs[1]).coefficients == (1, 0, 0)
    assert calls == []
    # a set that does not span is told apart early and takes the Smith route
    assert cone_module._facet_normals(((1, 0, 0), (0, 1, 0), (1, 1, 0)), 3) is None
    assert gp(cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])).cols == 2
    assert calls


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_supporting_functional_equals_the_dot_product_scan(seed):
    c = random_pointed_cone(random.Random(seed))
    for f in faces(c):
        assert supporting_functional(c, f).coefficients == supporting_functional_by_scan(c, f)
