"""Fans, stacky fans, chart gluing, and the canonical smooth cover."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricfans import stackyfan as stackyfan_module
from toricfans.cone import NotPointed, cone_from_rays, intersection, is_face, meets_in_shared_face
from toricfans.diagram import (
    NotTight,
    Subdiagram,
    TightDiagram,
    colimit,
    coproduct,
    extend_diagram_functional,
    face_diagram,
    validate_tight,
    verify_face_embeddings,
)
from toricfans.errors import InternalError
from toricfans.intlin import CokernelInvariants, IntMatrix, invariant_factors, primitivize, rank
from toricfans.monoid import gp
from toricfans.stackyfan import (
    ChartData,
    Fan,
    IncompatibleBetas,
    InfiniteCokernel,
    RaysDoNotSpan,
    StackyFan,
    canonical_cover,
    glue,
    group_description,
    is_cohomologically_affine,
    is_smooth,
    validate_fan,
)

from oracles import validate_fan_by_intersections
from randomgen import charts_of, orthant_fan, random_complete_fan_rank2, random_complete_or_affine_fan
from test_diagram import P1XP1_RAYS, P2_RAYS, _check_extension, chart_diagram

QUADRANT_FAN = Fan(2, ((0, 1), (1, 0)), ((0, 1),))
A1_FAN = Fan(2, ((1, 0), (1, 2)), ((0, 1),))
DOUBLED_LINE_FAN = Fan(1, ((1,), (1,)), ((0,), (1,)))


def _face_fan_charts(c, beta=None):
    """Single chart: the face diagram of c with betas restricted from the
    ambient map (identity unless given)."""
    d = face_diagram(c)
    if beta is None:
        beta = IntMatrix.identity(c.ambient_rank)
    betas = {i: beta @ gp(obj) for i, obj in d.objects.items()}
    return ChartData(d, betas, beta.rows)


def _doubled_line_charts():
    d = coproduct(
        face_diagram(cone_from_rays(1, [(1,)])),
        face_diagram(cone_from_rays(1, [(1,)])),
    )
    betas = {
        "0": IntMatrix.zeros(1, 0),
        "a:f_0": IntMatrix.from_cols([(1,)]),
        "b:f_0": IntMatrix.from_cols([(1,)]),
    }
    return ChartData(d, betas, 1)


def test_validate_quadrant_face_fan():
    assert validate_fan(QUADRANT_FAN) == ()


def test_validate_two_cones_meeting_in_a_ray():
    f = Fan(2, ((1, 0), (0, 1), (-1, 0)), ((0, 1), (1, 2)))
    assert validate_fan(f) == ()


def test_validate_overlapping_cones():
    f = Fan(2, ((1, 0), (1, 2), (1, 1), (0, 1)), ((0, 1), (2, 3)))
    assert validate_fan(f) == ("maximal cones 0 and 1 intersect in a non-face",)


def test_validate_doubled_line_fan():
    # two distinct cones over coincident rays: legal, they share only the origin
    assert validate_fan(DOUBLED_LINE_FAN) == ()


def test_validate_rejects_imprimitive_ray():
    f = Fan(2, ((2, 0),), ((0,),))
    assert validate_fan(f) == ("ray 0 is not primitive",)


def test_validate_rejects_unpointed_cone():
    f = Fan(1, ((1,), (-1,)), ((0, 1),))
    assert "maximal cone 0 is not pointed" in validate_fan(f)


def test_validate_rejects_non_extreme_listing():
    f = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1, 2),))
    assert validate_fan(f) == ("maximal cone 0 lists rays that are not its extreme rays",)


def test_validate_rejects_a_repeated_ray():
    f = Fan(1, ((1,), (1,)), ((0, 1),))
    assert validate_fan(f) == ("maximal cone 0 repeats a ray",)


def test_validate_rejects_nested_maximal_cones():
    f = Fan(2, ((1, 0), (0, 1)), ((0, 1), (0,)))
    assert validate_fan(f) == ("maximal cones 0 and 1: one is a face of the other",)


def test_fan_construction_rejects_bad_indices():
    with pytest.raises(ValueError):
        Fan(2, ((1, 0),), ((0, 1),))
    with pytest.raises(ValueError):
        Fan(2, ((1, 0, 0),), ((0,),))


@pytest.mark.parametrize(
    "rays, cones",
    [
        (((1.7,),), ((0.2,),)),
        (((1,),), ((0.0,),)),
        (((1, 0), (0, 1.0)), ((0, 1),)),
        (((True, 0),), ((0,),)),
        (((1, 0),), ((False,),)),
    ],
    ids=["float-ray-and-index", "integral-float-index", "integral-float-ray", "bool-ray", "bool-index"],
)
def test_fan_construction_refuses_non_int_entries(rays, cones):
    # int() would truncate them: ray (1.7,) would become (1,) and index 0.2 would be 0
    with pytest.raises(TypeError):
        Fan(len(rays[0]), rays, cones)


def test_stacky_fan_requires_finite_cokernel():
    with pytest.raises(InfiniteCokernel):
        StackyFan(QUADRANT_FAN, IntMatrix.from_rows([(1, 0), (0, 0)], cols=2))
    sf = StackyFan(QUADRANT_FAN, IntMatrix.from_rows([(1, 1)], cols=2))
    assert sf.beta.rows == 1


def test_stacky_fan_refuses_a_beta_of_the_wrong_width():
    with pytest.raises(ValueError, match="beta shape does not match"):
        StackyFan(QUADRANT_FAN, IntMatrix.identity(3))


def test_glue_doubled_line_pinned():
    sf = glue(_doubled_line_charts())
    assert sf.fan.lattice_rank == 2
    assert sf.beta == IntMatrix.from_rows([(1, 1)], cols=2)
    assert sf.fan.rays == ((0, 1), (1, 0))
    assert sf.fan.maximal_cones == ((0,), (1,))
    assert not is_cohomologically_affine(sf)
    assert is_smooth(sf)
    assert group_description(sf) == CokernelInvariants(1, ())


def test_glue_of_no_charts_is_the_empty_fan():
    # no maximal objects: the descent to the rank-0 colimit has nothing to stack
    sf = glue(ChartData(TightDiagram({}, []), {}, 0))
    assert sf.beta == IntMatrix.zeros(0, 0)
    assert sf.fan == Fan(0, (), ())


def test_glue_single_chart_is_identity():
    c = cone_from_rays(2, [(1, 0), (0, 1)])
    sf = glue(_face_fan_charts(c))
    assert sf.fan == QUADRANT_FAN
    assert sf.beta == IntMatrix.identity(2)
    assert is_cohomologically_affine(sf)


def test_glue_rejects_doubled_plane():
    quadrant = cone_from_rays(2, [(1, 0), (0, 1)])
    origin = cone_from_rays(0, [])
    ray = cone_from_rays(1, [(1,)])
    plane = quadrant
    from toricfans.diagram import DiagramMorphism

    edges = [
        DiagramMorphism("0", "r1", IntMatrix.zeros(1, 0)),
        DiagramMorphism("0", "r2", IntMatrix.zeros(1, 0)),
        DiagramMorphism("0", "sA", IntMatrix.zeros(2, 0)),
        DiagramMorphism("0", "sB", IntMatrix.zeros(2, 0)),
    ]
    for plane_id in ("sA", "sB"):
        edges.append(DiagramMorphism("r1", plane_id, IntMatrix.from_cols([(1, 0)])))
        edges.append(DiagramMorphism("r2", plane_id, IntMatrix.from_cols([(0, 1)])))
    d = TightDiagram({"0": origin, "r1": ray, "r2": ray, "sA": plane, "sB": plane}, edges)
    betas = {
        "0": IntMatrix.zeros(2, 0),
        "r1": IntMatrix.from_cols([(1, 0)]),
        "r2": IntMatrix.from_cols([(0, 1)]),
        "sA": IntMatrix.identity(2),
        "sB": IntMatrix.identity(2),
    }
    with pytest.raises(NotTight) as info:
        glue(ChartData(d, betas, 2))
    assert any(v.startswith("T4") for v in info.value.violations)


def test_glue_rejects_disagreeing_betas():
    c = cone_from_rays(2, [(1, 0), (0, 1)])
    charts = _face_fan_charts(c)
    betas = dict(charts.betas)
    betas["f_1"] = IntMatrix.from_cols([(1, 1)])  # should restrict to (1,0)
    with pytest.raises(IncompatibleBetas):
        glue(ChartData(charts.diagram, betas, 2))


def test_glue_rejects_infinite_cokernel():
    c = cone_from_rays(2, [(1, 0)])  # one ray in Z^2: glued beta misses a rank
    with pytest.raises(InfiniteCokernel):
        glue(_face_fan_charts(c))


def test_glue_betas_factor_through_embeddings():
    charts = _doubled_line_charts()
    sf = glue(charts)
    colim = colimit(charts.diagram)
    for i in charts.diagram.objects:
        assert sf.beta @ colim.embeddings[i] == charts.betas[i]


@pytest.mark.parametrize("rays, torus_rank", [(P2_RAYS, 1), (P1XP1_RAYS, 2)], ids=["P2", "P1xP1"])
def test_glued_charts_of_a_complete_fan_are_its_canonical_cover(rays, torus_rank):
    # Cox's construction: one lattice basis vector per ray of the fan, sent to it by beta
    d = chart_diagram(rays)
    sf = glue(ChartData(d, {i: gp(obj) for i, obj in d.objects.items()}, 2))
    assert validate_fan(sf.fan) == ()
    assert is_smooth(sf)
    assert group_description(sf) == CokernelInvariants(torus_rank, ())

    n = len(rays)
    cover = canonical_cover(Fan(2, rays, tuple((i, (i + 1) % n) for i in range(n))))
    # the glued rays are a basis of the lattice, so sending each to the cover's
    # basis vector of the ray beta takes it to is a lattice isomorphism, under
    # which beta is the cover's beta and the maximal cones are the cover's
    assert len(sf.fan.rays) == n
    assert invariant_factors(IntMatrix.from_cols(sf.fan.rays)) == (1,) * n
    index = [rays.index(sf.beta.apply(r)) for r in sf.fan.rays]
    assert sorted(index) == list(range(n))
    glued_cones = {frozenset(index[k] for k in ixs) for ixs in sf.fan.maximal_cones}
    assert glued_cones == {frozenset(ixs) for ixs in cover.fan.maximal_cones}


FANS = {
    "complete-rank2": random_complete_fan_rank2,
    "sheared-orthants": orthant_fan,
    "complete-or-affine": random_complete_or_affine_fan,
}


def _cone_matrices(fan):
    return [IntMatrix.from_cols([fan.rays[i] for i in ixs], rows=fan.lattice_rank) for ixs in fan.maximal_cones]


def test_charts_of_a_fan_lists_its_cones_once_with_identity_covers():
    charts = charts_of(Fan(2, P2_RAYS, ((0, 1), (1, 2), (0, 2))))
    d = charts.diagram
    assert sorted(d.objects) == ["c", "c_0", "c_0_1", "c_0_2", "c_1", "c_1_2", "c_2"]
    assert sorted((e.source_id, e.target_id) for e in d.morphisms) == [
        ("c", "c_0"), ("c", "c_1"), ("c", "c_2"),
        ("c_0", "c_0_1"), ("c_0", "c_0_2"), ("c_1", "c_0_1"), ("c_1", "c_1_2"), ("c_2", "c_0_2"), ("c_2", "c_1_2"),
    ]
    assert all(e.matrix is IntMatrix.identity(2) for e in d.morphisms)
    assert all(charts.betas[i] == gp(obj) for i, obj in d.objects.items())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FANS)), st.integers(min_value=0, max_value=2**32 - 1))
def test_charts_of_a_fan_glue_back_into_it(kind, seed):
    # the paper's round trip: a fan's charts form a tight diagram, land in
    # their colimit as faces, and glue into a stacky fan over the same rays
    fan = FANS[kind](random.Random(seed))
    charts = charts_of(fan)
    d = charts.diagram
    assert validate_tight(d) == ()
    colim = colimit(d)
    assert verify_face_embeddings(d, colim) == ()
    sf = glue(charts)
    assert validate_fan(sf.fan) == ()
    assert sorted(sf.beta.apply(r) for r in sf.fan.rays) == sorted(fan.rays)
    # gluing keeps each chart's lattice, so the result is smooth exactly
    # when every cone of the fan is
    smooth = all(invariant_factors(m) == (1,) * m.cols for m in _cone_matrices(fan))
    assert is_smooth(sf) == smooth
    torus_rank = group_description(sf).free_rank
    assert torus_rank == colim.cone.ambient_rank - fan.lattice_rank
    if all(rank(m) == m.cols for m in _cone_matrices(fan)):  # simplicial: one colimit direction per ray
        assert torus_rank == len(fan.rays) - fan.lattice_rank
    if smooth:
        # the glued rays are then a basis of the colimit lattice, and sending
        # each to the cover's basis vector of the ray beta takes it to is a
        # lattice isomorphism carrying beta and the cones onto the cover's
        cover = canonical_cover(fan)
        assert invariant_factors(IntMatrix.from_cols(sf.fan.rays)) == (1,) * len(fan.rays)
        index = [fan.rays.index(sf.beta.apply(r)) for r in sf.fan.rays]
        glued_cones = {frozenset(index[k] for k in ixs) for ixs in sf.fan.maximal_cones}
        assert glued_cones == {frozenset(ixs) for ixs in cover.fan.maximal_cones}
        assert group_description(cover) == group_description(sf)
    if len(fan.maximal_cones) == 1:  # an affine fan extends from its zero chart
        for mode in ("arbitrary", "nonneg_positive_away"):
            sub = Subdiagram(d, frozenset({"c"}))
            chi = {"c": (0,) * fan.lattice_rank}
            _check_extension(sub, chi, mode, extend_diagram_functional(sub, chi, mode))


@pytest.mark.xfail(strict=True, raises=InternalError,
                   reason="the last chart's processed faces have no top, so the induction has no face to extend from")
@pytest.mark.parametrize("mode", ["arbitrary", "nonneg_positive_away"])
@pytest.mark.parametrize("kind", ["complete-rank2", "sheared-orthants"])
def test_extend_from_the_zero_chart_of_a_generated_complete_fan(kind, mode):
    fan = FANS[kind](random.Random(0))
    sub = Subdiagram(charts_of(fan).diagram, frozenset({"c"}))
    chi = {"c": (0,) * fan.lattice_rank}
    _check_extension(sub, chi, mode, extend_diagram_functional(sub, chi, mode))


def test_smoothness_of_a1_cone():
    sf = StackyFan(A1_FAN, IntMatrix.identity(2))
    assert not is_smooth(sf)
    assert is_smooth(StackyFan(QUADRANT_FAN, IntMatrix.identity(2)))


def test_group_description_pinned():
    ident = StackyFan(QUADRANT_FAN, IntMatrix.identity(2))
    assert group_description(ident) == CokernelInvariants(0, ())
    mu2 = StackyFan(Fan(1, ((1,),), ((0,),)), IntMatrix.from_rows([(2,)], cols=1))
    assert group_description(mu2) == CokernelInvariants(0, (2,))


def test_canonical_cover_of_quadrant_fan_is_unimodular():
    sf = canonical_cover(QUADRANT_FAN)
    assert is_smooth(sf)
    assert group_description(sf) == CokernelInvariants(0, ())
    assert sf.beta == IntMatrix.from_cols([(0, 1), (1, 0)])


def test_canonical_cover_of_a1_cone_pinned():
    sf = canonical_cover(A1_FAN)
    assert sf.beta == IntMatrix.from_rows([(1, 1), (0, 2)], cols=2)
    assert sf.fan == Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    assert is_smooth(sf)
    assert group_description(sf) == CokernelInvariants(0, (2,))


def test_canonical_cover_of_doubled_line_matches_glue():
    cover = canonical_cover(DOUBLED_LINE_FAN)
    glued = glue(_doubled_line_charts())
    assert cover.beta == glued.beta
    assert cover.fan.lattice_rank == glued.fan.lattice_rank
    cover_cones = {frozenset(cover.fan.rays[i] for i in ixs) for ixs in cover.fan.maximal_cones}
    glued_cones = {frozenset(glued.fan.rays[i] for i in ixs) for ixs in glued.fan.maximal_cones}
    assert cover_cones == glued_cones


def test_canonical_cover_needs_spanning_rays():
    with pytest.raises(RaysDoNotSpan):
        canonical_cover(Fan(2, ((1, 0),), ((0,),)))


vectors = st.lists(
    st.tuples(*([st.integers(min_value=-4, max_value=4)] * 2)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(vectors, vectors)
def test_glued_coproducts_give_valid_stacky_fans(vecs_a, vecs_b):
    try:
        a = cone_from_rays(2, vecs_a)
        b = cone_from_rays(2, vecs_b)
    except NotPointed:
        assume(False)
    assume(a.rays and b.rays)
    d = coproduct(face_diagram(a), face_diagram(b))
    betas = {
        i: IntMatrix.from_cols(gp(obj).columns(), rows=2) for i, obj in d.objects.items()
    }
    try:
        sf = glue(ChartData(d, betas, 2))
    except InfiniteCokernel:
        # neither chart spans the plane on its own; legal but not under test
        assume(False)
    assert validate_fan(sf.fan) == ()
    colim = colimit(d)
    for i in d.objects:
        assert sf.beta @ colim.embeddings[i] == betas[i]
    cover = canonical_cover(sf.fan)
    assert is_smooth(cover)


def _random_fan(rng):
    """A generated fan, valid, sometimes with one more maximal cone on its
    rays; or random maximal cones on random rays, which mostly overlap and
    are often lower-dimensional or not pointed.  Either may get copies of
    some maximal cones on repeated rays (doubled cones)."""
    if rng.random() < 0.5:
        fan = random_complete_or_affine_fan(rng)
        n, rays, cones = fan.lattice_rank, list(fan.rays), [list(c) for c in fan.maximal_cones]
        if rng.random() < 0.3:
            cones.append(rng.sample(range(len(rays)), rng.randint(1, min(len(rays), n))))
    else:
        n = rng.randint(1, 3)
        rays = [r for r in (tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 6))) if any(r)]
        rays = [primitivize(r) if rng.random() < 0.8 else r for r in rays] or [(1,) * n]
        cones = [rng.sample(range(len(rays)), rng.randint(1, min(len(rays), n + 1))) for _ in range(rng.randint(1, 4))]
    for c in rng.sample(cones, rng.randint(0, min(2, len(cones)))):
        cones.append([len(rays) + k for k in range(len(c))])
        rays += [rays[i] for i in c]
    return Fan(n, tuple(rays), tuple(map(tuple, cones)))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fan_verdicts_equal_the_all_intersections_verdicts(seed):
    fan = _random_fan(random.Random(seed))
    assert validate_fan(fan) == validate_fan_by_intersections(fan)
    cones = []
    for k in range(len(fan.maximal_cones)):
        try:
            cones.append(fan.cone(k))
        except NotPointed:
            pass
    for a in cones:
        for b in cones:
            if meets_in_shared_face(a, b):
                shared = cone_from_rays(fan.lattice_rank, set(a.rays) & set(b.rays))
                assert intersection(a, b) == shared and is_face(a, shared) and is_face(b, shared)


@pytest.mark.parametrize("kind", sorted(FANS))
def test_a_generated_complete_fan_is_validated_without_intersections(kind, monkeypatch):
    def refuse(a, b):
        raise AssertionError("intersection computed")

    monkeypatch.setattr(stackyfan_module, "intersection", refuse)
    for seed in range(5):
        assert validate_fan(FANS[kind](random.Random(seed))) == ()


def test_the_functional_decides_only_what_it_proves():
    # overlapping cones and two cones over one ray set are left to the exact intersection
    overlap = Fan(2, ((1, 0), (1, 2), (1, 1), (0, 1)), ((0, 1), (2, 3)))
    assert not meets_in_shared_face(overlap.cone(0), overlap.cone(1))
    doubled = Fan(2, ((1, 0), (0, 1), (1, 0), (0, 1)), ((0, 1), (2, 3)))
    assert meets_in_shared_face(doubled.cone(0), doubled.cone(1))
    assert validate_fan(doubled) == validate_fan_by_intersections(doubled) == ()
    with pytest.raises(ValueError):
        meets_in_shared_face(cone_from_rays(1, [(1,)]), cone_from_rays(2, [(1, 0)]))
