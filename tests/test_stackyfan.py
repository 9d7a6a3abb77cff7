"""Fans, stacky fans, chart gluing, and the canonical smooth cover."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricfans.cone import NotPointed, cone_from_rays
from toricfans.diagram import NotTight, TightDiagram, colimit, coproduct, face_diagram
from toricfans.intlin import CokernelInvariants, IntMatrix, invariant_factors
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

from test_diagram import P1XP1_RAYS, P2_RAYS, chart_diagram

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
