"""Toric monoids, face morphism validation, functional extension."""

import random

import pytest
from hypothesis import given, settings, assume, strategies as st

from toricfans.cone import Cone, Functional, NotPointed, cone_from_rays, faces, gp, ray_indices
from toricfans.diagram import face_diagram
from toricfans.intlin import IntMatrix, NotSaturated, reduce_basis
from toricfans.monoid import (
    FaceMorphism,
    NegativeOnFace,
    extend_functional,
    image_cone,
    verify_face_morphism,
)
from oracles import face_morphism_violations
from randomgen import random_pointed_cone, random_unimodular


NAT = cone_from_rays(1, [(1,)])
QUAD = cone_from_rays(2, [(1, 0), (0, 1)])
E1 = FaceMorphism(NAT, QUAD, IntMatrix.from_cols([(1, 0)]))


def test_gp_full_dimensional():
    b = gp(QUAD)
    assert (b.rows, b.cols) == (2, 2)


def test_gp_of_ray_is_primitive_generator():
    m = cone_from_rays(2, [(1, 2)])
    assert gp(m).columns() == [(1, 2)]


def test_gp_of_zero_cone_is_empty():
    m = cone_from_rays(3, [])
    b = gp(m)
    assert (b.rows, b.cols) == (3, 0)


def test_verify_axis_inclusion_ok():
    assert verify_face_morphism(E1) == ()


def test_verify_identity_is_not_proper():
    ident = FaceMorphism(NAT, NAT, IntMatrix.identity(1))
    assert verify_face_morphism(ident) == ("face not proper",)


def test_verify_diagonal_is_not_a_face():
    diag = FaceMorphism(NAT, QUAD, IntMatrix.from_cols([(1, 1)]))
    assert "image not a face" in verify_face_morphism(diag)


def test_verify_non_injective():
    zero = FaceMorphism(NAT, QUAD, IntMatrix.from_cols([(0, 0)]))
    assert verify_face_morphism(zero) == ("not injective",)


def test_verify_unsaturated_inclusion():
    # doubling N into the axis: the image lattice 2Z x 0 has index 2 in gp
    doubled = FaceMorphism(NAT, QUAD, IntMatrix.from_cols([(2, 0)]))
    assert "not saturated" in verify_face_morphism(doubled)


# T1 past injectivity reads the image off the ray map, as a mask over the
# target's rays; each map below reaches one branch of that reading

def test_t1_on_a_doubling_map_finds_only_unsaturation():
    # 2I sends each ray to twice itself: a ray map onto the improper face,
    # which is not reported because the map already fails saturation
    doubling = FaceMorphism(QUAD, QUAD, IntMatrix.from_rows([(2, 0), (0, 2)]))
    assert doubling.ray_map == (0, 1)
    assert verify_face_morphism(doubling) == ("not saturated",)


def test_t1_without_a_ray_map_finds_no_face():
    diag = FaceMorphism(NAT, QUAD, IntMatrix.from_cols([(1, 1)]))
    assert diag.ray_map is None
    assert verify_face_morphism(diag) == ("image not a face",)


def test_t1_with_a_ray_map_off_the_face_masks_finds_no_face():
    # the quadrant's rays go to opposite rays of a square's cone, which span
    # no face of it (and the map has index 2 onto its image)
    square = cone_from_rays(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    across = FaceMorphism(QUAD, square, IntMatrix.from_rows([(-1, 1), (0, 0), (1, 1)]))
    assert across.ray_map is not None
    assert verify_face_morphism(across) == ("image not a face", "not saturated")


def test_t1_on_identity_edges_applies_no_matrix(monkeypatch):
    # a face diagram's edges hold the shared identity, so each ray map is
    # looked up from the source rays themselves
    pyramid = cone_from_rays(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    d = face_diagram(pyramid)
    edges = [FaceMorphism(d.objects[e.source_id], d.objects[e.target_id], e.matrix) for e in d.edges]
    assert edges and all(f.map is IntMatrix.identity(3) for f in edges)
    applied = []
    apply = IntMatrix.apply
    monkeypatch.setattr(IntMatrix, "apply", lambda m, v: applied.append(v) or apply(m, v))
    assert [verify_face_morphism(f) for f in edges] == [()] * len(edges)
    assert applied == []
    monkeypatch.undo()
    for f in edges:
        assert f.ray_map == ray_indices(f.target, [f.map.apply(r) for r in f.source.rays])


def test_t1_stops_at_a_non_injective_map_with_a_ray_map():
    fold = FaceMorphism(QUAD, NAT, IntMatrix.from_rows([(1, 1)]))
    assert fold.ray_map == (0, 0)
    assert verify_face_morphism(fold) == ("not injective",)


def test_verify_zero_monoid_into_quadrant():
    origin = cone_from_rays(0, [])
    into = FaceMorphism(origin, QUAD, IntMatrix(2, 0, ((), ())))
    assert verify_face_morphism(into) == ()


def test_image_cone():
    assert image_cone(E1).rays == ((1, 0),)


def test_extend_positive_mode_pinned():
    psi = Functional((2,))
    out = extend_functional(E1, psi, "nonneg_positive_away")
    assert out.coefficients == (2, 1)


def test_extend_arbitrary_mode_pinned():
    psi = Functional((-1,))
    out = extend_functional(E1, psi, "arbitrary")
    assert out.coefficients == (-1, 0)


def test_extend_from_zero_face():
    origin = cone_from_rays(0, [])
    into = FaceMorphism(origin, QUAD, IntMatrix(2, 0, ((), ())))
    psi = Functional(())
    out = extend_functional(into, psi, "nonneg_positive_away")
    assert out.coefficients == (1, 1)


def test_extend_along_improper_face_returns_psi():
    ident = FaceMorphism(QUAD, QUAD, IntMatrix.identity(2))
    psi = Functional((3, 5))
    out = extend_functional(ident, psi, "nonneg_positive_away")
    assert out == psi


def test_extend_negative_on_face_raises():
    psi = Functional((-2,))
    with pytest.raises(NegativeOnFace):
        extend_functional(E1, psi, "nonneg_positive_away")


def test_extend_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        extend_functional(E1, Functional((1, 0)))  # psi lives on the source lattice, of rank 1
    with pytest.raises(ValueError):
        extend_functional(E1, Functional((1,)), "positively")


def _face_inclusion(c: Cone, f: Cone) -> FaceMorphism:
    """Source living in its own span coordinates, mapped in by the span basis."""
    basis = gp(f)
    if f.rays:
        coords = reduce_basis(basis).coordinates(IntMatrix.from_cols(f.rays, rows=c.ambient_rank))
        inner = cone_from_rays(basis.cols, coords.columns())
    else:
        inner = cone_from_rays(0, [])
    return FaceMorphism(inner, c, basis)


vectors = st.lists(
    st.tuples(*([st.integers(min_value=-5, max_value=5)] * 3)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=80, deadline=None)
@given(vectors, st.data())
def test_face_inclusions_verify_and_extend(vecs, data):
    try:
        c = cone_from_rays(3, vecs)
    except NotPointed:
        assume(False)
    fs = faces(c)
    assume(len(fs) > 1)
    f = data.draw(st.sampled_from(fs[:-1]))  # a proper face
    inc = _face_inclusion(c, f)
    assert verify_face_morphism(inc) == ()

    # extension restricts exactly and clears 1 on the rays off the face
    src_rays = inc.source.rays
    coeffs = tuple(
        data.draw(st.integers(min_value=0, max_value=4), label="psi")
        for _ in range(inc.source.ambient_rank)
    )
    psi = Functional(coeffs)
    assume(all(psi(r) >= 0 for r in src_rays))
    out = extend_functional(inc, psi, "nonneg_positive_away")
    s = inc.map @ gp(inc.source)
    for j in range(s.cols):
        assert out(s.col(j)) == psi(gp(inc.source).col(j))
    face_rays = set(f.rays)
    for r in c.rays:
        v = out(r)
        if r in face_rays:
            assert v >= 0
        else:
            assert v >= 1


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(["split", "unsaturated", "any"]))
def test_face_morphism_check_matches_the_two_step_check(seed, kind):
    # one Smith reduction of the map stands in for rank and, when the map
    # splits, for the saturation of the image of gp
    rng = random.Random(seed)
    src = random_pointed_cone(rng, max_rank=3, max_rays=4)
    a, b = src.ambient_rank, rng.randint(src.ambient_rank, 4)
    if kind == "any":
        m = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(a)] for _ in range(b)], cols=a)
    else:
        cols = random_unimodular(rng, b).columns()[:a]
        if kind == "unsaturated":
            j = rng.randrange(a)
            cols[j] = tuple(rng.choice((2, 3)) * x for x in cols[j])
        m = IntMatrix.from_cols(cols, rows=b)
    # the images of the source rays, some other vectors, or both
    gens = [m.apply(r) for r in src.rays] if rng.random() < 0.7 else []
    gens += [tuple(rng.randint(-2, 2) for _ in range(b)) for _ in range(rng.randint(0, 3))]
    try:
        tgt = cone_from_rays(b, gens)
    except NotPointed:
        tgt = cone_from_rays(b, [])
    f = FaceMorphism(src, tgt, m)
    assert verify_face_morphism(f) == face_morphism_violations(f)
