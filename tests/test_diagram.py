"""Diagrams of toric monoids: tightness, colimits, functional extension."""

import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricfans import cone as cone_module
from toricfans import diagram as diagram_module
from toricfans import documents
from toricfans.cone import Functional, NotPointed, cone_from_rays, faces
from toricfans.diagram import (
    ColimitResult,
    DiagramAnalysis,
    DiagramMorphism,
    IncompatibleFamily,
    NegativeOnSub,
    NotJoinClosed,
    NotTight,
    NotTightSubdiagram,
    Subdiagram,
    TightDiagram,
    colimit,
    coproduct,
    extend_diagram_functional,
    face_diagram,
    is_join_closed,
    validate_tight,
    verify_face_embeddings,
)
from toricfans.errors import InternalError
from toricfans.intlin import IntMatrix, invariant_factors, reduce_basis
from toricfans.monoid import NegativeOnFace, gp

from oracles import colimit_against_coequalizer, cover_pairs, induced_subdiagram
from randomgen import (
    below_sets,
    charts_of,
    orthant_fan,
    paraboloid_cone,
    random_complete_fan_rank2,
    random_complete_or_affine_fan,
    random_pointed_cone,
    random_tight_diagram,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

QUADRANT = cone_from_rays(2, [(1, 0), (0, 1)])
OCTANT = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
NAT_LINE = face_diagram(cone_from_rays(1, [(1,)]))

# face ids in face_diagram index into the lex-sorted ray tuple, so for the
# quadrant "f_0" is the ray (0,1) and "f_1" is the ray (1,0)
ZERO, E2_RAY, E1_RAY, FULL = "f", "f_0", "f_1", "f_0_1"


P2_RAYS = ((1, 0), (0, 1), (-1, -1))
P1XP1_RAYS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def chart_diagram(rays) -> TightDiagram:
    """The chart diagram of the complete fan in Z^2 whose rays, in cyclic
    order, are rays: the zero cone "z", each ray "r{i}" and each cone "c{i}"
    on rays i and i + 1, with identity edges along the inclusions."""
    n = len(rays)
    objects = {"z": cone_from_rays(2, [])}
    edges = []
    for i, r in enumerate(rays):
        objects[f"r{i}"] = cone_from_rays(2, [r])
        objects[f"c{i}"] = cone_from_rays(2, [r, rays[(i + 1) % n]])
        edges.append(DiagramMorphism("z", f"r{i}", IntMatrix.identity(2)))
        edges.append(DiagramMorphism(f"r{i}", f"c{i}", IntMatrix.identity(2)))
        edges.append(DiagramMorphism(f"r{(i + 1) % n}", f"c{i}", IntMatrix.identity(2)))
    return TightDiagram(objects, edges)


def _embeddings_commute(d: TightDiagram, c: ColimitResult) -> bool:
    for e in d.morphisms:
        src, tgt = d.objects[e.source_id], d.objects[e.target_id]
        step = reduce_basis(gp(tgt)).coordinates(e.matrix @ gp(src))
        if c.embeddings[e.target_id] @ step != c.embeddings[e.source_id]:
            return False
    return True


def test_quadrant_face_diagram_is_tight():
    d = face_diagram(QUADRANT)
    assert set(d.objects) == {ZERO, E2_RAY, E1_RAY, FULL}
    assert validate_tight(d) == ()


def test_missing_zero_face_violates_t2():
    d = TightDiagram(
        {
            "q": QUADRANT,
            "r": cone_from_rays(1, [(1,)]),
        },
        [DiagramMorphism("r", "q", IntMatrix.from_cols([(1, 0)]))],
    )
    violations = validate_tight(d)
    # q misses its zero face and second ray, r misses its zero face
    assert len(violations) == 3
    assert all(v.startswith("T2") for v in violations)


def _doubled_plane() -> TightDiagram:
    origin = cone_from_rays(0, [])
    ray = cone_from_rays(1, [(1,)])
    plane = QUADRANT
    edges = [
        DiagramMorphism("0", "r1", IntMatrix.zeros(1, 0)),
        DiagramMorphism("0", "r2", IntMatrix.zeros(1, 0)),
        DiagramMorphism("0", "sA", IntMatrix.zeros(2, 0)),
        DiagramMorphism("0", "sB", IntMatrix.zeros(2, 0)),
    ]
    for plane_id in ("sA", "sB"):
        edges.append(DiagramMorphism("r1", plane_id, IntMatrix.from_cols([(1, 0)])))
        edges.append(DiagramMorphism("r2", plane_id, IntMatrix.from_cols([(0, 1)])))
    return TightDiagram(
        {"0": origin, "r1": ray, "r2": ray, "sA": plane, "sB": plane}, edges
    )


def test_doubled_plane_fails_exactly_t4():
    violations = validate_tight(_doubled_plane())
    assert len(violations) == 1
    assert violations[0].startswith("T4")
    assert "'sA'" in violations[0] and "'sB'" in violations[0]


def test_disagreeing_composites_violate_t3():
    origin = cone_from_rays(0, [])
    ray = cone_from_rays(1, [(1,)])
    plane = QUADRANT
    d = TightDiagram(
        {"0": origin, "r": ray, "s": plane},
        [
            DiagramMorphism("0", "r", IntMatrix.zeros(1, 0)),
            DiagramMorphism("0", "s", IntMatrix.zeros(2, 0)),
            DiagramMorphism("r", "s", IntMatrix.from_cols([(1, 0)])),
            DiagramMorphism("r", "s", IntMatrix.from_cols([(0, 1)])),
        ],
    )
    assert any(v.startswith("T3") for v in validate_tight(d))


def test_morphism_cycle_is_reported():
    ray = cone_from_rays(1, [(1,)])
    d = TightDiagram({"r": ray}, [DiagramMorphism("r", "r", IntMatrix.identity(1))])
    assert "T3: the diagram contains a directed morphism cycle" in validate_tight(d)


def test_two_object_cycle_ends_the_analysis_after_t1():
    ray = cone_from_rays(1, [(1,)])
    identity = IntMatrix.identity(1)
    d = TightDiagram({"r": ray, "s": ray}, [DiagramMorphism("r", "s", identity), DiagramMorphism("s", "r", identity)])
    *t1, last = validate_tight(d)
    assert last == "T3: the diagram contains a directed morphism cycle"
    assert t1 and all(v.startswith("T1: ") for v in t1)
    assert d.analysis.order == ()


def test_construction_rejects_bad_shapes_and_ids():
    ray = cone_from_rays(1, [(1,)])
    with pytest.raises(ValueError):
        TightDiagram({"r": ray}, [DiagramMorphism("r", "missing", IntMatrix.identity(1))])
    with pytest.raises(ValueError):
        TightDiagram(
            {"r": ray, "s": QUADRANT},
            [DiagramMorphism("r", "s", IntMatrix.identity(2))],
        )


def test_colimit_of_two_nats_glued_at_zero():
    d = coproduct(NAT_LINE, NAT_LINE)
    assert validate_tight(d) == ()
    c = colimit(d)
    assert c.cone.ambient_rank == 2
    assert c.cone == QUADRANT
    assert c.embeddings["a:f_0"].apply((1,)) == (1, 0)
    assert c.embeddings["b:f_0"].apply((1,)) == (0, 1)
    assert verify_face_embeddings(d, c) == ()


def test_colimit_of_face_diagram_recovers_the_cone():
    d = face_diagram(QUADRANT)
    c = colimit(d)
    assert c.cone.ambient_rank == 2
    assert c.cone == QUADRANT
    assert c.embeddings[FULL] == IntMatrix.identity(2)
    assert _embeddings_commute(d, c)
    assert verify_face_embeddings(d, c) == ()


@pytest.mark.parametrize(
    "replaced, embedding, violation",
    [
        (FULL, IntMatrix.zeros(2, 2), "embedding of 'f_0_1' is not injective"),
        (E2_RAY, IntMatrix.from_cols([(1, 1)]), "image of 'f_0' is not a face of the colimit cone"),
    ],
)
def test_face_embedding_check_reports_a_tampered_colimit(replaced, embedding, violation):
    d = face_diagram(QUADRANT)
    c = colimit(d)
    tampered = ColimitResult(c.cone, {**c.embeddings, replaced: embedding})
    assert verify_face_embeddings(d, tampered) == (violation,)


def test_colimit_of_low_dimensional_face_diagram_uses_gp_rank():
    skew = cone_from_rays(2, [(1, 2)])
    c = colimit(face_diagram(skew))
    assert c.cone.ambient_rank == 1
    assert c.cone.rays == ((1,),)


def test_colimit_of_three_rays_is_the_octant():
    d = coproduct(coproduct(NAT_LINE, NAT_LINE), NAT_LINE)
    assert validate_tight(d) == ()
    c = colimit(d)
    assert c.cone.ambient_rank == 3
    assert c.cone == OCTANT
    assert verify_face_embeddings(d, c) == ()


@pytest.mark.parametrize("rays", [P2_RAYS, P1XP1_RAYS], ids=["P2", "P1xP1"])
def test_charts_of_a_complete_fan_glue_along_rays_into_an_orthant(rays):
    # adjacent charts meet along a ray, so the colimit has relation columns
    d = chart_diagram(rays)
    assert validate_tight(d) == ()
    c = colimit(d)
    n = len(rays)
    assert c.cone.ambient_rank == n
    assert verify_face_embeddings(d, c) == ()
    assert _embeddings_commute(d, c)
    assert len(c.cone.rays) == n
    assert invariant_factors(IntMatrix.from_cols(c.cone.rays)) == (1,) * n


def test_colimit_of_empty_diagram():
    c = colimit(TightDiagram({}, []))
    assert c.cone.ambient_rank == 0
    assert c.cone == cone_from_rays(0, [])
    assert c.embeddings == {}


@pytest.mark.parametrize("mode", ["arbitrary", "nonneg_positive_away"])
def test_extension_on_the_empty_diagram_is_the_empty_functional(mode):
    # no maximal objects: the descent to the rank-0 colimit has nothing to stack
    d = TightDiagram({}, [])
    assert extend_diagram_functional(Subdiagram(d, frozenset()), {}, mode) == Functional(())


def test_coproduct_drops_zero_only_components():
    d = coproduct(NAT_LINE, face_diagram(cone_from_rays(1, [])))
    assert set(d.objects) == {"0", "a:f_0"}
    c = colimit(d)
    assert c.cone.ambient_rank == 1
    assert c.cone.rays == ((1,),)


def test_colimit_requires_tightness():
    d = TightDiagram(
        {
            "q": QUADRANT,
            "r": cone_from_rays(1, [(1,)]),
        },
        [DiagramMorphism("r", "q", IntMatrix.from_cols([(1, 0)]))],
    )
    with pytest.raises(NotTight) as info:
        colimit(d)
    assert info.value.violations


def test_join_closed_chain():
    d = face_diagram(QUADRANT)
    assert is_join_closed(Subdiagram(d, frozenset({ZERO, E1_RAY}))) == (True, None)


def test_join_closed_detects_missing_join():
    d = face_diagram(QUADRANT)
    ok, witness = is_join_closed(Subdiagram(d, frozenset({ZERO, E2_RAY, E1_RAY})))
    assert not ok
    assert witness == (E2_RAY, E1_RAY, FULL)


def test_join_closed_full_subdiagram():
    d = face_diagram(QUADRANT)
    assert is_join_closed(Subdiagram(d, frozenset(d.objects))) == (True, None)


def test_join_closed_requires_tight_members():
    d = face_diagram(QUADRANT)
    with pytest.raises(NotTightSubdiagram):
        is_join_closed(Subdiagram(d, frozenset({E2_RAY, E1_RAY})))


def test_join_closed_requires_tight_parent():
    # the octant misses its other faces (T2), so joins inside it are undefined
    zero = cone_from_rays(0, [])
    ray = cone_from_rays(1, [(1,)])
    d = TightDiagram(
        {"z": zero, "e1": ray, "e2": ray, "O": OCTANT},
        [
            DiagramMorphism("z", "e1", IntMatrix.zeros(1, 0)),
            DiagramMorphism("z", "e2", IntMatrix.zeros(1, 0)),
            DiagramMorphism("e1", "O", IntMatrix.from_cols([(1, 0, 0)])),
            DiagramMorphism("e2", "O", IntMatrix.from_cols([(0, 1, 0)])),
        ],
    )
    with pytest.raises(NotTight) as info:
        is_join_closed(Subdiagram(d, frozenset({"z", "e1", "e2"})))
    assert info.value.violations == validate_tight(d)
    assert all(v.startswith("T2") for v in info.value.violations)


def test_subdiagram_rejects_unknown_ids():
    with pytest.raises(ValueError):
        Subdiagram(face_diagram(QUADRANT), frozenset({"nope"}))


def test_extend_from_zero_and_axis_pinned():
    d = face_diagram(QUADRANT)
    sub = Subdiagram(d, frozenset({ZERO, E1_RAY}))
    chi = {ZERO: (0, 0), E1_RAY: (1, 0)}
    out = extend_diagram_functional(sub, chi, "nonneg_positive_away")
    assert out == Functional((1, 1))


def test_extend_on_full_subdiagram_returns_the_family():
    d = face_diagram(QUADRANT)
    sub = Subdiagram(d, frozenset(d.objects))
    chi = {ZERO: (0, 0), E2_RAY: (2, 3), E1_RAY: (2, 3), FULL: (2, 3)}
    out = extend_diagram_functional(sub, chi, "nonneg_positive_away")
    assert out == Functional((2, 3))


def test_extend_octant_from_origin_pinned():
    d = face_diagram(OCTANT)
    sub = Subdiagram(d, frozenset({"f"}))
    out = extend_diagram_functional(sub, {"f": (0, 0, 0)}, "nonneg_positive_away")
    assert out == Functional((1, 1, 1))


def test_extend_arbitrary_mode_allows_negatives():
    d = face_diagram(QUADRANT)
    sub = Subdiagram(d, frozenset({ZERO, E1_RAY}))
    out = extend_diagram_functional(sub, {ZERO: (0, 0), E1_RAY: (-1, 0)}, "arbitrary")
    assert out == Functional((-1, 0))


def test_extend_across_components():
    d = coproduct(NAT_LINE, NAT_LINE)
    sub = Subdiagram(d, frozenset({"0", "a:f_0"}))
    chi = {"0": (), "a:f_0": (3,)}
    out = extend_diagram_functional(sub, chi, "nonneg_positive_away")
    # restricts to 3 on the a-ray, forced to at least 1 on the b-ray
    assert out == Functional((3, 1))


def test_extend_rejects_non_join_closed_sub():
    d = face_diagram(QUADRANT)
    sub = Subdiagram(d, frozenset({ZERO, E2_RAY, E1_RAY}))
    chi = {ZERO: (0, 0), E2_RAY: (1, 1), E1_RAY: (1, 1)}
    with pytest.raises(NotJoinClosed) as info:
        extend_diagram_functional(sub, chi)
    assert info.value.witness == (E2_RAY, E1_RAY, FULL)


def test_extend_rejects_incompatible_family():
    d = face_diagram(QUADRANT)
    sub = Subdiagram(d, frozenset(d.objects))
    chi = {ZERO: (0, 0), E2_RAY: (0, 1), E1_RAY: (2, 3), FULL: (2, 3)}
    with pytest.raises(IncompatibleFamily):
        extend_diagram_functional(sub, chi)


def test_extend_rejects_wrong_family_keys():
    d = face_diagram(QUADRANT)
    sub = Subdiagram(d, frozenset({ZERO, E1_RAY}))
    with pytest.raises(IncompatibleFamily):
        extend_diagram_functional(sub, {ZERO: (0, 0)})


def test_extend_rejects_negative_family_in_positive_mode():
    d = face_diagram(QUADRANT)
    sub = Subdiagram(d, frozenset({ZERO, E1_RAY}))
    chi = {ZERO: (0, 0), E1_RAY: (-1, 0)}
    with pytest.raises(NegativeOnSub):
        extend_diagram_functional(sub, chi, "nonneg_positive_away")


@pytest.mark.parametrize("bad", [(0.2, 1.7), (True, 0), (0, 1.0)])
def test_extend_refuses_non_int_coefficients(bad):
    # int() would truncate (0.2, 1.7) to (0, 1) and read True as 1
    d = face_diagram(QUADRANT)
    sub = Subdiagram(d, frozenset({ZERO, E2_RAY}))
    with pytest.raises(TypeError):
        extend_diagram_functional(sub, {ZERO: (0, 0), E2_RAY: bad})


def test_extend_rejects_unknown_mode():
    d = face_diagram(QUADRANT)
    sub = Subdiagram(d, frozenset({ZERO}))
    with pytest.raises(ValueError):
        extend_diagram_functional(sub, {ZERO: (0, 0)}, "positively")


def _three_rays_into_the_quadrant() -> TightDiagram:
    """r1 and r2 both onto the quadrant's (1,0) ray, r3 onto its (0,1) ray."""
    ray = cone_from_rays(1, [(1,)])
    objects = {"0": cone_from_rays(0, []), "r1": ray, "r2": ray, "r3": ray, "P": QUADRANT}
    edges = [DiagramMorphism("0", i, IntMatrix.zeros(objects[i].ambient_rank, 0)) for i in objects if i != "0"]
    edges += [
        DiagramMorphism("r1", "P", IntMatrix.from_cols([(1, 0)])),
        DiagramMorphism("r2", "P", IntMatrix.from_cols([(1, 0)])),
        DiagramMorphism("r3", "P", IntMatrix.from_cols([(0, 1)])),
    ]
    return TightDiagram(objects, edges)


def _check_extension(sub: Subdiagram, chi, mode: str, phi: Functional) -> None:
    """phi restricts to chi on each member's gp and, in positive mode, is
    >= 0 on every object's colimit image and >= 1 on every ray of it outside
    the members' images."""
    d = sub.parent
    c = colimit(d)
    row = IntMatrix(1, c.cone.ambient_rank, (phi.coefficients,))
    images = {}
    for i, obj in d.objects.items():
        if i in sub.member_ids:
            assert row @ c.embeddings[i] == IntMatrix(1, obj.ambient_rank, (tuple(chi[i]),)) @ gp(obj)
        coords = [reduce_basis(gp(obj)).coordinates(IntMatrix.from_cols([r], rows=len(r))).col(0) for r in obj.rays]
        images[i] = {c.embeddings[i].apply(x) for x in coords}
    if mode == "nonneg_positive_away":
        member_rays = set().union(*(images[i] for i in sub.member_ids))
        for rays in images.values():
            assert all(phi(r) >= (0 if r in member_rays else 1) for r in rays)


@pytest.mark.parametrize("mode", ["arbitrary", "nonneg_positive_away"])
def test_extend_restricts_to_an_outside_object_below_a_member(mode):
    # r2 is outside, and the member P sits above it, so its value is P's restricted
    d = _three_rays_into_the_quadrant()
    assert validate_tight(d) == ()
    chi = {"0": (), "r1": (2,), "r3": (3,), "P": (2, 3)}
    sub = Subdiagram(d, frozenset(chi))
    phi = extend_diagram_functional(sub, chi, mode)
    assert phi == Functional((2, 3))
    _check_extension(sub, chi, mode, phi)


@pytest.mark.parametrize("mode, expected", [("arbitrary", (0, 0)), ("nonneg_positive_away", (1, 1))])
def test_extend_from_no_members_starts_at_the_origin(mode, expected):
    # nothing is processed below P, so P extends from the rank-0 origin
    sub = Subdiagram(_three_rays_into_the_quadrant(), frozenset())
    phi = extend_diagram_functional(sub, {}, mode)
    assert phi == Functional(expected)
    _check_extension(sub, {}, mode, phi)


def _two_quadrants_on_one_ray() -> TightDiagram:
    """Quadrants P and Q glued along the ray s, which maps onto the (1,0) ray
    of both; r onto that ray of P only and t of Q only, u and v onto their
    (0,1) rays."""
    ray = cone_from_rays(1, [(1,)])
    objects = {"0": cone_from_rays(0, []), "P": QUADRANT, "Q": QUADRANT, "r": ray, "s": ray, "t": ray,
               "u": ray, "v": ray}
    e1, e2 = IntMatrix.from_cols([(1, 0)]), IntMatrix.from_cols([(0, 1)])
    edges = [DiagramMorphism("0", i, IntMatrix.zeros(objects[i].ambient_rank, 0)) for i in objects if i != "0"]
    edges += [DiagramMorphism(x, y, m) for x, y, m in
              [("s", "P", e1), ("s", "Q", e1), ("r", "P", e1), ("t", "Q", e1), ("u", "P", e2), ("v", "Q", e2)]]
    return TightDiagram(objects, edges)


@pytest.mark.parametrize("mode", ["arbitrary", "nonneg_positive_away"])
def test_members_that_disagree_on_an_outside_face_they_share_do_not_descend(mode):
    # every composite between members agrees, but P and Q give the ray s,
    # which no member lies above alone, the values 1 and 2: only the
    # colimit's relation along s sees that
    d = _two_quadrants_on_one_ray()
    assert validate_tight(d) == ()
    sub = Subdiagram(d, frozenset(d.objects) - {"s"})
    assert is_join_closed(sub) == (True, None)
    chi = {"0": (), "P": (1, 0), "Q": (2, 0), "r": (1,), "t": (2,), "u": (0,), "v": (0,)}
    with pytest.raises(IncompatibleFamily, match="^family does not descend to the colimit$"):
        extend_diagram_functional(sub, chi, mode)
    agreeing = {**chi, "Q": (1, 0), "t": (1,)}
    _check_extension(sub, agreeing, mode, extend_diagram_functional(sub, agreeing, mode))


def test_an_extension_that_starts_negative_is_an_internal_error(monkeypatch):
    # in positive mode every value the induction sets is >= 0 on its object's
    # rays, so only a bug can hand extend_functional a negative start
    def negative(morphism, psi, mode):
        raise NegativeOnFace("negative on source ray (1,)")

    monkeypatch.setattr(diagram_module, "extend_functional", negative)
    sub = Subdiagram(face_diagram(QUADRANT), frozenset({ZERO, E1_RAY}))
    with pytest.raises(InternalError, match=f"^extension of {FULL!r} from {E1_RAY!r}: negative on source ray"):
        extend_diagram_functional(sub, {ZERO: (0, 0), E1_RAY: (1, 0)})


def test_a_descended_functional_that_misses_a_member_is_an_internal_error(monkeypatch):
    # every value the induction sets restricts to the values below it, so the
    # functional descended from the maximal objects restricts to each member
    monkeypatch.setattr(DiagramAnalysis, "descend", lambda self, restrictions, rows: IntMatrix(1, 2, ((5, 5),)))
    sub = Subdiagram(face_diagram(QUADRANT), frozenset({ZERO, E1_RAY}))
    with pytest.raises(InternalError, match=f"^the descended functional does not restrict to member {E1_RAY!r}$"):
        extend_diagram_functional(sub, {ZERO: (0, 0), E1_RAY: (1, 0)})


@pytest.mark.xfail(strict=True, raises=InternalError,
                   reason="the last chart's processed faces have no top, so the induction has no face to extend from")
@pytest.mark.parametrize("mode", ["arbitrary", "nonneg_positive_away"])
@pytest.mark.parametrize("rays", [P2_RAYS, P1XP1_RAYS], ids=["P2", "P1xP1"])
def test_extend_from_the_zero_chart_of_a_complete_fan(rays, mode):
    sub = Subdiagram(chart_diagram(rays), frozenset({"z"}))
    chi = {"z": (0, 0)}
    _check_extension(sub, chi, mode, extend_diagram_functional(sub, chi, mode))


def test_composite_whose_image_spans_a_line_has_no_image_cone():
    # (1, -1) sends the quadrant's rays to 1 and -1, which span a line
    d = TightDiagram(
        {"q": QUADRANT, "z": cone_from_rays(1, [(1,)])},
        [DiagramMorphism("q", "z", IntMatrix.from_rows([(1, -1)]))],
    )
    assert validate_tight(d) == (
        "T1: morphism 'q'->'z': not injective",
        "T2: object 'q' is missing its face with rays ()",
        "T2: object 'q' is missing its face with rays ((0, 1),)",
        "T2: object 'q' is missing its face with rays ((1, 0),)",
        "T2: object 'z' is missing its face with rays ()",
    )
    assert d.analysis.images["q", "z"] is None


def test_degenerate_composite_still_realizes_a_face():
    # q -> p kills q's ray (0, 1), so the composite has no ray map, yet the
    # cone of its rays' images is p's ray (1, 0), which nothing else realizes
    zero = IntMatrix.zeros(2, 0)
    d = TightDiagram(
        {"0": cone_from_rays(0, []), "p": QUADRANT, "q": QUADRANT},
        [DiagramMorphism("0", "p", zero), DiagramMorphism("0", "q", zero),
         DiagramMorphism("q", "p", IntMatrix.from_rows([(1, 0), (0, 0)]))],
    )
    assert validate_tight(d) == (
        "T1: morphism 'q'->'p': not injective",
        "T2: object 'p' is missing its face with rays ((0, 1),)",
        "T2: object 'q' is missing its face with rays ((0, 1),)",
        "T2: object 'q' is missing its face with rays ((1, 0),)",
    )
    assert _image_cone(d, "q", "p") == cone_from_rays(2, [(1, 0)])


def test_missing_faces_are_reported_in_face_order():
    # the octant's face diagram without its ray (1, 0, 0) and its face on
    # (0, 0, 1), (0, 1, 0): by ray count the ray comes first, by mask second
    full = face_diagram(OCTANT)
    kept = {i: c for i, c in full.objects.items() if i not in ("f_2", "f_0_1")}
    d = TightDiagram(kept, [e for e in full.morphisms if e.source_id in kept and e.target_id in kept])
    assert validate_tight(d) == (
        "T2: object 'f_0_1_2' is missing its face with rays ((1, 0, 0),)",
        "T2: object 'f_0_1_2' is missing its face with rays ((0, 0, 1), (0, 1, 0))",
        "T2: object 'f_0_2' is missing its face with rays ((1, 0, 0),)",
        "T2: object 'f_1_2' is missing its face with rays ((1, 0, 0),)",
    )


def test_colimit_is_deterministic():
    d = coproduct(face_diagram(QUADRANT), NAT_LINE)
    first, second = colimit(d), colimit(d)
    assert first.cone.ambient_rank == second.cone.ambient_rank
    assert first.cone == second.cone
    assert first.embeddings == second.embeddings


vectors = st.lists(
    st.tuples(*([st.integers(min_value=-4, max_value=4)] * 3)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=30, deadline=None)
@given(vectors)
def test_face_diagrams_are_tight_with_verified_colimits(vecs):
    try:
        c = cone_from_rays(3, vecs)
    except NotPointed:
        assume(False)
    d = face_diagram(c)
    assert validate_tight(d) == ()
    result = colimit(d)
    assert verify_face_embeddings(d, result) == ()
    assert _embeddings_commute(d, result)
    # colimit of the face diagram of the colimit cone reproduces the cone
    again = colimit(face_diagram(result.cone))
    assert again.cone == result.cone


@settings(max_examples=15, deadline=None)
@given(vectors, vectors)
def test_coproducts_of_face_diagrams_verify(vecs_a, vecs_b):
    try:
        a = cone_from_rays(3, vecs_a)
        b = cone_from_rays(3, vecs_b)
    except NotPointed:
        assume(False)
    d = coproduct(face_diagram(a), face_diagram(b))
    assert validate_tight(d) == ()
    result = colimit(d)
    assert result.cone.ambient_rank == gp(a).cols + gp(b).cols
    assert verify_face_embeddings(d, result) == ()
    assert _embeddings_commute(d, result)


# random_tight_diagram rejection-samples, so Hypothesis draws its seed only
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.mark.parametrize("rays", [P2_RAYS, P1XP1_RAYS], ids=["P2", "P1xP1"])
def test_a_chart_colimit_is_the_full_coequalizer(rays):
    # the charts meet along rays, so the colimit's relation columns are not empty
    d = chart_diagram(rays)
    maximal = d.analysis.maximal_ids
    assert any(gp(d.objects[d.analysis.meet(a, b)]).cols for a in maximal for b in maximal if a < b)
    assert colimit_against_coequalizer(d, colimit(d)) == (True, True)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_the_colimit_of_a_random_tight_diagram_is_the_full_coequalizer(seed):
    d = random_tight_diagram(random.Random(seed))
    assert colimit_against_coequalizer(d, colimit(d)) == (True, True)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from([random_complete_fan_rank2, random_complete_or_affine_fan, orthant_fan]))
def test_the_colimit_of_the_charts_of_a_fan_is_the_full_coequalizer(seed, fan_of):
    d = charts_of(fan_of(random.Random(seed))).diagram
    assert colimit_against_coequalizer(d, colimit(d)) == (True, True)


def _thinned(rng, d: TightDiagram, scramble: bool = False) -> TightDiagram:
    """d with about a fifth of its edges dropped and, when asked, some edge
    matrices replaced by small random ones (no longer face inclusions)."""
    edges = []
    for e in d.morphisms:
        if rng.random() < 0.2:
            continue
        if scramble and rng.random() < 0.2:
            m = e.matrix
            e = DiagramMorphism(e.source_id, e.target_id, IntMatrix.from_rows(
                [[rng.randint(-1, 2) for _ in range(m.cols)] for _ in range(m.rows)], cols=m.cols))
        edges.append(e)
    return TightDiagram(d.objects, edges)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_t4_and_meets_match_a_brute_force_count(seed):
    rng = random.Random(seed)
    d = _thinned(rng, random_tight_diagram(rng))
    below = below_sets(d)
    ids = sorted(d.objects)
    meets, t4 = {}, []
    for k, a in enumerate(ids):
        for b in ids[k + 1 :]:
            common = below[a] & below[b]
            maximal = [x for x in common if not any(x != y and x in below[y] for y in common)]
            meets[a, b] = maximal[0] if len(maximal) == 1 else None
            if len(maximal) != 1:
                t4.append(f"T4: objects {a!r}, {b!r} have {len(maximal)} maximal common faces")
    analysis = d.analysis
    assert {(a, b): analysis.meet(a, b) for a, b in meets} == meets
    assert {(a, b): analysis.meet(b, a) for a, b in meets} == meets
    assert [v for v in analysis.violations if v.startswith("T4:")] == t4


def _image_cone(d: TightDiagram, x: str, p: str):
    """The analysis's image of x in p, a mask over p's rays, as a Cone (None
    stays None)."""
    mask = d.analysis.images[x, p]
    return None if mask is None else cone_module._of(d.objects[p]).cone_on(mask)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_composite_images_match_cone_from_rays(seed):
    # an image mask reads as the cone of the mapped rays; no mask means that
    # cone degenerates or is not made of rays of the target
    rng = random.Random(seed)
    d = _thinned(rng, random_tight_diagram(rng), scramble=True)
    for x, targets in d.analysis.composites.items():
        for p, m in targets.items():
            try:
                want = cone_from_rays(m.rows, [m.apply(r) for r in d.objects[x].rays])
            except NotPointed:
                want = None
            if want is not None and not set(want.rays) <= set(d.objects[p].rays):
                want = None
            assert _image_cone(d, x, p) == want


def _join_closed_by_face_scan(sub: Subdiagram):
    """is_join_closed as a scan of each parent's faces for the smallest one
    holding both images."""
    d = sub.parent
    comp = d.analysis.composites
    below = below_sets(d)
    members = sorted(sub.member_ids)
    for k, a in enumerate(members):
        for b in members[k:]:
            for p in sorted(comp[a].keys() & comp[b].keys()):
                joint = set(_image_cone(d, a, p).rays) | set(_image_cone(d, b, p).rays)
                holding = [f for f in faces(d.objects[p]) if joint <= set(f.rays)]
                join_face = min(holding, key=lambda f: (len(f.rays), f.rays))
                realizers = sorted(x for x in below[p] if _image_cone(d, x, p) == join_face)
                if not any(x in sub.member_ids for x in realizers):
                    return False, (a, b, realizers[0])
    return True, None


def _octants_glued_along_a_doubled_wall() -> TightDiagram:
    """Two octants a, b glued along their (e1, e2) quadrant m, each also
    holding its own copy of that quadrant over its own copies of e1 and e2;
    every object sits in Z^3 and every edge is a face cover."""
    axes = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
    spec = {"o": ((), ()), "r1": ((1,), ("o",)), "r2": ((2,), ("o",)), "m": ((1, 2), ("r1", "r2"))}
    for side in ("a", "b"):
        spec.update({
            f"{side}.r1": ((1,), ("o",)), f"{side}.r2": ((2,), ("o",)), f"{side}.r3": ((3,), ("o",)),
            f"{side}.x": ((1, 2), (f"{side}.r1", f"{side}.r2")),
            f"{side}.13": ((1, 3), ("r1", f"{side}.r3")),
            f"{side}.23": ((2, 3), ("r2", f"{side}.r3")),
            side: ((1, 2, 3), ("m", f"{side}.x", f"{side}.13", f"{side}.23")),
        })
    objects = {i: cone_from_rays(3, [axes[k] for k in ks]) for i, (ks, _) in spec.items()}
    edges = [DiagramMorphism(x, y, IntMatrix.identity(3)) for y, (_, xs) in spec.items() for x in xs]
    return TightDiagram(objects, edges)


DOUBLED_WALL = _octants_glued_along_a_doubled_wall()


def test_members_can_realize_every_face_yet_lack_a_meet():
    # without m, every face of a and b still has a member realizing it, but
    # their common members r1 and r2 have nothing above both
    assert validate_tight(DOUBLED_WALL) == ()
    sub = Subdiagram(DOUBLED_WALL, frozenset(DOUBLED_WALL.objects) - {"m"})
    assert validate_tight(induced_subdiagram(sub)) == ("T4: objects 'a', 'b' have 2 maximal common faces",)
    with pytest.raises(NotTightSubdiagram):
        is_join_closed(sub)
    assert is_join_closed(Subdiagram(DOUBLED_WALL, frozenset(DOUBLED_WALL.objects))) == (True, None)


@settings(max_examples=300, deadline=None)
@given(seeds, st.sampled_from(["down-closed", "arbitrary", "down-closed, then edited", "all but a few"]))
def test_member_tightness_matches_a_full_validation(seed, shape):
    # the members' verdict read off the parent's analysis against building
    # them into a diagram of their own and validating it in full
    rng = random.Random(seed)
    d = DOUBLED_WALL if rng.random() < 0.2 else random_tight_diagram(rng)
    below = below_sets(d)
    ids = sorted(d.objects)
    if shape == "arbitrary":
        members = {i for i in ids if rng.random() < 0.5}
    elif shape == "all but a few":
        members = set(ids) - set(rng.sample(ids, rng.randint(1, min(len(ids), 2))))
    else:
        members = set()
        for i in rng.sample(ids, rng.randint(0, min(len(ids), 3))):
            members |= below[i]
        if shape != "down-closed":
            members ^= set(rng.sample(ids, rng.randint(1, min(len(ids), 2))))
    sub = Subdiagram(d, frozenset(members))
    if validate_tight(induced_subdiagram(sub)):
        with pytest.raises(NotTightSubdiagram):
            is_join_closed(sub)
    else:
        assert is_join_closed(sub) == _join_closed_by_face_scan(sub)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_join_witnesses_match_a_face_scan(seed):
    rng = random.Random(seed)
    d = random_tight_diagram(rng)
    below = below_sets(d)
    ids = sorted(d.objects)
    members = set()
    for i in rng.sample(ids, rng.randint(1, min(len(ids), 3))):
        members |= below[i]
    sub = Subdiagram(d, frozenset(members))
    if validate_tight(induced_subdiagram(sub)):
        with pytest.raises(NotTightSubdiagram):
            is_join_closed(sub)
    else:
        assert is_join_closed(sub) == _join_closed_by_face_scan(sub)


def _cover_edges_by_set_scan(c):
    fs = faces(c)
    index = {r: k for k, r in enumerate(c.rays)}
    names = ["f" + "".join(f"_{index[r]}" for r in f.rays) for f in fs]
    return [(names[i], names[j]) for i, j in cover_pairs([f.rays for f in fs])]


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_face_diagram_covers_match_a_ray_set_scan(seed):
    c = random_pointed_cone(random.Random(seed), max_rank=4, max_rays=8)
    d = face_diagram(c)
    assert [(e.source_id, e.target_id) for e in d.morphisms] == _cover_edges_by_set_scan(c)
    assert all(e.matrix == IntMatrix.identity(c.ambient_rank) for e in d.morphisms)


def test_paraboloid_face_diagram_covers_match_a_ray_set_scan():
    c = paraboloid_cone(random.Random(6010), 6, 10)
    d = face_diagram(c)
    assert (len(d.objects), len(d.morphisms)) == (238, 821)
    assert [(e.source_id, e.target_id) for e in d.morphisms] == _cover_edges_by_set_scan(c)


def test_paraboloid_rung_6_14_is_tight_and_extends_from_the_zero_face():
    # the (6, 14) rung of the face-diagram ladder, checked for its results only
    c = paraboloid_cone(random.Random(6014), 6, 14)
    d = face_diagram(c)
    assert (len(d.objects), len(d.morphisms)) == (568, 2044)
    assert validate_tight(d) == ()
    result = colimit(d)
    assert (result.cone.ambient_rank, result.cone) == (6, c)
    phi = extend_diagram_functional(Subdiagram(d, frozenset({ZERO})), {ZERO: (0,) * 6})
    assert all(phi(r) >= 1 for r in result.cone.rays)


def test_colimit_images_need_no_new_cone_analysis():
    # every object lands on a face of the colimit cone, read off its record
    doc = documents.loads((FIXTURES / "quadrant-face-diagram.json").read_text("utf-8"))
    d = documents.decode_diagram(doc.payload)
    result = colimit(d)
    misses = cone_module._analyse.cache_info().misses
    assert verify_face_embeddings(d, result) == ()
    assert set(d.analysis.object_images.values()) == set(faces(result.cone))
    assert cone_module._analyse.cache_info().misses == misses
