"""Value semantics of the immutable classes: equal fields give equal
instances with equal hashes, fields cannot be assigned, and constructors
refuse bad shapes with their messages."""

import pytest

from toricfans import cone as cone_module
from toricfans.cone import Cone, Functional, NonPointedCone, cone_from_rays, dual_cone, gp
from toricfans.diagram import (
    ColimitResult,
    DiagramAnalysis,
    DiagramMorphism,
    Subdiagram,
    colimit,
    face_diagram,
)
from toricfans.frozen import Frozen
from toricfans.intlin import IntMatrix, ReducedBasis, reduce_basis
from toricfans.monoid import FaceMorphism
from toricfans.stackyfan import ChartData, Fan, StackyFan

QUADRANT_RAYS = ((0, 1), (1, 0))


def _quadrant_charts():
    d = face_diagram(cone_from_rays(2, QUADRANT_RAYS))
    return d, {i: gp(obj) for i, obj in d.objects.items()}


def _make(name):
    """A fresh instance of the class called name, equal to every other one
    this builds for the same name."""
    ray = Cone(2, ((1, 0),))
    quadrant = Cone(2, QUADRANT_RAYS)
    if name == "IntMatrix":
        return IntMatrix.from_rows([(1, 2), (3, 4)])
    if name == "ReducedBasis":
        return reduce_basis(IntMatrix.from_rows([(1, 0), (1, 2)]))
    if name == "Functional":
        return Functional((1, -2))
    if name == "Cone":
        return Cone(2, QUADRANT_RAYS)
    if name == "NonPointedCone":
        return dual_cone(ray)
    if name == "_Analysis":
        return cone_module._analyse.__wrapped__(2, QUADRANT_RAYS)
    if name == "FaceMorphism":
        return FaceMorphism(ray, quadrant, IntMatrix.from_rows([(1, 0), (0, 1)]))
    if name == "DiagramMorphism":
        return DiagramMorphism("a", "b", IntMatrix.from_rows([(1, 0), (0, 1)]))
    if name == "ColimitResult":
        return colimit(face_diagram(quadrant))
    if name == "DiagramAnalysis":
        return face_diagram(quadrant).analysis
    if name == "Fan":
        return Fan(2, [[0, 1], [1, 0]], [[1, 0, 1]])
    if name == "StackyFan":
        return StackyFan(Fan(2, QUADRANT_RAYS, ((0, 1),)), IntMatrix.from_rows([(1, 1), (0, 2)]))
    if name == "ChartData":
        d, betas = _quadrant_charts()
        return ChartData(d, betas, 2)
    if name == "Subdiagram":
        return Subdiagram(face_diagram(quadrant), frozenset({"f", "f_0"}))
    raise KeyError(name)


CLASSES = {
    "IntMatrix": IntMatrix,
    "ReducedBasis": ReducedBasis,
    "Functional": Functional,
    "Cone": Cone,
    "NonPointedCone": NonPointedCone,
    "_Analysis": cone_module._Analysis,
    "FaceMorphism": FaceMorphism,
    "DiagramMorphism": DiagramMorphism,
    "ColimitResult": ColimitResult,
    "DiagramAnalysis": DiagramAnalysis,
    "Fan": Fan,
    "StackyFan": StackyFan,
    "ChartData": ChartData,
    "Subdiagram": Subdiagram,
}
# a field holds a dict or a diagram, so these were never hashable
UNHASHABLE = {"ColimitResult", "DiagramAnalysis", "ChartData", "Subdiagram"}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_equal_fields_give_equal_instances_with_equal_hashes(name):
    a, b = _make(name), _make(name)
    assert type(a) is CLASSES[name] and a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        # the hash of the tuple of fields, so sets iterate as they always did
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in a._fields))


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_assigning_to_a_field_raises(name):
    a = _make(name)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = None


def test_equality_needs_the_same_class():
    assert Cone(2, QUADRANT_RAYS) != NonPointedCone(2, QUADRANT_RAYS, ())
    assert IntMatrix(0, 0, ()) != IntMatrix(0, 1, ())
    assert Cone(1, ((1,),)) != Cone(1, ((-1,),))
    assert IntMatrix.from_rows([(1,)]) != (1, 1, ((1,),))
    assert Cone(2, QUADRANT_RAYS).__eq__(QUADRANT_RAYS) is NotImplemented


def test_a_cone_keeps_its_record_out_of_equality_and_repr():
    c = Cone(2, QUADRANT_RAYS)
    gp(c)
    assert "_record" in vars(c)
    assert c == Cone(2, QUADRANT_RAYS)
    assert repr(c) == "Cone(ambient_rank=2, rays=((0, 1), (1, 0)))"


def test_fields_are_slots_and_the_class_dict_keeps_the_matrix_hooks():
    assert IntMatrix._fields == ("rows", "cols", "entries")
    assert not hasattr(IntMatrix.from_rows([(1,)]), "__dict__")
    assert {"__post_init__", "__matmul__"} <= vars(IntMatrix).keys()
    assert all(issubclass(CLASSES[n], Frozen) != issubclass(CLASSES[n], tuple) for n in CLASSES)


def test_the_matrix_constructor_runs_the_class_check_once(monkeypatch):
    calls = []
    check = IntMatrix.__post_init__
    monkeypatch.setattr(IntMatrix, "__post_init__", lambda self: calls.append(self) or check(self))
    m = IntMatrix(1, 2, ((1, 2),))
    assert calls == [m]


def test_the_generic_constructor_counts_its_fields():
    with pytest.raises(TypeError, match="^DiagramAnalysis takes 8 fields, got 2$"):
        DiagramAnalysis({}, ())


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: IntMatrix(-1, 0, ()), ValueError, "negative matrix dimension"),
        (lambda: IntMatrix(2, 1, ((1,),)), ValueError, "row count does not match entries"),
        (lambda: IntMatrix(2, 2, ((1, 2), (3,))), ValueError, "ragged matrix entries"),
        (lambda: Cone(2, ((1, 0, 0),)), ValueError, "ray length does not match ambient rank"),
        (lambda: FaceMorphism(Cone(1, ((1,),)), Cone(2, QUADRANT_RAYS), IntMatrix.zeros(2, 2)), ValueError,
         "morphism matrix shape does not match the lattices"),
        (lambda: Subdiagram(face_diagram(Cone(1, ((1,),))), frozenset({"f", "nowhere"})), ValueError,
         r"unknown member ids: \['nowhere'\]"),
        (lambda: StackyFan(Fan(2, QUADRANT_RAYS, ((0, 1),)), IntMatrix.identity(3)), ValueError,
         "beta shape does not match the fan and target lattices"),
        (lambda: ChartData(_quadrant_charts()[0], {}, 2), ValueError,
         "betas must be indexed exactly by the diagram objects"),
        (lambda: ChartData(*_quadrant_charts(), 3), ValueError, "beta for object 'f' has the wrong shape"),
        (lambda: Fan(2, QUADRANT_RAYS, ((0, 2),)), ValueError, "maximal cone references a ray that does not exist"),
        (lambda: Fan(2, QUADRANT_RAYS, ((-1,),)), ValueError, "maximal cone references a ray that does not exist"),
        (lambda: Fan(2, ((1, 0, 0),), ()), ValueError, "ray length does not match the lattice rank"),
        (lambda: Fan(2, ((1.0, 0),), ()), TypeError, "entries must be ints, got 1.0"),
        (lambda: Fan(2, QUADRANT_RAYS, ((True,),)), TypeError, "entries must be ints, got True"),
    ],
    ids=[
        "matrix-negative", "matrix-rows", "matrix-ragged", "cone-ray-length", "face-morphism-shape",
        "subdiagram-unknown-ids", "stackyfan-shape", "charts-ids", "charts-shape", "fan-index-high",
        "fan-index-negative", "fan-ray-length", "fan-float-ray", "fan-bool-index",
    ],
)
def test_constructors_refuse_bad_fields_with_their_messages(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()
