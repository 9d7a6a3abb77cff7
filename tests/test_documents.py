"""JSON envelope round-trips and schema rejection."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toricfans import documents
from toricfans.cone import NotPointed, cone_from_rays
from toricfans.diagram import coproduct, face_diagram
from toricfans.documents import Document, DocumentError
from toricfans.errors import InternalError
from toricfans.intlin import IntMatrix
from toricfans.stackyfan import ChartData, Fan, InfiniteCokernel, StackyFan

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
QUADRANT = cone_from_rays(2, [(1, 0), (0, 1)])
NAT_LINE = face_diagram(cone_from_rays(1, [(1,)]))


def roundtrip(doc: Document) -> Document:
    return documents.loads(documents.dumps(doc))


def test_cone_roundtrip():
    doc = roundtrip(Document("cone", documents.encode_cone(QUADRANT)))
    assert documents.decode_cone(doc.payload) == QUADRANT


def test_monoid_roundtrip():
    m = QUADRANT
    doc = roundtrip(Document("monoid", documents.encode_monoid(m)))
    assert documents.decode_monoid(doc.payload) == m


def test_diagram_roundtrip():
    d = face_diagram(QUADRANT)
    doc = roundtrip(Document("diagram", documents.encode_diagram(d)))
    assert documents.decode_diagram(doc.payload) == d


def test_fan_roundtrip():
    f = Fan(2, ((1, 0), (1, 2)), ((0, 1),))
    doc = roundtrip(Document("fan", documents.encode_fan(f)))
    assert documents.decode_fan(doc.payload) == f


def test_stackyfan_roundtrip():
    sf = StackyFan(Fan(1, ((1,),), ((0,),)), IntMatrix.from_rows([(2,)]))
    doc = roundtrip(Document("stackyfan", documents.encode_stackyfan(sf)))
    assert documents.decode_stackyfan(doc.payload) == sf


def test_charts_roundtrip():
    d = coproduct(NAT_LINE, NAT_LINE)
    betas = {
        "0": IntMatrix.zeros(1, 0),
        "a:f_0": IntMatrix.from_rows([(1,)]),
        "b:f_0": IntMatrix.from_rows([(1,)]),
    }
    charts = ChartData(d, betas, 1)
    doc = roundtrip(Document("charts", documents.encode_charts(charts)))
    assert documents.decode_charts(doc.payload) == charts


def test_dumps_is_deterministic():
    a = Document("fan", {"lattice_rank": 1, "rays": [[1]], "maximal_cones": [[0]]})
    b = Document("fan", {"maximal_cones": [[0]], "rays": [[1]], "lattice_rank": 1})
    assert documents.dumps(a) == documents.dumps(b)
    assert documents.dumps(a).endswith("\n")


# dumps writes its text itself; it must be what json.dumps(indent=2, sort_keys=True) writes
TEXTS = st.text(max_size=8) | st.sampled_from(
    ["", "é", "日本", "😀", "\u2028", '"\\/', "\x00\x1f\x7f", "\b\f\n\r\t", "a\nb", "[1, 2]", "{\"k\": 0}"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | TEXTS | st.integers(-(2**60), 2**60) | st.integers(2**53, 2**200)
    | st.integers(-(2**200), -(2**53)) | st.floats(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXTS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_emitter_writes_what_json_dumps_writes(value):
    assert documents._text(value, "\n") == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value", [[], {}, [[]], [{}], {"a": []}, [[1, 2], [3]], [1, True], [{1: [1, 2], 2: {}}], {True: None}, (1, (2,))]
)
def test_emitter_on_edge_shapes(value):
    # empty containers, a row that holds a bool, keys that are no strings, tuples
    assert documents._text(value, "\n") == json.dumps(value, indent=2, sort_keys=True)


def test_emitter_refuses_what_json_cannot_hold():
    with pytest.raises(TypeError):
        documents._text([{1, 2}], "\n")


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_dumps_of_every_fixture_is_json_dumps(path):
    doc = documents.loads(path.read_text("utf-8"))
    body = {"kind": doc.kind, "payload": doc.payload, "version": "1"}
    assert documents.dumps(doc) == json.dumps(body, indent=2, sort_keys=True) + "\n"


REPORTS = st.fixed_dictionaries(
    {"ok": st.booleans()},
    optional={
        "detail": TEXTS, "error": TEXTS, "which": TEXTS, "witness": st.lists(TEXTS, max_size=3),
        "violations": st.lists(st.fixed_dictionaries({"condition": TEXTS, "detail": TEXTS}), max_size=3),
    },
)


@settings(max_examples=200, deadline=None)
@given(REPORTS)
def test_dumps_of_reports_with_any_strings_is_json_dumps(payload):
    body = {"kind": "report", "payload": payload, "version": "1"}
    assert documents.dumps(Document("report", payload)) == json.dumps(body, indent=2, sort_keys=True) + "\n"


def test_compiler_refuses_properties_beside_an_additional_properties_schema():
    # no packaged schema pairs them, so the generated checker has no code path for it
    with pytest.raises(InternalError, match="properties beside an additionalProperties schema"):
        documents.compile_schema({"properties": {"a": {}}, "additionalProperties": {"type": "string"}})
    assert documents.compile_schema({"properties": {"a": {}}, "additionalProperties": False})({"b": 1})


def test_huge_entries_become_strings():
    assert documents.encode_int(2**53 - 1) == 2**53 - 1
    assert documents.encode_int(2**53) == str(2**53)
    assert documents.encode_int(-(2**53)) == str(-(2**53))
    assert documents.decode_int("-12") == -12


def test_huge_entries_roundtrip_exactly():
    big = 3**60
    c = cone_from_rays(2, [(big, 1), (1, 0)])
    text = documents.dumps(Document("cone", documents.encode_cone(c)))
    # the wire form holds a decimal string, so float-coercing readers cannot corrupt it
    assert f'"{big}"' in text
    back = documents.decode_cone(documents.loads(text).payload)
    assert back == c


def test_loads_rejects_bad_json():
    with pytest.raises(DocumentError, match="not valid JSON"):
        documents.loads('{"kind": "cone"')


def test_loads_rejects_deep_nesting():
    # deeper than the JSON parser can recurse, inside an otherwise valid envelope
    body = "[" * 5000 + "]" * 5000
    with pytest.raises(DocumentError, match="nested too deeply"):
        documents.loads('{"version": "1", "kind": "cone", "payload": ' + body + "}")


def test_loads_rejects_non_object():
    with pytest.raises(DocumentError, match="JSON object"):
        documents.loads("[1, 2]")


def test_loads_rejects_wrong_version():
    body = {"kind": "cone", "payload": {"ambient_rank": 0, "rays": []}, "version": "2"}
    with pytest.raises(DocumentError, match="version"):
        documents.loads(json.dumps(body))


def test_loads_rejects_unknown_kind():
    body = {"kind": "widget", "payload": {}, "version": "1"}
    with pytest.raises(DocumentError, match="unknown document kind"):
        documents.loads(json.dumps(body))


def test_loads_rejects_missing_payload():
    with pytest.raises(DocumentError, match="payload"):
        documents.loads('{"kind": "cone", "version": "1"}')


def test_loads_rejects_extra_keys():
    body = {"kind": "cone", "payload": {"ambient_rank": 0, "rays": []}, "version": "1", "x": 1}
    with pytest.raises(DocumentError, match="unexpected top-level keys"):
        documents.loads(json.dumps(body))


def test_loads_rejects_schema_violations():
    body = {"kind": "fan", "payload": {"lattice_rank": 1, "rays": [[1]]}, "version": "1"}
    with pytest.raises(DocumentError, match="schema violation"):
        documents.loads(json.dumps(body))
    body = {"kind": "cone", "payload": {"ambient_rank": 1, "rays": [[1.5]]}, "version": "1"}
    with pytest.raises(DocumentError, match="schema violation"):
        documents.loads(json.dumps(body))
    body = {"kind": "cone", "payload": {"ambient_rank": 1, "rays": [["07x"]]}, "version": "1"}
    with pytest.raises(DocumentError, match="schema violation"):
        documents.loads(json.dumps(body))


def test_decode_matrix_rejects_ragged_rows():
    with pytest.raises(DocumentError, match="unequal"):
        documents.decode_matrix([[1, 2], [3]])


def test_decode_matrix_zero_rows_uses_hint():
    m = documents.decode_matrix([], cols_hint=3)
    assert (m.rows, m.cols) == (0, 3)


def test_decode_matrix_hands_out_the_shared_identity():
    assert documents.decode_matrix([[1, 0], [0, 1]]) is IntMatrix.identity(2)
    assert documents.decode_matrix([["1"]]) is IntMatrix.identity(1)
    for raw in ([[1, 0], [0, 2]], [[0, 1], [1, 0]], [[1, 0]]):
        m = documents.decode_matrix(raw)
        assert m == IntMatrix.from_rows(raw) and m is not IntMatrix.identity(2)
    # one empty row and no rows stay what they were
    assert documents.decode_matrix([[]]) == IntMatrix(1, 0, ((),))
    assert documents.decode_matrix([], cols_hint=2) == IntMatrix(0, 2, ())


def test_decode_diagram_rejects_unknown_endpoint():
    payload = documents.encode_diagram(NAT_LINE)
    payload["morphisms"][0]["to"] = "missing"
    with pytest.raises(DocumentError, match="unknown object"):
        documents.decode_diagram(payload)


def test_decode_cone_propagates_pointedness():
    # a line is a domain failure, not a malformed document
    payload = {"ambient_rank": 1, "rays": [[1], [-1]]}
    with pytest.raises(NotPointed):
        documents.decode_cone(payload)


def test_decode_stackyfan_propagates_finite_cokernel():
    payload = {
        "fan": {"lattice_rank": 2, "rays": [[1, 0]], "maximal_cones": [[0]]},
        "beta": [[1, 0], [0, 0]],
        "target_rank": 2,
    }
    with pytest.raises(InfiniteCokernel):
        documents.decode_stackyfan(payload)


def test_dumps_checks_its_own_output():
    with pytest.raises(InternalError, match="'ambient_rank' is a required property"):
        documents.dumps(Document("cone", {"rays": []}))


def test_formats_doc_links_the_schema_directory():
    # docs/formats.md points readers at the one schema directory the package ships
    import re
    from pathlib import Path

    doc = Path(__file__).resolve().parent.parent / "docs" / "formats.md"
    targets = re.findall(r"\]\(([^)]*schemas/)\)", doc.read_text("utf-8"))
    assert targets
    for target in targets:
        names = sorted(p.name for p in (doc.parent / target).glob("*.json"))
        assert names == sorted(f"{k}.json" for k in documents.KINDS)
