"""The compiled schema checkers against jsonschema's Draft 2020-12 validator.

documents.loads and documents.dumps check payloads with a checker compiled
from each packaged schema, which finds the first error and words it without
jsonschema.  These tests compare the two on real payloads of all ten kinds
(fixtures, encoded random objects, command-line outputs) and on single-node
mutations of them, each checked against every kind: the verdicts must agree,
and on a rejection so must the first error (jsonschema's errors sorted by
instance path), its path and its message.
"""

import copy
import json
import random
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

from randomgen import random_complete_or_affine_fan, random_pointed_cone, random_tight_diagram
from toricfans import documents
from toricfans.cli import main
from toricfans.errors import InternalError
from toricfans.intlin import IntMatrix
from toricfans.stackyfan import StackyFan

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
QUADRANT = FIXTURES / "quadrant-face-diagram.json"

REPLACEMENTS = (0, -3, 2**60, 1.0, 1.5, -0.0, True, None, "12", "12\n", "x", [], {})
CHECKERS = {k: documents.compile_schema(documents.schema(k)) for k in documents.KINDS}
VALIDATORS = {k: Draft202012Validator(documents.schema(k)) for k in documents.KINDS}


def _cli_outputs(tmp: Path) -> list:
    def run(*argv, text=None):
        if text is not None:
            (tmp / "in.json").write_text(text, "utf-8")
            argv = (*argv, "--input", str(tmp / "in.json"))
        out = tmp / "out.json"
        assert main([*argv, "--output", str(out)]) in (0, 1)
        return json.loads(out.read_text("utf-8"))["payload"]

    diagram = json.loads(QUADRANT.read_text("utf-8"))["payload"]

    def request(members, chi, mode="nonneg_positive_away"):
        body = {"diagram": diagram, "members": members, "chi": chi, "mode": mode}
        return json.dumps({"version": "1", "kind": "functional-request", "payload": body})

    return [
        run("colimit", "--input", str(QUADRANT)),
        run("colimit", "--input", str(FIXTURES / "octant-triple-glue.json")),
        run("glue", "--input", str(FIXTURES / "doubled-line-charts.json")),
        run("validate", "--input", str(FIXTURES / "doubled-plane-charts.json")),
        run("check", "--which", "group", "--input", str(FIXTURES / "a1-cone-fan.json")),
        run("check", "--which", "canonical", "--input", str(FIXTURES / "a1-cone-fan.json")),
        run("extend", text=request(["f", "f_1"], {"f": [0, 0], "f_1": [1, 0]})),
        run("extend", text=request(["f", "f_0", "f_1"], {"f": [0, 0], "f_0": [0, 1], "f_1": [1, 0]})),
        run("extend", text=request(["f", "f_1"], {"f": [0, 0], "f_1": [2, 7]}, "arbitrary")),
    ]


def _encoded(rng) -> list:
    out = []
    for _ in range(3):
        c = random_pointed_cone(rng, max_rank=3, max_rays=5)
        out.append(documents.encode_cone(c))
        out.append(documents.encode_monoid(c))
        fan = random_complete_or_affine_fan(rng)
        out.append(documents.encode_fan(fan))
        sf = StackyFan(fan, IntMatrix.identity(fan.lattice_rank))
        out.append(documents.encode_stackyfan(sf))
    out.append(documents.encode_diagram(random_tight_diagram(rng)))
    out.append({"diagram": "quadrant.json", "members": ["f"], "chi": {"f": [0, 0]}, "mode": "arbitrary"})
    out.append(documents.encode_cone(random_pointed_cone(random.Random(5), max_rank=2, span=2**60)))
    return out


@lru_cache(maxsize=1)
def corpus() -> tuple:
    payloads = [json.loads(p.read_text("utf-8"))["payload"] for p in sorted(FIXTURES.glob("*.json"))]
    payloads += _encoded(random.Random(11))
    with tempfile.TemporaryDirectory() as tmp:
        payloads += _cli_outputs(Path(tmp))
    return tuple(payloads)


def nodes(value, path=()):
    """Every (path, node) of a JSON value, the root first."""
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from nodes(v, (*path, k))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from nodes(v, (*path, i))


def replace_node(value, path, new):
    if not path:
        return new
    out = copy.deepcopy(value)
    holder = out
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = new
    return out


def compiled_error(check, instance):
    """The compiled checker's first error as (path, message), or None."""
    error = check(instance)
    return None if error is None else (error[0], documents.schema_message(error))


def jsonschema_error(validator, instance):
    """jsonschema's first error by instance path as (path, message), or None."""
    errors = sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path))
    return (tuple(errors[0].absolute_path), errors[0].message) if errors else None


def assert_agrees(payload):
    for kind in documents.KINDS:
        assert compiled_error(CHECKERS[kind], payload) == jsonschema_error(VALIDATORS[kind], payload), kind


def test_corpus_covers_every_kind_and_is_valid():
    valid_kinds = set()
    for payload in corpus():
        kinds = {k for k in documents.KINDS if VALIDATORS[k].is_valid(payload)}
        assert kinds, payload
        valid_kinds |= kinds
    assert valid_kinds == set(documents.KINDS)


def test_unmutated_payloads_agree_for_every_kind():
    for payload in corpus():
        assert_agrees(payload)


@st.composite
def mutated(draw):
    payload = draw(st.sampled_from(corpus()))
    path, node = draw(st.sampled_from(list(nodes(payload))))
    how = draw(st.sampled_from(("replace", "drop", "extra")))
    if how == "drop" and isinstance(node, dict) and node:
        key = draw(st.sampled_from(sorted(node)))
        return replace_node(payload, path, {k: v for k, v in node.items() if k != key})
    if how == "extra" and isinstance(node, dict):
        return replace_node(payload, path, {**node, "extra": draw(st.sampled_from(REPLACEMENTS))})
    return replace_node(payload, path, draw(st.sampled_from(REPLACEMENTS)))


@settings(max_examples=1500, deadline=None)
@given(mutated())
def test_mutated_payloads_agree_for_every_kind(payload):
    assert_agrees(payload)


@pytest.mark.parametrize("value", REPLACEMENTS + (2, "-7", "+7", " 7", "７", 1e400, float("nan")))
@pytest.mark.parametrize(
    "schema",
    [
        {"type": "integer"},
        {"type": "integer", "minimum": 0},
        {"minimum": 2},
        {"type": "string", "pattern": "^-?[0-9]+$"},
        {"pattern": "^-?[0-9]+$"},
        {"enum": ["a", "b"]},
        {"type": "boolean"},
        {"oneOf": [{"type": "integer"}, {"minimum": 0}]},
        {"required": ["a"], "properties": {"a": {"type": "array", "items": False}}},
        {"items": {"type": "integer"}, "additionalProperties": False},
    ],
)
def test_keyword_details_match_draft_2020_12(schema, value):
    # 2.0 is an integer and True is not; pattern searches; keywords ignore other types
    check = documents.compile_schema(schema)
    assert compiled_error(check, value) == jsonschema_error(Draft202012Validator(schema), value)


@pytest.mark.parametrize(
    "schema, value, path, message",
    [
        # a node's own errors come in the schema's key order
        ({"minimum": 0, "type": "integer"}, -1.5, (), "-1.5 is less than the minimum of 0"),
        ({"type": "integer", "minimum": 0}, -1.5, (), "-1.5 is not of type 'integer'"),
        ({"required": ["a", "b", "c"]}, {"b": 1}, (), "'a' is a required property"),
        ({"additionalProperties": False, "properties": {"a": {}}}, {"z": 1, "a": 1, "b": 2}, (),
         "Additional properties are not allowed ('b', 'z' were unexpected)"),
        ({"additionalProperties": False}, {"z": 1}, (), "Additional properties are not allowed ('z' was unexpected)"),
        ({"items": False}, [1, [2]], (), "Expected at most 0 items but found 2 extra: [1, [2]]"),
        ({"items": False}, ["x"], (), "Expected at most 0 items but found 1 extra: 'x'"),
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, 5, (),
         "5 is valid under each of {'minimum': 0}, {'type': 'integer'}"),
        ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -0.5, (),
         "-0.5 is not valid under any of the given schemas"),
        # then the first error of the failing child with the smallest key or index
        ({"properties": {"b": {"type": "string"}, "a": {"type": "string"}}, "required": ["c"]},
         {"b": 1, "a": 2}, (), "'c' is a required property"),
        ({"properties": {"b": {"type": "string"}, "a": {"type": "string"}}}, {"b": 1, "a": 2}, ("a",),
         "2 is not of type 'string'"),
        ({"additionalProperties": {"items": {"enum": ["x"]}}}, {"q": ["x", "y"], "p": [1]}, ("p", 0),
         "1 is not one of ['x']"),
        ({"items": {"pattern": "^a"}}, ["a", "b", "c"], (1,), "'b' does not match '^a'"),
    ],
)
def test_first_error_and_its_wording(schema, value, path, message):
    check = documents.compile_schema(schema)
    assert compiled_error(check, value) == (path, message)
    assert jsonschema_error(Draft202012Validator(schema), value) == (path, message)


def test_every_packaged_schema_compiles():
    for kind in documents.KINDS:
        assert callable(documents.compile_schema(documents.schema(kind)))


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "array", "maxItems": 3},
        {"properties": {"a": {"format": "email"}}},
        {"type": "number"},
        {"$ref": "#/$defs/missing", "$defs": {}},
        {"$ref": "other.json#/x"},
        {"enum": [1, 2]},
        {"$schema": "http://json-schema.org/draft-07/schema#"},
        {"type": ["integer", "string"]},
        {"oneOf": [{}, {}, {}]},
        # jsonschema orders the errors of these in ways a compiled node does not follow
        {"$ref": "#/$defs/a", "type": "object", "$defs": {"a": {}}},
        {"properties": {"a": False}},
    ],
)
def test_unsupported_schema_is_refused_when_compiled(schema):
    with pytest.raises(InternalError):
        documents.compile_schema(schema)


def test_recursive_reference_compiles():
    schema = {"$defs": {"t": {"type": "array", "items": {"$ref": "#/$defs/t"}}}, "$ref": "#/$defs/t"}
    check = documents.compile_schema(schema)
    for value in ([], [[], [[]]], [[1]], [[], 1]):
        assert compiled_error(check, value) == jsonschema_error(Draft202012Validator(schema), value)
