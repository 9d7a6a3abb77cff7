"""Self-describing JSON documents for everything the command line reads and
writes.

One envelope: {"version": "1", "kind": ..., "payload": ...}.  Integer
entries whose magnitude exceeds 2**53 - 1 are serialized as decimal strings
so exactness survives JSON readers that coerce numbers to floats; both
forms are accepted on input.

The JSON Schema of each kind (shipped with the package) is the contract for
its payload.  On first use it is compiled into one plain Python predicate
that agrees with Draft 2020-12 as jsonschema implements it; a keyword the
compiler does not know makes compilation fail, so a schema edit can never
be silently ignored.  Payloads are checked with that predicate before any
computation runs, and outputs are re-checked before they are written.
jsonschema is imported only when a payload is rejected, to word the
diagnostic.  The decoders refuse what the schema lets through but is no
integer: ``2.0`` for a rank or cone index, and a decimal string that is not
exactly ``-?[0-9]+``.  An integer longer than Python's int digit limit
(4300 by default) is refused, in a number literal or a string.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from importlib import resources
from numbers import Number
from typing import Callable

from .cone import Cone, cone_from_rays
from .diagram import ColimitResult, DiagramMorphism, TightDiagram, verify_face_embeddings
from .errors import InternalError
from .intlin import IntMatrix
from .monoid import ToricMonoid, gp
from .stackyfan import ChartData, Fan, InfiniteCokernel, StackyFan

FORMAT_VERSION = "1"
_SAFE_BOUND = 2**53 - 1

KINDS = (
    "cone",
    "monoid",
    "diagram",
    "fan",
    "stackyfan",
    "charts",
    "functional-request",
    "colimit",
    "functional",
    "report",
)


class DocumentError(ValueError):
    """Input malformation: bad JSON, bad envelope, or a schema mismatch."""


@dataclass(frozen=True)
class Document:
    kind: str
    payload: object
    version: str = FORMAT_VERSION


_predicates: dict[str, Callable[[object], bool]] = {}
_validators: dict = {}

_DRAFT = "https://json-schema.org/draft/2020-12/schema"
_KEYWORDS = frozenset(
    {"$ref", "type", "properties", "required", "additionalProperties", "items",
     "minimum", "pattern", "enum", "oneOf"}
)
_LOCAL_REF = re.compile(r"#/\$defs/([A-Za-z0-9_-]+)")
_DECIMAL = re.compile(r"-?[0-9]+")  # whole string; the schema's pattern lets "12\n" through


def schema(kind: str) -> dict:
    """The packaged JSON Schema of a document kind."""
    text = resources.files("toricfans").joinpath("schemas", f"{kind}.json").read_text("utf-8")
    return json.loads(text)


def _is_integer(x) -> bool:
    # any number with a zero fractional part, so 2.0 counts; a bool never does
    return not isinstance(x, bool) and (isinstance(x, int) or (isinstance(x, float) and x.is_integer()))


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "integer": _is_integer,
}


def compile_schema(root: dict) -> Callable[[object], bool]:
    """Compile a JSON Schema into a predicate equal to Draft 2020-12 validity.

    Only the keywords the packaged schemas use are understood: ``type``
    (object, array, string, boolean, integer), ``properties``, ``required``,
    ``additionalProperties``, ``items``, ``minimum``, ``pattern``, ``enum``
    (of strings), ``oneOf`` and local ``$ref`` into the root's ``$defs``.
    Each keyword constrains only instances of its own type, as in the
    draft.  Anything else raises InternalError here, not at check time.
    """
    if root.get("$schema", _DRAFT) != _DRAFT:
        raise InternalError(f"schema dialect {root['$schema']!r} is not Draft 2020-12")
    defs = root.get("$defs", {})
    compiled: dict[str, Callable[[object], bool]] = {}

    def ref(target):
        match = _LOCAL_REF.fullmatch(target) if isinstance(target, str) else None
        if match is None or match[1] not in defs:
            raise InternalError(f"unsupported $ref {target!r}")
        name = match[1]
        if name not in compiled:
            compiled[name] = lambda x: compiled[name](x)  # stands in while name compiles
            compiled[name] = node(defs[name])
        return compiled[name]

    def node(s) -> Callable[[object], bool]:
        if isinstance(s, bool):
            return lambda x: s
        if not isinstance(s, dict):
            raise InternalError(f"not a schema: {s!r}")
        unknown = s.keys() - _KEYWORDS
        if unknown:
            raise InternalError(f"unsupported schema keywords {sorted(unknown)}")
        checks = []
        if "type" in s:
            if s["type"] not in _TYPES:
                raise InternalError(f"unsupported schema type {s['type']!r}")
            checks.append(_TYPES[s["type"]])
        if "$ref" in s:
            checks.append(ref(s["$ref"]))
        if "enum" in s:
            if not all(isinstance(v, str) for v in s["enum"]):
                raise InternalError(f"enum of non-strings {s['enum']!r}")
            allowed = frozenset(s["enum"])
            checks.append(lambda x: isinstance(x, str) and x in allowed)
        if "minimum" in s:
            low = s["minimum"]
            # jsonschema's own comparison, so NaN passes as it does there
            checks.append(lambda x: isinstance(x, bool) or not isinstance(x, Number) or not x < low)
        if "pattern" in s:
            search = re.compile(s["pattern"]).search
            checks.append(lambda x: not isinstance(x, str) or search(x) is not None)
        if "oneOf" in s:
            checks.append(_exactly_one([node(b) for b in s["oneOf"]]))
        if s.keys() & {"properties", "required", "additionalProperties"}:
            props = {k: node(v) for k, v in s.get("properties", {}).items()}
            required = frozenset(s.get("required", ()))
            rest = node(s.get("additionalProperties", True))
            checks.append(
                lambda x: not isinstance(x, dict)
                or (required <= x.keys() and all(props.get(k, rest)(v) for k, v in x.items()))
            )
        if "items" in s:
            item = node(s["items"])
            checks.append(lambda x: not isinstance(x, list) or all(map(item, x)))
        if len(checks) == 1:
            return checks[0]
        if len(checks) == 2:
            first, second = checks
            return lambda x: first(x) and second(x)
        return lambda x: all(c(x) for c in checks)

    return node({k: v for k, v in root.items() if k not in ("$schema", "$defs")})


def _exactly_one(branches):
    def check(x) -> bool:
        hits = 0
        for b in branches:
            hits += b(x)
        return hits == 1

    return check


def _predicate(kind: str) -> Callable[[object], bool]:
    if kind not in _predicates:
        _predicates[kind] = compile_schema(schema(kind))
    return _predicates[kind]


def _first_violation(kind: str, payload) -> str | None:
    """jsonschema's wording of the first schema error, by instance path."""
    from jsonschema import Draft202012Validator

    if kind not in _validators:
        _validators[kind] = Draft202012Validator(schema(kind))
    errors = sorted(_validators[kind].iter_errors(payload), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    first = errors[0]
    where = "/".join(str(p) for p in first.absolute_path) or "(root)"
    return f"schema violation for kind {kind!r} at {where}: {first.message}"


def loads(text: str) -> Document:
    """Parse and schema-check one document; DocumentError on any malformation."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    except ValueError:  # json parses number literals with int(), which has a digit limit
        raise _too_long() from None
    except RecursionError:
        raise DocumentError("document is nested too deeply") from None
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    extra = set(raw) - {"version", "kind", "payload"}
    if extra:
        raise DocumentError(f"unexpected top-level keys: {sorted(extra)}")
    if raw.get("version") != FORMAT_VERSION:
        raise DocumentError(f"unsupported format version {raw.get('version')!r}")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    if "payload" not in raw:
        raise DocumentError("document has no payload")
    payload = raw["payload"]
    if not _predicate(kind)(payload):
        message = _first_violation(kind, payload)
        if message is None:
            raise InternalError(f"compiled schema of kind {kind!r} rejects a payload jsonschema accepts")
        raise DocumentError(message)
    return Document(kind, payload)


def dumps(doc: Document) -> str:
    """Deterministic serialization; the payload is re-checked against its
    schema so a malformed emission fails loudly at the source."""
    if not _predicate(doc.kind)(doc.payload):
        raise InternalError(
            f"emitted {doc.kind!r} document fails its schema: {_first_violation(doc.kind, doc.payload)}"
        )
    body = {"kind": doc.kind, "payload": doc.payload, "version": doc.version}
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def encode_int(v: int):
    return v if abs(v) <= _SAFE_BOUND else str(v)


def _too_long() -> DocumentError:
    return DocumentError(f"integer with more than {sys.get_int_max_str_digits()} digits")


def decode_int(v) -> int:
    if isinstance(v, str) and _DECIMAL.fullmatch(v):
        try:
            return int(v)
        except ValueError:
            raise _too_long() from None
    if isinstance(v, bool) or not isinstance(v, int):
        raise DocumentError(f"not an integer value: {v!r}")
    return v


def encode_vector(v) -> list:
    return [encode_int(x) for x in v]


def decode_vector(v) -> tuple[int, ...]:
    return tuple(decode_int(x) for x in v)


def encode_matrix(m: IntMatrix) -> list:
    return [encode_vector(r) for r in m.entries]


def decode_matrix(raw, cols_hint: int | None = None) -> IntMatrix:
    # a zero-row matrix serializes as [] and loses its column count, hence the hint
    entries = tuple(tuple(decode_int(x) for x in row) for row in raw)
    if entries:
        cols = len(entries[0])
        if any(len(r) != cols for r in entries):
            raise DocumentError("matrix rows have unequal lengths")
    else:
        cols = 0 if cols_hint is None else cols_hint
    return IntMatrix(len(entries), cols, entries)


def encode_cone(c: Cone) -> dict:
    return {"ambient_rank": c.ambient_rank, "rays": [encode_vector(r) for r in c.rays]}


def decode_cone(payload) -> Cone:
    n = decode_int(payload["ambient_rank"])
    rays = [decode_vector(r) for r in payload["rays"]]
    if any(len(r) != n for r in rays):
        raise DocumentError("ray length does not match ambient_rank")
    return cone_from_rays(n, rays)


def encode_monoid(m: ToricMonoid) -> dict:
    return {"lattice_rank": m.lattice_rank, "cone": encode_cone(m.cone)}


def decode_monoid(payload) -> ToricMonoid:
    n = decode_int(payload["lattice_rank"])
    c = decode_cone(payload["cone"])
    if c.ambient_rank != n:
        raise DocumentError("cone ambient_rank differs from lattice_rank")
    return ToricMonoid(n, c)


def encode_diagram(d: TightDiagram) -> dict:
    return {
        "objects": {i: encode_monoid(o) for i, o in sorted(d.objects.items())},
        "morphisms": [
            {"from": e.source_id, "to": e.target_id, "matrix": encode_matrix(e.matrix)}
            for e in sorted(
                set(d.morphisms), key=lambda e: (e.source_id, e.target_id, e.matrix.entries)
            )
        ],
    }


def decode_diagram(payload) -> TightDiagram:
    objects = {i: decode_monoid(p) for i, p in payload["objects"].items()}
    morphisms = []
    for m in payload["morphisms"]:
        src = objects.get(m["from"])
        if src is None or m["to"] not in objects:
            raise DocumentError(f"morphism references unknown object {m['from']!r} or {m['to']!r}")
        morphisms.append(
            DiagramMorphism(m["from"], m["to"], decode_matrix(m["matrix"], src.lattice_rank))
        )
    try:
        return TightDiagram(objects, morphisms)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def encode_fan(f: Fan) -> dict:
    return {
        "lattice_rank": f.lattice_rank,
        "rays": [encode_vector(r) for r in f.rays],
        "maximal_cones": [list(ixs) for ixs in f.maximal_cones],
    }


def decode_fan(payload) -> Fan:
    try:
        return Fan(
            decode_int(payload["lattice_rank"]),
            tuple(decode_vector(r) for r in payload["rays"]),
            tuple(decode_vector(ixs) for ixs in payload["maximal_cones"]),
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def encode_stackyfan(sf: StackyFan, reports: dict | None = None) -> dict:
    out = {
        "fan": encode_fan(sf.fan),
        "beta": encode_matrix(sf.beta),
        "target_rank": sf.target_rank,
    }
    if reports is not None:
        out["reports"] = reports
    return out


def decode_stackyfan(payload) -> StackyFan:
    fan = decode_fan(payload["fan"])
    beta = decode_matrix(payload["beta"], fan.lattice_rank)
    try:
        return StackyFan(fan, beta, decode_int(payload["target_rank"]))
    except InfiniteCokernel:
        raise
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def encode_charts(charts: ChartData) -> dict:
    return {
        "diagram": encode_diagram(charts.diagram),
        "betas": {i: encode_matrix(m) for i, m in sorted(charts.betas.items())},
        "target_rank": charts.target_rank,
    }


def decode_charts(payload) -> ChartData:
    d = decode_diagram(payload["diagram"])
    betas = {}
    for i, raw in payload["betas"].items():
        hint = gp(d.objects[i]).cols if i in d.objects else None
        betas[i] = decode_matrix(raw, hint)
    try:
        return ChartData(d, betas, decode_int(payload["target_rank"]))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def decode_functional_request(payload):
    """Returns (diagram reference, member ids, chi, mode); the reference is a
    path string or an inline diagram payload for the caller to resolve."""
    chi = {i: decode_vector(v) for i, v in payload["chi"].items()}
    return payload["diagram"], tuple(payload["members"]), chi, payload["mode"]


def encode_colimit(d: TightDiagram, result: ColimitResult) -> dict:
    violations = verify_face_embeddings(d, result)
    return {
        "colimit_rank": result.colimit_rank,
        "cone": encode_cone(result.cone),
        "embeddings": {i: encode_matrix(m) for i, m in sorted(result.embeddings.items())},
        "face_embeddings": {"ok": not violations, "violations": list(violations)},
    }
