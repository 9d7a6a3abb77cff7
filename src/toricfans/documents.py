"""Self-describing JSON documents for everything the command line reads and
writes.

One envelope: {"version": "1", "kind": ..., "payload": ...}.  Integer
entries whose magnitude exceeds 2**53 - 1 are serialized as decimal strings
so exactness survives JSON readers that coerce numbers to floats; both
forms are accepted on input.

The JSON Schema of each kind (shipped with the package) is the contract for
its payload.  On first use it is compiled into one plain Python checker
that agrees with Draft 2020-12 as jsonschema implements it; a keyword the
compiler does not know makes compilation fail, so a schema edit can never
be silently ignored.  Payloads are checked before any computation runs, and
outputs before they are written.  A rejection is worded here, as jsonschema
4.26 words its first error, which the tests check; the package does not
import jsonschema.  The decoders refuse what the schema lets through but is no
integer: ``2.0`` for a rank or cone index, and a decimal string that is not
exactly ``-?[0-9]+``.  An integer longer than Python's int digit limit
(4300 by default) is refused, in a number literal or a string.  A stated
rank (ambient, lattice or target) above MAX_RANK is refused before any
analysis.  A monoid is decoded to its cone, the monoid being the cone's
lattice points; its document states a lattice_rank, which must equal the
cone's ambient_rank.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from importlib import resources
from numbers import Number
from typing import Callable

from .cone import Cone, cone_from_rays, gp
from .diagram import ColimitResult, DiagramMorphism, TightDiagram, verify_face_embeddings
from .errors import InternalError
from .intlin import IntMatrix
from .stackyfan import ChartData, Fan, StackyFan

FORMAT_VERSION = "1"
_SAFE_BOUND = 2**53 - 1
# analysing a cone costs time cubic and memory quadratic in its ambient
# rank, rays or not, so a stated rank above this is refused up front
MAX_RANK = 1000

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


_TYPES = {  # each type's class (integer: see _is_integer), and the keywords constraining only its instances
    "object": (dict, {"properties", "required", "additionalProperties"}),
    "array": (list, {"items"}),
    "string": (str, {"pattern"}),
    "boolean": (bool, set()),
    "integer": (int, set()),
}


def compile_schema(root: dict) -> Callable[[object], tuple | None]:
    """Compile a JSON Schema into a checker that agrees with Draft 2020-12.

    The checker gives None for a valid instance, else, as ``(path, keyword,
    instance, value)``, the error jsonschema lists first when sorted stably
    by instance path: a node's own errors in the schema's key order, then
    the first error of its failing child with the smallest key or index.
    value is the keyword's argument (the allowed names for a false
    additionalProperties, the branches that both hold for oneOf), and
    ``schema_message`` words the error.  Only the keywords the packaged
    schemas use are understood: ``type`` (object, array, string, boolean,
    integer), ``properties``, ``required``, ``additionalProperties``,
    ``items``, ``minimum``, ``pattern``, ``enum`` (of strings), ``oneOf`` of
    two branches and a lone local ``$ref`` into the root's ``$defs``.  Each
    keyword constrains only instances of its own type, as in the draft.
    Anything else raises InternalError here, not at check time.
    """
    if root.get("$schema", _DRAFT) != _DRAFT:
        raise InternalError(f"schema dialect {root['$schema']!r} is not Draft 2020-12")
    defs = root.get("$defs", {})
    compiled: dict[str, Callable] = {}

    def ref(target):
        match = _LOCAL_REF.fullmatch(target) if isinstance(target, str) else None
        if match is None or match[1] not in defs:
            raise InternalError(f"unsupported $ref {target!r}")
        name = match[1]
        if name not in compiled:
            compiled[name] = lambda x: compiled[name](x)  # stands in while name compiles
            compiled[name] = node(defs[name])
        return compiled[name]

    def node(s) -> Callable:
        if isinstance(s, bool):
            return (lambda x: None) if s else (lambda x: ((), None, x, None))
        if not isinstance(s, dict):
            raise InternalError(f"not a schema: {s!r}")
        unknown = s.keys() - _KEYWORDS
        if unknown:
            raise InternalError(f"unsupported schema keywords {sorted(unknown)}")
        if "$ref" in s:
            if len(s) > 1:
                raise InternalError(f"$ref beside other keywords {sorted(s)}")
            return ref(s["$ref"])
        if False in s.get("properties", {}).values():  # jsonschema reports it at the parent's path
            raise InternalError("false schema under properties")
        if "type" in s and (not isinstance(s["type"], str) or s["type"] not in _TYPES):
            raise InternalError(f"unsupported schema type {s['type']!r}")
        cls, only = _TYPES.get(s.get("type"), (None, set()))
        own, value = {}, dict(s)  # keyword -> test of the node itself, and its error's value
        if "type" in s:
            own["type"] = _is_integer if cls is int else lambda x: isinstance(x, cls)
        if "enum" in s:
            if not all(isinstance(v, str) for v in s["enum"]):
                raise InternalError(f"enum of non-strings {s['enum']!r}")
            allowed = frozenset(s["enum"])
            own["enum"] = lambda x: isinstance(x, str) and x in allowed
        if "minimum" in s:
            low = s["minimum"]  # jsonschema's own comparison, so NaN passes as it does there
            own["minimum"] = lambda x: isinstance(x, bool) or not isinstance(x, Number) or not x < low
        if "pattern" in s:
            search = re.compile(s["pattern"]).search
            own["pattern"] = lambda x: not isinstance(x, str) or search(x) is not None
        if "oneOf" in s:
            if len(s["oneOf"]) != 2:
                raise InternalError(f"oneOf of {len(s['oneOf'])} branches")
            (a, b), (first, second) = map(node, s["oneOf"]), s["oneOf"]
            own["oneOf"] = lambda x: None if (a(x) is None) != (b(x) is None) else (
                (), "oneOf", x, (second, first) if a(x) is None else ())  # the branches that both hold
        if "required" in s:
            need = frozenset(s["required"])
            own["required"] = lambda x: not isinstance(x, dict) or need <= x.keys()
        if s.get("additionalProperties") is False:
            names = value["additionalProperties"] = frozenset(s.get("properties", ()))
            own["additionalProperties"] = lambda x: not isinstance(x, dict) or x.keys() <= names
        if s.get("items") is False:
            own["items"] = lambda x: not isinstance(x, list) or not x
        guarded = len(s) > 1 and s.keys() - {"type"} <= only  # a failed type is then the only error
        checks = [own[k] if k == "oneOf" else _failing(k, value[k], own[k])
                  for k in s if k in own and not (guarded and k == "type")]
        if s.keys() & {"properties", "additionalProperties"}:
            props = {k: node(v) for k, v in s.get("properties", {}).items()}
            checks.append(_fields(props, node(s.get("additionalProperties", True))))
        if s.get("items", False) is not False:
            checks.append(_elements(node(s["items"])))
        if guarded:
            rest, kind = _first(checks), s["type"]
            return lambda x: rest(x) if isinstance(x, cls) else ((), "type", x, kind)
        return _first(checks)

    return node({k: v for k, v in root.items() if k not in ("$schema", "$defs")})


def _failing(keyword, value, ok):
    return lambda x: None if ok(x) else ((), keyword, x, value)


def _first(checks):
    return reduce(lambda f, g: lambda x: f(x) or g(x), checks or [lambda x: None])


def _elements(item):
    return lambda x: (
        next(((i, *e[0]), *e[1:]) for i, e in enumerate(map(item, x)) if e)
        if isinstance(x, list) and any(map(item, x)) else None
    )


def _fields(props, rest):
    def check(x):
        if isinstance(x, dict):
            for k, v in x.items():
                if props.get(k, rest)(v) is not None:
                    k, e = min((k, e) for k, v in x.items() if (e := props.get(k, rest)(v)))
                    return (k, *e[0]), *e[1:]
        return None

    return check


_MESSAGES = {  # jsonschema 4.26's, from the failing instance and the error's value
    None: lambda x, v: f"False schema does not allow {x!r}",
    "type": lambda x, v: f"{x!r} is not of type {v!r}",
    "enum": lambda x, v: f"{x!r} is not one of {v!r}",
    "minimum": lambda x, v: f"{x!r} is less than the minimum of {v!r}",
    "pattern": lambda x, v: f"{x!r} does not match {v!r}",
    "required": lambda x, v: f"{next(n for n in v if n not in x)!r} is a required property",
    "additionalProperties": lambda x, v: "Additional properties are not allowed ({} {} unexpected)".format(
        ", ".join(repr(k) for k in sorted(x) if k not in v), "was" if len(x.keys() - v) == 1 else "were"
    ),
    "items": lambda x, v: f"Expected at most 0 items but found {len(x)} extra: {x[0] if len(x) == 1 else x!r}",
    "oneOf": lambda x, v: f"{x!r} is valid under each of {', '.join(map(repr, v))}" if v
    else f"{x!r} is not valid under any of the given schemas",
}


def schema_message(error) -> str:
    """jsonschema 4.26's message for an error of a compiled checker."""
    return _MESSAGES[error[1]](*error[2:])


@lru_cache(maxsize=len(KINDS))
def _checker(kind: str) -> Callable:
    return compile_schema(schema(kind))


def _violation(kind: str, error) -> str:
    where = "/".join(map(str, error[0])) or "(root)"
    return f"schema violation for kind {kind!r} at {where}: {schema_message(error)}"


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
    if (error := _checker(kind)(payload)) is not None:
        raise DocumentError(_violation(kind, error))
    return Document(kind, payload)


def dumps(doc: Document) -> str:
    """Deterministic serialization; the payload is re-checked against its
    schema so a malformed emission fails loudly at the source."""
    if (error := _checker(doc.kind)(doc.payload)) is not None:
        raise InternalError(f"emitted {doc.kind!r} document fails its schema: {_violation(doc.kind, error)}")
    body = {"kind": doc.kind, "payload": doc.payload, "version": FORMAT_VERSION}
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


def _within_limit(rank: int) -> int:
    if rank > MAX_RANK:
        raise DocumentError(f"rank {rank} is above the limit of {MAX_RANK}")
    return rank


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
    if len(entries) == cols and entries == IntMatrix.identity(cols).entries:
        return IntMatrix.identity(cols)  # the shared instance, known by reference
    return IntMatrix(len(entries), cols, entries)


def encode_cone(c: Cone) -> dict:
    return {"ambient_rank": c.ambient_rank, "rays": [encode_vector(r) for r in c.rays]}


def decode_cone(payload) -> Cone:
    n = decode_int(payload["ambient_rank"])
    rays = [decode_vector(r) for r in payload["rays"]]
    if any(len(r) != n for r in rays):
        raise DocumentError("ray length does not match ambient_rank")
    return cone_from_rays(_within_limit(n), rays)


def encode_monoid(c: Cone) -> dict:
    return {"lattice_rank": c.ambient_rank, "cone": encode_cone(c)}


def decode_monoid(payload) -> Cone:
    n = decode_int(payload["lattice_rank"])
    # compared first; decode_cone then holds the rank to MAX_RANK
    if decode_int(payload["cone"]["ambient_rank"]) != n:
        raise DocumentError("cone ambient_rank differs from lattice_rank")
    return decode_cone(payload["cone"])


def encode_diagram(d: TightDiagram) -> dict:
    return {
        "objects": {i: encode_monoid(o) for i, o in sorted(d.objects.items())},
        "morphisms": [
            {"from": e.source_id, "to": e.target_id, "matrix": encode_matrix(e.matrix)}
            for e in d.edges
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
            DiagramMorphism(m["from"], m["to"], decode_matrix(m["matrix"], src.ambient_rank))
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
        fan = Fan(
            decode_int(payload["lattice_rank"]),
            tuple(decode_vector(r) for r in payload["rays"]),
            tuple(decode_vector(ixs) for ixs in payload["maximal_cones"]),
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    _within_limit(fan.lattice_rank)
    return fan


def encode_stackyfan(sf: StackyFan, reports: dict | None = None) -> dict:
    out = {
        "fan": encode_fan(sf.fan),
        "beta": encode_matrix(sf.beta),
        "target_rank": sf.beta.rows,
    }
    if reports is not None:
        out["reports"] = reports
    return out


def decode_stackyfan(payload) -> StackyFan:
    fan = decode_fan(payload["fan"])
    beta = decode_matrix(payload["beta"], fan.lattice_rank)
    target_rank = _within_limit(decode_int(payload["target_rank"]))
    if (beta.rows, beta.cols) != (target_rank, fan.lattice_rank):
        raise DocumentError("beta shape does not match the fan and target lattices")
    return StackyFan(fan, beta)


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
    target_rank = _within_limit(decode_int(payload["target_rank"]))
    try:
        return ChartData(d, betas, target_rank)
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
        "colimit_rank": result.cone.ambient_rank,
        "cone": encode_cone(result.cone),
        "embeddings": {i: encode_matrix(m) for i, m in sorted(result.embeddings.items())},
        "face_embeddings": {"ok": not violations, "violations": list(violations)},
    }
