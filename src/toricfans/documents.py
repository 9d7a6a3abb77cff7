"""Self-describing JSON documents for everything the command line reads and
writes.

One envelope: {"version": "1", "kind": ..., "payload": ...}.  Integer
entries whose magnitude exceeds 2**53 - 1 are serialized as decimal strings
so exactness survives JSON readers that coerce numbers to floats; both
forms are accepted on input.  Payloads are checked against the JSON Schema
for their kind (shipped with the package) before any computation runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from jsonschema import Draft202012Validator

from .cone import Cone, cone_from_rays
from .diagram import ColimitResult, DiagramMorphism, TightDiagram, verify_face_embeddings
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


_validators: dict[str, Draft202012Validator] = {}


def _validator(kind: str) -> Draft202012Validator:
    if kind not in _validators:
        text = resources.files("toricfans").joinpath("schemas", f"{kind}.json").read_text("utf-8")
        _validators[kind] = Draft202012Validator(json.loads(text))
    return _validators[kind]


def loads(text: str) -> Document:
    """Parse and schema-check one document; DocumentError on any malformation."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
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
    errors = sorted(_validator(kind).iter_errors(payload), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.absolute_path) or "(root)"
        raise DocumentError(f"schema violation for kind {kind!r} at {where}: {first.message}")
    return Document(kind, payload)


def dumps(doc: Document) -> str:
    """Deterministic serialization; the payload is re-checked against its
    schema so a malformed emission fails loudly at the source."""
    _validator(doc.kind).validate(doc.payload)
    body = {"kind": doc.kind, "payload": doc.payload, "version": doc.version}
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def encode_int(v: int):
    return v if abs(v) <= _SAFE_BOUND else str(v)


def decode_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise DocumentError(f"not an integer value: {v!r}")
    return int(v)


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
    n = payload["ambient_rank"]
    rays = [decode_vector(r) for r in payload["rays"]]
    if any(len(r) != n for r in rays):
        raise DocumentError("ray length does not match ambient_rank")
    return cone_from_rays(n, rays)


def encode_monoid(m: ToricMonoid) -> dict:
    return {"lattice_rank": m.lattice_rank, "cone": encode_cone(m.cone)}


def decode_monoid(payload) -> ToricMonoid:
    n = payload["lattice_rank"]
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
            payload["lattice_rank"],
            tuple(decode_vector(r) for r in payload["rays"]),
            tuple(tuple(ixs) for ixs in payload["maximal_cones"]),
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
        return StackyFan(fan, beta, payload["target_rank"])
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
        return ChartData(d, betas, payload["target_rank"])
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
