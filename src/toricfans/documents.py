"""Self-describing JSON documents for everything the command line reads and
writes.

One envelope: {"version": "1", "kind": ..., "payload": ...}.  Integer
entries whose magnitude exceeds 2**53 - 1 are serialized as decimal strings
so exactness survives JSON readers that coerce numbers to floats; both
forms are accepted on input.

The JSON Schema of each kind (shipped with the package) is the contract for
its payload.  On first use it is compiled, as generated Python source, into
a checker that agrees with Draft 2020-12 as jsonschema implements it; the
$defs all kinds share are compiled once, and a keyword the compiler does
not know makes compilation fail, so a schema edit can never be silently
ignored.  Payloads are checked before any computation runs, and outputs
before they are written.  A rejection is worded here, as jsonschema 4.26
words its first error, which the tests check; the package does not import
jsonschema.  Past the check every vector entry is an int, a float or a
string, so the decoders take a row of ints whole and refuse the rest: what
the schema lets through but is no integer (``2.0`` for a rank or cone
index, a decimal string that is not exactly ``-?[0-9]+``), and an integer
longer than Python's int digit limit (4300 by default), in a number literal
or a string.  A stated rank (ambient, lattice or target) above MAX_RANK is
refused before any analysis.  A monoid is decoded to its cone, the monoid
being the cone's lattice points; its document states a lattice_rank, which
must equal the cone's ambient_rank.  dumps writes the text of
json.dumps(indent=2, sort_keys=True) itself.
"""

from __future__ import annotations

import json
import re
import sys
from functools import lru_cache
from importlib import resources
from itertools import count
from json.encoder import encode_basestring_ascii
from numbers import Number
from typing import Callable, NamedTuple

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


class Document(NamedTuple):
    kind: str
    payload: object


_DRAFT = "https://json-schema.org/draft/2020-12/schema"
_KEYWORDS = frozenset(
    {"$ref", "type", "properties", "required", "additionalProperties", "items",
     "minimum", "pattern", "enum", "oneOf"}
)
_LOCAL_REF = re.compile(r"#/\$defs/([A-Za-z0-9_-]+)")
_DECIMAL = re.compile(r"-?[0-9]+")  # whole string; the schema's pattern lets "12\n" through


_SCHEMAS = resources.files("toricfans") / "schemas"  # resolved once, not once per kind


def schema(kind: str) -> dict:
    """The packaged JSON Schema of a document kind."""
    return json.loads((_SCHEMAS / f"{kind}.json").read_text("utf-8"))


_TYPES = {  # each type's test of x, and the keywords constraining only its instances
    "object": ("isinstance(x, dict)", {"properties", "required", "additionalProperties"}),
    "array": ("isinstance(x, list)", {"items"}),
    "string": ("isinstance(x, str)", {"pattern"}),
    "boolean": ("isinstance(x, bool)", set()),
    # any number with a zero fractional part, so 2.0 counts; a bool never does
    "integer": ("(isinstance(x, int) and not isinstance(x, bool) or isinstance(x, float) and x.is_integer())",
                set()),
}
_SHARED: dict[str, dict] = {}  # repr of a $defs -> the namespace its checkers are compiled into


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
    integer), ``properties``, ``required``, ``additionalProperties`` (a
    schema only where there are no properties), ``items``, ``minimum``,
    ``pattern``, ``enum`` (of strings), ``oneOf`` of two branches and a lone
    local ``$ref`` into the root's ``$defs``, false only as the value of
    ``additionalProperties`` or ``items``.  Each keyword constrains only
    instances of its own type, as in the draft.  Anything else raises
    InternalError here, not at check time.

    Each distinct node becomes one Python function of straight-line tests
    and loops, written as source and compiled once; a def is written on
    first reference and shared by every root with the same ``$defs``.  A
    parent tests ``type(v) is int`` before calling a child that admits
    every int (an intvalue).
    """
    if root.get("$schema", _DRAFT) != _DRAFT:
        raise InternalError(f"schema dialect {root['$schema']!r} is not Draft 2020-12")
    defs = root.get("$defs", {})
    ns = _SHARED.setdefault(repr(defs), {"_Number": Number, "_at": _at,
                                         "_count": count(), "_done": {}})
    w = _Writer(defs, ns)
    name = w.node({k: v for k, v in root.items() if k not in ("$schema", "$defs")}) or w.function([])
    exec(compile("\n".join(w.source), "<schema>", "exec"), ns)
    ns["_done"].update(w.new)
    return ns[name]


def _at(k, e):  # a child's error, under its key or index k
    return ((k, *e[0]), *e[1:])


class _Writer:
    """Writes schema nodes as functions of x for one namespace, each distinct
    node once: new maps a node's repr, or a def's $ref, to the name of its
    function (None where it admits everything) until the source is compiled."""

    def __init__(self, defs: dict, ns: dict):
        self.defs, self.ns, self.source, self.new = defs, ns, [], {}

    def const(self, value) -> str:
        self.ns[name := f"_k{next(self.ns['_count'])}"] = value
        return name

    def function(self, body: list[str]) -> str:
        name = f"_f{next(self.ns['_count'])}"
        self.source += [f"def {name}(x):", *("    " + line for line in body or ["return None"])]
        return name

    def node(self, s) -> str | None:
        """The name of the function checking s; None when s admits everything."""
        if (key := repr(s)) not in self.ns["_done"] and key not in self.new:
            self.new[key] = self.write(s)
        return self.ns["_done"].get(key, self.new.get(key))

    def ref(self, target) -> str:
        match = _LOCAL_REF.fullmatch(target) if isinstance(target, str) else None
        if match is None or match[1] not in self.defs:
            raise InternalError(f"unsupported $ref {target!r}")
        if target not in self.ns["_done"] and target not in self.new:
            self.new[target] = alias = f"_d{next(self.ns['_count'])}"  # named first, for recursion
            self.source.append(f"{alias} = {self.node(self.defs[match[1]]) or self.function([])}")
        return self.ns["_done"].get(target, self.new.get(target))

    def int_verdict(self, s, seen=frozenset()) -> bool | None:
        """True when every int passes s, False when none does, None when it
        depends on the int (s is well formed, having been written)."""
        if isinstance(s, bool):
            return s
        if "$ref" in s:
            name = _LOCAL_REF.fullmatch(s["$ref"])[1]
            return None if name in seen else self.int_verdict(self.defs[name], seen | {name})
        ok = {s.get("type", "integer") == "integer", "enum" not in s, "minimum" not in s or None}
        if "oneOf" in s:
            a, b = (self.int_verdict(t, seen) for t in s["oneOf"])
            ok.add(None if None in (a, b) else a != b)
        return False if False in ok else None if None in ok else True

    def fails(self, s, fn: str, v: str) -> str:
        """The test that v fails s, compiled to fn, its error bound to e; an
        int is taken as passing where s admits every int."""
        skip = f"type({v}) is not int and " if self.int_verdict(s) else ""
        return f"{skip}(e := {fn}({v})) is not None"

    def write(self, s) -> str | None:
        if s is True or s == {}:
            return None
        if not isinstance(s, dict) or s.keys() - _KEYWORDS:
            raise InternalError(f"unsupported schema keywords {sorted(s.keys() - _KEYWORDS)}"
                                if isinstance(s, dict) else f"not a schema: {s!r}")
        if "$ref" in s:
            if len(s) > 1:
                raise InternalError(f"$ref beside other keywords {sorted(s)}")
            return self.ref(s["$ref"])
        props, rest = s.get("properties", {}), s.get("additionalProperties", True)
        if False in props.values():  # jsonschema reports it at the parent's path
            raise InternalError("false schema under properties")
        if "type" in s and (not isinstance(s["type"], str) or s["type"] not in _TYPES):
            raise InternalError(f"unsupported schema type {s['type']!r}")
        test, only = _TYPES.get(s.get("type"), (None, set()))
        guarded = len(s) > 1 and s.keys() - {"type"} <= only  # a failed type is then the only error

        def of(cls):  # the test that x is a cls, needless under a guard
            return "" if guarded else f"isinstance(x, {cls}) and "

        def within(cls, lines):  # lines that apply to instances of cls only
            return lines if guarded or not lines else [f"if isinstance(x, {cls}):", *("    " + c for c in lines)]

        body = [f"if not {test}: return ((), 'type', x, {s['type']!r})"] if guarded else []
        for k, v in s.items():
            if k == "type" and not guarded:
                cond, value = f"not {test}", repr(v)
            elif k == "enum":
                if not all(isinstance(e, str) for e in v):
                    raise InternalError(f"enum of non-strings {v!r}")
                cond, value = f"not (isinstance(x, str) and x in {self.const(frozenset(v))})", self.const(v)
            elif k == "minimum":  # jsonschema's own comparison, so NaN passes as it does there
                value = self.const(v)
                cond = f"(type(x) is int or not isinstance(x, bool) and isinstance(x, _Number)) and x < {value}"
            elif k == "pattern":
                cond, value = f"{of('str')}{self.const(re.compile(v).search)}(x) is None", repr(v)
            elif k == "oneOf":
                if len(v) != 2:
                    raise InternalError(f"oneOf of {len(v)} branches")
                a, b = (f"{f}(x) is None" if f else "True" for f in map(self.node, v))
                cond, value = f"(ok := {a}) == ({b})", f"{self.const((v[1], v[0]))} if ok else ()"
            elif k == "required":
                cond, value = f"{of('dict')}not {self.const(frozenset(v))} <= x.keys()", self.const(v)
            elif k == "additionalProperties" and v is False:
                value = self.const(frozenset(props))
                cond = f"{of('dict')}not x.keys() <= {value}"
            elif k == "items" and v is False:
                cond, value = f"{of('list')}x", "False"
            else:
                continue
            body.append(f"if {cond}: return ((), {k!r}, x, {value})")
        if s.keys() & {"properties", "additionalProperties"}:
            if (fn := None if rest is False else self.node(rest)) and props:
                raise InternalError("properties beside an additionalProperties schema")
            need = set(s.get("required", ()))  # present, once the own checks have passed
            kids = [f"if {'' if k in need else f'{k!r} in x and '}{self.fails(t, f, f'x[{k!r}]')}: return _at({k!r}, e)"
                    for k, t in sorted(props.items()) if (f := self.node(t))]
            if fn:  # once some key fails, the failing key that sorts first
                kids = ["for k, v in x.items():", f"    if {self.fails(rest, fn, 'v')}:",
                        f"        return _at(*min((k, e) for k, v in x.items() if (e := {fn}(v)) is not None))"]
            body += within("dict", kids)
        if s.get("items", False) is not False and (fn := self.node(s["items"])):
            t = s["items"]
            loop = ["for i, v in enumerate(x):", f"    if {self.fails(t, fn, 'v')}: return _at(i, e)"]
            body += within("list", loop)
        return self.function(body) if body else None


_MESSAGES = {  # jsonschema 4.26's, from the failing instance and the error's value
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
    """Deterministic serialization, the text json.dumps(body, indent=2,
    sort_keys=True) gives, plus a newline; the payload is re-checked against
    its schema so a malformed emission fails loudly at the source."""
    if (error := _checker(doc.kind)(doc.payload)) is not None:
        raise InternalError(f"emitted {doc.kind!r} document fails its schema: {_violation(doc.kind, error)}")
    return _text({"kind": doc.kind, "payload": doc.payload, "version": FORMAT_VERSION}, "\n") + "\n"


def _text(o, line: str) -> str:
    # o as json.dumps(o, indent=2, sort_keys=True) writes it, line being the
    # newline and indentation that its inner lines start with
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if type(o) is int:
        return str(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    inner = line + "  "
    if isinstance(o, (list, tuple)) and o:
        for x in o:
            if type(x) is not int:
                return f"[{inner}{f',{inner}'.join([_text(x, inner) for x in o])}{line}]"
        return f"[{inner}{f',{inner}'.join(map(str, o))}{line}]"  # a row of ints, the bulk of a payload
    if isinstance(o, dict) and o and all(isinstance(k, str) for k in o):
        items = [f"{encode_basestring_ascii(k)}: {_text(v, inner)}" for k, v in sorted(o.items())]
        return f"{{{inner}{f',{inner}'.join(items)}{line}}}"
    if isinstance(o, dict) and o:  # keys that are no strings
        return json.dumps(o, indent=2, sort_keys=True).replace("\n", line)
    return json.dumps(o)  # a float or an empty container; TypeError for what JSON cannot hold


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
    for x in v:  # past the schema check almost every entry is an int: take the row whole
        if type(x) is not int:
            return tuple(map(decode_int, v))
    return tuple(v)


def encode_matrix(m: IntMatrix) -> list:
    return [encode_vector(r) for r in m.entries]


def decode_matrix(raw, cols_hint: int | None = None) -> IntMatrix:
    # a zero-row matrix serializes as [] and loses its column count, hence the hint
    entries = tuple(map(decode_vector, raw))
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
