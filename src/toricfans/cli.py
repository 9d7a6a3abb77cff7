"""Command-line front end.

Five subcommands — validate, colimit, extend, glue, check — each reading
one JSON document (``--input`` or stdin) and writing one (``--output`` or
stdout).  Exit codes: 0 on success, 1 when the input is well-formed but
violates a structural axiom: a failed verdict, or an errors.DomainError
named in the report by its class (a report document is still written),
2 when the input itself is malformed or the program breaks one of its own
invariants (diagnostic on stderr, nothing written).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from . import documents
from .cone import NotPointed
from .diagram import (
    NotJoinClosed,
    NotTight,
    Subdiagram,
    colimit,
    extend_diagram_functional,
    validate_tight,
)
from .documents import Document, DocumentError
from .errors import DomainError, InternalError
from .intlin import IntMatrix
from .stackyfan import (
    StackyFan,
    canonical_cover,
    glue,
    group_description,
    is_cohomologically_affine,
    is_smooth,
    validate_fan,
)

_TIGHTNESS_CODES = ("T1", "T2", "T3", "T4")


def _structured(violations, default: str) -> list[dict]:
    """Split "T2: ..." style messages into condition + detail entries."""
    out = []
    for v in violations:
        head, _, rest = v.partition(": ")
        if head in _TIGHTNESS_CODES:
            out.append({"condition": head, "detail": rest})
        else:
            out.append({"condition": default, "detail": v})
    return out


def _group_report(sf: StackyFan) -> dict:
    g = group_description(sf)
    return {"torus_rank": g.free_rank, "torsion": list(g.torsion)}


def _reports_block(sf: StackyFan) -> dict:
    return {
        "is_smooth": is_smooth(sf),
        "is_cohomologically_affine": is_cohomologically_affine(sf),
        "group_description": _group_report(sf),
    }


def cmd_validate(doc: Document) -> tuple[Document, int]:
    if doc.kind == "diagram":
        violations = _structured(validate_tight(documents.decode_diagram(doc.payload)), "diagram")
    elif doc.kind == "charts":
        charts = documents.decode_charts(doc.payload)
        violations = _structured(validate_tight(charts.diagram), "diagram")
    elif doc.kind == "fan":
        violations = _structured(validate_fan(documents.decode_fan(doc.payload)), "fan")
    elif doc.kind == "monoid":
        try:
            documents.decode_monoid(doc.payload)
            violations = []
        except NotPointed as exc:
            violations = [{"condition": "monoid", "detail": str(exc)}]
    else:
        raise DocumentError(f"validate does not accept kind {doc.kind!r}")
    if violations:
        return Document("report", {"ok": False, "violations": violations}), 1
    return Document("report", {"ok": True}), 0


def cmd_colimit(doc: Document) -> tuple[Document, int]:
    if doc.kind != "diagram":
        raise DocumentError(f"colimit expects a diagram document, got {doc.kind!r}")
    d = documents.decode_diagram(doc.payload)
    return Document("colimit", documents.encode_colimit(d, colimit(d))), 0


def _resolve_diagram(ref, input_path: str | None):
    """The diagram a request holds or names; a name is a path relative to
    the request file's directory, or to the working directory for stdin."""
    if not isinstance(ref, str):
        return documents.decode_diagram(ref)
    base_dir = Path(input_path).resolve().parent if input_path else Path.cwd()
    try:
        text = (base_dir / ref).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read referenced diagram {ref!r}: {exc}") from None
    inner = documents.loads(text)
    if inner.kind != "diagram":
        raise DocumentError(f"referenced file {ref!r} holds a {inner.kind!r}, not a diagram")
    return documents.decode_diagram(inner.payload)


def cmd_extend(doc: Document, input_path: str | None) -> tuple[Document, int]:
    if doc.kind != "functional-request":
        raise DocumentError(f"extend expects a functional-request document, got {doc.kind!r}")
    ref, members, chi, mode = documents.decode_functional_request(doc.payload)
    d = _resolve_diagram(ref, input_path)
    try:
        sub = Subdiagram(d, frozenset(members))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    phi = extend_diagram_functional(sub, chi, mode)

    images = d.analysis.object_images
    member_rays = set()
    for i in members:
        member_rays.update(images[i].rays)
    certificate = []
    for i in sorted(d.objects):
        entries = [
            {
                "ray": documents.encode_vector(r),
                "value": documents.encode_int(phi(r)),
                "strict": mode == "nonneg_positive_away" and r not in member_rays,
            }
            for r in images[i].rays
        ]
        certificate.append({"object": i, "rays": entries})
    payload = {
        "coefficients": documents.encode_vector(phi.coefficients),
        "mode": mode,
        "certificate": certificate,
    }
    return Document("functional", payload), 0


def cmd_glue(doc: Document) -> tuple[Document, int]:
    if doc.kind != "charts":
        raise DocumentError(f"glue expects a charts document, got {doc.kind!r}")
    sf = glue(documents.decode_charts(doc.payload))
    return Document("stackyfan", documents.encode_stackyfan(sf, _reports_block(sf))), 0


def cmd_check(doc: Document, which: str) -> tuple[Document, int]:
    if doc.kind == "fan":
        fan = documents.decode_fan(doc.payload)
        sf = StackyFan(fan, IntMatrix.identity(fan.lattice_rank))
    elif doc.kind == "stackyfan":
        sf = documents.decode_stackyfan(doc.payload)
    else:
        raise DocumentError(f"check expects a fan or stackyfan document, got {doc.kind!r}")
    violations = _structured(validate_fan(sf.fan), "fan")
    if violations:
        return Document("report", {"ok": False, "violations": violations}), 1
    if which == "canonical":
        cover = canonical_cover(sf.fan)
        return Document("stackyfan", documents.encode_stackyfan(cover, _reports_block(cover))), 0
    if which == "smooth":
        result = is_smooth(sf)
    elif which == "cohaffine":
        result = is_cohomologically_affine(sf)
    else:
        result = _group_report(sf)
    return Document("report", {"ok": True, "which": which, "result": result}), 0


def _error_report(exc: Exception) -> Document:
    payload = {"ok": False, "error": type(exc).__name__}
    if isinstance(exc, NotTight):
        payload["violations"] = _structured(exc.violations, "diagram")
    elif isinstance(exc, NotJoinClosed):
        payload["witness"] = list(exc.witness)
        payload["detail"] = str(exc)
    else:
        payload["detail"] = str(exc)
    return Document("report", payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricfans",
        description="Exact computations with toric monoid diagrams and stacky fans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("validate", "check the structural axioms of a diagram, fan, monoid, or charts file"),
        ("colimit", "compute the colimit lattice, cone, and embeddings of a tight diagram"),
        ("extend", "extend a functional family from a join-closed subdiagram"),
        ("glue", "glue charts into a stacky fan"),
        ("check", "report a property of a fan or stacky fan"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="input document path (default: stdin)")
        p.add_argument("--output", help="output document path (default: stdout)")
        if name == "check":
            p.add_argument(
                "--which",
                required=True,
                choices=["smooth", "cohaffine", "group", "canonical"],
                help="property to report",
            )
    return parser


# built on the first main() call, not at import; argparse looks up
# sys.stdout and sys.stderr when it writes, so one parser serves every call
_parser = lru_cache(maxsize=1)(build_parser)


@lru_cache(maxsize=256)
def _parse(argv: tuple[str, ...]) -> argparse.Namespace:
    # main only reads the result; a refusal or --help raises SystemExit,
    # which lru_cache does not keep, so it is written again on every call
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(tuple(sys.argv[1:] if argv is None else argv))
    try:
        try:
            if args.input:
                text = Path(args.input).read_text("utf-8")
            else:
                text = sys.stdin.read()
            doc = documents.loads(text)
            if args.command == "validate":
                out, code = cmd_validate(doc)
            elif args.command == "colimit":
                out, code = cmd_colimit(doc)
            elif args.command == "extend":
                out, code = cmd_extend(doc, args.input)
            elif args.command == "glue":
                out, code = cmd_glue(doc)
            else:
                out, code = cmd_check(doc, args.which)
        except DomainError as exc:
            out, code = _error_report(exc), 1
        text = documents.dumps(out)
        if args.output:
            Path(args.output).write_text(text, "utf-8")
        else:
            sys.stdout.write(text)
    except (DocumentError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 2
    return code


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
