"""End-to-end runs of the command line against the shipped fixtures.

Commands run in-process through main() so exit codes and both streams are
observable; one test goes through a real subprocess to cover the module
entry point.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_schema_compiler import REPLACEMENTS, nodes, replace_node
from toricfans import cli as cli_module
from toricfans import diagram as diagram_module
from toricfans import documents
from toricfans.cli import build_parser, main, run
from toricfans.errors import DomainError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
QUADRANT_DIAGRAM = str(FIXTURES / "quadrant-face-diagram.json")
DOUBLED_LINE = str(FIXTURES / "doubled-line-charts.json")
DOUBLED_PLANE = str(FIXTURES / "doubled-plane-charts.json")
A1_FAN = str(FIXTURES / "a1-cone-fan.json")
OCTANT = str(FIXTURES / "octant-triple-glue.json")


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out: str):
    return documents.loads(out).payload


def write_doc(path: Path, kind: str, body) -> str:
    path.write_text(
        json.dumps({"kind": kind, "payload": body, "version": "1"}) + "\n", "utf-8"
    )
    return str(path)


def test_validate_quadrant_diagram(capsys):
    code, out, _ = invoke(["validate", "--input", QUADRANT_DIAGRAM], capsys)
    assert code == 0
    assert payload(out) == {"ok": True}


def test_validate_doubled_plane_charts_reports_t4(capsys):
    code, out, _ = invoke(["validate", "--input", DOUBLED_PLANE], capsys)
    assert code == 1
    report = payload(out)
    assert report["ok"] is False
    assert [v["condition"] for v in report["violations"]] == ["T4"]


def test_validate_fan_fixture(capsys):
    code, out, _ = invoke(["validate", "--input", A1_FAN], capsys)
    assert code == 0 and payload(out)["ok"] is True


def test_validate_overlapping_fan(tmp_path, capsys):
    doc = write_doc(
        tmp_path / "f.json",
        "fan",
        {
            "lattice_rank": 2,
            "rays": [[1, 0], [0, 1], [1, 1], [1, -1]],
            "maximal_cones": [[0, 1], [2, 3]],
        },
    )
    code, out, _ = invoke(["validate", "--input", doc], capsys)
    assert code == 1
    report = payload(out)
    assert report["violations"][0]["condition"] == "fan"
    assert "non-face" in report["violations"][0]["detail"]


def test_validate_monoid(tmp_path, capsys):
    good = write_doc(
        tmp_path / "m.json",
        "monoid",
        {"lattice_rank": 1, "cone": {"ambient_rank": 1, "rays": [[1]]}},
    )
    code, out, _ = invoke(["validate", "--input", good], capsys)
    assert code == 0 and payload(out)["ok"] is True
    line = write_doc(
        tmp_path / "l.json",
        "monoid",
        {"lattice_rank": 1, "cone": {"ambient_rank": 1, "rays": [[1], [-1]]}},
    )
    code, out, _ = invoke(["validate", "--input", line], capsys)
    assert code == 1
    assert payload(out)["violations"][0]["condition"] == "monoid"


def test_validate_rejects_cone_kind(tmp_path, capsys):
    doc = write_doc(tmp_path / "c.json", "cone", {"ambient_rank": 0, "rays": []})
    code, _, err = invoke(["validate", "--input", doc], capsys)
    assert code == 2 and "does not accept" in err


def test_colimit_quadrant(capsys):
    code, out, _ = invoke(["colimit", "--input", QUADRANT_DIAGRAM], capsys)
    assert code == 0
    result = payload(out)
    assert result["colimit_rank"] == 2
    assert result["cone"] == {"ambient_rank": 2, "rays": [[0, 1], [1, 0]]}
    assert result["embeddings"]["f_0_1"] == [[1, 0], [0, 1]]
    assert result["face_embeddings"] == {"ok": True, "violations": []}


def test_colimit_octant_triple(capsys):
    code, out, _ = invoke(["colimit", "--input", OCTANT], capsys)
    assert code == 0
    result = payload(out)
    assert result["colimit_rank"] == 3
    assert len(result["cone"]["rays"]) == 3
    assert result["face_embeddings"]["ok"] is True


def test_colimit_rejects_charts_kind(capsys):
    code, _, err = invoke(["colimit", "--input", DOUBLED_LINE], capsys)
    assert code == 2 and "expects a diagram" in err


def test_colimit_of_untight_diagram_embeds_report(tmp_path, capsys):
    bad = documents.loads(Path(DOUBLED_PLANE).read_text("utf-8")).payload["diagram"]
    doc = write_doc(tmp_path / "d.json", "diagram", bad)
    code, out, _ = invoke(["colimit", "--input", doc], capsys)
    assert code == 1
    report = payload(out)
    assert report["error"] == "NotTight"
    assert [v["condition"] for v in report["violations"]] == ["T4"]


def extend_request(diagram, members, chi, mode="nonneg_positive_away"):
    return {"diagram": diagram, "members": members, "chi": chi, "mode": mode}


def test_extend_with_relative_diagram_path(tmp_path, capsys):
    (tmp_path / "quadrant.json").write_text(Path(QUADRANT_DIAGRAM).read_text("utf-8"), "utf-8")
    req = write_doc(
        tmp_path / "req.json",
        "functional-request",
        extend_request("quadrant.json", ["f", "f_1"], {"f": [0, 0], "f_1": [1, 0]}),
    )
    code, out, _ = invoke(["extend", "--input", req], capsys)
    assert code == 0
    result = payload(out)
    assert result["coefficients"] == [1, 1]
    by_object = {c["object"]: c["rays"] for c in result["certificate"]}
    assert by_object["f"] == []
    assert by_object["f_0"] == [{"ray": [0, 1], "value": 1, "strict": True}]
    assert {"ray": [1, 0], "value": 1, "strict": False} in by_object["f_0_1"]


def test_extend_with_inline_diagram(tmp_path, capsys):
    diagram = documents.loads(Path(QUADRANT_DIAGRAM).read_text("utf-8")).payload
    req = write_doc(
        tmp_path / "req.json",
        "functional-request",
        extend_request(diagram, ["f", "f_0", "f_1", "f_0_1"],
                       {"f": [0, 0], "f_0": [2, 3], "f_1": [2, 3], "f_0_1": [2, 3]}),
    )
    code, out, _ = invoke(["extend", "--input", req], capsys)
    assert code == 0
    result = payload(out)
    assert result["coefficients"] == [2, 3]
    # every object is a member, so nothing is required to be strict
    assert all(not r["strict"] for c in result["certificate"] for r in c["rays"])


def test_extend_reports_join_failure(tmp_path, capsys):
    req = write_doc(
        tmp_path / "req.json",
        "functional-request",
        extend_request(
            QUADRANT_DIAGRAM,
            ["f", "f_0", "f_1"],
            {"f": [0, 0], "f_0": [0, 1], "f_1": [1, 0]},
        ),
    )
    code, out, _ = invoke(["extend", "--input", req], capsys)
    assert code == 1
    report = payload(out)
    assert report["error"] == "NotJoinClosed"
    assert report["witness"] == ["f_0", "f_1", "f_0_1"]


def test_extend_reports_negative_family(tmp_path, capsys):
    req = write_doc(
        tmp_path / "req.json",
        "functional-request",
        extend_request(QUADRANT_DIAGRAM, ["f", "f_1"], {"f": [0, 0], "f_1": [-1, 0]}),
    )
    code, out, _ = invoke(["extend", "--input", req], capsys)
    assert code == 1
    assert payload(out)["error"] == "NegativeOnSub"


def test_extend_reports_a_member_functional_of_the_wrong_length(tmp_path, capsys):
    req = write_doc(
        tmp_path / "req.json",
        "functional-request",
        extend_request(QUADRANT_DIAGRAM, ["f", "f_1"], {"f": [0, 0], "f_1": [1, 0, 0]}),
    )
    code, out, err = invoke(["extend", "--input", req], capsys)
    assert (code, err) == (1, "")
    assert payload(out) == {
        "ok": False, "error": "IncompatibleFamily", "detail": "coefficients for 'f_1' have the wrong length",
    }


def test_extend_rejects_unknown_member(tmp_path, capsys):
    req = write_doc(
        tmp_path / "req.json",
        "functional-request",
        extend_request(QUADRANT_DIAGRAM, ["nope"], {"nope": [0, 0]}),
    )
    code, _, err = invoke(["extend", "--input", req], capsys)
    assert code == 2 and err


def test_extend_rejects_wrong_referenced_kind(tmp_path, capsys):
    req = write_doc(
        tmp_path / "req.json",
        "functional-request",
        extend_request(A1_FAN, ["f"], {"f": [0, 0]}),
    )
    code, _, err = invoke(["extend", "--input", req], capsys)
    assert code == 2 and "not a diagram" in err


def test_glue_doubled_line(capsys):
    code, out, _ = invoke(["glue", "--input", DOUBLED_LINE], capsys)
    assert code == 0
    result = payload(out)
    assert result["beta"] == [[1, 1]]
    assert result["target_rank"] == 1
    assert result["fan"]["rays"] == [[0, 1], [1, 0]]
    assert result["fan"]["maximal_cones"] == [[0], [1]]
    assert result["reports"] == {
        "is_smooth": True,
        "is_cohomologically_affine": False,
        "group_description": {"torus_rank": 1, "torsion": []},
    }


def test_glue_untight_charts(capsys):
    code, out, _ = invoke(["glue", "--input", DOUBLED_PLANE], capsys)
    assert code == 1
    report = payload(out)
    assert report["error"] == "NotTight"
    assert [v["condition"] for v in report["violations"]] == ["T4"]


def test_glue_incompatible_betas(tmp_path, capsys):
    diagram = documents.loads(Path(QUADRANT_DIAGRAM).read_text("utf-8")).payload
    betas = {
        "f": [[], []],
        "f_0": [[0], [1]],
        "f_1": [[1], [1]],  # should restrict from the identity to [[1], [0]]
        "f_0_1": [[1, 0], [0, 1]],
    }
    doc = write_doc(
        tmp_path / "c.json", "charts", {"diagram": diagram, "betas": betas, "target_rank": 2}
    )
    code, out, _ = invoke(["glue", "--input", doc], capsys)
    assert code == 1
    assert payload(out)["error"] == "IncompatibleBetas"


def test_check_smooth(tmp_path, capsys):
    code, out, _ = invoke(["check", "--which", "smooth", "--input", A1_FAN], capsys)
    assert code == 0
    assert payload(out) == {"ok": True, "which": "smooth", "result": False}
    quad = write_doc(
        tmp_path / "q.json",
        "fan",
        {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "maximal_cones": [[0, 1]]},
    )
    code, out, _ = invoke(["check", "--which", "smooth", "--input", quad], capsys)
    assert code == 0 and payload(out)["result"] is True


def test_check_cohaffine(tmp_path, capsys):
    code, out, _ = invoke(["check", "--which", "cohaffine", "--input", A1_FAN], capsys)
    assert code == 0 and payload(out)["result"] is True
    two = write_doc(
        tmp_path / "f.json",
        "fan",
        {"lattice_rank": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]},
    )
    code, out, _ = invoke(["check", "--which", "cohaffine", "--input", two], capsys)
    assert code == 0 and payload(out)["result"] is False


def test_check_group_of_stackyfan(tmp_path, capsys):
    doc = write_doc(
        tmp_path / "sf.json",
        "stackyfan",
        {
            "fan": {"lattice_rank": 1, "rays": [[1]], "maximal_cones": [[0]]},
            "beta": [[2]],
            "target_rank": 1,
        },
    )
    code, out, _ = invoke(["check", "--which", "group", "--input", doc], capsys)
    assert code == 0
    assert payload(out)["result"] == {"torus_rank": 0, "torsion": [2]}


def test_check_canonical_cover(capsys):
    code, out, _ = invoke(["check", "--which", "canonical", "--input", A1_FAN], capsys)
    assert code == 0
    doc = documents.loads(out)
    assert doc.kind == "stackyfan"
    assert doc.payload["beta"] == [[1, 1], [0, 2]]
    assert doc.payload["fan"] == {
        "lattice_rank": 2,
        "rays": [[1, 0], [0, 1]],
        "maximal_cones": [[0, 1]],
    }
    assert doc.payload["reports"]["is_smooth"] is True
    assert doc.payload["reports"]["group_description"] == {"torus_rank": 0, "torsion": [2]}


def test_check_canonical_needs_spanning_rays(tmp_path, capsys):
    doc = write_doc(
        tmp_path / "f.json",
        "fan",
        {"lattice_rank": 2, "rays": [[1, 0]], "maximal_cones": [[0]]},
    )
    code, out, _ = invoke(["check", "--which", "canonical", "--input", doc], capsys)
    assert code == 1
    assert payload(out)["error"] == "RaysDoNotSpan"


def test_check_rejects_invalid_fan(tmp_path, capsys):
    doc = write_doc(
        tmp_path / "f.json",
        "fan",
        {"lattice_rank": 1, "rays": [[2]], "maximal_cones": [[0]]},
    )
    code, out, _ = invoke(["check", "--which", "smooth", "--input", doc], capsys)
    assert code == 1
    report = payload(out)
    assert report["ok"] is False and report["violations"][0]["condition"] == "fan"


@pytest.mark.parametrize("argv", [["validate"], ["check", "--which", "smooth"]])
def test_fan_listing_a_ray_twice_is_one_violation(argv, tmp_path, capsys):
    doc = write_doc(
        tmp_path / "f.json",
        "fan",
        {"lattice_rank": 1, "rays": [[1], [1]], "maximal_cones": [[0, 1]]},
    )
    code, out, _ = invoke([*argv, "--input", doc], capsys)
    assert code == 1
    assert payload(out) == {
        "ok": False,
        "violations": [{"condition": "fan", "detail": "maximal cone 0 repeats a ray"}],
    }


def test_truncated_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(Path(QUADRANT_DIAGRAM).read_text("utf-8")[:40], "utf-8")
    code, out, err = invoke(["validate", "--input", str(path)], capsys)
    assert code == 2 and out == "" and "not valid JSON" in err


def test_missing_input_file_is_a_usage_error(capsys):
    code, out, err = invoke(["validate", "--input", "/nonexistent/x.json"], capsys)
    assert code == 2 and out == "" and err


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    dest = tmp_path / "missing-dir" / "out.json"
    code, out, err = invoke(["validate", "--input", A1_FAN, "--output", str(dest)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not dest.exists()


def test_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = invoke(["validate", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "can't decode byte 0xff" in err and err.count("\n") == 1


def test_referenced_diagram_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}")
    req = write_doc(tmp_path / "req.json", "functional-request", extend_request("bad.json", ["f"], {"f": [0, 0]}))
    code, out, err = invoke(["extend", "--input", req], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read referenced diagram 'bad.json': ") and err.count("\n") == 1


def test_deeply_nested_document_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000, "utf-8")
    code, out, err = invoke(["validate", "--input", str(path)], capsys)
    assert code == 2 and out == "" and "nested too deeply" in err


def _fan_with(**changes) -> dict:
    body = {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "maximal_cones": [[0, 1]]}
    return {**body, **changes}


def _doubled_line_with(**changes) -> dict:
    return {**json.loads(Path(DOUBLED_LINE).read_text("utf-8"))["payload"], **changes}


def _diagram_with_float_rank() -> dict:
    diagram = json.loads(Path(QUADRANT_DIAGRAM).read_text("utf-8"))["payload"]
    diagram["objects"]["f_0"]["lattice_rank"] = 2.0
    return diagram


@pytest.mark.parametrize(
    "argv, kind, body",
    [
        (["check", "--which", "group"], "fan", _fan_with(lattice_rank=2.0)),
        (["check", "--which", "smooth"], "fan", _fan_with(maximal_cones=[[0, 1.0]])),
        (["validate"], "diagram", _diagram_with_float_rank()),
        (["validate"], "monoid", {"lattice_rank": 1, "cone": {"ambient_rank": 1.0, "rays": [[1]]}}),
        (["check", "--which", "group"], "stackyfan",
         {"fan": _fan_with(), "beta": [[1, 0], [0, 1]], "target_rank": 2.0}),
        (["glue"], "charts", _doubled_line_with(target_rank=1.0)),
    ],
)
def test_integer_fields_refuse_integral_floats(argv, kind, body, tmp_path, capsys):
    # the schema's "integer" admits 2.0; the decoders must refuse it, not crash on it
    path = write_doc(tmp_path / "doc.json", kind, body)
    code, out, err = invoke([*argv, "--input", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not an integer value" in err


def _monoid_with_ray(entry) -> str:
    body = {"lattice_rank": 1, "cone": {"ambient_rank": 1, "rays": [[entry]]}}
    return json.dumps({"kind": "monoid", "payload": body, "version": "1"})


@pytest.mark.parametrize(
    "argv, text, message",
    [
        # a number literal past the interpreter's int digit limit fails inside json.loads
        (["colimit"], '{"kind": "cone", "payload": {"ambient_rank": 1, "rays": [[%s]]}, "version": "1"}'
         % ("9" * 5000), "integer with more than"),
        (["validate"], _monoid_with_ray("9" * 5000), "integer with more than"),
        # the schema pattern is matched with re.search, whose $ accepts a final newline
        (["validate"], _monoid_with_ray("12\n"), "not an integer value: '12\\n'"),
    ],
)
def test_unreadable_integers_are_usage_errors(argv, text, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text, "utf-8")
    code, out, err = invoke([*argv, "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


TOO_LONG = "9" * (sys.get_int_max_str_digits() + 1)
LONG_LITERAL = object()  # stands for TOO_LONG written as a number literal


def _matrix_entry_doc(kind: str, entry) -> tuple[str, str]:
    """A fixture with the first entry of a matrix replaced, and that entry's path."""
    if kind == "diagram":
        body = json.loads(Path(QUADRANT_DIAGRAM).read_text("utf-8"))["payload"]
        matrix, where = body["morphisms"][0]["matrix"], "morphisms/0/matrix/0/0"
    else:
        body = _doubled_line_with()
        name = next(k for k, m in sorted(body["betas"].items()) if m and m[0])
        matrix, where = body["betas"][name], f"betas/{name}/0/0"
    matrix[0][0] = "<entry>" if entry is LONG_LITERAL else entry
    text = json.dumps({"kind": kind, "payload": body, "version": "1"})
    return text.replace('"<entry>"', TOO_LONG), where  # a number literal past the digit limit


@pytest.mark.parametrize("argv, kind", [(["validate"], "diagram"), (["glue"], "charts")])
@pytest.mark.parametrize(
    "entry, message",
    [
        (2.0, "not an integer value: 2.0"),
        (True, "schema violation for kind {kind!r} at {where}: True is not valid under any of the given schemas"),
        ("12\n", "not an integer value: '12\\n'"),
        (LONG_LITERAL, f"integer with more than {sys.get_int_max_str_digits()} digits"),
        (TOO_LONG, f"integer with more than {sys.get_int_max_str_digits()} digits"),
    ],
    ids=["integral float", "bool", "trailing newline", "long literal", "long string"],
)
def test_matrix_entries_that_are_no_integers_are_usage_errors(argv, kind, entry, message, tmp_path, capsys):
    # a whole row of ints is taken at once; anything else in a matrix is still refused
    text, where = _matrix_entry_doc(kind, entry)
    path = tmp_path / "doc.json"
    path.write_text(text, "utf-8")
    code, out, err = invoke([*argv, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(kind=kind, where=where)}\n"


def _bare_monoid(rank: int) -> dict:
    return {"lattice_rank": rank, "cone": {"ambient_rank": rank, "rays": []}}


@pytest.mark.parametrize(
    "argv, kind, body, rank",
    [
        (["validate"], "monoid", _bare_monoid(documents.MAX_RANK + 1), documents.MAX_RANK + 1),
        (["validate"], "monoid", _bare_monoid(2000), 2000),
        (["validate"], "monoid", _bare_monoid(2**60), 2**60),
        (["check", "--which", "group"], "fan", _fan_with(lattice_rank=2**60, rays=[], maximal_cones=[]), 2**60),
        (["check", "--which", "group"], "stackyfan",
         {"fan": _fan_with(), "beta": [[1, 0], [0, 1]], "target_rank": 2**60}, 2**60),
        (["glue"], "charts", _doubled_line_with(target_rank=2**60), 2**60),
    ],
)
def test_ranks_above_the_limit_are_refused_up_front(argv, kind, body, rank, tmp_path, capsys):
    # a stated rank costs cubic time and quadratic memory with no data behind it
    path = write_doc(tmp_path / "doc.json", kind, body)
    start = time.process_time()
    code, out, err = invoke([*argv, "--input", path], capsys)
    assert time.process_time() - start < 0.5
    assert code == 2
    assert out == ""
    assert err == f"error: rank {rank} is above the limit of {documents.MAX_RANK}\n"


def test_a_rank_at_the_limit_is_analysed(tmp_path, capsys):
    path = write_doc(tmp_path / "doc.json", "monoid", _bare_monoid(documents.MAX_RANK))
    code, out, err = invoke(["validate", "--input", path], capsys)
    assert code == 0 and err == ""
    assert payload(out) == {"ok": True}


def _plane_monoid(lattice_rank: int, rays) -> dict:
    return {"lattice_rank": lattice_rank, "cone": {"ambient_rank": 2, "rays": rays}}


_WRONG_SHAPE = {
    "objects": {"a": _plane_monoid(2, [[1, 0]]), "b": _plane_monoid(2, [[1, 0], [0, 1]])},
    "morphisms": [{"from": "a", "to": "b", "matrix": [[1, 0]]}],
}

_WRONG_WIDTH_BETA = _doubled_line_with(betas={**_doubled_line_with()["betas"], "a:f_0": [[1, 0]]})


@pytest.mark.parametrize(
    "argv, kind, body, message",
    [
        (["validate"], "monoid", _plane_monoid(2, [[1]]), "ray length does not match ambient_rank"),
        (["validate"], "monoid", _plane_monoid(1, [[1, 0]]), "cone ambient_rank differs from lattice_rank"),
        (["validate"], "diagram", _WRONG_SHAPE, "morphism 'a'->'b' has wrong matrix shape"),
        (["check", "--which", "group"], "stackyfan",
         {"fan": _fan_with(lattice_rank=1, rays=[[1]], maximal_cones=[[0]]), "beta": [[1], [1]],
          "target_rank": 1},
         "beta shape does not match the fan and target lattices"),
        (["glue"], "charts", _doubled_line_with(betas={"0": [[]]}),
         "betas must be indexed exactly by the diagram objects"),
        (["extend"], "fan", _fan_with(), "extend expects a functional-request document, got 'fan'"),
        (["glue"], "fan", _fan_with(), "glue expects a charts document, got 'fan'"),
        (["check", "--which", "smooth"], "diagram", _WRONG_SHAPE,
         "check expects a fan or stackyfan document, got 'diagram'"),
        (["glue"], "charts", _WRONG_WIDTH_BETA, "beta for object 'a:f_0' has the wrong shape"),
        (["validate"], "charts", _WRONG_WIDTH_BETA, "beta for object 'a:f_0' has the wrong shape"),
    ],
)
def test_inconsistent_documents_are_usage_errors(argv, kind, body, message, tmp_path, capsys):
    path = write_doc(tmp_path / "doc.json", kind, body)
    code, out, err = invoke([*argv, "--input", path], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_internal_error_is_exit_2_with_a_diagnostic(monkeypatch, capsys):
    # an emission that fails its own schema is a broken invariant, not a violation (exit 1)
    monkeypatch.setattr(documents, "encode_colimit", lambda d, result: {"colimit_rank": -1})
    code, out, err = invoke(["colimit", "--input", QUADRANT_DIAGRAM], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: internal error: emitted 'colimit' document fails its schema")


def _domain_error(cls):
    """An instance of one DomainError subclass, built as its raisers build it."""
    if cls is diagram_module.NotTight:
        return cls(["T4: objects 'a', 'b' have 2 maximal common faces"])
    if cls is diagram_module.NotJoinClosed:
        return cls(("a", "b", "c"))
    return cls("a structural axiom fails")


@pytest.mark.parametrize("cls", sorted(DomainError.__subclasses__(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_domain_error_is_exit_1_with_a_report(cls, monkeypatch, capsys):
    def failing(d):
        raise _domain_error(cls)

    monkeypatch.setattr(cli_module, "colimit", failing)
    code, out, err = invoke(["colimit", "--input", QUADRANT_DIAGRAM], capsys)
    assert (code, err) == (1, "")
    report = payload(out)
    assert report["ok"] is False and report["error"] == cls.__name__


@pytest.mark.parametrize(
    "command, path, builds",
    [("validate", QUADRANT_DIAGRAM, 1), ("colimit", OCTANT, 1), ("glue", DOUBLED_LINE, 1),
     ("extend", None, 1)],
)
def test_each_diagram_is_analysed_once(command, path, builds, tmp_path, monkeypatch, capsys):
    # extend judges the members' tightness and join closure from the parent's
    # analysis, so it builds no second diagram of the members alone
    if path is None:
        diagram = documents.loads(Path(QUADRANT_DIAGRAM).read_text("utf-8")).payload
        path = write_doc(
            tmp_path / "req.json",
            "functional-request",
            extend_request(diagram, ["f", "f_1"], {"f": [0, 0], "f_1": [1, 0]}),
        )
    calls = []
    original = diagram_module._analyse

    def counting(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(diagram_module, "_analyse", counting)
    code, _, _ = invoke([command, "--input", path], capsys)
    assert code == 0
    assert len(calls) == builds


def test_stdin_and_output_file(tmp_path, monkeypatch, capsys):
    text = Path(A1_FAN).read_text("utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    dest = tmp_path / "out.json"
    code = main(["validate", "--output", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert documents.loads(dest.read_text("utf-8")).payload == {"ok": True}


def test_output_is_byte_identical_across_runs(capsys):
    _, first, _ = invoke(["glue", "--input", DOUBLED_LINE], capsys)
    _, second, _ = invoke(["glue", "--input", DOUBLED_LINE], capsys)
    assert first == second


def test_every_emission_is_a_loadable_document(capsys):
    for argv in (
        ["validate", "--input", QUADRANT_DIAGRAM],
        ["validate", "--input", DOUBLED_PLANE],
        ["colimit", "--input", OCTANT],
        ["glue", "--input", DOUBLED_LINE],
        ["check", "--which", "canonical", "--input", A1_FAN],
    ):
        _, out, _ = invoke(argv, capsys)
        documents.loads(out)


def _calls_on_fresh_streams(monkeypatch, sequence):
    """(exit code, stdout, stderr) of each main() call, each on new streams."""
    results = []
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def test_one_parser_serves_calls_like_fresh_ones(monkeypatch):
    # the parser is built once per process; each call must still parse from
    # scratch and write to the streams current at that call
    sequence = [
        ["check", "--which", "smooth", "--input", A1_FAN],
        ["check", "--input", A1_FAN],  # usage error: --which is required
        ["validate", "--input", QUADRANT_DIAGRAM],
        ["--help"],
        ["colimit", "--input", OCTANT],
        ["nonsense"],
        ["check", "--help"],
        ["validate", "--input", DOUBLED_PLANE],
    ]
    cli_module._parser.cache_clear()
    cli_module._parse.cache_clear()
    shared = _calls_on_fresh_streams(monkeypatch, sequence)
    assert cli_module._parser.cache_info().misses == 1
    monkeypatch.setattr(cli_module, "_parser", build_parser)
    monkeypatch.setattr(cli_module, "_parse", lambda argv: build_parser().parse_args(argv))
    fresh = _calls_on_fresh_streams(monkeypatch, sequence)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, ("exit", 2), 0, ("exit", 0), 0, ("exit", 2), ("exit", 0), 1]
    assert "the following arguments are required: --which" in shared[1][2]
    assert shared[3][1].startswith("usage: toricfans") and shared[3][2] == ""


def test_a_command_line_is_parsed_once_and_a_refusal_every_time(capsys):
    cli_module._parse.cache_clear()
    argv = ["validate", "--input", QUADRANT_DIAGRAM]
    assert invoke(argv, capsys)[0] == invoke(list(argv), capsys)[0] == 0
    assert cli_module._parse.cache_info().hits == 1
    for refused in (["check", "--input", A1_FAN], ["--help"]):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit):
                main(refused)
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and (outputs[0].out or outputs[0].err)
    assert cli_module._parse.cache_info().currsize == 1


def test_the_working_directory_is_read_only_to_resolve_a_reference(tmp_path):
    # stdin needs no working directory; a reference relative to a deleted one is an exit-2 error
    diagram = Path(QUADRANT_DIAGRAM).read_text("utf-8")
    request = json.dumps({"kind": "functional-request", "version": "1",
                          "payload": extend_request("quadrant.json", ["f"], {"f": [0, 0]})})
    probe = (
        "import io, os, sys, toricfans.cli as cli; gone = sys.argv[1]; os.chdir(gone); os.rmdir(gone); "
        "sys.stdin = io.StringIO(sys.argv[2]); code = cli.main(sys.argv[3:]); print(code)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(cli_module.__file__).parent.parent),
                                                        *filter(None, [os.environ.get("PYTHONPATH")])])}
    results = []
    for k, (text, argv) in enumerate([(diagram, ["validate"]), (request, ["extend"])]):
        gone = tmp_path / f"gone{k}"
        gone.mkdir()
        proc = subprocess.run([sys.executable, "-c", probe, str(gone), text, *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        results.append((proc.stdout.splitlines()[-1], proc.stderr))
    assert results[0] == ("0", "")
    assert results[1][0] == "2" and results[1][1].startswith("error: ") and results[1][1].count("\n") == 1


def test_run_raises_system_exit(capsys):
    argv = sys.argv
    sys.argv = ["toricfans", "validate", "--input", QUADRANT_DIAGRAM]
    try:
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 0
    finally:
        sys.argv = argv
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toricfans.cli", "validate", "--input", QUADRANT_DIAGRAM],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert documents.loads(proc.stdout).payload == {"ok": True}


def _text(path) -> str:
    return Path(path).read_text("utf-8")


# each fixture, and an extend request on one, with a command line that reads it
FUZZ_TARGETS = (
    (["validate"], _text(QUADRANT_DIAGRAM)),
    (["colimit"], _text(OCTANT)),
    (["glue"], _text(DOUBLED_LINE)),
    (["validate"], _text(DOUBLED_PLANE)),
    (["check", "--which", "group"], _text(A1_FAN)),
    (["check", "--which", "canonical"], _text(A1_FAN)),
    (["extend"], json.dumps({"kind": "functional-request", "version": "1", "payload": extend_request(
        json.loads(_text(QUADRANT_DIAGRAM))["payload"], ["f", "f_1"], {"f": [0, 0], "f_1": [1, 0]})})),
)


@st.composite
def fuzzed_inputs(draw):
    """A command line and the bytes of its --input file: a fixture with one
    JSON node replaced, or with a few raw byte edits."""
    argv, text = draw(st.sampled_from(FUZZ_TARGETS))
    if draw(st.booleans()):
        doc = json.loads(text)
        where, _ = draw(st.sampled_from(list(nodes(doc))))
        return argv, json.dumps(replace_node(doc, where, draw(st.sampled_from(REPLACEMENTS)))).encode()
    data = bytearray(text.encode())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            data.insert(at, draw(st.integers(0, 255)))
        elif at < len(data):
            if edit == "replace":
                data[at] = draw(st.integers(0, 255))
            else:
                del data[at : at + draw(st.integers(1, 8))]
    return argv, bytes(data)


@settings(max_examples=300, deadline=None)
@given(fuzzed_inputs())
def test_fuzzed_input_gets_a_document_or_one_diagnostic(case):
    argv, data = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_bytes(data)
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--input", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")
    else:
        documents.loads(out.getvalue())
