"""The timed process of the toricfans benchmark: one fresh interpreter, one
client, one thread.

    python3 perfbench/timed.py --corpus FILE --out FILE [--setup-only]
        [--trace SPANS] [--digests FILE]

Set-up (timed as setup_s) imports toricfans.cli, reads the corpus and
compiles the schema validator of every document kind the workload uses by
loading one small document of each kind; no math runs, so no cache of the
program is warm.  Then a closed loop hands the next document to
toricfans.cli.main, in-process, as soon as the previous reply is written,
until every document of the corpus is done.  Set-up and each document are
timed in process CPU time: the program runs in this one thread and does no
I/O (stdin and stdout are in-memory), so CPU time is the wall-clock time
minus what a shared machine takes away.  Each reply is hashed and spilled
to a file next to --out as soon as it is timed, so replies do not pile up
in memory; peak memory is read when the loop ends.  The correctness gate
runs after that: exit code as expected, output parses with documents.loads
and has the expected kind (exit 2: nothing on stdout and a diagnostic on
stderr), and, when --digests is given, output bytes match the pinned digest
of the operation.

With --trace, tracing.py wraps the program's public functions for the loop
only and the per-layer numbers go into the result; without it that module is
never imported.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def read_corpus(path) -> tuple[dict, list[dict]]:
    """Header and operations of a corpus file written by corpus.py."""
    data = Path(path).read_text("utf-8")
    end = data.index("\n")
    header = json.loads(data[:end])
    ops = []
    pos = end + 1
    while pos < len(data):
        end = data.index("\n", pos)
        o = json.loads(data[pos:end])
        pos = end + 1 + o.pop("chars")
        o["text"] = data[end + 1 : pos]
        ops.append(o)
    return header, ops


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_one(cli, args, text):
    """One closed-loop request: the document on stdin, the reply captured."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        cpu = time.process_time()
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # a traceback escaping the CLI is a failed operation
            code = f"raised {type(exc).__name__}"
        cpu = time.process_time() - cpu
        return code, sys.stdout.getvalue(), sys.stderr.getvalue(), cpu
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def check(documents, op, code, out, err, pinned) -> str | None:
    """Reason the operation failed the gate, or None."""
    if code != op["expect"]:
        return f"exit {code}, expected {op['expect']}"
    if code == 2:
        if out or not err.startswith("error: "):
            return "exit 2 without a diagnostic only on stderr"
    else:
        try:
            doc = documents.loads(out)
        except documents.DocumentError as exc:
            return f"output does not parse: {exc}"
        if doc.kind != op["kind"]:
            return f"output kind {doc.kind!r}, expected {op['kind']!r}"
    if pinned is not None and digest(out) != pinned:
        return "output bytes differ from the pinned digest"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", help="file the spans are written to; turns tracing on")
    p.add_argument("--digests", help="JSON file of pinned per-operation digests by workload")
    args = p.parse_args(argv)

    t0 = time.process_time()
    import toricfans.cli as cli
    from toricfans import documents

    header, ops = read_corpus(args.corpus)
    for text in header["warmup"]:
        documents.loads(text)
    setup_s = time.process_time() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result), "utf-8")
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    spill = Path(args.out + ".replies")
    codes, digests, cpu_s = [], [], []
    with spill.open("w", encoding="utf-8") as f:
        for op in ops:
            code, out, err, cpu = run_one(cli, op["args"], op["text"])
            codes.append(code)
            digests.append(digest(out))
            cpu_s.append(cpu)
            f.write(json.dumps([out, err]) + "\n")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
        result["restored"] = tracer.restored()
        result["layers"] = tracer.metrics(ops, codes)
        tracer.write(args.trace)

    pinned = json.loads(Path(args.digests).read_text("utf-8"))[header["workload"]] if args.digests else None
    failures = []
    with spill.open(encoding="utf-8") as f:
        for k, (op, code, line) in enumerate(zip(ops, codes, f)):
            out, err = json.loads(line)
            expected = None if pinned is None else (pinned[k] if k < len(pinned) else "missing")
            reason = check(documents, op, code, out, err, expected)
            if reason is not None:
                failures.append([k, reason])
    spill.unlink()
    result.update(
        done=len(codes),
        latencies_s=cpu_s,
        codes=codes,
        peak_rss_mb=peak_rss_mb,
        failures=failures,
        output_digests=digests,
        tracing_loaded="tracing" in sys.modules,
    )
    Path(args.out).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
