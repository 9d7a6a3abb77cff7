"""One hash over every reply of the benchmark corpora, to show that a change
leaves the program's output byte for byte as it was.

    python3 tests/replay_hash.py [--seeds 0 3] [--workloads NAME ...] [--expect HEX]

Writes the corpus of each workload and seed with perfbench/corpus.py (in a
child process, into a temporary directory), replays each operation in this
process through ``toricfans.cli.main`` with the document on stdin, and
prints the operation count and one sha256 over (exit code, stdout, stderr)
of all of them, in corpus order.  Run it in two checkouts and compare the
lines, or pass the other checkout's sha256 as ``--expect``: the script then
exits 1 when the hashes differ.

It measures the ``src/`` of the checkout it sits in, and prints that path.
It parses the corpus itself instead of importing perfbench/timed.py, which
puts its own checkout's ``src/`` first on ``sys.path``.  Pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("diagram-pipeline", "cone-ladder", "small-docs")


def corpus_ops(path: Path) -> list[tuple[list[str], str]]:
    """(command line, document text) per operation of a corpus file: a header
    line, then per operation a JSON line with "args" and "chars" followed by
    that many characters of document."""
    data = path.read_text("utf-8")
    pos = data.index("\n") + 1
    ops = []
    while pos < len(data):
        end = data.index("\n", pos)
        meta = json.loads(data[pos:end])
        pos = end + 1 + meta["chars"]
        ops.append((meta["args"], data[end + 1 : pos]))
    return ops


def replay(main, args: list[str], text: str) -> tuple[object, str, str]:
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        try:
            code = main(args)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # a traceback is part of what is compared
            code = f"raised {type(exc).__name__}: {exc}"
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--expect", metavar="HEX", help="exit 1 unless the sha256 is this one")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from toricfans import cli

    if Path(cli.__file__).resolve().parent != SRC / "toricfans":
        raise SystemExit(f"imported {cli.__file__}, not the package under {SRC}")
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workloads:
            for seed in args.seeds:
                path = Path(tmp) / f"{workload}-{seed}.txt"
                subprocess.run(
                    [sys.executable, str(ROOT / "perfbench" / "corpus.py"),
                     "--workload", workload, "--seed", str(seed), "--out", str(path)],
                    check=True,
                )
                for op_args, text in corpus_ops(path):
                    code, out, err = replay(cli.main, op_args, text)
                    digest.update(json.dumps([str(code), out, err]).encode("utf-8"))
                    count += 1
    print(f"src: {SRC}")
    print(f"operations: {count}")
    print(f"sha256: {digest.hexdigest()}")
    if args.expect is not None and digest.hexdigest() != args.expect.lower():
        print(f"expected sha256: {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
