"""Self-check of the toricfans benchmark.

    python3 perfbench/selfcheck.py

Checks, and exits 1 if any fails:
- the corpus generator writes the same bytes twice for one seed, in two
  separate processes, for every workload;
- toricfans.cli.main writes identical bytes and exit codes with tracing on
  and off, on the first documents of every corpus;
- after the traced run every wrapped name holds its original object again,
  in every toricfans module that imported it.
"""

from __future__ import annotations

import filecmp
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SEED = 7
DOCS_PER_WORKLOAD = 12

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import timed  # noqa: E402
import tracing  # noqa: E402
from corpus import WORKLOADS  # noqa: E402


def generate_twice(workload: str) -> tuple[Path, bool]:
    paths = [WORK / f"selfcheck-{workload}-{k}.corpus" for k in (0, 1)]
    for path in paths:
        subprocess.run(
            [sys.executable, str(HERE / "corpus.py"), "--workload", workload, "--seed", str(SEED),
             "--out", str(path)],
            cwd=ROOT, check=True, timeout=170,
        )
    same = filecmp.cmp(paths[0], paths[1], shallow=False)
    paths[1].unlink()
    return paths[0], same


def main() -> int:
    import toricfans.cli as cli

    WORK.mkdir(exist_ok=True)
    problems = []
    ops = []
    for workload in WORKLOADS:
        path, same = generate_twice(workload)
        if not same:
            problems.append(f"{workload}: seed {SEED} gave different corpus bytes in two runs")
        ops += timed.read_corpus(path)[1][:DOCS_PER_WORKLOAD]
        path.unlink()

    plain = [timed.run_one(cli, op["args"], op["text"])[:3] for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [timed.run_one(cli, op["args"], op["text"])[:3] for op in ops]
    finally:
        tracer.uninstall()
    for k, (a, b) in enumerate(zip(plain, traced)):
        if a != b:
            problems.append(f"document {k} ({' '.join(ops[k]['args'])}): reply differs with tracing on")
    if not tracer.restored():
        problems.append("a wrapped name was not restored")
    if len(tracer.start) == 0:
        problems.append("the traced run recorded no spans")

    for line in problems:
        print(f"FAILED {line}")
    print(
        f"selfcheck: {len(WORKLOADS)} corpora generated twice, {len(ops)} documents run with "
        f"tracing on and off, {len(tracer.originals)} wrapped names restored: "
        f"{'FAILED' if problems else 'ok'}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
