"""Compare two source trees on the benchmark corpora, pass against pass.

    python3 tests/compare_trees.py OTHER_CHECKOUT [--seeds 0 3]
        [--workload NAME] [--rounds R]

Writes the corpus of the workload for each seed with this checkout's
perfbench/corpus.py (in a child process, into a temporary directory).  Then
each round runs one cold pass per tree, each in a fresh interpreter that
imports toricfans from that tree's ``src/``, loads the corpus's warm-up
documents (which compiles their kinds' schema checkers) and replays every
operation of the corpus in process through ``toricfans.cli.main``, as
perfbench/timed.py does.  The two trees take turns going first.  A pass
reports its process CPU time over the replay loop alone (set-up excluded,
as timed.py leaves it out of the latencies), its set-up CPU time, timed as
timed.py times setup_s (from before ``import toricfans.cli`` until the
warm-up documents are loaded), and one sha256 over (exit code, stdout,
stderr) of its operations, hashed as tests/replay_hash.py hashes them.

Prints, per seed, each round's replay and set-up CPU times and their
ratios OTHER / THIS (above 1 means this checkout is faster), how many
rounds each tree won and the median ratio, for the replay and for set-up,
and both trees' replay hashes; the last line is one JSON object with the
same numbers.  Exits 1 when the two trees' replies differ, or a tree's
replies differ between rounds.  Passing ``.`` as OTHER_CHECKOUT compares
the tree with itself: the ratio should then read near 1.00.  Timing on a
shared machine drifts, so the pairing is the point: both passes of a round
run back to back.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_pass(src: str, corpus: str) -> dict:
    """Replay a corpus with the package under src; replay and set-up CPU
    times and the reply hash."""
    import hashlib

    from replay_hash import corpus_ops, replay

    sys.path.insert(0, src)
    setup = time.process_time()
    from toricfans import cli, documents

    ops = corpus_ops(Path(corpus))
    with open(corpus, encoding="utf-8") as f:
        for text in json.loads(f.readline())["warmup"]:
            documents.loads(text)
    setup = time.process_time() - setup
    if Path(cli.__file__).resolve().parent != Path(src).resolve() / "toricfans":
        raise SystemExit(f"imported {cli.__file__}, not the package under {src}")
    digest = hashlib.sha256()
    cpu = time.process_time()
    replies = [replay(cli.main, args, text) for args, text in ops]
    cpu = time.process_time() - cpu
    for code, out, err in replies:
        digest.update(json.dumps([str(code), out, err]).encode("utf-8"))
    return {"cpu_s": cpu, "setup_s": setup, "operations": len(ops), "sha256": digest.hexdigest()}


def run_pass(src: Path, corpus: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, __file__, "--pass", str(src), str(corpus)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def paired(this_s: list[float], other_s: list[float], prefix: str = "") -> dict:
    """Per-round ratios OTHER / THIS of paired times, each side's wins and the median."""
    ratios = [o / t for t, o in zip(this_s, other_s)]
    return {
        f"{prefix}ratios": [round(x, 4) for x in ratios],
        f"{prefix}this_s": [round(x, 4) for x in this_s],
        f"{prefix}other_s": [round(x, 4) for x in other_s],
        f"{prefix}this_wins": sum(x > 1 for x in ratios),
        f"{prefix}other_wins": sum(x < 1 for x in ratios),
        f"{prefix}median_ratio": round(statistics.median(ratios), 4),
    }


def compare(this: Path, other: Path, corpus: Path, rounds: int) -> dict:
    times = {"this": [], "other": []}
    setups = {"this": [], "other": []}
    hashes = {"this": set(), "other": set()}
    for r in range(rounds):
        order = ("this", "other") if r % 2 == 0 else ("other", "this")
        for side in order:
            result = run_pass(this if side == "this" else other, corpus)
            times[side].append(result["cpu_s"])
            setups[side].append(result["setup_s"])
            hashes[side].add(result["sha256"])
        ratio = times["other"][-1] / times["this"][-1]
        setup_ratio = setups["other"][-1] / setups["this"][-1]
        print(f"  round {r + 1:2}: this {times['this'][-1]:.4f} s, other {times['other'][-1]:.4f} s,"
              f" other/this {ratio:.3f}; set-up this {setups['this'][-1] * 1e3:.1f} ms,"
              f" other {setups['other'][-1] * 1e3:.1f} ms, other/this {setup_ratio:.3f}")
    return {
        "operations": result["operations"],
        **paired(times["this"], times["other"]),
        **paired(setups["this"], setups["other"], "setup_"),
        "this_sha256": sorted(hashes["this"]),
        "other_sha256": sorted(hashes["other"]),
    }


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--pass"]:
        print(json.dumps(one_pass(*sys.argv[2:4])))
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("other", metavar="OTHER_CHECKOUT")
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--workload", default="diagram-pipeline")
    p.add_argument("--rounds", type=int, default=20)
    args = p.parse_args(argv)

    this, other = ROOT / "src", Path(args.other).resolve() / "src"
    if not (other / "toricfans").is_dir():
        raise SystemExit(f"no toricfans package under {other}")
    print(f"this: {this}\nother: {other}\nworkload: {args.workload}")
    report, same = {"workload": args.workload, "seeds": {}}, True
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            corpus = Path(tmp) / f"{args.workload}-{seed}.txt"
            subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "corpus.py"),
                 "--workload", args.workload, "--seed", str(seed), "--out", str(corpus)],
                check=True,
            )
            print(f"seed {seed}:")
            s = report["seeds"][seed] = compare(this, other, corpus, args.rounds)
            print(f"  operations: {s['operations']}")
            for what, p in (("replay", ""), ("set-up", "setup_")):
                print(f"  {what}: this faster in {s[p + 'this_wins']} of {args.rounds} rounds,"
                      f" other in {s[p + 'other_wins']}; median other/this {s[p + 'median_ratio']:.3f}")
            print(f"  sha256 this: {' '.join(s['this_sha256'])}")
            print(f"  sha256 other: {' '.join(s['other_sha256'])}")
            same = same and len(s["this_sha256"]) == 1 and s["this_sha256"] == s["other_sha256"]
    print(json.dumps(report))
    if not same:
        print("the two trees' replies differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
