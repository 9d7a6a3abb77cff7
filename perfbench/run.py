"""toricfans benchmark: CLI documents end to end, each layer timed from outside.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --pin      # re-pin output digests at the default seed

Run from the root of a source checkout; the program is imported from src/.
For each workload a separate process generates the seeded corpus
(corpus.py), a fixed number of operations per workload, and five fresh
processes time set-up alone.  Then trials run with tracing off until
--seconds are used: a trial is five fresh processes (timed.py), each
running every operation of the corpus in the same order and checking every
reply.  In a trial a document's latency is its least CPU time over the
five passes; each metric is the median over the trials.  With --trace 1
one untraced pass runs, and another fresh process replays the same
documents with tracing on (tracing.py), which gives the per-layer metrics
and the tracing overhead.

Prints one line per metric with its unit and context, and as the last line
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics, or the per-layer ones with --trace 1.  With --workload
all each metric name is prefixed by its workload.  Exits 2 without a
result when the program's sources are missing or a step fails.  See
README.md for why each workload exists and which layer metric should move
which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "toricfans"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("diagram-pipeline", "cone-ladder", "small-docs")
DEFAULT_SEED = 0
SETUP_PROBES = 5
PASSES = 5  # per trial
RUN_BUDGET_S = 170  # per workload
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_docs_per_s", "docs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)
LAYER_UNITS = dict(metric_names())


class StepFailed(Exception):
    pass


def step(args: list[str], deadline: float) -> None:
    """Run one benchmark process to completion, killing it at the deadline;
    it inherits no open state."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise StepFailed(f"{args[0]} took longer than {exc.timeout} s") from None
    if proc.returncode != 0:
        raise StepFailed(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")


def timed(deadline: float, corpus: Path, out: Path, *extra: str) -> dict:
    step([str(HERE / "timed.py"), "--corpus", str(corpus), "--out", str(out), *extra], deadline)
    result = json.loads(out.read_text("utf-8"))
    out.unlink()
    return result


def source_lines() -> dict[str, int]:
    counts = {p.stem: len(p.read_text("utf-8").splitlines()) for p in sorted(SRC.glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def generate(workload: str, seed: int, deadline: float) -> Path:
    corpus = WORK / f"{workload}-{seed}-{os.getpid()}.corpus"
    step([str(HERE / "corpus.py"), "--workload", workload, "--seed", str(seed), "--out", str(corpus)], deadline)
    return corpus


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond it.
    The corpus size is fixed per workload, so this is too."""
    return min(99, 100 - -(-1000 // n))


def latency_metrics(lat: list[float], p: int) -> dict[str, float]:
    return {
        "throughput_docs_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": statistics.quantiles(lat, n=100)[p - 1] * 1e3,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    corpus = generate(workload, seed, deadline)
    tag = f"{workload}-{seed}-{os.getpid()}"
    extra = ["--digests", str(HERE / "digests.json")] if seed == DEFAULT_SEED else []
    setups = [
        timed(deadline, corpus, WORK / f"setup-{tag}-{k}.json", "--setup-only")["setup_s"]
        for k in range(SETUP_PROBES)
    ]

    def run_pass(*more: str) -> dict:
        return timed(deadline, corpus, WORK / f"pass-{tag}.json", *extra, *more)

    # Every pass is a fresh process that runs the same documents in the same
    # order from the same cold state, so a document meets the same program
    # state in each.  Trials of PASSES passes repeat while another fits in
    # --seconds; there is always at least one.
    trials = []
    t0 = time.monotonic()
    while True:
        trials.append([run_pass() for _ in range(1 if trace else PASSES)])
        used = time.monotonic() - t0
        if trace or used + used / len(trials) > seconds:
            break
    runs = [r for t in trials for r in t]
    first = runs[0]
    n = first["done"]
    setups += [r["setup_s"] for r in runs]
    # each failed (pass, operation) once: the gate's reason, else a
    # difference from the first pass
    failures = {(k, j): why for k, r in enumerate(runs) for j, why in r["failures"]}
    for k, r in enumerate(runs[1:], 1):
        for j, (a, b) in enumerate(zip(first["output_digests"], r["output_digests"])):
            if a != b:
                failures.setdefault((k, j), "output differs from pass 0")
    problems = ["an untraced pass loaded the tracing module"] if any(r["tracing_loaded"] for r in runs) else []
    attempted = n * len(runs)
    layers = None
    if trace:
        spans = WORK / f"spans-{workload}-{seed}.bin"
        traced = run_pass("--trace", str(spans))
        k = len(runs)
        attempted += traced["done"]
        failures.update({(k, j): why for j, why in traced["failures"]})
        for j, (a, b) in enumerate(zip(first["output_digests"], traced["output_digests"])):
            if a != b:
                failures.setdefault((k, j), "output differs from the untraced run")
        if not traced["restored"]:
            problems.append("a wrapped name was not restored after the traced run")
        layers = traced["layers"]
        layers["trace.overhead_ratio"] = sum(first["latencies_s"]) / sum(traced["latencies_s"])
    corpus.unlink()

    p = tail_percentile(n)
    lats = [[min(xs) for xs in zip(*(r["latencies_s"] for r in t))] for t in trials]
    per_trial = [latency_metrics(lat, p) for lat in lats]
    metrics = {
        "setup_s": statistics.median(setups),
        **{name: statistics.median(m[name] for m in per_trial) for name in per_trial[0]},
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ok_frac": 1 - len(failures) / attempted,
    }
    return {
        "workload": workload,
        "seed": seed,
        "operations": n,
        "trials": len(trials),
        "passes": len(runs),
        "exit_codes": [first["codes"].count(c) for c in (0, 1, 2)],
        "setup_samples": len(setups),
        "tail_percentile": p,
        "beyond_tail": sum(x * 1e3 > per_trial[0]["latency_tail_ms"] for x in lats[0]),
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"pass {k} op {j}: {why}" for (k, j), why in sorted(failures.items())],
        "problems": problems,
        "metrics": metrics,
        "layers": layers,
    }


def report(r: dict, trace: bool) -> None:
    m = r["metrics"]
    print(
        f"== {r['workload']} seed {r['seed']}: {r['operations']} operations "
        f"(exit 0/1/2: {'/'.join(map(str, r['exit_codes']))}), {r['passes']} passes in "
        f"{r['trials']} trials, closed loop, 1 client, 1 thread"
    )
    print(f"setup_s {m['setup_s']:.4f} s (median of {r['setup_samples']} fresh processes)")
    print(f"throughput_docs_per_s {m['throughput_docs_per_s']:.3f} docs/s")
    print(f"latency_p50_ms {m['latency_p50_ms']:.3f} ms ({r['operations']} samples)")
    print(
        f"latency_tail_ms {m['latency_tail_ms']:.3f} ms "
        f"(p{r['tail_percentile']}, {r['beyond_tail']} of {r['operations']} samples beyond)"
    )
    print(f"peak_rss_mb {m['peak_rss_mb']:.1f} MB")
    print(f"failed_frac {r['failed'] / r['attempted']:.4f} ratio ({r['failed']} of {r['attempted']})")
    print(f"ok_frac {m['ok_frac']:.4f} ratio")
    for line in r["failures"][:20] + r["problems"]:
        print(f"FAILED {line}")
    if trace:
        for name, value in r["layers"].items():
            print(f"{name} {value:.6g} {LAYER_UNITS[name]}")


def context() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": source_lines(),
    }


def pin() -> int:
    """Run every default-seed corpus to the end and store its output digests."""
    pins = {}
    for workload in WORKLOADS:
        deadline = time.monotonic() + 3600
        corpus = generate(workload, DEFAULT_SEED, deadline)
        result = timed(deadline, corpus, WORK / f"pin-{os.getpid()}.json")
        corpus.unlink()
        if result["failures"]:
            print(f"{workload}: {result['failures'][:5]}", file=sys.stderr)
            return 1
        pins[workload] = result["output_digests"]
        print(f"{workload}: pinned {len(pins[workload])} digests")
    (HERE / "digests.json").write_text(json.dumps(pins, indent=0) + "\n", "utf-8")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true", help=pin.__doc__)
    args = p.parse_args(argv)
    if args.workload is None and not args.pin:
        p.error("--workload is required")
    if not (SRC / "cli.py").is_file():
        print(f"error: no toricfans sources under {SRC.parent}; run from a source checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # on SIGTERM, unwind so subprocess.run kills and reaps the running step
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.pin:
            return pin()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ctx = context()
    print(
        f"context: Python {ctx['python']}, nproc {ctx['nproc']}, "
        f"src/toricfans lines {ctx['src_lines']}"
    )
    metrics = {}
    for r in results:
        report(r, bool(args.trace))
        if args.trace:
            values = {n: {"value": v, "unit": LAYER_UNITS[n]} for n, v in r["layers"].items()}
        else:
            values = {n: {"value": r["metrics"][n], "unit": u} for n, u in END_TO_END}
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        metrics.update({prefix + n: v for n, v in values.items()})
        record = dict(r, context=ctx, seconds=args.seconds, trace=args.trace)
        (WORK / f"result-{r['workload']}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), "utf-8"
        )
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(not r["failures"] and not r["problems"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
