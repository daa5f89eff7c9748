"""netcontrol benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep|table|descent|all --seed N \\
        --seconds S --trace 0|1

One client sends requests in a closed loop, each after the previous one
returned.  The run repeats passes over the workload, each in a fresh
interpreter, until S seconds of passes have been spent and at least five
passes have run, and reports medians over the passes.  --trace 0 reports
the end-to-end metrics; --trace 1 alternates untraced and traced passes, at
least three of each, and reports the per-layer metrics, the request times
of the untraced passes and the tracing overhead.  Every answer is checked;
see perfbench/README.md.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The program is imported from src/ of the
checkout; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_METRICS, LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOAD_NAMES = ("sweep", "table", "descent")
MIN_ROUNDS = {0: 5, 1: 3}  # rounds of passes a run makes at least, by --trace
RUN_LIMIT_S = 150.0  # no pass starts after this much of a run has gone

END_TO_END = (("setup_s", "s"), ("requests_s", "s"), ("peak_rss_mb", "MB"))
OP_KINDS = ("curve", "mstar", "subset", "bench", "place_edcp", "place_elpgm", "verify")
PER_LAYER = (*((f"op.{kind}_s", "s") for kind in OP_KINDS), ("trace.overhead_s", "s"), *LAYER_METRICS)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(args, workdir: Path, trace_out: Path | None, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), "--scale", args.scale]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"a pass of {args.workload} ran past {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def measure(args) -> dict:
    """Rounds of passes until args.seconds have gone and MIN_ROUNDS have run; medians over the passes."""
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    modes = (None, trace_out) if args.trace else (None,)
    started = time.perf_counter()
    passes: list[tuple[bool, dict]] = []
    rounds = 0
    try:
        while True:
            for mode in modes:
                passes.append((mode is not None, spawn(args, workdir, mode,
                                                       RUN_LIMIT_S + 25 - (time.perf_counter() - started))))
            rounds += 1
            spent = time.perf_counter() - started
            if (spent >= args.seconds and rounds >= MIN_ROUNDS[args.trace]) or spent + spent / rounds > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [res for traced, res in passes if not traced]
    traced = [res for is_traced, res in passes if is_traced]
    metrics = {
        "setup_s": statistics.median(res["setup_s"] for res in plain),
        "requests_s": statistics.median(res["requests_s"] for res in plain),
        "peak_rss_mb": max(res["rss_mb"] for res in plain),
    }
    if args.trace:
        for kind in OP_KINDS:
            metrics[f"op.{kind}_s"] = statistics.median(res["op_s"].get(kind, 0.0) for res in plain)
        metrics["trace.overhead_s"] = (statistics.median(res["requests_s"] for res in traced)
                                       - metrics["requests_s"])
        for name, _ in LAYER_METRICS:
            values = [res["layers"][name] for res in traced]
            if name in EXACT_METRICS and len(set(values)) > 1:
                print(f"warning: count {name} differs between traced passes: {values}", file=sys.stderr)
            metrics[name] = statistics.median(values)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    problems = sorted({p for _, res in passes for p in res["problems"]})
    return {
        "correct": all(res["correct"] for _, res in passes),
        "attempted": sum(res["attempted"] for _, res in passes),
        "failed": sum(res["failed"] for _, res in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "passes": len(passes),
        "problems": problems,
    }


def report(workload: str, result: dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    ratio = result["failed"] / result["attempted"]
    print(f"[{workload}] passes={result['passes']} attempted={result['attempted']} "
          f"failed={result['failed']} fail_ratio={ratio:.4f} correct={str(result['correct']).lower()}")
    for problem in result["problems"]:
        print(f"[{workload}]   failed: {problem}")
    for name, metric in result["metrics"].items():
        print(f"[{workload}] {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="problem sizes; tiny is for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "netcontrol" / "__init__.py").is_file():
        print(f"run.py: no netcontrol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"# nproc={os.cpu_count()} cpu={cpu_model()!r} blas_threads={blas_threads()} "
          f"python={platform.python_version()}")
    OUT.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(argparse.Namespace(**{**vars(args), "workload": name}))
            report(name, results[name])
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    final = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps({key: final[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
