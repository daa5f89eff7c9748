"""One pass of a workload, run in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload W --seed S --workdir DIR
       [--scale full|tiny] [--trace-out FILE]

A pass times its set-up (importing netcontrol, then generating and writing
the seeded graphs), then sends the workload's requests one after another,
each only after the previous one returned, and times each.  With
--trace-out the requests run under the tracer and the spans are written to
FILE.  After the last request the tracer is removed and the peak resident
memory is read; only then is every answer checked, so neither the checks'
time nor their memory is counted.  The pass prints one JSON object as its
last line of output.

A fresh interpreter per pass keeps process-wide caches (such as the
lru_cache on lti.chain_control_cost) cold, as every CLI invocation sees them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    import netcontrol

    if SRC not in Path(netcontrol.__file__).resolve().parents:
        raise ImportError(f"netcontrol was imported from {netcontrol.__file__}, not from {SRC}")
    return netcontrol


def run_pass(workload: str, seed: int, workdir: Path, scale: str = "full",
             trace_out: Path | None = None) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    _import_program()
    import workloads

    setup, make_ops = workloads.WORKLOADS[workload]
    inputs = setup(seed, workdir, workloads.SIZES[scale][workload])
    setup_s = time.perf_counter() - start

    ops = make_ops(inputs)
    tracer = None
    if trace_out is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    op_s: dict[str, float] = defaultdict(float)
    outcomes = []
    try:
        for op in ops:
            begin = time.perf_counter()
            try:
                outcome = tracer.run_request(op.kind, op.label, op.call) if tracer else op.call()
            except Exception as exc:  # a failed request is counted, and the pass goes on
                outcome = exc
            op_s[op.kind] += time.perf_counter() - begin
            outcomes.append(outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    statuses: list[tuple[str, str]] = []
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, Exception):
            statuses += [(op.label, f"error: {outcome!r}")] * op.size
            continue
        try:
            statuses += op.check(outcome)
        except Exception as exc:  # an output the check cannot read is a wrong answer
            statuses += [(op.label, f"wrong: unreadable output ({exc!r})")] * op.size
    problems = [f"{label}: {status}" for label, status in statuses if status != "ok"]
    result = dict(
        setup_s=setup_s,
        requests_s=sum(op_s.values()),
        op_s=dict(op_s),
        rss_mb=rss_mb,
        attempted=len(statuses),
        failed=len(problems),
        correct=not any(status.startswith("wrong") for _, status in statuses),
        problems=problems,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(trace_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.workdir, args.scale, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
