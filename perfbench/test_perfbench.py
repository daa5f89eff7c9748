"""Self-tests of the benchmark at a tiny problem size.

Run from the root of a checkout: python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(_run("--workload", workload, "--seed", "5", "--seconds", "1",
                          "--trace", str(trace), "--scale", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_what_the_code_emits():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def _pass(workload: str, tmp_path: Path, **kwargs) -> dict:
    return worker.run_pass(workload, 5, tmp_path, scale="tiny", **kwargs)


def test_clean_tiny_pass_has_no_failures(tmp_path):
    result = _pass("sweep", tmp_path)
    assert result["correct"] and result["failed"] == 0, result["problems"]
    assert result["attempted"] == 6


def test_injected_wrong_mstar_is_a_failure(tmp_path, monkeypatch):
    import netcontrol.pathcover as pathcover

    real = pathcover.min_controllers_for
    monkeypatch.setattr(pathcover, "min_controllers_for", lambda g, r: (real(g, r)[0] + 1, real(g, r)[1]))
    result = _pass("sweep", tmp_path)
    assert not result["correct"]
    assert result["failed"] == 2  # one M* answer per graph
    assert all("mstar" in p and "wrong" in p for p in result["problems"])


def test_injected_pin_mismatch_is_a_failure(tmp_path, monkeypatch):
    # M* 14 keeps the probe at ceil(14/2) = 7, the probe of the true M* 13
    monkeypatch.setitem(workloads.PINS, "er-60-4-0", {"checksum": "0" * 16, "mstar": 14, "rmax_probe": 1})
    result = _pass("sweep", tmp_path)
    assert not result["correct"]
    assert result["failed"] == 3  # curve, M* and rmax of the pinned graph


def test_injected_refusal_is_a_failure(tmp_path, monkeypatch):
    import netcontrol.cli as cli
    from netcontrol import CoverInfeasibleError

    def refuse(*_args, **_kwargs):
        raise CoverInfeasibleError("injected")

    monkeypatch.setattr(cli, "edcp", refuse)
    result = _pass("descent", tmp_path)
    assert result["failed"] >= 2  # the refused placement and the verify that needs it
    assert any("place edcp" in p for p in result["problems"])


def test_refusal_check_follows_the_flow():
    from netcontrol import generate_er

    for seed, status in ((2, "ok"), (3, "ok"), (4, "refused")):
        assert workloads.refusal_status(generate_er(25, 2.5, seed), 4, 18).startswith(status)


def test_traced_counts_repeat_exactly(tmp_path):
    runs = []
    for i in range(2):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", "table", "--seed", "5",
             "--workdir", str(tmp_path / str(i)), "--scale", "tiny", "--trace-out", str(tmp_path / f"t{i}")],
            capture_output=True, text=True, timeout=170,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["layers"])
    assert {k: runs[0][k] for k in tracing.EXACT_METRICS} == {k: runs[1][k] for k in tracing.EXACT_METRICS}
    assert runs[0]["lti.chain_control_cost_misses"] > 0
    spans = [json.loads(line) for line in (tmp_path / "t0").read_text().splitlines()]
    assert {s["name"] for s in spans} >= {"request.bench", "edcp.reduce_drivers", "lti.chain_control_cost"}


def test_tracer_restores_the_program(tmp_path):
    edcp = importlib.import_module("netcontrol.edcp")  # the package attribute `edcp` is the function
    flow = importlib.import_module("netcontrol.flow")
    before = (edcp.merge_cycles, edcp.chain_control_cost, flow.SufficiencySolver.__init__)
    tr = tracing.Tracer()
    tr.install()
    assert edcp.merge_cycles is not before[0]
    tr.uninstall()
    assert (edcp.merge_cycles, edcp.chain_control_cost, flow.SufficiencySolver.__init__) == before


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
