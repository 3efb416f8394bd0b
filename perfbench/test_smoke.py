"""Smoke test for the benchmark: every workload at a tiny size, both modes.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import tracing  # noqa: E402


def _run(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _info(proc: subprocess.CompletedProcess, tag: str) -> dict:
    for line in proc.stdout.splitlines():
        if line.startswith(tag + ": "):
            return json.loads(line[len(tag) + 2:])
    raise AssertionError(f"no {tag} line")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = _run(ROOT, workload, 0)
    metrics = _result(proc)["metrics"]
    assert {m: (v["unit"]) for m, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    run = _info(proc, "run")
    assert run["failed_frac"] == 0.0
    # Same seed, same inputs, same outputs.
    assert _info(_run(ROOT, workload, 0), "run")["digest"] == run["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_self_times(workload):
    proc = _run(ROOT, workload, 1)
    metrics = _result(proc)["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    info = _info(proc, "trace")
    assert info["absent_hooks"] == [] and info["absent_layers"] == []
    spans = json.loads((ROOT / info["spans_file"]).read_text())["spans"]
    own = tracing.self_times(spans)
    assert min(own) >= -1e-9
    solves = {}
    for span, t in zip(spans, own):
        if span[tracing.SOLVE] >= 0:
            solves.setdefault(span[tracing.SOLVE], []).append(t)
    roots = [s for s in spans if s[tracing.NAME] == "solve"]
    assert len(roots) == len(solves) > 0
    for root in roots:
        duration = root[tracing.END] - root[tracing.START]
        assert sum(solves[root[tracing.SOLVE]]) <= duration + 1e-9
    per_solve_self = sum(v["value"] for m, v in metrics.items() if m.endswith(".self_s"))
    assert per_solve_self <= metrics["trace.solve_s.mean"]["value"] + 1e-9


def test_hooks_are_restored():
    import interlace.descent
    import interlace.mixedchar

    before = interlace.descent.expected_product_poly, vars(interlace.mixedchar.SubsetTable)["build"]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert interlace.descent.expected_product_poly is not before[0]
            raise RuntimeError
    assert (interlace.descent.expected_product_poly, vars(interlace.mixedchar.SubsetTable)["build"]) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
