"""The benchmark's own tests: deterministic counts and artifact hashes repeat
exactly between two runs with the same seed, the traced self times add up,
and the runner refuses a directory without the library.

    python3 -m pytest -q perfbench/test_repeat.py

Each workload runs twice with tracing on (about two minutes in all on a
2-core machine), so the tier-1 suite, which collects only `tests/`, leaves
these out.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5


def _run(cwd: Path, workload: str, seed: int = SEED, trace: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _deterministic(record: dict) -> list:
    keys = ("attempted", "failed", "delivered", "csv_sha256", "artifact_bytes", "calls", "counts")
    return [{k: rep.get(k) for k in keys} for rep in record["repetitions"]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_and_hashes_repeat(workload):
    records, results = [], []
    for _ in range(2):
        proc = _run(ROOT, workload)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
        records.append(json.loads((OUT / f"{workload}-seed{SEED}-trace1.json").read_text()))
    first, second = results
    assert first["correct"] and first["failed"] == 0
    assert second["correct"] and second["failed"] == 0
    assert _deterministic(records[0]) == _deterministic(records[1])
    exact = [n for n, unit in per_layer_names() if unit in ("count", "bytes")]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}

    metrics = {k: v["value"] for k, v in first["metrics"].items()}
    rep = records[0]["repetitions"][records[0]["spans"]["repetition"]]
    self_total = sum(row[2] for row in rep["functions"].values())
    assert self_total + metrics["trace.uncovered_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["trace.uncovered_s"] >= 0
    if workload == "predict-two-phase":
        assert metrics["zeros.find_zeros_region.calls"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "predict-two-phase", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
