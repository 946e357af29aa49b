"""The benchmark's own tests: tiny-config smoke runs and failure accounting.

    python3 -m pytest -q perfbench

These are not part of the package's test suite (``tests/``); they check
the benchmark code itself on smoke-test sizes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import bootstrap  # noqa: E402

bootstrap.import_ttlstm()
import workloads  # noqa: E402

COMMON_CHECKS = {
    "load_model(save_model(m)) is bitwise m",
    "NLL repeats bitwise across passes/calls",
    "wx apply == reconstruct(train) @ x",
    "wh apply == reconstruct(train) @ x",
    "nll is finite",
    "nll == recorded reference",
}
LOOP_CHECK = {"eval": "eval loop NLL == training.evaluate",
              "train": "evaluate(valid) == EpochStats.valid_nll"}
TRACE_CHECKS = {
    "training replay == train_model",
    "wx counted build == cost_model.build_ops",
    "wh counted build == cost_model.build_ops",
    "nn.wx_madds == rows x cost_model.matvec_ops",
    "nn.wh_madds == rows x cost_model.matvec_ops",
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_and_runs_every_check(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "0.3",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, \
        proc.stdout
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric in spec:
        assert any(line.startswith(f"{metric['name']} = ") and f" {metric['unit']}" in line
                   for line in lines), metric["name"]
    ran = {line[len("check ok   "):].rsplit(":", 1)[0] for line in lines
           if line.startswith("check ")}
    want = COMMON_CHECKS | {LOOP_CHECK[workloads.WORKLOADS[name].kind]}
    assert ran == (want | TRACE_CHECKS if trace else want)


def test_all_runs_every_workload_in_turn():
    proc = _run(ROOT, "--workload", "all", "--seed", "1", "--seconds", "0.2", "--tiny")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    headers = [line.split()[1] for line in proc.stdout.splitlines()
               if line.startswith("perfbench workload=")]
    assert headers == [f"workload={name}" for name in workloads.WORKLOADS]
    assert [r["correct"] for r in results] == [True] * len(workloads.WORKLOADS)


@pytest.mark.parametrize("corruption", ["nan", "shift"])
def test_corrupted_logit_counts_as_failed_window(monkeypatch, corruption):
    real = workloads.forward_lm
    calls = {"n": 0}

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 3:     # the second window of the first timed pass
            out.logits[0, 0, 0] = np.nan if corruption == "nan" else out.logits[0, 0, 0] + 1.0
        return out

    monkeypatch.setattr(workloads, "forward_lm", corrupted)
    outcome = workloads.run_workload(workloads.TINY["eval-desk-mpo"], seed=1, seconds=0.2,
                                     trace=False)
    assert 1 <= outcome.failed < outcome.attempted


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "eval-desk-mpo", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
