"""Each workload end to end at a tiny size, and the command's failure mode."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_tiny_and_reports_every_metric(workload, tmp_path):
    plain = run.run(workload, 5, 2, False, tmp_path / "plain", time.perf_counter(),
                    workloads.TINY)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
        assert plain["metrics"][m["name"]]["value"] > 0.0

    traced = run.run(workload, 5, 2, True, tmp_path / "traced", time.perf_counter(),
                     workloads.TINY)
    assert traced["correct"] and traced["failed"] == 0
    assert traced["attempted"] == plain["attempted"]
    assert traced["info"]["counts"] == plain["info"]["counts"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (tmp_path / "traced" / "spans.json.gz").stat().st_size > 0
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layer["autodiff.matmul.calls"] > 0
    if workload == "pretrain":
        assert layer["training.xmlm.forward_ms"] > 0 and layer["training.dae.backward_ms"] > 0
        assert layer["noising.build_xmlm_ms"] > 0
        assert 0.0 < layer["autodiff.useful_grad_share"] < 1.0
        assert layer["generation.beam_search_samples"] == 0.0
    else:
        assert layer["generation.beam_search_samples"] == plain["info"]["counts"]["decoded"]
        assert 0.0 < layer["generation.useful_position_share"] <= 1.0
    if workload == "translate":
        assert layer["cli.generate_ms"] > layer["cli.generate_outside_beam_ms"] > 0
        assert layer["generation.output_tokens"] == plain["info"]["counts"]["output_tokens"]


def test_same_seed_same_work(tmp_path):
    a = run.run("translate", 2, 1, False, tmp_path / "a", time.perf_counter(), workloads.TINY)
    b = run.run("translate", 2, 1, False, tmp_path / "b", time.perf_counter(), workloads.TINY)
    assert a["info"]["counts"] == b["info"]["counts"]
    for name in ("out_la_full.jsonl", "out_lb_restricted.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "pretrain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
