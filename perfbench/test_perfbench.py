"""The benchmark's own tests: every workload at the tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
from layers import PER_LAYER, TraceView, layer_metrics, not_called
from tracing import Tracer
from workloads import WORKLOADS, load_references

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert declared("per_layer") == dict(PER_LAYER)
    layers = {name.split(".")[0] for name, _ in PER_LAYER}
    assert {"scene_io", "geometry", "elements", "channel", "beamforming",
            "analysis", "cli", "trace"} == layers


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_passes_and_names_every_declared_metric(workload, trace):
    out = run.run(workload, seed=5, seconds=0, trace=trace, size="tiny")
    result = out["result"]
    assert out["report"]["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert metrics == declared("per_layer" if trace else "end_to_end")
    # a metric reads 0 exactly when its function is never called on the workload
    for name, entry in result["metrics"].items():
        expect_zero = trace and not_called(workload, name)
        assert (entry["value"] == 0) == expect_zero, (name, entry["value"])


def test_exact_counts_repeat_across_runs():
    counts = []
    for _ in range(2):
        metrics = run.run("search", seed=9, seconds=0, trace=True, size="tiny")["result"]["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".evaluations", ".artifact_bytes"))})
    assert counts[0] == counts[1]
    assert counts[0]["beamforming.exhaustive.evaluations"] == 4


def test_planted_wrong_reference_objective_fails_tasks():
    references = copy.deepcopy(load_references("tiny"))
    references["search"]["exhaustive"]["objective"] *= 1.0 + 1e-9
    out = run.run("search", seed=5, seconds=0, trace=False, size="tiny", references=references)
    assert out["report"]["end_to_end"]["failed_frac"]["value"] > 0
    assert not out["result"]["correct"]
    assert any("exhaustive: objective" in f for f in out["report"]["failures"])


def test_planted_wrong_coverage_reference_fails_tasks():
    references = copy.deepcopy(load_references("tiny"))
    lines = references["field"]["coverage"].decode().splitlines()
    x, y, value, side = lines[1].split(",")
    lines[1] = ",".join([x, y, repr(float(value) * 1.001), side])
    references["field"]["coverage"] = ("\n".join(lines) + "\n").encode()
    out = run.run("field", seed=5, seconds=0, trace=False, size="tiny", references=references)
    assert out["result"]["failed"] >= 1
    assert any("differ from the reference" in f for f in out["report"]["failures"])


def test_removed_public_name_is_reported_missing(monkeypatch):
    om = run.fresh_import()
    monkeypatch.delattr(om.beamforming, "relaxed_upper_bound")
    tracer = Tracer()
    tracer.install(om)
    try:
        assert tracer.missing == ["beamforming.relaxed_upper_bound"]
        metrics = layer_metrics(TraceView(tracer, [], {}), 0.0)
    finally:
        tracer.uninstall()
    assert metrics["beamforming.bound_s"] is None
    assert metrics["beamforming.exhaustive.search_s"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
