"""Tests of the benchmark itself: work counts, tracer wiring, result format.

    python -m pytest -q perfbench

Each workload is set up and run for one traced and two untraced rounds, about
a minute in all.
"""
from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _round(name: str, seed: int, traced: bool = False):
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    t = tracer.Tracer()
    if traced:
        with t.installed():
            _, output = run.run_round(workload)
    else:
        _, output = run.run_round(workload)
    return workload, output, t.spans


def _targets():
    """Current value of every attribute the tracer patches."""
    found = {}
    for module_name, cls_name, attr, _ in tracer.TARGETS:
        module = importlib.import_module(f"quakeroute.{module_name}")
        owner = getattr(module, cls_name) if cls_name else module
        found[(module_name, cls_name, attr)] = (
            owner.__dict__[attr] if cls_name else getattr(owner, attr))
    return found


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def rounds(request):
    name = request.param
    originals = _targets()
    traced = _round(name, 1, traced=True)
    restored = _targets()
    untraced = _round(name, 1)
    other_seed = _round(name, 2)
    return {"name": name, "originals": originals, "restored": restored,
            "traced": traced, "untraced": untraced, "other_seed": other_seed}


def test_work_counts_repeat_for_a_seed_and_change_with_it(rounds):
    w1, out1, _ = rounds["traced"]
    w2, out2, _ = rounds["untraced"]
    w3, out3, _ = rounds["other_seed"]
    counts = w1.work_counts(out1)
    assert counts and w2.work_counts(out2) == counts
    assert all(name in run.PER_LAYER for name in counts)
    if rounds["name"] == "diagnostics":
        # draw and realization counts are fixed sizes; the seed moves the draws
        assert w3.work_counts(out3) == counts
        assert not workloads.same(w3.fingerprint(out3), w1.fingerprint(out1))
    else:
        assert w3.work_counts(out3) != counts
    assert workloads.same(w1.fingerprint(out1), w2.fingerprint(out2))


def test_checks_pass_on_every_round(rounds):
    for key in ("traced", "untraced", "other_seed"):
        workload, output, _ = rounds[key]
        failed = [name for name, ok in workload.checks(output) if not ok]
        assert failed == []


def test_tracer_restores_originals_and_untraced_runs_record_nothing(rounds):
    assert rounds["restored"] == rounds["originals"]
    assert all(not hasattr(fn, "__wrapped__") for fn in rounds["originals"].values())
    assert rounds["traced"][2]
    assert rounds["untraced"][2] == [] and rounds["other_seed"][2] == []


def test_trace_confirms_stress_and_bypass_design(rounds):
    name = rounds["name"]
    spans = rounds["traced"][2]
    stats = tracer.layer_stats(spans)
    top = max(stats, key=lambda k: stats[k].self_ns)
    kernel = {"qsim.expectations", "qsim.grad"}
    if name == "train-8x8":
        assert top == "qsim.grad"
    elif name == "rollout-8x8":
        assert top == "qsim.expectations"
        assert stats["hybrid.forward"].rows == stats["hybrid.forward"].calls
        decisions = tracer.child_count(spans, "dyngraph.advance", "hybrid.rollout")
        w, out, _ = rounds["traced"]
        assert decisions == w.work_counts(out)["work.model_decisions"]
    else:
        assert not kernel & stats.keys()
    if name == "diagnostics":
        assert not {"oracle.nodewise_dijkstra", "dyngraph.advance"} & stats.keys()


def test_self_time_subtracts_direct_children():
    spans = [tracer.Span("a", 0, 100, -1, 1), tracer.Span("b", 10, 40, 0, 8),
             tracer.Span("c", 15, 25, 1, 1), tracer.Span("b", 50, 60, 0, 2)]
    stats = tracer.layer_stats(spans)
    assert (stats["a"].total_ns, stats["a"].self_ns) == (100, 60)
    assert (stats["b"].calls, stats["b"].rows, stats["b"].self_ns) == (2, 10, 30)
    assert stats["c"].self_ns == 10
    assert tracer.child_count(spans, "c", "b") == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_cli_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagnostics",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagnostics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
