"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    gen.generate(workload, tmp_path / "a", 7)
    gen.generate(workload, tmp_path / "b", 7)
    gen.generate(workload, tmp_path / "c", 8)
    first = _tree_bytes(tmp_path / "a")
    assert first == _tree_bytes(tmp_path / "b")
    assert first != _tree_bytes(tmp_path / "c")


def test_eval_counts_known_by_construction_match_the_harness(tmp_path):
    from rxnparse.evaluation import score
    from rxnparse.reactions import boxed_reactions_from_json

    index = gen.generate("eval-corpus", tmp_path, 3)
    for entry in index["documents"]:
        if entry["gt_count"] > 40:
            continue
        gt = boxed_reactions_from_json((tmp_path / entry["gt"]).read_text(encoding="utf-8"))
        pred = boxed_reactions_from_json((tmp_path / entry["pred"]).read_text(encoding="utf-8"))
        for criterion, expected in entry["expected_matched"].items():
            assert score(gt, pred, criterion).matched == expected


def test_layer_metrics_are_the_declared_per_layer_metrics():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "parse-small", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def _traced_parse_run(tmp_path, bypass=None):
    from rxnparse import pipeline

    index = gen.generate("parse-small", tmp_path, 1)
    runner = worker.ParseRunner(tmp_path)
    docs = index["documents"][:4]
    tracer = tracing.Tracer("parse")
    with tracing.installed(tracer, runner.client):
        if bypass is not None:
            setattr(pipeline, bypass, getattr(pipeline, bypass).__wrapped__)
        worker.closed_loop(docs, runner, 0.0, 1, {}, tracer)
    return tracer, [d["name"] for d in docs]


def test_span_check_passes_when_every_layer_is_wrapped(tmp_path):
    tracer, names = _traced_parse_run(tmp_path)
    tracer.check_complete(names)
    metrics = tracer.layer_metrics(len(names))
    assert metrics["spatial.edges"] > 0 and metrics["agents.calls"] >= 1


@pytest.mark.parametrize("bypassed", ["propagate", "reactions_to_json"])
def test_span_check_fires_when_a_wrapped_function_is_bypassed(tmp_path, bypassed):
    tracer, names = _traced_parse_run(tmp_path, bypass=bypassed)
    with pytest.raises(tracing.TraceError, match=bypassed):
        tracer.check_complete(names)


def test_fails_without_result_in_a_directory_holding_only_the_benchmark(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", "parse-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
