"""The rxnparse benchmark: one command per workload and seed.

    python3 bench/run.py --workload parse-small --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from the seed, measures set-up in fresh
processes, drives the closed loop in a fresh worker process, checks the
outputs against ground truth, prints every metric by name and unit, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` a separate traced run gives the per-layer ones.

Everything is read and written inside the checkout: inputs under
``.bench/work`` (removed afterwards) and span files under ``.bench/trace``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference_hashes.json"

# fresh processes that time set-up; one more is discarded first as warm-up
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 160


def _load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _probe_setup(inputs: Path, scratch: Path) -> list[float]:
    samples = []
    for i in range(SETUP_PROBES + 1):
        result = scratch / f"setup-{i}.json"
        subprocess.run([sys.executable, str(WORKER), "--inputs", str(inputs), "--result", str(result),
                        "--setup-only"], check=True, timeout=60, cwd=ROOT)
        if i:
            samples.append(json.loads(result.read_text(encoding="utf-8"))["setup_s"])
    return samples


def _score_parse(index: dict, outputs: dict) -> tuple[dict, list[str]]:
    """Score parse outputs against ground truth; returns (F1 by criterion, problems)."""
    from rxnparse.evaluation import CorpusDocument, report_table, score_corpus
    from rxnparse.reactions import ResponseFormatError, boxed_reactions_from_json

    from gen import ROLES

    problems = []
    gt_docs, pred_docs = [], []
    for entry in index["documents"]:
        name = entry["name"]
        text = outputs.get(name, "")
        try:
            found = boxed_reactions_from_json(text)
        except ResponseFormatError as exc:
            problems.append(f"{name}: output is not a reaction array ({exc})")
            found = []
        # every output box must be one of the document's own detections
        detection = json.loads((index["root"] / entry["detection"]).read_text(encoding="utf-8"))
        known = {(e["label"], tuple(e["bbox"])) for e in detection["entities"]}
        boxes = [item for reaction in (json.loads(text) if found else []) for role in ROLES for item in reaction[role]]
        problems += [f"{name}: output box {item} is not a detection"
                     for item in boxes if (item["label"], tuple(item["bbox"])) not in known]
        layout = entry["layout"]
        gt_docs.append(CorpusDocument(name, tuple(boxed_reactions_from_json(json.dumps(entry["gt"]))), layout))
        pred_docs.append(CorpusDocument(name, tuple(found), layout))
    reports = [score_corpus(gt_docs, pred_docs, c) for c in ("hard", "soft")]
    print(report_table(reports))
    return {r.criterion: r.f1 for r in reports}, problems


def _score_eval(index: dict, outputs: dict) -> tuple[dict, list[str]]:
    """Corpus report summed from the per-document reports; matched counts must be the constructed ones.

    Summing the reports the loop already produced, rather than scoring the
    corpus again, keeps a run from paying for a second pass.
    """
    from rxnparse.evaluation import MatchReport, report_table

    overall = {c: [0, 0, 0] for c in ("hard", "soft")}  # criterion -> [gt, pred, matched]
    by_layout: dict = {}  # (criterion, layout) -> [gt, pred, matched]
    for entry in index["documents"]:
        for report in json.loads(outputs[entry["name"]]):
            c = report["criterion"]
            counts = [report["counts"][k] for k in ("gt", "pred", "matched")]
            for bucket in (overall[c], by_layout.setdefault((c, entry["layout"]), [0, 0, 0])):
                bucket[:] = [x + y for x, y in zip(bucket, counts)]

    def prf(gt, pred, matched):
        precision, recall = matched / pred, matched / gt
        return precision, recall, 2 * precision * recall / (precision + recall) if matched else 0.0

    reports, problems = [], []
    for c, (gt, pred, matched) in overall.items():
        per_layout = {
            layout: (*prf(*bucket), dict(zip(("gt", "pred", "matched"), bucket)))
            for (criterion, layout), bucket in sorted(by_layout.items())
            if criterion == c
        }
        reports.append(MatchReport(c, *prf(gt, pred, matched), (), gt, pred, matched, per_layout))
        expected = sum(e["expected_matched"][c] for e in index["documents"])
        if matched != expected:
            problems.append(f"{c}: corpus matched {matched}, constructed {expected}")
    print(report_table(reports))
    return {r.criterion: r.f1 for r in reports}, problems


def _hash_status(workload: str, seed: int, digest: str) -> str:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    expected = reference.get(workload, {}).get(str(seed))
    if expected is None:
        return "no reference for this seed"
    return "unchanged from reference" if expected == digest else f"CHANGED from reference {expected}"


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import gen

    benchmark = _load_benchmark()
    work = ROOT / ".bench" / "work" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    try:
        index = gen.generate(workload, inputs, seed)
        print(f"workload {workload} seed {seed}: " + json.dumps(index["properties"], sort_keys=True))
        setup = _probe_setup(inputs, work)
        trace_dir = ROOT / ".bench" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        result_path = work / "result.json"
        command = [sys.executable, str(WORKER), "--inputs", str(inputs), "--result", str(result_path),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace:
            command += ["--spans", str(trace_dir / f"{workload}.spans.jsonl")]
        subprocess.run(command, check=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        index["root"] = inputs
        score = _score_parse if index["kind"] == "parse" else _score_eval
        f1, problems = score(index, result["outputs"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup.append(result["setup_s"])
    failed = len(result["failed"])
    problems += [f"{name}: failed" for name in sorted(set(result["failed"]))]
    problems += [f"{name}: output changed between passes" for name in result["nondeterministic"]]
    latency = result["latency"]
    print(f"outputs sha256 {result['outputs_sha256']} ({_hash_status(workload, seed, result['outputs_sha256'])})")
    print(f"closed loop, 1 caller: {result['attempted']} documents in {result['wall_s']:.2f} s; "
          f"latency ms p25 {latency['p25']:.3f} p50 {latency['p50']:.3f} p75 {latency['p75']:.3f} "
          f"p90 {latency['p90']:.3f} over {latency['samples']} samples")
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup))

    if trace:
        values = result["layers"]
        declared = benchmark["per_layer"]
        print(f"tracing overhead: traced p50 {result['traced_latency']['p50']:.3f} ms minus untraced "
              f"p50 {latency['p50']:.3f} ms = {values['trace.overhead_ms']:.3f} ms")
        if index["kind"] == "parse":
            heavy = ("spatial.build_ms", "spatial.propagate_ms", "hypotheses.collect_ms", "hypotheses.prompt_ms",
                     "inference.infer_ms")
            share = sum(values[k] for k in heavy) / values["trace.doc_ms"]
            print(f"spatial.*, hypotheses.* and inference.infer_ms: {100 * share:.1f}% of document time")
    else:
        # failed_frac is reported as its complement so the metric is never 0
        values = {
            "setup_s": statistics.median(setup),
            "docs_per_s": result["attempted"] / result["wall_s"],
            "doc_ms_p50": latency["p50"],
            "doc_ms_p90": latency["p90"],
            "hard_f1": f1["hard"],
            "soft_f1": f1["soft"],
            "ok_frac": 1.0 - failed / result["attempted"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        declared = benchmark["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        share = ""
        if trace and metric["unit"] == "ms" and values["trace.doc_ms"]:
            share = f"  {100 * metric['value'] / values['trace.doc_ms']:5.1f}% of document time"
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']:<6}{share}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    summary = {"correct": not problems, "attempted": result["attempted"], "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rxnparse" / "__init__.py").is_file():
        print(f"error: no rxnparse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [w["name"] for w in _load_benchmark()["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
