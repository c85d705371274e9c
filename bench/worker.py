"""One measured process: set up the program, then drive a closed loop.

Started fresh by ``run.py`` so that set-up time and peak memory belong
to this process alone. A single caller sends the next document only
after the previous one returned. Passes over the document set repeat
until at least ``--seconds`` have elapsed and at least ``MIN_SAMPLES``
documents ran, always ending on a whole pass so every document weighs
the same in every run.

Usage: python3 bench/worker.py --inputs DIR --result FILE [--setup-only]
       [--seconds S] [--trace 0|1] [--spans FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# enough documents that at least ten latencies lie above p90
MIN_SAMPLES = 100


class ParseRunner:
    """One ``rxnparse parse`` call per document, as the CLI makes it."""

    kind = "parse"

    def __init__(self, inputs: Path):
        from rxnparse import pipeline

        self.inputs = inputs
        self.config = pipeline.PipelineConfig(fixtures_dir=str(inputs / "fixtures"), output_dir=str(inputs / "out"))
        pipeline.load_pipeline_lexicon(self.config)
        pipeline.load_pipeline_weights(self.config)
        self.client = pipeline.make_client(self.config)

    def process(self, entry):
        from rxnparse import pipeline

        return pipeline.run_batch([self.inputs / entry["detection"]], self.config, self.client)

    def check(self, entry, manifest) -> tuple[bool, bytes]:
        if manifest.documents[0].status != "ok":
            return False, b""
        return True, (Path(self.config.output_dir) / f"{entry['name']}.reactions.json").read_bytes()


class EvalRunner:
    """Reaction loading plus ``score_corpus`` under both criteria, per document."""

    kind = "eval"
    client = None

    def __init__(self, inputs: Path):
        import rxnparse  # noqa: F401  (the harness loads with the package)

        self.inputs = inputs

    def _load(self, entry, key):
        from rxnparse import evaluation, reactions

        text = (self.inputs / entry[key]).read_text(encoding="utf-8")
        found = reactions.boxed_reactions_from_json(text)
        return evaluation.CorpusDocument(entry["name"], tuple(found), entry["layout"])

    def process(self, entry):
        from rxnparse import evaluation

        gt, pred = self._load(entry, "gt"), self._load(entry, "pred")
        return [evaluation.score_corpus([gt], [pred], c) for c in ("hard", "soft")]

    def check(self, entry, reports) -> tuple[bool, bytes]:
        ok = {r.criterion: r.matched for r in reports} == entry["expected_matched"]
        return ok, json.dumps([r.to_dict() for r in reports], sort_keys=True).encode("utf-8")


def closed_loop(docs, runner, seconds: float, min_samples: int, outputs: dict, tracer=None):
    """Whole passes until ``seconds`` and ``min_samples``.

    Only ``runner.process`` is timed (and, when traced, spanned as the
    document); checking its result happens between documents. Returns
    the latencies, the wall time, failed documents and documents whose
    output differs from the one ``outputs`` holds for them.
    """
    process = runner.process if tracer is None else tracer.wrap("document", runner.process)
    latencies, failed, changed = [], [], []
    started = time.perf_counter()
    while True:
        for entry in docs:
            name = entry["name"]
            if tracer is not None:
                tracer.doc = name
            begun = time.perf_counter()
            result = process(entry)
            latencies.append(time.perf_counter() - begun)
            ok, data = runner.check(entry, result)
            if not ok:
                failed.append(name)
            if outputs.setdefault(name, data) != data:
                changed.append(name)
        wall = time.perf_counter() - started
        if wall >= seconds and len(latencies) >= min_samples:
            return latencies, wall, failed, changed


def latency_summary(latencies) -> dict:
    ms = [1000.0 * x for x in latencies]
    quartiles = statistics.quantiles(ms, n=4, method="inclusive")
    return {
        "samples": len(ms),
        "p25": quartiles[0],
        "p50": statistics.median(ms),
        "p75": quartiles[2],
        "p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }


def outputs_hash(outputs: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(outputs):
        digest.update(name.encode("utf-8") + b"\0" + outputs[name] + b"\0")
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    index = json.loads((args.inputs / "inputs.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    started = time.perf_counter()
    runner = (ParseRunner if index["kind"] == "parse" else EvalRunner)(args.inputs)
    result = {"setup_s": time.perf_counter() - started}
    if args.setup_only:
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return 0

    docs = index["documents"]
    outputs: dict = {}
    if not args.trace:
        latencies, wall, failed, changed = closed_loop(docs, runner, args.seconds, MIN_SAMPLES, outputs)
        attempted = len(latencies)
    else:
        from tracing import Tracer, TraceError, installed

        # untraced half first, for the overhead and the output comparison
        latencies, wall, failed, changed = closed_loop(docs, runner, args.seconds / 2, 1, outputs)
        traced_outputs: dict = {}
        tracer = Tracer(runner.kind)
        with installed(tracer, runner.client):
            traced, _, traced_failed, traced_changed = closed_loop(
                docs, runner, args.seconds / 2, 1, traced_outputs, tracer
            )
        tracer.check_complete([d["name"] for d in docs])
        differ = sorted(n for n in outputs if traced_outputs.get(n) != outputs[n])
        if differ:
            raise TraceError(f"traced outputs differ from untraced ones for {differ}")
        if args.spans:
            tracer.write(args.spans)
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_ms"] = latency_summary(traced)["p50"] - latency_summary(latencies)["p50"]
        result["layers"] = layers
        result["traced_latency"] = latency_summary(traced)
        failed += traced_failed
        changed += traced_changed
        attempted = len(latencies) + len(traced)

    result.update({
        "attempted": attempted,
        "failed": failed,
        "nondeterministic": sorted(set(changed)),
        "wall_s": wall,
        "latency": latency_summary(latencies),
        "outputs": {name: data.decode("utf-8") for name, data in outputs.items()},
        "outputs_sha256": outputs_hash(outputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
