"""Per-layer tracing from outside the program.

The tracer replaces the layer entry points that ``rxnparse.pipeline``
and ``rxnparse.evaluation`` look up at call time with timing wrappers,
so the real ``run_batch`` / ``score_corpus`` orchestration runs
unchanged. Each call records one span (name, start, end, parent span,
document id) in memory; counts are taken from the call's arguments and
result after the span has ended, so counting never shows in span time.
The evaluation predicate runs tens of thousands of times per document,
so it is timed and counted in place rather than recorded as spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# names rxnparse.pipeline calls, each one layer's public entry point
PIPELINE_SPANS = (
    "load_document",
    "extract_features",
    "route",
    "build_spatial_graph",
    "propagate",
    "build_chem_graph",
    "cluster_entities",
    "collect_hypotheses",
    "fuse",
    "infer_reactions",
    "post_process",
    "reactions_to_json",
)
PROMPT_SPAN = "cluster_prompt_variables"
AGENT_SPAN = "agent.request"
DOCUMENT_SPAN = "document"
COUNT_SPAN = "trace.count"
EVAL_SPANS = ("boxed_reactions_from_json", "score_corpus", "score")

REQUIRED = {
    "parse": PIPELINE_SPANS + (PROMPT_SPAN, AGENT_SPAN),
    "eval": EVAL_SPANS,
}

# span name -> per-layer time metric (self time, summed per document)
SELF_TIME = {
    "load_document": "entities.load_ms",
    "extract_features": "planner.plan_ms",
    "route": "planner.plan_ms",
    "build_spatial_graph": "spatial.build_ms",
    "propagate": "spatial.propagate_ms",
    "build_chem_graph": "chemgraph.build_ms",
    "cluster_entities": "clustering.cluster_ms",
    "collect_hypotheses": "hypotheses.collect_ms",
    PROMPT_SPAN: "hypotheses.prompt_ms",
    AGENT_SPAN: "agents.request_ms",
    "fuse": "fusion.fuse_ms",
    "infer_reactions": "inference.infer_ms",
    "post_process": "postprocess.post_ms",
    "reactions_to_json": "reactions.emit_ms",
    "boxed_reactions_from_json": "evaluation.load_ms",
}

LAYER_METRICS = {
    "entities.load_ms": "ms", "entities.entities": "count", "entities.molecules": "count",
    "planner.plan_ms": "ms",
    "spatial.build_ms": "ms", "spatial.edges": "count", "spatial.propagate_ms": "ms", "spatial.messages": "count",
    "chemgraph.build_ms": "ms", "chemgraph.pairs": "count", "chemgraph.edges": "count",
    "clustering.cluster_ms": "ms", "clustering.clusters": "count", "clustering.largest": "count",
    "hypotheses.collect_ms": "ms", "hypotheses.prompt_ms": "ms", "hypotheses.edges": "count",
    "hypotheses.dropped": "count",
    "agents.request_ms": "ms", "agents.calls": "count", "agents.prompt_bytes": "bytes", "agents.failed": "count",
    "fusion.fuse_ms": "ms", "fusion.candidates": "count", "fusion.kept": "count", "fusion.keep_ratio": "ratio",
    "inference.infer_ms": "ms", "inference.components": "count", "inference.largest_component": "count",
    "inference.exhaustive_components": "count",
    "postprocess.post_ms": "ms", "postprocess.reactions_in": "count", "postprocess.reactions_out": "count",
    "postprocess.unbalanced": "count",
    "reactions.emit_ms": "ms", "reactions.bytes": "bytes",
    "pipeline.self_ms": "ms",
    "evaluation.load_ms": "ms", "evaluation.score_ms": "ms", "evaluation.predicate_ms": "ms",
    "evaluation.match_ms": "ms", "evaluation.pairs": "count", "evaluation.compatible_pairs": "count",
    "evaluation.matched": "count",
    "trace.doc_ms": "ms", "trace.overhead_ms": "ms",
}


class TraceError(RuntimeError):
    """A traced run lost spans or changed the program's outputs."""


class Tracer:
    """In-memory span recorder plus per-document counters."""

    def __init__(self, kind: str):
        self.kind = kind  # "parse" or "eval"
        self.spans: list = []  # (name, start, end, parent index, doc)
        self.counts: dict = defaultdict(float)
        self.predicate_seconds = 0.0
        self.doc: str | None = None  # id of the document running now, set by the caller
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``count(tracer, args, result)`` runs after it."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == AGENT_SPAN:
                    self.counts["agents.failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.doc)
            if count is not None:
                # counting is recorded as a span of its own, so no layer's self time includes it
                started = time.perf_counter()
                count(self, args, result)
                self.spans.append((COUNT_SPAN, started, time.perf_counter(), parent, self.doc))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_predicate(self, fn):
        def timed(pred, gt, threshold=0.5, polygon=True):
            start = time.perf_counter()
            result = fn(pred, gt, threshold, polygon)
            self.predicate_seconds += time.perf_counter() - start
            self.counts["evaluation.compatible_pairs"] += result
            return result

        return timed

    # --- after the run ---------------------------------------------------

    def check_complete(self, doc_ids) -> None:
        """Raise when any document lacks a span its layers must produce."""
        seen = defaultdict(set)
        for name, _, _, _, doc in self.spans:
            seen[doc].add(name)
        for doc in doc_ids:
            missing = [n for n in REQUIRED[self.kind] + (DOCUMENT_SPAN,) if n not in seen[doc]]
            if missing:
                raise TraceError(f"document {doc}: no span for {', '.join(missing)}")

    def layer_metrics(self, documents: int) -> dict:
        """Per-document self times (ms) and counts over all traced documents."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = end - start - child[i]
            if name == COUNT_SPAN:
                totals["trace.doc_ms"] -= end - start
            elif name == DOCUMENT_SPAN:
                totals["trace.doc_ms"] += end - start
                if self.kind == "parse":
                    totals["pipeline.self_ms"] += own
            elif name == "score":
                totals["evaluation.score_ms"] += end - start
            elif name in SELF_TIME:
                totals[SELF_TIME[name]] += own
        totals["evaluation.predicate_ms"] = self.predicate_seconds
        totals["evaluation.match_ms"] = totals["evaluation.score_ms"] - self.predicate_seconds
        metrics = {
            name: 1000.0 * totals[name] / documents if unit == "ms" else self.counts[name] / documents
            for name, unit in LAYER_METRICS.items()
        }
        candidates = self.counts["fusion.candidates"]
        metrics["fusion.keep_ratio"] = self.counts["fusion.kept"] / candidates if candidates else 0.0
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, doc in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "doc": doc}) + "\n")


# --- counters, run after each span --------------------------------------


def _add(tracer, values):
    for key, value in values.items():
        tracer.counts[key] += value


def _count_load(tracer, args, doc):
    _add(tracer, {"entities.entities": len(doc.entities),
                    "entities.molecules": sum(e.molecule is not None for e in doc.entities)})


def _count_spatial(tracer, args, graph):
    _add(tracer, {"spatial.edges": len(graph.edges)})


def _count_propagate(tracer, args, graph):
    _add(tracer, {"spatial.messages": 2 * len(graph.edges) * graph.weights.layers})


def _count_chem(tracer, args, chem):
    from rxnparse.entities import EntityKind

    m = len(args[0].by_kind(EntityKind.MOLECULE))
    _add(tracer, {"chemgraph.pairs": m * (m - 1) // 2, "chemgraph.edges": len(chem.scores)})


def _count_clusters(tracer, args, clusters):
    _add(tracer, {"clustering.clusters": len(clusters),
                    "clustering.largest": max((len(c) for c in clusters), default=0)})


def _count_hypotheses(tracer, args, graph):
    dropped = sum(w.startswith("dropped") for w in graph.warnings)
    _add(tracer, {"hypotheses.edges": len(graph.edges), "hypotheses.dropped": dropped})


def _count_fuse(tracer, args, fused):
    spatial, chem, hypotheses = args[0], args[1], args[2]
    typed = {(min(e.source, e.target), max(e.source, e.target)) for e in hypotheses.edges}
    structural = (set(spatial.score_by_ids()) | set(chem.scores)) - typed
    _add(tracer, {"fusion.candidates": len(hypotheses.edges) + len(structural),
                    "fusion.kept": len(fused.edges)})


def _count_infer(tracer, args, reactions):
    from rxnparse.entities import EntityKind
    from rxnparse.reasoning import connected_components

    fused, doc, config = args[0], args[1], args[2]
    components = connected_components(fused)
    exhaustive = sum(
        1 for c in components
        if len(c) <= config.exact_search_limit and any(doc.entity(e).kind == EntityKind.ARROW for e in c)
    )
    _add(tracer, {"inference.components": len(components),
                    "inference.largest_component": max((len(c) for c in components), default=0),
                    "inference.exhaustive_components": exhaustive})


def _count_post(tracer, args, reactions):
    from rxnparse.reactions import Conservation

    unbalanced = sum(r.conservation == Conservation.UNBALANCED for r in reactions)
    _add(tracer, {"postprocess.reactions_in": len(args[0]), "postprocess.reactions_out": len(reactions),
                    "postprocess.unbalanced": unbalanced})


def _count_emit(tracer, args, text):
    _add(tracer, {"reactions.bytes": len(text.encode("utf-8"))})


def _count_score(tracer, args, report):
    _add(tracer, {"evaluation.pairs": report.gt_count * report.pred_count,
                    "evaluation.matched": report.matched})


_PIPELINE_COUNTERS = {
    "load_document": _count_load,
    "build_spatial_graph": _count_spatial,
    "propagate": _count_propagate,
    "build_chem_graph": _count_chem,
    "cluster_entities": _count_clusters,
    "collect_hypotheses": _count_hypotheses,
    "fuse": _count_fuse,
    "infer_reactions": _count_infer,
    "post_process": _count_post,
    "reactions_to_json": _count_emit,
}


@contextmanager
def installed(tracer: Tracer, client=None):
    """Wrap the entry points of the tracer's workload kind; restore them on exit."""
    from rxnparse import evaluation, pipeline, reactions
    from rxnparse.agents import render_template
    from rxnparse.reasoning import hypotheses

    patches = []  # (owner, name, original); owner is a module, dict or object

    def patch(owner, name, replacement):
        if isinstance(owner, dict):
            patches.append((owner, name, owner[name]))
            owner[name] = replacement
        else:
            patches.append((owner, name, getattr(owner, name)))
            setattr(owner, name, replacement)

    if tracer.kind == "parse":
        for name in PIPELINE_SPANS:
            patch(pipeline, name, tracer.wrap(name, getattr(pipeline, name), _PIPELINE_COUNTERS.get(name)))
        patch(hypotheses, PROMPT_SPAN, tracer.wrap(PROMPT_SPAN, hypotheses.cluster_prompt_variables))

        def count_request(tracer, args, response):
            prompt = render_template(client.templates[args[0]], args[1])
            _add(tracer, {"agents.calls": 1, "agents.prompt_bytes": len(prompt.encode("utf-8"))})

        patch(client, "request", tracer.wrap(AGENT_SPAN, client.request, count_request))
    else:
        patch(reactions, "boxed_reactions_from_json",
              tracer.wrap("boxed_reactions_from_json", reactions.boxed_reactions_from_json))
        patch(evaluation, "score_corpus", tracer.wrap("score_corpus", evaluation.score_corpus))
        patch(evaluation, "score", tracer.wrap("score", evaluation.score, _count_score))
        # score() dispatches the predicate through this table at call time
        for criterion in list(evaluation._CRITERIA):
            patch(evaluation._CRITERIA, criterion, tracer.wrap_predicate(evaluation._CRITERIA[criterion]))
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
