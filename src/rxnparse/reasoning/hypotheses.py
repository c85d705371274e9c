"""Hypothesis graph: directed, typed reaction relations from a VLM.

Each entity cluster is sent independently to the reaction-combiner
agent along with a JSON rendering of its local subgraph. The agent
answers in the reaction wire format; each answered reaction is unpacked
into typed edges (reactant->arrow, arrow->product, reactant->condition,
condition->product, and reactant->product when no arrow is present)
with the response-supplied confidence, defaulting to 1.0. Edges that
name entities outside their own cluster are dropped with a warning. A
malformed response spoils only its own cluster; agent transport errors
propagate.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from ..agents import AgentClient
from ..entities import ReactionDocument
from ..reactions import REPLY_ERRORS, Reaction, parse_combiner_response
from ..config import ReasoningConfig
from .relations import EdgeRelation

log = logging.getLogger(__name__)

COMBINER_ROLE = "reaction_combiner"

# a cluster graph above this many bytes (about 128k tokens at four bytes a token) is logged
# as likely to overflow a VLM context; the prompt is still sent
PROMPT_WARN_BYTES = 512 * 1024

# the head of one proximity edge of the cluster graph, keys in sorted order; target and weight follow
_PROXIMITY_SOURCE = '{"relation": %d, "source": ' % EdgeRelation.NO_EDGE


@dataclass(frozen=True)
class HypothesisEdge:
    source: str
    target: str
    relation: EdgeRelation
    confidence: float = 1.0


@dataclass(frozen=True)
class HypothesisGraph:
    """Directed typed edges from every cluster's reply, with the replies' warnings."""

    edges: tuple[HypothesisEdge, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        for edge in self.edges:
            if edge.relation == EdgeRelation.NO_EDGE:
                raise ValueError("hypothesis edges must carry a real relation")


def cluster_prompt_variables(cluster, doc: ReactionDocument, config: ReasoningConfig) -> dict:
    """Deterministic prompt variables for one cluster.

    The subgraph JSON lists the cluster's entities and their proximity
    links (weight = 1 - normalized distance, from the document's distance
    matrix), which is all the evidence available before fusion: a pair
    closer than ``tau_cluster`` that is a kNN link of the spatial graph, so
    n entities list at most ``k_nn * n`` edges. The JSON is written as the
    bytes ``json.dumps({"nodes": ..., "edges": [...]}, sort_keys=True)``
    gives: the table's sorted-key node of each entity, and each proximity
    pair from its source, target and weight, keys in sorted order.
    """
    ids = list(cluster)
    table = doc.table
    at = [table.position[i] for i in ids]
    local = np.full(len(table.ids), -1)
    local[at] = np.arange(len(at))  # each document row's place in the cluster
    a, b = table.knn_links(config.k_nn)
    close = table.distances[a, b]
    inside = (local[a] >= 0) & (local[b] >= 0) & (close < config.tau_cluster)
    ends, close = np.sort([local[a][inside], local[b][inside]], axis=0), close[inside]
    order = np.lexsort(ends[::-1])  # row-major over the cluster's order
    weights = (1.0 - close[order]).tolist()
    # grid layouts repeat distances, so each distinct weight is rounded and written once
    written = {w: repr(round(w, 6)) for w in set(weights)}
    quoted = list(map(encode_basestring_ascii, ids))  # json.dumps of a str
    edges = ", ".join(
        f'{_PROXIMITY_SOURCE}{quoted[i]}, "target": {quoted[j]}, "weight": {written[w]}}}'
        for i, j, w in zip(*ends[:, order].tolist(), weights)
    )
    nodes = ", ".join(table.nodes[p] for p in at)
    return {"graph_json": '{"edges": [' + edges + '], "nodes": [' + nodes + "]}"}


def edges_from_reactions(reactions, cluster) -> tuple[list[HypothesisEdge], list[str]]:
    """Unpack combiner reactions into typed edges, dropping cross-cluster ones."""
    members = set(cluster)
    edges: list[HypothesisEdge] = []
    warnings: list[str] = []

    def add(source: str, target: str, relation: EdgeRelation, confidence: float) -> None:
        if source not in members or target not in members:
            warnings.append(
                f"dropped {relation.name} edge {source}->{target}: outside cluster"
            )
            return
        edges.append(HypothesisEdge(source, target, relation, confidence))

    for reaction in reactions:
        conf = reaction.score
        if reaction.arrows:
            for arrow in reaction.arrows:
                for reactant in reaction.reactants:
                    add(reactant, arrow, EdgeRelation.REACTANT_TO_ARROW, conf)
                for product in reaction.products:
                    add(arrow, product, EdgeRelation.ARROW_TO_PRODUCT, conf)
        else:
            for reactant in reaction.reactants:
                for product in reaction.products:
                    add(reactant, product, EdgeRelation.REACTANT_TO_PRODUCT, conf)
        for condition in reaction.conditions:
            for reactant in reaction.reactants:
                add(reactant, condition, EdgeRelation.REACTANT_TO_COND, conf)
            for product in reaction.products:
                add(condition, product, EdgeRelation.COND_TO_PRODUCT, conf)
    return edges, warnings


def collect_hypotheses(
    clusters,
    client: AgentClient,
    doc: ReactionDocument,
    config: ReasoningConfig,
    max_workers: int = 1,
) -> HypothesisGraph:
    """Query the combiner agent per cluster and merge typed edges.

    Results merge in cluster order regardless of worker count, so
    concurrency never changes the output.
    """
    table = doc.table  # held for the loop, so every cluster reads the one table

    def run_cluster(cluster) -> tuple[list[HypothesisEdge], list[str]]:
        variables = cluster_prompt_variables(cluster, doc, config)
        size = len(variables["graph_json"])  # ASCII: one byte per character
        if size > PROMPT_WARN_BYTES:
            log.warning(
                "cluster %s...: graph_json of %d entities is %d bytes, above %d",
                cluster[0], len(cluster), size, PROMPT_WARN_BYTES,
            )
        raw = client.request(COMBINER_ROLE, variables)
        try:
            reactions: list[Reaction] = parse_combiner_response(raw, doc)
        except REPLY_ERRORS as exc:
            message = f"cluster {cluster[0]}...: discarded response ({exc})"
            log.warning(message)
            return [], [message]
        return edges_from_reactions(reactions, cluster)

    if max_workers > 1 and len(clusters) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(run_cluster, clusters))
    else:
        results = [run_cluster(c) for c in clusters]

    edges: list[HypothesisEdge] = []
    warnings: list[str] = []
    for cluster_edges, cluster_warnings in results:
        edges.extend(cluster_edges)
        warnings.extend(cluster_warnings)
    return HypothesisGraph(edges=tuple(edges), warnings=tuple(warnings))
