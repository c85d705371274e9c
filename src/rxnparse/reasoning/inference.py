"""Global reaction inference over the pruned fused graph.

Candidates are enumerated per connected component. Each fused edge is
put once in the bucket of its component (both ends share one), and the
affinities, the assignment, typed-condition attachment and the arrowless
fallback read only that bucket; affinities and the component's
condition edges are computed once per component. Inside a component,
every arrow seeds one candidate reaction, and each non-arrow entity may
support at most one arrow; the chosen ``{entity: arrow}`` assignment is
the one maximizing the summed fused scores of the edges it includes. Small
components are solved by exhaustive enumeration, larger ones greedily.
The objective is separable, so both reach the same rounded total, but
they can pick different assignments when two combinations tie on it
exactly: greedy takes each entity's first best arrow, while exhaustive
keeps the first combination, in product order, whose rounded total
equals the maximum. For ``{'a': {'x': 1.0, 'y': 0.2}, 'b': {'x': 0.3,
'y': nextafter(0.3, 1)}}`` both totals are 1.3, and exhaustive assigns
b to x where greedy assigns it to y.

Roles come from the typed edges where available and from geometry
otherwise: an untyped neighbour is projected onto the arrow's
tail-to-head axis; behind the tail means reactant, past the head means
product, and over the arrow span means condition. Condition entities
also attach through typed reactant->condition / condition->product
edges. Components with no arrow fall back to reactant->product
hypothesis edges alone. Every candidate is built by
:func:`~rxnparse.reactions.reaction_or_none`.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..config import ReasoningConfig
from ..entities import EntityKind, ReactionDocument
from ..geometry import axis_parameter, principal_axis
from ..reactions import Reaction, reaction_or_none
from .clustering import connected_groups
from .fusion import FusedEdge, FusedGraph
from .relations import EdgeRelation

def connected_components(fused: FusedGraph) -> list[list[str]]:
    """Components of the retained edge set, in reading order of first node."""
    index = {node: i for i, node in enumerate(fused.node_ids)}
    sources = [index[edge.source] for edge in fused.edges]
    targets = [index[edge.target] for edge in fused.edges]
    adjacency = np.zeros((len(index), len(index)), dtype=bool)
    adjacency[sources, targets] = adjacency[targets, sources] = True
    linked = adjacency.any(axis=1)
    return [
        sorted(fused.node_ids[i] for i in group)
        for group in connected_groups(adjacency)
        if linked[group[0]]  # a node without edges forms no component
    ]


def _arrow_affinities(component, edges, doc: ReactionDocument):
    """affinity[entity][arrow] = sum of fused scores between the two.

    ``edges`` are the fused edges inside ``component``.
    """
    arrows = sorted(e for e in component if doc.entity(e).kind == EntityKind.ARROW)
    arrow_set = set(arrows)
    affinity: dict[str, dict[str, float]] = {}
    edges_by_pair: dict[tuple[str, str], list[FusedEdge]] = {}
    for edge in edges:
        for entity, arrow in ((edge.source, edge.target), (edge.target, edge.source)):
            if arrow in arrow_set and entity not in arrow_set:
                affinity.setdefault(entity, {})
                affinity[entity][arrow] = affinity[entity].get(arrow, 0.0) + edge.score
                edges_by_pair.setdefault((entity, arrow), []).append(edge)
    return arrows, affinity, edges_by_pair


def _best_assignment(affinity, size: int, config: ReasoningConfig) -> dict:
    """``{entity: arrow}`` maximizing summed affinity for a component of ``size`` members.

    Exhaustive over the full assignment space when the component is
    within ``exact_search_limit``, keeping the first combination in
    product order whose rounded total is the largest; greedy otherwise,
    taking each entity's first best arrow. Their totals agree, but on an
    exact tie between rounded totals their assignments need not (see the
    module docstring).
    """
    entities = sorted(affinity)
    if not entities:
        return {}

    if size <= config.exact_search_limit:
        options = [sorted(affinity[e]) for e in entities]
        best: dict | None = None
        best_total = float("-inf")
        for combo in itertools.product(*options):
            total = sum(affinity[e][a] for e, a in zip(entities, combo))
            if total > best_total:
                best_total = total
                best = dict(zip(entities, combo))
        return best or {}

    assigned = {}
    for entity in entities:
        assigned[entity] = max(sorted(affinity[entity]), key=lambda a: affinity[entity][a])
    return assigned


def _role_for(entity_id: str, arrow_id: str, edges, doc: ReactionDocument) -> str:
    """reactant / product / condition for an entity supporting an arrow."""
    reactant_w = 0.0
    product_w = 0.0
    untyped = False
    for edge in edges:
        if edge.relation == EdgeRelation.REACTANT_TO_ARROW and edge.source == entity_id:
            reactant_w += edge.score
        elif edge.relation == EdgeRelation.ARROW_TO_PRODUCT and edge.target == entity_id:
            product_w += edge.score
        elif edge.relation == EdgeRelation.NO_EDGE:
            untyped = True
    if reactant_w > 0.0 or product_w > 0.0:
        return "reactant" if reactant_w >= product_w else "product"
    if untyped:
        arrow = doc.entity(arrow_id)
        tail, head = principal_axis(arrow.region)
        t = axis_parameter(doc.entity(entity_id).centroid, tail, head)
        if t < 0.0:
            return "reactant"
        if t > 1.0:
            return "product"
        return "condition"
    return "condition"


def infer_reactions(fused: FusedGraph, doc: ReactionDocument, config: ReasoningConfig) -> list[Reaction]:
    """Turn the fused graph into candidate reactions, one pass, deterministic.

    Each fused edge is bucketed once by its component (both ends share
    one), and every later step reads only its component's bucket.
    """
    table = doc.table
    components = connected_components(fused)
    component_of = {node: k for k, component in enumerate(components) for node in component}
    buckets: list[list[FusedEdge]] = [[] for _ in components]
    for edge in fused.edges:
        buckets[component_of[edge.source]].append(edge)

    reactions: list[Reaction] = []
    for component, edges in zip(components, buckets):
        arrows, affinity, edges_by_pair = _arrow_affinities(component, edges, doc)
        condition_edges = _condition_index(edges)
        if not arrows:
            reactions.extend(_arrowless_candidates(edges, condition_edges, doc))
            continue
        assigned = _best_assignment(affinity, len(component), config)
        per_arrow: dict[str, dict[str, list[str]]] = {
            a: {"reactant": [], "product": [], "condition": []} for a in arrows
        }
        per_arrow_score: dict[str, float] = {a: 0.0 for a in arrows}
        for entity_id in sorted(assigned, key=table.position.__getitem__):
            arrow_id = assigned[entity_id]
            role = _role_for(entity_id, arrow_id, edges_by_pair[(entity_id, arrow_id)], doc)
            per_arrow[arrow_id][role].append(entity_id)
            per_arrow_score[arrow_id] += affinity[entity_id][arrow_id]
        for arrow_id in arrows:
            roles = per_arrow[arrow_id]
            candidate = _finalize_candidate(
                roles["reactant"],
                roles["product"],
                roles["condition"],
                [arrow_id],
                per_arrow_score[arrow_id],
                condition_edges,
                doc,
            )
            if candidate is not None:
                reactions.append(candidate)
    reactions.sort(key=lambda r: (-r.score, table.position[r.reactants[0]]))
    return reactions


def _condition_index(edges) -> tuple[dict, dict]:
    """A component's reactant->condition edges by source and condition->product edges by target,
    each as ``(position among the component's edges, edge)`` in edge order."""
    by_source: dict = {}
    by_target: dict = {}
    for k, edge in enumerate(edges):
        if edge.relation == EdgeRelation.REACTANT_TO_COND:
            by_source.setdefault(edge.source, []).append((k, edge))
        elif edge.relation == EdgeRelation.COND_TO_PRODUCT:
            by_target.setdefault(edge.target, []).append((k, edge))
    return by_source, by_target


def _finalize_candidate(reactants, products, conditions, arrows, score, condition_edges, doc) -> Reaction | None:
    """Attach typed-condition entities, then build through :func:`reaction_or_none`.

    ``condition_edges`` is the component's :func:`_condition_index`; the
    edges from a reactant and those into a product are walked in the order
    of the component's fused edges. An entity among both reactants and
    products stays a reactant.
    """
    by_source, by_target = condition_edges
    conditions = list(conditions)
    reactant_set = set(reactants)
    product_set = set(products) - reactant_set
    taken = reactant_set | product_set | set(conditions)
    found = [item for r in reactant_set for item in by_source.get(r, ())]
    found += [item for p in product_set for item in by_target.get(p, ())]
    found.sort(key=lambda item: item[0])
    for _, edge in found:
        candidate = edge.target if edge.relation == EdgeRelation.REACTANT_TO_COND else edge.source
        if candidate in taken or doc.entity(candidate).kind == EntityKind.ARROW:
            continue
        conditions.append(candidate)
        taken.add(candidate)
        score += edge.score
    return reaction_or_none(reactants, products, conditions, arrows, score)


def _arrowless_candidates(edges, condition_edges, doc: ReactionDocument) -> list[Reaction]:
    """Candidates from a component's reactant->product hypothesis edges alone.

    Edges group when they share a source or share a target (parallel
    chains stay separate reactions); ``condition_edges`` is the
    component's :func:`_condition_index`.
    """
    r2p = [e for e in edges if e.relation == EdgeRelation.REACTANT_TO_PRODUCT]
    tails = np.array([e.source for e in r2p])
    heads = np.array([e.target for e in r2p])
    shared = (tails[:, None] == tails[None, :]) | (heads[:, None] == heads[None, :])

    reactions = []
    for group in connected_groups(shared):
        edges_in_group = sorted((r2p[i] for i in group), key=lambda e: (e.source, e.target))
        score = 0.0
        for edge in edges_in_group:
            score += edge.score
        sources = [edge.source for edge in edges_in_group]
        targets = [edge.target for edge in edges_in_group]
        candidate = _finalize_candidate(sources, targets, [], [], score, condition_edges, doc)
        if candidate is not None:
            reactions.append(candidate)
    return reactions
