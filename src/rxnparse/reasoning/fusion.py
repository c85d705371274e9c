"""Multigraph fusion: one confidence per candidate edge, then pruning.

Every candidate edge (the union of spatial, chemistry and hypothesis
edges) gets

    s_fuse = a_space * s_space + a_chem * s_chem + a_init * s_init

with non-negative weights summing to one. A channel that never scored a
pair contributes its neutral value: 0.5 for the spatial and chemistry
channels (ignorance) but 0 for the hypothesis channel (an edge the VLM
did not propose is evidence of absence). Each candidate is pruned as it
is scored: only edges above ``tau_fuse`` become fused edges, and they
form the sparse graph global inference enumerates over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chemgraph import ChemGraph, NEUTRAL_CHEM_SCORE
from .hypotheses import HypothesisGraph
from .relations import EdgeRelation
from .spatial import SpatialGraph

NEUTRAL_SPACE_SCORE = 0.5
ABSENT_INIT_SCORE = 0.0


class WeightError(ValueError):
    """Fusion weights are negative or do not sum to one."""


@dataclass(frozen=True)
class FusionWeights:
    space: float
    chem: float
    init: float

    def __post_init__(self):
        if min(self.space, self.chem, self.init) < 0:
            raise WeightError(f"fusion weights must be non-negative: {self}")
        total = self.space + self.chem + self.init
        if abs(total - 1.0) > 1e-9:
            raise WeightError(f"fusion weights must sum to 1, got {total}")


def fuse_score(s_space: float, s_chem: float, s_init: float, weights: FusionWeights) -> float:
    return weights.space * s_space + weights.chem * s_chem + weights.init * s_init


@dataclass(frozen=True)
class FusedEdge:
    """Directed when typed by a hypothesis, id-ordered when structural."""

    source: str
    target: str
    relation: EdgeRelation
    score: float
    s_space: float
    s_chem: float
    s_init: float


@dataclass(frozen=True)
class FusedGraph:
    node_ids: tuple[str, ...]
    edges: tuple[FusedEdge, ...]
    weights: FusionWeights
    tau_fuse: float


def fuse(
    spatial: SpatialGraph,
    chem: ChemGraph,
    hypotheses: HypothesisGraph,
    weights: FusionWeights,
    tau_fuse: float,
) -> FusedGraph:
    """Combine the three evidence graphs, keeping only edges above ``tau_fuse``.

    A pair covered by hypothesis edges yields one fused edge per typed
    edge (direction preserved); pairs with only structural evidence
    yield a single untyped edge tagged ``NO_EDGE``. Candidates are
    scored in that order and pruned as they are scored.
    """
    space_scores = spatial.score_by_ids()
    chem_scores = chem.scores
    typed = [(e.source, e.target, e.relation, e.confidence) for e in hypotheses.edges]
    covered = {(min(source, target), max(source, target)) for source, target, _, _ in typed}
    structural = [
        (a, b, EdgeRelation.NO_EDGE, ABSENT_INIT_SCORE)
        for a, b in sorted((space_scores.keys() | chem_scores.keys()) - covered)
    ]

    kept: list[FusedEdge] = []
    for source, target, relation, s_init in typed + structural:
        pair = (min(source, target), max(source, target))
        s_space = space_scores.get(pair, NEUTRAL_SPACE_SCORE)
        s_chem = chem_scores.get(pair, NEUTRAL_CHEM_SCORE)
        score = fuse_score(s_space, s_chem, s_init, weights)
        if score > tau_fuse:
            kept.append(FusedEdge(source, target, relation, score, s_space, s_chem, s_init))
    return FusedGraph(node_ids=spatial.node_ids, edges=tuple(kept), weights=weights, tau_fuse=tau_fuse)
