"""Multigraph fusion: one confidence per candidate edge, then pruning.

Every candidate edge (the union of spatial, chemistry and hypothesis
edges) gets

    s_fuse = a_space * s_space + a_chem * s_chem + a_init * s_init

with non-negative weights summing to one. A channel that never scored a
pair contributes its neutral value: 0.5 for the spatial and chemistry
channels (ignorance) but 0 for the hypothesis channel (an edge the VLM
did not propose is evidence of absence). Edges at or below ``tau_fuse``
are pruned; the survivors form the sparse graph global inference
enumerates over.
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

    @property
    def pair(self) -> tuple[str, str]:
        return (min(self.source, self.target), max(self.source, self.target))


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
    """Combine the three evidence graphs and prune weak edges.

    A pair covered by hypothesis edges yields one fused edge per typed
    edge (direction preserved); pairs with only structural evidence
    yield a single untyped edge tagged ``NO_EDGE``.
    """
    space_scores = spatial.score_by_ids()
    chem_scores = chem.scores

    def channels(pair: tuple[str, str]) -> tuple[float, float]:
        return (
            space_scores.get(pair, NEUTRAL_SPACE_SCORE),
            chem_scores.get(pair, NEUTRAL_CHEM_SCORE),
        )

    fused: list[FusedEdge] = []
    pairs_with_hypothesis: set[tuple[str, str]] = set()
    for edge in hypotheses.edges:
        pair = (min(edge.source, edge.target), max(edge.source, edge.target))
        pairs_with_hypothesis.add(pair)
        s_space, s_chem = channels(pair)
        score = fuse_score(s_space, s_chem, edge.confidence, weights)
        fused.append(
            FusedEdge(
                source=edge.source,
                target=edge.target,
                relation=edge.relation,
                score=score,
                s_space=s_space,
                s_chem=s_chem,
                s_init=edge.confidence,
            )
        )

    structural_pairs = set(space_scores) | set(chem_scores)
    for pair in sorted(structural_pairs - pairs_with_hypothesis):
        s_space, s_chem = channels(pair)
        score = fuse_score(s_space, s_chem, ABSENT_INIT_SCORE, weights)
        fused.append(
            FusedEdge(
                source=pair[0],
                target=pair[1],
                relation=EdgeRelation.NO_EDGE,
                score=score,
                s_space=s_space,
                s_chem=s_chem,
                s_init=ABSENT_INIT_SCORE,
            )
        )

    kept = tuple(e for e in fused if e.score > tau_fuse)
    return FusedGraph(node_ids=spatial.node_ids, edges=kept, weights=weights, tau_fuse=tau_fuse)
