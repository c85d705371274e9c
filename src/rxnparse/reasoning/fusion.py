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

import itertools
from dataclasses import dataclass

import numpy as np

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
    edge (direction preserved), in hypothesis order; pairs with only
    structural evidence yield a single untyped edge tagged ``NO_EDGE``,
    ordered by id pair. Every id must be one of ``spatial.node_ids``.

    The channel scores sit in dense arrays indexed by the code
    ``rank(a) * n + rank(b)`` of each id pair ``a < b``, so code order is
    id-pair order. ``fuse_score`` scores the candidate arrays elementwise,
    and a ``FusedEdge`` is built only for a kept row.
    """
    node_ids = spatial.node_ids
    n = len(node_ids)
    by_rank = sorted(node_ids)
    rank_of = {node: r for r, node in enumerate(by_rank)}
    index_rank = np.array([rank_of[node] for node in node_ids], dtype=np.intp)

    space = spatial.scores or {}
    ends = np.fromiter(itertools.chain.from_iterable(space), dtype=np.intp, count=2 * len(space))
    ends = index_rank[ends].reshape(-1, 2)
    space_codes = ends.min(axis=1) * n + ends.max(axis=1)
    chem_codes = np.fromiter(
        (rank_of[a] * n + rank_of[b] for a, b in chem.scores), dtype=np.intp, count=len(chem.scores)
    )
    s_space = np.full(n * n, NEUTRAL_SPACE_SCORE)
    s_space[space_codes] = np.fromiter(space.values(), dtype=float, count=len(space))
    s_chem = np.full(n * n, NEUTRAL_CHEM_SCORE)
    s_chem[chem_codes] = np.fromiter(chem.scores.values(), dtype=float, count=len(chem.scores))

    typed = hypotheses.edges
    ends = np.array([(rank_of[e.source], rank_of[e.target]) for e in typed], dtype=np.intp).reshape(-1, 2)
    typed_codes = ends.min(axis=1) * n + ends.max(axis=1)
    structural = np.zeros(n * n, dtype=bool)
    structural[space_codes] = structural[chem_codes] = True
    structural[typed_codes] = False
    codes = np.concatenate([typed_codes, np.flatnonzero(structural)])
    s_init = np.full(len(codes), ABSENT_INIT_SCORE)
    s_init[: len(typed)] = [e.confidence for e in typed]
    space_at, chem_at = s_space[codes], s_chem[codes]
    scores = fuse_score(space_at, chem_at, s_init, weights)

    kept = np.flatnonzero(scores > tau_fuse)
    edges: list[FusedEdge] = []
    columns = (codes[kept], scores[kept], space_at[kept], chem_at[kept])
    for k, code, score, s_sp, s_ch in zip(kept.tolist(), *(column.tolist() for column in columns)):
        if k < len(typed):
            e = typed[k]
            edges.append(FusedEdge(e.source, e.target, e.relation, score, s_sp, s_ch, e.confidence))
        else:
            a, b = divmod(code, n)
            edges.append(FusedEdge(by_rank[a], by_rank[b], EdgeRelation.NO_EDGE, score, s_sp, s_ch, ABSENT_INIT_SCORE))
    return FusedGraph(node_ids=node_ids, edges=tuple(edges), weights=weights, tau_fuse=tau_fuse)
