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

    A pair is coded ``rank(a) * n + rank(b)`` for ids ``a < b`` (ranks
    from the entity table), so code order is id-pair order. Each channel
    is a sorted code array, searched by binary search: there is no id
    dict and no n×n array. ``fuse_score`` scores the candidate arrays
    elementwise, and a ``FusedEdge`` is built only for a kept row.
    """
    table = spatial.table
    n, by_rank = len(table.ids), table.sorted_ids
    space_codes, space_values = _channel(table, spatial.rows, spatial.cols, spatial.values)
    chem_codes, chem_values = _channel(table, chem.rows, chem.cols, chem.values)

    typed = hypotheses.edges
    at = np.array([(table.position[e.source], table.position[e.target]) for e in typed], dtype=np.intp)
    ends = table.ranks[at.reshape(-1, 2)]
    typed_codes = ends.min(axis=1) * n + ends.max(axis=1)
    # stable sorts: the default int sort pages in SIMD kernels (about 0.4 MB resident, numpy 2.4 on x86-64)
    either = np.sort(np.concatenate([space_codes, chem_codes[~_found(space_codes, chem_codes)[0]]]), kind="stable")
    structural = either[~_found(np.sort(typed_codes, kind="stable"), either)[0]]
    codes = np.concatenate([typed_codes, structural])
    s_init = np.full(len(codes), ABSENT_INIT_SCORE)
    s_init[: len(typed)] = [e.confidence for e in typed]
    space_at = _scores_at(space_codes, space_values, codes, NEUTRAL_SPACE_SCORE)
    chem_at = _scores_at(chem_codes, chem_values, codes, NEUTRAL_CHEM_SCORE)
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
    return FusedGraph(node_ids=table.ids, edges=tuple(edges), weights=weights, tau_fuse=tau_fuse)


def _channel(table, rows, cols, values) -> tuple[np.ndarray, np.ndarray]:
    """A channel's pair codes in ascending order, with its scores in the same order; none while unscored."""
    if values is None:  # a spatial graph before propagate
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    ends = table.ranks[rows], table.ranks[cols]
    codes = np.minimum(*ends) * len(table.ids) + np.maximum(*ends)
    order = np.argsort(codes, kind="stable")
    return codes[order], values[order]


def _found(codes, queries) -> tuple[np.ndarray, np.ndarray]:
    """Whether each query code is in the sorted ``codes``, and where it is or would go."""
    at = np.searchsorted(codes, queries)
    return np.append(codes, -1)[at] == queries, at


def _scores_at(codes, values, queries, neutral: float) -> np.ndarray:
    """The score of each query code in the sorted ``codes``, or ``neutral`` where it is absent."""
    found, at = _found(codes, queries)
    return np.where(found, np.append(values, neutral)[at], neutral)
