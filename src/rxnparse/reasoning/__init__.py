"""Reasoning layer: evidence graphs, fusion, global inference, post-processing."""

from ..config import BASE_NODE_DIMS
from .chemgraph import ChemGraph, NEUTRAL_CHEM_SCORE, build_chem_graph, chem_pair_score
from .clustering import cluster_entities
from .fusion import (
    ABSENT_INIT_SCORE,
    NEUTRAL_SPACE_SCORE,
    FusedEdge,
    FusedGraph,
    fuse,
    fuse_score,
)
from .hypotheses import (
    COMBINER_ROLE,
    HypothesisEdge,
    HypothesisGraph,
    cluster_prompt_variables,
    collect_hypotheses,
    edges_from_reactions,
)
from .inference import (
    connected_components,
    infer_reactions,
)
from .postprocess import post_process
from .relations import EdgeRelation
from .spatial import (
    EDGE_DIMS,
    SpatialGraph,
    SpatialWeights,
    build_spatial_graph,
    load_weights,
    propagate,
    random_weights,
    save_weights,
)

__all__ = [
    "ABSENT_INIT_SCORE",
    "BASE_NODE_DIMS",
    "COMBINER_ROLE",
    "ChemGraph",
    "EDGE_DIMS",
    "EdgeRelation",
    "FusedEdge",
    "FusedGraph",
    "HypothesisEdge",
    "HypothesisGraph",
    "NEUTRAL_CHEM_SCORE",
    "NEUTRAL_SPACE_SCORE",
    "SpatialGraph",
    "SpatialWeights",
    "build_chem_graph",
    "build_spatial_graph",
    "chem_pair_score",
    "cluster_entities",
    "cluster_prompt_variables",
    "collect_hypotheses",
    "connected_components",
    "edges_from_reactions",
    "fuse",
    "fuse_score",
    "infer_reactions",
    "load_weights",
    "post_process",
    "propagate",
    "random_weights",
    "save_weights",
]
