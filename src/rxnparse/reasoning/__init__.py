"""Reasoning layer: evidence graphs, fusion, global inference, post-processing."""

from .chemgraph import ChemGraph, build_chem_graph
from .clustering import cluster_entities
from .fusion import (
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
    "COMBINER_ROLE",
    "ChemGraph",
    "EDGE_DIMS",
    "EdgeRelation",
    "FusedEdge",
    "FusedGraph",
    "HypothesisEdge",
    "HypothesisGraph",
    "SpatialGraph",
    "SpatialWeights",
    "build_chem_graph",
    "build_spatial_graph",
    "cluster_entities",
    "cluster_prompt_variables",
    "collect_hypotheses",
    "connected_components",
    "fuse",
    "fuse_score",
    "infer_reactions",
    "load_weights",
    "post_process",
    "propagate",
    "random_weights",
    "save_weights",
]
