"""Reasoning layer: evidence graphs, fusion, global inference, post-processing."""

# the benchmark harness imports these four from the package; they go once it
# imports them from their modules (ROADMAP item 2)
from .clustering import cluster_entities
from .hypotheses import COMBINER_ROLE, cluster_prompt_variables
from .inference import connected_components
