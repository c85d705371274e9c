"""Single-link entity clustering.

Clusters are the connected components of the proximity graph whose
edges join entities closer (normalized to the diagram diagonal) than
``tau_cluster``. Localizing the hypothesis agent to one cluster at a
time keeps its context small and stops unrelated reaction steps from
being conflated.
"""

from __future__ import annotations

import numpy as np

from ..config import ReasoningConfig
from ..entities import ReactionDocument
from ..geometry import centroid_distances


def connected_groups(adjacency: np.ndarray) -> list[list[int]]:
    """Components of a symmetric boolean adjacency matrix, grown breadth-first.

    Groups come in order of their smallest member, members ascending.
    """
    unseen = np.ones(len(adjacency), dtype=bool)
    groups = []
    for start in range(len(adjacency)):
        if unseen[start]:
            unseen[start] = False
            members, frontier = [start], np.array([start])
            while frontier.size:
                frontier = np.flatnonzero(adjacency[frontier].any(axis=0) & unseen)
                unseen[frontier] = False
                members.extend(frontier.tolist())
            groups.append(sorted(members))
    return groups


def proximity_groups(doc: ReactionDocument, threshold: float) -> list[list[int]]:
    """Entity indices grouped by single links shorter than ``threshold``."""
    centroids = [entity.centroid for entity in doc.entities]
    return connected_groups(centroid_distances(centroids, doc.diagram_bounds) < threshold)


def cluster_entities(doc: ReactionDocument, config: ReasoningConfig) -> tuple[tuple[str, ...], ...]:
    """Partition entity ids; clusters ordered by their top-left-most member."""

    def reading_key(idx: int):
        cx, cy = doc.entities[idx].centroid
        return (cy, cx, doc.entities[idx].id)

    groups = [sorted(members, key=reading_key) for members in proximity_groups(doc, config.tau_cluster)]
    groups.sort(key=lambda members: reading_key(members[0]))
    return tuple(tuple(doc.entities[i].id for i in members) for members in groups)
