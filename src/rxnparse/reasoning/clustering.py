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


def cluster_entities(doc: ReactionDocument, config: ReasoningConfig) -> tuple[tuple[str, ...], ...]:
    """Partition entity ids: members in reading order, clusters by their top-left-most member."""
    table = doc.table
    reading = table.reading.tolist()
    close = table.distances < config.tau_cluster
    groups = [sorted(members, key=reading.__getitem__) for members in connected_groups(close)]
    groups.sort(key=lambda members: reading[members[0]])
    return tuple(tuple(table.ids[i] for i in members) for members in groups)
