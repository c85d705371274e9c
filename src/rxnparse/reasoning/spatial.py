"""Spatial-semantic graph: construction and message passing.

Nodes are the document's entities; edges join k-nearest neighbours (by
centroid distance normalized to the diagram diagonal) plus every pair
within a radius. Each node update sums, over its neighbours, a linear
transform of the neighbour state and a linear transform of the edge
feature, through a ReLU:

    h_i <- relu( sum_j ( W1 @ h_j + W2 @ e_ij ) )

A node with no neighbours therefore lands exactly on the zero vector.
After the configured number of layers, each edge is scored by shifted
cosine similarity of its endpoint embeddings, mapped into [0, 1]; a
zero embedding on either end scores the neutral 0.5.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

from ..config import SKETCH_DIMS, ConfigError, ReasoningConfig
from ..entities import EntityKind, ReactionDocument
from ..geometry import centroid_distances

_KINDS = (EntityKind.MOLECULE, EntityKind.ARROW, EntityKind.TEXT, EntityKind.IDENTIFIER)
_KIND_INDEX = {kind: i for i, kind in enumerate(_KINDS)}

EDGE_DIMS = 2 + 1 + 1 + 16  # offset + distance + size ratio + kind-pair one-hot


@dataclass(frozen=True)
class SpatialWeights:
    """Per-layer (W1, W2) pairs; loaded from file, never learned here."""

    w1: tuple[np.ndarray, ...]
    w2: tuple[np.ndarray, ...]

    @property
    def layers(self) -> int:
        return len(self.w1)

    @property
    def dim(self) -> int:
        return self.w1[0].shape[0]

    @property
    def edge_dim(self) -> int:
        return self.w2[0].shape[1]

    def validate(self) -> None:
        if len(self.w1) != len(self.w2) or not self.w1:
            raise ConfigError("weights need matching, non-empty W1/W2 lists")
        d = self.w1[0].shape[0]
        e = self.w2[0].shape[1]
        for a, b in zip(self.w1, self.w2):
            if a.shape != (d, d):
                raise ConfigError(f"W1 must be {d}x{d}, got {a.shape}")
            if b.shape != (d, e):
                raise ConfigError(f"W2 must be {d}x{e}, got {b.shape}")


def random_weights(layers: int, dim: int, edge_dim: int = EDGE_DIMS, seed: int = 7) -> SpatialWeights:
    """Seeded fallback weights for offline runs and tests."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    w1 = tuple(rng.normal(0.0, scale, size=(dim, dim)) for _ in range(layers))
    w2 = tuple(rng.normal(0.0, scale, size=(dim, edge_dim)) for _ in range(layers))
    return SpatialWeights(w1=w1, w2=w2)


def save_weights(weights: SpatialWeights, path) -> None:
    payload = {
        "layers": weights.layers,
        "dim": weights.dim,
        "edge_dim": weights.edge_dim,
        "weights": [
            {"W1": a.tolist(), "W2": b.tolist()} for a, b in zip(weights.w1, weights.w2)
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_weights(path) -> SpatialWeights:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        w1 = tuple(np.asarray(layer["W1"], dtype=float) for layer in payload["weights"])
        w2 = tuple(np.asarray(layer["W2"], dtype=float) for layer in payload["weights"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed weights file {path}: {exc}") from exc
    weights = SpatialWeights(w1=w1, w2=w2)
    weights.validate()
    if weights.layers != payload.get("layers") or weights.dim != payload.get("dim"):
        raise ConfigError(f"weights file {path} disagrees with its own shape header")
    return weights


@dataclass(frozen=True)
class SpatialGraph:
    """Entity graph with node embeddings and per-edge spatial scores."""

    node_ids: tuple[str, ...]
    features: np.ndarray  # (n, dim)
    edges: tuple[tuple[int, int], ...]  # undirected, i < j
    # (2 * len(edges), EDGE_DIMS): e_ij for both directions (i, j) and (j, i) of every edge, rows sorted
    edge_features: np.ndarray
    weights: SpatialWeights
    scores: dict | None = None  # (i, j) i < j -> float, set by propagate

    def __post_init__(self):
        if len(self.edge_features) != 2 * len(self.edges):
            raise ValueError(f"{len(self.edges)} edges need {2 * len(self.edges)} edge-feature rows")

    def score_by_ids(self) -> dict:
        """Edge scores keyed by (entity_id, entity_id), smaller id first."""
        if self.scores is None:
            return {}
        out = {}
        for (i, j), value in self.scores.items():
            a, b = self.node_ids[i], self.node_ids[j]
            out[(min(a, b), max(a, b))] = value
        return out


def _node_features(doc: ReactionDocument, config: ReasoningConfig) -> np.ndarray:
    bounds = doc.diagram_bounds
    width = bounds.width or 1.0
    height = bounds.height or 1.0
    rows = []
    for entity in doc.entities:
        kind_onehot = [0.0] * 4
        kind_onehot[_KIND_INDEX[entity.kind]] = 1.0
        cx, cy = entity.centroid
        box = entity.region if hasattr(entity.region, "width") else entity.region.bounding_box()
        geometry = [cx / width, cy / height, box.width / width, box.height / height]
        sketch = [0.0] * SKETCH_DIMS if entity.sketch is None else list(entity.sketch)
        row = kind_onehot + geometry + sketch
        row.extend([0.0] * (config.dim - len(row)))
        rows.append(row)
    return np.asarray(rows, dtype=float) if rows else np.zeros((0, config.dim))


def _adjacency(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Symmetric 0/1 matrix of the undirected edges (rows[k], cols[k])."""
    adjacency = np.zeros((n, n))
    adjacency[rows, cols] = adjacency[cols, rows] = 1.0
    return adjacency


def _edge_features(doc: ReactionDocument, centroids, distances, receivers, senders) -> np.ndarray:
    """Feature e_ij of each directed edge (i = receiver, j = sender)."""
    diag = doc.diagram_bounds.diagonal or 1.0
    areas = np.array([e.region.area for e in doc.entities], dtype=float)
    kinds = np.array([_KIND_INDEX[e.kind] for e in doc.entities], dtype=np.intp)
    total = areas[receivers] + areas[senders]
    features = np.zeros((len(receivers), EDGE_DIMS))
    features[:, 0:2] = (centroids[senders] - centroids[receivers]) / diag
    features[:, 2] = distances[receivers, senders]
    features[:, 3] = np.divide(areas[receivers], total, out=np.full(len(total), 0.5), where=total > 0)
    features[np.arange(len(receivers)), 4 + kinds[receivers] * 4 + kinds[senders]] = 1.0
    return features


def build_spatial_graph(
    doc: ReactionDocument,
    config: ReasoningConfig,
    weights: SpatialWeights | None = None,
) -> SpatialGraph:
    """Assemble nodes, kNN/radius edges and initial features.

    Each entity links to its ``k_nn`` nearest others, ties broken by the
    lower index, and to every entity within ``radius``.
    """
    if weights is None:
        weights = random_weights(config.layers, config.dim, EDGE_DIMS)
    weights.validate()
    if weights.dim != config.dim:
        raise ConfigError(f"weights dim {weights.dim} != config dim {config.dim}")
    if weights.edge_dim != EDGE_DIMS:
        raise ConfigError(f"weights edge dim {weights.edge_dim} != {EDGE_DIMS}")

    n = len(doc.entities)
    features = _node_features(doc, config)
    centroids = np.array([e.centroid for e in doc.entities], dtype=float).reshape(-1, 2)
    distances = centroid_distances(centroids, doc.diagram_bounds)

    # a stable sort keeps (distance, index) order; a row's own index goes
    # explicitly, since another entity may share its centroid
    order = np.argsort(distances, axis=1, kind="stable")
    others = order[order != np.arange(n)[:, None]].reshape(n, max(n - 1, 0))
    linked = distances <= config.radius
    linked[np.repeat(np.arange(n), min(config.k_nn, max(n - 1, 0))), others[:, : config.k_nn].ravel()] = True
    rows, cols = np.nonzero(np.triu(linked | linked.T, k=1))
    return SpatialGraph(
        node_ids=tuple(e.id for e in doc.entities),
        features=features,
        edges=tuple(zip(rows.tolist(), cols.tolist())),
        edge_features=_edge_features(doc, centroids, distances, *np.nonzero(_adjacency(rows, cols, n))),
        weights=weights,
    )


def propagate(graph: SpatialGraph, layers: int | None = None) -> SpatialGraph:
    """Run message passing and score edges; returns a new graph.

    Neighbour sums are taken before the weights apply, so each layer
    costs two small matrix products: ``relu(W1 @ sum_j h_j + W2 @ sum_j e_ij)``.
    The edge-feature sums are the same in every layer.
    """
    n = len(graph.node_ids)
    steps = graph.weights.layers if layers is None else layers
    h = np.array(graph.features, dtype=float)
    flat = itertools.chain.from_iterable(graph.edges)
    rows, cols = np.fromiter(flat, dtype=np.intp, count=2 * len(graph.edges)).reshape(-1, 2).T
    adjacency = _adjacency(rows, cols, n)
    # edge_features rows follow the nonzero entries of the adjacency in row-major order
    receivers, _ = np.nonzero(adjacency)
    nodes, starts = np.unique(receivers, return_index=True)
    edge_sums = np.zeros((n, graph.edge_features.shape[1]))
    edge_sums[nodes] = np.add.reduceat(graph.edge_features, starts, axis=0)

    for layer in range(steps):
        w1 = graph.weights.w1[layer % graph.weights.layers]
        w2 = graph.weights.w2[layer % graph.weights.layers]
        h = np.maximum((adjacency @ h) @ w1.T + edge_sums @ w2.T, 0.0)

    scores = _shifted_cosines(h, rows, cols)
    return replace(graph, features=h, scores=dict(zip(graph.edges, scores.tolist())))


def _shifted_cosines(h: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(1 + cos(h_i, h_j)) / 2 per edge in [0, 1]; 0.5 where either end is zero."""
    norms = np.linalg.norm(h, axis=1)
    zero = (norms[rows] == 0.0) | (norms[cols] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = (h @ h.T)[rows, cols] / (norms[rows] * norms[cols])
    return np.where(zero, 0.5, np.clip((1.0 + cosines) / 2.0, 0.0, 1.0))
