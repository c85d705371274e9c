"""Spatial-semantic graph: construction and message passing.

Nodes are the document's entities; edges join k-nearest neighbours (by
centroid distance normalized to the diagram diagonal) plus every pair
within a radius. Each node update sums, over its neighbours, a linear
transform of the neighbour state and a linear transform of the edge
feature, through a ReLU:

    h_i <- relu( sum_j ( W1 @ h_j + W2 @ e_ij ) )

The graph carries what a layer reads, the 0/1 adjacency matrix and each
node's sum of its edge features, so a layer is two matrix products and no
per-edge row is kept. A node with no neighbours lands exactly on the zero
vector. After one layer per (W1, W2) pair of the weights, each edge is
scored by shifted cosine similarity of its endpoint embeddings, mapped
into [0, 1]; a zero embedding on either end scores the neutral 0.5.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..chem.fingerprint import SKETCH_DIMS
from ..config import ConfigError, ReasoningConfig
from ..entities import EntityTable, ReactionDocument

EDGE_DIMS = 2 + 1 + 1 + 16  # offset + distance + size ratio + kind-pair one-hot (KIND_CODES order)
# the fixed part of a spatial node feature: kind one-hot + box geometry + fingerprint sketch
BASE_NODE_DIMS = 4 + 4 + SKETCH_DIMS


@dataclass(frozen=True)
class SpatialWeights:
    """Per-layer (W1, W2) pairs, W1 dim x dim and W2 dim x EDGE_DIMS, checked when built; loaded from file,
    never learned here. They set the spatial layer's shape: one message-passing step per pair, node
    embeddings ``dim`` wide."""

    w1: tuple[np.ndarray, ...]
    w2: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.w1) != len(self.w2) or not self.w1:
            raise ConfigError("weights need matching, non-empty W1/W2 lists")
        d = self.w1[0].shape[0] if self.w1[0].ndim else 0
        for a, b in zip(self.w1, self.w2):
            if a.shape != (d, d):
                raise ConfigError(f"W1 must be {d}x{d}, got {a.shape}")
            if b.shape != (d, EDGE_DIMS):
                raise ConfigError(f"W2 must be {d}x{EDGE_DIMS}, got {b.shape}")

    @property
    def layers(self) -> int:
        return len(self.w1)

    @property
    def dim(self) -> int:
        return self.w1[0].shape[0]


@lru_cache(maxsize=16)
def random_weights(layers: int = 2, dim: int = 32, seed: int = 7) -> SpatialWeights:
    """Seeded fallback weights for offline runs and tests, generated once per shape and seed and shared read-only."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    w1 = tuple(rng.normal(0.0, scale, size=(dim, dim)) for _ in range(layers))
    w2 = tuple(rng.normal(0.0, scale, size=(dim, EDGE_DIMS)) for _ in range(layers))
    for array in w1 + w2:
        array.flags.writeable = False
    return SpatialWeights(w1=w1, w2=w2)


def save_weights(weights: SpatialWeights, path) -> None:
    payload = {
        "layers": weights.layers,
        "dim": weights.dim,
        "edge_dim": EDGE_DIMS,
        "weights": [
            {"W1": a.tolist(), "W2": b.tolist()} for a, b in zip(weights.w1, weights.w2)
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_weights(path) -> SpatialWeights:
    """The weights of a file :func:`save_weights` wrote, at least ``BASE_NODE_DIMS`` wide."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        weights = SpatialWeights(
            w1=tuple(np.asarray(layer["W1"], dtype=float) for layer in payload["weights"]),
            w2=tuple(np.asarray(layer["W2"], dtype=float) for layer in payload["weights"]),
        )
    except (OSError, KeyError, TypeError, ValueError) as exc:  # ValueError: invalid JSON, a ragged matrix, a bad shape
        raise ConfigError(f"malformed weights file {path}: {exc}") from exc
    if weights.layers != payload.get("layers") or weights.dim != payload.get("dim"):
        raise ConfigError(f"weights file {path} disagrees with its own shape header")
    if weights.dim < BASE_NODE_DIMS:
        raise ConfigError(f"weights file {path} has dim {weights.dim}, below the {BASE_NODE_DIMS} node features")
    return weights


@dataclass(frozen=True)
class SpatialGraph:
    """Entity graph with node embeddings; edge ``k`` joins positions ``rows[k] < cols[k]`` of ``table``."""

    table: EntityTable
    features: np.ndarray  # (n, dim)
    rows: np.ndarray
    cols: np.ndarray
    adjacency: np.ndarray  # (n, n) symmetric 0/1 matrix of the edges
    edge_sums: np.ndarray  # (n, EDGE_DIMS): row i sums e_ij over the neighbours j of i, ascending
    weights: SpatialWeights
    values: np.ndarray | None = None  # edge scores, set by propagate

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self.table.ids

    # views built on read, for the benchmark tracer (bench/tracing.py) to count from; no layer reads them

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.rows.tolist(), self.cols.tolist()))

    def score_by_ids(self) -> dict:
        """Edge scores keyed by (entity_id, entity_id), smaller id first; empty before :func:`propagate`."""
        return {} if self.values is None else self.table.by_id_pairs(self.rows, self.cols, self.values)


def _node_features(doc: ReactionDocument, dim: int) -> np.ndarray:
    """Kind one-hot, centroid and box size over the diagram's size, then the molecule sketch, zero-padded to ``dim``."""
    table = doc.table
    n = len(table.ids)
    bounds = doc.diagram_bounds
    scale = np.array([bounds.width or 1.0, bounds.height or 1.0])
    features = np.zeros((n, dim))
    features[np.arange(n), table.kinds] = 1.0
    features[:, 4:6] = table.centroids / scale
    features[:, 6:8] = table.sizes / scale
    parsed = [i for i, e in enumerate(doc.entities) if e.molecule is not None]
    if parsed:
        features[parsed, 8 : 8 + SKETCH_DIMS] = [doc.entities[i].molecule.sketch for i in parsed]
    return features


def _edge_sums(table: EntityTable, diag: float, adjacency: np.ndarray) -> np.ndarray:
    """Per receiver i, the sum of e_ij over its senders j, ascending: offset, distance and size-ratio columns
    summed over the receiver-sorted directed edges, and the kind-pair one-hot counted."""
    n = len(table.ids)
    receivers, senders = np.nonzero(adjacency)
    areas, kinds = table.areas, table.kinds
    total = areas[receivers] + areas[senders]
    columns = np.empty((len(receivers), 4))
    # np.take gathers rows several times faster than fancy indexing does
    columns[:, 0:2] = (np.take(table.centroids, senders, axis=0) - np.take(table.centroids, receivers, axis=0)) / diag
    columns[:, 2] = table.distances[receivers, senders]
    columns[:, 3] = np.divide(areas[receivers], total, out=np.full(len(total), 0.5), where=total > 0)
    sums = np.zeros((n, EDGE_DIMS))
    nodes, starts = np.unique(receivers, return_index=True)
    sums[nodes, :4] = np.add.reduceat(columns, starts, axis=0)
    pairs = receivers * 16 + kinds[receivers] * 4 + kinds[senders]
    sums[:, 4:] = np.bincount(pairs, minlength=16 * n).reshape(n, 16)
    return sums


def build_spatial_graph(
    doc: ReactionDocument,
    config: ReasoningConfig,
    weights: SpatialWeights | None = None,
) -> SpatialGraph:
    """Assemble nodes, kNN/radius edges and initial features from the document's entity table.

    Each entity links to its ``k_nn`` nearest others, ties broken by the
    lower index (the table's :meth:`~rxnparse.entities.EntityTable.knn_links`),
    and to every entity within ``radius``. Weights narrower than the
    ``BASE_NODE_DIMS`` node features are a :class:`ConfigError`.
    """
    if weights is None:
        weights = random_weights()
    if weights.dim < BASE_NODE_DIMS:
        raise ConfigError(f"spatial weights have dim {weights.dim}, below the {BASE_NODE_DIMS} node features")
    table = doc.table
    features = _node_features(doc, weights.dim)
    linked = table.distances <= config.radius
    linked[table.knn_links(config.k_nn)] = True
    rows, cols = np.nonzero(np.triu(linked, k=1))
    adjacency = np.zeros(linked.shape)
    adjacency[rows, cols] = adjacency[cols, rows] = 1.0
    return SpatialGraph(
        table=table,
        features=features,
        rows=rows,
        cols=cols,
        adjacency=adjacency,
        edge_sums=_edge_sums(table, doc.diagram_bounds.diagonal or 1.0, adjacency),
        weights=weights,
    )


def propagate(graph: SpatialGraph) -> SpatialGraph:
    """Run one message-passing step per weights layer and score edges; returns a new graph.

    Neighbour sums are taken before the weights apply, so each layer
    costs two small matrix products: ``relu(W1 @ sum_j h_j + W2 @ sum_j e_ij)``.
    The edge-feature sums are the graph's ``edge_sums``, the same in every layer.
    """
    h = np.array(graph.features, dtype=float)
    for w1, w2 in zip(graph.weights.w1, graph.weights.w2):
        h = np.maximum((graph.adjacency @ h) @ w1.T + graph.edge_sums @ w2.T, 0.0)

    return replace(graph, features=h, values=_shifted_cosines(h, graph.rows, graph.cols))


def _shifted_cosines(h: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(1 + cos(h_i, h_j)) / 2 per edge in [0, 1]; 0.5 where either end is zero."""
    norms = np.linalg.norm(h, axis=1)
    zero = (norms[rows] == 0.0) | (norms[cols] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = (h @ h.T)[rows, cols] / (norms[rows] * norms[cols])
    return np.where(zero, 0.5, np.clip((1.0 + cosines) / 2.0, 0.0, 1.0))
