"""Shared test utilities: builders, random generators, independent oracles.

Oracles here are deliberately independent of the library's computation
paths: Monte Carlo IoU rasterizes, matching enumerates, assignment
enumerates, molecule formulas come from a hand-verified table, and the
vectorised per-document geometry is checked against pairwise loops.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import numpy as np

from rxnparse.chem import Atom, Bond, Molecule, VALENCES
from rxnparse.entities import load_document
from rxnparse.geometry import AxisBox, OrientedQuad, polygon_of, region_to_array


# --- documents -------------------------------------------------------------


def box(x, y, w, h):
    return [x, y, x + w, y + h]


def arrow_quad(x0, y, x1, thickness=20):
    """A horizontal forward-arrow quad in detection order."""
    return [x0, y + thickness, x1, y + thickness - 2, x1, y - 2, x0, y]


def make_doc(entities, width=1400, height=400, layout=None, image=None):
    data = {"width": width, "height": height, "entities": entities}
    if layout:
        data["layout"] = layout
    if image:
        data["image"] = image
    return load_document(json.dumps(data))


def entity_to_json(entity) -> dict:
    """An entity as its detection-file object, fields in file order."""
    obj: dict = {
        "id": entity.id,
        "label": entity.kind.value,
        "bbox": region_to_array(entity.region),
    }
    if entity.smiles is not None:
        obj["smiles"] = entity.smiles
    if entity.text is not None:
        obj["text"] = entity.text
    if entity.direction is not None:
        obj["direction"] = entity.direction.value
    if entity.resolves_to is not None:
        obj["resolves_to"] = entity.resolves_to
    return obj


def document_to_json(doc) -> dict:
    """Inverse of :func:`load_document`; load(serialize(load(x))) == load(x)."""
    obj: dict = {
        "width": doc.diagram_bounds.x_max - doc.diagram_bounds.x_min,
        "height": doc.diagram_bounds.y_max - doc.diagram_bounds.y_min,
    }
    if doc.image_ref is not None:
        obj["image"] = doc.image_ref
    if doc.layout_class is not None:
        obj["layout"] = doc.layout_class
    obj["entities"] = [entity_to_json(e) for e in doc.entities]
    return obj


def molecule_entity(eid, x, y, smiles=None, w=120, h=90):
    e = {"id": eid, "label": "molecule", "bbox": box(x, y, w, h)}
    if smiles is not None:
        e["smiles"] = smiles
    return e


def text_entity(eid, x, y, text="reagent", w=100, h=30):
    return {"id": eid, "label": "text", "bbox": box(x, y, w, h), "text": text}


def identifier_entity(eid, x, y, text="1a", resolves_to=None, w=40, h=30):
    e = {"id": eid, "label": "identifier", "bbox": box(x, y, w, h), "text": text}
    if resolves_to:
        e["resolves_to"] = resolves_to
    return e


def arrow_entity(eid, x0, y, x1, direction="forward"):
    return {
        "id": eid,
        "label": "arrow",
        "bbox": arrow_quad(x0, y, x1),
        "direction": direction,
    }


# --- hand-built channel graphs ----------------------------------------------


def table_of(ids):
    """The entity table of a document whose entities carry ``ids`` in that order (unit boxes in a row)."""
    doc = make_doc([molecule_entity(eid, 10 * k, 0, w=1, h=1) for k, eid in enumerate(ids)], width=10 * len(ids) + 10)
    table = doc.table
    assert table.ids == tuple(ids)
    return table


def spatial_graph(node_ids, features, edges, weights, edge_sums=None, scores=None):
    """A ``SpatialGraph`` over ``table_of(node_ids)``: ``edges`` are (i, j) positions, ``edge_sums`` the per-node
    sums of edge features (zeros when None), ``scores`` keyed by edge."""
    from rxnparse.reasoning import SpatialGraph
    from rxnparse.reasoning.spatial import EDGE_DIMS

    n = len(node_ids)
    rows, cols = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    adjacency = np.zeros((n, n))
    adjacency[rows, cols] = adjacency[cols, rows] = 1.0
    sums = np.zeros((n, EDGE_DIMS)) if edge_sums is None else np.asarray(edge_sums, dtype=float)
    values = None if scores is None else np.array([scores[edge] for edge in edges], dtype=float)
    return SpatialGraph(table_of(node_ids), features, rows, cols, adjacency, sums, weights, values)


def summed_edge_features(n, edge_features) -> np.ndarray:
    """(n, EDGE_DIMS): row i adds ``edge_features[(i, j)]`` over j ascending, one row at a time."""
    from rxnparse.reasoning.spatial import EDGE_DIMS

    sums = np.zeros((n, EDGE_DIMS))
    for (i, _), row in sorted(edge_features.items()):
        sums[i] += row
    return sums


def chem_graph(table, scores):
    """A ``ChemGraph`` over ``table`` whose ``scores`` view is ``scores`` ((id_a, id_b) -> value)."""
    from rxnparse.reasoning import ChemGraph

    ends = [sorted((table.position[a], table.position[b])) for a, b in scores]
    rows, cols = np.array(ends, dtype=np.intp).reshape(-1, 2).T
    return ChemGraph(table, rows, cols, np.array(list(scores.values()), dtype=float))


def fusion_config(alphas, tau_fuse=0.45):
    """A ``ReasoningConfig`` fusing with ``alphas`` (space, chem, init) and keeping scores above ``tau_fuse``."""
    from rxnparse.config import ReasoningConfig

    space, chem, init = alphas
    return ReasoningConfig(alpha_space=space, alpha_chem=chem, alpha_init=init, tau_fuse=tau_fuse)


# --- random molecules -------------------------------------------------------


def random_molecule(rng: random.Random, max_atoms: int = 10) -> Molecule:
    """Valence-respecting random molecular graph (tree plus optional ring)."""
    elements = ["C", "C", "C", "N", "O", "S", "P", "F", "Cl", "Br"]
    n = rng.randint(1, max_atoms)
    atoms = [Atom(element=rng.choice(elements)) for _ in range(n)]
    capacity = [max(VALENCES[a.element]) for a in atoms]
    bonds: list[Bond] = []

    for i in range(1, n):
        candidates = [k for k in range(i) if capacity[k] >= 1]
        if not candidates or capacity[i] < 1:
            continue  # saturated neighbourhood: this atom starts a new component
        j = rng.choice(candidates)
        order = 1
        if min(capacity[i], capacity[j]) >= 2 and rng.random() < 0.25:
            order = 2
        bonds.append(Bond(min(i, j), max(i, j), float(order)))
        capacity[i] -= order
        capacity[j] -= order

    existing = {(b.i, b.j) for b in bonds}
    if n >= 3 and rng.random() < 0.4:
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in existing and capacity[i] >= 1 and capacity[j] >= 1
        ]
        if pairs:
            i, j = rng.choice(pairs)
            bonds.append(Bond(i, j, 1.0))
    return Molecule(atoms=tuple(atoms), bonds=tuple(bonds))


def permuted(mol: Molecule, rng: random.Random) -> Molecule:
    """Same graph under a random atom reindexing."""
    n = mol.num_atoms
    perm = list(range(n))
    rng.shuffle(perm)
    inverse = [0] * n
    for new, old in enumerate(perm):
        inverse[old] = new
    atoms = tuple(mol.atoms[old] for old in perm)
    bonds = tuple(
        Bond(min(inverse[b.i], inverse[b.j]), max(inverse[b.i], inverse[b.j]), b.order)
        for b in mol.bonds
    )
    return Molecule(atoms=atoms, bonds=bonds)


# --- hand-verified formula table (independent of the parser) ----------------

FORMULAS = {
    "C": {"C": 1, "H": 4},
    "O": {"O": 1, "H": 2},
    "N": {"N": 1, "H": 3},
    "CO": {"C": 1, "O": 1, "H": 4},
    "C=O": {"C": 1, "O": 1, "H": 2},
    "OO": {"O": 2, "H": 2},
    "O=O": {"O": 2},
    "N#N": {"N": 2},
    "O=C=O": {"C": 1, "O": 2},
    "C#N": {"C": 1, "N": 1, "H": 1},
    "[H][H]": {"H": 2},
    "CCO": {"C": 2, "H": 6, "O": 1},
    "COC": {"C": 2, "H": 6, "O": 1},
    "C=C": {"C": 2, "H": 4},
    "C#C": {"C": 2, "H": 2},
    "CC": {"C": 2, "H": 6},
    "CC=O": {"C": 2, "H": 4, "O": 1},
    "CC(=O)O": {"C": 2, "H": 4, "O": 2},
    "CC(=O)OCC": {"C": 4, "H": 8, "O": 2},
    "COC=O": {"C": 2, "H": 4, "O": 2},
    "C(=O)O": {"C": 1, "H": 2, "O": 2},
    "CC(O)O": {"C": 2, "H": 6, "O": 2},
    "CCl": {"C": 1, "H": 3, "Cl": 1},
    "ClCCl": {"C": 1, "H": 2, "Cl": 2},
    "Cl[H]": {"Cl": 1, "H": 1},
    "CC(C)O": {"C": 3, "H": 8, "O": 1},
    "CC(C)=O": {"C": 3, "H": 6, "O": 1},
    "C1CC1": {"C": 3, "H": 6},
    "C1CCCCC1": {"C": 6, "H": 12},
    "c1ccccc1": {"C": 6, "H": 6},
    "Cc1ccccc1": {"C": 7, "H": 8},
    "CN": {"C": 1, "N": 1, "H": 5},
    "CS": {"C": 1, "S": 1, "H": 4},
    "OCC(O)CO": {"C": 3, "H": 8, "O": 3},
    "CCOCC": {"C": 4, "H": 10, "O": 1},
    "CCBr": {"C": 2, "H": 5, "Br": 1},
    "Br[H]": {"Br": 1, "H": 1},
    "CC=C": {"C": 3, "H": 6},
    "CCC": {"C": 3, "H": 8},
}

# balanced reactions over the table, checked by dict arithmetic in the tests
BALANCED_REACTIONS = [
    (["CCO"], ["C=C", "O"]),
    (["CCO"], ["COC"]),
    (["C=C", "O"], ["CCO"]),
    (["CCO", "CC(=O)O"], ["CC(=O)OCC", "O"]),
    (["CO", "C(=O)O"], ["COC=O", "O"]),
    (["C", "O=O", "O=O"], ["O=C=O", "O", "O"]),
    (["O=O", "[H][H]", "[H][H]"], ["O", "O"]),
    (["OO", "OO"], ["O", "O", "O=O"]),
    (["CC=O", "O"], ["CC(O)O"]),
    (["C=C", "[H][H]"], ["CC"]),
    (["C#C", "[H][H]"], ["C=C"]),
    (["CC=C", "[H][H]"], ["CCC"]),
    (["N#N", "[H][H]", "[H][H]", "[H][H]"], ["N", "N"]),
    (["CCl", "O"], ["CO", "Cl[H]"]),
    (["CC(C)O"], ["CC(C)=O", "[H][H]"]),
    (["CCBr", "O"], ["CCO", "Br[H]"]),
    (["c1ccccc1", "C"], ["Cc1ccccc1", "[H][H]"]),
    (["CCOCC", "O"], ["CCO", "CCO"]),
    (["OCC(O)CO"], ["C=O", "C=O", "C=O", "[H][H]"]),
    (["C1CC1"], ["CC=C"]),
]


def formula_sum(smiles_list):
    total: dict[str, int] = {}
    for s in smiles_list:
        for element, count in FORMULAS[s].items():
            total[element] = total.get(element, 0) + count
    return {k: v for k, v in sorted(total.items()) if v}


# --- Monte Carlo IoU oracle --------------------------------------------------


def mc_region_iou(region_a, region_b, samples: int = 1_000_000, seed: int = 0) -> float:
    """Stratified Monte Carlo IoU, independent of the clipping code.

    The samples form a jittered side × side grid over both regions'
    bounds, so each row of samples shares one set of ascending column
    coordinates; a row counts the columns inside each convex polygon's
    x-interval at the row's height with ``searchsorted``.
    """
    pa = np.asarray(polygon_of(region_a), dtype=float)
    pb = np.asarray(polygon_of(region_b), dtype=float)
    xs = np.concatenate([pa[:, 0], pb[:, 0]])
    ys = np.concatenate([pa[:, 1], pb[:, 1]])
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    side = int(round(samples**0.5))
    rng = np.random.default_rng(seed)
    gx = (np.arange(side) + rng.random(side)) / side
    gy = (np.arange(side) + rng.random(side)) / side
    columns = x0 + gx * (x1 - x0)  # ascending
    rows = y0 + gy * (y1 - y0)

    def x_interval(poly):
        """Per row, the [lo, hi] a convex polygon covers (lo > hi where it misses the row)."""
        lo = np.full(side, np.inf)
        hi = np.full(side, -np.inf)
        n = len(poly)
        for k in range(n):
            (ax, ay), (bx, by) = poly[k], poly[(k + 1) % n]
            if ay == by:
                continue  # a horizontal edge's ends are the neighbouring edges' ends
            on = (min(ay, by) <= rows) & (rows <= max(ay, by))
            x = ax + (rows[on] - ay) * (bx - ax) / (by - ay)
            lo[on] = np.minimum(lo[on], x)
            hi[on] = np.maximum(hi[on], x)
        return lo, hi

    def count(lo, hi):
        inside = np.searchsorted(columns, hi, side="right") - np.searchsorted(columns, lo, side="left")
        return int(np.maximum(inside, 0).sum())

    (lo_a, hi_a), (lo_b, hi_b) = x_interval(pa), x_interval(pb)
    both = count(np.maximum(lo_a, lo_b), np.minimum(hi_a, hi_b))
    union = count(lo_a, hi_a) + count(lo_b, hi_b) - both
    if union == 0:
        return 0.0
    return both / union


def random_axis_box(rng: random.Random, limit=1000.0) -> AxisBox:
    x0 = rng.uniform(0, limit * 0.8)
    y0 = rng.uniform(0, limit * 0.8)
    return AxisBox(x0, y0, x0 + rng.uniform(5, limit * 0.2), y0 + rng.uniform(5, limit * 0.2))


def random_quad(rng: random.Random, limit=1000.0) -> OrientedQuad:
    """Random convex quad: a rotated rectangle with mild vertex jitter."""
    cx = rng.uniform(limit * 0.2, limit * 0.8)
    cy = rng.uniform(limit * 0.2, limit * 0.8)
    w = rng.uniform(20, limit * 0.25)
    h = rng.uniform(10, limit * 0.15)
    angle = rng.uniform(0, math.pi)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    corners = [(-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)]
    points = []
    for x, y in corners:
        jitter_x = rng.uniform(-0.05, 0.05) * w
        jitter_y = rng.uniform(-0.05, 0.05) * h
        px = cx + (x + jitter_x) * cos_a - (y + jitter_y) * sin_a
        py = cy + (x + jitter_x) * sin_a + (y + jitter_y) * cos_a
        points.append((px, py))
    return OrientedQuad(tuple(points))


# --- the polygon clip as it was: each vertex's cross recomputed -------------


def reference_clip_convex(subject, clip):
    """Sutherland-Hodgman clipping of one convex CCW polygon by another."""
    from rxnparse.geometry import _EPS, _cross

    output = list(subject)
    n = len(clip)
    for k in range(n):
        if not output:
            return []
        a, b = clip[k], clip[(k + 1) % n]
        current, output = output, []
        for idx in range(len(current)):
            p = current[idx]
            q = current[(idx + 1) % len(current)]
            p_in = _cross(a, b, p) >= -_EPS
            q_in = _cross(a, b, q) >= -_EPS
            if p_in:
                output.append(p)
            if p_in != q_in:
                d1 = _cross(a, b, p)
                d2 = _cross(a, b, q)
                t = d1 / (d1 - d2)
                output.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return output


# --- brute-force matching oracle ---------------------------------------------


def brute_force_max_matching(n_gt: int, n_pred: int, compatible) -> int:
    """Maximum matching size by exhaustive recursion over gt items."""

    def best(g: int, used: frozenset) -> int:
        if g == n_gt:
            return 0
        skip = best(g + 1, used)
        take = 0
        for p in range(n_pred):
            if p not in used and compatible(g, p):
                take = max(take, 1 + best(g + 1, used | {p}))
        return max(skip, take)

    return best(0, frozenset())


def brute_force_assignment(entities, arrows, affinity) -> float:
    """Max total affinity over all entity-to-arrow assignment functions."""
    best = 0.0
    option_lists = []
    for e in entities:
        opts = [(a, affinity[e][a]) for a in arrows if a in affinity.get(e, {})]
        opts.append((None, 0.0))
        option_lists.append(opts)
    for combo in itertools.product(*option_lists):
        best = max(best, sum(value for _arrow, value in combo))
    return best


# --- pairwise references for the vectorised geometry --------------------------
#
# These are the loops the per-document geometry replaced, kept verbatim in
# spirit: one center_distance_normalized call per pair, kNN by sorting each
# row on (distance, index), union-find over every close pair, and one
# matrix-vector product per directed edge in message passing.


def center_distance_normalized(a, b, diagram: AxisBox) -> float:
    """Euclidean centroid distance scaled by the diagram diagonal."""
    diag = diagram.diagonal
    if diag <= 0.0:
        raise ValueError("diagram bounds must have a positive diagonal")
    ax, ay = a.centroid
    bx, by = b.centroid
    return math.hypot(bx - ax, by - ay) / diag


def reference_distances(doc) -> np.ndarray:
    n = len(doc.entities)
    distances = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = center_distance_normalized(
                doc.entities[i].region, doc.entities[j].region, doc.diagram_bounds
            )
            distances[i, j] = distances[j, i] = d
    return distances


def reference_node_features(doc, dim: int) -> np.ndarray:
    """One row per entity: kind one-hot, centroid and box size over the diagram's size, sketch, zero padding."""
    from rxnparse.chem.fingerprint import SKETCH_DIMS
    from rxnparse.entities import KIND_CODES

    width = doc.diagram_bounds.width or 1.0
    height = doc.diagram_bounds.height or 1.0
    rows = []
    for entity in doc.entities:
        kind_onehot = [0.0] * 4
        kind_onehot[KIND_CODES[entity.kind]] = 1.0
        cx, cy = entity.centroid
        box = entity.region if hasattr(entity.region, "width") else entity.region.bounding_box()
        geometry = [cx / width, cy / height, box.width / width, box.height / height]
        sketch = [0.0] * SKETCH_DIMS if entity.molecule is None else list(entity.molecule.sketch)
        row = kind_onehot + geometry + sketch
        rows.append(row + [0.0] * (dim - len(row)))
    return np.asarray(rows, dtype=float) if rows else np.zeros((0, dim))


def reference_edge_feature(doc, i: int, j: int) -> np.ndarray:
    from rxnparse.entities import KIND_CODES

    a, b = doc.entities[i], doc.entities[j]
    diag = doc.diagram_bounds.diagonal or 1.0
    ax, ay = a.centroid
    bx, by = b.centroid
    offset = [(bx - ax) / diag, (by - ay) / diag]
    distance = center_distance_normalized(a.region, b.region, doc.diagram_bounds)
    total = a.region.area + b.region.area
    ratio = a.region.area / total if total > 0 else 0.5
    pair_onehot = [0.0] * 16
    pair_onehot[KIND_CODES[a.kind] * 4 + KIND_CODES[b.kind]] = 1.0
    return np.asarray(offset + [distance, ratio] + pair_onehot, dtype=float)


def reference_nearest(distances, k: int) -> list[list[int]]:
    """Per row, its ``k`` nearest other rows, sorted on (distance, index)."""
    n = len(distances)
    return [sorted((j for j in range(n) if j != i), key=lambda j: (distances[i, j], j))[:k] for i in range(n)]


def reference_spatial_edges(doc, config):
    """(edges, {(i, j): e_ij for both directions of every edge})."""
    n = len(doc.entities)
    distances = reference_distances(doc)
    edge_set = set()
    for i, nearest in enumerate(reference_nearest(distances, config.k_nn)):
        for j in nearest:
            edge_set.add((min(i, j), max(i, j)))
    for i in range(n):
        for j in range(i + 1, n):
            if distances[i, j] <= config.radius:
                edge_set.add((i, j))
    edges = tuple(sorted(edge_set))
    features = {}
    for i, j in edges:
        features[(i, j)] = reference_edge_feature(doc, i, j)
        features[(j, i)] = reference_edge_feature(doc, j, i)
    return edges, features


def reference_edge_rows(doc, edges) -> dict:
    """{(i, j): e_ij} for both directions of every edge, by the array arithmetic that kept one row per
    directed edge: rows follow the adjacency's nonzero entries in row-major order."""
    from rxnparse.reasoning.spatial import EDGE_DIMS

    table, n = doc.table, len(doc.entities)
    adjacency = np.zeros((n, n))
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1.0
    receivers, senders = np.nonzero(adjacency)
    diag = doc.diagram_bounds.diagonal or 1.0
    areas, kinds = table.areas, table.kinds
    total = areas[receivers] + areas[senders]
    rows = np.zeros((len(receivers), EDGE_DIMS))
    rows[:, 0:2] = (np.take(table.centroids, senders, axis=0) - np.take(table.centroids, receivers, axis=0)) / diag
    rows[:, 2] = table.distances[receivers, senders]
    rows[:, 3] = np.divide(areas[receivers], total, out=np.full(len(total), 0.5), where=total > 0)
    rows[np.arange(len(receivers)), 4 + kinds[receivers] * 4 + kinds[senders]] = 1.0
    return dict(zip(zip(receivers.tolist(), senders.tolist()), rows))


def reference_edge_sums(doc, edges) -> np.ndarray:
    """(n, EDGE_DIMS) sums of :func:`reference_edge_rows` per receiver, by one 20-wide ``np.add.reduceat``
    over the receiver-sorted rows."""
    from rxnparse.reasoning.spatial import EDGE_DIMS

    rows = reference_edge_rows(doc, edges)
    receivers = np.array([i for i, _ in rows], dtype=np.intp)
    sums = np.zeros((len(doc.entities), EDGE_DIMS))
    nodes, starts = np.unique(receivers, return_index=True)
    sums[nodes] = np.add.reduceat(np.array(list(rows.values())).reshape(-1, EDGE_DIMS), starts, axis=0)
    return sums


def reference_array_propagate(graph, edge_sums):
    """(features, values) by the matrix arithmetic of message passing over an adjacency rebuilt from the
    graph's edges and the given per-node ``edge_sums``: ``relu((A @ h) @ W1.T + S @ W2.T)`` per layer, then
    one shifted cosine per edge."""
    n = len(graph.node_ids)
    adjacency = np.zeros((n, n))
    adjacency[graph.rows, graph.cols] = adjacency[graph.cols, graph.rows] = 1.0
    h = np.array(graph.features, dtype=float)
    for w1, w2 in zip(graph.weights.w1, graph.weights.w2):
        h = np.maximum((adjacency @ h) @ w1.T + edge_sums @ w2.T, 0.0)
    rows, cols = graph.rows, graph.cols
    norms = np.linalg.norm(h, axis=1)
    zero = (norms[rows] == 0.0) | (norms[cols] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = (h @ h.T)[rows, cols] / (norms[rows] * norms[cols])
    return h, np.where(zero, 0.5, np.clip((1.0 + cosines) / 2.0, 0.0, 1.0))


def reference_propagate(graph, edge_features):
    """(features, scores) by one W1 @ h_j + W2 @ e_ij product per directed edge, ``edge_features``
    keyed by directed pair (i, j)."""
    n = len(graph.node_ids)
    adjacency = [[] for _ in range(n)]
    for i, j in graph.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    h = np.array(graph.features, dtype=float)
    for w1, w2 in zip(graph.weights.w1, graph.weights.w2):
        new_h = np.zeros_like(h)
        for i in range(n):
            total = np.zeros(h.shape[1])
            for j in adjacency[i]:
                total += w1 @ h[j] + w2 @ edge_features[(i, j)]
            new_h[i] = np.maximum(total, 0.0)
        h = new_h
    scores = {}
    for i, j in graph.edges:
        na, nb = float(np.linalg.norm(h[i])), float(np.linalg.norm(h[j]))
        if na == 0.0 or nb == 0.0:
            scores[(i, j)] = 0.5
        else:
            cosine = float(np.dot(h[i], h[j]) / (na * nb))
            scores[(i, j)] = min(1.0, max(0.0, (1.0 + cosine) / 2.0))
    return h, scores


def reference_union_find_groups(n: int, pairs) -> list[list[int]]:
    """Components by union-find; groups in order of their smallest member."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _close_pairs(doc, threshold):
    n = len(doc.entities)
    for i in range(n):
        for j in range(i + 1, n):
            d = center_distance_normalized(
                doc.entities[i].region, doc.entities[j].region, doc.diagram_bounds
            )
            if d < threshold:
                yield i, j


def reference_cluster_entities(doc, config):
    groups = reference_union_find_groups(len(doc.entities), _close_pairs(doc, config.tau_cluster))

    def reading_key(idx: int):  # spelled out, independent of the entity positions
        cx, cy = doc.entities[idx].centroid
        return (cy, cx, doc.entities[idx].id)

    for members in groups:
        members.sort(key=reading_key)
    ordered = sorted(groups, key=lambda members: reading_key(members[0]))
    return tuple(tuple(doc.entities[i].id for i in members) for members in ordered)


def reference_connected_components(fused) -> list[list[str]]:
    """Depth-first components of a fused graph's edges, started from nodes in ``node_ids`` order."""
    adjacency: dict[str, set[str]] = {}
    for edge in fused.edges:
        adjacency.setdefault(edge.source, set()).add(edge.target)
        adjacency.setdefault(edge.target, set()).add(edge.source)
    seen: set[str] = set()
    components: list[list[str]] = []
    for node in fused.node_ids:
        if node not in adjacency or node in seen:
            continue
        stack, members = [node], []
        seen.add(node)
        while stack:
            current = stack.pop()
            members.append(current)
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        members.sort()
        components.append(members)
    return components


def reference_cluster_prompt_variables(cluster, doc, config) -> dict:
    """The prompt as one ``json.dumps``: a pair is an edge when closer than ``tau_cluster`` and a kNN link,
    one end among the other's ``k_nn`` nearest entities of the document."""
    from rxnparse.reasoning.relations import EdgeRelation

    ids = list(cluster)
    position = {e.id: p for p, e in enumerate(doc.entities)}
    distances = reference_distances(doc)
    nearest = reference_nearest(distances, config.k_nn)
    nodes = [entity_to_json(doc.entity(i)) for i in ids]
    edges = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            pa, pb = position[ids[a]], position[ids[b]]
            d = float(distances[pa, pb])  # a Python float, so that round is Python's
            if d < config.tau_cluster and (pb in nearest[pa] or pa in nearest[pb]):
                edges.append(
                    {
                        "source": ids[a],
                        "target": ids[b],
                        "relation": int(EdgeRelation.NO_EDGE),
                        "weight": round(1.0 - d, 6),
                    }
                )
    return {"graph_json": json.dumps({"nodes": nodes, "edges": edges}, sort_keys=True)}


def reference_build_chem_graph(doc, config):
    """Chemistry edges one molecule pair at a time: Python ``tanimoto`` and ``math.exp`` per pair.

    A pair scores ``beta * tanimoto + (1 - beta) * exp(-|dq|)``, the convex
    blend of fingerprint similarity and charge agreement.
    """
    from rxnparse.chem import tanimoto
    from rxnparse.entities import EntityKind
    from rxnparse.reasoning.chemgraph import NEUTRAL_CHEM_SCORE

    molecules = doc.by_kind(EntityKind.MOLECULE)
    charges = {e.id: sum(a.charge for a in e.molecule.atoms) for e in molecules if e.molecule is not None}
    scores = {}
    for i in range(len(molecules)):
        for j in range(i + 1, len(molecules)):
            a, b = molecules[i], molecules[j]
            if a.id in charges and b.id in charges:
                s_fp = tanimoto(a.molecule.fingerprint, b.molecule.fingerprint)
                delta_q = charges[a.id] - charges[b.id]
                value = config.beta * s_fp + (1.0 - config.beta) * math.exp(-abs(delta_q))
            else:
                value = NEUTRAL_CHEM_SCORE
            if value > config.tau_chem:
                scores[(min(a.id, b.id), max(a.id, b.id))] = value
    return chem_graph(doc.table, scores)


def reference_chem_row_blocks(doc, config, block=128):
    """Chemistry edges by the array arithmetic that scored the pair matrix ``block`` rows at a time and
    gathered kept pairs of each block's upper triangle row by row."""
    from rxnparse.chem import FINGERPRINT_WIDTH
    from rxnparse.entities import KIND_CODES, EntityKind
    from rxnparse.reasoning import ChemGraph
    from rxnparse.reasoning.chemgraph import NEUTRAL_CHEM_SCORE

    table = doc.table
    molecules = doc.by_kind(EntityKind.MOLECULE)
    at = np.flatnonzero(table.kinds == KIND_CODES[EntityKind.MOLECULE])
    parsed = np.array([e.molecule is not None for e in molecules], dtype=bool)
    empty = bytes(FINGERPRINT_WIDTH // 8)
    packed = b"".join(
        empty if e.molecule is None else e.molecule.fingerprint.to_bytes(len(empty), "little") for e in molecules
    )
    words = np.frombuffer(packed, dtype="<u8").reshape(len(molecules), len(empty) // 8)
    counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    charges = [0 if e.molecule is None else e.molecule.charge for e in molecules]
    distinct = sorted(set(charges))
    position = {q: k for k, q in enumerate(distinct)}
    charge_codes = np.array([position[q] for q in charges], dtype=np.intp)
    decay = np.array([math.exp(-abs(a - b)) for a in distinct for b in distinct]).reshape(len(distinct), len(distinct))
    rows, cols, values = [at[:0]], [at[:0]], [np.zeros(0)]
    for start in range(0, len(molecules), block):
        rows_here = slice(start, start + block)
        inter = np.bitwise_count(words[rows_here, None, :] & words[None, :, :]).sum(axis=2, dtype=np.int64)
        union = counts[rows_here, None] + counts[None, :] - inter
        s_fp = np.divide(inter, union, out=np.ones(union.shape), where=union > 0)
        scored = config.beta * s_fp + (1.0 - config.beta) * decay[charge_codes[rows_here, None], charge_codes[None, :]]
        scored[~(parsed[rows_here, None] & parsed[None, :])] = NEUTRAL_CHEM_SCORE
        i, j = np.nonzero(np.triu(scored > config.tau_chem, k=start + 1))
        rows.append(at[i + start])
        cols.append(at[j])
        values.append(scored[i, j])
    return ChemGraph(table, np.concatenate(rows), np.concatenate(cols), np.concatenate(values))


# --- the output file as one json.dumps ---------------------------------------


def reference_reactions_to_json(reactions, doc) -> str:
    """The output text as ``json.dumps`` writes the reaction dicts with ``indent=2``."""

    def role(ids) -> list[dict]:
        return [{"label": doc.entity(i).kind.value, "bbox": region_to_array(doc.entity(i).region)} for i in ids]

    reaction_dicts = [
        {
            "reactants": role(r.reactants),
            "products": role(r.products),
            "conditions": role(r.conditions),
            "arrow": role(r.arrows),
        }
        for r in reactions
    ]
    return json.dumps(reaction_dicts, indent=2)


# --- whole-graph references for fusion, inference and post-processing --------
#
# The stages as they were before each learned to walk its input once: fusion
# builds an edge for every candidate and filters afterwards, inference filters
# the whole fused graph per component and again per arrow, and the arrow merge
# restarts its pair scan after every merge, computing both axes per pair.


def reference_fuse(spatial, chem, hypotheses, config):
    from rxnparse.reasoning.chemgraph import NEUTRAL_CHEM_SCORE
    from rxnparse.reasoning.fusion import (
        ABSENT_INIT_SCORE,
        NEUTRAL_SPACE_SCORE,
        FusedEdge,
        FusedGraph,
        fuse_score,
    )
    from rxnparse.reasoning.relations import EdgeRelation

    space_scores = spatial.score_by_ids()
    chem_scores = chem.scores

    def channels(pair):
        return (
            space_scores.get(pair, NEUTRAL_SPACE_SCORE),
            chem_scores.get(pair, NEUTRAL_CHEM_SCORE),
        )

    fused = []
    pairs_with_hypothesis = set()
    for edge in hypotheses.edges:
        pair = (min(edge.source, edge.target), max(edge.source, edge.target))
        pairs_with_hypothesis.add(pair)
        s_space, s_chem = channels(pair)
        score = fuse_score(s_space, s_chem, edge.confidence, config)
        fused.append(
            FusedEdge(edge.source, edge.target, edge.relation, score, s_space, s_chem, edge.confidence)
        )
    structural_pairs = set(space_scores) | set(chem_scores)
    for pair in sorted(structural_pairs - pairs_with_hypothesis):
        s_space, s_chem = channels(pair)
        score = fuse_score(s_space, s_chem, ABSENT_INIT_SCORE, config)
        fused.append(
            FusedEdge(pair[0], pair[1], EdgeRelation.NO_EDGE, score, s_space, s_chem, ABSENT_INIT_SCORE)
        )
    kept = tuple(e for e in fused if e.score > config.tau_fuse)
    return FusedGraph(node_ids=spatial.node_ids, edges=kept)


def _reference_arrow_affinities(component, fused, doc):
    from rxnparse.entities import EntityKind

    members = set(component)
    arrows = sorted(e for e in component if doc.entity(e).kind == EntityKind.ARROW)
    affinity, edges_by_pair = {}, {}
    for edge in fused.edges:
        if edge.source not in members or edge.target not in members:
            continue
        for entity, arrow in ((edge.source, edge.target), (edge.target, edge.source)):
            if arrow in arrows and entity not in arrows:
                affinity.setdefault(entity, {})
                affinity[entity][arrow] = affinity[entity].get(arrow, 0.0) + edge.score
                edges_by_pair.setdefault((entity, arrow), []).append(edge)
    return arrows, affinity, edges_by_pair


def reference_assign_entities_to_arrows(component, fused, doc, config):
    """The ``{entity: arrow}`` assignment, exhaustive within ``exact_search_limit`` and greedy beyond it."""
    arrows, affinity, _ = _reference_arrow_affinities(component, fused, doc)
    entities = sorted(affinity)
    if not arrows or not entities:
        return {}
    if len(component) <= config.exact_search_limit:
        options = [sorted(affinity[e]) for e in entities]
        best, best_total = None, float("-inf")
        for combo in itertools.product(*options):
            total = sum(affinity[e][a] for e, a in zip(entities, combo))
            if total > best_total:
                best_total, best = total, dict(zip(entities, combo))
        return best or {}
    return {entity: max(sorted(affinity[entity]), key=lambda a: affinity[entity][a]) for entity in entities}


def component_assignment(component, fused, doc, config):
    """``inference._best_assignment`` on the affinities of the fused edges inside ``component``,
    and the summed affinity of the assignment it returns."""
    from rxnparse.reasoning.inference import _arrow_affinities, _best_assignment

    members = set(component)
    edges = [e for e in fused.edges if e.source in members and e.target in members]
    _, affinity, _ = _arrow_affinities(component, edges, doc)
    assigned = _best_assignment(affinity, len(component), config)
    return assigned, sum(affinity[e][a] for e, a in assigned.items())


def _reference_finalize_candidate(reactants, products, conditions, arrows, score, component, fused, doc):
    from rxnparse.entities import EntityKind
    from rxnparse.reactions import ConstraintError, Reaction
    from rxnparse.reasoning.relations import EdgeRelation

    conditions = list(conditions)
    reactant_set, product_set = set(reactants), set(products)
    for edge in fused.edges:
        if edge.source not in component or edge.target not in component:
            continue
        if edge.relation == EdgeRelation.REACTANT_TO_COND and edge.source in reactant_set:
            candidate = edge.target
        elif edge.relation == EdgeRelation.COND_TO_PRODUCT and edge.target in product_set:
            candidate = edge.source
        else:
            continue
        if candidate in reactant_set or candidate in product_set or candidate in conditions:
            continue
        if doc.entity(candidate).kind == EntityKind.ARROW:
            continue
        conditions.append(candidate)
        score += edge.score
    if not reactants or not products:
        return None
    try:
        return Reaction(
            reactants=tuple(reactants),
            products=tuple(products),
            conditions=tuple(conditions),
            arrows=tuple(arrows),
            score=score,
        )
    except ConstraintError:
        return None


def _reference_arrowless_candidates(component, fused, doc):
    from rxnparse.reasoning.clustering import connected_groups
    from rxnparse.reasoning.relations import EdgeRelation

    members = set(component)
    r2p = [
        e
        for e in fused.edges
        if e.relation == EdgeRelation.REACTANT_TO_PRODUCT and e.source in members and e.target in members
    ]
    tails = np.array([e.source for e in r2p])
    heads = np.array([e.target for e in r2p])
    shared = (tails[:, None] == tails[None, :]) | (heads[:, None] == heads[None, :])
    reactions = []
    for group in connected_groups(shared):
        sources, targets, score = [], [], 0.0
        for edge in sorted((r2p[i] for i in group), key=lambda e: (e.source, e.target)):
            if edge.source not in sources:
                sources.append(edge.source)
            if edge.target not in targets:
                targets.append(edge.target)
            score += edge.score
        targets = [t for t in targets if t not in sources]
        candidate = _reference_finalize_candidate(sources, targets, [], [], score, component, fused, doc)
        if candidate is not None:
            reactions.append(candidate)
    return reactions


def reference_infer_reactions(fused, doc, config):
    from rxnparse.reasoning.inference import _role_for, connected_components

    def reading_key(entity_id):  # spelled out, independent of the entity positions
        cx, cy = doc.entity(entity_id).centroid
        return (cy, cx, entity_id)

    reactions = []
    for component in connected_components(fused):
        arrows, affinity, edges_by_pair = _reference_arrow_affinities(component, fused, doc)
        if not arrows:
            reactions.extend(_reference_arrowless_candidates(component, fused, doc))
            continue
        assigned = reference_assign_entities_to_arrows(component, fused, doc, config)
        per_arrow = {a: {"reactant": [], "product": [], "condition": []} for a in arrows}
        per_arrow_score = {a: 0.0 for a in arrows}
        for entity_id in sorted(assigned, key=reading_key):
            arrow_id = assigned[entity_id]
            role = _role_for(entity_id, arrow_id, edges_by_pair[(entity_id, arrow_id)], doc)
            per_arrow[arrow_id][role].append(entity_id)
            per_arrow_score[arrow_id] += affinity[entity_id][arrow_id]
        for arrow_id in arrows:
            roles = per_arrow[arrow_id]
            candidate = _reference_finalize_candidate(
                roles["reactant"], roles["product"], roles["condition"], [arrow_id],
                per_arrow_score[arrow_id], component, fused, doc,
            )
            if candidate is not None:
                reactions.append(candidate)
    reactions.sort(key=lambda r: (-r.score, reading_key(r.reactants[0])))
    return reactions


def lateral_distance(point, tail, head) -> float:
    """Perpendicular distance from a point to the tail-to-head line; the arrow merge's lateral gate."""
    dx = head[0] - tail[0]
    dy = head[1] - tail[1]
    length = math.hypot(dx, dy)
    if length <= 0.0:
        return math.dist(point, tail)
    return abs(dx * (point[1] - tail[1]) - dy * (point[0] - tail[0])) / length


def _reference_try_merge(first, second, doc):
    from rxnparse.entities import EntityKind
    from rxnparse.geometry import axis_parameter, principal_axis
    from rxnparse.reactions import ConstraintError, Reaction
    from rxnparse.reasoning.postprocess import (
        _GAP_BAND,
        _MERGE_MAX_ANGLE_DEG,
        _MERGE_MAX_GAP,
        _MERGE_MAX_LATERAL,
    )

    if len(first.arrows) != 1 or len(second.arrows) != 1:
        return None
    a2 = doc.entity(second.arrows[0])
    tail1, head1 = principal_axis(doc.entity(first.arrows[0]).region)
    tail2, head2 = principal_axis(a2.region)
    diag = doc.diagram_bounds.diagonal or 1.0
    v1 = (head1[0] - tail1[0], head1[1] - tail1[1])
    v2 = (head2[0] - tail2[0], head2[1] - tail2[1])
    n1, n2 = math.hypot(*v1), math.hypot(*v2)
    if n1 == 0.0 or n2 == 0.0:
        return None
    if abs((v1[0] * v2[0] + v1[1] * v2[1]) / (n1 * n2)) < math.cos(math.radians(_MERGE_MAX_ANGLE_DEG)):
        return None
    if axis_parameter(a2.centroid, tail1, head1) <= 1.0:
        return None
    if math.dist(head1, tail2) / diag > _MERGE_MAX_GAP:
        return None
    if lateral_distance(a2.centroid, tail1, head1) / diag > _MERGE_MAX_LATERAL:
        return None
    t_gap_start = axis_parameter(head1, tail1, head1)
    t_gap_end = axis_parameter(tail2, tail1, head1)
    lo, hi = min(t_gap_start, t_gap_end), max(t_gap_start, t_gap_end)
    for entity in doc.entities:
        if entity.kind == EntityKind.ARROW:
            continue
        t = axis_parameter(entity.centroid, tail1, head1)
        if lo < t < hi and lateral_distance(entity.centroid, tail1, head1) / diag < _GAP_BAND:
            return None

    def union(a, b):
        out = list(a)
        for item in b:
            if item not in out:
                out.append(item)
        return out

    reactants = union(first.reactants, second.reactants)
    products = [p for p in union(first.products, second.products) if p not in reactants]
    conditions = [
        c for c in union(first.conditions, second.conditions) if c not in reactants and c not in products
    ]
    if not reactants or not products:
        return None
    try:
        return Reaction(
            reactants=tuple(reactants),
            products=tuple(products),
            conditions=tuple(conditions),
            arrows=tuple(union(first.arrows, second.arrows)),
            score=first.score + second.score,
        )
    except ConstraintError:
        return None


def reference_merge_collinear_arrows(reactions, doc):
    """Merge the first mergeable (i, j) pair, then rescan from the start."""
    reactions = list(reactions)
    changed = True
    while changed:
        changed = False
        for i in range(len(reactions)):
            for j in range(len(reactions)):
                if i == j:
                    continue
                merged = _reference_try_merge(reactions[i], reactions[j], doc)
                if merged is not None:
                    reactions = [r for k, r in enumerate(reactions) if k not in (i, j)] + [merged]
                    changed = True
                    break
            if changed:
                break
    return reactions


# --- all-pairs evaluation and resolution oracles -----------------------------


def reference_score(gt, pred, criterion="hard", threshold=0.5, polygon=True):
    """The predicate on every gt × pred pair, one lexicographic matching over the whole graph."""
    from rxnparse.evaluation import MatchReport, _CRITERIA, _prf

    predicate = _CRITERIA[criterion]
    adjacency = [
        [p for p in range(len(pred)) if predicate(pred[p], gt[g], threshold, polygon)]
        for g in range(len(gt))
    ]
    pairs = reference_lexicographic_matching(len(gt), len(pred), adjacency)
    precision, recall, f1 = _prf(len(gt), len(pred), len(pairs))
    return MatchReport(
        criterion=criterion,
        precision=precision,
        recall=recall,
        f1=f1,
        matched_pairs=tuple(pairs),
        gt_count=len(gt),
        pred_count=len(pred),
        matched=len(pairs),
    )


def reference_kuhn_max_matching(n_left, n_right, adjacency):
    """Kuhn's augmenting-path search by recursion, one call per step of a path."""
    match_right = {}

    def try_assign(left, seen):
        for right in adjacency[left]:
            if right in seen:
                continue
            seen.add(right)
            if right not in match_right or try_assign(match_right[right], seen):
                match_right[right] = left
                return True
        return False

    for left in range(n_left):
        try_assign(left, set())
    return {left: right for right, left in match_right.items()}


def reference_lexicographic_matching(n_gt, n_pred, adjacency):
    """The lexicographic matching by a new maximum matching for every tried pair."""
    from rxnparse.evaluation import MatchingInvariantError

    def max_size(rows, banned_right):
        adj = [[r for r in rows[i] if r not in banned_right] for i in range(len(rows))]
        return len(reference_kuhn_max_matching(len(rows), n_pred, adj))

    target = max_size(adjacency, set())
    pairs = []
    used_right = set()
    remaining = list(range(n_gt))
    for gt_index in range(n_gt):
        remaining = [i for i in remaining if i != gt_index]
        chosen = None
        for pred_index in adjacency[gt_index]:
            if pred_index in used_right:
                continue
            rest_rows = [adjacency[i] for i in remaining]
            rest = max_size(rest_rows, used_right | {pred_index})
            if len(pairs) + 1 + rest == target:
                chosen = pred_index
                break
        if chosen is not None:
            pairs.append((gt_index, chosen))
            used_right.add(chosen)
        else:
            rest_rows = [adjacency[i] for i in remaining]
            # skipping this gt must still reach the target
            if len(pairs) + max_size(rest_rows, used_right) != target:
                raise MatchingInvariantError(f"skipping gt {gt_index} loses a pair of the maximum {target}")
    return pairs


def _reference_by_slot(reactions, criterion):
    """Each reaction's member count per (role, kind) slot the criterion
    compares, and per slot the owning reaction and region of every member."""
    from rxnparse.evaluation import _SCREENED

    roles, kind = _SCREENED[criterion]
    shapes, by_slot = [], {}
    for owner, reaction in enumerate(reactions):
        counts = {}
        for role in roles:
            for member in getattr(reaction, role):
                if kind is None or member.kind == kind:
                    slot = (role, member.kind)
                    owners, regions = by_slot.setdefault(slot, ([], []))
                    owners.append(owner)
                    regions.append(member.region)
                    counts[slot] = counts.get(slot, 0) + 1
        shapes.append(tuple(sorted(counts.items())))
    return shapes, by_slot


def reference_coords_bounds(coords, polygon=True) -> np.ndarray:
    """The bounds of coordinate tuples, 4 or 8 floats each, gathered by length as the tuple path did."""
    sizes = set(map(len, coords))
    if 8 not in sizes:
        return np.array(coords, dtype=float).reshape(-1, 4)
    unbounded = (-math.inf, -math.inf, math.inf, math.inf)
    if polygon and 4 not in sizes:
        return np.array([unbounded] * len(coords)).reshape(-1, 4)
    quad = np.fromiter(map(len, coords), np.intp, len(coords)) == 8
    bounds = np.empty((len(coords), 4))
    bounds[~quad] = np.array([c for c in coords if len(c) == 4], dtype=float).reshape(-1, 4)
    if polygon:
        bounds[quad] = unbounded
    else:
        xy = np.array([c for c in coords if len(c) == 8], dtype=float).reshape(-1, 4, 2)
        bounds[quad] = np.concatenate((xy.min(axis=1), xy.max(axis=1)), axis=1)
    return bounds


def reference_slot_members(reactions, criterion, polygon):
    """The per-criterion gather the member columns replaced: the members the criterion compares, each
    one's reaction, slot (its role's place in the criterion's roles times the kind count, plus its kind
    code) and bounds; and per reaction, its member count per slot and whether the screen can decide it
    (one member per slot, none unbounded)."""
    from rxnparse.entities import KIND_CODES
    from rxnparse.evaluation import _SCREENED

    roles, kind = _SCREENED[criterion]
    n_slots = len(roles) * len(KIND_CODES)
    role_slots = [(role, r * len(KIND_CODES)) for r, role in enumerate(roles)]
    found = [
        (owner, first + KIND_CODES[member.kind], member.coords)
        for owner, reaction in enumerate(reactions)
        for role, first in role_slots
        for member in getattr(reaction, role)
        if kind is None or member.kind is kind
    ]
    owners, slots, coords = zip(*found) if found else ((), (), ())
    owners, slots = np.array(owners, dtype=np.int64), np.array(slots, dtype=np.int64)
    bounds = reference_coords_bounds(coords, polygon)
    counts = np.bincount(owners * n_slots + slots, minlength=len(reactions) * n_slots).reshape(-1, n_slots)
    decidable = counts.max(axis=1, initial=0) <= 1
    decidable[owners[np.isinf(bounds[:, 0])]] = False
    return owners, slots, bounds, counts, decidable


def member_rows(members):
    """The kind codes and coordinate rows of :class:`BoxedMember` values, as member columns hold them."""
    from rxnparse.entities import KIND_CODES
    from rxnparse.geometry import coords_from_arrays

    return np.array([KIND_CODES[m.kind] for m in members], dtype=np.int64), coords_from_arrays([m.coords for m in members])[0]


def resolve_members(members, doc) -> dict:
    """``member -> entity id or ResolutionError``: ``_resolve`` of the members' rows."""
    from rxnparse.reactions import _resolve

    return dict(zip(members, _resolve(*member_rows(members), doc)))


def table_screen_members(table, kind, members):
    """``_table_screen`` of members of ``kind``: their box rows, or for arrows their quads."""
    from rxnparse.entities import EntityKind
    from rxnparse.reactions import _table_screen

    if kind == EntityKind.ARROW:
        return _table_screen(table, kind, [m.region for m in members])
    return _table_screen(table, kind, np.array([m.coords for m in members], dtype=float).reshape(-1, 4))


def regions_bounds(regions, polygon=True) -> np.ndarray:
    """``coords_bounds`` of regions, through the rows ``coords_from_arrays`` gives their coordinates."""
    from rxnparse.geometry import coords_bounds, coords_from_arrays, region_coords

    return coords_bounds(coords_from_arrays([region_coords(r) for r in regions])[0], polygon)


def wire_reactions(reactions) -> list:
    """The wire-format array of :class:`BoxedReaction` values: each member's label and its coordinates."""
    keys = ("reactants", "products", "conditions", "arrow")
    roles = ("reactants", "products", "conditions", "arrows")
    return [
        {key: [{"label": m.kind.value, "bbox": list(m.coords)} for m in getattr(r, role)] for key, role in zip(keys, roles)}
        for r in reactions
    ]


def reference_screened_pairs(gt, pred, criterion, polygon):
    """The bounds-only screen: (gt, pred) pairs, ascending, left after dropping
    those whose per-slot member counts differ or in which some pred member has
    no gt member of its slot with intersecting bounds. Every pair left goes to
    the predicate."""
    from rxnparse.evaluation import _runs
    from rxnparse.geometry import bounds_overlap, region_coords

    def bounds(regions):
        return reference_coords_bounds([region_coords(r) for r in regions], polygon)

    gt_shapes, gt_by = _reference_by_slot(gt, criterion)
    pred_shapes, pred_by = _reference_by_slot(pred, criterion)
    shape_ids = {}
    gt_shape = np.array([shape_ids.setdefault(s, len(shape_ids)) for s in gt_shapes], dtype=np.int64)
    pred_shape = np.array([shape_ids.setdefault(s, len(shape_ids)) for s in pred_shapes], dtype=np.int64)
    counts = np.array([sum(n for _, n in s) for s in pred_shapes], dtype=np.int64)

    stride, n_pred = max(int(counts.sum()), 1), max(len(pred), 1)
    keys = [np.empty(0, dtype=np.int64)]  # gt * stride + pred member, one per screened member pair
    member_owner = []  # pred member -> pred reaction
    for slot, (pred_owners, pred_regions) in pred_by.items():
        if slot in gt_by:
            gt_owners, gt_regions = gt_by[slot]
            rows, cols = bounds_overlap(bounds(gt_regions), bounds(pred_regions))
            keys.append(np.array(gt_owners)[rows] * stride + len(member_owner) + cols)
        member_owner.extend(pred_owners)
    g, member = np.divmod(_runs(np.sort(np.concatenate(keys)))[0], stride)
    pair_keys, partnered = _runs(np.sort(g * n_pred + np.array(member_owner, dtype=np.int64)[member]))
    g, p = np.divmod(pair_keys, n_pred)
    keep = (partnered == counts[p]) & (gt_shape[g] == pred_shape[p])
    # a pred reaction without compared members pairs with every gt of its shape
    bare = np.flatnonzero(counts == 0)
    bare_g, bare_k = np.nonzero(gt_shape[:, None] == pred_shape[bare][None, :])
    g, p = np.divmod(np.sort(np.concatenate([pair_keys[keep], bare_g * n_pred + bare[bare_k]])), n_pred)
    return list(zip(g.tolist(), p.tolist()))


def reference_matching_by_component(n_gt, adjacency):
    """The lexicographic matching per connected component of a dense (gt + pred)² matrix, every node grouped."""
    from rxnparse.reasoning.clustering import connected_groups

    gts = [g for g in range(n_gt) if adjacency[g]]
    preds = sorted({p for g in gts for p in adjacency[g]})
    node = {p: len(gts) + k for k, p in enumerate(preds)}
    linked = np.zeros((len(gts) + len(preds),) * 2, dtype=bool)
    for row, g in enumerate(gts):
        for p in adjacency[g]:
            linked[row, node[p]] = linked[node[p], row] = True
    pairs = []
    for group in connected_groups(linked):
        group_gts = [gts[i] for i in group if i < len(gts)]
        group_preds = [preds[i - len(gts)] for i in group if i >= len(gts)]
        local = {p: k for k, p in enumerate(group_preds)}
        rows = [[local[p] for p in adjacency[g]] for g in group_gts]
        for g, p in reference_lexicographic_matching(len(group_gts), len(group_preds), rows):
            pairs.append((group_gts[g], group_preds[p]))
    return sorted(pairs)


def reference_resolve_region(kind, region, doc):
    """Best-IoU entity of ``kind`` over every entity of the document; ties to the smaller id."""
    from rxnparse.geometry import region_iou, region_to_array
    from rxnparse.reactions import RESOLVE_IOU, ResolutionError

    best = None
    best_iou = 0.0
    for entity in doc.entities:
        if entity.kind != kind:
            continue
        iou = region_iou(entity.region, region)
        if best is None or iou > best_iou or (iou == best_iou and entity.id < best.id):
            best, best_iou = entity, iou
    if best is None or best_iou < RESOLVE_IOU:
        raise ResolutionError(
            f"no {kind.value} entity matches bbox {region_to_array(region)} "
            f"at IoU >= {RESOLVE_IOU} (best {best_iou:.3f})"
        )
    return best


def reference_parse_combiner_response(raw, doc):
    """The reply parser that grounds each item as it reaches it, by :func:`reference_resolve_region`."""
    from rxnparse.entities import EntityKind
    from rxnparse.geometry import region_from_array
    from rxnparse.reactions import ConstraintError, Reaction, ResolutionError, ResponseFormatError

    member_kinds = (EntityKind.MOLECULE, EntityKind.IDENTIFIER, EntityKind.TEXT)

    def parse_role(items, kind_field, allow_kinds):
        if not isinstance(items, list):
            raise ResponseFormatError("reaction roles must be arrays")
        resolved = []
        for item in items:
            if not isinstance(item, dict) or "label" not in item or "bbox" not in item:
                raise ResponseFormatError("reaction items need 'label' and 'bbox'")
            try:
                kind = EntityKind(item["label"])
            except ValueError:
                raise ResponseFormatError(f"unknown label {item['label']!r}") from None
            if kind not in allow_kinds:
                raise ResponseFormatError(f"label {kind.value!r} not allowed in {kind_field}")
            bbox = item["bbox"]
            expected = 8 if kind == EntityKind.ARROW else 4
            if not isinstance(bbox, list) or len(bbox) != expected:
                raise ResponseFormatError(f"{kind.value} bbox must have {expected} numbers, got {bbox!r}")
            try:
                region = region_from_array(bbox)
            except (TypeError, ValueError) as exc:
                raise ResponseFormatError(f"bad bbox {bbox!r}: {exc}") from None
            entity = reference_resolve_region(kind, region, doc)
            if entity.id not in resolved:
                resolved.append(entity.id)
        return tuple(resolved)

    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ResponseFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ResponseFormatError("expected a JSON array of reactions")
    reactions = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise ResponseFormatError(f"reaction {i} is not an object")
        missing = [k for k in ("reactants", "products", "conditions", "arrow") if k not in obj]
        if missing:
            raise ResponseFormatError(f"reaction {i} is missing keys {missing}")
        try:
            reactants = parse_role(obj["reactants"], "reactants", member_kinds)
            products = parse_role(obj["products"], "products", member_kinds)
            conditions = parse_role(obj["conditions"], "conditions", member_kinds)
            arrows = parse_role(obj["arrow"], "arrow", (EntityKind.ARROW,))
        except (ResponseFormatError, ResolutionError) as exc:
            raise type(exc)(f"reaction {i}: {exc}") from None
        if not reactants or not products:
            raise ConstraintError(f"reaction {i}: reactants and products must not be empty")
        confidence = obj.get("confidence", 1.0)
        if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
            raise ResponseFormatError(f"reaction {i}: confidence must be a number")
        if not 0.0 <= confidence <= 1.0:
            raise ResponseFormatError(f"reaction {i}: confidence {confidence!r} is not in [0, 1]")
        try:
            reactions.append(Reaction(reactants, products, conditions, arrows, float(confidence)))
        except ConstraintError as exc:
            raise ConstraintError(f"reaction {i}: {exc}") from None
    return reactions


def reference_boxed_reactions_from_list(data):
    """The reaction loader that builds and checks each member's region as it reaches it."""
    from rxnparse.entities import EntityKind
    from rxnparse.geometry import region_from_array
    from rxnparse.reactions import BoxedMember, BoxedReaction, ResponseFormatError

    def boxed_role(items):
        if not isinstance(items, list):
            raise ResponseFormatError("reaction roles must be arrays")
        members = []
        for item in items:
            if not isinstance(item, dict) or "label" not in item or "bbox" not in item:
                raise ResponseFormatError("reaction items need 'label' and 'bbox'")
            try:
                kind = EntityKind(item["label"])
            except ValueError:
                raise ResponseFormatError(f"unknown label {item['label']!r}") from None
            try:
                region = region_from_array(item["bbox"])
            except (TypeError, ValueError) as exc:
                raise ResponseFormatError(f"bad bbox {item['bbox']!r}: {exc}") from None
            members.append(BoxedMember(kind=kind, region=region))
        return tuple(members)

    if not isinstance(data, list):
        raise ResponseFormatError("expected a JSON array of reactions")
    reactions = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict):
            raise ResponseFormatError(f"reaction {i} is not an object")
        missing = [k for k in ("reactants", "products", "conditions", "arrow") if k not in obj]
        if missing:
            raise ResponseFormatError(f"reaction {i} is missing keys {missing}")
        try:
            reactions.append(
                BoxedReaction(
                    reactants=boxed_role(obj["reactants"]),
                    products=boxed_role(obj["products"]),
                    conditions=boxed_role(obj["conditions"]),
                    arrows=boxed_role(obj["arrow"]),
                )
            )
        except ResponseFormatError as exc:
            raise ResponseFormatError(f"reaction {i}: {exc}") from None
    return reactions


# --- the per-item loops that grounding, the arrow merge, condition attachment and kNN replaced -------
#
# Reply grounding screened one reply arrow per numpy pass and ran the exact
# region_iou on every screened pair, boxes included; the arrow merge ran its
# gates pair by pair and scanned the gap over every centroid in the padded
# gap box; condition attachment scanned every condition edge per candidate;
# kNN sorted every row of the distance matrix.


def reference_clip_may_meet(hull_x, hull_y, clip):
    """The quad screen of one clip polygon: False for each subject hull its first step clips to nothing."""
    from rxnparse.geometry import _EPS

    ax, ay, ex, ey = np.array(
        [(a[0], a[1], b[0] - a[0], b[1] - a[1]) for a, b in zip(clip, clip[1:] + clip[:1])]
    ).T[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        inside = (ex * (hull_y - ay) - ey * (hull_x - ax) >= -_EPS).view(np.uint32)
    first = np.argmin(inside == 0x01010101, axis=0)
    return inside[first, np.arange(len(first))] != 0


def reference_table_screen(table, kind, queries):
    """The entity-table screen, one reply arrow per numpy pass."""
    from rxnparse.entities import KIND_CODES, EntityKind
    from rxnparse.geometry import bounds_overlap

    rows = np.flatnonzero(table.kinds == KIND_CODES[kind])
    if kind == EntityKind.ARROW:
        hull_x, hull_y = table.hulls[..., 0].ravel(), table.hulls[..., 1].ravel()
        meet = np.array([reference_clip_may_meet(hull_x, hull_y, query.region.hull) for query in queries], dtype=bool)
        found, cols = np.nonzero(meet.reshape(len(queries), len(rows)).T)
    else:
        found, cols = bounds_overlap(table.bounds[rows], np.array([query.coords for query in queries]))
    return rows[found], cols


def reference_resolve(members, doc) -> dict:
    """``member -> entity id or ResolutionError``: the exact region_iou on every screened pair, one by one."""
    from rxnparse.geometry import region_iou
    from rxnparse.reactions import RESOLVE_IOU, ResolutionError

    by_kind: dict = {}
    for member in members:
        by_kind.setdefault(member.kind, {}).setdefault(member, None)
    resolved = {}
    for kind, queries in by_kind.items():
        queries = list(queries)
        best: list = [None] * len(queries)
        best_iou = [0.0] * len(queries)
        for i, j in zip(*(a.tolist() for a in reference_table_screen(doc.table, kind, queries))):
            entity = doc.entities[i]
            iou = region_iou(entity.region, queries[j].region)
            if best[j] is None or iou > best_iou[j] or (iou == best_iou[j] and entity.id < best[j].id):
                best[j], best_iou[j] = entity, iou
        for query, entity, iou in zip(queries, best, best_iou):
            if entity is None or iou < RESOLVE_IOU:
                resolved[query] = ResolutionError(
                    f"no {kind.value} entity matches bbox {region_to_array(query.region)} "
                    f"at IoU >= {RESOLVE_IOU} (best {iou:.3f})"
                )
            else:
                resolved[query] = entity.id
    return resolved


def reference_one_pass_merge(reactions, doc):
    """The one-pass arrow merge with its gates run pair by pair and the gap scanned point by point."""
    from rxnparse.entities import EntityKind
    from rxnparse.geometry import axis_parameter, principal_axis
    from rxnparse.reactions import reaction_or_none
    from rxnparse.reasoning.postprocess import _GAP_BAND, _MERGE_MAX_GAP, _MERGE_MAX_LATERAL, _MERGE_MIN_COS

    diag = doc.diagram_bounds.diagonal or 1.0
    axes = {}
    for i, reaction in enumerate(reactions):
        if len(reaction.arrows) == 1:
            arrow = doc.entity(reaction.arrows[0])
            tail, head = principal_axis(arrow.region)
            v = (head[0] - tail[0], head[1] - tail[1])
            n = math.hypot(*v)
            if n != 0.0:
                axes[i] = (tail, head, v, n, arrow.centroid)
    centroids = [e.centroid for e in doc.entities if e.kind != EntityKind.ARROW]

    def gap_is_empty(axis1, tail2):
        tail1, head1, v1, _, _ = axis1
        t_gap_start = axis_parameter(head1, tail1, head1)
        t_gap_end = axis_parameter(tail2, tail1, head1)
        lo, hi = min(t_gap_start, t_gap_end), max(t_gap_start, t_gap_end)
        (x0, y0), (x1, y1) = ((tail1[0] + t * v1[0], tail1[1] + t * v1[1]) for t in (lo, hi))
        pad = _GAP_BAND * diag + 1e-9 * (abs(x0) + abs(y0) + abs(x1) + abs(y1) + diag)
        x_lo, x_hi = min(x0, x1) - pad, max(x0, x1) + pad
        y_lo, y_hi = min(y0, y1) - pad, max(y0, y1) + pad
        for point in centroids:
            if not (x_lo <= point[0] <= x_hi and y_lo <= point[1] <= y_hi):
                continue
            t = axis_parameter(point, tail1, head1)
            if lo < t < hi and lateral_distance(point, tail1, head1) / diag < _GAP_BAND:
                return False
        return True

    used = [False] * len(reactions)
    merged = []
    for i, axis1 in axes.items():
        if used[i]:
            continue
        tail1, head1, v1, n1, _ = axis1
        for j, (tail2, _, v2, n2, centroid2) in axes.items():
            if used[j] or j == i:
                continue
            if abs((v1[0] * v2[0] + v1[1] * v2[1]) / (n1 * n2)) < _MERGE_MIN_COS:
                continue
            if axis_parameter(centroid2, tail1, head1) <= 1.0:
                continue
            if math.dist(head1, tail2) / diag > _MERGE_MAX_GAP:
                continue
            if lateral_distance(centroid2, tail1, head1) / diag > _MERGE_MAX_LATERAL:
                continue
            first, second = reactions[i], reactions[j]
            combined = None
            if gap_is_empty(axis1, tail2):
                combined = reaction_or_none(
                    first.reactants + second.reactants,
                    first.products + second.products,
                    first.conditions + second.conditions,
                    first.arrows + second.arrows,
                    first.score + second.score,
                )
            if combined is not None:
                used[i] = used[j] = True
                merged.append(combined)
                break
    return [r for r, u in zip(reactions, used) if not u] + merged


def reference_finalize_candidate(reactants, products, conditions, arrows, score, condition_edges, doc):
    """Condition attachment by a scan of the component's condition edges, in edge order."""
    from rxnparse.entities import EntityKind
    from rxnparse.reactions import reaction_or_none
    from rxnparse.reasoning.relations import EdgeRelation

    conditions = list(conditions)
    reactant_set = set(reactants)
    product_set = set(products) - reactant_set
    taken = reactant_set | product_set | set(conditions)
    for edge in condition_edges:
        if edge.relation == EdgeRelation.REACTANT_TO_COND and edge.source in reactant_set:
            candidate = edge.target
        elif edge.relation == EdgeRelation.COND_TO_PRODUCT and edge.target in product_set:
            candidate = edge.source
        else:
            continue
        if candidate in taken or doc.entity(candidate).kind == EntityKind.ARROW:
            continue
        conditions.append(candidate)
        taken.add(candidate)
        score += edge.score
    return reaction_or_none(reactants, products, conditions, arrows, score)


def reference_knn_links(distances, k: int) -> np.ndarray:
    """Symmetric kNN links from a stable argsort of each row, the row's own index removed."""
    n = len(distances)
    order = np.argsort(distances, axis=1, kind="stable")
    nearest = order[order != np.arange(n)[:, None]].reshape(n, max(n - 1, 0))[:, :k]
    links = np.zeros((n, n), dtype=bool)
    links[np.repeat(np.arange(n), nearest.shape[1]), nearest.ravel()] = True
    return links | links.T
