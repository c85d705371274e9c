"""Shared test utilities: builders, random generators, independent oracles.

Oracles here are deliberately independent of the library's computation
paths: Monte Carlo IoU rasterizes, matching enumerates, assignment
enumerates, molecule formulas come from a hand-verified table, and the
vectorised per-document geometry is checked against pairwise loops.
"""

from __future__ import annotations

import itertools
import json
import random

import numpy as np

from rxnparse.chem import Atom, Bond, Molecule, VALENCES
from rxnparse.entities import load_document
from rxnparse.geometry import AxisBox, OrientedQuad, center_distance_normalized, polygon_of


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
    """Stratified Monte Carlo IoU, independent of the clipping code."""
    pa = np.asarray(polygon_of(region_a))
    pb = np.asarray(polygon_of(region_b))
    xs = np.concatenate([pa[:, 0], pb[:, 0]])
    ys = np.concatenate([pa[:, 1], pb[:, 1]])
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    side = int(round(samples**0.5))
    rng = np.random.default_rng(seed)
    gx = (np.arange(side) + rng.random(side)) / side
    gy = (np.arange(side) + rng.random(side)) / side
    px = (x0 + gx * (x1 - x0))[None, :].repeat(side, axis=0).ravel()
    py = (y0 + gy * (y1 - y0))[:, None].repeat(side, axis=1).ravel()

    def inside(poly):
        ok = np.ones(px.shape, dtype=bool)
        n = len(poly)
        for k in range(n):
            ax, ay = poly[k]
            bx, by = poly[(k + 1) % n]
            cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            ok &= cross >= 0
        return ok

    in_a = inside(pa)
    in_b = inside(pb)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def random_axis_box(rng: random.Random, limit=1000.0) -> AxisBox:
    x0 = rng.uniform(0, limit * 0.8)
    y0 = rng.uniform(0, limit * 0.8)
    return AxisBox(x0, y0, x0 + rng.uniform(5, limit * 0.2), y0 + rng.uniform(5, limit * 0.2))


def random_quad(rng: random.Random, limit=1000.0) -> OrientedQuad:
    """Random convex quad: a rotated rectangle with mild vertex jitter."""
    import math

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


def reference_edge_feature(doc, i: int, j: int) -> np.ndarray:
    from rxnparse.reasoning.spatial import _KIND_INDEX

    a, b = doc.entities[i], doc.entities[j]
    diag = doc.diagram_bounds.diagonal or 1.0
    ax, ay = a.centroid
    bx, by = b.centroid
    offset = [(bx - ax) / diag, (by - ay) / diag]
    distance = center_distance_normalized(a.region, b.region, doc.diagram_bounds)
    total = a.region.area + b.region.area
    ratio = a.region.area / total if total > 0 else 0.5
    pair_onehot = [0.0] * 16
    pair_onehot[_KIND_INDEX[a.kind] * 4 + _KIND_INDEX[b.kind]] = 1.0
    return np.asarray(offset + [distance, ratio] + pair_onehot, dtype=float)


def reference_spatial_edges(doc, config):
    """(edges, {(i, j): e_ij for both directions of every edge})."""
    n = len(doc.entities)
    distances = reference_distances(doc)
    edge_set = set()
    for i in range(n):
        order = sorted(range(n), key=lambda j: (distances[i, j], j))
        for j in [j for j in order if j != i][: config.k_nn]:
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


def edge_feature_dict(graph) -> dict:
    """The rows of ``graph.edge_features`` keyed by directed pair (i, j)."""
    directed = sorted(list(graph.edges) + [(j, i) for i, j in graph.edges])
    return dict(zip(directed, graph.edge_features))


def reference_propagate(graph, layers=None):
    """(features, scores) by one W1 @ h_j + W2 @ e_ij product per directed edge."""
    n = len(graph.node_ids)
    steps = graph.weights.layers if layers is None else layers
    features = edge_feature_dict(graph)
    adjacency = [[] for _ in range(n)]
    for i, j in graph.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    h = np.array(graph.features, dtype=float)
    for layer in range(steps):
        w1 = graph.weights.w1[layer % graph.weights.layers]
        w2 = graph.weights.w2[layer % graph.weights.layers]
        new_h = np.zeros_like(h)
        for i in range(n):
            total = np.zeros(h.shape[1])
            for j in adjacency[i]:
                total += w1 @ h[j] + w2 @ features[(i, j)]
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

    def reading_key(idx: int):  # spelled out, independent of Entity.reading_key
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
    from rxnparse.entities import entity_to_json
    from rxnparse.reasoning.relations import EdgeRelation

    ids = list(cluster)
    nodes = [entity_to_json(doc.entity(i)) for i in ids]
    edges = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            d = center_distance_normalized(
                doc.entity(ids[a]).region, doc.entity(ids[b]).region, doc.diagram_bounds
            )
            if d < config.tau_cluster:
                edges.append(
                    {
                        "source": ids[a],
                        "target": ids[b],
                        "relation": int(EdgeRelation.NO_EDGE),
                        "weight": round(1.0 - d, 6),
                    }
                )
    return {"graph_json": json.dumps({"nodes": nodes, "edges": edges}, sort_keys=True)}
