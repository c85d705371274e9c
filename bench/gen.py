"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed and the program's own
clustering and prompt code (which key the mock-agent fixtures), so the
same seed on the same code writes identical bytes. The program sees
only what is written here: detection files and fixtures for the parse
workloads, reaction files for ``eval-corpus``. Ground truth and the
counts known by construction go into ``inputs.json`` beside them.

Layout families follow the single-line / multiple-line / tree / graph
spectrum of the repository's test corpus. Document sizes sit on a fixed
log-spaced grid, so every seed runs the same size mix and only the
content varies; that keeps throughput comparable between seeds. A
workload has at least 100 documents, so one pass gives enough latencies
for p90, and their distribution is smooth: a percentile never sits on the
edge between two clumps of repeated documents.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from collections import Counter
from pathlib import Path

SMILES_POOL = ["CCO", "C=C", "CC", "CCC", "CC=O", "CC(C)O", "CO", "C1CC1", "c1ccccc1", "CC(=O)O", "CN", "OCCO"]
CONDITION_POOL = ["H2SO4", "ferric chloride", "NaOH", "reflux", "rt", "Pd/C", "THF", "HCl", "K2CO3, DMF"]
LAYOUTS = ("single_line", "multiple_line", "tree", "graph")
ROLES = ("reactants", "products", "conditions", "arrow")

PARSE_SMALL_PER_LAYOUT = 25
PARSE_LARGE_DOCS = 105
PARSE_LARGE_ENTITIES = (40, 240)
EVAL_DOCS = 105
EVAL_REACTIONS = (2, 200)
IMPERFECT_EVERY = 5
SCREENING_SHARE = 0.3

WORKLOADS = ("parse-small", "parse-large", "eval-corpus")


def log_grid(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes at the mid-quantiles of a log-uniform draw on [lo, hi]."""
    ratio = hi / lo
    return [round(lo * ratio ** ((i + 0.5) / count)) for i in range(count)]


def _box(x, y, w=160, h=110):
    return [round(x), round(y), round(x + w), round(y + h)]


def _arrow(x0, x1, y, thickness=22):
    return [round(x0), round(y + thickness), round(x1), round(y + thickness - 2),
            round(x1), round(y - 2), round(x0), round(y)]


def _entity(eid, label, bbox, **extra):
    return {"id": eid, "label": label, "bbox": bbox, **extra}


def _reaction(reactants, products, conditions=(), arrow=()):
    return {"reactants": list(reactants), "products": list(products),
            "conditions": list(conditions), "arrow": list(arrow)}


def _row(rng, prefix, x0, y, extra_condition=False):
    """One reaction motif: reactant, condition text, arrow, product."""
    entities = [
        _entity(f"{prefix}r", "molecule", _box(x0, y + 60), smiles=rng.choice(SMILES_POOL)),
        _entity(f"{prefix}c", "text", _box(x0 + 420, y, w=200, h=46), text=rng.choice(CONDITION_POOL)),
        _entity(f"{prefix}a", "arrow", _arrow(x0 + 360, x0 + 760, y + 110), direction="forward"),
        _entity(f"{prefix}p", "molecule", _box(x0 + 820, y + 60), smiles=rng.choice(SMILES_POOL)),
    ]
    conditions = [f"{prefix}c"]
    if extra_condition:
        entities.append(_entity(f"{prefix}d", "text", _box(x0 + 440, y + 150, w=160, h=40),
                                text=rng.choice(CONDITION_POOL)))
        conditions.append(f"{prefix}d")
    return entities, _reaction([f"{prefix}r"], [f"{prefix}p"], conditions, [f"{prefix}a"])


# --- parse-small: the four layout families, 5-12 entities each ------------
# A family's structural variant is fixed by the document's index, so every
# seed runs the same mix; the seed picks payloads, offsets and order.

_SINGLE_LINE_EXTRAS = (
    {"identifier"}, {"second_reactant"}, {"extra_condition"}, {"identifier", "second_reactant"},
    {"identifier", "extra_condition"}, {"second_reactant", "extra_condition"},
)


def _single_line(rng, variant):
    x0 = 40
    extras = _SINGLE_LINE_EXTRAS[variant % len(_SINGLE_LINE_EXTRAS)]
    entities = []
    reactants = []
    if "second_reactant" in extras:
        entities.append(_entity("sq", "molecule", _box(x0, 200), smiles=rng.choice(SMILES_POOL)))
        reactants.append("sq")
        x0 += 200
    row, reaction = _row(rng, "s", x0, 140 + rng.randint(-30, 30), "extra_condition" in extras)
    entities += row
    reaction["reactants"] = reactants + reaction["reactants"]
    if "identifier" in extras:
        entities.append(_entity("sid", "identifier", _box(x0 + 20, 330, w=60, h=40),
                                text="1a", resolves_to="sr"))
    width = x0 + 1100
    return {"width": width, "height": 520, "entities": entities}, [reaction]


def _multiple_line(rng, variant):
    rows = 2 + variant % 2
    entities, reactions = [], []
    for k in range(rows):
        row, reaction = _row(rng, f"m{k}", 40, 200 + 1700 * k, k == variant // 2 % 3)
        entities += row
        reactions.append(reaction)
    return {"width": 1400, "height": 700 + 1700 * rows, "entities": entities}, reactions


def _tree(rng, variant):
    branches = 2 + variant % 2
    height = 500 + 380 * branches
    root_y = height / 2 - 55
    entities = [_entity("troot", "molecule", _box(60, root_y), smiles=rng.choice(SMILES_POOL))]
    reactions = []
    for k in range(branches):
        y = 200 + 380 * k
        entities.append(_entity(f"ta{k}", "arrow", _arrow(300, 640, y + 110), direction="forward"))
        entities.append(_entity(f"tp{k}", "molecule", _box(700, y + 60), smiles=rng.choice(SMILES_POOL)))
        conditions = []
        if k == 0 or (variant // 2 + k) % 2 == 0:
            entities.append(_entity(f"tc{k}", "text", _box(330, y + 20, w=170, h=40),
                                    text=rng.choice(CONDITION_POOL)))
            conditions.append(f"tc{k}")
        reactions.append(_reaction(["troot"], [f"tp{k}"], conditions, [f"ta{k}"]))
    return {"width": 1400, "height": round(height), "entities": entities}, reactions


def _graph(rng, variant):
    steps = 2 + variant % 2
    entities = [_entity("g0", "molecule", _box(40, 140), smiles=rng.choice(SMILES_POOL))]
    reactions = []
    for k in range(steps):
        x = 40 + 580 * k
        direction = "forward" if k == 0 else rng.choice(["forward", "reversible"])
        entities.append(_entity(f"gx{k}", "arrow", _arrow(x + 220, x + 520, 200), direction=direction))
        entities.append(_entity(f"g{k + 1}", "molecule", _box(x + 580, 140), smiles=rng.choice(SMILES_POOL)))
        conditions = []
        if k == 0 or (variant // 2 + k) % 2 == 0:
            entities.append(_entity(f"gt{k}", "text", _box(x + 260, 120, w=160, h=40),
                                    text=rng.choice(CONDITION_POOL)))
            conditions.append(f"gt{k}")
        reactions.append(_reaction([f"g{k}"], [f"g{k + 1}"], conditions, [f"gx{k}"]))
    return {"width": 40 + 580 * steps + 300, "height": 520, "entities": entities}, reactions


_SMALL_FAMILIES = {"single_line": _single_line, "multiple_line": _multiple_line, "tree": _tree, "graph": _graph}


# --- parse-large: grids of row motifs, one block or 2-4 separated blocks --

_MOTIF_W, _MOTIF_H = 1100, 260


def _grid_block(rng, motifs, columns, prefix):
    entities, reactions = [], []
    for k in range(motifs):
        row, col = divmod(k, columns)
        ents, reaction = _row(rng, f"{prefix}{k}", col * _MOTIF_W, row * _MOTIF_H)
        entities += ents
        reactions.append(reaction)
    return entities, reactions, columns * _MOTIF_W, math.ceil(motifs / columns) * _MOTIF_H


def _scheme(rng, entity_count, blocks):
    """A multi-step scheme of ``entity_count // 4`` row motifs in ``blocks`` blocks.

    Blocks sit on a 1x2 or 2x2 arrangement. A gap of 2.2 block sizes keeps
    them apart under single-link clustering at the default ``tau_cluster``
    (0.35 of the diagram diagonal).
    """
    motifs = entity_count // 4
    per_block = [motifs // blocks + (1 if b < motifs % blocks else 0) for b in range(blocks)]
    columns = 2 if motifs <= 24 else 3
    built = [_grid_block(rng, n, min(columns, n), f"b{b}m") for b, n in enumerate(per_block)]
    block_w = max(w for _, _, w, _ in built)
    block_h = max(h for _, _, _, h in built)
    gap = 0 if blocks == 1 else round(2.2 * max(block_w, block_h))
    entities, reactions = [], []
    for b, (ents, reacts, _, _) in enumerate(built):
        row, col = divmod(b, 2)
        dx, dy = col * (block_w + gap), row * (block_h + gap)
        for entity in ents:
            entity["bbox"] = [v + (dx if i % 2 == 0 else dy) for i, v in enumerate(entity["bbox"])]
        entities += ents
        reactions += reacts
    cols, rows = min(blocks, 2), math.ceil(blocks / 2)
    width = cols * block_w + (cols - 1) * gap + 80
    height = rows * block_h + (rows - 1) * gap + 80
    layout = "graph" if blocks == 1 else "multiple_line"
    return {"width": width, "height": height, "layout": layout, "entities": entities}, reactions


# --- agent replies -------------------------------------------------------


def _same(a, b):
    return a["reactants"] == b["reactants"] and a["products"] == b["products"]


def _reply(rng, inside, flaw):
    """GT reactions of one cluster, made imperfect when ``flaw`` is set.

    Imperfect replies stay well-formed and inside their cluster: either one
    reaction is ``missing``, or one ``extra`` reaction links neighbouring
    rows (or, with a single reaction, reads it backwards).
    """
    reply = [dict(r) for r in inside]
    if flaw is None:
        return reply
    if flaw == "missing" and len(inside) > 1:
        del reply[rng.randrange(len(reply))]
        return reply
    k = rng.randrange(len(inside))
    base = inside[k]
    extra = None
    if len(inside) > 1:
        nxt = inside[(k + 1) % len(inside)]
        candidate = _reaction(base["products"], nxt["products"], (), nxt["arrow"])
        if not set(candidate["reactants"]) & set(candidate["products"]) and not any(
            _same(candidate, r) for r in inside
        ):
            extra = candidate
    if extra is None:
        extra = _reaction(base["products"], base["reactants"], (), base["arrow"])
    extra["confidence"] = round(rng.uniform(0.3, 0.8), 3)
    reply.append(extra)
    return reply


def _to_wire(reaction, boxes):
    out = {role: [boxes[eid] for eid in reaction[role]] for role in ROLES}
    if "confidence" in reaction:
        out["confidence"] = reaction["confidence"]
    return out


def _write_parse_docs(root: Path, docs, rng) -> dict:
    """Write detection files, per-cluster fixtures and ``inputs.json``."""
    from rxnparse.agents import MockAgentClient
    from rxnparse.config import ReasoningConfig
    from rxnparse.entities import load_document
    from rxnparse.reasoning import COMBINER_ROLE, cluster_entities, cluster_prompt_variables

    config = ReasoningConfig()
    detections = root / "detections"
    detections.mkdir(parents=True, exist_ok=True)
    client = MockAgentClient(root / "fixtures")
    loaded = []
    replies = []  # (document number, cluster, GT reactions inside it)
    for number, (name, layout, detection, gt) in enumerate(docs):
        detection["image"] = f"{name}.png"
        detection.setdefault("layout", layout)
        doc = load_document(json.dumps(detection))
        clusters = cluster_entities(doc, config)
        boxes = {x["id"]: {"label": x["label"], "bbox": x["bbox"]} for x in detection["entities"]}
        loaded.append((doc, clusters, boxes))
        for cluster in clusters:
            members = set(cluster)
            inside = [r for r in gt if all(eid in members for role in ROLES for eid in r[role])]
            replies.append((number, cluster, inside))
    # every fifth answering cluster, in build order, gets an imperfect reply
    answering = [i for i, (_, _, inside) in enumerate(replies) if inside]
    chosen = answering[IMPERFECT_EVERY - 1 :: IMPERFECT_EVERY]
    flaws = {i: ("missing", "extra")[k % 2] for k, i in enumerate(chosen)}

    for i, (number, cluster, inside) in enumerate(replies):
        doc, _, boxes = loaded[number]
        reply = _reply(rng, inside, flaws.get(i))
        variables = cluster_prompt_variables(cluster, doc, config)
        client.store(COMBINER_ROLE, variables, json.dumps([_to_wire(r, boxes) for r in reply]))

    entries = []
    stats = {"entities": [], "clusters": [], "largest_cluster": []}
    for (name, layout, detection, gt), (doc, clusters, boxes) in zip(docs, loaded):
        path = detections / f"{name}.json"
        path.write_text(json.dumps(detection, indent=1), encoding="utf-8")
        entries.append({
            "name": name,
            "layout": layout,
            "detection": str(path.relative_to(root)),
            "gt": [_to_wire(r, boxes) for r in gt],
        })
        stats["entities"].append(len(doc.entities))
        stats["clusters"].append(len(clusters))
        stats["largest_cluster"].append(max(len(c) for c in clusters))
    rng.shuffle(entries)  # run order
    properties = {
        "documents": len(entries),
        "entities_min_median_max": [min(stats["entities"]), statistics.median(stats["entities"]), max(stats["entities"])],
        "clusters_per_doc_mean": round(statistics.fmean(stats["clusters"]), 3),
        "multi_cluster_doc_share": round(sum(c > 1 for c in stats["clusters"]) / len(entries), 3),
        "largest_cluster_median": statistics.median(stats["largest_cluster"]),
        "imperfect_reply_share": round(len(flaws) / len(answering), 3),
        "layout_share": {layout: round(n / len(entries), 3)
                         for layout, n in sorted(Counter(e["layout"] for e in entries).items())},
    }
    return {"kind": "parse", "documents": entries, "properties": properties}


def parse_small(root: Path, seed: int) -> dict:
    rng = random.Random(f"parse-small:{seed}")
    docs = []
    for index in range(PARSE_SMALL_PER_LAYOUT):
        for layout in LAYOUTS:
            detection, gt = _SMALL_FAMILIES[layout](rng, index)
            docs.append((f"{layout}_{index:02d}", layout, detection, gt))
    return _write_parse_docs(root, docs, rng)


def parse_large(root: Path, seed: int) -> dict:
    rng = random.Random(f"parse-large:{seed}")
    sizes = log_grid(*PARSE_LARGE_ENTITIES, PARSE_LARGE_DOCS)
    docs = []
    for index, size in enumerate(sizes):
        # every third size is split into 2, 3 or 4 separated blocks
        blocks = 2 + index // 3 % 3 if index % 3 == 0 else 1
        detection, gt = _scheme(rng, size, blocks)
        layout = f"blocks_{blocks}"
        docs.append((f"scheme_{index:02d}", layout, detection, gt))
    return _write_parse_docs(root, docs, rng)


# --- eval-corpus: ground truth plus perturbed predictions ----------------

_CELL_W, _CELL_H = 1200, 420
# outcome -> (hard match, soft match), known by construction
OUTCOMES = {"keep": (1, 1), "condition_off": (0, 1), "molecule_off": (0, 0), "dropped": (0, 0)}
_OUTCOME_WEIGHTS = {"keep": 0.6, "condition_off": 0.15, "molecule_off": 0.1, "dropped": 0.15}


def _jitter(rng, bbox, frac=0.04):
    """Translate a box by at most ``frac`` of its size: IoU stays above 0.8."""
    xs, ys = bbox[0::2], bbox[1::2]
    dx = round(rng.uniform(-frac, frac) * (max(xs) - min(xs)))
    dy = round(rng.uniform(-frac, frac) * (max(ys) - min(ys)))
    return [v + (dx if i % 2 == 0 else dy) for i, v in enumerate(bbox)]


def _push(bbox):
    """Shift a box right by 70% of its width: IoU with the original is 0.18."""
    dx = round(0.7 * (bbox[2] - bbox[0]))
    return [bbox[0] + dx, bbox[1], bbox[2] + dx, bbox[3]]


def _item(label, bbox):
    return {"label": label, "bbox": bbox}


def _exact_counts(count, weights) -> list[str]:
    """``count`` labels in the given proportions (largest remainder)."""
    raw = {k: w * count for k, w in weights.items()}
    counts = {k: int(v) for k, v in raw.items()}
    for k in sorted(raw, key=lambda k: counts[k] - raw[k])[: count - sum(counts.values())]:
        counts[k] += 1
    return [k for k, n in counts.items() for _ in range(n)]


def _eval_doc(shape, rng, count):
    """One document: GT reactions in grid cells, screening groups sharing a cell.

    Shares of screening reactions and of each outcome are exact per
    document. ``shape`` draws what sets the matching work (group sizes,
    which reaction gets which outcome, prediction order) and depends on the
    document's place in the size grid only, so every seed does the same
    work; ``rng`` draws the seeded jitter and perturbations.
    """
    grouped = round(SCREENING_SHARE * count)
    grouped = grouped if grouped >= 2 else 0
    groups = []
    while grouped > 0:
        size = shape.randint(2, 5)
        size = grouped if grouped - size < 2 else size
        groups.append(size)
        grouped -= size
    groups += [1] * (count - sum(groups))
    shape.shuffle(groups)
    planned = _exact_counts(count, _OUTCOME_WEIGHTS)
    shape.shuffle(planned)
    columns = max(1, math.ceil(math.sqrt(len(groups))))
    gt, pred, outcomes = [], [], []
    for g, size in enumerate(groups):
        row, col = divmod(g, columns)
        x, y = col * _CELL_W, row * _CELL_H
        reactant = _box(x + 20, y + 170)
        product = _box(x + 820, y + 170)
        arrow = _arrow(x + 260, x + 700, y + 240)
        for k in range(size):
            outcome = planned[len(gt)]
            conditions = []
            if size > 1 or outcome == "condition_off" or shape.random() < 0.7:
                conditions.append(_box(x + 330, y + 10 + 44 * k, w=200, h=38))
            reaction = {
                "reactants": [_item("molecule", reactant)],
                "products": [_item("molecule", product)],
                "conditions": [_item("text", c) for c in conditions],
                "arrow": [_item("arrow", arrow)],
            }
            gt.append(reaction)
            outcomes.append(outcome)
            if outcome == "dropped":
                continue
            guess = {role: [_item(i["label"], _jitter(rng, i["bbox"])) for i in reaction[role]] for role in ROLES}
            if outcome == "condition_off":
                if rng.random() < 0.5:
                    guess["conditions"][0]["bbox"] = _push(conditions[0])
                else:
                    del guess["conditions"][0]
            elif outcome == "molecule_off":
                side = rng.choice(["reactants", "products"])
                guess[side][0]["bbox"] = _push(reaction[side][0]["bbox"])
            pred.append(guess)
    # spurious predictions in an empty strip below the grid
    rows = math.ceil(len(groups) / columns)
    for k in range(max(1, round(0.1 * count))):
        x, y = (k % columns) * _CELL_W, (rows + 1 + k // columns) * _CELL_H
        pred.append({
            "reactants": [_item("molecule", _box(x + 20, y + 170))],
            "products": [_item("molecule", _box(x + 820, y + 170))],
            "conditions": [],
            "arrow": [_item("arrow", _arrow(x + 260, x + 700, y + 240))],
        })
    shape.shuffle(pred)
    return gt, pred, outcomes, groups


def eval_corpus(root: Path, seed: int) -> dict:
    rng = random.Random(f"eval-corpus:{seed}")
    docs_dir = root / "reactions"
    docs_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    in_groups = compatible = total_gt = 0
    outcome_counts = {name: 0 for name in OUTCOMES}
    sizes = log_grid(*EVAL_REACTIONS, EVAL_DOCS)
    for index, count in enumerate(sizes):
        name = f"corpus_{index:03d}"
        gt, pred, outcomes, groups = _eval_doc(random.Random(f"eval-corpus-shape:{index}"), rng, count)
        gt_path = docs_dir / f"{name}.gt.json"
        pred_path = docs_dir / f"{name}.pred.json"
        gt_path.write_text(json.dumps(gt, indent=1), encoding="utf-8")
        pred_path.write_text(json.dumps(pred, indent=1), encoding="utf-8")
        expected = {
            "hard": sum(OUTCOMES[o][0] for o in outcomes),
            "soft": sum(OUTCOMES[o][1] for o in outcomes),
        }
        entries.append({
            "name": name,
            "layout": LAYOUTS[index % len(LAYOUTS)],
            "gt": str(gt_path.relative_to(root)),
            "pred": str(pred_path.relative_to(root)),
            "gt_count": len(gt),
            "pred_count": len(pred),
            "expected_matched": expected,
        })
        # soft-compatible predictions per GT reaction: the soft-valid
        # predictions of its own screening group (or itself)
        start = 0
        for size in groups:
            valid = sum(OUTCOMES[o][1] for o in outcomes[start:start + size])
            compatible += size * valid
            in_groups += size if size > 1 else 0
            start += size
        total_gt += len(gt)
        for o in outcomes:
            outcome_counts[o] += 1
    rng.shuffle(entries)  # run order
    properties = {
        "documents": len(entries),
        "reactions_min_median_max": [min(sizes), statistics.median(sizes), max(sizes)],
        "screening_share": round(in_groups / total_gt, 3),
        "soft_compatible_per_gt": round(compatible / total_gt, 3),
        "outcome_share": {k: round(v / total_gt, 3) for k, v in outcome_counts.items()},
    }
    return {"kind": "eval", "documents": entries, "properties": properties}


GENERATORS = {"parse-small": parse_small, "parse-large": parse_large, "eval-corpus": eval_corpus}


def generate(workload: str, root: Path, seed: int) -> dict:
    """Write one workload's inputs under ``root``; returns and saves the index."""
    index = GENERATORS[workload](root, seed)
    (root / "inputs.json").write_text(json.dumps(index, indent=1, sort_keys=True), encoding="utf-8")
    return index
