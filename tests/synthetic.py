"""Synthetic document batches with complete mock-agent fixture sets.

Each generated document carries its ground-truth reactions; fixtures are
recorded so the combiner agent answers every cluster with exactly the
ground-truth reactions that fall inside it. Four layout families cover
the single-line / multiple-line / tree / graph spectrum.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from rxnparse.agents import MockAgentClient
from rxnparse.config import ReasoningConfig
from rxnparse.entities import load_document
from rxnparse.geometry import region_to_array
from rxnparse.reasoning import COMBINER_ROLE, cluster_entities, cluster_prompt_variables

SMILES_POOL = ["CCO", "C=C", "CC", "CCC", "CC=O", "CC(C)O", "CO", "C1CC1", "c1ccccc1"]
CONDITION_POOL = ["H2SO4", "ferric chloride", "NaOH", "reflux", "rt", "Pd/C"]


def _entity(eid, label, bbox, **extra):
    return {"id": eid, "label": label, "bbox": bbox, **extra}


def _box(x, y, w=160, h=110):
    return [round(x), round(y), round(x + w), round(y + h)]


def _arrow(x0, x1, y, thickness=22):
    return [
        round(x0),
        round(y + thickness),
        round(x1),
        round(y + thickness - 2),
        round(x1),
        round(y - 2),
        round(x0),
        round(y),
    ]


def _row(rng, eid_prefix, y, x0=40):
    """One reaction row; returns (entities, gt_reaction_by_id)."""
    r_smiles = rng.choice(SMILES_POOL)
    p_smiles = rng.choice(SMILES_POOL)
    entities = [
        _entity(f"{eid_prefix}r", "molecule", _box(x0, y + 60), smiles=r_smiles),
        _entity(
            f"{eid_prefix}c1",
            "text",
            _box(x0 + 420, y, w=200, h=46),
            text=rng.choice(CONDITION_POOL),
        ),
        _entity(f"{eid_prefix}a", "arrow", _arrow(x0 + 360, x0 + 760, y + 110), direction="forward"),
        _entity(f"{eid_prefix}p", "molecule", _box(x0 + 820, y + 60), smiles=p_smiles),
    ]
    reaction = {
        "reactants": [f"{eid_prefix}r"],
        "products": [f"{eid_prefix}p"],
        "conditions": [f"{eid_prefix}c1"],
        "arrow": [f"{eid_prefix}a"],
    }
    return entities, reaction


def _single_line(rng, index):
    entities, reaction = _row(rng, "s", 140 + rng.randint(-30, 30))
    if index % 2 == 0:
        # an identifier tied to the reactant exercises substitution
        entities.append(
            _entity("sid", "identifier", _box(60, 320, w=60, h=40), text="1a", resolves_to="sr")
        )
    return {"width": 1400, "height": 520, "layout": "single_line", "entities": entities}, [reaction]


def _multiple_line(rng, index):
    top, r1 = _row(rng, "u", 200)
    bottom, r2 = _row(rng, "v", 1900)
    return (
        {"width": 1400, "height": 2400, "layout": "multiple_line", "entities": top + bottom},
        [r1, r2],
    )


def _tree(rng, index):
    root = rng.choice(SMILES_POOL)
    entities = [
        _entity("troot", "molecule", _box(60, 540), smiles=root),
        _entity("ta1", "arrow", _arrow(300, 640, 420), direction="forward"),
        _entity("ta2", "arrow", _arrow(300, 640, 820), direction="forward"),
        _entity("tp1", "molecule", _box(700, 300), smiles=rng.choice(SMILES_POOL)),
        _entity("tp2", "molecule", _box(700, 820), smiles=rng.choice(SMILES_POOL)),
        _entity("tc", "text", _box(330, 330, w=170, h=40), text=rng.choice(CONDITION_POOL)),
    ]
    reactions = [
        {"reactants": ["troot"], "products": ["tp1"], "conditions": ["tc"], "arrow": ["ta1"]},
        {"reactants": ["troot"], "products": ["tp2"], "conditions": [], "arrow": ["ta2"]},
    ]
    return {"width": 1400, "height": 1300, "layout": "tree", "entities": entities}, reactions


def _graph(rng, index):
    entities = [
        _entity("ga", "molecule", _box(40, 140), smiles=rng.choice(SMILES_POOL)),
        _entity("gx1", "arrow", _arrow(260, 560, 200), direction="forward"),
        _entity("gb", "molecule", _box(620, 140), smiles=rng.choice(SMILES_POOL)),
        _entity("gx2", "arrow", _arrow(840, 1140, 200), direction=rng.choice(["forward", "reversible"])),
        _entity("gc", "molecule", _box(1200, 140), smiles=rng.choice(SMILES_POOL)),
        _entity("gt1", "text", _box(300, 120, w=160, h=40), text=rng.choice(CONDITION_POOL)),
    ]
    reactions = [
        {"reactants": ["ga"], "products": ["gb"], "conditions": ["gt1"], "arrow": ["gx1"]},
        {"reactants": ["gb"], "products": ["gc"], "conditions": [], "arrow": ["gx2"]},
    ]
    return {"width": 1500, "height": 520, "layout": "graph", "entities": entities}, reactions


# condition texts that need JSON escapes: a quote, a backslash, non-ASCII
ESCAPED_CONDITIONS = ['H2O "wet"', "Pd\\C", "80 °C", "rt → reflux", "Ni/Al₂O₃"]


def grid_scheme(rows: int = 6, columns: int = 4, seed: int = 7):
    """One large document: ``rows x columns`` reaction cells on a grid, four entities each.

    Ids are ``r{row}c{column}`` plus a role suffix, so their string order
    differs from reading order once there are ten rows or columns, and the
    condition texts need JSON escapes. Returns (detection, GT reactions by id).
    """
    rng = random.Random(seed)
    entities, reactions = [], []
    for row in range(rows):
        for column in range(columns):
            cell, reaction = _row(rng, f"r{row}c{column}", 40 + 260 * row, x0=40 + 1000 * column)
            cell[1]["text"] = rng.choice(ESCAPED_CONDITIONS)
            entities += cell
            reactions.append(reaction)
    detection = {"width": 40 + 1000 * columns, "height": 300 + 260 * rows, "layout": "graph", "entities": entities}
    return detection, reactions


_BUILDERS = {
    "single_line": _single_line,
    "multiple_line": _multiple_line,
    "tree": _tree,
    "graph": _graph,
}


def _reaction_json(reaction_ids, doc):
    def items(ids):
        out = []
        for eid in ids:
            entity = doc.entity(eid)
            out.append({"label": entity.kind.value, "bbox": region_to_array(entity.region)})
        return out

    return {
        "reactants": items(reaction_ids["reactants"]),
        "products": items(reaction_ids["products"]),
        "conditions": items(reaction_ids["conditions"]),
        "arrow": items(reaction_ids["arrow"]),
    }


def scaled(detection: dict, factor: float) -> dict:
    """``detection`` with its width, height and every bbox coordinate multiplied by ``factor``."""
    entities = [{**entity, "bbox": [v * factor for v in entity["bbox"]]} for entity in detection["entities"]]
    return {**detection, "width": detection["width"] * factor, "height": detection["height"] * factor,
            "entities": entities}


def build_corpus(
    root: Path, per_layout: int = 5, seed: int = 2024, config: ReasoningConfig | None = None, scale: float = 1.0
):
    """Write detection files and matching fixtures under ``root``.

    Every coordinate of the documents, and so of the stored replies, is
    multiplied by ``scale``. Returns (detection paths, ground-truth
    corpus entries). Ground truth is a list of {"id", "layout",
    "reactions"} dicts in the wire format.
    """
    config = config or ReasoningConfig()
    rng = random.Random(seed)
    detections_dir = root / "detections"
    fixtures_dir = root / "fixtures"
    detections_dir.mkdir(parents=True, exist_ok=True)
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    client = MockAgentClient(fixtures_dir)

    paths = []
    gt_entries = []
    for layout, builder in _BUILDERS.items():
        for index in range(per_layout):
            name = f"{layout}_{index:02d}"
            detection, gt_reactions = builder(rng, index)
            if scale != 1.0:
                detection = scaled(detection, scale)
            detection["image"] = f"{name}.png"
            doc = load_document(json.dumps(detection))

            for cluster in cluster_entities(doc, config):
                members = set(cluster)
                inside = [
                    _reaction_json(r, doc)
                    for r in gt_reactions
                    if all(
                        eid in members
                        for role in ("reactants", "products", "conditions", "arrow")
                        for eid in r[role]
                    )
                ]
                variables = cluster_prompt_variables(cluster, doc, config)
                client.store(COMBINER_ROLE, variables, json.dumps(inside))

            path = detections_dir / f"{name}.json"
            path.write_text(json.dumps(detection, indent=1), encoding="utf-8")
            paths.append(path)
            gt_entries.append(
                {
                    "id": f"{name}.png",
                    "layout": layout,
                    "reactions": [_reaction_json(r, doc) for r in gt_reactions],
                }
            )
    return paths, gt_entries
