"""
Full pipeline on a mock backend
===============================

Build a small detection file, record the combiner agent's answer as a
fixture, and run plan -> graphs -> fusion -> inference -> post-process.
The mock backend makes the whole run reproducible: same inputs, same
fixtures, byte-identical outputs.
"""

import json
import tempfile
from pathlib import Path

from rxnparse.agents import MockAgentClient
from rxnparse.entities import load_document
from rxnparse.pipeline import PipelineConfig, run_document
from rxnparse.reactions import reactions_to_json
from rxnparse.reasoning.clustering import cluster_entities
from rxnparse.reasoning.hypotheses import COMBINER_ROLE, cluster_prompt_variables
from rxnparse.render import render_svg

# One esterification row: ethanol + acetic acid -> ethyl acetate (+ water,
# drawn as a second product), with conditions above and below the arrow.
detection = {
    "image": "esterification.png",
    "width": 1800,
    "height": 420,
    "layout": "single_line",
    "entities": [
        {"id": "etoh", "label": "molecule", "bbox": [40, 120, 300, 290], "smiles": "CCO"},
        {"id": "acoh", "label": "molecule", "bbox": [340, 120, 600, 290], "smiles": "CC(=O)O"},
        {"id": "cond", "label": "text", "bbox": [700, 80, 960, 130], "text": "H2SO4"},
        {"id": "temp", "label": "text", "bbox": [720, 260, 940, 305], "text": "reflux"},
        {"id": "arr", "label": "arrow", "bbox": [660, 215, 1010, 213, 1010, 190, 660, 192],
         "direction": "forward"},
        {"id": "ester", "label": "molecule", "bbox": [1060, 120, 1400, 290], "smiles": "CC(=O)OCC"},
        {"id": "water", "label": "molecule", "bbox": [1450, 140, 1600, 270], "smiles": "O"},
    ],
}
doc = load_document(json.dumps(detection))

# Record what the combiner agent would answer for each entity cluster.
answer = json.dumps(
    [
        {
            "reactants": [
                {"label": "molecule", "bbox": [40, 120, 300, 290]},
                {"label": "molecule", "bbox": [340, 120, 600, 290]},
            ],
            "products": [
                {"label": "molecule", "bbox": [1060, 120, 1400, 290]},
                {"label": "molecule", "bbox": [1450, 140, 1600, 270]},
            ],
            "conditions": [
                {"label": "text", "bbox": [700, 80, 960, 130]},
                {"label": "text", "bbox": [720, 260, 940, 305]},
            ],
            "arrow": [{"label": "arrow", "bbox": [660, 215, 1010, 213, 1010, 190, 660, 192]}],
        }
    ]
)

# Fixtures and outputs go to a temporary directory, removed when the block ends.
with tempfile.TemporaryDirectory(prefix="rxnparse_demo_") as tmp:
    workdir = Path(tmp)
    config = PipelineConfig(fixtures_dir=str(workdir), output_dir=str(workdir))
    client = MockAgentClient(workdir)
    table = doc.table  # held for the loop, so every cluster's prompt reads the one entity table
    for cluster in cluster_entities(doc, config.reasoning):
        client.store(COMBINER_ROLE, cluster_prompt_variables(cluster, doc, config.reasoning), answer)

    outcome = run_document(doc, config, client)
    print("plan:", " -> ".join(outcome.plan.steps))
    for reaction in outcome.reactions:
        print("reaction:")
        print("  reactants: ", reaction.reactants)
        print("  products:  ", reaction.products)
        print("  conditions:", reaction.conditions)
        print("  arrows:    ", reaction.arrows)
        print("  balance:   ", reaction.conservation.value)
        print("  score:     ", round(reaction.score, 3))

    out_json = workdir / "esterification.reactions.json"
    out_json.write_text(reactions_to_json(outcome.reactions, doc) + "\n")
    out_svg = workdir / "esterification.svg"
    out_svg.write_text(render_svg(doc, outcome.reactions))
    print(f"\nwrote {out_json.name} ({out_json.stat().st_size} bytes) and {out_svg.name} ({out_svg.stat().st_size} bytes)")
