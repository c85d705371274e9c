"""
Agent routing
=============

The planner maps a user query plus cheap diagram statistics to an
ordered plan over the four expert roles. The rule policy keeps runs
deterministic and offline; a VLM policy can take over via the agent
client, answering in the same JSON wire format.
"""

import json

from rxnparse.entities import load_document
from rxnparse.planner import extract_features, plan_to_json, route

detection = {
    "width": 1400,
    "height": 400,
    "entities": [
        {"id": "m1", "label": "molecule", "bbox": [40, 120, 420, 300], "smiles": "CCO"},
        {"id": "m2", "label": "molecule", "bbox": [950, 120, 1330, 300], "smiles": "C=C"},
        {"id": "t1", "label": "text", "bbox": [520, 60, 860, 110], "text": "H2SO4"},
        {"id": "a1", "label": "arrow", "bbox": [500, 230, 900, 228, 900, 205, 500, 207],
         "direction": "forward"},
    ],
}
doc = load_document(json.dumps(detection))

features = extract_features(doc)
print("entity counts:    ", features.kind_counts)
print()

for query in (
    "extract all reactions",
    "convert molecule to SMILES",
    "read the SMILES and the conditions",
    "tell me something interesting",
):
    plan = route(query, features)
    print(f"{query!r}")
    print("  steps:", " -> ".join(plan.steps))
    print("  wire: ", plan_to_json(plan))
