"""
Hard and soft matching
======================

Reactions match entity-by-entity at IoU strictly above 0.5. The hard
criterion requires reactants, conditions and products to all pair up
one-to-one; the soft criterion looks only at molecule-kind reactants
and products. Dropping a condition box therefore breaks hard match but
leaves soft match intact.
"""

import json
import tempfile
from pathlib import Path

from rxnparse.entities import EntityKind
from rxnparse.evaluation import (
    CorpusDocument,
    load_corpus,
    reaction_matches_hard,
    reaction_matches_soft,
    report_table,
    score_corpus,
)
from rxnparse.geometry import AxisBox
from rxnparse.reactions import BoxedMember, BoxedReaction


def member(kind, x, y, w=120, h=90):
    return BoxedMember(kind=EntityKind(kind), region=AxisBox(x, y, x + w, y + h))


ground_truth = BoxedReaction(
    reactants=(member("molecule", 40, 120),),
    products=(member("molecule", 1000, 120),),
    conditions=(member("text", 500, 40, w=150, h=40),),
)

# Prediction 1: perfect localization.
perfect = ground_truth

# Prediction 2: same molecules, missing the condition box.
no_condition = BoxedReaction(
    reactants=ground_truth.reactants,
    products=ground_truth.products,
    conditions=(),
)

print("perfect:        hard", reaction_matches_hard(perfect, ground_truth),
      " soft", reaction_matches_soft(perfect, ground_truth))
print("lost condition: hard", reaction_matches_hard(no_condition, ground_truth),
      " soft", reaction_matches_soft(no_condition, ground_truth))
print()

# Over a corpus, documents pair by id, scores micro-average and break
# down per layout; soft F1 is always at least hard F1.
gt_docs = [
    CorpusDocument(doc_id="fig1", reactions=(ground_truth,), layout="single_line"),
    CorpusDocument(doc_id="fig2", reactions=(ground_truth,), layout="tree"),
]
pred_docs = [
    CorpusDocument(doc_id="fig1", reactions=(perfect,), layout="single_line"),
    CorpusDocument(doc_id="fig2", reactions=(no_condition,), layout="tree"),
]

reports = [
    score_corpus(gt_docs, pred_docs, criterion) for criterion in ("hard", "soft")
]
print(report_table(reports))

# `rxnparse eval` reads the same corpus from files: one JSON array of
# {"id", "reactions", "layout"} documents, each member a label and a bbox.


def wire(reaction):
    roles = (reaction.reactants, reaction.products, reaction.conditions, reaction.arrows)
    return {key: [{"label": m.kind.value, "bbox": list(m.coords)} for m in role]
            for key, role in zip(("reactants", "products", "conditions", "arrow"), roles)}


with tempfile.TemporaryDirectory() as folder:
    loaded = []
    for name, docs in (("gt", gt_docs), ("pred", pred_docs)):
        path = Path(folder) / f"{name}.json"
        path.write_text(json.dumps([{"id": d.doc_id, "layout": d.layout, "reactions": [wire(r) for r in d.reactions]}
                                    for d in docs]))
        loaded.append(load_corpus(path))
print()
print("read from corpus files, the same scores:",
      [score_corpus(*loaded, criterion) for criterion in ("hard", "soft")] == reports)
