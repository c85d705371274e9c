"""Chemistry-aware graph: fingerprint similarity plus charge consistency.

For a pair of parsed molecule entities the edge score blends Tanimoto
similarity with a charge-difference decay:

    e_chem = beta * tanimoto(fp_i, fp_j) + (1 - beta) * exp(-|q_i - q_j|)

Pairs where either SMILES is missing or failed to parse get the neutral
0.5 (ignorance, not evidence). Edges survive only above ``tau_chem``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..chem import formal_charge_sum, tanimoto
from ..config import ReasoningConfig
from ..entities import EntityKind, ReactionDocument

NEUTRAL_CHEM_SCORE = 0.5


@dataclass(frozen=True)
class ChemGraph:
    """Thresholded chemistry edges over molecule entities, keyed by id pair."""

    scores: dict  # (id_a, id_b) with id_a < id_b -> float in [0, 1]
    tau_chem: float

    def score(self, a: str, b: str) -> float | None:
        return self.scores.get((min(a, b), max(a, b)))


def chem_pair_score(s_fp: float, delta_q: int, beta: float) -> float:
    """Convex blend of fingerprint similarity and charge agreement."""
    return beta * s_fp + (1.0 - beta) * math.exp(-abs(delta_q))


def build_chem_graph(doc: ReactionDocument, config: ReasoningConfig) -> ChemGraph:
    molecules = doc.by_kind(EntityKind.MOLECULE)
    charges = {e.id: formal_charge_sum(e.molecule) for e in molecules if e.molecule is not None}

    scores = {}
    for i in range(len(molecules)):
        for j in range(i + 1, len(molecules)):
            a, b = molecules[i], molecules[j]
            if a.id in charges and b.id in charges:
                s_fp = tanimoto(a.fingerprint, b.fingerprint)
                value = chem_pair_score(s_fp, charges[a.id] - charges[b.id], config.beta)
            else:
                value = NEUTRAL_CHEM_SCORE
            if value > config.tau_chem:
                scores[(min(a.id, b.id), max(a.id, b.id))] = value
    return ChemGraph(scores=scores, tau_chem=config.tau_chem)
