"""Chemistry-aware graph: fingerprint similarity plus charge consistency.

For a pair of parsed molecule entities the edge score blends Tanimoto
similarity with a charge-difference decay:

    e_chem = beta * tanimoto(fp_i, fp_j) + (1 - beta) * exp(-|q_i - q_j|)

Pairs where either SMILES is missing or failed to parse get the neutral
0.5 (ignorance, not evidence). Every molecule pair of the document is
scored in one array pass, and edges survive only above ``tau_chem``;
``beta`` and ``tau_chem`` come from the ``ReasoningConfig``, and the
fingerprints are the fixed ``FINGERPRINT_WIDTH``-bit path scheme of
``rxnparse.chem.fingerprint``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..chem import FINGERPRINT_WIDTH
from ..config import ReasoningConfig
from ..entities import KIND_CODES, EntityKind, EntityTable, ReactionDocument

NEUTRAL_CHEM_SCORE = 0.5


@dataclass(frozen=True)
class ChemGraph:
    """Thresholded chemistry edges: positions ``rows[k] < cols[k]`` of ``table`` score ``values[k]``."""

    table: EntityTable
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray  # floats in [0, 1]

    @property
    def scores(self) -> dict:
        """A view built on read, for the benchmark tracer (bench/tracing.py) to count from; no layer reads it."""
        return self.table.by_id_pairs(self.rows, self.cols, self.values)


def build_chem_graph(doc: ReactionDocument, config: ReasoningConfig) -> ChemGraph:
    """Score every molecule pair in one pass; kept pairs become edges in row-major molecule order.

    Intersections and unions are exact popcounts over the fingerprints
    packed as uint64 words, and float division of exact integers is
    correctly rounded, so each similarity equals ``tanimoto``'s
    ``int / int``. The blend runs elementwise in the operation order of
    the formula above, with ``exp(-|dq|)`` from a ``math.exp`` table over
    the distinct charges, and only kept pairs are gathered. The pair
    arrays hold m(m-1)/2 entries for m molecules, below the document's
    n×n distance matrix.
    """
    table = doc.table
    molecules = doc.by_kind(EntityKind.MOLECULE)
    at = np.flatnonzero(table.kinds == KIND_CODES[EntityKind.MOLECULE])  # their positions
    parsed = np.array([e.molecule is not None for e in molecules], dtype=bool)
    empty = bytes(FINGERPRINT_WIDTH // 8)
    packed = b"".join(
        empty if e.molecule is None else e.molecule.fingerprint.to_bytes(len(empty), "little") for e in molecules
    )
    words = np.frombuffer(packed, dtype="<u8").reshape(len(molecules), len(empty) // 8)
    counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    # charges are Python ints of any size: index them, and tabulate exp(-|dq|) per pair of distinct charges
    charges = [0 if e.molecule is None else e.molecule.charge for e in molecules]
    distinct = sorted(set(charges))
    position = {q: k for k, q in enumerate(distinct)}
    charge_codes = np.array([position[q] for q in charges], dtype=np.intp)
    decay = np.array([math.exp(-abs(a - b)) for a in distinct for b in distinct]).reshape(len(distinct), len(distinct))

    i, j = np.triu_indices(len(molecules), k=1)  # row-major
    shared = np.take(words, i, axis=0)  # and-ed in place: two pair-sized temporaries, not three
    shared &= np.take(words, j, axis=0)
    inter = np.bitwise_count(shared).sum(axis=1, dtype=np.int64)
    union = counts[i] + counts[j] - inter
    s_fp = np.divide(inter, union, out=np.ones(union.shape), where=union > 0)
    scored = config.beta * s_fp + (1.0 - config.beta) * decay[charge_codes[i], charge_codes[j]]
    scored[~(parsed[i] & parsed[j])] = NEUTRAL_CHEM_SCORE
    kept = scored > config.tau_chem
    return ChemGraph(table, at[i[kept]], at[j[kept]], scored[kept])
