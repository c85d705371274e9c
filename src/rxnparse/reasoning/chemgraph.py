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

import numpy as np

from ..chem import DEFAULT_FINGERPRINT_CONFIG
from ..config import ReasoningConfig
from ..entities import KIND_CODES, EntityKind, EntityTable, ReactionDocument

NEUTRAL_CHEM_SCORE = 0.5
CHEM_ROW_BLOCK = 128  # rows of the pair matrix scored per numpy pass


@dataclass(frozen=True)
class ChemGraph:
    """Thresholded chemistry edges: positions ``rows[k] < cols[k]`` of ``table`` score ``values[k]``."""

    table: EntityTable
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray  # floats in [0, 1]
    tau_chem: float

    @property
    def scores(self) -> dict:
        """A view built on read, for the benchmark tracer (bench/tracing.py) to count from; no layer reads it."""
        return self.table.by_id_pairs(self.rows, self.cols, self.values)


def chem_pair_score(s_fp: float, delta_q: int, beta: float) -> float:
    """Convex blend of fingerprint similarity and charge agreement."""
    return beta * s_fp + (1.0 - beta) * math.exp(-abs(delta_q))


def build_chem_graph(doc: ReactionDocument, config: ReasoningConfig) -> ChemGraph:
    """Score molecule pairs a block of rows at a time; kept pairs become edges row by row in molecule order.

    Intersections and unions are exact popcounts over the fingerprints
    packed as uint64 words, and float division of exact integers is
    correctly rounded, so each similarity equals ``tanimoto``'s
    ``int / int``. The blend runs elementwise in ``chem_pair_score``'s
    operation order, with ``exp(-|dq|)`` from a ``math.exp`` table over
    the distinct charges, and only kept pairs are gathered. Rows
    go ``CHEM_ROW_BLOCK`` at a time, so memory grows with the molecule
    count, not with its square.
    """
    table = doc.table
    molecules = doc.by_kind(EntityKind.MOLECULE)
    at = np.flatnonzero(table.kinds == KIND_CODES[EntityKind.MOLECULE])  # their positions
    parsed = np.array([e.molecule is not None for e in molecules], dtype=bool)
    empty = bytes(DEFAULT_FINGERPRINT_CONFIG.width // 8)
    packed = b"".join(
        empty if e.molecule is None else e.fingerprint.bits.to_bytes(len(empty), "little") for e in molecules
    )
    words = np.frombuffer(packed, dtype="<u8").reshape(len(molecules), len(empty) // 8)
    counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    # charges are Python ints of any size: index them, and tabulate exp(-|dq|) per pair of distinct charges
    charges = [0 if e.molecule is None else e.molecule.charge for e in molecules]
    distinct = sorted(set(charges))
    position = {q: k for k, q in enumerate(distinct)}
    charge_codes = np.array([position[q] for q in charges], dtype=np.intp)
    decay = np.array([math.exp(-abs(a - b)) for a in distinct for b in distinct]).reshape(len(distinct), len(distinct))

    rows, cols, values = [at[:0]], [at[:0]], [np.zeros(0)]
    for start in range(0, len(molecules), CHEM_ROW_BLOCK):
        block = slice(start, start + CHEM_ROW_BLOCK)
        inter = np.bitwise_count(words[block, None, :] & words[None, :, :]).sum(axis=2, dtype=np.int64)
        union = counts[block, None] + counts[None, :] - inter
        s_fp = np.divide(inter, union, out=np.ones(union.shape), where=union > 0)
        scored = config.beta * s_fp + (1.0 - config.beta) * decay[charge_codes[block, None], charge_codes[None, :]]
        scored[~(parsed[block, None] & parsed[None, :])] = NEUTRAL_CHEM_SCORE
        # column j > row start + i: the upper triangle of the whole matrix
        i, j = np.nonzero(np.triu(scored > config.tau_chem, k=start + 1))
        rows.append(at[i + start])
        cols.append(at[j])
        values.append(scored[i, j])
    return ChemGraph(table, np.concatenate(rows), np.concatenate(cols), np.concatenate(values), config.tau_chem)
