"""Chemistry-aware graph: fingerprint similarity plus charge consistency.

A pair of parsed molecules scores ``beta * tanimoto(fp_i, fp_j) + (1 - beta)
* exp(-|q_i - q_j|)`` over the fixed ``FINGERPRINT_WIDTH``-bit path
fingerprints of ``rxnparse.chem.fingerprint``. A pair with an unparsed
SMILES or a non-molecule end, or an entity with itself, scores the neutral
0.5 (ignorance, not evidence), and no threshold drops a score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..chem.fingerprint import FINGERPRINT_WIDTH
from ..config import ReasoningConfig
from ..entities import KIND_CODES, EntityKind, EntityTable, ReactionDocument
from .fusion import ABSENT_INIT_SCORE, NEUTRAL_CHEM_SCORE, NEUTRAL_SPACE_SCORE, fuse_score

CHEM_PAIR_BLOCK = 2**13  # molecule pairs scored at once: each fingerprint gather is then 2 MiB


@dataclass(frozen=True)
class ChemGraph:
    """Chemistry edges: positions ``rows[k] < cols[k]`` of ``table`` score ``values[k]``, row-major."""

    table: EntityTable
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray  # floats in [0, 1]

    @property
    def scores(self) -> dict:
        """A view built on read, for the benchmark tracer (bench/tracing.py) to count from; no layer reads it."""
        return self.table.by_id_pairs(self.rows, self.cols, self.values)


def build_chem_graph(doc: ReactionDocument, config: ReasoningConfig, spatial, hypotheses) -> ChemGraph:
    """The scores of the molecule pairs that fusion can keep, row-major, given the spatial and hypothesis graphs.

    A pair no spatial edge or hypothesis covers fuses at most ``fuse_score(NEUTRAL_SPACE_SCORE, beta + (1 - beta),
    ABSENT_INIT_SCORE)``, as rounding is monotone. Above ``tau_fuse`` every molecule pair is scored, else only those
    among the spatial edges and the typed hypothesis pairs.
    """
    table = doc.table
    molecule = table.kinds == KIND_CODES[EntityKind.MOLECULE]
    if fuse_score(NEUTRAL_SPACE_SCORE, config.beta + (1.0 - config.beta), ABSENT_INIT_SCORE, config) > config.tau_fuse:
        rows, cols = np.flatnonzero(molecule)[np.array(np.triu_indices(molecule.sum(), k=1))]
    else:
        ends = [sorted((table.position[e.source], table.position[e.target])) for e in hypotheses.edges]
        pairs = np.vstack([np.column_stack([spatial.rows, spatial.cols]), np.array(ends, dtype=np.intp).reshape(-1, 2)])
        a, b = pairs.T
        # a reply may name one molecule in two roles: its self-edge is no pair
        rows, cols = np.unique(pairs[molecule[a] & molecule[b] & (a < b)], axis=0).T
    return ChemGraph(table, rows, cols, score_pairs(table, config, rows, cols))


def score_pairs(table: EntityTable, config: ReasoningConfig, rows, cols) -> np.ndarray:
    """The chemistry score of each pair of positions ``rows[k]``, ``cols[k]`` of ``table``.

    Exact popcounts over the uint64-packed fingerprints make each similarity ``tanimoto``'s ``int / int``, and the
    blend runs in the formula's operation order, with ``exp(-|dq|)`` from a ``math.exp`` table over the distinct
    charges. Pairs are scored :data:`CHEM_PAIR_BLOCK` at a time, so the fingerprint gathers stay block-sized.
    """
    molecules = [e.molecule if e.kind == EntityKind.MOLECULE else None for e in table.entities]
    parsed = np.array([m is not None for m in molecules], dtype=bool)
    empty = bytes(FINGERPRINT_WIDTH // 8)
    packed = b"".join(empty if m is None else m.fingerprint.to_bytes(len(empty), "little") for m in molecules)
    words = np.frombuffer(packed, dtype="<u8").reshape(len(molecules), len(empty) // 8)
    counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    # charges are Python ints of any size: index them, and tabulate exp(-|dq|) per pair of distinct charges
    charges = [0 if m is None else m.charge for m in molecules]
    distinct = sorted(set(charges))
    position = {q: k for k, q in enumerate(distinct)}
    charge_codes = np.array([position[q] for q in charges], dtype=np.intp)
    decay = np.array([math.exp(-abs(a - b)) for a in distinct for b in distinct]).reshape(len(distinct), len(distinct))

    scored = np.empty(len(rows))
    for start in range(0, len(rows), CHEM_PAIR_BLOCK):
        block = slice(start, start + CHEM_PAIR_BLOCK)
        bi, bj = rows[block], cols[block]
        shared = np.take(words, bi, axis=0)  # and-ed in place: two block-sized temporaries, not three
        shared &= np.take(words, bj, axis=0)
        inter = np.bitwise_count(shared).sum(axis=1, dtype=np.int64)
        union = counts[bi] + counts[bj] - inter
        s_fp = np.divide(inter, union, out=np.ones(union.shape), where=union > 0)
        scored[block] = config.beta * s_fp + (1.0 - config.beta) * decay[charge_codes[bi], charge_codes[bj]]
    scored[~(parsed[rows] & parsed[cols]) | (np.asarray(rows) == cols)] = NEUTRAL_CHEM_SCORE
    return scored
