"""Hashed linear-path fingerprints and Tanimoto similarity.

The scheme is fixed: every simple path of up to ``MAX_PATH_LENGTH``
bonds (single atoms included) is labelled by its element/bond sequence;
the label, read in whichever direction sorts first, is hashed into a
``FINGERPRINT_WIDTH``-bit int mask with BLAKE2, so fingerprints are
stable across processes and platforms and invariant under any atom
reindexing that preserves the graph. ``FINGERPRINT_TAG`` names the
scheme. ``Molecule.fingerprint`` and ``Molecule.sketch`` call the
private helpers here and cache what they return.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .molecule import Molecule


FINGERPRINT_WIDTH = 2048  # bits
MAX_PATH_LENGTH = 5  # bonds
FINGERPRINT_TAG = f"path-v1:l{MAX_PATH_LENGTH}"
SKETCH_DIMS = 16  # stripes in a fingerprint sketch


_BOND_SYMBOLS = {1.0: "-", 1.5: ":", 2.0: "=", 3.0: "#"}


def _atom_label(atom) -> str:
    label = atom.element.lower() if atom.aromatic else atom.element
    if atom.charge > 0:
        label += f"+{atom.charge}"
    elif atom.charge < 0:
        label += str(atom.charge)
    return label


def _path_labels(mol: Molecule, max_len: int) -> set[str]:
    adjacency = mol.neighbors()
    atom_labels = [_atom_label(a) for a in mol.atoms]
    labels = set(atom_labels)

    def extend(path: list[int], tokens: list[str]) -> None:
        if len(path) - 1 >= max_len:
            return
        last = path[-1]
        on_path = set(path)
        for nbr, order in adjacency[last]:
            if nbr in on_path:
                continue
            step = tokens + [_BOND_SYMBOLS[order], atom_labels[nbr]]
            # a path reads the same from either end; keep the smaller reading
            canonical = min(tuple(step), tuple(reversed(step)))
            labels.add("\x1f".join(canonical))
            extend(path + [nbr], step)

    for start in range(mol.num_atoms):
        extend([start], [atom_labels[start]])
    return labels


def _bit_for(label: str) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % FINGERPRINT_WIDTH


def _path_bits(mol: Molecule) -> int:
    """Hash all simple paths of the molecule into a bit mask."""
    bits = 0
    for label in _path_labels(mol, MAX_PATH_LENGTH):
        bits |= 1 << _bit_for(label)
    return bits


def tanimoto(a: int, b: int) -> float:
    """|a & b| / |a | b| of two fingerprint masks; two empty masks score 1.0."""
    union = (a | b).bit_count()
    if union == 0:
        return 1.0
    return (a & b).bit_count() / union


def _stripe_densities(bits: int) -> tuple[float, ...]:
    """Fold a fingerprint into ``SKETCH_DIMS`` stripe densities in [0, 1].

    Used as a compact node feature for molecules in the spatial graph.
    """
    stripe = FINGERPRINT_WIDTH // SKETCH_DIMS
    sketch = []
    for d in range(SKETCH_DIMS):
        mask = ((1 << stripe) - 1) << (d * stripe)
        sketch.append((bits & mask).bit_count() / stripe)
    return tuple(sketch)
