"""Hashed linear-path fingerprints and Tanimoto similarity.

Every simple path of up to ``max_path_length`` bonds (single atoms
included) is labelled by its element/bond sequence; the label, read in
whichever direction sorts first, is hashed into a fixed-width bit
vector with BLAKE2, so fingerprints are stable across processes and
platforms and invariant under any atom reindexing that preserves the
graph.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .molecule import Molecule


SKETCH_DIMS = 16  # stripes in a fingerprint sketch


class WidthMismatchError(ValueError):
    """Tanimoto over fingerprints with different widths or algorithm tags."""


@dataclass(frozen=True)
class FingerprintConfig:
    width: int = 2048
    max_path_length: int = 5
    algorithm_tag: str = "path-v1"

    def __post_init__(self):
        if self.width < 256 or self.width & (self.width - 1):
            raise ValueError("fingerprint width must be a power of two >= 256")
        if not 1 <= self.max_path_length <= 7:
            raise ValueError("max_path_length must lie in [1, 7]")

    @property
    def full_tag(self) -> str:
        """Scheme identifier including the path length, e.g. ``path-v1:l5``."""
        return f"{self.algorithm_tag}:l{self.max_path_length}"


DEFAULT_FINGERPRINT_CONFIG = FingerprintConfig()


@dataclass(frozen=True)
class Fingerprint:
    """Fixed-width bit vector stored as an int bitmask."""

    bits: int
    width: int
    algorithm_tag: str

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    def active_bits(self) -> list[int]:
        return [i for i in range(self.width) if self.bits >> i & 1]


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


def _bit_for(label: str, width: int) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % width


def fingerprint(mol: Molecule, config: FingerprintConfig = DEFAULT_FINGERPRINT_CONFIG) -> Fingerprint:
    """Hash all simple paths of the molecule into a bit vector."""
    bits = 0
    for label in _path_labels(mol, config.max_path_length):
        bits |= 1 << _bit_for(label, config.width)
    return Fingerprint(bits=bits, width=config.width, algorithm_tag=config.full_tag)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a & b| / |a | b|; two all-zero fingerprints score 1.0."""
    if a.width != b.width or a.algorithm_tag != b.algorithm_tag:
        raise WidthMismatchError(
            f"incompatible fingerprints: {a.width}/{a.algorithm_tag} vs {b.width}/{b.algorithm_tag}"
        )
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union


def bit_sketch(fp: Fingerprint, dims: int = SKETCH_DIMS) -> list[float]:
    """Fold a fingerprint into ``dims`` stripe densities in [0, 1].

    Used as a compact node feature for molecules in the spatial graph.
    """
    stripe = fp.width // dims
    sketch = []
    for d in range(dims):
        mask = ((1 << stripe) - 1) << (d * stripe)
        sketch.append((fp.bits & mask).bit_count() / stripe)
    return sketch
