"""Chemistry primitives: SMILES parsing, atom counts, charges, fingerprints."""

from .fingerprint import (
    FINGERPRINT_TAG,
    FINGERPRINT_WIDTH,
    MAX_PATH_LENGTH,
    SKETCH_DIMS,
    Fingerprint,
    bit_sketch,
    fingerprint,
    tanimoto,
)
from .molecule import (
    ORGANIC_SUBSET,
    VALENCES,
    Atom,
    Bond,
    ElementCounts,
    Molecule,
    ValenceError,
    ZERO_COUNTS,
    atom_count_vector,
    conservation_residual,
    formal_charge_sum,
)
from .smiles import MAX_LENGTH, SmilesSyntaxError, parse_smiles, write_smiles

__all__ = [
    "Atom",
    "ORGANIC_SUBSET",
    "VALENCES",
    "Bond",
    "ElementCounts",
    "FINGERPRINT_TAG",
    "FINGERPRINT_WIDTH",
    "Fingerprint",
    "MAX_LENGTH",
    "MAX_PATH_LENGTH",
    "Molecule",
    "SKETCH_DIMS",
    "SmilesSyntaxError",
    "ValenceError",
    "ZERO_COUNTS",
    "atom_count_vector",
    "bit_sketch",
    "conservation_residual",
    "fingerprint",
    "formal_charge_sum",
    "parse_smiles",
    "tanimoto",
    "write_smiles",
]
