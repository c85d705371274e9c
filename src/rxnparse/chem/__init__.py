"""Chemistry primitives: SMILES parsing, atom counts, charges, fingerprints."""
