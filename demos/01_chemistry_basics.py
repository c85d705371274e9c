"""
Chemistry primitives
====================

Parse SMILES strings into molecular graphs, count atoms and charges,
compare molecules by fingerprint, and check reaction balance. A
molecule's atom counts (a dict), charge (an int) and fingerprint (an
int bit mask) are cached properties, computed on first read.
"""

from rxnparse.chem.fingerprint import tanimoto
from rxnparse.chem.molecule import conservation_residual
from rxnparse.chem.smiles import parse_smiles, write_smiles

# Parsing gives an immutable molecular graph; hydrogens on bare atoms are
# implied by the standard valence table.
ethanol = parse_smiles("CCO")
print("ethanol atoms:", [a.element for a in ethanol.atoms])
print("ethanol formula:", ethanol.atom_counts)

# Bracket atoms carry exact hydrogen counts and formal charges.
ammonium = parse_smiles("[NH4+]")
print("ammonium formula:", ammonium.atom_counts)
print("ammonium charge:", ammonium.charge)

# Serialization is not canonical but preserves the atom inventory.
print("re-serialized:", write_smiles(ethanol))

# Fingerprints hash all short element/bond paths; Tanimoto compares them.
fp_ethanol = ethanol.fingerprint
fp_propanol = parse_smiles("CCCO").fingerprint
fp_benzene = parse_smiles("c1ccccc1").fingerprint
print("ethanol ~ propanol:", round(tanimoto(fp_ethanol, fp_propanol), 3))
print("ethanol ~ benzene: ", round(tanimoto(fp_ethanol, fp_benzene), 3))

# Conservation residuals: zero means the reaction balances. Dehydration
# of ethanol balances; losing the water leaves an H2O-shaped residual.
balanced = conservation_residual(
    [parse_smiles("CCO")], [parse_smiles("C=C"), parse_smiles("O")]
)
print("CCO -> C=C + O residual:", balanced[0], "charge:", balanced[1])

unbalanced = conservation_residual([parse_smiles("CCO")], [parse_smiles("C=C")])
print("CCO -> C=C residual:   ", unbalanced[0], "charge:", unbalanced[1])
