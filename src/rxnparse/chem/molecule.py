"""Molecular graph types and the conservation arithmetic built on them.

A molecule is an immutable graph of atoms and bonds. Each quantity the
reasoning layers read from it is one cached property of a built-in
type: ``fingerprint`` (an int bit mask), ``sketch`` (a tuple of
floats), ``atom_counts`` (a dict sorted by element) and ``charge`` (an
int). Hydrogen counts for bare organic-subset atoms are implied by a
fixed valence convention so that atom counts are deterministic:

* valence table B:3, C:4, N:3, O:2, F/Cl/Br/I:1, P:{3,5}, S:{2,4,6};
  the smallest tabulated valence >= the atom's bond-order sum applies;
* an aromatic bond counts 1 toward the bond-order sum, and aromatic
  carbon receives a +1 adjustment (so a benzene carbon carries one
  hydrogen without any Kekule assignment);
* bracket atoms carry exactly their written hydrogens, never implied
  ones, and a nonzero formal charge suspends the valence check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .fingerprint import _path_bits, _stripe_densities


class ValenceError(ValueError):
    """An uncharged atom exceeds its maximum tabulated valence."""


VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

ORGANIC_SUBSET = frozenset(VALENCES)
AROMATIC_ELEMENTS = frozenset({"B", "C", "N", "O", "P", "S"})


@dataclass(frozen=True)
class Atom:
    """One atom: element symbol, formal charge, written hydrogens, flags.

    ``explicit_h`` is ``None`` for bare atoms (hydrogens implied by the
    valence convention) and an exact count for bracket atoms.
    """

    element: str
    charge: int = 0
    explicit_h: int | None = None
    aromatic: bool = False
    isotope: int | None = None


@dataclass(frozen=True)
class Bond:
    """Undirected bond between two atom indices; order is 1, 1.5, 2 or 3."""

    i: int
    j: int
    order: float = 1.0


def _valence_units(order: float) -> int:
    # Aromatic bonds count 1 toward the valence sum by convention.
    return 1 if order == 1.5 else int(order)


@dataclass(frozen=True)
class Molecule:
    """Immutable molecular graph with per-atom implied hydrogen counts.

    Construction validates the graph (index bounds, no self-bonds, no
    duplicate bonds, bond orders from {1, 1.5, 2, 3}) and computes
    implied hydrogens, raising :class:`ValenceError` where an uncharged
    atom is over-bonded. The chemistry the reasoning layers read
    (fingerprint, sketch, atom counts, formal charge) is computed on
    first read and kept, so a molecule shared by many entities computes
    each once.
    """

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    source_text: str = ""
    implicit_h: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.atoms)
        if n == 0:
            raise ValueError("a molecule needs at least one atom")
        seen = set()
        sums = [0] * n
        for bond in self.bonds:
            if not (0 <= bond.i < n and 0 <= bond.j < n):
                raise ValueError(f"bond {bond} references a missing atom")
            if bond.i == bond.j:
                raise ValueError(f"bond {bond} joins an atom to itself")
            if bond.order not in (1, 1.5, 2, 3):
                raise ValueError(f"unsupported bond order {bond.order!r}")
            key = (min(bond.i, bond.j), max(bond.i, bond.j))
            if key in seen:
                raise ValueError(f"duplicate bond between atoms {key}")
            seen.add(key)
            sums[bond.i] += _valence_units(bond.order)
            sums[bond.j] += _valence_units(bond.order)
        implicit = []
        for idx, atom in enumerate(self.atoms):
            implicit.append(_implied_hydrogens(atom, sums[idx]))
        object.__setattr__(self, "implicit_h", tuple(implicit))

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def neighbors(self) -> list[list[tuple[int, float]]]:
        """Adjacency as (neighbor index, bond order) lists."""
        adj: list[list[tuple[int, float]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adj[bond.i].append((bond.j, bond.order))
            adj[bond.j].append((bond.i, bond.order))
        return adj

    def total_hydrogens(self, idx: int) -> int:
        atom = self.atoms[idx]
        return (atom.explicit_h or 0) + self.implicit_h[idx]

    @cached_property
    def fingerprint(self) -> int:
        """Path fingerprint under the fixed scheme, as a ``FINGERPRINT_WIDTH``-bit int mask."""
        return _path_bits(self)

    @cached_property
    def sketch(self) -> tuple[float, ...]:
        """The fingerprint folded into ``SKETCH_DIMS`` stripe densities."""
        return _stripe_densities(self.fingerprint)

    @cached_property
    def atom_counts(self) -> dict[str, int]:
        """Atoms by element, sorted by element, hydrogens (explicit plus implied) under H; do not mutate."""
        counts: dict[str, int] = {}
        hydrogens = 0
        for idx, atom in enumerate(self.atoms):
            counts[atom.element] = counts.get(atom.element, 0) + 1
            hydrogens += self.total_hydrogens(idx)
        if hydrogens:
            counts["H"] = counts.get("H", 0) + hydrogens
        return dict(sorted(counts.items()))

    @cached_property
    def charge(self) -> int:
        """The sum of the atoms' formal charges."""
        return sum(atom.charge for atom in self.atoms)


def _implied_hydrogens(atom: Atom, bond_sum: int) -> int:
    if atom.aromatic and atom.element == "C":
        bond_sum += 1
    if atom.explicit_h is not None:
        # Bracket atom: hydrogens are exactly as written.
        _check_valence(atom, bond_sum + atom.explicit_h)
        return 0
    table = VALENCES.get(atom.element)
    if table is None:
        return 0
    fitting = [v for v in table if v >= bond_sum]
    if not fitting:
        if atom.charge != 0:
            return 0
        raise ValenceError(
            f"{atom.element} with bond-order sum {bond_sum} exceeds "
            f"maximum valence {max(table)} and carries no charge"
        )
    return fitting[0] - bond_sum


def _check_valence(atom: Atom, occupied: int) -> None:
    table = VALENCES.get(atom.element)
    if table is None or atom.charge != 0:
        return
    if occupied > max(table):
        raise ValenceError(
            f"{atom.element} with {occupied} bonds/hydrogens exceeds "
            f"maximum valence {max(table)} and carries no charge"
        )


def conservation_residual(
    reactants: list[Molecule], products: list[Molecule]
) -> tuple[dict[str, int], int]:
    """Signed element and charge difference between the two sides.

    Returns ``(sum(a(r)) - sum(a(p)), sum(q(r)) - sum(q(p)))``: the
    nonzero element differences sorted by element, and the charge
    difference. An empty dict and a zero charge mean the reaction is
    balanced. Real diagrams routinely violate balance, so callers treat
    this as a soft signal.
    """
    if not reactants or not products:
        raise ValueError("both reactant and product lists must be non-empty")
    totals: dict[str, int] = {}
    for sign, side in ((1, reactants), (-1, products)):
        for mol in side:
            for element, count in mol.atom_counts.items():
                totals[element] = totals.get(element, 0) + sign * count
    charge = sum(m.charge for m in reactants) - sum(m.charge for m in products)
    return {element: count for element, count in sorted(totals.items()) if count}, charge
