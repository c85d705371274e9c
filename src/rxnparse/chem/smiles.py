"""SMILES subset parser and writer, no external chemistry toolkit.

Supported grammar: bare organic-subset atoms (B C N O P S F Cl Br I and
aromatic b c n o p s), bracket atoms ``[isotope? symbol stereo? Hn?
charge? :class?]``, bond symbols ``- = # :``, ring closures (single
digit or ``%nn``), branches, and dot disconnection. Stereo markers
(``@``, ``/``, ``\\``) are consumed and discarded; they survive only in
the molecule's ``source_text``. Canonicalization, kekulization and 2D
layout are out of scope.
"""

from __future__ import annotations

import re

from .molecule import AROMATIC_ELEMENTS, ORGANIC_SUBSET, Atom, Bond, Molecule

MAX_LENGTH = 4096

# Elements accepted inside brackets. Bare atoms are restricted to the
# organic subset; brackets admit the wider table (counter-ions, metals
# in reagents) with no implied hydrogens.
BRACKET_ELEMENTS = frozenset(
    """H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni
    Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe
    Cs Ba La Ce Nd Sm Eu Gd Tb Dy Er Yb Lu Hf Ta W Re Os Ir Pt Au Hg Tl Pb Bi
    """.split()
)

_AROMATIC_BARE = {"b": "B", "c": "C", "n": "N", "o": "O", "p": "P", "s": "S"}

_BOND_ORDERS = {"-": 1.0, "=": 2.0, "#": 3.0, ":": 1.5}

_BRACKET_RE = re.compile(
    r"(?P<isotope>\d+)?"
    r"(?P<symbol>[A-Z][a-z]?|[bcnops])"
    r"(?P<stereo>@{1,2})?"
    r"(?P<hcount>H\d*)?"
    r"(?P<charge>[+-]\d+|\++|-+)?"
    r"(?P<cls>:\d+)?"
)

_DOT = object()  # sentinel: next atom starts a new component


class SmilesSyntaxError(ValueError):
    """Malformed SMILES input; carries the character position and reason."""

    def __init__(self, reason: str, position: int):
        super().__init__(f"{reason} (position {position})")
        self.reason = reason
        self.position = position


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into a :class:`Molecule`.

    Raises :class:`SmilesSyntaxError` on malformed input (unbalanced
    brackets or branches, unknown element, unclosed ring closure, ...)
    and :class:`~rxnparse.chem.molecule.ValenceError` when an uncharged
    atom is over-bonded.
    """
    if not text:
        raise SmilesSyntaxError("empty SMILES string", 0)
    if len(text) > MAX_LENGTH:
        raise SmilesSyntaxError(f"SMILES longer than {MAX_LENGTH} characters", MAX_LENGTH)

    atoms: list[Atom] = []
    bonds: dict[tuple[int, int], float] = {}
    prev: int | None = None
    pending = None  # None | float bond order | _DOT
    branch_stack: list[tuple[int, int]] = []  # (anchor atom, '(' position)
    rings: dict[int, tuple[int, float | None, int]] = {}

    def add_bond(i: int, j: int, order: float, pos: int) -> None:
        if i == j:
            raise SmilesSyntaxError("ring closure bonds an atom to itself", pos)
        key = (min(i, j), max(i, j))
        if key in bonds:
            raise SmilesSyntaxError(f"duplicate bond between atoms {key}", pos)
        bonds[key] = order

    def place_atom(atom: Atom, pos: int) -> None:
        nonlocal prev, pending
        idx = len(atoms)
        atoms.append(atom)
        if pending is _DOT:
            pass  # disconnected component
        elif prev is None:
            if pending is not None:
                raise SmilesSyntaxError("bond symbol with no preceding atom", pos)
        else:
            order = pending
            if order is None:
                order = 1.5 if atoms[prev].aromatic and atom.aromatic else 1.0
            add_bond(prev, idx, order, pos)
        prev = idx
        pending = None

    def close_ring(label: int, pos: int) -> None:
        nonlocal pending
        if prev is None:
            raise SmilesSyntaxError("ring closure before any atom", pos)
        if pending is _DOT:
            raise SmilesSyntaxError("ring closure after '.'", pos)
        if label in rings:
            other, other_order, _ = rings.pop(label)
            order = pending
            if order is not None and other_order is not None and order != other_order:
                raise SmilesSyntaxError(
                    f"conflicting bond orders on ring closure {label}", pos
                )
            if order is None:
                order = other_order
            if order is None:
                order = 1.5 if atoms[prev].aromatic and atoms[other].aromatic else 1.0
            add_bond(prev, other, order, pos)
        else:
            rings[label] = (prev, pending, pos)
        pending = None

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "(":
            if prev is None:
                raise SmilesSyntaxError("branch opened before any atom", i)
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before '('", i)
            branch_stack.append((prev, i))
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesSyntaxError("unbalanced ')'", i)
            if pending is not None:
                raise SmilesSyntaxError("dangling bond before ')'", i)
            prev = branch_stack.pop()[0]
            i += 1
        elif ch in _BOND_ORDERS:
            if pending is not None:
                raise SmilesSyntaxError("two bond symbols in a row", i)
            pending = _BOND_ORDERS[ch]
            i += 1
        elif ch in "/\\":
            # cis/trans orientation markers degrade to single bonds
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before stereo marker", i)
            pending = 1.0
            i += 1
        elif ch == ".":
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before '.'", i)
            if prev is None:
                raise SmilesSyntaxError("'.' before any atom", i)
            pending = _DOT
            i += 1
        elif ch == "%":
            if i + 2 >= n or not (text[i + 1].isdigit() and text[i + 2].isdigit()):
                raise SmilesSyntaxError("'%' must be followed by two digits", i)
            close_ring(int(text[i + 1 : i + 3]), i)
            i += 3
        elif ch.isdigit():
            close_ring(int(ch), i)
            i += 1
        elif ch == "[":
            end = text.find("]", i + 1)
            if end < 0:
                raise SmilesSyntaxError("unclosed bracket atom", i)
            place_atom(_parse_bracket(text[i + 1 : end], i), i)
            i = end + 1
        else:
            atom, width = _match_bare_atom(text, i)
            if atom is None:
                raise SmilesSyntaxError(f"unexpected character {ch!r}", i)
            place_atom(atom, i)
            i += width

    if pending is _DOT:
        raise SmilesSyntaxError("trailing '.'", n - 1)
    if pending is not None:
        raise SmilesSyntaxError("dangling bond at end of string", n - 1)
    if branch_stack:
        raise SmilesSyntaxError("unclosed '('", branch_stack[-1][1])
    if rings:
        label, (_, _, pos) = next(iter(rings.items()))
        raise SmilesSyntaxError(f"unclosed ring closure {label}", pos)

    return Molecule(
        atoms=tuple(atoms),
        bonds=tuple(Bond(i, j, order) for (i, j), order in sorted(bonds.items())),
        source_text=text,
    )


def _match_bare_atom(text: str, i: int) -> tuple[Atom | None, int]:
    two = text[i : i + 2]
    if two in ("Cl", "Br"):
        return Atom(element=two), 2
    ch = text[i]
    if ch in _AROMATIC_BARE:
        return Atom(element=_AROMATIC_BARE[ch], aromatic=True), 1
    if ch.isupper() and ch in ORGANIC_SUBSET:
        return Atom(element=ch), 1
    return None, 0


def _parse_bracket(body: str, pos: int) -> Atom:
    match = _BRACKET_RE.fullmatch(body)
    if match is None:
        raise SmilesSyntaxError(f"malformed bracket atom [{body}]", pos)
    symbol = match.group("symbol")
    aromatic = symbol.islower()
    element = _AROMATIC_BARE.get(symbol, symbol)
    if element not in BRACKET_ELEMENTS:
        raise SmilesSyntaxError(f"unknown element {symbol!r}", pos)
    hcount = match.group("hcount")
    if hcount is None:
        explicit_h = 0
    elif hcount == "H":
        explicit_h = 1
    else:
        explicit_h = int(hcount[1:])
    charge = _parse_charge(match.group("charge"))
    isotope = int(match.group("isotope")) if match.group("isotope") else None
    return Atom(
        element=element,
        charge=charge,
        explicit_h=explicit_h,
        aromatic=aromatic,
        isotope=isotope,
    )


def _parse_charge(token: str | None) -> int:
    if not token:
        return 0
    if token in ("+", "++", "+++"):
        return len(token)
    if token in ("-", "--", "---"):
        return -len(token)
    return int(token)


def write_smiles(mol: Molecule) -> str:
    """Serialize a molecule back to SMILES.

    The output is not canonical; it is a depth-first traversal that
    preserves atom counts, charges and bond orders, so a parse /
    write / parse cycle yields an atom-count-identical molecule.
    Bracketed atoms whose hydrogens were implied are written with an
    explicit H count to keep tallies stable.
    """
    n = mol.num_atoms
    adj = mol.neighbors()
    for lst in adj:
        lst.sort()
    order_of = {}
    for bond in mol.bonds:
        order_of[(bond.i, bond.j)] = bond.order
        order_of[(bond.j, bond.i)] = bond.order

    visited = [False] * n
    tree_children: list[list[int]] = [[] for _ in range(n)]
    ring_bonds: list[tuple[int, int, float]] = []
    components: list[int] = []

    for root in range(n):
        if visited[root]:
            continue
        components.append(root)
        tree_edges: set[tuple[int, int]] = set()
        stack = [root]
        visited[root] = True
        while stack:
            cur = stack.pop()
            for nbr, _order in adj[cur]:
                if not visited[nbr]:
                    visited[nbr] = True
                    tree_edges.add((min(cur, nbr), max(cur, nbr)))
                    tree_children[cur].append(nbr)
                    stack.append(nbr)
                elif cur < nbr and (cur, nbr) not in tree_edges:
                    ring_bonds.append((cur, nbr, _order))

    ring_digits: dict[int, list[tuple[int, int, float]]] = {i: [] for i in range(n)}
    for number, (a, b, order) in enumerate(ring_bonds, start=1):
        ring_digits[a].append((number, b, order))
        ring_digits[b].append((number, a, order))

    def bond_symbol(order: float, a: int, b: int) -> str:
        both_aromatic = mol.atoms[a].aromatic and mol.atoms[b].aromatic
        if order == 1.0:
            return "-" if both_aromatic else ""
        if order == 1.5:
            return "" if both_aromatic else ":"
        return {2.0: "=", 3.0: "#"}[order]

    pieces: list[str] = []
    opened: set[tuple[int, int]] = set()
    for k, root in enumerate(components):
        if k:
            pieces.append(".")
        # work stack: ("text", literal) or ("atom", index, prefix)
        work: list[tuple] = [("atom", root, "")]
        while work:
            item = work.pop()
            if item[0] == "text":
                pieces.append(item[1])
                continue
            _, idx, prefix = item
            if prefix:
                pieces.append(prefix)
            pieces.append(_atom_token(mol, idx))
            for number, other, order in ring_digits[idx]:
                key = (min(idx, other), max(idx, other))
                if key not in opened:
                    opened.add(key)
                    sym = bond_symbol(order, idx, other)
                    if sym:
                        pieces.append(sym)
                pieces.append(str(number) if number < 10 else f"%{number:02d}")
            children = tree_children[idx]
            for c in range(len(children) - 1, -1, -1):
                child = children[c]
                sym = bond_symbol(order_of[(idx, child)], idx, child)
                if c < len(children) - 1:
                    work.append(("text", ")"))
                    work.append(("atom", child, "(" + sym))
                else:
                    work.append(("atom", child, sym))
    return "".join(pieces)


def _atom_token(mol: Molecule, idx: int) -> str:
    atom = mol.atoms[idx]
    bare_ok = (
        atom.element in ORGANIC_SUBSET
        and atom.charge == 0
        and atom.isotope is None
        and atom.explicit_h is None
        and (not atom.aromatic or atom.element in AROMATIC_ELEMENTS)
    )
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if bare_ok:
        return symbol
    hydrogens = atom.explicit_h if atom.explicit_h is not None else mol.implicit_h[idx]
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if hydrogens == 1:
        parts.append("H")
    elif hydrogens > 1:
        parts.append(f"H{hydrogens}")
    if atom.charge == 1:
        parts.append("+")
    elif atom.charge == -1:
        parts.append("-")
    elif atom.charge > 0:
        parts.append(f"+{atom.charge}")
    elif atom.charge < 0:
        parts.append(f"-{-atom.charge}")
    parts.append("]")
    return "".join(parts)
