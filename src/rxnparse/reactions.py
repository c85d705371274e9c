"""Reactions and their JSON wire format.

The output format is a JSON array of objects with exactly the keys
``reactants``, ``products``, ``conditions``, ``arrow`` (in that order),
each holding ``{"label": ..., "bbox": [...]}`` items; boxes are
4-number arrays, arrow boxes 8-number arrays, and integer coordinates
stay integers. ``reactants`` and ``products`` must not be empty;
``conditions`` and ``arrow`` may be.

Inside the pipeline a :class:`Reaction` references document entities by
id and carries its fused score and conservation status; the serializer
materializes labels and boxes from the document. One reader
takes the wire format in: a structural pass over the decoded array,
with every box's coordinates checked in bulk, gives each member's kind
code and row of validated coordinates, and where each role's members
start. The evaluation harness reads reaction files with it into
:class:`MemberColumns`, which add each member's reaction and role, and
:class:`BoxedReaction` views over those columns, whose
:class:`BoxedMember` values are made when a role is first read and build
their regions only when read; :func:`parse_combiner_response` reads an
agent's reply with it, under each role's kinds and box length, and
resolves all the rows at once to document entities by best IoU against
the document's entity table.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np

from .entities import KIND_CODES, EntityKind, ReactionDocument
from .geometry import (
    Region,
    _clip_may_meet,
    bounds_iou,
    bounds_overlap,
    coords_from_arrays,
    region_coords,
    region_from_array,
    region_from_coords,
    region_iou,
    region_to_array,
)


class ResponseFormatError(ValueError):
    """Agent response is not the expected JSON reaction array."""


class ConstraintError(ValueError):
    """A structurally invalid reaction (empty reactants/products, ...)."""


class ResolutionError(ValueError):
    """A response bbox matches no document entity at the required IoU."""


# what parse_combiner_response raises for a reply it rejects
REPLY_ERRORS = (ResponseFormatError, ConstraintError, ResolutionError)


class Conservation(str, Enum):
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"
    UNKNOWN = "unknown"


RESOLVE_IOU = 0.9
_SCREEN_FLOATS = 2**17  # 1 MiB of float64: the largest temporary of a reply-arrow screen


@dataclass(frozen=True)
class Reaction:
    """One parsed reaction: entity-id lists plus bookkeeping.

    Reactants and products may hold molecule, identifier or text
    entities; ``arrows`` only arrow entities. ``score`` accumulates the
    fused evidence supporting the reaction.
    """

    reactants: tuple[str, ...]
    products: tuple[str, ...]
    conditions: tuple[str, ...] = ()
    arrows: tuple[str, ...] = ()
    score: float = 1.0
    conservation: Conservation = Conservation.UNKNOWN

    def __post_init__(self):
        if not self.reactants or not self.products:
            raise ConstraintError("reactants and products must not be empty")
        overlap = set(self.reactants) & set(self.products)
        if overlap:
            raise ConstraintError(f"entities on both sides of one reaction: {sorted(overlap)}")
        for role in (self.reactants, self.products, self.conditions, self.arrows):
            if len(set(role)) != len(role):
                raise ConstraintError("duplicate entity within one role")

    def member_ids(self) -> tuple[str, ...]:
        return self.reactants + self.products + self.conditions + self.arrows


def reaction_or_none(reactants, products, conditions=(), arrows=(), score: float = 1.0) -> Reaction | None:
    """The :class:`Reaction` of a candidate's roles, or None when reactants or products come out empty.

    Each role keeps its first occurrences in order; products drop the
    reactants, and conditions drop both. A reaction built from roles so
    normalised cannot raise :class:`ConstraintError`.
    """
    reactants = dict.fromkeys(reactants)
    products = {p: None for p in products if p not in reactants}
    conditions = {c: None for c in conditions if c not in reactants and c not in products}
    if not reactants or not products:
        return None
    return Reaction(tuple(reactants), tuple(products), tuple(conditions), tuple(dict.fromkeys(arrows)), score)


# one reaction and one role member as json.dumps(..., indent=2) writes them at their depth in the output
_REACTION_JSON = '  {\n    "reactants": %s,\n    "products": %s,\n    "conditions": %s,\n    "arrow": %s\n  }'
_MEMBER_JSON = '      {\n        "label": %s,\n        "bbox": [\n          %s\n        ]\n      }'
_QUOTED_LABELS = {kind: json.dumps(kind.value) for kind in EntityKind}


def reactions_to_json(reactions, doc: ReactionDocument) -> str:
    """The bytes ``json.dumps(..., indent=2)`` gives for the reactions' dicts of ``{"label", "bbox"}`` members.

    Each member's block is rendered once per call from the numbers the
    document's :class:`~rxnparse.entities.EntityTable` wrote for its row;
    blocks join per role, and an empty role or reaction list is written ``[]``.
    """
    table = doc.table
    blocks: dict[str, str] = {}

    def role(ids) -> str:
        if not ids:
            return "[]"
        for entity_id in ids:
            if entity_id not in blocks:
                row = table.position[entity_id]
                numbers = ",\n          ".join(table.numbers[row])
                blocks[entity_id] = _MEMBER_JSON % (_QUOTED_LABELS[table.entities[row].kind], numbers)
        return "[\n" + ",\n".join(blocks[entity_id] for entity_id in ids) + "\n    ]"

    if not reactions:
        return "[]"
    written = (_REACTION_JSON % tuple(map(role, (r.reactants, r.products, r.conditions, r.arrows))) for r in reactions)
    return "[\n" + ",\n".join(written) + "\n]"


_KINDS = tuple(EntityKind)  # by KIND_CODES
_ARROW = KIND_CODES[EntityKind.ARROW]
_MEMBER_KINDS = {kind.value: KIND_CODES[kind] for kind in (EntityKind.MOLECULE, EntityKind.IDENTIFIER, EntityKind.TEXT)}
# per reply role key: label -> kind code for the kinds it takes, and the bbox lengths it takes as a pair
# (a file's roles take (4, 8); a reply role one length, twice)
_REPLY_ROLES = {
    "reactants": (_MEMBER_KINDS, (4, 4)),
    "products": (_MEMBER_KINDS, (4, 4)),
    "conditions": (_MEMBER_KINDS, (4, 4)),
    "arrow": ({EntityKind.ARROW.value: _ARROW}, (8, 8)),
}
ROLE_KEYS = tuple(_REPLY_ROLES)  # the role keys of every reaction object, in file order


def _table_screen(table, kinds: np.ndarray, coords: np.ndarray, quads) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(row, j)`` of a table row and member ``j`` of its kind whose :func:`region_iou` may be
    nonzero, the box members' pairs and then the arrow members', each row-major; members are given as kind
    codes and :class:`MemberColumns` coordinates, and ``quads`` are the regions of the arrow members in
    member order. A box member is kept where its bounds meet the row's; a reply arrow (a quad has no
    bounds) where :func:`~rxnparse.geometry._clip_may_meet` keeps the row's hull, in blocks that keep
    each temporary under :data:`_SCREEN_FLOATS` floats."""
    boxes, arrows = np.flatnonzero(kinds != _ARROW), np.flatnonzero(kinds == _ARROW)
    rows, cols = bounds_overlap(table.bounds, coords[boxes, :4])
    same = table.kinds[rows] == kinds[boxes[cols]]
    arrow_rows = np.flatnonzero(table.kinds == _ARROW)  # the table's hulls are theirs, in row order
    hull_x, hull_y = table.hulls[..., 0].ravel(), table.hulls[..., 1].ravel()
    clips = [hull + hull[:1] * (4 - len(hull)) for hull in (quad.hull for quad in quads)]
    step = max(1, _SCREEN_FLOATS // (16 * len(arrow_rows) or 1))  # 4 clip edges by 4 hull vertices per row
    blocks = range(0, len(clips) or 1, step)  # one block when there are no clips, of (0, rows)
    meet = np.concatenate([_clip_may_meet(hull_x, hull_y, clips[k : k + step]) for k in blocks])
    found, met = np.nonzero(meet.T)
    return np.concatenate((rows[same], arrow_rows[found])), np.concatenate((boxes[cols[same]], arrows[met]))


def _resolve(kinds: np.ndarray, coords: np.ndarray, doc: ReactionDocument) -> list:
    """Per member, given as a kind code and a row of :class:`MemberColumns` coordinates: the id of its
    entity, or the :class:`ResolutionError` saying why none.

    A member's entity is the one of its kind with the highest IoU, and on
    equal IoU the smaller id, if that IoU reaches :data:`RESOLVE_IOU`. All
    members are screened at once against the document's
    :class:`~rxnparse.entities.EntityTable` by :func:`_table_screen`, and
    every pair is ranked by one ``lexsort``. Entities the screen leaves out
    score exactly 0.0, so they can neither win nor change the best IoU.
    Screened boxes get :func:`bounds_iou`, the floats of ``iou_axis``, all
    at once, on bounds read from the coordinates; each screened arrow pair
    gets the exact :func:`region_iou`, and a reply arrow whose numbers equal
    an entity arrow's reads that entity's quad, so only the others build one.
    """
    table = doc.table
    arrows = np.flatnonzero(kinds == _ARROW).tolist()
    echoed = {region_coords(e.region): e.region for e in doc.by_kind(EntityKind.ARROW)}
    quads = {k: echoed.get(c) or region_from_coords(c) for k, c in zip(arrows, map(tuple, coords[arrows].tolist()))}
    rows, cols = _table_screen(table, kinds, coords, list(quads.values()))
    box = kinds[cols] != _ARROW
    ious = np.empty(len(rows))
    ious[box] = bounds_iou(table.bounds[rows[box]], coords[cols[box], :4])
    pairs = zip(rows[~box].tolist(), cols[~box].tolist())
    ious[~box] = [region_iou(table.entities[i].region, quads[j]) for i, j in pairs]
    # per member, the pair of highest IoU, then of the smaller id
    order = np.lexsort((table.ranks[rows], -ious, cols))
    firsts = order[np.diff(cols[order], prepend=-1) != 0]
    best = dict(zip(cols[firsts].tolist(), zip(rows[firsts].tolist(), ious[firsts].tolist())))
    resolved = []
    for k, code in enumerate(kinds.tolist()):
        row, iou = best.get(k, (None, 0.0))
        if row is None or iou < RESOLVE_IOU:
            bbox = region_to_array(quads.get(k) or region_from_coords(coords[k, :4].tolist()))
            resolved.append(ResolutionError(f"no {_KINDS[code].value} entity matches bbox {bbox} "
                                            f"at IoU >= {RESOLVE_IOU} (best {iou:.3f})"))
        else:
            resolved.append(table.ids[row])
    return resolved


def parse_combiner_response(raw: str, doc: ReactionDocument) -> list[Reaction]:
    """Parse an agent's reaction array against a document.

    Boxes are matched to document entities of the same kind by best IoU
    (>= 0.9, tolerating slightly perturbed echoes). Raises
    :class:`ResponseFormatError` for malformed JSON or shapes, for a label
    its role does not take, a bbox not of its role's length, and for a
    ``confidence`` that is not a finite number in [0, 1],
    :class:`ConstraintError` for empty reactants/products, and
    :class:`ResolutionError` when a box cannot be grounded; the first
    problem in reply order is the one raised, naming its reaction.

    The reaction-file reader reads the reply's kinds, coordinates and role
    cuts, the members it read before any problem are resolved together by
    :func:`_resolve`, and a walk over the reply in order raises what it
    meets first.
    """
    data = _loads(raw)
    kinds, coords, cuts, problem, (owner, at) = _read_reactions(data, _REPLY_ROLES)
    resolved = _resolve(kinds[:at], coords[:at], doc)

    reactions = []
    for i in range(len(cuts) // 4):
        ids = ([], [], [], [])
        for r, role_ids in enumerate(ids):
            for k in range(cuts[4 * i + r], cuts[4 * i + r + 1]):
                if k == at:
                    raise problem
                found = resolved[k]
                if isinstance(found, ResolutionError):
                    raise ResolutionError(f"reaction {i}: {found}")
                if found not in role_ids:
                    role_ids.append(found)
        if i == owner:
            raise problem
        confidence = data[i].get("confidence", 1.0)
        if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
            raise ResponseFormatError(f"reaction {i}: confidence must be a number")
        if not 0.0 <= confidence <= 1.0:  # also rejects NaN and the infinities
            raise ResponseFormatError(f"reaction {i}: confidence {confidence!r} is not in [0, 1]")
        try:
            reactions.append(Reaction(*map(tuple, ids), score=float(confidence)))
        except ConstraintError as exc:
            raise ConstraintError(f"reaction {i}: {exc}") from None
    if problem is not None:  # a reaction that is not an object, or lacks a role
        raise problem
    return reactions


# --- region-level view used by the evaluation harness ---------------------


class BoxedMember:
    """A reaction member as its kind and validated coordinates, 4 floats for a box and 8 for a quad.

    ``region`` is built from the coordinates on first read. Members equal
    and hash by kind and coordinates, as their regions compare.
    """

    __slots__ = ("kind", "coords", "_region")

    def __init__(self, kind: EntityKind, region: Region):
        self.kind = kind
        self.coords = region_coords(region)
        self._region = region

    @property
    def region(self) -> Region:
        try:
            return self._region
        except AttributeError:  # a loaded member: unset until first read
            self._region = region_from_coords(self.coords)
            return self._region

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.coords == other.coords

    def __hash__(self):
        return hash((self.kind, self.coords))

    @classmethod
    def loaded(cls, kind: EntityKind, coords: tuple[float, ...]) -> BoxedMember:
        """A member of validated coordinates whose region is built on first read."""
        member = cls.__new__(cls)
        member.kind, member.coords = kind, coords
        return member

    def __repr__(self):
        return f"BoxedMember(kind={self.kind!r}, coords={self.coords!r})"


class BoxedReaction:
    """A reaction as bare (kind, coordinates) members, no document needed; equal and hashed by its roles.

    The reader's reactions are views over their list's :class:`MemberColumns`,
    whose roles are made when first read.
    """

    _columns = None  # a view's are its list's

    def __init__(self, reactants, products, conditions=(), arrows=()):
        self.reactants, self.products, self.conditions, self.arrows = reactants, products, conditions, arrows

    reactants, products, conditions, arrows = (
        cached_property(lambda self, r=r: self._columns.role(self._index, r)) for r in range(4)
    )

    def _roles(self) -> tuple:
        return self.reactants, self.products, self.conditions, self.arrows

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._roles() == other._roles()

    def __hash__(self):
        return hash(self._roles())

    def __repr__(self):
        return "BoxedReaction(reactants=%r, products=%r, conditions=%r, arrows=%r)" % self._roles()


class MemberColumns:
    """A reaction list's members, a row each in document order, roles in wire order: each row's
    reaction (``owners``), role index, :data:`~rxnparse.entities.KIND_CODES` and coordinates, a quad's 8
    or a box's 4 then NaN. Reaction ``i``'s role ``r`` is rows ``cuts[4 * i + r]`` up to the next cut.
    ``views`` are the reader's reactions over the columns, and ``screen`` the evaluation's member-pair
    screen against the last predicted list met."""

    __slots__ = ("kinds", "coords", "quads", "cuts", "owners", "roles", "views", "screen")

    def __init__(self, kinds, coords: np.ndarray, cuts: list):
        self.kinds, self.coords, self.cuts = np.asarray(kinds, dtype=np.int64), coords, cuts
        self.quads = ~np.isnan(coords[:, 4])
        sizes, slots = np.diff(cuts), np.arange(len(cuts) - 1)
        self.owners, self.roles = np.repeat(slots // 4, sizes), np.repeat(slots % 4, sizes)
        self.views, self.screen = (), None

    def __len__(self) -> int:  # the number of reactions
        return len(self.cuts) // 4

    def role(self, i: int, r: int) -> tuple[BoxedMember, ...]:
        """Reaction ``i``'s role ``r`` as :class:`BoxedMember` values, their regions not yet built."""
        rows = slice(self.cuts[4 * i + r], self.cuts[4 * i + r + 1])
        found = zip(self.kinds[rows].tolist(), self.coords[rows].tolist(), self.quads[rows].tolist())
        return tuple(BoxedMember.loaded(_KINDS[code], tuple(row if quad else row[:4])) for code, row, quad in found)


# a reaction file's roles take any kind in either shape
_LABELS = {kind.value: code for kind, code in KIND_CODES.items()}
_FILE_ROLES = dict.fromkeys(ROLE_KEYS, (_LABELS, (4, 8)))


def _read_item(item, key: str, labels: dict, lengths: tuple) -> BoxedMember:
    """One item of role ``key`` checked in full against the role's ``labels`` and bbox ``lengths``;
    raises its first problem.

    Under a reply's labels, a kind the role does not take, and a bbox that
    is not a list of the role's length, are rejected before the coordinates.
    """
    if not isinstance(item, dict) or "label" not in item or "bbox" not in item:
        raise ResponseFormatError("reaction items need 'label' and 'bbox'")
    try:
        kind = EntityKind(item["label"])
    except ValueError:
        raise ResponseFormatError(f"unknown label {item['label']!r}") from None
    bbox = item["bbox"]
    if labels is not _LABELS:
        if kind.value not in labels:
            raise ResponseFormatError(f"label {kind.value!r} not allowed in {key}")
        if not isinstance(bbox, list) or len(bbox) not in lengths:
            raise ResponseFormatError(f"{kind.value} bbox must have {lengths[0]} numbers, got {bbox!r}")
    try:
        return BoxedMember(kind, region_from_array(bbox))
    except (TypeError, ValueError) as exc:
        raise ResponseFormatError(f"bad bbox {bbox!r}: {exc}") from None


def _read_reactions(data, roles: dict) -> tuple[np.ndarray, np.ndarray, list, ResponseFormatError | None, tuple]:
    """The members read, as the kind codes, coordinates and role cuts of :class:`MemberColumns`; the
    first problem, naming its reaction, or None; and where it sits: ``(reaction index, member row)``,
    the row None for the reaction's own shape.

    One structural pass records each member's kind code and bbox, checking
    in full at once only an item whose role does not take its label or bbox
    length, and stops at the first problem. The bboxes, all before it, are
    then checked together by :func:`~rxnparse.geometry.coords_from_arrays`,
    and those its bulk checks do not pass in full, in document order. Rows
    from the problem on are not to be read.
    """
    if not isinstance(data, list):
        raise ResponseFormatError("expected a JSON array of reactions")
    kinds, bboxes, cuts = [], [], [0]
    started = 0  # reactions whose roles the pass began to read
    problem, at = None, (None, None)
    try:
        for i, obj in enumerate(data):
            if not isinstance(obj, dict):
                raise ResponseFormatError(f"reaction {i} is not an object")
            missing = [k for k in ROLE_KEYS if k not in obj]
            if missing:
                raise ResponseFormatError(f"reaction {i} is missing keys {missing}")
            started += 1
            for key in ROLE_KEYS:
                items = obj[key]
                if not isinstance(items, list):
                    raise ResponseFormatError(f"reaction {i}: reaction roles must be arrays")
                labels, lengths = roles[key]
                for item in items:
                    if type(item) is dict:
                        try:
                            code, bbox = labels[item["label"]], item["bbox"]
                        except (KeyError, TypeError):  # a missing key, or a label not taken or unhashable
                            code = bbox = None
                        if type(bbox) is list and len(bbox) in lengths:
                            kinds.append(code)
                            bboxes.append(bbox)
                            continue
                    try:
                        member = _read_item(item, key, labels, lengths)
                    except ResponseFormatError as exc:
                        raise ResponseFormatError(f"reaction {i}: {exc}") from None
                    kinds.append(KIND_CODES[member.kind])
                    bboxes.append(member.coords)
                cuts.append(len(kinds))
    except ResponseFormatError as exc:
        problem, at = exc, (i, None)
    cuts += [len(kinds)] * (4 * started + 1 - len(cuts))  # the roles a problem left unread, empty

    coords, unpassed = coords_from_arrays(bboxes)
    for k in unpassed.tolist():
        try:
            region = region_from_array(bboxes[k])
        except (TypeError, ValueError) as exc:
            owner = (bisect_right(cuts, k) - 1) // 4
            problem = ResponseFormatError(f"reaction {owner}: bad bbox {bboxes[k]!r}: {exc}")
            at = owner, k
            break
        coords[k, : len(bboxes[k])] = region_coords(region)
    return np.array(kinds, dtype=np.int64), coords, cuts, problem, at


def boxed_reactions_from_list(data) -> list[BoxedReaction]:
    """Boxed reactions from a decoded reaction array, any 4- or 8-number box under any label.

    Raises :class:`ResponseFormatError`, naming the reaction index, for
    the first malformed reaction, member or box in document order, as
    :func:`_read_reactions` finds it. The reactions are views over one
    :class:`MemberColumns`.
    """
    kinds, coords, cuts, problem, _ = _read_reactions(data, _FILE_ROLES)
    if problem is not None:
        raise problem
    columns = MemberColumns(kinds, coords, cuts)
    views = [BoxedReaction.__new__(BoxedReaction) for _ in range(len(columns))]
    for i, view in enumerate(views):
        view._columns, view._index = columns, i
    columns.views = tuple(views)
    return views


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResponseFormatError(f"not valid JSON: {exc}") from exc


def boxed_reactions_from_json(text: str) -> list[BoxedReaction]:
    """:func:`boxed_reactions_from_list` of a JSON text; invalid JSON is a :class:`ResponseFormatError`."""
    return boxed_reactions_from_list(_loads(text))

