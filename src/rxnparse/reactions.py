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
with every box's coordinates checked in bulk, gives
:class:`BoxedMember` values that hold validated coordinates and build
their regions only when read. The evaluation harness reads reaction
files with it into :class:`BoxedReaction` values;
:func:`parse_combiner_response` reads an agent's reply with it, under
each role's kinds and box length, and resolves the boxes to
document entities by best IoU against the document's entity table.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
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


_MEMBER_KINDS = {kind.value: kind for kind in (EntityKind.MOLECULE, EntityKind.IDENTIFIER, EntityKind.TEXT)}
# per reply role key: label -> kind for the kinds it takes, and the bbox lengths it takes as a pair
# (a file's roles take (4, 8); a reply role one length, twice)
_REPLY_ROLES = {
    "reactants": (_MEMBER_KINDS, (4, 4)),
    "products": (_MEMBER_KINDS, (4, 4)),
    "conditions": (_MEMBER_KINDS, (4, 4)),
    "arrow": ({EntityKind.ARROW.value: EntityKind.ARROW}, (8, 8)),
}
_REQUIRED_KEYS = tuple(_REPLY_ROLES)


def _table_screen(table, kind: EntityKind, queries) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(row, j)``, row-major, of a table row of ``kind`` and ``queries[j]``, members of that kind,
    whose :func:`region_iou` may be nonzero: a box's bounds meet the row's, or for a reply arrow
    (a quad has no bounds), :func:`~rxnparse.geometry._clip_may_meet` keeps the row's hull; reply arrows
    go in blocks that keep each temporary under :data:`_SCREEN_FLOATS` floats."""
    rows = np.flatnonzero(table.kinds == KIND_CODES[kind])
    if kind == EntityKind.ARROW:  # the table's hulls are those of its arrow rows, in row order
        hull_x, hull_y = table.hulls[..., 0].ravel(), table.hulls[..., 1].ravel()
        clips = [hull + hull[:1] * (4 - len(hull)) for hull in (query.region.hull for query in queries)]
        step = max(1, _SCREEN_FLOATS // (16 * len(rows) or 1))  # 4 clip edges by 4 hull vertices per row
        meet = np.concatenate([_clip_may_meet(hull_x, hull_y, clips[k : k + step]) for k in range(0, len(clips), step)])
        found, cols = np.nonzero(meet.reshape(len(queries), len(rows)).T)
    else:
        found, cols = bounds_overlap(table.bounds[rows], np.array([query.coords for query in queries]))
    return rows[found], cols


def _resolve(members, doc: ReactionDocument) -> dict:
    """``member -> id of its entity``, or the :class:`ResolutionError` saying why none, for each distinct member.

    A member's entity is the one of its kind with the highest IoU, and on
    equal IoU the smaller id, if that IoU reaches :data:`RESOLVE_IOU`. Each
    kind's members are screened together against the document's
    :class:`~rxnparse.entities.EntityTable` by :func:`_table_screen`.
    Entities the screen leaves out score exactly 0.0, so they can neither
    win nor change the best IoU. Screened boxes get :func:`bounds_iou`,
    the floats of ``iou_axis``, all at once; each screened arrow pair gets
    the exact :func:`region_iou`, and a reply arrow whose numbers equal an
    entity arrow's reads that entity's quad.
    """
    by_kind: dict = {}
    for member in members:
        by_kind.setdefault(member.kind, {}).setdefault(member, None)
    table = doc.table
    resolved = {}
    for kind, queries in by_kind.items():
        queries = list(queries)
        if kind == EntityKind.ARROW:
            quads = {region_coords(e.region): e.region for e in doc.by_kind(kind)}
            for query in queries:
                query._region = quads.get(query.coords) or query.region
        rows, cols = _table_screen(table, kind, queries)
        if kind == EntityKind.ARROW:
            pairs = zip(rows.tolist(), cols.tolist())
            ious = np.array([region_iou(table.entities[i].region, queries[j].region) for i, j in pairs])
        else:
            ious = bounds_iou(table.bounds[rows], np.array([query.coords for query in queries]).reshape(-1, 4)[cols])
        # per query, the pair of highest IoU, then of the smaller id
        order = np.lexsort((table.ranks[rows], -ious, cols))
        firsts = order[np.diff(cols[order], prepend=-1) != 0]
        best = dict(zip(cols[firsts].tolist(), zip(rows[firsts].tolist(), ious[firsts].tolist())))
        for j, query in enumerate(queries):
            row, iou = best.get(j, (None, 0.0))
            if row is None or iou < RESOLVE_IOU:
                resolved[query] = ResolutionError(
                    f"no {kind.value} entity matches bbox {region_to_array(query.region)} "
                    f"at IoU >= {RESOLVE_IOU} (best {iou:.3f})"
                )
            else:
                resolved[query] = table.ids[row]
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

    The reaction-file reader's structural pass reads the reply, the
    members it read are resolved together by :func:`_resolve`, and a walk
    over the reply in order raises what it meets first.
    """
    data = _loads(raw)
    read, problem, (owner, at) = _read_reactions(data, _REPLY_ROLES)
    members = []  # those before the problem
    for member in (m for roles in read for role in roles for m in role):
        if member is at:
            break
        members.append(member)
    resolved = _resolve(members, doc)

    reactions = []
    for i, (obj, roles) in enumerate(zip(data, read)):
        ids = ([], [], [], [])
        for role, role_ids in zip(roles, ids):
            for member in role:
                if member is at:
                    raise problem
                found = resolved[member]
                if isinstance(found, ResolutionError):
                    raise ResolutionError(f"reaction {i}: {found}")
                if found not in role_ids:
                    role_ids.append(found)
        if i == owner:
            raise problem
        reactants, products, conditions, arrows = map(tuple, ids)
        confidence = obj.get("confidence", 1.0)
        if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
            raise ResponseFormatError(f"reaction {i}: confidence must be a number")
        if not 0.0 <= confidence <= 1.0:  # also rejects NaN and the infinities
            raise ResponseFormatError(f"reaction {i}: confidence {confidence!r} is not in [0, 1]")
        try:
            reactions.append(
                Reaction(
                    reactants=reactants,
                    products=products,
                    conditions=conditions,
                    arrows=arrows,
                    score=float(confidence),
                )
            )
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

    def __repr__(self):
        return f"BoxedMember(kind={self.kind!r}, coords={self.coords!r})"


@dataclass(frozen=True)
class BoxedReaction:
    """A reaction as bare (kind, coordinates) members, no document needed."""

    reactants: tuple[BoxedMember, ...]
    products: tuple[BoxedMember, ...]
    conditions: tuple[BoxedMember, ...] = ()
    arrows: tuple[BoxedMember, ...] = ()


# a reaction file's roles take any kind in either shape
_LABELS = {kind.value: kind for kind in EntityKind}
_FILE_ROLES = dict.fromkeys(_REQUIRED_KEYS, (_LABELS, (4, 8)))


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


def _read_reactions(data, roles: dict) -> tuple[list, ResponseFormatError | None, tuple]:
    """Per reaction read, its roles as :class:`BoxedMember` lists; the first problem, naming its reaction,
    or None; and where it sits: ``(reaction index, member)``, the member None for the reaction's own shape.

    A dict item whose role takes its label and bbox length waits for its
    coordinates; any other item is checked in full at once, and the pass
    stops at the first problem. The waiting boxes, all before it, are then
    checked together by :func:`~rxnparse.geometry.coords_from_arrays`, and
    those its bulk checks do not pass in full, in document order. Members
    from the problem on are not to be read.
    """
    if not isinstance(data, list):
        raise ResponseFormatError("expected a JSON array of reactions")
    reactions = []
    waiting, bboxes = [], []  # members awaiting their coordinates, and their bboxes
    firsts = []  # per reaction, the index in waiting of its first member there
    problem, at = None, (None, None)
    try:
        for i, obj in enumerate(data):
            if not isinstance(obj, dict):
                raise ResponseFormatError(f"reaction {i} is not an object")
            missing = [k for k in _REQUIRED_KEYS if k not in obj]
            if missing:
                raise ResponseFormatError(f"reaction {i} is missing keys {missing}")
            firsts.append(len(waiting))
            read = []
            reactions.append(read)
            for key in _REQUIRED_KEYS:
                items = obj[key]
                if not isinstance(items, list):
                    raise ResponseFormatError(f"reaction {i}: reaction roles must be arrays")
                labels, (short, long) = roles[key]
                role = []
                read.append(role)
                for item in items:
                    if type(item) is dict:
                        try:
                            kind, bbox = labels[item["label"]], item["bbox"]
                        except (KeyError, TypeError):  # a missing key, or a label not taken or unhashable
                            kind = bbox = None
                        if type(bbox) is list and (len(bbox) == short or len(bbox) == long):
                            member = object.__new__(BoxedMember)
                            member.kind = kind
                            role.append(member)
                            waiting.append(member)
                            bboxes.append(bbox)
                            continue
                    try:
                        role.append(_read_item(item, key, labels, (short, long)))
                    except ResponseFormatError as exc:
                        raise ResponseFormatError(f"reaction {i}: {exc}") from None
    except ResponseFormatError as exc:
        problem, at = exc, (i, None)

    coords, unpassed = coords_from_arrays(bboxes)
    coords = coords or [None] * len(bboxes)
    for k in unpassed.tolist():
        try:
            region = region_from_array(bboxes[k])
        except (TypeError, ValueError) as exc:
            owner = bisect_right(firsts, k) - 1
            problem = ResponseFormatError(f"reaction {owner}: bad bbox {bboxes[k]!r}: {exc}")
            at = owner, waiting[k]
            break
        waiting[k]._region, coords[k] = region, region_coords(region)
    for member, member_coords in zip(waiting, coords):
        member.coords = member_coords
    return reactions, problem, at


def boxed_reactions_from_list(data) -> list[BoxedReaction]:
    """Boxed reactions from a decoded reaction array, any 4- or 8-number box under any label.

    Raises :class:`ResponseFormatError`, naming the reaction index, for
    the first malformed reaction, member or box in document order, as
    :func:`_read_reactions` finds it.
    """
    reactions, problem, _ = _read_reactions(data, _FILE_ROLES)
    if problem is not None:
        raise problem
    return [BoxedReaction(*map(tuple, roles)) for roles in reactions]


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResponseFormatError(f"not valid JSON: {exc}") from exc


def boxed_reactions_from_json(text: str) -> list[BoxedReaction]:
    """:func:`boxed_reactions_from_list` of a JSON text; invalid JSON is a :class:`ResponseFormatError`."""
    return boxed_reactions_from_list(_loads(text))

