"""Reactions and their JSON wire format.

The output format is a JSON array of objects with exactly the keys
``reactants``, ``products``, ``conditions``, ``arrow`` (in that order),
each holding ``{"label": ..., "bbox": [...]}`` items; boxes are
4-number arrays, arrow boxes 8-number arrays, and integer coordinates
stay integers. ``reactants`` and ``products`` must not be empty;
``conditions`` and ``arrow`` may be.

Inside the pipeline a reaction references document entities by id; the
serializer materializes labels and boxes from the document, and
:func:`parse_combiner_response` resolves boxes coming back from an
agent to document entities by best IoU. The evaluation harness reads
reaction files into :class:`BoxedReaction` values, whose members hold
validated coordinates and build their regions only when read.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

from .chem import ElementCounts
from .entities import EntityKind, ReactionDocument
from .geometry import (
    Region,
    RegionIndex,
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


class Conservation(str, Enum):
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"
    UNKNOWN = "unknown"


RESOLVE_IOU = 0.9


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
    residual: tuple[ElementCounts, int] | None = None

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


def _role_to_json(ids, doc: ReactionDocument) -> list[dict]:
    items = []
    for entity_id in ids:
        entity = doc.entity(entity_id)
        items.append({"label": entity.kind.value, "bbox": region_to_array(entity.region)})
    return items


def reaction_to_json(reaction: Reaction, doc: ReactionDocument) -> dict:
    return {
        "reactants": _role_to_json(reaction.reactants, doc),
        "products": _role_to_json(reaction.products, doc),
        "conditions": _role_to_json(reaction.conditions, doc),
        "arrow": _role_to_json(reaction.arrows, doc),
    }


# one reaction and one role member as json.dumps(..., indent=2) writes them at their depth in the output
_REACTION_JSON = '  {\n    "reactants": %s,\n    "products": %s,\n    "conditions": %s,\n    "arrow": %s\n  }'
_MEMBER_JSON = '      {\n        "label": %s,\n        "bbox": [\n          %s\n        ]\n      }'


def reactions_to_json(reactions, doc: ReactionDocument) -> str:
    """The bytes ``json.dumps([reaction_to_json(r, doc) for r in reactions], indent=2)`` gives.

    Each member's block is rendered once per call, its numbers the
    ``repr`` of :func:`~rxnparse.geometry.region_to_array`'s ints and
    floats as ``json`` writes them; blocks join per role, and an empty
    role or reaction list is written ``[]``.
    """
    blocks: dict[str, str] = {}

    def role(ids) -> str:
        if not ids:
            return "[]"
        for entity_id in ids:
            if entity_id not in blocks:
                entity = doc.entity(entity_id)
                numbers = ",\n          ".join(map(repr, region_to_array(entity.region)))
                blocks[entity_id] = _MEMBER_JSON % (json.dumps(entity.kind.value), numbers)
        return "[\n" + ",\n".join(blocks[entity_id] for entity_id in ids) + "\n    ]"

    if not reactions:
        return "[]"
    written = (_REACTION_JSON % tuple(map(role, (r.reactants, r.products, r.conditions, r.arrows))) for r in reactions)
    return "[\n" + ",\n".join(written) + "\n]"


_MEMBER_KINDS = (EntityKind.MOLECULE, EntityKind.IDENTIFIER, EntityKind.TEXT)
# reply role key -> the entity kinds its items may name
_ROLE_KINDS = {
    "reactants": _MEMBER_KINDS,
    "products": _MEMBER_KINDS,
    "conditions": _MEMBER_KINDS,
    "arrow": (EntityKind.ARROW,),
}
_REQUIRED_KEYS = tuple(_ROLE_KINDS)


def _item_region(item, kind_field: str) -> tuple[EntityKind, Region] | ResponseFormatError:
    """The (kind, region) a reply item names, or the format error that rejects it."""
    if not isinstance(item, dict) or "label" not in item or "bbox" not in item:
        return ResponseFormatError(f"{kind_field} items need 'label' and 'bbox'")
    try:
        kind = EntityKind(item["label"])
    except ValueError:
        return ResponseFormatError(f"unknown label {item['label']!r}")
    if kind not in _ROLE_KINDS[kind_field]:
        return ResponseFormatError(f"label {kind.value!r} not allowed in {kind_field}")
    bbox = item["bbox"]
    expected = 8 if kind == EntityKind.ARROW else 4
    if not isinstance(bbox, list) or len(bbox) != expected:
        return ResponseFormatError(f"{kind.value} bbox must have {expected} numbers, got {bbox!r}")
    try:
        return kind, region_from_array(bbox)
    except (TypeError, ValueError) as exc:
        return ResponseFormatError(f"bad bbox {bbox!r}: {exc}")


def _resolve_regions(queries, doc: ReactionDocument) -> dict:
    """``(kind, region) -> (best entity or None, best IoU)`` for each distinct query.

    The best entity of ``kind`` has the highest IoU with ``region``, and on
    equal IoU the smaller id. Each kind's entities are screened once
    against all its queries by :meth:`RegionIndex.candidate_pairs` (boxes
    by bounds, reply arrows by the clip's first step). Entities the screen
    leaves out score exactly 0.0, so they can neither win nor change the
    best IoU; the exact :func:`region_iou` runs on screened pairs only.
    """
    by_kind: dict = {}
    for kind, region in queries:
        by_kind.setdefault(kind, {}).setdefault(region, None)
    resolved = {}
    for kind, regions in by_kind.items():
        entities = doc.by_kind(kind)
        regions = list(regions)
        rows, cols = RegionIndex(e.region for e in entities).candidate_pairs(regions)
        best: list = [None] * len(regions)
        best_iou = [0.0] * len(regions)
        for i, j in zip(rows.tolist(), cols.tolist()):
            entity = entities[i]
            iou = region_iou(entity.region, regions[j])
            if best[j] is None or iou > best_iou[j] or (iou == best_iou[j] and entity.id < best[j].id):
                best[j], best_iou[j] = entity, iou
        resolved.update(((kind, region), found) for region, found in zip(regions, zip(best, best_iou)))
    return resolved


def _role_ids(items, kind_field: str, resolved: dict) -> tuple[str, ...]:
    """Entity ids of one role, from its items' :func:`_item_region` results; raises the first error."""
    if items is None:
        raise ResponseFormatError(f"{kind_field} must be an array")
    ids = []
    for item in items:
        if isinstance(item, ResponseFormatError):
            raise item
        kind, region = item
        entity, iou = resolved[item]
        if entity is None or iou < RESOLVE_IOU:
            raise ResolutionError(
                f"no {kind.value} entity matches bbox {region_to_array(region)} "
                f"at IoU >= {RESOLVE_IOU} (best {iou:.3f})"
            )
        if entity.id not in ids:
            ids.append(entity.id)
    return tuple(ids)


def parse_combiner_response(raw: str, doc: ReactionDocument) -> list[Reaction]:
    """Parse an agent's reaction array against a document.

    Boxes are matched to document entities of the same kind by best IoU
    (>= 0.9, tolerating slightly perturbed echoes). Raises
    :class:`ResponseFormatError` for malformed JSON or shapes and for a
    ``confidence`` that is not a finite number in [0, 1],
    :class:`ConstraintError` for empty reactants/products, and
    :class:`ResolutionError` when a box cannot be grounded; the first
    problem in reply order is the one raised.

    One lenient pass reads every item's region (roles that are not arrays
    read as ``None``), all regions are resolved together, and a second
    pass walks the reply in order, raising what it meets first.
    """
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ResponseFormatError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ResponseFormatError("response must be a JSON array of reactions")

    # per reaction (None if not an object), per role: the items' (kind, region) or format errors
    parsed = [
        {
            key: [_item_region(item, key) for item in obj[key]] if isinstance(obj.get(key), list) else None
            for key in _REQUIRED_KEYS
        }
        if isinstance(obj, dict)
        else None
        for obj in data
    ]
    resolved = _resolve_regions(
        (item
         for roles in parsed if roles is not None
         for items in roles.values() if items is not None
         for item in items if not isinstance(item, ResponseFormatError)),
        doc,
    )

    reactions = []
    for i, (obj, roles) in enumerate(zip(data, parsed)):
        if roles is None:
            raise ResponseFormatError(f"reaction {i} is not an object")
        missing = [k for k in _REQUIRED_KEYS if k not in obj]
        if missing:
            raise ResponseFormatError(f"reaction {i} is missing keys {missing}")
        reactants, products, conditions, arrows = (_role_ids(roles[k], k, resolved) for k in _REQUIRED_KEYS)
        if not reactants or not products:
            raise ConstraintError(f"reaction {i}: reactants and products must not be empty")
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


_LABELS = {kind.value: kind for kind in EntityKind}


def _checked_member(item) -> BoxedMember:
    """One reaction item checked in full; raises its first problem."""
    if not isinstance(item, dict) or "label" not in item or "bbox" not in item:
        raise ResponseFormatError("reaction items need 'label' and 'bbox'")
    try:
        kind = EntityKind(item["label"])
    except ValueError:
        raise ResponseFormatError(f"unknown label {item['label']!r}") from None
    try:
        region = region_from_array(item["bbox"])
    except (TypeError, ValueError) as exc:
        raise ResponseFormatError(f"bad bbox {item['bbox']!r}: {exc}") from None
    return BoxedMember(kind, region)


def boxed_reactions_from_list(data) -> list[BoxedReaction]:
    """Boxed reactions from a decoded reaction array, any 4- or 8-number box under any label.

    Raises :class:`ResponseFormatError`, naming the reaction index, for
    the first malformed reaction, member or box in document order.

    One pass reads the structure. A dict item with a known label and a
    list of 4 or 8 values waits for its coordinates; any other item is
    checked in full at once, and the pass stops at the first problem. The
    waiting boxes, all before that problem, are then checked together by
    :func:`~rxnparse.geometry.coords_from_arrays`, and those its bulk
    checks do not pass are checked in full, in document order.
    """
    if not isinstance(data, list):
        raise ResponseFormatError("expected a JSON array of reactions")
    reactions = []
    waiting, bboxes = [], []  # members awaiting their coordinates, and their bboxes
    firsts = []  # per reaction, the index in waiting of its first member there
    problem = None
    try:
        for i, obj in enumerate(data):
            if not isinstance(obj, dict):
                raise ResponseFormatError(f"reaction {i} is not an object")
            missing = [k for k in _REQUIRED_KEYS if k not in obj]
            if missing:
                raise ResponseFormatError(f"reaction {i} is missing keys {missing}")
            firsts.append(len(waiting))
            roles = []
            for key in _REQUIRED_KEYS:
                items = obj[key]
                if not isinstance(items, list):
                    raise ResponseFormatError(f"reaction {i}: reaction roles must be arrays")
                role = []
                for item in items:
                    if type(item) is dict:
                        try:
                            kind, bbox = _LABELS[item["label"]], item["bbox"]
                        except (KeyError, TypeError):  # a missing key, or an unknown or unhashable label
                            kind = bbox = None
                        if type(bbox) is list and (len(bbox) == 4 or len(bbox) == 8):
                            member = object.__new__(BoxedMember)
                            member.kind = kind
                            role.append(member)
                            waiting.append(member)
                            bboxes.append(bbox)
                            continue
                    try:
                        role.append(_checked_member(item))
                    except ResponseFormatError as exc:
                        raise ResponseFormatError(f"reaction {i}: {exc}") from None
                roles.append(tuple(role))
            reactions.append(BoxedReaction(*roles))
    except ResponseFormatError as exc:
        problem = exc

    coords, unpassed = coords_from_arrays(bboxes)
    coords = coords or [None] * len(bboxes)
    for k in unpassed.tolist():
        try:
            region = region_from_array(bboxes[k])
        except (TypeError, ValueError) as exc:
            owner = bisect_right(firsts, k) - 1
            raise ResponseFormatError(f"reaction {owner}: bad bbox {bboxes[k]!r}: {exc}") from None
        waiting[k]._region, coords[k] = region, region_coords(region)
    if problem is not None:
        raise problem
    for member, member_coords in zip(waiting, coords):
        member.coords = member_coords
    return reactions


def boxed_reactions_from_json(text: str) -> list[BoxedReaction]:
    """:func:`boxed_reactions_from_list` of a JSON text; invalid JSON is a :class:`ResponseFormatError`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResponseFormatError(f"not valid JSON: {exc}") from exc
    return boxed_reactions_from_list(data)


def boxed_view(reaction: Reaction, doc: ReactionDocument) -> BoxedReaction:
    def role(ids):
        return tuple(
            BoxedMember(kind=doc.entity(i).kind, region=doc.entity(i).region) for i in ids
        )

    return BoxedReaction(
        reactants=role(reaction.reactants),
        products=role(reaction.products),
        conditions=role(reaction.conditions),
        arrows=role(reaction.arrows),
    )
