"""Detected diagram entities and the documents that hold them.

The detection file is a JSON object::

    {
      "image": str?, "width": number, "height": number, "layout": str?,
      "entities": [
        {"id": str, "label": "molecule"|"arrow"|"text"|"identifier",
         "bbox": [4 or 8 numbers],
         "smiles": str?, "text": str?,
         "direction": "forward"|"reversible"|"resonance"?,
         "resolves_to": str?}
      ]
    }

Arrows carry 8-number oriented boxes, everything else 4-number axis
boxes. Every number must be finite: ``NaN`` and ``Infinity``, which
``json.loads`` accepts, are schema errors. A SMILES payload that fails
to parse does not reject the entity: it enters the pipeline unparsed
(recorded as a document warning) and the chemistry channel falls back
to a neutral score for it.

Each distinct SMILES is parsed once per document: every entity naming
it shares one :class:`~rxnparse.chem.Molecule`, together with the
chemistry the molecule computes on first read (fingerprint, sketch, atom
counts, charge). A SMILES that fails to parse warns for every entity
naming it. Every reasoning layer reads the entities through the
document's one :class:`EntityTable`.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .chem import Molecule, SmilesSyntaxError, ValenceError, parse_smiles
from .geometry import (
    AxisBox,
    OrientedQuad,
    Region,
    centroid_distances,
    region_from_array,
    region_to_array,
)


class SchemaError(ValueError):
    """Detection file violates the schema; carries a JSON-pointer path."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer


class EntityKind(str, Enum):
    MOLECULE = "molecule"
    ARROW = "arrow"
    TEXT = "text"
    IDENTIFIER = "identifier"


class ArrowDirection(str, Enum):
    FORWARD = "forward"
    REVERSIBLE = "reversible"
    RESONANCE = "resonance"


LAYOUT_CLASSES = ("single_line", "multiple_line", "tree", "graph")
KIND_CODES = {kind: code for code, kind in enumerate(EntityKind)}  # molecule 0, arrow 1, text 2, identifier 3


@dataclass(frozen=True)
class Entity:
    """One detected diagram element: region, kind, semantic payload."""

    id: str
    kind: EntityKind
    region: Region
    smiles: str | None = None
    molecule: Molecule | None = None
    text: str | None = None
    direction: ArrowDirection | None = None
    resolves_to: str | None = None

    def __post_init__(self):
        is_quad = isinstance(self.region, OrientedQuad)
        if (self.kind == EntityKind.ARROW) != is_quad:
            raise ValueError(
                f"entity {self.id!r}: kind {self.kind.value} requires "
                f"{'an oriented quad' if self.kind == EntityKind.ARROW else 'an axis box'}"
            )

    @property
    def centroid(self):
        return self.region.centroid


@dataclass(frozen=True)
class ReactionDocument:
    """Entity set of one diagram; an entity's position is its reading order.

    :func:`load_document` sorts the entities top to bottom, then left to
    right, then by id; a document built by hand is read in its given order.
    """

    diagram_bounds: AxisBox
    entities: tuple[Entity, ...]
    image_ref: str | None = None
    layout_class: str | None = None
    warnings: tuple[str, ...] = ()
    _index: dict = field(init=False, repr=False, compare=False)
    _table: weakref.ref | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for entity in self.entities:
            if entity.id in index:
                raise ValueError(f"duplicate entity id {entity.id!r}")
            index[entity.id] = entity
        object.__setattr__(self, "_index", index)

    def entity(self, entity_id: str) -> Entity:
        return self._index[entity_id]

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._index

    def by_kind(self, kind: EntityKind) -> tuple[Entity, ...]:
        return tuple(e for e in self.entities if e.kind == kind)

    @property
    def table(self) -> "EntityTable":
        """The document's entity table, built on first read and shared while any reader holds it.

        The document keeps only a weak reference, so documents kept after
        their reasoning pass do not keep their n×n distance matrices. A
        caller looping over clusters (``cluster_prompt_variables`` for
        each) should hold the table for the loop, or each cluster rebuilds it.
        """
        table = None if self._table is None else self._table()
        if table is None:
            table = EntityTable.of(self)
            object.__setattr__(self, "_table", weakref.ref(table))
        return table

    def __getstate__(self):
        return {**self.__dict__, "_table": None}  # a weak reference does not pickle


_NAN_KEY = 0x7FF8000000000000  # kNN keys: the bits of a positive quiet NaN order after +inf's,
_TAKEN = np.iinfo(np.int64).max  # and a taken entry's, or a row's own, after every distance's


@dataclass(frozen=True, eq=False)
class EntityTable:
    """Read-only arrays over a document's entities, row ``i`` for ``doc.entities[i]`` (its position).

    Centroids, bounds, box sizes and areas are the floats the regions
    compute, and ``hulls`` the arrows' hulls that reply arrows are
    screened against. ``distances`` is
    :func:`~rxnparse.geometry.centroid_distances` of the centroids; it, the
    kNN links and each row's JSON text are computed on first read, so a
    table read only for its bounds builds no n×n matrix and writes no text.
    Writing into an array raises ``ValueError``, so no layer can change
    what another reads.
    """

    entities: tuple[Entity, ...]
    ids: tuple[str, ...]
    position: dict  # id -> position
    sorted_ids: tuple[str, ...]
    ranks: np.ndarray  # rank of each id in sorted_ids
    kinds: np.ndarray  # KIND_CODES
    centroids: np.ndarray  # (n, 2)
    bounds: np.ndarray  # (n, 4) x_min, y_min, x_max, y_max of each bounding box
    sizes: np.ndarray  # (n, 2) width and height of each bounding box
    areas: np.ndarray
    hulls: np.ndarray  # (arrows, 4, 2) the hull of each arrow row in row order, 3 vertices padded by the first
    diagram: AxisBox  # the document's diagram bounds
    _links: dict = field(default_factory=dict, init=False, repr=False)  # k -> knn_links(k)

    @classmethod
    def of(cls, doc: ReactionDocument) -> "EntityTable":
        ids = tuple(e.id for e in doc.entities)
        rows = []  # cx, cy, area, kind code, then the bounding box
        hulls = []
        for entity in doc.entities:
            region = entity.region
            if isinstance(region, AxisBox):
                box = region
            else:
                box, hull = region.bounding_box(), region.hull
                hulls.append(hull + hull[:1] * (4 - len(hull)))
            rows.append((*region.centroid, region.area, KIND_CODES[entity.kind], box.x_min, box.y_min, box.x_max, box.y_max))
        columns = np.array(rows, dtype=float).reshape(len(ids), 8)
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        ranks = np.empty(len(ids), dtype=np.intp)
        ranks[by_id] = np.arange(len(ids))
        centroids, bounds = columns[:, 0:2].copy(), columns[:, 4:8].copy()
        arrays = dict(
            ranks=ranks, kinds=columns[:, 3].astype(np.intp),
            centroids=centroids, bounds=bounds, sizes=bounds[:, 2:] - bounds[:, :2], areas=columns[:, 2].copy(),
            hulls=np.array(hulls, dtype=float).reshape(-1, 4, 2),
        )
        for array in arrays.values():
            array.flags.writeable = False
        position = dict(zip(ids, range(len(ids))))
        return cls(doc.entities, ids, position, tuple(ids[i] for i in by_id), **arrays, diagram=doc.diagram_bounds)

    @cached_property
    def distances(self) -> np.ndarray:
        """(n, n) centroid distances over the diagram diagonal, read-only."""
        distances = centroid_distances(self.centroids, self.diagram)
        distances.flags.writeable = False
        return distances

    def knn_links(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only rows ``(i, j)``, ``i < j``, row-major, where one is among the other's ``k`` nearest others.

        Others come in stable (distance, index) order, NaN last, a row's own
        index left out (another entity may share its centroid): each pass takes
        every row's first smallest distance bits. Computed once per ``k``."""
        if k not in self._links:
            n = len(self.ids)
            rows = np.arange(n)
            keys = np.where(np.isnan(self.distances), _NAN_KEY, (self.distances + 0.0).view(np.int64))  # no -0.0
            keys[rows, rows] = _TAKEN
            codes = []
            for _ in range(min(k, n - 1)):
                nearest = keys.argmin(axis=1)
                codes.append(np.minimum(rows, nearest) * n + np.maximum(rows, nearest))
                keys[rows, nearest] = _TAKEN
            self._links[k] = np.divmod(np.unique(np.concatenate(codes or [rows[:0]])), max(n, 1))
            for array in self._links[k]:
                array.flags.writeable = False
        return self._links[k]

    @cached_property
    def numbers(self) -> tuple[tuple[str, ...], ...]:
        """Each row's bbox numbers as JSON writes them: the ``repr`` of :func:`region_to_array`'s ints and floats."""
        return tuple(tuple(map(repr, region_to_array(e.region))) for e in self.entities)

    @cached_property
    def nodes(self) -> tuple[str, ...]:
        """Each row's JSON object, its bbox and fields, as ``json.dumps(..., sort_keys=True)`` writes it."""
        return tuple(
            '{"bbox": [' + ", ".join(numbers) + "], "  # "bbox" sorts before every other key
            + ", ".join(f'"{key}": {encode_basestring_ascii(value)}' for key, value in sorted(_fields(e).items()))
            + "}"
            for e, numbers in zip(self.entities, self.numbers)
        )

    def by_id_pairs(self, rows, cols, values) -> dict:
        """``{(id_a, id_b): values[k]}`` with ``id_a < id_b`` for the edges ``(rows[k], cols[k])``, in edge order."""
        pairs = ((self.ids[i], self.ids[j]) for i, j in zip(rows.tolist(), cols.tolist()))
        return {(min(a, b), max(a, b)): value for (a, b), value in zip(pairs, values.tolist())}


def _require(condition: bool, message: str, *path) -> None:
    """Raise a :class:`SchemaError` at the JSON pointer of ``path``'s parts when ``condition`` fails; the
    pointer is formatted only then."""
    if not condition:
        raise SchemaError(message, "".join(f"/{part}" for part in path))


def _number(value, key: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), "expected a number", key)
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    _require(math.isfinite(number), "expected a finite number", key)
    return number


def load_document(source: bytes | str | dict) -> ReactionDocument:
    """Parse a detection file into a :class:`ReactionDocument`.

    Entities are sorted by region centroid (y, then x, then id), so
    position is reading order; a box leaving the diagram bounds is
    clamped to them and an arrow leaving them keeps its vertices, each
    with a warning; SMILES payloads are parsed once per distinct string,
    failures recorded rather than raised.
    """
    if isinstance(source, (bytes, str)):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", "") from exc
    else:
        data = source
    _require(isinstance(data, dict), "detection file must be a JSON object")

    width = _number(data.get("width"), "width")
    height = _number(data.get("height"), "height")
    _require(width > 0, "width must be positive", "width")
    _require(height > 0, "height must be positive", "height")
    bounds = AxisBox(0.0, 0.0, width, height)

    image_ref = data.get("image")
    _require(image_ref is None or isinstance(image_ref, str), "image must be a string", "image")
    layout = data.get("layout")
    _require(layout is None or layout in LAYOUT_CLASSES, f"layout must be one of {LAYOUT_CLASSES}", "layout")

    raw_entities = data.get("entities", [])
    _require(isinstance(raw_entities, list), "entities must be an array", "entities")

    warnings: list[str] = []
    seen_ids: set[str] = set()
    molecules: dict[str, Molecule] = {}  # parsed SMILES of this document
    entities: list[Entity] = []
    # pointers and messages naming the entity are formatted only when a check fails
    for i, raw in enumerate(raw_entities):
        _require(isinstance(raw, dict), "entity must be an object", "entities", i)
        entity_id = raw.get("id")
        _require(isinstance(entity_id, str) and entity_id, "entity id must be a non-empty string", "entities", i, "id")
        if entity_id in seen_ids:
            raise SchemaError(f"duplicate entity id {entity_id!r}", f"/entities/{i}/id")
        seen_ids.add(entity_id)

        label = raw.get("label")
        try:
            kind = EntityKind(label)
        except ValueError:
            raise SchemaError(f"unknown label {label!r}", f"/entities/{i}/label") from None

        bbox = raw.get("bbox")
        _require(isinstance(bbox, list), "bbox must be an array", "entities", i, "bbox")
        expected = 8 if kind == EntityKind.ARROW else 4
        if len(bbox) != expected:
            raise SchemaError(f"{kind.value} entities need a {expected}-number bbox", f"/entities/{i}/bbox")
        try:
            region = region_from_array(bbox)
        except ValueError as exc:
            raise SchemaError(str(exc), f"/entities/{i}/bbox") from None

        # a box inside the diagram would clamp to an equal one; an arrow is never clamped, as a quad's
        # intersection with the diagram can have up to 8 vertices
        if isinstance(region, OrientedQuad):
            if not bounds.contains(region.bounding_box()):
                warnings.append(f"entity {entity_id!r}: arrow leaves the diagram bounds")
        elif not bounds.contains(region):
            region = region.clamped_to(bounds)
            warnings.append(f"entity {entity_id!r}: region clamped to diagram bounds")

        smiles = raw.get("smiles")
        _require(smiles is None or isinstance(smiles, str), "smiles must be a string", "entities", i, "smiles")
        text = raw.get("text")
        _require(text is None or isinstance(text, str), "text must be a string", "entities", i, "text")
        direction_raw = raw.get("direction")
        direction = None
        if direction_raw is not None:
            _require(kind == EntityKind.ARROW, "direction is only valid on arrows", "entities", i, "direction")
            try:
                direction = ArrowDirection(direction_raw)
            except ValueError:
                raise SchemaError(f"unknown direction {direction_raw!r}", f"/entities/{i}/direction") from None
        resolves_to = raw.get("resolves_to")
        _require(
            resolves_to is None or isinstance(resolves_to, str),
            "resolves_to must be an entity id string",
            "entities", i, "resolves_to",
        )

        molecule = None if smiles is None else molecules.get(smiles)
        if smiles is not None and molecule is None:
            try:
                molecule = molecules[smiles] = parse_smiles(smiles)
            except (SmilesSyntaxError, ValenceError) as exc:
                warnings.append(f"entity {entity_id!r}: unparseable SMILES {smiles!r}: {exc}")

        # the bbox length checked above gives an arrow its quad and any other kind a box
        entities.append(Entity(entity_id, kind, region, smiles, molecule, text, direction, resolves_to))

    entities.sort(key=lambda e: (e.centroid[::-1], e.id))  # reading order: (cy, cx), then id
    for entity in entities:
        if entity.resolves_to is not None and entity.resolves_to not in seen_ids:
            warnings.append(
                f"entity {entity.id!r}: resolves_to references unknown entity {entity.resolves_to!r}"
            )

    return ReactionDocument(
        diagram_bounds=bounds,
        entities=tuple(entities),
        image_ref=image_ref,
        layout_class=layout,
        warnings=tuple(warnings),
    )


def _fields(entity: Entity) -> dict:
    """The entity's detection-file fields other than its bbox."""
    direction = None if entity.direction is None else entity.direction.value
    fields = dict(id=entity.id, label=entity.kind.value, smiles=entity.smiles, text=entity.text,
                  direction=direction, resolves_to=entity.resolves_to)
    return {key: value for key, value in fields.items() if value is not None}

