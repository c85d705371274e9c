import json

import pytest

from rxnparse.chem import bit_sketch, parse_smiles
from rxnparse.entities import (
    EntityKind,
    SchemaError,
    document_to_json,
    load_document,
)
from rxnparse.geometry import AxisBox, OrientedQuad

from helpers import arrow_entity, make_doc, molecule_entity, text_entity


def test_load_example_coordinates():
    doc = make_doc(
        [
            {"id": "m", "label": "molecule", "bbox": [38, 2, 434, 234]},
            {"id": "a", "label": "arrow", "bbox": [513, 155, 880, 153, 880, 130, 513, 132]},
        ]
    )
    assert len(doc.entities) == 2
    molecule = doc.entity("m")
    arrow = doc.entity("a")
    assert molecule.kind == EntityKind.MOLECULE
    assert isinstance(molecule.region, AxisBox)
    assert arrow.kind == EntityKind.ARROW
    assert isinstance(arrow.region, OrientedQuad)


def test_empty_entity_list():
    doc = make_doc([])
    assert doc.entities == ()


def test_duplicate_id_rejected():
    with pytest.raises(SchemaError) as excinfo:
        make_doc([molecule_entity("x", 0, 0), molecule_entity("x", 300, 0)])
    assert excinfo.value.pointer == "/entities/1/id"


def test_arrow_needs_eight_numbers():
    with pytest.raises(SchemaError) as excinfo:
        make_doc([{"id": "a", "label": "arrow", "bbox": [0, 0, 10, 10]}])
    assert "/bbox" in excinfo.value.pointer


def test_molecule_needs_four_numbers():
    with pytest.raises(SchemaError):
        make_doc([{"id": "m", "label": "molecule", "bbox": [0, 0, 10, 10, 20, 20, 30, 30]}])


def test_unknown_label():
    with pytest.raises(SchemaError) as excinfo:
        make_doc([{"id": "m", "label": "wizard", "bbox": [0, 0, 1, 1]}])
    assert excinfo.value.pointer == "/entities/0/label"


def test_bad_json():
    with pytest.raises(SchemaError):
        load_document(b"{not json")


NON_FINITE = [
    pytest.param('{"width": 100, "height": Infinity, "entities": []}', "/height", id="infinite-height"),
    pytest.param('{"width": NaN, "height": 100, "entities": []}', "/width", id="nan-width"),
    pytest.param('{"width": 100, "height": 100, "entities": [{"id": "m", "label": "molecule", "bbox": [0, 0, Infinity, 5]}]}',
                 "/entities/0/bbox", id="infinite-box"),
    pytest.param('{"width": 100, "height": 100, "entities": [{"id": "a", "label": "arrow",'
                 ' "bbox": [0, 0, 9, 0, 9, NaN, 0, 2]}]}', "/entities/0/bbox", id="nan-quad"),
    pytest.param('{"width": 100, "height": 100, "entities": [{"id": "m", "label": "molecule", "bbox": [0, 0, 1%s, 5]}]}'
                 % ("0" * 400), "/entities/0/bbox", id="int-beyond-float"),
]


@pytest.mark.parametrize("raw, pointer", NON_FINITE)
def test_non_finite_numbers_rejected(raw, pointer):
    # json.loads accepts NaN and Infinity; neither may reach the geometry or the combiner prompt
    with pytest.raises(SchemaError, match="finite") as excinfo:
        load_document(raw)
    assert excinfo.value.pointer == pointer


def test_unknown_layout():
    with pytest.raises(SchemaError):
        make_doc([], layout="spiral")


@pytest.mark.parametrize("layout", ["single_line", "multiple_line", "tree", "graph"])
def test_valid_layouts(layout):
    assert make_doc([], layout=layout).layout_class == layout


def test_smiles_payload_parsed():
    doc = make_doc([molecule_entity("m", 0, 0, smiles="CCO")])
    assert doc.entity("m").molecule is not None
    assert doc.warnings == ()


def test_unparseable_smiles_retained_with_warning():
    doc = make_doc([molecule_entity("m", 0, 0, smiles="C1CC")])
    entity = doc.entity("m")
    assert entity.molecule is None
    assert any("unparseable SMILES" in w for w in doc.warnings)


def test_text_normalized_at_load():
    doc = make_doc([text_entity("t", 0, 0, text="ferric chloride")])
    assert doc.entity("t").tokens == ("FeCl3",)


def test_direction_only_on_arrows():
    with pytest.raises(SchemaError):
        make_doc([{**molecule_entity("m", 0, 0), "direction": "forward"}])
    doc = make_doc([arrow_entity("a", 100, 50, 300)])
    assert doc.entity("a").direction.value == "forward"


def test_reading_order_sort():
    doc = make_doc(
        [
            molecule_entity("low", 0, 300),
            molecule_entity("mid_right", 600, 100),
            molecule_entity("mid_left", 0, 100),
        ]
    )
    assert [e.id for e in doc.entities] == ["mid_left", "mid_right", "low"]


def test_out_of_bounds_clamped_with_warning():
    doc = make_doc([molecule_entity("m", 1350, 0, w=200, h=90)], width=1400)
    assert any("clamped" in w for w in doc.warnings)
    assert doc.entity("m").region.x_max <= 1400


def test_region_inside_the_diagram_is_not_clamped(monkeypatch):
    """Only a region whose bounds leave the diagram goes through ``clamped_to``; one on its edge stays."""
    clamped = []
    for region_type in (AxisBox, OrientedQuad):
        original = region_type.clamped_to
        monkeypatch.setattr(
            region_type, "clamped_to", lambda self, bounds, original=original: clamped.append(self) or original(self, bounds)
        )
    inside = [
        molecule_entity("edge", 1280, 310, w=120, h=90),  # touches the right and bottom edges
        text_entity("t", 0, 0),
        arrow_entity("a", 200, 200, 1000),
    ]
    doc = make_doc(inside, width=1400, height=400)
    assert clamped == [] and doc.warnings == ()
    assert document_to_json(doc)["entities"] == document_to_json(make_doc(inside))["entities"]
    leaving = make_doc([arrow_entity("a", 1300, 200, 1500), molecule_entity("m", 0, 0)], width=1400)
    assert len(clamped) == 1 and leaving.warnings == ("entity 'a': region clamped to diagram bounds",)
    assert max(x for x, _ in leaving.entity("a").region.vertices) == 1400


def test_arrow_wholly_outside_the_diagram_is_a_schema_error():
    """Clamping it leaves a zero-area quad, which is reported at the entity's bbox."""
    raw = '{"width": 100, "height": 100, "entities": [{"id": "a", "label": "arrow", "bbox": [110, 10, 150, 10, 150, 20, 110, 20]}]}'
    with pytest.raises(SchemaError, match="clamps to a degenerate quadrilateral") as info:
        load_document(raw)
    assert info.value.pointer == "/entities/0/bbox"


def test_arrow_crossing_the_diagram_can_clamp_to_a_degenerate_quad():
    """The clamp moves each vertex on its own: this arrow passes through (50, 50), yet all four of its
    vertices land on the segment (100, 0)-(0, 100), so the document is rejected at the arrow's bbox."""
    raw = '{"width": 100, "height": 100, "entities": [{"id": "a", "label": "arrow", "bbox": [110, -10, 120, -10, -10, 120, -20, 120]}]}'
    with pytest.raises(SchemaError, match="clamps to a degenerate quadrilateral") as info:
        load_document(raw)
    assert info.value.pointer == "/entities/0/bbox"


def test_same_smiles_shares_one_molecule_within_a_document():
    first = make_doc(
        [
            molecule_entity("m", 0, 0, smiles="CCO"),
            molecule_entity("n", 300, 0, smiles="CCO"),
            molecule_entity("o", 600, 0, smiles="CC(=O)O"),
        ]
    )
    second = make_doc([molecule_entity("x", 0, 0, smiles="CCO")])
    molecule = first.entity("m").molecule
    assert first.entity("n").molecule is molecule and first.entity("o").molecule is not molecule
    assert molecule == parse_smiles("CCO") == second.entity("x").molecule
    assert second.entity("x").molecule is not molecule  # documents do not share parsed molecules


def test_unparseable_smiles_warns_for_each_entity_and_document():
    for _ in range(2):
        doc = make_doc([molecule_entity("m", 0, 0, smiles="C1CC"), molecule_entity("n", 300, 0, smiles="C1CC")])
        assert doc.entity("m").molecule is None and doc.entity("n").molecule is None
        assert doc.warnings == tuple(
            f"entity {eid!r}: unparseable SMILES 'C1CC': unclosed ring closure 1 (position 1)" for eid in "mn"
        )


def test_entity_sketch_follows_its_own_fingerprint():
    """Entities naming one SMILES share its molecule, and with it the molecule's fingerprint and sketch."""
    doc = make_doc([molecule_entity("m", 0, 0, smiles="CCO"), molecule_entity("n", 300, 0, smiles="CCO")])
    m, n = doc.entity("m"), doc.entity("n")
    assert m.molecule is n.molecule and m.molecule.sketch == tuple(bit_sketch(m.molecule.fingerprint))
    assert make_doc([molecule_entity("b", 0, 0)]).entity("b").molecule is None


def test_load_serialize_load_idempotent(two_reaction_doc):
    serialized = document_to_json(two_reaction_doc)
    reloaded = load_document(json.dumps(serialized))
    assert reloaded.entities == two_reaction_doc.entities
    assert document_to_json(reloaded) == serialized


def test_resolves_to_unknown_warns():
    doc = make_doc(
        [{"id": "i", "label": "identifier", "bbox": [0, 0, 40, 30], "text": "1a", "resolves_to": "ghost"}]
    )
    assert any("resolves_to" in w for w in doc.warnings)


def _detection(entities, width=100, height=100, **fields):
    return json.dumps({"width": width, "height": height, **fields, "entities": entities})


_MOLECULE = {"id": "m", "label": "molecule", "bbox": [0, 0, 10, 10]}

# the malformed detection files of this module, and where each is rejected
MALFORMED = NON_FINITE + [
    pytest.param(_detection([_MOLECULE, _MOLECULE]), "/entities/1/id", id="duplicate-id"),
    pytest.param(_detection([{"id": "a", "label": "arrow", "bbox": [0, 0, 10, 10]}]), "/entities/0/bbox", id="arrow-box"),
    pytest.param(_detection([{**_MOLECULE, "bbox": [0, 0, 10, 10, 20, 20, 30, 30]}]), "/entities/0/bbox", id="molecule-quad"),
    pytest.param(_detection([{**_MOLECULE, "label": "wizard"}]), "/entities/0/label", id="unknown-label"),
    pytest.param("{not json", "", id="bad-json"),
    pytest.param(_detection([], layout="spiral"), "/layout", id="unknown-layout"),
    pytest.param(_detection([{**_MOLECULE, "direction": "forward"}]), "/entities/0/direction", id="direction-on-molecule"),
    pytest.param(_detection([{"id": "a", "label": "arrow", "bbox": [110, 10, 150, 10, 150, 20, 110, 20]}]),
                 "/entities/0/bbox", id="arrow-outside"),
    pytest.param(_detection([{"id": "a", "label": "arrow", "bbox": [110, -10, 120, -10, -10, 120, -20, 120]}]),
                 "/entities/0/bbox", id="arrow-crossing"),
    pytest.param(_detection([{**_MOLECULE, "bbox": [0, "0", 10, 10]}]), "/entities/0/bbox", id="string-coordinate"),
    pytest.param(_detection([{**_MOLECULE, "bbox": [0, True, 10, 10]}]), "/entities/0/bbox", id="bool-coordinate"),
    pytest.param(_detection([], height=0), "/height", id="zero-height"),
    pytest.param(_detection([], width=0), "/width", id="zero-width"),
]


@pytest.mark.parametrize("raw, pointer", MALFORMED)
def test_schema_error_names_its_pointer_once(raw, pointer):
    with pytest.raises(SchemaError) as info:
        load_document(raw)
    message = str(info.value)
    assert info.value.pointer == pointer
    assert message.endswith(f" (at {pointer or '/'})") and message.count(" (at ") == 1, message

