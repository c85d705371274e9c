"""Hypothesis property tests for the pure-value core."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rxnparse.chem import tanimoto
from rxnparse.geometry import AxisBox, OrientedQuad, iou_axis, region_iou

coords = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def axis_boxes(draw):
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return AxisBox(x0, y0, x1, y1)


@given(axis_boxes(), axis_boxes())
def test_iou_symmetric_and_bounded(a, b):
    value = iou_axis(a, b)
    assert 0.0 <= value <= 1.0
    assert value == iou_axis(b, a)


@given(axis_boxes())
def test_iou_reflexive(box):
    assert iou_axis(box, box) == 1.0


@st.composite
def convex_quads(draw):
    # a rotated rectangle is always a valid oriented quad
    import math

    cx = draw(st.floats(min_value=0, max_value=1000))
    cy = draw(st.floats(min_value=0, max_value=1000))
    w = draw(st.floats(min_value=1.0, max_value=400))
    h = draw(st.floats(min_value=1.0, max_value=400))
    angle = draw(st.floats(min_value=0, max_value=math.pi))
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    points = tuple(
        (cx + x * cos_a - y * sin_a, cy + x * sin_a + y * cos_a)
        for x, y in ((-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2))
    )
    return OrientedQuad(points)


@settings(max_examples=200)
@given(convex_quads(), convex_quads())
def test_region_iou_bounded_for_quads(a, b):
    value = region_iou(a, b)
    assert 0.0 <= value <= 1.0
    assert abs(value - region_iou(b, a)) < 1e-9


bitmasks = st.integers(min_value=0, max_value=(1 << 256) - 1)


@given(bitmasks, bitmasks)
def test_tanimoto_bounds_and_symmetry(a, b):
    value = tanimoto(a, b)
    assert 0.0 <= value <= 1.0
    assert value == tanimoto(b, a)
    assert tanimoto(a, a) == 1.0
