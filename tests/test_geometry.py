import math
import random

import pytest

from rxnparse.geometry import (
    AxisBox,
    OrientedQuad,
    axis_parameter,
    iou_axis,
    lateral_distance,
    principal_axis,
    region_from_array,
    region_iou,
    region_to_array,
)

from helpers import center_distance_normalized, mc_region_iou, random_axis_box, random_quad


def rotated_unit_square(angle):
    c = 0.5
    pts = []
    for x, y in [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]:
        pts.append(
            (c + x * math.cos(angle) - y * math.sin(angle),
             c + x * math.sin(angle) + y * math.cos(angle))
        )
    return OrientedQuad(tuple(pts))


class TestAxisIoU:
    def test_identical(self):
        a = AxisBox(0, 0, 10, 10)
        assert iou_axis(a, a) == 1.0

    def test_disjoint(self):
        assert iou_axis(AxisBox(0, 0, 10, 10), AxisBox(20, 20, 30, 30)) == 0.0

    def test_one_third(self):
        assert iou_axis(AxisBox(0, 0, 10, 10), AxisBox(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_exactly_half(self):
        assert iou_axis(AxisBox(0, 0, 10, 10), AxisBox(0, 0, 10, 5)) == pytest.approx(0.5)

    def test_degenerate_points(self):
        point = AxisBox(3, 3, 3, 3)
        assert iou_axis(point, point) == 1.0
        assert iou_axis(point, AxisBox(4, 4, 4, 4)) == 0.0
        assert iou_axis(point, AxisBox(0, 0, 10, 10)) == 0.0

    def test_symmetry_and_bounds_random(self):
        rng = random.Random(1)
        for _ in range(500):
            a, b = random_axis_box(rng), random_axis_box(rng)
            v = iou_axis(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou_axis(b, a)

    def test_containment_chain_monotonic(self):
        outer = AxisBox(0, 0, 100, 100)
        previous = 1.0
        for shrink in range(0, 45, 5):
            inner = AxisBox(shrink, shrink, 100 - shrink, 100 - shrink)
            value = iou_axis(outer, inner)
            assert value <= previous
            previous = value


class TestOrientedIoU:
    def test_identical(self):
        q = random_quad(random.Random(3))
        assert region_iou(q, q) == pytest.approx(1.0)

    def test_far_apart(self):
        a = OrientedQuad(((0, 0), (10, 0), (10, 5), (0, 5)))
        b = OrientedQuad(((1000, 1000), (1010, 1000), (1010, 1005), (1000, 1005)))
        assert region_iou(a, b) == 0.0

    def test_rotated_square(self):
        square = OrientedQuad(((0, 0), (1, 0), (1, 1), (0, 1)))
        rotated = rotated_unit_square(math.pi / 4)
        expected = math.sqrt(2) / 2  # octagon intersection 2(sqrt(2)-1) over union
        assert region_iou(square, rotated) == pytest.approx(expected, abs=1e-9)

    def test_axis_aligned_quads_agree_with_boxes(self):
        rng = random.Random(17)
        for _ in range(200):
            a, b = random_axis_box(rng), random_axis_box(rng)
            qa = OrientedQuad(tuple(a.corners()))
            qb = OrientedQuad(tuple(b.corners()))
            assert region_iou(qa, qb) == pytest.approx(iou_axis(a, b), abs=1e-9)

    def test_crossed_vertex_order_repaired(self):
        straight = OrientedQuad(((0, 0), (10, 0), (10, 10), (0, 10)))
        crossed = OrientedQuad(((0, 0), (10, 10), (10, 0), (0, 10)))
        assert region_iou(straight, crossed) == pytest.approx(1.0)

    def test_degenerate_quad_rejected(self):
        with pytest.raises(ValueError):
            OrientedQuad(((0, 0), (1, 1), (2, 2), (3, 3)))

    def test_monte_carlo_agreement(self):
        rng = random.Random(23)
        for i in range(10):
            a, b = random_quad(rng), random_quad(rng)
            analytic = region_iou(a, b)
            sampled = mc_region_iou(a, b, samples=250_000, seed=i)
            assert analytic == pytest.approx(sampled, abs=2e-3)


class TestRegionHelpers:
    def test_region_iou_mixed(self):
        box = AxisBox(0, 0, 10, 10)
        quad = OrientedQuad(((0, 0), (10, 0), (10, 10), (0, 10)))
        assert region_iou(box, quad) == pytest.approx(1.0)
        assert region_iou(quad, box, polygon=False) == pytest.approx(1.0)

    def test_axis_mode_uses_bounding_boxes(self):
        diamond = OrientedQuad(((5, 0), (10, 5), (5, 10), (0, 5)))
        box = AxisBox(0, 0, 10, 10)
        assert region_iou(diamond, box, polygon=False) == pytest.approx(1.0)
        assert region_iou(diamond, box, polygon=True) == pytest.approx(0.5)

    def test_serialization_roundtrip(self):
        box = region_from_array([38, 2, 434, 234])
        assert isinstance(box, AxisBox)
        assert region_to_array(box) == [38, 2, 434, 234]
        quad = region_from_array([513, 155, 880, 153, 880, 130, 513, 132])
        assert isinstance(quad, OrientedQuad)
        assert region_to_array(quad) == [513, 155, 880, 153, 880, 130, 513, 132]

    def test_fractional_coordinates_survive(self):
        box = region_from_array([1.5, 2, 3.25, 4])
        assert region_to_array(box) == [1.5, 2, 3.25, 4]

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            region_from_array([1, 2, 3])

    @pytest.mark.parametrize(
        "values",
        [["0", True, "1e1", 5], [0, 0, 1, True], [0, 0, "1", 1], [0, 0, None, 1], [0, 0, [1], 1],
         [0, 0, 9, 0, 9, 2, False, 2]],
        ids=["strings-and-bool", "bool", "string", "null", "list", "bool-in-quad"],
    )
    def test_only_numbers_are_coordinates(self, values):
        with pytest.raises(ValueError, match="coordinates must be numbers"):
            region_from_array(values)


class TestDistanceAndAxis:
    def test_same_region_zero(self):
        box = AxisBox(10, 10, 20, 20)
        diagram = AxisBox(0, 0, 100, 100)
        assert center_distance_normalized(box, box, diagram) == 0.0

    def test_opposite_corners_one(self):
        diagram = AxisBox(0, 0, 100, 100)
        a = AxisBox(0, 0, 0, 0)
        b = AxisBox(100, 100, 100, 100)
        assert center_distance_normalized(a, b, diagram) == pytest.approx(1.0)

    def test_three_four_five(self):
        diagram = AxisBox(0, 0, 100, 100)
        a = AxisBox(0, 0, 0, 0)
        b = AxisBox(3, 4, 3, 4)
        assert center_distance_normalized(a, b, diagram) == pytest.approx(5 / math.sqrt(20000))

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            center_distance_normalized(
                AxisBox(0, 0, 1, 1), AxisBox(0, 0, 1, 1), AxisBox(5, 5, 5, 5)
            )

    def test_principal_axis_horizontal_arrow(self):
        quad = OrientedQuad(((513, 155), (880, 153), (880, 130), (513, 132)))
        tail, head = principal_axis(quad)
        assert tail[0] < head[0]
        assert tail[0] == pytest.approx(513)
        assert head[0] == pytest.approx(880)

    def test_principal_axis_of_a_triangular_hull_joins_its_farthest_vertices(self):
        # (5, 2) lies inside the triangle of the other three, so the hull has 3 vertices
        quad = OrientedQuad(((0, 0), (5, 2), (12, 0), (5, 10)))
        assert len(quad.hull) == 3
        assert principal_axis(quad) == ((5.0, 10.0), (12.0, 0.0))

    def test_axis_parameter_sides(self):
        tail, head = (0.0, 0.0), (10.0, 0.0)
        assert axis_parameter((-5, 0), tail, head) < 0
        assert axis_parameter((15, 0), tail, head) > 1
        assert 0 <= axis_parameter((5, 3), tail, head) <= 1

    def test_lateral_distance(self):
        tail, head = (0.0, 0.0), (10.0, 0.0)
        assert lateral_distance((5, 3), tail, head) == pytest.approx(3.0)

    def test_centroid_of_quad(self):
        quad = OrientedQuad(((0, 0), (2, 0), (2, 2), (0, 2)))
        assert quad.centroid == (1.0, 1.0)
