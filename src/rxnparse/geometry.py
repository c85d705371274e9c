"""Box and polygon primitives shared by the reasoning and evaluation layers.

Molecules, text and identifiers are located by axis-aligned boxes; reaction
arrows arrive as oriented quadrilaterals from an OBB detector. Both
serialize to the flat number arrays used in detection and reaction JSON
files: 4 numbers ``[x_min, y_min, x_max, y_max]`` for a box, 8 numbers
``[x1, y1, ..., x4, y4]`` for a quad. Integer coordinates survive a
round trip as integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Point = tuple[float, float]

_EPS = 1e-12


@dataclass(frozen=True)
class AxisBox:
    """Axis-aligned rectangle. Degenerate (zero-area) boxes are permitted."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"box corners out of order: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def centroid(self) -> Point:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def corners(self) -> list[Point]:
        """Corner points in perimeter order."""
        return [
            (self.x_min, self.y_min),
            (self.x_max, self.y_min),
            (self.x_max, self.y_max),
            (self.x_min, self.y_max),
        ]

    def contains(self, other: "AxisBox") -> bool:
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and other.x_max <= self.x_max
            and other.y_max <= self.y_max
        )

    def clamped_to(self, bounds: "AxisBox") -> "AxisBox":
        return AxisBox(
            min(max(self.x_min, bounds.x_min), bounds.x_max),
            min(max(self.y_min, bounds.y_min), bounds.y_max),
            min(max(self.x_max, bounds.x_min), bounds.x_max),
            min(max(self.y_max, bounds.y_min), bounds.y_max),
        )


@dataclass(frozen=True)
class OrientedQuad:
    """Oriented quadrilateral for arrow regions.

    The vertex list is kept exactly as given so serialization round-trips
    bit for bit. Geometry (area, IoU, axis) runs on a normalized form:
    the four points reordered by angle around their centroid and
    convexified, which repairs the occasional crossed vertex order coming
    out of detectors. Construction rejects quads with zero area.
    """

    vertices: tuple[Point, Point, Point, Point]
    hull: tuple[Point, ...] = field(init=False, compare=False, repr=False)
    area: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.vertices)
        if len(pts) != 4:
            raise ValueError("an oriented quad needs exactly 4 vertices")
        object.__setattr__(self, "vertices", pts)
        hull = _convex_hull(pts)
        area = abs(_shoelace(hull)) if len(hull) >= 3 else 0.0
        if area <= _EPS:
            raise ValueError(f"degenerate quadrilateral: {pts}")
        object.__setattr__(self, "hull", tuple(hull))
        object.__setattr__(self, "area", area)

    @property
    def centroid(self) -> Point:
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return (sum(xs) / 4.0, sum(ys) / 4.0)

    def bounding_box(self) -> AxisBox:
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return AxisBox(min(xs), min(ys), max(xs), max(ys))

    def clamped_to(self, bounds: AxisBox) -> "OrientedQuad":
        clamp = lambda v, lo, hi: min(max(v, lo), hi)  # noqa: E731
        return OrientedQuad(
            tuple(
                (clamp(x, bounds.x_min, bounds.x_max), clamp(y, bounds.y_min, bounds.y_max))
                for x, y in self.vertices
            )
        )


Region = AxisBox | OrientedQuad


def _cross(a: Point, b: Point, p: Point) -> float:
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _shoelace(points) -> float:
    total = 0.0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def _convex_hull(points) -> list[Point]:
    """Monotone-chain hull, counter-clockwise by signed area, duplicates removed."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if _shoelace(hull) < 0:
        hull.reverse()
    return hull


def _clip_convex(subject, clip):
    """Sutherland-Hodgman clipping of one convex CCW polygon by another."""
    output = list(subject)
    n = len(clip)
    for k in range(n):
        if not output:
            return []
        a, b = clip[k], clip[(k + 1) % n]
        current, output = output, []
        for idx in range(len(current)):
            p = current[idx]
            q = current[(idx + 1) % len(current)]
            p_in = _cross(a, b, p) >= -_EPS
            q_in = _cross(a, b, q) >= -_EPS
            if p_in:
                output.append(p)
            if p_in != q_in:
                d1 = _cross(a, b, p)
                d2 = _cross(a, b, q)
                t = d1 / (d1 - d2)
                output.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return output


def polygon_of(region: Region) -> list[Point]:
    """CCW convex polygon for either region family."""
    if isinstance(region, AxisBox):
        hull = _convex_hull(tuple(region.corners()))
        return hull if len(hull) >= 3 else list(region.corners())
    return list(region.hull)


def iou_axis(a: AxisBox, b: AxisBox) -> float:
    """Intersection over union of two axis-aligned boxes.

    A union of zero area means both boxes are degenerate; the score is
    1.0 only when they are the same degenerate point, else 0.0.
    """
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    inter = max(0.0, ix) * max(0.0, iy)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 1.0 if a == b else 0.0
    return min(1.0, max(0.0, inter / union))


def iou_oriented(a: OrientedQuad, b: OrientedQuad) -> float:
    """IoU of two oriented quads via convex polygon clipping."""
    return _polygon_iou(list(a.hull), list(b.hull), a.area, b.area)


def _polygon_iou(pa, pb, area_a, area_b) -> float:
    if area_a <= 0.0 and area_b <= 0.0:
        return 1.0 if pa == pb else 0.0
    if area_a <= 0.0 or area_b <= 0.0:
        return 0.0
    inter_poly = _clip_convex(pa, pb)
    inter = abs(_shoelace(inter_poly)) if len(inter_poly) >= 3 else 0.0
    union = area_a + area_b - inter
    if union <= 0.0:
        return 1.0
    return min(1.0, max(0.0, inter / union))


def region_iou(a: Region, b: Region, polygon: bool = True) -> float:
    """IoU between any two regions.

    With ``polygon=True`` (default) every region is treated as its convex
    polygon and clipped exactly; with ``polygon=False`` quads are first
    collapsed to their axis-aligned bounding boxes.
    """
    if isinstance(a, AxisBox) and isinstance(b, AxisBox):
        return iou_axis(a, b)
    if not polygon:
        box_a = a if isinstance(a, AxisBox) else a.bounding_box()
        box_b = b if isinstance(b, AxisBox) else b.bounding_box()
        return iou_axis(box_a, box_b)
    area_a = a.area
    area_b = b.area
    return _polygon_iou(polygon_of(a), polygon_of(b), area_a, area_b)


_UNBOUNDED = (-math.inf, -math.inf, math.inf, math.inf)


def _screen_bounds(region: Region, polygon: bool) -> tuple[float, float, float, float]:
    """Bounds outside which :func:`region_iou` with ``region`` is exactly 0.

    ``iou_axis`` scores closed-disjoint boxes 0 (and 1 only for identical
    degenerate boxes, which intersect), so boxes, and quads collapsed to
    their bounding boxes, are bounded by that box. A quad clipped as a
    polygon is not: ``_clip_convex`` keeps points up to ``_EPS`` outside
    an edge, so a box and a quad 1e-13 apart score 5e-14, and where a kept
    point lies within that tolerance the crossing step ``t = d1 / (d1 - d2)``
    leaves [0, 1] and extrapolates along the subject edge by an amount no
    margin derived from ``_EPS`` bounds. Such a quad therefore spans the
    whole plane and is always compared exactly.
    """
    if isinstance(region, AxisBox):
        return region.x_min, region.y_min, region.x_max, region.y_max
    if not polygon:
        box = region.bounding_box()
        return box.x_min, box.y_min, box.x_max, box.y_max
    return _UNBOUNDED


class RegionIndex:
    """Bounding-box bounds of a set of regions, to find the pairs that can overlap.

    A pair the index does not return scores ``region_iou(..., polygon)``
    exactly 0, so a caller that needs IoU above some ``t >= 0`` may skip
    it; every returned pair still goes to the exact IoU.
    """

    def __init__(self, regions, polygon: bool = True):
        self.polygon = polygon
        self.bounds = np.array([_screen_bounds(r, polygon) for r in regions], dtype=float).reshape(-1, 4)

    def overlapping(self, other: "RegionIndex") -> tuple[np.ndarray, np.ndarray]:
        """Index pairs ``(i, j)``, ``i`` in this index and ``j`` in ``other``, whose closed bounds intersect.

        Pairs come in row-major order. Only boolean n×m temporaries are made.
        """
        a, b = self.bounds, other.bounds
        hit = a[:, None, 0] <= b[None, :, 2]
        hit &= b[None, :, 0] <= a[:, None, 2]
        hit &= a[:, None, 1] <= b[None, :, 3]
        hit &= b[None, :, 1] <= a[:, None, 3]
        return np.nonzero(hit)

    def candidates(self, region: Region) -> np.ndarray:
        """Ascending indices of the regions whose closed bounds intersect ``region``'s."""
        return self.overlapping(RegionIndex([region], self.polygon))[0]


def center_distance_normalized(a: Region, b: Region, diagram: AxisBox) -> float:
    """Euclidean centroid distance scaled by the diagram diagonal."""
    diag = diagram.diagonal
    if diag <= 0.0:
        raise ValueError("diagram bounds must have a positive diagonal")
    ax, ay = a.centroid
    bx, by = b.centroid
    return math.hypot(bx - ax, by - ay) / diag


def centroid_distances(points, diagram: AxisBox) -> np.ndarray:
    """n×n matrix of :func:`center_distance_normalized` between centroid points.

    ``sqrt(dx*dx + dy*dy)`` is bit-equal to ``math.hypot`` where the squared
    offsets are exact (integer, half- and quarter-unit centroids) and within
    two units in the last place elsewhere; offsets whose squares under- or
    overflow go through ``np.hypot`` instead.
    """
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    diag = diagram.diagonal
    if diag <= 0.0 and len(xy) > 1:
        raise ValueError("diagram bounds must have a positive diagonal")
    with np.errstate(over="ignore", under="ignore"):  # such entries are redone below
        squared = np.square(xy[None, :, 0] - xy[:, None, 0])
        squared += np.square(xy[None, :, 1] - xy[:, None, 1])  # in place: two n×n arrays at a time
    rows, cols = np.nonzero((squared < np.finfo(float).tiny) | np.isinf(squared))
    distances = np.sqrt(squared, out=squared)
    distances[rows, cols] = np.hypot(*(xy[cols] - xy[rows]).T)
    return np.divide(distances, diag or 1.0, out=distances)


def principal_axis(quad: OrientedQuad) -> tuple[Point, Point]:
    """Tail and head anchor points along the quad's long axis.

    For a four-vertex hull the axis joins midpoints of opposite edges
    (the longer of the two midlines); degenerate hulls fall back to the
    most distant vertex pair. The head is the endpoint later in reading
    order (greater x, then greater y).
    """
    hull = quad.hull
    if len(hull) == 4:
        mids = [
            ((hull[i][0] + hull[(i + 1) % 4][0]) / 2.0, (hull[i][1] + hull[(i + 1) % 4][1]) / 2.0)
            for i in range(4)
        ]
        cand = [(mids[0], mids[2]), (mids[1], mids[3])]
        p, q = max(cand, key=lambda pq: math.dist(pq[0], pq[1]))
    else:
        best = None
        for i in range(len(hull)):
            for j in range(i + 1, len(hull)):
                d = math.dist(hull[i], hull[j])
                if best is None or d > best[0]:
                    best = (d, hull[i], hull[j])
        p, q = best[1], best[2]
    if (q[0], q[1]) < (p[0], p[1]):
        p, q = q, p
    return p, q


def axis_parameter(point: Point, tail: Point, head: Point) -> float:
    """Project a point onto the tail-to-head axis.

    Returns the normalized coordinate along the axis: 0 at the tail,
    1 at the head, negative behind the tail.
    """
    dx = head[0] - tail[0]
    dy = head[1] - tail[1]
    denom = dx * dx + dy * dy
    if denom <= 0.0:
        return 0.0
    return ((point[0] - tail[0]) * dx + (point[1] - tail[1]) * dy) / denom


def lateral_distance(point: Point, tail: Point, head: Point) -> float:
    """Perpendicular distance from a point to the tail-to-head line."""
    dx = head[0] - tail[0]
    dy = head[1] - tail[1]
    length = math.hypot(dx, dy)
    if length <= 0.0:
        return math.dist(point, tail)
    return abs(dx * (point[1] - tail[1]) - dy * (point[0] - tail[0])) / length


def json_number(value: float):
    """Render a coordinate for JSON: integral floats become ints."""
    value = float(value)
    if value.is_integer():
        return int(value)
    return value


def region_to_array(region: Region) -> list:
    if isinstance(region, AxisBox):
        return [json_number(v) for v in (region.x_min, region.y_min, region.x_max, region.y_max)]
    flat = []
    for x, y in region.vertices:
        flat.append(json_number(x))
        flat.append(json_number(y))
    return flat


def region_from_array(values) -> Region:
    """Parse a 4-number box or an 8-number quad array."""
    nums = [float(v) for v in values]
    if len(nums) == 4:
        return AxisBox(*nums)
    if len(nums) == 8:
        return OrientedQuad(tuple((nums[i], nums[i + 1]) for i in range(0, 8, 2)))
    raise ValueError(f"expected 4 or 8 coordinates, got {len(nums)}")
