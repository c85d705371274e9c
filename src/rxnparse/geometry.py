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
from itertools import chain

import numpy as np

Point = tuple[float, float]

_EPS = 1e-12

_JSON_NUMBER_TYPES = frozenset((int, float))


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
    """Sutherland-Hodgman clipping of one convex CCW polygon by another.

    A subject vertex counts as inside a clip edge when its :func:`_cross`
    is ``>= -_EPS``; each vertex's cross is computed once per edge.
    """
    output = list(subject)
    n = len(clip)
    for k in range(n):
        if not output:
            return []
        (ax, ay), (bx, by) = clip[k], clip[(k + 1) % n]
        ex, ey = bx - ax, by - ay
        current, output = output, []
        crosses = [ex * (y - ay) - ey * (x - ax) for x, y in current]  # _cross(a, b, p)
        m = len(current)
        for idx in range(m):
            p = current[idx]
            d1 = crosses[idx]
            d2 = crosses[(idx + 1) % m]
            p_in = d1 >= -_EPS
            if p_in:
                output.append(p)
            if p_in != (d2 >= -_EPS):
                q = current[(idx + 1) % m]
                t = d1 / (d1 - d2)
                output.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return output


def _clip_may_meet(hull_x: np.ndarray, hull_y: np.ndarray, clips: np.ndarray) -> np.ndarray:
    """(clips, subjects) mask: False where :func:`_clip_convex` of the subject hull by the clip provably gives nothing.

    ``hull_x``/``hull_y`` hold four vertices per subject, flattened, and
    ``clips`` four (x, y) per clip, each a CCW hull, a 3-vertex one padded
    by its first vertex (a repeated subject vertex is inside exactly when the
    original is; a clip's padded edge keeps every vertex). Up to the first clip
    edge at which not every vertex is inside, the clip keeps every vertex
    and makes no crossing point, so the polygon is the subject itself; if
    no vertex is inside that edge either, the clip returns ``[]``. The test
    uses the clip's own arithmetic, one numpy ufunc per operation in
    :func:`_cross`'s order, so it is exact, not a margin.
    """
    a = np.asarray(clips, dtype=float).reshape(-1, 4, 2).transpose(1, 0, 2)[..., None]  # (edge, clip, xy, 1)
    ax, ay = a[:, :, 0], a[:, :, 1]
    ex, ey = np.roll(a, -1, axis=0)[:, :, 0] - ax, np.roll(a, -1, axis=0)[:, :, 1] - ay
    # one byte per vertex: a subject's four inside flags read as one uint32; an overflow
    # gives the same inf or nan that the clip's Python floats give, silently
    with np.errstate(over="ignore", invalid="ignore"):
        inside = (ex * (hull_y - ay) - ey * (hull_x - ax) >= -_EPS).view(np.uint32)
    padded = (ex[3, :, 0] == 0.0) & (ey[3, :, 0] == 0.0)
    inside[3, padded] = 0x01010101
    first = np.argmin(inside == 0x01010101, axis=0)  # first edge not all inside, or 0 if none
    return np.take_along_axis(inside, first[None], axis=0)[0] != 0


def polygon_of(region: Region) -> list[Point]:
    """CCW convex polygon for either region family."""
    if isinstance(region, AxisBox):
        return region.corners()
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


def bounds_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`iou_axis` of each pair of boxes ``(a[k], b[k])`` given as rows of bounds, operation for operation:
    the same floats, a zero-area union included."""
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero-area union is decided by equality
        ix, iy = (np.minimum(a[:, 2:], b[:, 2:]) - np.maximum(a[:, :2], b[:, :2])).T
        inter = np.where(ix > 0.0, ix, 0.0) * np.where(iy > 0.0, iy, 0.0)  # max(0.0, ...), never -0.0
        union = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1]) + (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1]) - inter
        iou = inter / union
    iou = np.where(iou > 0.0, np.where(iou < 1.0, iou, 1.0), 0.0)
    return np.where(union <= 0.0, (a == b).all(axis=1), iou)


def bounds_iou_above(a: np.ndarray, b: np.ndarray, threshold: float) -> np.ndarray:
    """Mask over pairs ``(a[k], b[k])`` of :func:`coords_bounds` rows: their :func:`bounds_iou`
    exceeds ``threshold``, or a row is unbounded (a quad clipped as a polygon)."""
    return (bounds_iou(a, b) > threshold) | np.isinf(a[:, 0]) | np.isinf(b[:, 0])


def bounds_overlap(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)`` of rows ``a[i]`` and ``b[j]`` of bounds whose closed boxes intersect.

    Pairs come in row-major order. Only boolean n×m temporaries are made.
    """
    hit = a[:, None, 0] <= b[None, :, 2]
    hit &= b[None, :, 0] <= a[:, None, 2]
    hit &= a[:, None, 1] <= b[None, :, 3]
    hit &= b[None, :, 1] <= a[:, None, 3]
    return np.nonzero(hit)


def coords_bounds(coords, polygon: bool = True) -> np.ndarray:
    """n×4 bounds of the regions given by :func:`region_coords`, outside which :func:`region_iou`
    with the region is exactly 0.

    ``iou_axis`` scores closed-disjoint boxes 0 (and 1 only for identical
    degenerate boxes, which intersect), so boxes, and quads collapsed to
    their bounding boxes, are bounded by that box. A quad clipped as a
    polygon is not: ``_clip_convex`` keeps points up to ``_EPS`` outside
    an edge, so a box and a quad 1e-13 apart score 5e-14, and where a kept
    point lies within that tolerance the crossing step ``t = d1 / (d1 - d2)``
    leaves [0, 1] and extrapolates along the subject edge by an amount no
    margin derived from ``_EPS`` bounds. Such a quad therefore spans the
    whole plane; only :func:`_clip_may_meet` screens it, by the clip's own
    first step.
    """
    sizes = set(map(len, coords))
    if 8 not in sizes:
        return np.array(coords, dtype=float).reshape(-1, 4)
    if polygon and 4 not in sizes:
        return np.array([_UNBOUNDED] * len(coords)).reshape(-1, 4)
    quad = np.fromiter(map(len, coords), np.intp, len(coords)) == 8
    bounds = np.empty((len(coords), 4))
    bounds[~quad] = np.array([c for c in coords if len(c) == 4], dtype=float).reshape(-1, 4)
    if polygon:
        bounds[quad] = _UNBOUNDED
    else:
        xy = np.array([c for c in coords if len(c) == 8], dtype=float).reshape(-1, 4, 2)
        bounds[quad] = np.concatenate((xy.min(axis=1), xy.max(axis=1)), axis=1)
    return bounds


def centroid_distances(points, diagram: AxisBox) -> np.ndarray:
    """n×n matrix of Euclidean distances between centroid points, scaled by the diagram diagonal.

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


def region_to_array(region: Region) -> list:
    """The region's coordinates for JSON, integral floats as ints."""
    return [int(v) if v.is_integer() else v for v in region_coords(region)]


def region_coords(region: Region) -> tuple[float, ...]:
    """The region's coordinates as floats: a box's 4 numbers or a quad's 8, as in :func:`region_to_array`."""
    if isinstance(region, AxisBox):
        return float(region.x_min), float(region.y_min), float(region.x_max), float(region.y_max)
    return tuple(chain.from_iterable(region.vertices))


def region_from_coords(coords) -> Region:
    """The region of 4 or 8 finite float coordinates that :func:`region_from_array` accepts."""
    if len(coords) == 4:
        return AxisBox(*coords)
    return OrientedQuad(tuple(zip(coords[::2], coords[1::2])))


# rounding in OrientedQuad's hull and area, and in the triangles below, stays about
# 2**-46 times the squared largest |coordinate|, far under this slack
_AREA_SLACK = 2.0**-40


def quads_clearly_valid(quads: np.ndarray) -> np.ndarray:
    """Mask over rows of 8 finite quad coordinates: the row surely builds an :class:`OrientedQuad`.

    A quad's hull holds each triangle of its vertices, so its area is at
    least the largest one's. A row is in the mask when that triangle's
    area exceeds ``_EPS`` by a slack scaled to the square of the largest
    coordinate magnitude, which covers the rounding of the hull, its
    shoelace area and the triangles. Rows out of the mask, including those
    whose products overflow, need the exact check of the constructor.
    """
    quads = np.asarray(quads, dtype=float).reshape(-1, 8)
    x, y = quads[:, 0::2].T, quads[:, 1::2].T
    scale = np.abs(quads).max(axis=1, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN compare False below
        twice = np.max([np.abs((x[j] - x[i]) * (y[k] - y[i]) - (y[j] - y[i]) * (x[k] - x[i]))
                        for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))], axis=0)
        return twice > 2.0 * (_EPS + _AREA_SLACK * scale * scale)


def coords_from_arrays(arrays) -> tuple[list | None, np.ndarray]:
    """:func:`region_from_array`'s checks, together, for lists of 4 or 8 values.

    Returns the lists' coordinates as float tuples and the indices of the
    lists the bulk checks do not pass: a box with corners out of order, or
    a quad :func:`quads_clearly_valid` leaves out. When some value is not
    an ``int`` or ``float``, or does not convert to a finite float, there
    are no coordinates and every index is returned. Only
    :func:`region_from_array` tells, for an index returned, whether the
    list is valid and what is wrong with it.
    """
    everything = np.arange(len(arrays))
    if not _JSON_NUMBER_TYPES.issuperset(map(type, chain.from_iterable(arrays))):
        return None, everything
    try:
        values = np.fromiter(chain.from_iterable(arrays), float)  # rounds each int as float() does
    except OverflowError:  # an int too large for a float
        return None, everything
    if not np.isfinite(values).all():
        return None, everything
    sizes = np.fromiter(map(len, arrays), np.intp, len(arrays))
    ends = np.cumsum(sizes)
    starts = ends - sizes
    box = sizes == 4
    corners = values[starts[box, None] + np.arange(4)]
    passed = np.empty(len(arrays), dtype=bool)
    passed[box] = (corners[:, 0] <= corners[:, 2]) & (corners[:, 1] <= corners[:, 3])
    passed[~box] = quads_clearly_valid(values[starts[~box, None] + np.arange(8)])
    floats = values.tolist()
    coords = list(map(tuple, map(floats.__getitem__, map(slice, starts.tolist(), ends.tolist()))))
    return coords, np.flatnonzero(~passed)


def region_from_array(values) -> Region:
    """Parse a 4-number box or an 8-number quad array of finite numbers.

    Every coordinate must be exactly an ``int`` or a ``float``, the types
    JSON numbers decode to: strings and booleans are rejected, not converted.
    """
    if not _JSON_NUMBER_TYPES.issuperset(map(type, values)):
        raise ValueError(f"coordinates must be numbers, got {values}")
    try:
        nums = [float(v) for v in values]
    except OverflowError:  # an int too large for a float
        raise ValueError(f"coordinates must be finite numbers, got {values}") from None
    if not all(map(math.isfinite, nums)):
        raise ValueError(f"coordinates must be finite numbers, got {nums}")
    if len(nums) not in (4, 8):
        raise ValueError(f"expected 4 or 8 coordinates, got {len(nums)}")
    return region_from_coords(nums)
