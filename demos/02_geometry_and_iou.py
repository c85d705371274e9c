"""
Boxes, oriented quads and IoU
=============================

Axis-aligned boxes locate molecules and text; arrows come as oriented
quadrilaterals. Both support exact IoU, which drives entity matching in
evaluation and entity resolution in the pipeline.
"""

import math

from rxnparse.geometry import (
    AxisBox,
    OrientedQuad,
    centroid_distances,
    iou_axis,
    principal_axis,
    region_iou,
)

a = AxisBox(0, 0, 10, 10)
b = AxisBox(5, 0, 15, 10)
print("half-overlapping boxes:", round(iou_axis(a, b), 4))  # exactly 1/3

# A unit square against itself rotated 45 degrees: the intersection is a
# regular octagon and the IoU comes out at 1/sqrt(2).
square = OrientedQuad(((0, 0), (1, 0), (1, 1), (0, 1)))
c, r = 0.5, math.sqrt(2) / 2
rotated = OrientedQuad(((c, c - r), (c + r, c), (c, c + r), (c - r, c)))
print("rotated square IoU:", round(region_iou(square, rotated), 6))
print("expected 1/sqrt(2):", round(1 / math.sqrt(2), 6))

# Detector outputs sometimes list quad vertices in a crossed order; the
# constructor repairs that, so the thin arrow below still has positive area.
arrow = OrientedQuad(((513, 155), (880, 153), (880, 130), (513, 132)))
tail, head = principal_axis(arrow)
print("arrow axis tail -> head:", tail, "->", head)

# Mixed comparisons: polygon mode clips exactly, axis mode falls back to
# bounding boxes (`rxnparse eval --axis-iou`, for members given as quads).
diamond = OrientedQuad(((5, 0), (10, 5), (5, 10), (0, 5)))
box = AxisBox(0, 0, 10, 10)
print("diamond vs box, polygon IoU:", region_iou(diamond, box))
print("diamond vs box, axis IoU:   ", region_iou(diamond, box, polygon=False))

# Distances are normalized by the diagram diagonal so thresholds are
# resolution-independent.
# `centroid_distances` gives every pair's distance at once, as a matrix.
diagram = AxisBox(0, 0, 100, 100)
distances = centroid_distances([(0, 0), (3, 4), (100, 100)], diagram)
print("normalized centre distances:")
print(distances.round(5))
