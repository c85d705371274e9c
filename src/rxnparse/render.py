"""Deterministic SVG rendering of a parsed document.

Entity boxes are color-coded by kind, arrows are drawn as their
oriented quads with a chevron at the head, and each reaction gets its
own hue with role initials on its members. Output is byte-stable for
fixed inputs: no timestamps, fixed float formatting.
"""

from __future__ import annotations

from html import escape

from .entities import EntityKind, ReactionDocument
from .geometry import AxisBox, OrientedQuad, principal_axis

KIND_COLORS = {
    EntityKind.MOLECULE: "#2b8cbe",
    EntityKind.ARROW: "#e34a33",
    EntityKind.TEXT: "#31a354",
    EntityKind.IDENTIFIER: "#756bb1",
}

_ROLE_INITIAL = {"reactants": "R", "products": "P", "conditions": "C", "arrows": "A"}


class UnknownEntityError(KeyError):
    """A reaction references an entity id missing from the document."""


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _points(quad: OrientedQuad) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in quad.vertices)


def _reaction_hue(index: int) -> str:
    return f"hsl({(index * 67) % 360},70%,45%)"


def render_svg(doc: ReactionDocument, reactions=()) -> str:
    """Render document entities and reaction groupings as an SVG string."""
    for reaction in reactions:
        for entity_id in reaction.member_ids():
            if not doc.has_entity(entity_id):
                raise UnknownEntityError(f"reaction references unknown entity {entity_id!r}")

    bounds = doc.diagram_bounds
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(bounds.width)}" '
        f'height="{_fmt(bounds.height)}" viewBox="0 0 {_fmt(bounds.width)} {_fmt(bounds.height)}">',
        f'<rect x="0" y="0" width="{_fmt(bounds.width)}" height="{_fmt(bounds.height)}" fill="white"/>',
    ]

    for entity in doc.entities:
        color = KIND_COLORS[entity.kind]
        if isinstance(entity.region, AxisBox):
            box = entity.region
            lines.append(
                f'<rect x="{_fmt(box.x_min)}" y="{_fmt(box.y_min)}" width="{_fmt(box.width)}" '
                f'height="{_fmt(box.height)}" fill="{color}" fill-opacity="0.08" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        else:
            quad = entity.region
            lines.append(
                f'<polygon points="{_points(quad)}" fill="{color}" fill-opacity="0.15" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            lines.append(_chevron(quad, color))
        cx, cy = entity.centroid
        lines.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="9" fill="{color}" '
            f'text-anchor="middle">{escape(entity.id, quote=False)}</text>'
        )

    for index, reaction in enumerate(reactions):
        hue = _reaction_hue(index)
        lines.append(f'<g id="reaction-{index}">')
        for role in ("reactants", "products", "conditions", "arrows"):
            for entity_id in getattr(reaction, role):
                entity = doc.entity(entity_id)
                if isinstance(entity.region, AxisBox):
                    box = entity.region
                    lines.append(
                        f'<rect x="{_fmt(box.x_min - 3)}" y="{_fmt(box.y_min - 3)}" '
                        f'width="{_fmt(box.width + 6)}" height="{_fmt(box.height + 6)}" '
                        f'fill="none" stroke="{hue}" stroke-width="1" stroke-dasharray="4 2"/>'
                    )
                    label_x, label_y = box.x_min, box.y_min - 5
                else:
                    lines.append(
                        f'<polygon points="{_points(entity.region)}" fill="none" '
                        f'stroke="{hue}" stroke-width="1" stroke-dasharray="4 2"/>'
                    )
                    label_x, label_y = entity.region.vertices[0]
                    label_y -= 5
                lines.append(
                    f'<text x="{_fmt(label_x)}" y="{_fmt(label_y)}" font-size="8" '
                    f'fill="{hue}">{index}:{_ROLE_INITIAL[role]}</text>'
                )
        lines.append("</g>")

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _chevron(quad: OrientedQuad, color: str) -> str:
    """Two short strokes marking the arrow head."""
    tail, head = principal_axis(quad)
    dx, dy = head[0] - tail[0], head[1] - tail[1]
    length = max((dx * dx + dy * dy) ** 0.5, 1e-9)
    ux, uy = dx / length, dy / length
    size = min(12.0, length * 0.25)
    left = (head[0] - size * (ux - 0.5 * uy), head[1] - size * (uy + 0.5 * ux))
    right = (head[0] - size * (ux + 0.5 * uy), head[1] - size * (uy - 0.5 * ux))
    return (
        f'<path d="M {_fmt(left[0])} {_fmt(left[1])} L {_fmt(head[0])} {_fmt(head[1])} '
        f'L {_fmt(right[0])} {_fmt(right[1])}" fill="none" stroke="{color}" stroke-width="2"/>'
    )
