"""Combiner-style post-processing of inferred reactions.

Three refinements, in order: merge pairs of collinear adjacent arrows
with nothing drawn between them (one long arrow split by the detector;
one pass over the candidates, each arrow's axis computed once and the
gap scanned only for pairs that pass the cheap alignment gates),
replace identifiers by the molecules they resolve to (removing the
duplicate representation), and flag conservation: reactions whose sides
both consist of parsed molecules get their element/charge residual
computed, and unbalanced ones are kept but score-penalized for ranking.
Merged and substituted reactions are built by
:func:`~rxnparse.reactions.reaction_or_none`, which drops a candidate
that is structurally invalid: reactants or products come out empty.
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..chem import conservation_residual
from ..config import ReasoningConfig
from ..entities import EntityKind, ReactionDocument
from ..geometry import axis_parameter, lateral_distance, principal_axis
from ..reactions import Conservation, Reaction, reaction_or_none

# geometric tolerances for the arrow-merge heuristic, as fractions of the
# diagram diagonal (gap / lateral) or an angle bound
_MERGE_MAX_ANGLE_DEG = 15.0
_MERGE_MAX_GAP = 0.20
_MERGE_MAX_LATERAL = 0.05
_GAP_BAND = 0.08
_MERGE_MIN_COS = math.cos(math.radians(_MERGE_MAX_ANGLE_DEG))


def post_process(reactions, doc: ReactionDocument, config: ReasoningConfig) -> list[Reaction]:
    merged = _merge_collinear_arrows(list(reactions), doc)
    substituted = [_substitute_identifiers(r, doc) for r in merged]
    valid = [r for r in substituted if r is not None]
    flagged = [_flag_conservation(r, doc, config) for r in valid]
    table = doc.table
    flagged.sort(key=lambda r: (-r.score, table.position[r.reactants[0]]))
    return flagged


def _merge_collinear_arrows(reactions: list[Reaction], doc: ReactionDocument) -> list[Reaction]:
    """Merge each reaction with the first unmerged partner that fits, in one pass.

    Unmerged reactions keep their order; merged ones follow in the order
    they were merged. A merged reaction holds two arrows and never merges
    again, and a pair that fails never succeeds later, so one pass finds
    every merge a rescan after each merge would. Each single-arrow
    reaction's axis is computed once, and only pairs that pass the angle,
    ahead-of, gap and lateral gates reach the gap scan of :func:`_try_merge`.
    """
    diag = doc.diagram_bounds.diagonal or 1.0
    axes = {}  # reaction index -> (tail, head, head - tail, |head - tail|, arrow centroid)
    for i, reaction in enumerate(reactions):
        if len(reaction.arrows) == 1:
            arrow = doc.entity(reaction.arrows[0])
            tail, head = principal_axis(arrow.region)
            v = (head[0] - tail[0], head[1] - tail[1])
            n = math.hypot(*v)
            if n != 0.0:  # a zero-length axis merges with nothing
                axes[i] = (tail, head, v, n, arrow.centroid)
    centroids = [e.centroid for e in doc.entities if e.kind != EntityKind.ARROW]
    used = [False] * len(reactions)
    merged: list[Reaction] = []
    for i, axis1 in axes.items():
        if used[i]:
            continue
        tail1, head1, v1, n1, _ = axis1
        for j, (tail2, _, v2, n2, centroid2) in axes.items():
            if used[j] or j == i:
                continue
            # the second arrow must continue the first: within the angle
            # bound, ahead of its head, across a short gap, near its line
            if abs((v1[0] * v2[0] + v1[1] * v2[1]) / (n1 * n2)) < _MERGE_MIN_COS:
                continue
            if axis_parameter(centroid2, tail1, head1) <= 1.0:
                continue
            if math.dist(head1, tail2) / diag > _MERGE_MAX_GAP:
                continue
            if lateral_distance(centroid2, tail1, head1) / diag > _MERGE_MAX_LATERAL:
                continue
            combined = _try_merge(reactions[i], reactions[j], axis1, tail2, centroids, diag)
            if combined is not None:
                used[i] = used[j] = True
                merged.append(combined)
                break
    return [r for r, u in zip(reactions, used) if not u] + merged


def _try_merge(first: Reaction, second: Reaction, axis1, tail2, centroids, diag: float) -> Reaction | None:
    """The merge of two reactions whose arrows passed the alignment gates, or None.

    ``axis1`` is the first arrow's axis, ``tail2`` the second's tail;
    ``centroids`` holds the centroid of every non-arrow entity.
    """
    tail1, head1, v1, _, _ = axis1
    # the gap must be empty: no non-arrow entity projected strictly inside it
    t_gap_start = axis_parameter(head1, tail1, head1)
    t_gap_end = axis_parameter(tail2, tail1, head1)
    lo, hi = min(t_gap_start, t_gap_end), max(t_gap_start, t_gap_end)
    # a centroid the test below flags projects into [lo, hi] and lies within
    # the band of the axis, so inside the gap segment's box padded by the
    # band; the relative slack outweighs the rounding of both tests
    (x0, y0), (x1, y1) = ((tail1[0] + t * v1[0], tail1[1] + t * v1[1]) for t in (lo, hi))
    pad = _GAP_BAND * diag + 1e-9 * (abs(x0) + abs(y0) + abs(x1) + abs(y1) + diag)
    x_lo, x_hi = min(x0, x1) - pad, max(x0, x1) + pad
    y_lo, y_hi = min(y0, y1) - pad, max(y0, y1) + pad
    for point in centroids:
        if not (x_lo <= point[0] <= x_hi and y_lo <= point[1] <= y_hi):
            continue
        t = axis_parameter(point, tail1, head1)
        if lo < t < hi and lateral_distance(point, tail1, head1) / diag < _GAP_BAND:
            return None
    return reaction_or_none(
        first.reactants + second.reactants,
        first.products + second.products,
        first.conditions + second.conditions,
        first.arrows + second.arrows,
        first.score + second.score,
    )


def _substitute_identifiers(reaction: Reaction, doc: ReactionDocument) -> Reaction | None:
    """The reaction with identifiers replaced by the molecules they resolve to; this runs before
    conservation is flagged, so rebuilding the reaction loses no field."""

    def resolve(entity_id):
        entity = doc.entity(entity_id)
        if (
            entity.kind == EntityKind.IDENTIFIER
            and entity.resolves_to is not None
            and doc.has_entity(entity.resolves_to)
            and doc.entity(entity.resolves_to).kind == EntityKind.MOLECULE
        ):
            return entity.resolves_to
        return entity_id

    roles = (map(resolve, ids) for ids in (reaction.reactants, reaction.products, reaction.conditions))
    return reaction_or_none(*roles, reaction.arrows, reaction.score)


def _flag_conservation(reaction: Reaction, doc: ReactionDocument, config: ReasoningConfig) -> Reaction:
    sides = []
    for ids in (reaction.reactants, reaction.products):
        molecules = []
        for entity_id in ids:
            entity = doc.entity(entity_id)
            if entity.kind != EntityKind.MOLECULE or entity.molecule is None:
                return replace(reaction, conservation=Conservation.UNKNOWN, residual=None)
            molecules.append(entity.molecule)
        sides.append(molecules)
    residual = conservation_residual(sides[0], sides[1])
    if residual[0].is_zero and residual[1] == 0:
        return replace(reaction, conservation=Conservation.BALANCED, residual=residual)
    return replace(
        reaction,
        conservation=Conservation.UNBALANCED,
        residual=residual,
        score=reaction.score * config.conservation_penalty,
    )
