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
from bisect import bisect_right
from dataclasses import replace

import numpy as np

from ..chem import conservation_residual
from ..config import ReasoningConfig
from ..entities import KIND_CODES, EntityKind, ReactionDocument
from ..geometry import axis_parameter, principal_axis
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
    reaction's axis is computed once, and :func:`_merge_screen` decides
    the angle, ahead-of and lateral gates; of its pairs, only those whose
    gap passes the exact gate here reach the empty-gap test of
    :func:`_try_merge`.
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
    if len(axes) < 2:
        return reactions
    table = doc.table
    keys = list(axes)
    partners, bands = _merge_screen(list(axes.values()), table.centroids[table.kinds != KIND_CODES[EntityKind.ARROW]], diag)
    used = [False] * len(reactions)
    merged: list[Reaction] = []
    for i, axis1, kept, band in zip(keys, axes.values(), partners, bands):
        if used[i]:
            continue
        head1 = axis1[1]
        for j in (keys[k] for k in kept):
            tail2 = axes[j][0]
            if used[j] or math.dist(head1, tail2) / diag > _MERGE_MAX_GAP:
                continue
            combined = _try_merge(reactions[i], reactions[j], axis1, tail2, band)
            if combined is not None:
                used[i] = used[j] = True
                merged.append(combined)
                break
    return [r for r, u in zip(reactions, used) if not u] + merged


def _merge_screen(axes, centroids: np.ndarray, diag: float) -> tuple[list, list]:
    """Per axis, the other axes that may pass the merge gates after it, ascending, and the sorted axis
    parameters of the non-arrow ``centroids`` within its gap band, for :func:`_try_merge`.

    The second arrow must continue the first: within the angle bound, ahead
    of its head, near its line and across a short gap. The angle, ahead-of
    and lateral gates run one numpy operation per operation of
    :func:`~rxnparse.geometry.axis_parameter` and of the perpendicular
    distance, in order, so they read the Python floats and decide. The gap,
    where ``np.hypot`` stands for ``math.dist``, only screens, with a
    relative slack far above their rounding; the caller decides it exactly.
    NaN passes a gate, as in Python.
    """
    tail, head, v, n, ends = (np.array(column, dtype=float) for column in zip(*axes))
    points = np.concatenate((ends, centroids))
    vx, vy, m = v[:, 0, None], v[:, 1, None], len(axes)
    ox, oy = points[:, 0] - tail[:, 0, None], points[:, 1] - tail[:, 1, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as Python's floats overflow, silently
        denom = vx * vx + vy * vy
        t = np.where(denom <= 0.0, 0.0, (ox * vx + oy * vy) / denom)
        lateral = np.abs(vx * oy - vy * ox) / n[:, None] / diag
        cosine = np.abs((vx * v[:, 0] + vy * v[:, 1]) / (n[:, None] * n))
        gap = np.hypot(head[:, 0, None] - tail[:, 0], head[:, 1, None] - tail[:, 1]) / diag
    kept = ~(cosine < _MERGE_MIN_COS) & ~(t[:, :m] <= 1.0) & ~(lateral[:, :m] > _MERGE_MAX_LATERAL)
    kept &= ~(gap > _MERGE_MAX_GAP * (1.0 + 1e-9))
    np.fill_diagonal(kept, False)
    within = (lateral[:, m:] < _GAP_BAND) & ~np.isnan(t[:, m:])  # a NaN parameter is inside no gap, and would unsort
    bands = np.sort(np.where(within, t[:, m:], np.inf), axis=1).tolist()  # each band first, ascending
    return [np.flatnonzero(row).tolist() for row in kept], [b[:k] for b, k in zip(bands, within.sum(axis=1).tolist())]


def _try_merge(first: Reaction, second: Reaction, axis1, tail2, band: list) -> Reaction | None:
    """The merge of two reactions whose arrows passed the alignment gates, or None.

    ``axis1`` is the first arrow's axis, ``tail2`` the second's tail, and
    ``band`` the sorted axis parameters of the non-arrow centroids within
    the first axis's gap band.
    """
    tail1, head1, _, _, _ = axis1
    # the gap must be empty: no non-arrow centroid of the band projects strictly inside it
    t_gap_start = axis_parameter(head1, tail1, head1)
    t_gap_end = axis_parameter(tail2, tail1, head1)
    lo, hi = min(t_gap_start, t_gap_end), max(t_gap_start, t_gap_end)
    after = bisect_right(band, lo)
    if after < len(band) and band[after] < hi:
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
                return replace(reaction, conservation=Conservation.UNKNOWN)
            molecules.append(entity.molecule)
        sides.append(molecules)
    elements, charge = conservation_residual(sides[0], sides[1])
    if not elements and charge == 0:
        return replace(reaction, conservation=Conservation.BALANCED)
    return replace(
        reaction,
        conservation=Conservation.UNBALANCED,
        score=reaction.score * config.conservation_penalty,
    )
