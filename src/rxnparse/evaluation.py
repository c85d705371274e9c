"""Hard/Soft-match evaluation of predicted reactions against ground truth.

Two entities match when their IoU strictly exceeds the threshold
(default 0.5, which must lie in [0, 1]) and their kinds agree. A
predicted reaction hard-matches a ground-truth reaction when its
reactant, condition and product sets each admit a perfect one-to-one
matching (equal cardinalities, every member paired); the soft criterion
restricts both sides to molecule-kind reactants and products and ignores
conditions entirely, so every hard match is also a soft match. Reaction
sets are then aligned by maximum bipartite matching, which makes the
score invariant to reaction ordering; precision, recall and F1 follow,
with the conventions P=1 when nothing was predicted and nothing matched
(and recall likewise for empty ground truth).

A reaction list arrives as :class:`~rxnparse.reactions.MemberColumns`,
the reader's own or gathered from a hand-built list in one pass.
:func:`score` runs the predicate, which reads regions, only on the
reaction pairs a screen over the coordinates leaves undecided. The
screen scores, with ``iou_axis``'s own arithmetic, the member pairs of
one role and kind in the three roles the hard criterion compares whose
bounds meet (a box's own, a quad's bounding box under ``polygon=False``,
unbounded for a quad clipped as a polygon); the ground truth's columns
keep it for the last predicted columns, threshold and polygon met, and
each criterion filters it to the members it compares. A reaction pair is
dropped when its per-slot (role and kind) member counts differ or some
predicted member has no ground-truth member above the threshold. A pair
left whose slots hold one bounded member a side matches without the
predicate: member edges join only one kind, so a role's perfect
matching is its slots'.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite
from operator import is_
from pathlib import Path

import numpy as np

from .reactions import ROLE_KEYS, BoxedMember, BoxedReaction, MemberColumns, ResponseFormatError, boxed_reactions_from_list
from .entities import KIND_CODES, EntityKind
from .geometry import bounds_iou_above, bounds_overlap, coords_bounds, region_iou


class AlignmentError(ValueError):
    """Corpus document ids do not line up between ground truth and predictions."""


class MatchingInvariantError(RuntimeError):
    """The lexicographic matching lost the maximum size it must keep."""


@dataclass(frozen=True)
class MatchReport:
    criterion: str
    precision: float
    recall: float
    f1: float
    matched_pairs: tuple[tuple[int, int], ...]
    gt_count: int
    pred_count: int
    matched: int
    per_layout: dict | None = None

    def to_dict(self) -> dict:
        data = {
            "criterion": self.criterion,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "counts": {"gt": self.gt_count, "pred": self.pred_count, "matched": self.matched},
            "matched_pairs": [list(p) for p in self.matched_pairs],
        }
        if self.per_layout is not None:
            data["per_layout"] = {
                layout: {"precision": p, "recall": r, "f1": f, "counts": dict(c)}
                for layout, (p, r, f, c) in self.per_layout.items()
            }
        return data


def entities_match(a, b, threshold: float = 0.5, polygon: bool = True) -> bool:
    """IoU strictly above the threshold; exactly at the threshold is a miss."""
    return region_iou(a, b, polygon=polygon) > threshold


def _role_saturating_match(pred_members, gt_members, threshold: float, polygon: bool) -> bool:
    """Perfect one-to-one matchability of two member sets."""
    if len(pred_members) != len(gt_members):
        return False
    if not pred_members:
        return True
    adjacency = []
    for p in pred_members:
        row = [
            g
            for g in range(len(gt_members))
            if p.kind == gt_members[g].kind
            and entities_match(p.region, gt_members[g].region, threshold, polygon)
        ]
        adjacency.append(row)
    return len(_max_matching(len(pred_members), adjacency)) == len(pred_members)


def reaction_matches_hard(
    pred: BoxedReaction, gt: BoxedReaction, threshold: float = 0.5, polygon: bool = True
) -> bool:
    """All reactants, conditions and products must match one-to-one."""
    return (
        _role_saturating_match(pred.reactants, gt.reactants, threshold, polygon)
        and _role_saturating_match(pred.conditions, gt.conditions, threshold, polygon)
        and _role_saturating_match(pred.products, gt.products, threshold, polygon)
    )


def _molecules_only(members) -> tuple[BoxedMember, ...]:
    return tuple(m for m in members if m.kind == EntityKind.MOLECULE)


def reaction_matches_soft(
    pred: BoxedReaction, gt: BoxedReaction, threshold: float = 0.5, polygon: bool = True
) -> bool:
    """Molecule-kind reactants and products only; text and conditions ignored."""
    return _role_saturating_match(
        _molecules_only(pred.reactants), _molecules_only(gt.reactants), threshold, polygon
    ) and _role_saturating_match(
        _molecules_only(pred.products), _molecules_only(gt.products), threshold, polygon
    )


_CRITERIA = {"hard": reaction_matches_hard, "soft": reaction_matches_soft}


def _prf(gt_count: int, pred_count: int, matched: int) -> tuple[float, float, float]:
    precision = 1.0 if pred_count == 0 and matched == 0 else matched / pred_count
    recall = 1.0 if gt_count == 0 and matched == 0 else matched / gt_count
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def _augment(sources, adjacency, match_gt: dict, match_pred: dict, seen: set) -> bool:
    """Flip the first augmenting path found from a free gt of ``sources`` to a free pred not in ``seen``.

    One depth-first search, preds marked in ``seen`` as it reaches them,
    shared by all sources; each gt reached first looks for a free pred
    among its own. Returns whether a path was found.
    """
    for source in sources:
        stack, path = [source], []  # path[k]: the pred leading from stack[k] to stack[k + 1]
        rows = [iter(adjacency[source])]
        while stack:
            free = next((p for p in adjacency[stack[-1]] if p not in seen and p not in match_pred), None)
            if free is not None:
                for gt, pred in zip(stack, path + [free]):
                    match_gt[gt], match_pred[pred] = pred, gt
                return True
            for pred in rows[-1]:
                if pred not in seen:
                    seen.add(pred)
                    path.append(pred)
                    stack.append(match_pred[pred])
                    rows.append(iter(adjacency[stack[-1]]))
                    break
            else:
                stack.pop()
                rows.pop()
                del path[-1:]  # the pred that led to the popped gt, if any
    return False


def _max_matching(n_left: int, adjacency) -> dict[int, int]:
    """Maximum bipartite matching, left -> right: one :func:`_augment` search from each left in turn."""
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}
    for left in range(n_left):
        _augment([left], adjacency, match_left, match_right, set())
    return match_left


def _take(g: int, p: int, n_gt: int, adjacency, match_gt: dict, match_pred: dict, taken: set) -> bool:
    """Whether a maximum matching of the gts from ``g`` on and the preds not ``taken`` pairs ``g`` with
    ``p``; if so, the kept maximum matching ``match_gt``/``match_pred`` becomes one that does."""
    own, holder = match_gt.get(g), match_pred.get(p)
    if own == p:
        return True
    if own is not None:
        del match_pred[own]
    if holder is not None:
        del match_gt[holder]
    match_gt[g], match_pred[p] = p, g
    if own is None or holder is None:  # one pair given up for one
        return True
    # two pairs given up for one: the size comes back only by an augmenting path avoiding g and p,
    # from the freed holder or a gt the matching leaves free; it may end at the freed own pred
    sources = [holder] + [u for u in range(g + 1, n_gt) if u not in match_gt]
    if _augment(sources, adjacency, match_gt, match_pred, taken | {p}):
        return True
    match_gt[g], match_pred[own], match_gt[holder], match_pred[p] = own, g, p, holder
    return False


def _lexicographic_matching(n_gt: int, adjacency) -> list[tuple[int, int]]:
    """A maximum matching whose pair list is lexicographically smallest.

    Each gt in turn takes the first pred of its row that some maximum
    matching pairs it with, given the pairs taken before, or stays
    unmatched. One maximum matching of what is left to decide is kept, so
    each tried pair costs at most one :func:`_augment` search, not a new
    maximum matching.
    """
    match_gt = _max_matching(n_gt, adjacency)
    target = len(match_gt)
    match_pred = {p: g for g, p in match_gt.items()}
    pairs: list[tuple[int, int]] = []
    taken: set[int] = set()
    for g in range(n_gt):
        for p in adjacency[g]:
            if p not in taken and _take(g, p, n_gt, adjacency, match_gt, match_pred, taken):
                pairs.append((g, p))
                taken.add(p)
                break
        else:
            if g in match_gt:  # its pred would have been feasible
                raise MatchingInvariantError(f"skipping gt {g} loses a pair of the maximum {target}")
    if len(pairs) != target:
        raise MatchingInvariantError(f"{len(pairs)} pairs kept of the maximum {target}")
    return pairs


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # also rejects NaN and the infinities
        raise ValueError(f"IoU threshold {threshold!r} is not a finite number in [0, 1]")


# the roles each criterion's predicate above compares, a prefix of the wire order, and the one kind it
# keeps (None: all)
_SCREENED = {"hard": (("reactants", "products", "conditions"), None),
             "soft": (("reactants", "products"), EntityKind.MOLECULE)}
_N_KINDS = len(KIND_CODES)
_N_SLOTS = len(_SCREENED["hard"][0]) * _N_KINDS  # slot: role index * _N_KINDS + kind code
_NAN4, _NAN8 = (float("nan"),) * 4, (float("nan"),) * 8


def _columns(reactions) -> MemberColumns:
    """The list's :class:`~rxnparse.reactions.MemberColumns`: those the reader built, when the list
    is the reader's reactions, all and in order; else gathered from the members in one pass."""
    columns = getattr(reactions[0], "_columns", None) if reactions else None
    if columns is not None and len(columns.views) == len(reactions) and all(map(is_, reactions, columns.views)):
        return columns
    roles = [role for r in reactions for role in (r.reactants, r.products, r.conditions, r.arrows)]
    members = [member for role in roles for member in role]
    # a box's 4 numbers, then NaN, or a quad's 8; a hand-built region may hold a value that is not finite
    # (the reader rejects one), and a box's IoU is then 0: its row is NaN, which no bounds test passes
    rows = [c if all(map(isfinite, c)) else _NAN8 for c in (m.coords for m in members)]
    coords = np.array([c if len(c) == 8 else c + _NAN4 for c in rows], dtype=float)
    kinds = [KIND_CODES[m.kind] for m in members]
    return MemberColumns(kinds, coords.reshape(-1, 8), [0, *accumulate(map(len, roles))])


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a sorted array and how often each occurs.

    Not ``np.unique``: its first call imports ``numpy.ma``, about 1 MB of
    resident memory.
    """
    starts = np.flatnonzero(np.concatenate((keys[:1] == keys[:1], keys[1:] != keys[:-1])))
    ends = np.flatnonzero(np.concatenate((keys[1:] != keys[:-1], keys[:1] == keys[:1])))
    return keys[starts], ends - starts + 1


def _member_pairs(gt: MemberColumns, pred: MemberColumns, polygon: bool, threshold: float) -> np.ndarray:
    """Sorted distinct keys ``gt reaction * len(pred.kinds) + pred row`` of the member pairs, in the roles
    the hard criterion compares, that share a role and kind and whose bounds IoU exceeds the threshold or
    that compare a polygon; kept on ``gt`` for the last pred columns, threshold and polygon it met."""
    kept = gt.screen
    if kept is not None and kept[0] is pred and kept[1] == threshold and kept[2] == polygon:
        return kept[3]
    gt_bounds, pred_bounds = coords_bounds(gt.coords, polygon), coords_bounds(pred.coords, polygon)
    gt_slot, pred_slot = gt.roles * _N_KINDS + gt.kinds, pred.roles * _N_KINDS + pred.kinds
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    shared = set(gt_slot.tolist()) & set(pred_slot.tolist())
    for slot in (s for s in shared if s < _N_SLOTS):
        a, b = np.flatnonzero(gt_slot == slot), np.flatnonzero(pred_slot == slot)
        r, c = bounds_overlap(gt_bounds[a], pred_bounds[b])
        rows.append(a[r])
        cols.append(b[c])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    kept = bounds_iou_above(gt_bounds[rows], pred_bounds[cols], threshold)
    keys = _runs(np.sort(gt.owners[rows[kept]] * max(len(pred.kinds), 1) + cols[kept]))[0]
    gt.screen = (pred, threshold, polygon, keys)
    return keys


def _compared(columns: MemberColumns, criterion: str) -> np.ndarray:
    """Mask of the rows the criterion's predicate compares."""
    roles, kind = _SCREENED[criterion]
    compared = columns.roles < len(roles)
    return compared if kind is None else compared & (columns.kinds == KIND_CODES[kind])


def _slot_counts(columns: MemberColumns, compared: np.ndarray, polygon: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per reaction, its count of ``compared`` rows per slot (a role and kind pair, numbered) and whether
    the screen can decide it: one such row per slot, none a quad compared as a polygon."""
    owners = columns.owners[compared]
    slots = columns.roles[compared] * _N_KINDS + columns.kinds[compared]
    counts = np.bincount(owners * _N_SLOTS + slots, minlength=len(columns) * _N_SLOTS).reshape(-1, _N_SLOTS)
    decidable = counts.max(axis=1, initial=0) <= 1
    if polygon:
        decidable[owners[columns.quads[compared]]] = False
    return counts, decidable


def _screened_pairs(
    gt: MemberColumns, pred: MemberColumns, criterion: str, polygon: bool, threshold: float
) -> list[tuple[int, int, bool]]:
    """(gt, pred, decided) for the reaction pairs that can match, in ascending order.

    A pair is dropped when its per-slot member counts differ, or when a
    pred member the criterion compares has no gt member in the same slot
    in :func:`_member_pairs`. A decided pair is a match.
    """
    compared = _compared(gt, criterion), _compared(pred, criterion)
    keys = _member_pairs(gt, pred, polygon, threshold)
    g, member = np.divmod(keys, max(len(pred.kinds), 1))
    g, member = g[compared[1][member]], member[compared[1][member]]
    n_pred = max(len(pred), 1)
    pair_keys, partnered = _runs(g * n_pred + pred.owners[member])  # sorted: pred rows run in reaction order
    g, p = np.divmod(pair_keys, n_pred)
    gt_counts, gt_decidable = _slot_counts(gt, compared[0], polygon)
    pred_counts, pred_decidable = _slot_counts(pred, compared[1], polygon)
    members = pred_counts.sum(axis=1)
    keep = (partnered == members[p]) & (gt_counts[g] == pred_counts[p]).all(axis=1)
    # a pred reaction without compared members pairs with every gt without any
    bare_g, bare_p = np.flatnonzero(gt_counts.sum(axis=1) == 0), np.flatnonzero(members == 0)
    bare = (bare_g[:, None] * n_pred + bare_p[None, :]).ravel()
    g, p = np.divmod(np.sort(np.concatenate([pair_keys[keep], bare])), n_pred)
    return list(zip(g.tolist(), p.tolist(), (gt_decidable[g] & pred_decidable[p]).tolist()))


def score(
    gt,
    pred,
    criterion: str = "hard",
    threshold: float = 0.5,
    polygon: bool = True,
) -> MatchReport:
    """Score one document's predictions against its ground truth."""
    _check_threshold(threshold)
    predicate = _CRITERIA[criterion]
    adjacency = [[] for _ in gt]
    for g, p, decided in _screened_pairs(_columns(gt), _columns(pred), criterion, polygon, threshold):
        if decided or predicate(pred[p], gt[g], threshold, polygon):
            adjacency[g].append(p)
    pairs = _lexicographic_matching(len(gt), adjacency)
    matched = len(pairs)
    precision, recall, f1 = _prf(len(gt), len(pred), matched)
    return MatchReport(
        criterion=criterion,
        precision=precision,
        recall=recall,
        f1=f1,
        matched_pairs=tuple(pairs),
        gt_count=len(gt),
        pred_count=len(pred),
        matched=matched,
    )


@dataclass(frozen=True)
class CorpusDocument:
    """One document's reactions plus the metadata the report breaks down on."""

    doc_id: str
    reactions: tuple[BoxedReaction, ...]
    layout: str | None = None


def _reactions(data, where: str) -> tuple[BoxedReaction, ...]:
    """The reader's reactions of ``data``; a malformed one is a ResponseFormatError prefixed ``where: ``."""
    try:
        return tuple(boxed_reactions_from_list(data))
    except ResponseFormatError as exc:
        raise ResponseFormatError(f"{where}: {exc}") from exc


def load_corpus(path) -> list[CorpusDocument]:
    """The documents of a corpus file, a JSON array of ``{"id", "reactions", "layout"?}`` objects, or a
    bare reaction array as one document ``"<single>"``; a malformed file is a ResponseFormatError. An array
    is a bare reaction array when it is empty or its first item is an object with any reaction role key."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ResponseFormatError(f"eval file {path} is not valid JSON: {exc}") from exc
    if isinstance(data, list) and (not data or isinstance(data[0], dict) and not data[0].keys().isdisjoint(ROLE_KEYS)):
        return [CorpusDocument(doc_id="<single>", reactions=_reactions(data, f"eval file {path}"))]
    if not isinstance(data, list):
        raise ResponseFormatError(f"eval file {path} must be a JSON array")
    docs = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict) or "id" not in obj or "reactions" not in obj:
            raise ResponseFormatError(f"eval file {path}: document {i} needs 'id' and 'reactions'")
        layout = obj.get("layout")
        if layout is not None and not isinstance(layout, str):
            raise ResponseFormatError(f"eval file {path}: document {i} 'layout' must be a string, got {layout!r}")
        docs.append(
            CorpusDocument(
                doc_id=str(obj["id"]),
                reactions=_reactions(obj["reactions"], f"eval file {path}: document {i}"),
                layout=layout,
            )
        )
    return docs


def score_corpus(
    gt_docs,
    pred_docs,
    criterion: str = "hard",
    threshold: float = 0.5,
    polygon: bool = True,
) -> MatchReport:
    """Micro-averaged corpus scores with a per-layout breakdown.

    Documents pair by position and must carry identical ids.
    """
    _check_threshold(threshold)
    if len(gt_docs) != len(pred_docs):
        raise AlignmentError(f"{len(gt_docs)} ground-truth vs {len(pred_docs)} predicted documents")
    totals = {"gt": 0, "pred": 0, "matched": 0}
    by_layout: dict[str, dict[str, int]] = {}
    pairs: list[tuple[int, int]] = []
    for gt_doc, pred_doc in zip(gt_docs, pred_docs):
        if gt_doc.doc_id != pred_doc.doc_id:
            raise AlignmentError(f"document id mismatch: {gt_doc.doc_id!r} vs {pred_doc.doc_id!r}")
        report = score(gt_doc.reactions, pred_doc.reactions, criterion, threshold, polygon)
        totals["gt"] += report.gt_count
        totals["pred"] += report.pred_count
        totals["matched"] += report.matched
        pairs.extend(report.matched_pairs)
        if gt_doc.layout is not None:
            bucket = by_layout.setdefault(gt_doc.layout, {"gt": 0, "pred": 0, "matched": 0})
            bucket["gt"] += report.gt_count
            bucket["pred"] += report.pred_count
            bucket["matched"] += report.matched

    precision, recall, f1 = _prf(totals["gt"], totals["pred"], totals["matched"])
    per_layout = {}
    for layout in sorted(by_layout):
        bucket = by_layout[layout]
        p, r, f = _prf(bucket["gt"], bucket["pred"], bucket["matched"])
        per_layout[layout] = (p, r, f, bucket)
    return MatchReport(
        criterion=criterion,
        precision=precision,
        recall=recall,
        f1=f1,
        matched_pairs=tuple(pairs),
        gt_count=totals["gt"],
        pred_count=totals["pred"],
        matched=totals["matched"],
        per_layout=per_layout or None,
    )


def report_table(reports) -> str:
    """Fixed-width text table, one row per report (plus layout rows)."""
    lines = [f"{'Scope':<18} {'Criterion':<10} {'Prec.':>7} {'Recall':>7} {'F1':>7}"]
    lines.append("-" * len(lines[0]))
    for report in reports:
        lines.append(
            f"{'overall':<18} {report.criterion:<10} "
            f"{report.precision * 100:>6.1f} {report.recall * 100:>7.1f} {report.f1 * 100:>7.1f}"
        )
        for layout, (p, r, f, _counts) in (report.per_layout or {}).items():
            lines.append(
                f"{layout:<18} {report.criterion:<10} {p * 100:>6.1f} {r * 100:>7.1f} {f * 100:>7.1f}"
            )
    return "\n".join(lines)
