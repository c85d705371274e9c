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

:func:`score` runs the predicate only on the reaction pairs a region
screen leaves undecided. The screen compares members of the same role
and kind (under ``soft``, molecule reactants and products only) through
one :class:`~rxnparse.geometry.RegionIndex` per such slot, scores every
pair of boxes (quads too under ``polygon=False``) whose bounds meet with
``iou_axis``'s own arithmetic, and drops a reaction pair whose per-slot
member counts differ or in which some predicted member has no
ground-truth member above the threshold. A pair left whose slots hold
one box a side matches without the predicate: member edges join only
one kind, so a role's perfect matching is its slots'. The lexicographic
matching then runs once per connected component of the compatibility
graph; the maximum size is a sum over components, so each greedy
feasibility test splits into one test per component and the pairs equal
those of one run over the whole graph. A gt and a pred compatible only
with each other are such a component and pair directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reactions import BoxedMember, BoxedReaction
from .entities import EntityKind
from .geometry import RegionIndex, bounds_iou_above, region_iou
from .reasoning.clustering import connected_groups


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


def _kuhn_max_matching(n_left: int, n_right: int, adjacency) -> dict[int, int]:
    """Maximum bipartite matching, left -> right; augmenting paths are searched on an explicit stack."""
    match_right: dict[int, int] = {}
    for start in range(n_left):
        seen: set[int] = set()
        stack, path = [(start, iter(adjacency[start]))], []  # path[k]: the right leading to stack[k + 1]
        while stack:
            for right in stack[-1][1]:
                if right not in seen:
                    seen.add(right)
                    path.append(right)
                    if right not in match_right:  # augment along the path
                        for (left, _), right in zip(stack, path):
                            match_right[right] = left
                        stack = []
                    else:
                        stack.append((match_right[right], iter(adjacency[match_right[right]])))
                    break
            else:
                stack.pop()
                del path[-1:]  # the right that led to the popped left, if any
    return {left: right for right, left in match_right.items()}


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
    matching = _kuhn_max_matching(len(pred_members), len(gt_members), adjacency)
    return len(matching) == len(pred_members)


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


def _lexicographic_matching(n_gt: int, n_pred: int, adjacency) -> list[tuple[int, int]]:
    """A maximum matching whose pair list is lexicographically smallest."""

    def max_size(rows, banned_right) -> int:
        adj = [[r for r in rows[i] if r not in banned_right] for i in range(len(rows))]
        return len(_kuhn_max_matching(len(rows), n_pred, adj))

    target = max_size(adjacency, set())
    pairs: list[tuple[int, int]] = []
    used_right: set[int] = set()
    remaining = list(range(n_gt))
    for gt_index in range(n_gt):
        remaining = [i for i in remaining if i != gt_index]
        chosen = None
        for pred_index in adjacency[gt_index]:
            if pred_index in used_right:
                continue
            rest_rows = [adjacency[i] for i in remaining]
            rest = max_size(rest_rows, used_right | {pred_index})
            if len(pairs) + 1 + rest == target:
                chosen = pred_index
                break
        if chosen is not None:
            pairs.append((gt_index, chosen))
            used_right.add(chosen)
        else:
            rest_rows = [adjacency[i] for i in remaining]
            # skipping this gt must still reach the target
            if len(pairs) + max_size(rest_rows, used_right) != target:
                raise MatchingInvariantError(f"skipping gt {gt_index} loses a pair of the maximum {target}")
    return pairs


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # also rejects NaN and the infinities
        raise ValueError(f"IoU threshold {threshold!r} is not a finite number in [0, 1]")


# the roles each criterion's predicate above compares, and the one kind it keeps (None: all)
_SCREENED = {"hard": (("reactants", "conditions", "products"), None),
             "soft": (("reactants", "products"), EntityKind.MOLECULE)}


def _by_slot(reactions, criterion: str) -> tuple[list[tuple], list[bool], dict]:
    """Each reaction's member count per (role, kind) slot the criterion compares, whether each of
    its slots holds one member, and per slot the owning reaction and region of every member."""
    roles, kind = _SCREENED[criterion]
    shapes, single, by_slot = [], [], {}
    for owner, reaction in enumerate(reactions):
        counts: dict = {}
        for role in roles:
            for member in getattr(reaction, role):
                if kind is None or member.kind == kind:
                    slot = (role, member.kind)
                    owners, regions = by_slot.setdefault(slot, ([], []))
                    owners.append(owner)
                    regions.append(member.region)
                    counts[slot] = counts.get(slot, 0) + 1
        shapes.append(tuple(sorted(counts.items())))
        single.append(sum(counts.values()) == len(counts))
    return shapes, single, by_slot


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a sorted array and how often each occurs.

    Not ``np.unique``: its first call imports ``numpy.ma``, about 1 MB of
    resident memory.
    """
    starts = np.flatnonzero(np.concatenate((keys[:1] == keys[:1], keys[1:] != keys[:-1])))
    ends = np.flatnonzero(np.concatenate((keys[1:] != keys[:-1], keys[:1] == keys[:1])))
    return keys[starts], ends - starts + 1


def _screened_pairs(gt, pred, criterion: str, polygon: bool, threshold: float) -> list[tuple[int, int, bool]]:
    """(gt, pred, decided) for the reaction pairs that can match, in ascending order.

    A pair is dropped when its per-slot member counts differ, or when a
    pred member has no gt member in the same slot with IoU above the
    threshold or compared as a polygon. A decided pair is a match.
    """
    gt_shapes, gt_single, gt_by = _by_slot(gt, criterion)
    pred_shapes, pred_single, pred_by = _by_slot(pred, criterion)
    gt_single, pred_single = np.array(gt_single, dtype=bool), np.array(pred_single, dtype=bool)
    shape_ids: dict = {}
    gt_shape = np.array([shape_ids.setdefault(s, len(shape_ids)) for s in gt_shapes], dtype=np.int64)
    pred_shape = np.array([shape_ids.setdefault(s, len(shape_ids)) for s in pred_shapes], dtype=np.int64)
    counts = np.array([sum(n for _, n in s) for s in pred_shapes], dtype=np.int64)

    stride, n_pred = max(int(counts.sum()), 1), max(len(pred), 1)
    keys = [np.empty(0, dtype=np.int64)]  # gt * stride + pred member, one per screened member pair
    gt_bounds, pred_bounds = [np.empty((0, 4))], [np.empty((0, 4))]  # the member bounds of each such pair
    member_owner: list[int] = []  # pred member -> pred reaction
    for slot, (pred_owners, pred_regions) in pred_by.items():
        if slot in gt_by:
            gt_owners, gt_regions = gt_by[slot]
            gt_index, pred_index = RegionIndex(gt_regions, polygon), RegionIndex(pred_regions, polygon)
            rows, cols = gt_index.overlapping(pred_index)
            keys.append(np.array(gt_owners)[rows] * stride + len(member_owner) + cols)
            gt_bounds.append(gt_index.bounds[rows])
            pred_bounds.append(pred_index.bounds[cols])
        member_owner.extend(pred_owners)
    keys, owner = np.concatenate(keys), np.array(member_owner, dtype=np.int64)
    gt_bounds, pred_bounds = np.concatenate(gt_bounds), np.concatenate(pred_bounds)
    # a member compared as a polygon is unbounded, so it meets every member of its slot on the
    # other side: marking the reactions of its member pairs leaves each of their pairs to the predicate
    gt_single[keys[np.isinf(gt_bounds[:, 0])] // stride] = False
    pred_single[owner[keys[np.isinf(pred_bounds[:, 0])] % stride]] = False
    g, member = np.divmod(_runs(np.sort(keys[bounds_iou_above(gt_bounds, pred_bounds, threshold)]))[0], stride)
    pair_keys, partnered = _runs(np.sort(g * n_pred + owner[member]))
    g, p = np.divmod(pair_keys, n_pred)
    keep = (partnered == counts[p]) & (gt_shape[g] == pred_shape[p])
    # a pred reaction without compared members pairs with every gt of its shape
    bare = np.flatnonzero(counts == 0)
    bare_g, bare_k = np.nonzero(gt_shape[:, None] == pred_shape[bare][None, :])
    g, p = np.divmod(np.sort(np.concatenate([pair_keys[keep], bare_g * n_pred + bare[bare_k]])), n_pred)
    return list(zip(g.tolist(), p.tolist(), (gt_single[g] & pred_single[p]).tolist()))


def _matching_by_component(n_gt: int, adjacency) -> list[tuple[int, int]]:
    """:func:`_lexicographic_matching` per connected component, pairs merged by gt index;
    a gt and a pred linked only to each other pair without grouping."""
    degree = np.bincount(np.array([p for row in adjacency for p in row], dtype=np.intp))
    isolated = [len(row) == 1 and degree[row[0]] == 1 for row in adjacency]
    pairs = [(g, row[0]) for g, row in enumerate(adjacency) if isolated[g]]
    gts = [g for g in range(n_gt) if adjacency[g] and not isolated[g]]
    preds = sorted({p for g in gts for p in adjacency[g]})
    node = {p: len(gts) + k for k, p in enumerate(preds)}
    linked = np.zeros((len(gts) + len(preds),) * 2, dtype=bool)
    for row, g in enumerate(gts):
        for p in adjacency[g]:
            linked[row, node[p]] = linked[node[p], row] = True
    for group in connected_groups(linked):
        group_gts = [gts[i] for i in group if i < len(gts)]
        group_preds = [preds[i - len(gts)] for i in group if i >= len(gts)]
        local = {p: k for k, p in enumerate(group_preds)}
        rows = [[local[p] for p in adjacency[g]] for g in group_gts]
        for g, p in _lexicographic_matching(len(group_gts), len(group_preds), rows):
            pairs.append((group_gts[g], group_preds[p]))
    return sorted(pairs)


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
    for g, p, decided in _screened_pairs(gt, pred, criterion, polygon, threshold):
        if decided or predicate(pred[p], gt[g], threshold, polygon):
            adjacency[g].append(p)
    pairs = _matching_by_component(len(gt), adjacency)
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
