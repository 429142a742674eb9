"""Annotation similarity and divergence math.

Classification similarity multiplies a KLD+MSE agreement factor by a
probability-sum regularizer; detection similarity averages matched IoU
over ground-truth boxes after optimal assignment. All logs are natural
except the sum regularizer, which uses log10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Box, BoxSet, Distribution
from .errors import DomainError

CLAMP = 1e-10


def _aligned(p: Distribution, q: Distribution) -> tuple[list[float], list[float]]:
    if set(p.probs) != set(q.probs):
        raise DomainError("distributions are over different category sets")
    cats = sorted(p.probs)
    return [p.probs[c] for c in cats], [q.probs[c] for c in cats]


def kld(p: Distribution, q: Distribution) -> float:
    """Kullback-Leibler divergence sum p*ln(p/q), operands clamped at 1e-10."""
    pv, qv = _aligned(p, q)
    total = 0.0
    for a, b in zip(pv, qv):
        a = max(a, CLAMP)
        b = max(b, CLAMP)
        total += a * math.log(a / b)
    return total


def mse(p: Distribution, q: Distribution) -> float:
    """Mean squared error over the shared category set."""
    pv, qv = _aligned(p, q)
    return sum((a - b) ** 2 for a, b in zip(pv, qv)) / len(pv)


def classification_similarity(gt: Distribution, pred: Distribution) -> float:
    """Agreement factor exp(-(KLD+MSE)) times the probability-sum regularizer.

    The prediction is deliberately not renormalized: the regularizer
    exp(-|log10(sum)|) is the penalty for a mis-normalized prediction.
    """
    phi = math.exp(-(kld(gt, pred) + mse(gt, pred)))
    total = max(pred.total(), CLAMP)
    # KLD against an over-mass prediction can be negative, pushing the raw
    # product above 1; the score is capped to stay in (0, 1].
    return min(1.0, phi * math.exp(-abs(math.log10(total))))


def iou(a: Box, b: Box) -> float:
    """Intersection over union under the continuous-area convention."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


@dataclass(frozen=True)
class MatchResult:
    """Optimal injective gt<->pred assignment with per-pair IoUs."""

    assignment: tuple[tuple[int, int], ...]
    per_pair_iou: tuple[float, ...]
    unmatched_gt: tuple[int, ...]

    @property
    def total_iou(self) -> float:
        return sum(self.per_pair_iou)


def iou_matrix(gt: BoxSet, pred: BoxSet) -> np.ndarray:
    m = np.zeros((len(gt), len(pred)))
    for i, g in enumerate(gt.boxes):
        for j, p in enumerate(pred.boxes):
            m[i, j] = iou(g, p)
    return m


def _best_subtotal(m: np.ndarray, rows: list[int], cols: list[int], needed: int):
    """Max total IoU over assignments of exactly `needed` pairs, or None if infeasible."""
    if needed == 0:
        return 0.0
    if min(len(rows), len(cols)) < needed:
        return None
    # Imported here: scipy.optimize is most of the package's import time, and
    # only detection scoring needs it.
    from scipy.optimize import linear_sum_assignment
    sub = m[np.ix_(rows, cols)]
    ri, ci = linear_sum_assignment(sub, maximize=True)
    return float(sub[ri, ci].sum())


def hungarian_match(gt: BoxSet, pred: BoxSet, tol: float = 1e-9) -> MatchResult:
    """Injective assignment maximizing total IoU, of size min(|gt|, |pred|).

    Among all optimal assignments, returns the lexicographically smallest
    by (gt_index, pred_index). Zero-IoU pairs may be assigned; they
    contribute nothing to the total.
    """
    ng, np_ = len(gt), len(pred)
    k = min(ng, np_)
    if k == 0:
        return MatchResult((), (), tuple(range(ng)))

    m = iou_matrix(gt, pred)
    target = _best_subtotal(m, list(range(ng)), list(range(np_)), k)

    fixed: list[tuple[int, int]] = []
    fixed_total = 0.0
    avail = list(range(np_))
    for g in range(ng):
        if len(fixed) == k:
            break
        rest_rows = list(range(g + 1, ng))
        chosen = None
        for p in avail:
            rest = _best_subtotal(m, rest_rows, [c for c in avail if c != p],
                                  k - len(fixed) - 1)
            if rest is None:
                continue
            if fixed_total + m[g, p] + rest >= target - tol:
                chosen = p
                break
        if chosen is None:
            # g stays unmatched; only reachable when |gt| > |pred|.
            continue
        fixed.append((g, chosen))
        fixed_total += m[g, chosen]
        avail.remove(chosen)

    matched = {g for g, _ in fixed}
    return MatchResult(
        assignment=tuple(fixed),
        per_pair_iou=tuple(float(m[g, p]) for g, p in fixed),
        unmatched_gt=tuple(i for i in range(ng) if i not in matched),
    )


def detection_similarity(gt: BoxSet, pred: BoxSet) -> float:
    """Mean matched IoU over ground-truth boxes; unmatched boxes count as 0."""
    if len(gt) == 0:
        raise DomainError("detection similarity is undefined for empty ground truth")
    match = hungarian_match(gt, pred)
    return match.total_iou / len(gt)


def jsd(p: Distribution, q: Distribution) -> float:
    """Jensen-Shannon divergence with natural log; range [0, ln 2]."""
    pv_cats = set(p.probs)
    if pv_cats != set(q.probs):
        raise DomainError("distributions are over different category sets")
    mid = Distribution({c: (p.probs[c] + q.probs[c]) / 2 for c in pv_cats})
    return 0.5 * kld(p, mid) + 0.5 * kld(q, mid)
