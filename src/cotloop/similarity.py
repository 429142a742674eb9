"""Annotation similarity and divergence math.

Classification similarity multiplies a KLD+MSE agreement factor by a
probability-sum regularizer; detection similarity averages matched IoU over
ground-truth boxes under the lexicographically first optimal assignment. All
logs are natural except log10 in the sum regularizer.

One function, `_neg_ious`, holds the IoU arithmetic: it builds the
assignment's cost matrix (-IoU per gt/pred pair) reading each box's
coordinates and area once, and `iou` is its one-pair case negated back
(negation is exact, so both agree to the bit).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .domain import Box, BoxSet, Distribution
from .errors import DomainError

CLAMP = 1e-10
TIE_TOL = 1e-9  # an assignment total this near the optimum counts as optimal


def _aligned(p: Distribution, q: Distribution) -> tuple[list[float], list[float]]:
    if p.probs.keys() != q.probs.keys():
        raise DomainError("distributions are over different category sets")
    cats = sorted(p.probs)
    return list(map(p.probs.__getitem__, cats)), list(map(q.probs.__getitem__, cats))


def _kld(pv: list[float], qv: list[float]) -> float:
    # `CLAMP if CLAMP > a else a` is `max(a, CLAMP)`, NaN included, without the call.
    log, total = math.log, 0.0
    for a, b in zip(pv, qv):
        a = CLAMP if CLAMP > a else a
        b = CLAMP if CLAMP > b else b
        total += a * log(a / b)
    return total


def _mse(pv: list[float], qv: list[float]) -> float:
    return sum((a - b) ** 2 for a, b in zip(pv, qv)) / len(pv)


def kld(p: Distribution, q: Distribution) -> float:
    """Kullback-Leibler divergence sum p*ln(p/q), operands clamped at 1e-10."""
    return _kld(*_aligned(p, q))


def mse(p: Distribution, q: Distribution) -> float:
    """Mean squared error over the shared category set."""
    return _mse(*_aligned(p, q))


def classification_similarity(gt: Distribution, pred: Distribution) -> float:
    """Agreement factor exp(-(KLD+MSE)) times the probability-sum regularizer.

    The prediction is deliberately not renormalized: the regularizer
    exp(-|log10(sum)|) is the penalty for a mis-normalized prediction.
    """
    gv, pv = _aligned(gt, pred)
    phi = math.exp(-(_kld(gv, pv) + _mse(gv, pv)))
    total = max(pred.total(), CLAMP)
    # KLD against an over-mass prediction can be negative, pushing the raw
    # product above 1; the score is capped to stay in (0, 1].
    return min(1.0, phi * math.exp(-abs(math.log10(total))))


def _neg_ious(gt: Sequence[Box], pred: Sequence[Box]) -> list[list[float]]:
    """-iou(g, p) for each gt box g (a row) and pred box p (a column). Each box's
    coordinates and area are read once; `b if b < a else a` is min(a, b) and
    `b if b > a else a` is max(a, b), NaN and -0.0 included."""
    preds = [(p.x1, p.y1, p.x2, p.y2, p.area) for p in pred]
    rows = []
    for g in gt:
        gx1, gy1, gx2, gy2, ga = g.x1, g.y1, g.x2, g.y2, g.area
        row = []
        for px1, py1, px2, py2, pa in preds:
            ix = (px2 if px2 < gx2 else gx2) - (px1 if px1 > gx1 else gx1)
            iy = (py2 if py2 < gy2 else gy2) - (py1 if py1 > gy1 else gy1)
            inter = (ix if ix > 0.0 else 0.0) * (iy if iy > 0.0 else 0.0)
            union = ga + pa - inter
            row.append(-0.0 if union <= 0 else -(inter / union))
        rows.append(row)
    return rows


def iou(a: Box, b: Box) -> float:
    """Intersection over union under the continuous-area convention; 0 when
    the union is not positive."""
    return -_neg_ious((a,), (b,))[0][0]


@dataclass(frozen=True)
class MatchResult:
    """Optimal injective gt<->pred assignment with per-pair IoUs."""

    assignment: tuple[tuple[int, int], ...]
    per_pair_iou: tuple[float, ...]
    unmatched_gt: tuple[int, ...]

    @property
    def total_iou(self) -> float:
        return sum(self.per_pair_iou)


def _shift(cost: list[list[float]], col: list[int], u: list[float], g: int,
           ends: list[int] | None, slack: float) -> float:
    """Put row g on the first column j whose score[j], the least cost of the move with g
    on j, is within `slack` of the best; the rows after g shift along a shortest path
    (Jonker & Volgenant 1987) until a column in `ends` (default: a free one, else the
    last) is filled. Updates col and the potentials -u in place; returns score[j] - best."""
    ng, npd = len(col) - 1, len(cost[0]) - 1
    # dist[i]: least cost of the rows' moves once row i leaves its column; at[x]: of
    # emptying column x, whose row who[x] leaves for column to[who[x]].
    dist, to, at, who, done, heap = [math.inf] * (ng + 1), {}, {}, {}, set(), []
    rows, push = range(g + 1, ng + 1), heapq.heappush

    def reach(x: int, d: float, a: int) -> None:  # x not reached yet
        at[x], who[x] = d, a
        for i in rows:
            e = cost[i][x] + d
            if e < dist[i] and col[i] != x and i not in done:
                dist[i], to[i] = e, x
                if col[i] not in at:  # else settling row i would reach nothing new
                    push(heap, (e - u[i], i))

    filling = ends is None
    if filling:
        taken = set(col)
        ends = [x for x in range(npd) if x not in taken] or [npd]
    for x in ends:
        reach(x, 0.0, g)
    while heap:
        a = heapq.heappop(heap)[1]
        if a in done:
            continue
        done.add(a)
        if a < ng:  # row a leaves its column
            x = col[a]
            if x not in at:
                reach(x, dist[a] - cost[a][x], a)
        elif not filling:  # row ng holds the free columns (when filling, the ends: reached)
            taken = set(col)
            for x in range(npd):
                if x not in taken:  # only row ng reaches a free column
                    reach(x, dist[a] - cost[a][x], a)
    score = [cost[g][j] + at.get(j, math.inf) for j in range(npd + 1)]
    best = min(score)
    # As s - best, not s <= best + slack, so that the caller's slack never drops below 0.
    i, j = g, next(j for j, s in enumerate(score) if s - best <= slack)
    u[:], u[g] = dist, score[j]  # the distances are the potentials of the new matching
    while True:  # walk the path: each row takes the next column
        if i < ng:
            col[i] = j
        if j in ends:
            return u[g] - best
        i, j = who[j], to[who[j]]


def hungarian_match(gt: BoxSet, pred: BoxSet) -> MatchResult:
    """Injective assignment maximizing total IoU, of size min(|gt|, |pred|).

    Among the assignments whose total is within TIE_TOL of the optimum,
    returns the lexicographically smallest by (gt_index, pred_index).
    Zero-IoU pairs may be assigned; they contribute nothing to the total.
    """
    ng, npd = len(gt), len(pred)
    # Column npd takes every unmatched row, and row ng every free column.
    cost = _neg_ious(gt.boxes, pred.boxes)
    for row in cost:
        row.append(0.0)
    cost.append([0.0] * npd + [math.inf])
    col, u = [-1] * (ng + 1), [0.0] * (ng + 1)
    for r in reversed(range(ng)):  # insert each row at least cost, keeping the optimum
        _shift(cost, col, u, r, None, 0.0)
    # Then each row in turn takes its first option (preds in order, then "unmatched")
    # whose best completion keeps the total within TIE_TOL of the optimum.
    slack = TIE_TOL
    for g in range(ng):
        if not set(range(col[g])) <= set(col[:g]):  # a smaller pred is still open to g
            slack -= _shift(cost, col, u, g, [col[g]], slack)
    pairs = tuple((i, j) for i, j in enumerate(col[:ng]) if j < npd)
    return MatchResult(pairs, tuple(-cost[i][j] for i, j in pairs),
                       tuple(i for i, j in enumerate(col[:ng]) if j == npd))


def detection_similarity(gt: BoxSet, pred: BoxSet) -> float:
    """Mean matched IoU over ground-truth boxes; unmatched boxes count as 0."""
    if len(gt) == 0:
        raise DomainError("detection similarity is undefined for empty ground truth")
    match = hungarian_match(gt, pred)
    return match.total_iou / len(gt)


def jsd(p: Distribution, q: Distribution) -> float:
    """Jensen-Shannon divergence with natural log; range [0, ln 2]."""
    pv, qv = _aligned(p, q)
    mid = [(a + b) / 2 for a, b in zip(pv, qv)]
    return 0.5 * _kld(pv, mid) + 0.5 * _kld(qv, mid)
