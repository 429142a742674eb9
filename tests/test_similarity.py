"""Similarity and divergence math, checked against independent oracles."""

import functools
import hashlib
import heapq
import itertools
import math
import operator
import random
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cotloop import audit
from cotloop.backends import CueWorld
from cotloop.domain import Box, BoxSet, Distribution
from cotloop.errors import DomainError
from cotloop.pipeline import evaluate_predictions
from cotloop.similarity import (MatchResult, _kld, classification_similarity,
                                detection_similarity, hungarian_match, iou, jsd,
                                kld, mse)

from conftest import EXAMPLE_DISTRIBUTION


def dist2(p):
    return Distribution({"a": p[0], "b": p[1]})


# --- kld ------------------------------------------------------------------------

def test_kld_identity():
    d = Distribution(dict(EXAMPLE_DISTRIBUTION))
    assert kld(d, d) == pytest.approx(0.0, abs=1e-12)


def test_kld_reference_values():
    # 0.5*ln(0.5/0.9) + 0.5*ln(0.5/0.1) = 0.5*ln(25/9)
    assert kld(dist2((0.5, 0.5)), dist2((0.9, 0.1))) == pytest.approx(
        0.5 * math.log(25 / 9), abs=1e-12)
    # Clamp makes the zero term negligible: ~ ln 2.
    assert kld(dist2((1.0, 0.0)), dist2((0.5, 0.5))) == pytest.approx(
        math.log(2), abs=1e-8)


def test_kld_category_mismatch():
    with pytest.raises(DomainError):
        kld(dist2((0.5, 0.5)), Distribution({"a": 0.5, "c": 0.5}))


def normalizable(n):
    """Weight vectors of length n with a positive sum, so they normalize."""
    return st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n,
                    max_size=n).filter(lambda xs: sum(xs) > 0)


@given(st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.tuples(normalizable(n), normalizable(n))))
def test_kld_nonnegative_on_normalized(pair):
    ps, qs = pair
    cats = [f"c{i}" for i in range(len(ps))]
    p = Distribution({c: v / sum(ps) for c, v in zip(cats, ps)})
    q = Distribution({c: v / sum(qs) for c, v in zip(cats, qs)})
    assert kld(p, q) >= -1e-9


# --- mse ------------------------------------------------------------------------

def test_mse_values():
    d = Distribution(dict(EXAMPLE_DISTRIBUTION))
    assert mse(d, d) == 0.0
    assert mse(dist2((0.5, 0.5)), dist2((0.9, 0.1))) == pytest.approx(0.16)
    assert mse(dist2((1.0, 0.0)), dist2((0.0, 1.0))) == pytest.approx(1.0)


# --- classification similarity ---------------------------------------------------

def test_classification_similarity_identity():
    d = Distribution(dict(EXAMPLE_DISTRIBUTION))
    assert classification_similarity(d, d) == pytest.approx(1.0, abs=1e-12)


def test_classification_similarity_reference():
    expected = math.exp(-(0.5 * math.log(25 / 9) + 0.16))
    got = classification_similarity(dist2((0.5, 0.5)), dist2((0.9, 0.1)))
    assert got == pytest.approx(expected, abs=1e-12)
    # exp(-(0.5*ln(25/9) + 0.16)) computed at full precision
    assert got == pytest.approx(0.5112862733797268, abs=1e-9)


def test_classification_similarity_sum_regularizer():
    gt = Distribution(dict(EXAMPLE_DISTRIBUTION))
    half = Distribution({k: v / 2 for k, v in EXAMPLE_DISTRIBUTION.items()})
    phi = math.exp(-(kld(gt, half) + mse(gt, half)))
    expected = phi * math.exp(-abs(math.log10(0.5)))
    assert math.exp(-abs(math.log10(0.5))) == pytest.approx(0.7400555739554517, abs=1e-9)
    assert classification_similarity(gt, half) == pytest.approx(expected, abs=1e-12)


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                        st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))),
       st.randoms(use_true_random=False))
def test_classification_similarity_is_its_public_kld_and_mse(pair, rnd):
    # One alignment feeds both sums; the score stays bit-equal to the formula
    # over the public `kld` and `mse`, whatever order the categories come in.
    ps, qs = pair
    cats = [f"c{i}" for i in range(len(ps))]
    rnd.shuffle(cats)
    gt = Distribution(dict(zip(cats, ps)))
    rnd.shuffle(cats)
    pred = Distribution(dict(zip(cats, qs)))
    phi = math.exp(-(kld(gt, pred) + mse(gt, pred)))
    expected = min(1.0, phi * math.exp(-abs(math.log10(max(pred.total(), 1e-10)))))
    assert classification_similarity(gt, pred) == expected


def test_classification_similarity_below_one_when_different():
    gt = dist2((0.5, 0.5))
    assert classification_similarity(gt, dist2((0.5001, 0.4999))) < 1.0
    # Correct shape but deficient total is penalized; over-mass predictions
    # can drive the raw product past 1, where the cap takes over.
    assert classification_similarity(gt, dist2((0.3, 0.3))) < 1.0
    assert classification_similarity(gt, dist2((0.6, 0.6))) == 1.0


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2,
                max_size=10))
def test_classification_similarity_self_is_one(vals):
    total = sum(vals)
    d = Distribution({f"c{i}": v / total for i, v in enumerate(vals)})
    assert classification_similarity(d, d) == pytest.approx(1.0, abs=1e-9)


# The KLD and classification similarity as they were before `_kld` dropped its
# `max` calls and `_aligned` its sets, kept as oracles: the results must keep
# their bit patterns (NaN payloads and signed zeros included) and their errors.

def _oracle_kld(pv, qv):
    total = 0.0
    for a, b in zip(pv, qv):
        a = max(a, 1e-10)
        b = max(b, 1e-10)
        total += a * math.log(a / b)
    return total


def _oracle_classification_similarity(gt, pred):
    if set(gt.probs) != set(pred.probs):
        raise DomainError("distributions are over different category sets")
    cats = sorted(gt.probs)
    gv, pv = [gt.probs[c] for c in cats], [pred.probs[c] for c in cats]
    phi = math.exp(-(_oracle_kld(gv, pv) + _oracle_mse(gv, pv)))
    total = max(_left_sum(pred.probs.values()), 1e-10)
    return min(1.0, phi * math.exp(-abs(math.log10(total))))


def _left_sum(values):
    """`sum()` as it adds up to Python 3.11: left to right, from int 0."""
    return functools.reduce(operator.add, values, 0)


def _oracle_mse(pv, qv):
    return _left_sum((a - b) ** 2 for a, b in zip(pv, qv)) / len(pv)


def _oracle_jsd(p, q):
    cats = sorted(p.probs)
    pv, qv = [p.probs[c] for c in cats], [q.probs[c] for c in cats]
    mid = [(a + b) / 2 for a, b in zip(pv, qv)]
    return 0.5 * _oracle_kld(pv, mid) + 0.5 * _oracle_kld(qv, mid)


def _bits(fn, *args):
    """The result's type and bit pattern, or the error's type and text."""
    try:
        v = fn(*args)
    except Exception as e:
        return type(e).__name__, str(e)
    return type(v).__name__, struct.pack("<d", v) if isinstance(v, float) else v


_edge_values = st.one_of(
    st.floats(), st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1e-10, 1e-11, 5e-324, -1.0, math.inf, -math.inf, math.nan,
                     -math.nan, struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0],
                     10**400]))


# Mostly zeros, as in a many-category world, so that `_aligned` leaves out
# categories that are zero on both sides next to ones that are not.
_mostly_zero = st.one_of(*[st.sampled_from([0.0, -0.0, 0])] * 3, _edge_values)


@given(st.integers(min_value=1, max_value=48).flatmap(
    lambda n: st.tuples(st.lists(_mostly_zero, min_size=n, max_size=n),
                        st.lists(_mostly_zero, min_size=n, max_size=n))))
def test_kld_and_similarity_keep_their_bits(pair):
    ps, qs = pair
    cats = [f"c{i}" for i in range(len(ps))]
    gt = Distribution(dict(zip(cats, ps)))
    pred = Distribution(dict(zip(reversed(cats), qs)))
    assert _bits(_kld, ps, qs) == _bits(_oracle_kld, ps, qs)
    assert (_bits(classification_similarity, gt, pred)
            == _bits(_oracle_classification_similarity, gt, pred))
    rv = [pred.probs[c] for c in sorted(cats)]
    assert _bits(kld, gt, pred) == _bits(_oracle_kld, [gt.probs[c] for c in sorted(cats)], rv)
    assert _bits(mse, gt, pred) == _bits(_oracle_mse, [gt.probs[c] for c in sorted(cats)], rv)
    assert _bits(jsd, gt, pred) == _bits(_oracle_jsd, gt, pred)


def test_similarity_refuses_other_category_sets_like_before():
    gt, pred = dist2((0.5, 0.5)), Distribution({"a": 0.5, "c": 0.5})
    assert (_bits(classification_similarity, gt, pred)
            == _bits(_oracle_classification_similarity, gt, pred)
            == ("DomainError", "distributions are over different category sets"))


# --- iou ------------------------------------------------------------------------

def test_iou_values():
    a = Box(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, Box(5, 5, 15, 15)) == pytest.approx(25 / 175)
    assert iou(Box(0, 0, 1, 1), Box(2, 2, 3, 3)) == 0.0
    assert iou(Box(3, 3, 3, 3), Box(3, 3, 3, 3)) == 0.0  # degenerate


@given(st.tuples(coord := st.floats(min_value=0, max_value=100),
                 coord, coord, coord),
       st.tuples(coord, coord, coord, coord))
def test_iou_symmetric_and_bounded(t1, t2):
    a = Box(min(t1[0], t1[2]), min(t1[1], t1[3]), max(t1[0], t1[2]), max(t1[1], t1[3]))
    b = Box(min(t2[0], t2[2]), min(t2[1], t2[3]), max(t2[0], t2[2]), max(t2[1], t2[3]))
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


# --- hungarian matching -----------------------------------------------------------

def brute_force_max_total_iou(gt, pred):
    """Independent oracle: max total IoU over all injective assignments."""
    ng, npd = len(gt.boxes), len(pred.boxes)
    k = min(ng, npd)
    if k == 0:
        return 0.0
    best = 0.0
    for rows in itertools.combinations(range(ng), k):
        for cols in itertools.permutations(range(npd), k):
            total = sum(iou(gt.boxes[r], pred.boxes[c])
                        for r, c in zip(rows, cols))
            best = max(best, total)
    return best


def _assignments(g, ng, npd, left, used):
    """Injective assignments of exactly `left` pairs over gt rows g.., in
    (gt index, pred index) order with "unmatched" ranked after every pred."""
    if g == ng:
        if left == 0:
            yield ()
        return
    if left > 0:
        for p in range(npd):
            if p not in used:
                for rest in _assignments(g + 1, ng, npd, left - 1, used | {p}):
                    yield ((g, p),) + rest
    if ng - g > left:
        yield from _assignments(g + 1, ng, npd, left, used)


def brute_force_lexicographic_match(gt, pred, tol=1e-9):
    """Independent oracle: the first assignment in lexicographic order whose
    total IoU is within `tol` of the best."""
    ng, npd = len(gt.boxes), len(pred.boxes)
    scored = []
    for pairs in _assignments(0, ng, npd, min(ng, npd), frozenset()):
        ious = tuple(iou(gt.boxes[g], pred.boxes[p]) for g, p in pairs)
        scored.append((pairs, ious, sum(ious)))
    best = max(total for _, _, total in scored)
    pairs, ious, _ = next(s for s in scored if s[2] >= best - tol)
    matched = {g for g, _ in pairs}
    return MatchResult(pairs, ious, tuple(g for g in range(ng) if g not in matched))


def subset_dp_lexicographic_match(gt, pred, tol=1e-9):
    """Independent oracle for up to ~12 preds: best(g, used) is the largest total
    over gt rows g.. with the preds in bitmask `used` taken; each row then takes
    the first pred (or none) whose best completion is within `tol` of the optimum."""
    ng, npd = len(gt.boxes), len(pred.boxes)
    k = min(ng, npd)
    m = [[iou(g, p) for p in pred.boxes] for g in gt.boxes]

    @functools.lru_cache(maxsize=None)
    def best(g, used):
        taken = bin(used).count("1")
        if g == ng:
            return 0.0 if taken == k else -math.inf
        out = best(g + 1, used) if ng - g - 1 >= k - taken else -math.inf
        for p in range(npd):
            if taken < k and not used >> p & 1:
                out = max(out, m[g][p] + best(g + 1, used | 1 << p))
        return out

    target, total, used, pairs = best(0, 0), 0.0, 0, []
    for g in range(ng):
        for p in range(npd):
            if (len(pairs) < k and not used >> p & 1
                    and total + m[g][p] + best(g + 1, used | 1 << p) >= target - tol):
                pairs.append((g, p))
                total, used = total + m[g][p], used | 1 << p
                break
    matched = {g for g, _ in pairs}
    return MatchResult(tuple(pairs), tuple(m[g][p] for g, p in pairs),
                       tuple(g for g in range(ng) if g not in matched))


def random_boxset(rng, max_boxes=6, span=80):
    n = rng.randint(0, max_boxes)
    boxes = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, span), rng.uniform(0, span)
        boxes.append(Box(x1, y1, x1 + rng.uniform(0, 30), y1 + rng.uniform(0, 30)))
    return BoxSet(tuple(boxes))


def test_hungarian_matches_spec_example():
    gt = BoxSet((Box(0, 0, 10, 10), Box(20, 20, 30, 30)))
    pred = BoxSet((Box(21, 21, 30, 30), Box(1, 1, 10, 10)))
    m = hungarian_match(gt, pred)
    assert m.assignment == ((0, 1), (1, 0))
    # (0,0,10,10) vs (1,1,10,10): inter 81, union 100; same for the pair
    # (20,20,30,30) vs (21,21,30,30).
    assert m.per_pair_iou[0] == pytest.approx(81 / 100)
    assert m.per_pair_iou[1] == pytest.approx(81 / 100)


def test_hungarian_identity_and_empty():
    boxes = BoxSet((Box(0, 0, 5, 5), Box(10, 10, 20, 20), Box(30, 0, 40, 10)))
    m = hungarian_match(boxes, boxes)
    assert m.assignment == ((0, 0), (1, 1), (2, 2))
    assert all(v == 1.0 for v in m.per_pair_iou)
    empty = hungarian_match(boxes, BoxSet(()))
    assert empty.assignment == ()
    assert empty.unmatched_gt == (0, 1, 2)


def tie_boxset(rng, max_boxes=6):
    pool = rng.choice(_TIE_POOLS)
    return BoxSet(tuple(rng.choice(pool) for _ in range(rng.randint(0, max_boxes))))


def test_hungarian_vs_brute_force_oracle():
    rng = random.Random("hungarian-oracle")
    for make in [random_boxset] * 300 + [tie_boxset] * 300:
        gt, pred = make(rng), make(rng)
        m = hungarian_match(gt, pred)
        assert len(m.assignment) == min(len(gt), len(pred))
        assert m.total_iou == pytest.approx(
            brute_force_max_total_iou(gt, pred), abs=1e-9)
        assert m == brute_force_lexicographic_match(gt, pred)


def test_hungarian_vs_subset_dp_oracle_up_to_ten_boxes():
    # Larger sets than the brute force can enumerate: dense overlaps, where rows
    # must shift along long paths, and the tie-heavy pools.
    rng = random.Random("hungarian-dp-oracle")
    dense = functools.partial(random_boxset, max_boxes=10, span=40)
    for make in [dense, functools.partial(tie_boxset, max_boxes=10)] * 750:
        gt, pred = make(rng), make(rng)
        assert hungarian_match(gt, pred) == subset_dp_lexicographic_match(gt, pred)


def test_hungarian_lexicographic_tie_break():
    # Identical boxes everywhere: every permutation is optimal, so the
    # identity assignment is the lexicographically smallest.
    b = Box(0, 0, 10, 10)
    m = hungarian_match(BoxSet((b, b, b)), BoxSet((b, b, b)))
    assert m.assignment == ((0, 0), (1, 1), (2, 2))
    # Two zero-IoU preds: pairing order is irrelevant to the total, so
    # the smallest (gt,pred) pairs win.
    gt = BoxSet((Box(0, 0, 1, 1), Box(5, 5, 6, 6)))
    pred = BoxSet((Box(50, 50, 60, 60), Box(70, 70, 80, 80)))
    m = hungarian_match(gt, pred)
    assert m.assignment == ((0, 0), (1, 1))


def scipy_hungarian_match(gt, pred, linear_sum_assignment, tol=1e-9):
    """The earlier solver, kept as a differential oracle: scipy solves the
    optimum, then one sub-problem per candidate pair fixes the tie-break."""
    m = np.array([[iou(g, p) for p in pred.boxes] for g in gt.boxes])

    def best_subtotal(rows, cols, needed):
        if needed == 0:
            return 0.0
        if min(len(rows), len(cols)) < needed:
            return None
        sub = m[np.ix_(rows, cols)]
        ri, ci = linear_sum_assignment(sub, maximize=True)
        return float(sub[ri, ci].sum())

    ng, npd = len(gt), len(pred)
    k = min(ng, npd)
    if k == 0:
        return MatchResult((), (), tuple(range(ng)))
    target = best_subtotal(list(range(ng)), list(range(npd)), k)
    fixed, fixed_total, avail = [], 0.0, list(range(npd))
    for g in range(ng):
        if len(fixed) == k:
            break
        for p in avail:
            rest = best_subtotal(list(range(g + 1, ng)), [c for c in avail if c != p],
                                 k - len(fixed) - 1)
            if rest is not None and fixed_total + m[g, p] + rest >= target - tol:
                fixed.append((g, p))
                fixed_total += m[g, p]
                avail.remove(p)
                break
    matched = {g for g, _ in fixed}
    return MatchResult(tuple(fixed), tuple(float(m[g, p]) for g, p in fixed),
                       tuple(i for i in range(ng) if i not in matched))


# Tie-heavy box pools: cue-world grid cells (IoU 1 or 0), small cells with
# boxes spanning several of them (IoU 1, 1/2, 1/4, 1/7 or 0), duplicates with
# half-overlaps and a degenerate box, and boxes disjoint from all of these.
_GRID = sorted(CueWorld(kind="detection", num_samples=1, cues_per_sample=1,
                        vocab_size=9, seed=0).cue_box.values(), key=Box.as_tuple)
_CELLS = [Box(10 * a, 10 * b, 10 * a + 10, 10 * b + 10) for a in range(3) for b in range(3)]
_TIE_POOLS = [_GRID,
              _CELLS + [Box(0, 0, 20, 20), Box(5, 5, 15, 15), Box(0, 0, 10, 20)],
              [Box(0, 0, 10, 10), Box(5, 0, 15, 10), Box(0, 5, 10, 15), Box(3, 3, 3, 3)],
              [Box(2000 + 20 * i, 0, 2010 + 20 * i, 10) for i in range(8)]]
_tie_sets = st.sampled_from(_TIE_POOLS).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=8)).map(
    lambda boxes: BoxSet(tuple(boxes)))


@settings(max_examples=300, deadline=None)
@given(gt=_tie_sets, pred=_tie_sets)
def test_hungarian_matches_the_scipy_solver_on_ties(gt, pred):
    lsa = pytest.importorskip("scipy.optimize").linear_sum_assignment
    assert hungarian_match(gt, pred) == scipy_hungarian_match(gt, pred, lsa)


# Near ties in float: shifts of 1e-10..1.8e-9 move IoUs by about as much, so
# totals differ from the optimum by amounts around TIE_TOL. A case whose answer
# changes when the tolerance moves by 1e-12 depends on float rounding and is left out.
_NEAR_BASE = [Box(0, 0, 1, 1), Box(0.5, 0, 1.5, 1), Box(0, 0.5, 1, 1.5), Box(3, 3, 4, 4)]


def near_tie_cases(seed, count, max_boxes=5):
    rng = random.Random(seed)

    def boxes():
        out = []
        for _ in range(rng.randint(0, max_boxes)):
            b, d = rng.choice(_NEAR_BASE), rng.randint(0, 6) * rng.choice([1e-10, 2e-10, 3e-10])
            out.append(Box(b.x1 + d, b.y1, b.x2 + d, b.y2))
        return BoxSet(tuple(out))

    for _ in range(count):
        gt, pred = boxes(), boxes()
        expected = brute_force_lexicographic_match(gt, pred, 1e-9 - 1e-12)
        if expected == brute_force_lexicographic_match(gt, pred, 1e-9 + 1e-12):
            yield gt, pred, expected


def test_hungarian_near_float_ties_match_the_brute_force_oracle():
    cases = list(near_tie_cases("near-ties", 400))
    assert len(cases) > 350
    for gt, pred, expected in cases:
        assert hungarian_match(gt, pred) == expected


def test_hungarian_near_float_ties_match_the_scipy_solver():
    lsa = pytest.importorskip("scipy.optimize").linear_sum_assignment
    for gt, pred, _ in near_tie_cases("near-ties-scipy", 200):
        assert hungarian_match(gt, pred) == scipy_hungarian_match(gt, pred, lsa)


def test_hungarian_wide_and_tall_inputs_finish_fast():
    # Few gt boxes against a dense detector output, and the reverse. Two gt boxes
    # match preds far down the list; everything else is disjoint, so every other
    # pair ties at IoU 0 and the smallest free pred index wins.
    preds = [Box(20 * i, 1000, 20 * i + 10, 1010) for i in range(1500)]
    gt = BoxSet((preds[1200], Box(0, 0, 5, 5), preds[700]))
    start = time.perf_counter()
    m = hungarian_match(gt, BoxSet(tuple(preds)))
    assert m.assignment == ((0, 1200), (1, 0), (2, 700))
    assert m.per_pair_iou == (1.0, 0.0, 1.0)
    tall = hungarian_match(BoxSet(tuple(preds[:300])), BoxSet((preds[250], Box(0, 0, 5, 5))))
    assert tall.assignment == ((0, 1), (250, 0))
    assert tall.unmatched_gt == tuple(i for i in range(300) if i not in (0, 250))
    assert time.perf_counter() - start < 10.0


def test_hungarian_assignment_injective():
    rng = random.Random("injective")
    for _ in range(50):
        gt, pred = random_boxset(rng), random_boxset(rng)
        m = hungarian_match(gt, pred)
        gts = [g for g, _ in m.assignment]
        prs = [p for _, p in m.assignment]
        assert len(set(gts)) == len(gts)
        assert len(set(prs)) == len(prs)


# --- hungarian matching vs the parent's code -----------------------------------------
# `iou`, `_shift` and `hungarian_match` as they were before the tuple cost matrix
# and the reach skips, kept as the oracle. Results must keep their bit patterns,
# and errors their type and text: two huge boxes that overlap have an IoU of
# NaN (inf - inf in the union), which the matcher does not survive.

def _oracle_iou(a, b):
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def _oracle_shift(cost, col, u, g, ends, slack):
    ng, npd = len(col) - 1, len(cost[0]) - 1
    free = sorted(set(range(npd)) - set(col))
    dist, to, at, who, done, heap = [math.inf] * (ng + 1), {}, {}, {}, set(), []

    def reach(x, d, a):
        if x not in at:
            at[x], who[x] = d, a
            for i in range(g + 1, ng + 1):
                e = cost[i][x] + d
                if col[i] != x and i not in done and e < dist[i]:
                    dist[i], to[i] = e, x
                    if col[i] not in at:
                        heapq.heappush(heap, (e - u[i], i))

    ends = ends or free or [npd]
    for x in ends:
        reach(x, 0.0, g)
    while heap:
        a = heapq.heappop(heap)[1]
        if a not in done:
            done.add(a)
            for x in free if a == ng else [col[a]]:
                reach(x, dist[a] - cost[a][x], a)
    score = [cost[g][j] + at.get(j, math.inf) for j in range(npd + 1)]
    best = min(score)
    i, j = g, next(j for j, s in enumerate(score) if s - best <= slack)
    u[:], u[g] = dist, score[j]
    while True:
        if i < ng:
            col[i] = j
        if j in ends:
            return u[g] - best
        i, j = who[j], to[who[j]]


def _oracle_hungarian_match(gt, pred):
    ng, npd = len(gt), len(pred)
    cost = ([[-_oracle_iou(g, p) for p in pred.boxes] + [0.0] for g in gt.boxes]
            + [[0.0] * npd + [math.inf]])
    col, u = [-1] * (ng + 1), [0.0] * (ng + 1)
    for r in reversed(range(ng)):
        _oracle_shift(cost, col, u, r, None, 0.0)
    slack = 1e-9
    for g in range(ng):
        if not set(range(col[g])) <= set(col[:g]):
            slack -= _oracle_shift(cost, col, u, g, [col[g]], slack)
    pairs = tuple((i, j) for i, j in enumerate(col[:ng]) if j < npd)
    return MatchResult(pairs, tuple(-cost[i][j] for i, j in pairs),
                       tuple(i for i, j in enumerate(col[:ng]) if j == npd))


def _match_bits(fn, gt, pred):
    try:
        m = fn(gt, pred)
    except Exception as e:
        return type(e).__name__, str(e)
    return m.assignment, [struct.pack("<d", v) for v in m.per_pair_iou], m.unmatched_gt


# Boxes from a few corners and sides: ints, -0.0, zero sides, fractions,
# and sides of 1e200, whose areas overflow to inf; and boxes whose corners are
# zeros of both signs, which no sum of a corner and a side gives.
_corner = st.sampled_from([0, 1, 5, 0.0, -0.0, 0.5, 2.25, 3.0, 7.75, 1e-300, 1e200])
_side = st.sampled_from([0, 0.0, 1, 2.5, 4.0, 6.125, 1e-300, 1e200])
_hyp_box = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h), _corner, _corner, _side, _side
                     ) | st.sampled_from([Box(0.0, 0.0, -0.0, 1.0), Box(0.0, 0.0, 1.0, -0.0),
                                          Box(-0.0, 0, -0.0, 2), Box(0, -0.0, 3, -0.0)])
_hyp_boxset = st.lists(_hyp_box, max_size=5).map(lambda b: BoxSet(tuple(b)))


@settings(max_examples=300, deadline=None)
@given(gt=_hyp_boxset, pred=_hyp_boxset)
def test_hungarian_matches_the_parent(gt, pred):
    assert _match_bits(hungarian_match, gt, pred) == _match_bits(_oracle_hungarian_match, gt, pred)


def test_hungarian_matches_the_parent_on_seeded_and_near_tie_sets():
    rng = random.Random("hungarian-parent")
    sets = [(random_boxset(rng, span=span), random_boxset(rng, span=span))
            for span in (5, 20, 80) for _ in range(150)]
    sets += [(tie_boxset(rng), tie_boxset(rng)) for _ in range(150)]
    sets += [(gt, pred) for gt, pred, _ in near_tie_cases("near-ties-parent", 150)]
    for gt, pred in sets:
        assert _match_bits(hungarian_match, gt, pred) == _match_bits(_oracle_hungarian_match,
                                                                     gt, pred)


# Two overlapping boxes of side 1e200 (their IoU, and each one's with itself, is
# NaN), boxes with -0.0 corners (one of them with zero width), one box inside
# another, a partial overlap and a disjoint box.
_EDGE_POOL = (Box(0.0, 0.0, 1e200, 1e200), Box(1.0, 1.0, 1e200, 1e200),
              Box(-0.0, -0.0, 4.0, 4.0), Box(1.0, 1.0, 2.0, 2.0), Box(2.0, 3.0, 6.0, 5.0),
              Box(-0.0, 0.0, -0.0, 3.0), Box(10.0, 10.0, 12.0, 12.0))


def test_hungarian_matches_the_parent_on_every_small_edge_tuple():
    # Every tuple of up to 2 pool boxes against every other, and each multiset of
    # 3 against each of them on either side: rows placed without a search keep
    # every bit, and a NaN IoU against the first pred still ends in the parent's
    # StopIteration.
    small = [BoxSet(t) for k in range(3) for t in itertools.product(_EDGE_POOL, repeat=k)]
    pairs = [(a, b) for a in small for b in small]
    for c in map(BoxSet, itertools.combinations_with_replacement(_EDGE_POOL, 3)):
        pairs += [(c, b) for b in small] + [(b, c) for b in small]
    errors = 0
    for gt, pred in pairs:
        got = _match_bits(hungarian_match, gt, pred)
        assert got == _match_bits(_oracle_hungarian_match, gt, pred), (gt, pred)
        errors += got == ("StopIteration", "")
    assert errors > 0


def test_hungarian_matches_both_oracles_on_cue_world_boxes():
    # The boxes of a detection world, where every IoU is exactly 0 or 1: each
    # sample's ground truth against reorderings, subsets and supersets of its cue
    # boxes, and a corrupted label (a box overlapping none) on either side.
    world = CueWorld("detection", num_samples=8, vocab_size=24, seed=3)
    rng = random.Random("cue-world-matches")
    checked = 0
    for s in world.samples:
        gt = s.annotation
        others = [b for b in world.cue_box.values() if b not in gt.boxes]
        preds = [p for k in range(len(gt) + 1) for p in itertools.permutations(gt.boxes, k)]
        for extra in (1, 2):
            for _ in range(6):
                sup = list(gt.boxes) + rng.sample(others, extra)
                rng.shuffle(sup)
                preds.append(tuple(sup))
        wrong = audit.corrupt_detection(s.as_sample(), rng).annotation
        cases = [(gt, BoxSet(p)) for p in preds]
        cases += [(wrong, BoxSet(p)) for p in preds[:12]] + [(gt, wrong), (wrong, gt)]
        for g, p in cases:
            m = hungarian_match(g, p)
            assert set(m.per_pair_iou) <= {0.0, 1.0}
            assert m == brute_force_lexicographic_match(g, p), (g, p)
            assert _match_bits(hungarian_match, g, p) == _match_bits(_oracle_hungarian_match, g, p)
            checked += 1
    assert checked > 8 * 80


@settings(max_examples=300)
@given(a=_hyp_box, b=_hyp_box)
def test_iou_matches_the_parent(a, b):
    assert struct.pack("<d", iou(a, b)) == struct.pack("<d", _oracle_iou(a, b))


# --- detection similarity ----------------------------------------------------------

def test_detection_similarity_values():
    a = BoxSet((Box(0, 0, 10, 10),))
    assert detection_similarity(a, a) == 1.0
    assert detection_similarity(a, BoxSet((Box(5, 5, 15, 15),))) == pytest.approx(25 / 175)
    two = BoxSet((Box(0, 0, 10, 10), Box(50, 50, 60, 60)))
    one_perfect = BoxSet((Box(0, 0, 10, 10),))
    assert detection_similarity(two, one_perfect) == pytest.approx(0.5)


def test_detection_similarity_empty_gt():
    with pytest.raises(DomainError):
        detection_similarity(BoxSet(()), BoxSet((Box(0, 0, 1, 1),)))


def test_detection_similarity_monotone_under_translation():
    gt = BoxSet((Box(10, 10, 30, 30),))
    prev = None
    for shift in range(0, 25, 4):
        s = detection_similarity(gt, BoxSet((Box(10 + shift, 10, 30 + shift, 30),)))
        if prev is not None:
            assert s <= prev + 1e-12
        prev = s


# --- jsd ------------------------------------------------------------------------

def test_jsd_identity_and_disjoint():
    d = Distribution(dict(EXAMPLE_DISTRIBUTION))
    assert jsd(d, d) == pytest.approx(0.0, abs=1e-9)
    assert jsd(dist2((1.0, 0.0)), dist2((0.0, 1.0))) == pytest.approx(
        0.693147, abs=1e-5)


def test_jsd_category_mismatch():
    with pytest.raises(DomainError):
        jsd(dist2((0.5, 0.5)), Distribution({"a": 1.0, "z": 0.0}))


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                max_size=8),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                max_size=8))
def test_jsd_symmetric_and_bounded(ps, qs):
    n = min(len(ps), len(qs))
    ps, qs = ps[:n], qs[:n]
    sp, sq = sum(ps) or 1.0, sum(qs) or 1.0
    cats = [f"c{i}" for i in range(n)]
    p = Distribution({c: v / sp for c, v in zip(cats, ps)})
    q = Distribution({c: v / sq for c, v in zip(cats, qs)})
    a, b = jsd(p, q), jsd(q, p)
    assert abs(a - b) <= 1e-12
    assert -1e-12 <= a <= math.log(2) + 1e-8


# --- fractional-IoU golden ------------------------------------------------------------
# The detection goldens elsewhere only see IoUs of 0 or 1 (cue boxes tile a grid
# and reconstructions reuse them). These pin the IoU arithmetic and the matcher
# on float boxes: overlapping, with a zero side, near ties, and predictions
# whose area overflows to inf; and an eval report on shifted, partly clamped
# predictions.

def _golden_boxset(rng, kind):
    boxes = []
    for _ in range(rng.randint(1, 5)):
        if kind == "near-tie":
            b, d = rng.choice(_NEAR_BASE), rng.randint(0, 6) * rng.choice([1e-10, 2e-10, 3e-10])
            boxes.append(Box(b.x1 + d, b.y1, b.x2 + d, b.y2))
            continue
        x1, y1 = rng.uniform(0, 20), rng.uniform(0, 20)
        w, h = rng.uniform(0, 15), rng.uniform(0, 15)
        if kind == "huge":  # an area of inf when both sides are huge
            w, h = w * rng.choice([1.0, 1e200]), h * rng.choice([1.0, 1e200])
        if kind == "degenerate":
            w, h = rng.choice([(0.0, h), (w, 0.0), (0.0, 0.0), (w, h)])
        boxes.append(Box(x1, y1, x1 + w, y1 + h))
    return BoxSet(tuple(boxes))


FRACTIONAL_IOU_GOLDEN_SHA256 = "856f79300eaf1d6bc011732f48a0d337a5996e896e47651c9e2133d885bc04ca"


def test_fractional_ious_are_byte_stable():
    rng = random.Random("fractional-iou-golden")
    out = []
    for kind in ("overlapping", "degenerate", "near-tie", "huge"):
        for _ in range(60):
            gt = _golden_boxset(rng, "overlapping" if kind == "huge" else kind)
            pred = _golden_boxset(rng, kind)
            out.append((repr(hungarian_match(gt, pred)), repr(detection_similarity(gt, pred))))
    assert sum("0." in m for m, _ in out) > 100  # fractional IoUs, not just 0 and 1
    assert hashlib.sha256(repr(out).encode()).hexdigest() == FRACTIONAL_IOU_GOLDEN_SHA256


EVAL_SHIFTED_GOLDEN_SHA256 = "e5bfd9743772d61991e23793df8c3c9ecfa705bc82afc2b517efa1708c837d43"


def test_eval_on_shifted_predictions_is_byte_stable():
    world = CueWorld(kind="detection", num_samples=40, cues_per_sample=3, vocab_size=16, seed=4)
    samples = [s.as_sample() for s in world.samples]
    rng = random.Random("eval-shifted-golden")
    predictions = {}
    for s in samples:
        boxes = list(s.annotation.boxes)
        rng.shuffle(boxes)
        rows = []
        for b in boxes[:rng.randint(1, len(boxes))]:
            dx, dy = rng.uniform(-60, 60), rng.uniform(-60, 60)
            rows.append(f"[{b.x1 + dx:.3f}, {b.y1 + dy:.3f}, {b.x2 + dx:.3f}, {b.y2 + dy:.3f}]")
        predictions[s.id] = f"<answer>[{', '.join(rows)}]</answer>"
    report = evaluate_predictions(predictions, samples)
    assert 0.0 < report.detection_score < 1.0
    assert hashlib.sha256(repr(report).encode()).hexdigest() == EVAL_SHIFTED_GOLDEN_SHA256
