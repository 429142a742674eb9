"""Domain model: geometry utilities, validation, and gated breakdowns."""

import functools
import itertools
import math
import operator
import struct

import pytest
from hypothesis import example, given, strategies as st

from cotloop.domain import (Box, BoxSet, Classification, Detection,
                            Distribution, RewardBreakdown, Sample,
                            ScoredRecord, make_breakdown,
                            mask_to_box, sum_in_order, validate_annotation)
from cotloop.errors import EmptyMask, InvalidGeometry

from conftest import EXAMPLE_DISTRIBUTION


# --- tasks and boxes ----------------------------------------------------------

def test_classification_requires_unique_nonempty_categories():
    with pytest.raises(ValueError):
        Classification(categories=())
    with pytest.raises(ValueError):
        Classification(categories=("a", "a"))
    with pytest.raises(ValueError, match="non-empty"):
        Classification(categories=("a", ""))
    assert Classification(categories=("a", "b")).num_categories == 2


@pytest.mark.parametrize("name", ["it's", 'say "hi"', "a\\b", "a{", "b}", "<x", "x>",
                                  "b\nc", "del\x7f", "\ud800"])
def test_classification_refuses_a_name_no_answer_map_key_can_carry(name):
    with pytest.raises(ValueError) as e:
        Classification(categories=("a", name))
    assert str(e.value) == (f"category names {[name]!r} hold a quote, backslash, brace, angle "
                            "bracket, control character or surrogate, which an answer map "
                            "cannot carry")
    with pytest.raises(ValueError, match="^category names must be non-empty$"):
        Classification(categories=(name, ""))  # an empty name is reported first


def test_detection_requires_positive_dimensions():
    with pytest.raises(ValueError):
        Detection(image_width=0, image_height=10)
    with pytest.raises(ValueError):
        Detection(image_width=10, image_height=-1)
    for dims in [(1e201, 1e201), (1e308, 2), (10**400, 3), (3, 2**1024)]:
        with pytest.raises(ValueError, match="image area"):  # beyond the float range
            Detection(*dims)
    Detection(1e154, 1e154)  # an area of 1e308 is finite


def test_box_invariants():
    with pytest.raises(InvalidGeometry):
        Box(10, 10, 5, 20)
    with pytest.raises(InvalidGeometry):
        Box(-1, 0, 5, 5)
    with pytest.raises(InvalidGeometry):
        Box(0, 0, float("inf"), 5)
    assert Box(0, 0, 4, 3).area == 12
    assert Box(5, 5, 5, 5).area == 0  # degenerate boxes are valid data


# `Box.__post_init__` as it was before its fast path, kept as the oracle.
def _oracle_box_check(x1, y1, x2, y2):
    def finite(x):
        return isinstance(x, (int, float)) and x == x and abs(x) != float("inf")
    coords = (x1, y1, x2, y2)
    if any(not finite(c) or c < 0 for c in coords):
        raise InvalidGeometry(f"coordinates must be finite and >= 0: {coords}")
    if x2 < x1 or y2 < y1:
        raise InvalidGeometry(f"corner ordering violated: {coords}")
    return coords


def _box_outcome(fn, *coords):
    """The coordinates as stored (repr keeps -0.0 and types apart), or the error."""
    try:
        return repr(fn(*coords))
    except Exception as e:
        return type(e).__name__, str(e)


_box_values = st.one_of(
    st.floats(), st.integers(-3, 10**6), st.booleans(), st.integers(0, 10**400),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     1.7976931348623157e308, "1", None, 1j]))


@example(values=[0.0, math.inf, 0.0, 1.0], ordered=True)
@example(values=[0.0, 1.0, -0.0, math.nan], ordered=True)
@given(st.lists(_box_values, min_size=4, max_size=4), st.booleans())
def test_box_check_matches_the_parent(values, ordered):
    if ordered:  # most draws would fail the ordering check otherwise
        try:
            (a, b), (c, d) = sorted(values[:2]), sorted(values[2:])
            values = [a, c, b, d]
        except TypeError:
            pass
    assert (_box_outcome(lambda *c: Box(*c).as_tuple(), *values)
            == _box_outcome(_oracle_box_check, *values))


# --- mask_to_box ---------------------------------------------------------------

def test_mask_to_box_examples():
    assert mask_to_box([[1] * 3 for _ in range(3)]).as_tuple() == (0, 0, 3, 3)
    mask = [[0] * 10 for _ in range(10)]
    mask[4][7] = 1
    assert mask_to_box(mask).as_tuple() == (7, 4, 8, 5)
    mask = [[0] * 10 for _ in range(10)]
    mask[0][0] = mask[9][9] = 1
    assert mask_to_box(mask).as_tuple() == (0, 0, 10, 10)


def test_mask_to_box_empty():
    with pytest.raises(EmptyMask):
        mask_to_box([[0, 0], [0, 0]])
    with pytest.raises(EmptyMask):
        mask_to_box([])


@given(st.lists(st.lists(st.booleans(), min_size=1, max_size=8),
                min_size=1, max_size=8))
def test_mask_to_box_contains_and_touches(mask):
    true_cells = [(r, c) for r, row in enumerate(mask)
                  for c, v in enumerate(row) if v]
    if not true_cells:
        with pytest.raises(EmptyMask):
            mask_to_box(mask)
        return
    box = mask_to_box(mask)
    # Oracle: scan all true cells for the tight extent.
    rs = [r for r, _ in true_cells]
    cs = [c for _, c in true_cells]
    assert box.as_tuple() == (min(cs), min(rs), max(cs) + 1, max(rs) + 1)
    for r, c in true_cells:
        assert box.x1 <= c and c + 1 <= box.x2
        assert box.y1 <= r and r + 1 <= box.y2


# --- validate_annotation --------------------------------------------------------

def test_validate_annotation_example_distribution(emotion_task):
    dist = Distribution(dict(EXAMPLE_DISTRIBUTION))
    assert validate_annotation(dist, emotion_task) == []


def test_validate_annotation_variant_mismatch(emotion_task, detection_task):
    dist = Distribution(dict(EXAMPLE_DISTRIBUTION))
    boxes = BoxSet((Box(0, 0, 1, 1),))
    assert any("variant mismatch" in v
               for v in validate_annotation(dist, detection_task))
    assert any("variant mismatch" in v
               for v in validate_annotation(boxes, emotion_task))


def test_validate_annotation_probability_range(emotion_task):
    bad = dict(EXAMPLE_DISTRIBUTION, joy=1.5)
    violations = validate_annotation(Distribution(bad), emotion_task)
    assert any("out of range" in v for v in violations)


def test_validate_annotation_category_set(emotion_task):
    partial = {k: v for k, v in EXAMPLE_DISTRIBUTION.items() if k != "joy"}
    violations = validate_annotation(Distribution(partial), emotion_task)
    assert any("missing categories" in v for v in violations)


def test_validate_annotation_gt_sum(emotion_task):
    half = {k: v / 2 for k, v in EXAMPLE_DISTRIBUTION.items()}
    violations = validate_annotation(Distribution(half), emotion_task)
    assert any("sums to" in v for v in violations)


# --- distribution helpers -------------------------------------------------------

def test_distribution_argmax_tie_break():
    d = Distribution({"a": 0.5, "b": 0.5})
    assert d.argmax(("a", "b")) == "a"
    assert d.argmax(("b", "a")) == "b"
    # Nothing compares greater than a NaN or a NaN greater than anything: the
    # first category stands.
    d = Distribution({"a": 0.5, "b": math.nan, "c": 0.25})
    assert d.argmax(("a", "b", "c")) == "a"
    assert d.argmax(("b", "a", "c")) == "b"


def test_distribution_total():
    assert math.isclose(Distribution(dict(EXAMPLE_DISTRIBUTION)).total(), 1.0)


def test_sum_in_order_adds_left_to_right_on_every_interpreter():
    # From Python 3.12 `sum()` gives 1.0 and 1.0 here: it compensates rounding.
    assert sum_in_order([0.1] * 10) == 0.9999999999999999
    assert sum_in_order([1e16, 1.0, -1e16]) == 0.0
    assert Distribution({"a": 1e16, "b": 1.0, "c": -1e16}).total() == 0.0
    assert sum_in_order([]) == 0 and type(sum_in_order([])) is int
    assert sum_in_order(iter([1, True, 2])) == 4 and type(sum_in_order([1, 2])) is int
    # Up to 3.11 it is `sum()` itself, which adds as `operator.add` does (NaN
    # payloads included); from 3.12 it is that `operator.add` fold.
    nan1 = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    for values in ([1.0, math.inf - math.inf, nan1], [1.0, nan1, -math.nan], [0.5, 2**60 + 1, 3],
                   [1e308, 1e308, -math.inf], [0.25] * 7 + [1e-17] * 5):
        bits = lambda x: struct.pack("<d", x)
        assert bits(sum_in_order(values)) == bits(functools.reduce(operator.add, values, 0))


# --- gated breakdowns -----------------------------------------------------------

def test_breakdown_gating_identity_enforced():
    with pytest.raises(ValueError):
        RewardBreakdown(similarity=0.5, leak_detected=True, format_ok=True,
                        composite=0.5)
    with pytest.raises(ValueError):
        RewardBreakdown(similarity=0.5, leak_detected=False, format_ok=True,
                        composite=0.0)
    ok = RewardBreakdown(similarity=0.5, leak_detected=False, format_ok=True,
                         composite=0.5)
    assert ok.composite == 0.5


@pytest.mark.parametrize("field, value, error", [
    ("similarity", "0.5", TypeError), ("similarity", True, TypeError),
    ("similarity", None, TypeError), ("similarity", float("nan"), ValueError),
    ("similarity", float("inf"), ValueError), ("similarity", 1.5, ValueError),
    ("similarity", -0.5, ValueError), ("leak_detected", 0, TypeError),
    ("leak_detected", "false", TypeError), ("format_ok", 1, TypeError),
    ("format_ok", None, TypeError),
])
def test_breakdown_refuses_scores_and_flags_of_the_wrong_type(field, value, error):
    """Each bad value keeps the gating identity, so only the type or range
    check can refuse it."""
    fields = {"similarity": 0.5, "leak_detected": False, "format_ok": True, field: value}
    composite = fields["similarity"] if fields["format_ok"] and not fields["leak_detected"] \
        else 0.0
    with pytest.raises(error, match=f"^{field} must be"):
        RewardBreakdown(composite=composite, **fields)


@pytest.mark.parametrize("reward", [True, "1.0"])
def test_scored_record_refuses_a_reward_that_is_not_a_number(reward):
    with pytest.raises(TypeError, match="^reward must be a number"):
        ScoredRecord(sample_id="s", cot="c", reconstruction=None, reward=reward,
                     breakdown=make_breakdown(1.0, False, True))


def test_make_breakdown_reasons():
    assert make_breakdown(0.9, True, True).reason == "leak"
    assert make_breakdown(0.9, False, False).reason == "format"
    assert make_breakdown(0.9, False, True).reason == "similarity"
    assert make_breakdown(0.9, True, False).composite == 0.0


def _reference_reason(leak: bool, parsed: bool, format_ok: bool) -> str:
    """The closed-loop reward's gate ladder, written out step by step."""
    if leak:
        return "leak"
    if not parsed:
        return "parse"
    if not format_ok:
        return "format"
    return "similarity"


@pytest.mark.parametrize("leak, parsed, format_ok",
                         list(itertools.product((False, True), repeat=3)))
def test_make_breakdown_reason_is_the_first_failed_gate(leak, parsed, format_ok):
    b = make_breakdown(0.9, leak, format_ok, parsed=parsed)
    assert b.reason == _reference_reason(leak, parsed, format_ok)
    assert b.composite == (0.9 if format_ok and not leak else 0.0)


def test_scored_record_reward_must_match(emotion_task):
    b = make_breakdown(0.5, False, True)
    with pytest.raises(ValueError):
        ScoredRecord(sample_id="s", cot="c", reconstruction=None,
                     reward=0.4, breakdown=b)
    r = ScoredRecord(sample_id="s", cot="c", reconstruction=None,
                     reward=0.5, breakdown=b)
    assert r.reward == r.breakdown.composite


def test_sample_is_immutable(emotion_sample):
    with pytest.raises(Exception):
        emotion_sample.id = "other"
