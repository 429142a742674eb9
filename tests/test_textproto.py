"""Prompt rendering, answer parsing, leak detection, format gates."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, strategies as st

from cotloop.domain import Box, BoxSet, Classification, Detection, Distribution
from cotloop.errors import MalformedAnswer, MissingVariable, TemplateError
from cotloop.render import render_annotation
from cotloop.textproto import (PLACEHOLDER_RE, ParsedOutput, PromptTemplate,
                               detect_leak, load_template, parse_box_answer,
                               parse_distribution_answer, parse_think_answer,
                               read_slot, render_prompt, validate_f_cot,
                               validate_f_r1)

from conftest import EMOTION_CATEGORIES, EXAMPLE_DISTRIBUTION


# --- templates -------------------------------------------------------------------

@pytest.mark.parametrize("task", ["classification", "detection"])
@pytest.mark.parametrize("stage", ["reasoning", "reconstruction", "r1"])
def test_all_templates_load(task, stage):
    t = load_template(task, stage)
    assert t.body
    assert t.stage == stage
    assert load_template(task, stage) is t  # read once, then looked up


def test_template_rejects_foreign_placeholders():
    with pytest.raises(TemplateError):
        PromptTemplate(stage="r1", body="please use {bbox}")
    with pytest.raises(TemplateError):
        PromptTemplate(stage="nonsense", body="hello")


def test_render_prompt_substitutes_exactly():
    t = load_template("detection", "reasoning")
    rendered = render_prompt(t, {"bbox": "[138, 182, 656, 428]",
                                 "target": "the scarf on the chair"})
    assert "[138, 182, 656, 428]" in rendered
    assert "the scarf on the chair" in rendered
    assert "{bbox}" not in rendered and "{target}" not in rendered


def test_render_prompt_missing_variable():
    t = load_template("classification", "reconstruction")
    with pytest.raises(MissingVariable):
        render_prompt(t, {"categories": "['a']"})


def test_render_prompt_no_placeholders_unchanged():
    t = PromptTemplate(stage="r1", body="no slots here")
    assert render_prompt(t, {}) == "no slots here"


RECON_VARIABLES = {"classification": {"categories": str(list(EMOTION_CATEGORIES))},
                   "detection": {"target": "the scarf draped over the chair"}}


def _cots_with_template_text():
    """CoTs that mix free text with pieces of both reconstruction templates'
    literal text, the slot anchors among them."""
    pieces = [piece for task in RECON_VARIABLES
              for piece in PLACEHOLDER_RE.split(load_template(task, "reconstruction").body)[::2]]
    return st.lists(st.text(max_size=20) | st.sampled_from(pieces), max_size=4).map("".join)


@pytest.mark.parametrize("task", sorted(RECON_VARIABLES))
@given(cot=_cots_with_template_text())
def test_read_slot_returns_the_rendered_cot(task, cot):
    t = load_template(task, "reconstruction")
    prompt = render_prompt(t, {**RECON_VARIABLES[task], "CoTs": cot})
    assert read_slot(t, prompt, "CoTs") == cot


@pytest.mark.parametrize("task", sorted(RECON_VARIABLES))
def test_read_slot_falls_back_to_the_whole_prompt(task):
    t = load_template(task, "reconstruction")
    assert read_slot(t, "a bare CoT naming no anchor", "CoTs") == "a bare CoT naming no anchor"
    # Both anchors present, but the right one only before the left one.
    rendered = render_prompt(t, {**RECON_VARIABLES[task], "CoTs": "|"})
    before, after = rendered.split("|")
    assert read_slot(t, after + before, "CoTs") == after + before
    with pytest.raises(TemplateError):
        read_slot(t, rendered, "bbox")


# --- think/answer extraction --------------------------------------------------------

def test_parse_think_answer_basic():
    assert parse_think_answer("<think>X</think><answer>Y</answer>") == ("X", "Y")
    assert parse_think_answer("<answer>[138, 182, 656, 428]</answer>") == (
        None, "[138, 182, 656, 428]")


def test_parse_think_answer_case_and_first_match():
    think, answer = parse_think_answer(
        "prose <ANSWER>one</ANSWER> and again <answer>two</answer>")
    assert answer == "one"


def test_parse_think_answer_malformed():
    with pytest.raises(MalformedAnswer):
        parse_think_answer("the answer is joy")


@given(st.text(alphabet=st.characters(blacklist_characters="<>"), max_size=40),
       st.text(alphabet=st.characters(blacklist_characters="<>"), max_size=40))
def test_parse_think_answer_round_trip(think, answer):
    got = parse_think_answer(f"<think>{think}</think><answer>{answer}</answer>")
    assert got == (think, answer)


# --- distribution answers -------------------------------------------------------------

def test_parse_distribution_answer_example():
    raw = ("{'anger': 0.0, 'disgust': 0.1, 'fear': 0.2, 'joy': 0.388889, "
           "'sadness': 0.033333, 'surprise': 0.122222, 'neutral': 0.155556}")
    d = parse_distribution_answer(raw, EMOTION_CATEGORIES)
    assert d.probs == pytest.approx(EXAMPLE_DISTRIBUTION)


def test_parse_distribution_answer_quotes_and_order_free():
    raw = '{"neutral": 0.155556, "joy": 0.388889, "anger": 0.0, "fear": 0.2, ' \
          '"disgust": 0.1, "surprise": 0.122222, "sadness": 0.033333}'
    d = parse_distribution_answer(raw, EMOTION_CATEGORIES)
    assert d.probs == pytest.approx(EXAMPLE_DISTRIBUTION)


def test_parse_distribution_answer_strict_category_set():
    with pytest.raises(MalformedAnswer):
        parse_distribution_answer("{'anger': 1.0}", EMOTION_CATEGORIES)
    extra = dict(EXAMPLE_DISTRIBUTION, bliss=0.1)
    with pytest.raises(MalformedAnswer):
        parse_distribution_answer(repr(extra), EMOTION_CATEGORIES)


def test_parse_distribution_answer_bad_values():
    with pytest.raises(MalformedAnswer):
        parse_distribution_answer("{'a': -0.1, 'b': 1.1}", ("a", "b"))
    with pytest.raises(MalformedAnswer):
        parse_distribution_answer("{'a': 'x', 'b': 0.5}", ("a", "b"))
    with pytest.raises(MalformedAnswer):
        parse_distribution_answer("no braces at all", ("a", "b"))


class _Cycle:
    """Cyclic garbage whose finalizer runs Python code inside the collector."""

    def __init__(self):
        self.me = self

    def __del__(self):
        sum(range(50))


def test_answer_parsing_survives_concurrent_threads():
    categories = tuple(f"c{i}" for i in range(24))
    probs = {c: 1 / 24 for c in categories}

    def parse_many(_):
        for _ in range(1500):
            _Cycle(), _Cycle()
            assert parse_distribution_answer(repr(probs), categories).probs == probs

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(3) as pool:
            list(pool.map(parse_many, range(3), timeout=120))
    finally:
        sys.setswitchinterval(switch)


def test_parse_distribution_answer_no_sum_constraint():
    d = parse_distribution_answer("{'a': 0.9, 'b': 0.9}", ("a", "b"))
    assert d.total() == pytest.approx(1.8)


# --- box answers -------------------------------------------------------------------

def test_parse_box_answer_single_and_multi():
    boxes, normalized = parse_box_answer("[138, 182, 656, 428]")
    assert boxes.boxes[0].as_tuple() == (138, 182, 656, 428)
    assert not normalized
    boxes, _ = parse_box_answer("[[0,0,1,1],[2,2,3,3]]")
    assert len(boxes) == 2


def test_parse_box_answer_normalizes_swapped_corners():
    boxes, normalized = parse_box_answer("[656, 428, 138, 182]")
    assert boxes.boxes[0].as_tuple() == (138, 182, 656, 428)
    assert normalized


def test_parse_box_answer_clamps_negatives():
    boxes, normalized = parse_box_answer("[-5, 0, 10, 10]")
    assert boxes.boxes[0].as_tuple() == (0, 0, 10, 10)
    assert normalized


def test_parse_box_answer_arity():
    with pytest.raises(MalformedAnswer):
        parse_box_answer("[1, 2, 3]")
    with pytest.raises(MalformedAnswer):
        parse_box_answer("[1, 2, 'x', 4]")


# --- leak detection -----------------------------------------------------------------

CLS = Classification(categories=EMOTION_CATEGORIES)
DET = Detection(image_width=1000, image_height=1000)


def test_classification_leak_patterns():
    assert detect_leak("the mood is roughly 0.8 joyful", CLS)[0]
    assert detect_leak("about 80% of the frame glows warmly", CLS)[0]
    assert detect_leak("joy: 3 out of ten", CLS)[0]
    assert detect_leak("joy = 0 here", CLS)[0]


def test_classification_clean_narratives():
    clean = ("The image depicts a house adorned with elaborate decorations, "
             "casting long warm shadows across the yard.")
    leak, evidence = detect_leak(clean, CLS)
    assert not leak and evidence == []
    # Spelled-out numbers are never leaks.
    assert not detect_leak("roughly eighty percent of the scene is in shade",
                           CLS)[0]


def test_enumerator_exemption_both_tasks():
    listed = ("1. The object rests near the chair.\n"
              "2. Its folds suggest softness.\n"
              "3) It is draped loosely.")
    assert not detect_leak(listed, CLS)[0]
    assert not detect_leak(listed, DET)[0]


def test_detection_leak_patterns():
    leak, evidence = detect_leak(
        "the region [138, 182, 656, 428] holds the scarf", DET)
    assert leak
    assert "[138, 182, 656, 428]" in evidence
    assert detect_leak("it spans 138, 182 in the frame", DET)[0]
    assert detect_leak("near coordinates x1 and y2", DET)[0]
    assert detect_leak("sitting in the top-left corner", DET)[0]
    assert detect_leak("the lower right portion of the image", DET)[0]


def test_detection_clean_narratives():
    clean = ("The object in question drapes across the chair back, its "
             "woven texture catching the window light.")
    assert not detect_leak(clean, DET)[0]
    # A single small number is not a coordinate run.
    assert not detect_leak("there are 3 folds visible", DET)[0]


# --- format gates -------------------------------------------------------------------

def test_validate_f_cot():
    dist = Distribution(dict(EXAMPLE_DISTRIBUTION))
    narrative = "A quiet street scene with long evening shadows."
    assert validate_f_cot(narrative, dist)
    assert not validate_f_cot(narrative, None)
    assert not validate_f_cot("[0,0,1,1]", BoxSet((Box(0, 0, 1, 1),)))
    assert not validate_f_cot("too short", dist)


def test_validate_f_r1_classification():
    answer = render_annotation(Distribution(dict(EXAMPLE_DISTRIBUTION)), CLS)
    assert validate_f_r1(f"<think>warm colors</think><answer>{answer}</answer>", CLS)
    assert not validate_f_r1(f"<answer>{answer}</answer>", CLS)
    assert not validate_f_r1(f"<think>  </think><answer>{answer}</answer>", CLS)
    assert not validate_f_r1(f"<answer>{answer}</answer><think>late</think>", CLS)


def test_validate_f_r1_detection():
    assert validate_f_r1("<think>t</think><answer>[1,2,3,4]</answer>", DET)
    assert not validate_f_r1("<think>t</think><answer>[1,2,3]</answer>", DET)
    assert not validate_f_r1("<answer>[1,2,3,4]</answer>", DET)


def test_parsed_output_captures_errors():
    out = ParsedOutput.from_text("no tags at all", CLS)
    assert out.answer is None and out.error
    out = ParsedOutput.from_text("<answer>{'anger': 1.0}</answer>", CLS)
    assert out.answer is None and "mismatch" in out.error
    good = "<answer>" + render_annotation(
        Distribution(dict(EXAMPLE_DISTRIBUTION)), CLS) + "</answer>"
    out = ParsedOutput.from_text(good, CLS)
    assert out.answer is not None and out.error is None


# --- canonical render/parse closure ---------------------------------------------------

def test_render_parse_closure_classification():
    d = Distribution(dict(EXAMPLE_DISTRIBUTION))
    rendered = render_annotation(d, CLS)
    parsed = parse_distribution_answer(rendered, EMOTION_CATEGORIES)
    for c in EMOTION_CATEGORIES:
        assert parsed.probs[c] == pytest.approx(d.probs[c], abs=1e-6)


def test_render_parse_closure_detection():
    bs = BoxSet((Box(138, 182, 656, 428), Box(0.5, 1.25, 3.125, 9.0)))
    rendered = render_annotation(bs, DET)
    parsed, normalized = parse_box_answer(rendered)
    assert not normalized
    for orig, got in zip(bs.boxes, parsed.boxes):
        for a, b in zip(orig.as_tuple(), got.as_tuple()):
            assert b == pytest.approx(a, abs=1e-6)
