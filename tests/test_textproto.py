"""Prompt rendering, answer parsing, leak detection, format gates."""

import ast
import hashlib
import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from cotloop import textproto
from cotloop.backends import CueWorld
from cotloop.domain import Box, BoxSet, Classification, Detection, Distribution
from cotloop.errors import MalformedAnswer, MissingVariable, TemplateError
from cotloop.textproto import (PLACEHOLDER_RE, ParsedOutput, PromptTemplate,
                               check_answer_keys, detect_leak, format_answer,
                               load_template, parse_answer_for_task, parse_box_answer,
                               parse_distribution_answer, parse_think_answer, read_slot,
                               render_annotation, render_box, render_prompt,
                               validate_f_cot, validate_f_r1)

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
    """Threads parsing canonical and other answers, with finalizers running in
    the collector, all read every answer (and raise no SystemError)."""
    categories = tuple(f"c{i}" for i in range(24))
    probs = {c: 1 / 24 for c in categories}
    reversed_map = repr(dict(reversed(probs.items())))
    fenced_json = "```json\n" + json.dumps(probs, indent=2, sort_keys=True) + "\n```"
    boxes = "[\n  [1, 2, 3, 4],\n  [8.5, 7,\n   6, 5.25],\n]"
    want_boxes = (BoxSet((Box(1, 2, 3, 4), Box(6, 5.25, 8.5, 7))), True)

    def parse_many(_):
        for _ in range(300):
            _Cycle(), _Cycle()
            for answer in (repr(probs), reversed_map, fenced_json):
                assert parse_distribution_answer(answer, categories).probs == probs
            assert parse_box_answer(boxes) == want_boxes

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(8) as pool:
            assert len(list(pool.map(parse_many, range(8), timeout=120))) == 8
    finally:
        sys.setswitchinterval(switch)


def test_parse_distribution_answer_refuses_a_probability_above_one():
    with pytest.raises(MalformedAnswer, match=r"probability out of range for 'a': 1.5"):
        parse_distribution_answer("{'a': 1.5, 'b': 0.0}", ("a", "b"))


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
    # A literal of the answer grammar is no narrative, however it is laid out.
    assert not validate_f_cot(" {\n  'joy': 0.5,\n  'fear': 0.5,\n}\n", dist)
    assert not validate_f_cot("[[1, 2, 3, 4],\n [5, 6, 7, 8]]", dist)


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


@pytest.mark.parametrize("number", ["1e999", "-1e999", "1" + "0" * 400, "-1" + "0" * 400],
                         ids=["float", "negative-float", "int", "negative-int"])
def test_out_of_range_numbers_fail_the_parse(number):
    box = ParsedOutput.from_text(f"<answer>[{number}, 0, 1, 1]</answer>", DET)
    dist = ParsedOutput.from_text(f"<answer>{{'a': {number}, 'b': 0.5}}</answer>",
                                  Classification(("a", "b")))
    for out in (box, dist):
        assert out.answer is None and out.error == "number outside the float range"


def test_parsed_output_captures_errors():
    out = ParsedOutput.from_text("no tags at all", CLS)
    assert out.answer is None and out.error
    out = ParsedOutput.from_text("<answer>{'anger': 1.0}</answer>", CLS)
    assert out.answer is None and "mismatch" in out.error
    for unhashable_key in ("{{}}", "{[]: 1}"):  # `ast` raised TypeError on these
        out = ParsedOutput.from_text(f"<answer>{unhashable_key}</answer>", CLS)
        assert out.answer is None and out.error
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


# Text near the tags: pieces of them, other case, and the Kelvin sign, which
# the case-insensitive tag patterns read as a `k`.
_NEAR_TAG_TEXT = st.lists(
    st.sampled_from(["<", ">", "/", "think", "answer", "THINK", "Answer", "thin\u212a",
                     "<think", "answer>", "</", " ", "\n", "[1, 2, 3, 4]", "{'a': 1}"])
    | st.text(max_size=4), max_size=8).map("".join)
_TAG_TEXT_RE = re.compile(r"</?(?:think|answer)>", re.IGNORECASE)


def _holds_no_tag(text):
    return not _TAG_TEXT_RE.search(text)


def _accepted_names(names):
    try:
        check_answer_keys(names)
    except ValueError:
        return False
    return all(map(_holds_no_tag, names))


_box_corners = st.lists(st.integers(0, 10**6) | st.floats(0, 1e6), min_size=4, max_size=4)


@st.composite
def _annotated_tasks(draw):
    """(annotation, task): a distribution over names holding no tag text, or a box set."""
    if draw(st.booleans()):
        names = draw(st.lists(_NEAR_TAG_TEXT.filter(bool), min_size=1, max_size=5,
                              unique=True).filter(_accepted_names))
        return (Distribution({c: draw(st.floats(0.0, 1.0)) for c in names}),
                Classification(tuple(names)))
    boxes = []
    for x1, x2, y1, y2 in draw(st.lists(_box_corners, min_size=1, max_size=4)):
        boxes.append(Box(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)))
    return BoxSet(tuple(boxes)), DET


@settings(max_examples=300)
@given(pair=_annotated_tasks(), think=st.none() | _NEAR_TAG_TEXT.filter(_holds_no_tag))
def test_format_answer_round_trips_through_parsed_output(pair, think):
    """The tags `format_answer` writes give back the think as it was and the
    answer its rendering parses to."""
    annotation, task = pair
    parsed = ParsedOutput.from_text(format_answer(annotation, task, think), task)
    assert parsed.error is None
    assert parsed.think == think
    assert parsed.answer == parse_answer_for_task(render_annotation(annotation, task), task)


@pytest.mark.parametrize("think", [
    "Grey light. A slumped figure.</think> Mood: heavy.",
    "Grey light.<answer>sadness</answer> A slumped figure.",
    "Grey light.<THINK> A slumped figure.",
], ids=["close-think", "answer-pair", "open-think-upper"])
def test_format_answer_refuses_a_think_holding_tag_text(think):
    task = Classification(EMOTION_CATEGORIES)
    with pytest.raises(ValueError, match="tag text"):
        format_answer(Distribution(EXAMPLE_DISTRIBUTION), task, think)


# --- answer scanner and leak prefilter vs the code they replace -----------------------
# The parsers and leak gate as they were before the scanner and the prefilter,
# kept as the oracles of the differential tests below. The answer oracles read
# with `ast.literal_eval`, which takes more than the answer grammar does.

def _oracle_first_balanced(text, open_ch, close_ch):
    start = text.find(open_ch)
    if start < 0:
        raise MalformedAnswer(f"no {open_ch}...{close_ch} literal found")
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return text[start:i + 1]
    raise MalformedAnswer(f"unbalanced {open_ch} literal")


def _oracle_as_number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MalformedAnswer(f"non-numeric value: {v!r}")
    try:
        if math.isfinite(v):
            return float(v)
    except OverflowError:
        pass
    raise MalformedAnswer("number outside the float range")


def _oracle_distribution(answer_raw, categories):
    literal = _oracle_first_balanced(answer_raw, "{", "}")
    try:
        obj = ast.literal_eval(literal)
    except (ValueError, SyntaxError) as e:
        raise MalformedAnswer(f"unparseable map literal: {e}") from e
    if not isinstance(obj, dict):
        raise MalformedAnswer("answer literal is not a map")
    got = {str(k): _oracle_as_number(v) for k, v in obj.items()}
    want = set(categories)
    missing = sorted(want - set(got))
    extra = sorted(set(got) - want)
    if missing or extra:
        raise MalformedAnswer(f"category set mismatch: missing={missing} extra={extra}")
    for cat, v in got.items():
        if not 0 <= v <= 1:
            raise MalformedAnswer(f"probability out of range for {cat!r}: {v}")
    return Distribution(got)


def _oracle_boxes(answer_raw):
    literal = _oracle_first_balanced(answer_raw, "[", "]")
    try:
        obj = ast.literal_eval(literal)
    except (ValueError, SyntaxError) as e:
        raise MalformedAnswer(f"unparseable box literal: {e}") from e
    if not isinstance(obj, (list, tuple)):
        raise MalformedAnswer("answer literal is not a list")
    if len(obj) > 0 and all(isinstance(x, (list, tuple)) for x in obj):
        tuples = obj
    else:
        tuples = [obj]
    boxes = []
    normalized = False
    for t in tuples:
        if not isinstance(t, (list, tuple)) or len(t) != 4:
            raise MalformedAnswer(f"box tuple must have 4 numbers, got {t!r}")
        x1, y1, x2, y2 = (_oracle_as_number(v) for v in t)
        cx1, cy1 = max(x1, 0.0), max(y1, 0.0)
        cx2, cy2 = max(x2, 0.0), max(y2, 0.0)
        nx1, nx2 = min(cx1, cx2), max(cx1, cx2)
        ny1, ny2 = min(cy1, cy2), max(cy1, cy2)
        if (nx1, ny1, nx2, ny2) != (x1, y1, x2, y2):
            normalized = True
        boxes.append(Box(nx1, ny1, nx2, ny2))
    return BoxSet(tuple(boxes)), normalized


def _oracle_detect_leak(cot, task):
    text = re.sub(r"(?m)^\s*\d+[.)]\s*", "", cot)
    evidence = []
    if isinstance(task, Classification):
        evidence += re.findall(r"(?<![\d.])(?:0?\.\d+|1\.0+)(?!\d)", text)
        evidence += re.findall(r"\b\d+(?:\.\d+)?\s*%", text)
        for cat in task.categories:
            pair_re = re.compile(rf"\b{re.escape(cat)}\b\s*[:=]\s*\d", re.IGNORECASE)
            evidence += [m.group(0) for m in pair_re.finditer(text)]
    else:
        evidence += [m.group(0) for m in re.finditer(
            r"\[\s*-?\d+(?:\.\d+)?(?:\s*,\s*-?\d+(?:\.\d+)?)+\s*\]", text)]
        evidence += [m.group(0) for m in re.finditer(
            r"(?<![\w.])[1-9]\d+(?:\s*,\s*|\s+)[1-9]\d+(?:(?:\s*,\s*|\s+)[1-9]\d+)*", text)]
        evidence += re.findall(r"(?i)\b[xy][12]\b", text)
        evidence += re.findall(r"(?i)\b(?:top|bottom|upper|lower)[-\s](?:left|right)\b", text)
    return bool(evidence), evidence


def _outcome(fn, *args):
    """repr of the result (keeps -0.0 apart from 0.0), or the error's type and text."""
    try:
        result = fn(*args)
    except Exception as e:  # the oracle may raise more than MalformedAnswer
        return type(e).__name__, re.sub(r" at 0x[0-9a-f]+", "", str(e))  # ast node reprs
    if isinstance(result, Distribution):
        return repr(list(result.probs.items()))
    return repr(result)


def _assert_agrees(got, want, in_grammar):
    """A parser's outcome against its `ast` oracle's: a refusal wherever the
    oracle refuses, never a different value, and the oracle's value (and
    normalization flag) on every input in the answer grammar."""
    refused = isinstance(got, tuple) and got[0] == "MalformedAnswer"
    if isinstance(want, tuple):
        assert refused, (got, want)
    elif in_grammar or not refused:
        assert got == want


# Tokens that look like the canonical shapes but that a naive regex reads
# differently from `ast.literal_eval`.
_TRAP_NUMBERS = ["01", "00", "007", "0012.5", "012e3", "1_000", "0x1F", "0o7", "1e5",
                 "1E-3", "1e999", "-1e999", ".5", "5.", "1.e2", "-0", "-0.0", "+0.0",
                 "- 1", "+ 2.5", "--1", "+-1", "1j", "True", "None", "'x'", "nan",
                 "\u0661", "\u0663.\u0665", "1\u0660", "\uff11", "1" + "0" * 17,
                 "1" + "0" * 400, "1" + "0" * 5000, "()", "(1)", "[1]", "{}"]
_WHITESPACE = ["", " ", "  ", "\t", "\v", "\f", "\n", "\r\n", "\\\n", "\u00a0",
               "\u2003", "\u3000", "\u2028", "#c\n"]
_plain_numbers = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6).map(lambda x: f"{x:.6f}"),
    st.floats(allow_nan=False).map(repr),
    st.integers(min_value=-10**20, max_value=10**20).map(str),
    st.from_regex(r"\A[-+]?[0-9]{0,3}\.?[0-9]{0,3}(?:[eE][-+]?[0-9]{1,3})?\Z"))
_key_text = st.one_of(st.sampled_from(EMOTION_CATEGORIES), st.text(max_size=6),
                      st.sampled_from(["a{b", "}", "a}b", "[x]", "it's", 'say "hi"']))
_plain_keys = st.one_of(_key_text.map(lambda k: f"'{k}'"), _key_text.map(lambda k: f'"{k}"'))
# Half the answers are drawn in the answer grammar, where the parsers must give
# the oracle's value; the other half mix in every trap above.
_clean_key_text = st.sampled_from(EMOTION_CATEGORIES) | st.text(
    st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters="'\"\\{}<>"),
    max_size=6)
_CLEAN = {"ws": st.sampled_from(["", " ", "\t", "\n", "\r\n  ", " \f"]),
          "num": st.one_of(
              st.floats(min_value=0, max_value=1).map(repr),
              st.floats(min_value=-1e6, max_value=1e6).map(lambda x: f"{x:.6f}"),
              st.floats(allow_nan=False, allow_infinity=False).map(repr),
              st.integers(min_value=-10**15, max_value=10**15).map(str)),
          "key": _clean_key_text.map(lambda k: f"'{k}'") | _clean_key_text.map(
              lambda k: f'"{k}"'),
          "tail": st.sampled_from(["", ","])}
_TRAPPY = {"ws": st.sampled_from(_WHITESPACE),
           "num": st.one_of(_plain_numbers, st.sampled_from(_TRAP_NUMBERS)),
           "key": st.one_of(_plain_keys, _key_text.map(repr), st.sampled_from(
               ["1", "0x1", "'a' 'b'", "b'a'", "'\\n'", "'\\''", "r'a'", "'\\x41'",
                "'a\\\nb'", "''", "(1, 2)"])),
           "tail": st.sampled_from(["", ",", " ,", ", ", ",,"])}


@st.composite
def _map_answers(draw):
    """(answer, whether it is drawn in the answer grammar)."""
    mode = draw(st.sampled_from([_CLEAN, _TRAPPY]))
    n = draw(st.integers(0, 5))
    keys = [draw(mode["key"]) for _ in range(n)]
    if draw(st.booleans()) and keys:
        keys.append(draw(st.sampled_from(keys)))      # a duplicate key
    ws = lambda: draw(mode["ws"])                      # noqa: E731
    pairs = [k + ws() + ":" + ws() + draw(mode["num"]) for k in keys]
    body = "{" + ws() + "".join((ws() + "," + ws() if i else "") + p
                                for i, p in enumerate(pairs)) + draw(mode["tail"]) + ws() + "}"
    prefix = draw(st.sampled_from(["", "map: ", "[1] {", "}{"]))
    return (prefix + body + draw(st.sampled_from(["", " done", "}", " {'x': 1}", "\n"])),
            mode is _CLEAN)


def _categories_of(answer):
    try:
        return tuple(str(k) for k in ast.literal_eval(_oracle_first_balanced(answer, "{", "}")))
    except Exception:
        return EMOTION_CATEGORIES


@given(drawn=_map_answers(), own_categories=st.booleans())
def test_map_scanner_matches_literal_eval(drawn, own_categories):
    answer, in_grammar = drawn
    categories = _categories_of(answer) if own_categories else EMOTION_CATEGORIES
    _assert_agrees(_outcome(parse_distribution_answer, answer, categories),
                   _outcome(_oracle_distribution, answer, categories), in_grammar)


@pytest.mark.parametrize("values", [
    ("-0", "-0.0"), ("-00", "+0"), ("0", "-0e5"), ("-.0", "1"), ("+1.0", "00"), ("1e-7", "1E-7"),
    ("-1", "0.5"), ("0.5", "1.5"), ("1e999", "2"), ("2", "-1e999"), ("1e-999", "0.0"),
    ("1" + "0" * 16, "0"), ("01", "0"), ("1.", ".5"), ("1e5", "-2"), ("0x1", "0"),
])
def test_task_order_maps_with_edge_values_match_literal_eval(values):
    answer = "{'a': %s, \"b\":%s}" % values
    in_grammar = "01" not in values and "0x1" not in values
    _assert_agrees(_outcome(parse_distribution_answer, answer, ("a", "b")),
                   _outcome(_oracle_distribution, answer, ("a", "b")), in_grammar)


@st.composite
def _box_answers(draw):
    """(answer, whether it is drawn in the answer grammar)."""
    mode = draw(st.sampled_from([_CLEAN, _TRAPPY]))
    ws = lambda: draw(mode["ws"])                      # noqa: E731

    def flat():
        nums = [draw(mode["num"]) for _ in range(draw(st.integers(0, 5)))]
        open_, close = ("[", "]") if mode is _CLEAN else draw(
            st.sampled_from([("[", "]"), ("(", ")")]))
        return (open_ + ws() + "".join((ws() + "," + ws() if i else "") + x
                                       for i, x in enumerate(nums))
                + draw(mode["tail"]) + ws() + close)
    if draw(st.booleans()):
        body = flat()
        if not body.startswith("["):
            body = "[" + body + "]"
    else:
        inner = [flat() for _ in range(draw(st.integers(1, 3)))]
        if mode is _TRAPPY and draw(st.booleans()):
            inner.append(draw(mode["num"]))            # mixed nesting
        body = "[" + ws() + (ws() + "," + ws()).join(inner) + draw(mode["tail"]) + ws() + "]"
    prefix = draw(st.sampled_from(["", "box: ", "]["]))
    return prefix + body + draw(st.sampled_from(["", " done", "]", " [9]"])), mode is _CLEAN


@given(drawn=_box_answers())
def test_box_scanner_matches_literal_eval(drawn):
    answer, in_grammar = drawn
    _assert_agrees(_outcome(parse_box_answer, answer), _outcome(_oracle_boxes, answer),
                   in_grammar)


WORLD_48 = CueWorld(num_samples=6, cues_per_sample=4, vocab_size=48, seed=0)


class _Refuse:
    """Stands in for a pattern, or a function, that an input must not reach."""

    def __init__(self, what):
        self.what = what

    def __call__(self, *args):
        raise AssertionError(f"canonical answer read by {self.what}")

    match = __call__


@pytest.mark.parametrize("shape", ["map", "map-48", "box"])
def test_canonical_answers_take_the_scanner(shape, monkeypatch):
    """A canonical map takes its task's pattern, not the general map scanner; a
    canonical box list needs no normalization."""
    monkeypatch.setattr(textproto, "_MAP_RE", _Refuse("the general map scanner"))
    monkeypatch.setattr(textproto, "_floats", _Refuse("the box normalization"))
    if shape == "map":
        answer = render_annotation(Distribution(dict(EXAMPLE_DISTRIBUTION)), CLS)
        assert parse_distribution_answer(answer, EMOTION_CATEGORIES).probs == pytest.approx(
            EXAMPLE_DISTRIBUTION)
    elif shape == "map-48":
        for sample in WORLD_48.samples:
            answer = render_annotation(sample.annotation, WORLD_48.task)
            parsed = parse_distribution_answer(answer, WORLD_48.task.categories)
            assert parsed.probs == pytest.approx(sample.annotation.probs, abs=1e-6)
    else:
        bs = BoxSet((Box(138, 182, 656, 428), Box(0.5, 1.25, 3.125, 9.0)))
        assert parse_box_answer(render_annotation(bs, DET)) == (bs, False)
        assert parse_box_answer(render_annotation(BoxSet(bs.boxes[:1]), DET))[0] == BoxSet(
            bs.boxes[:1])


class _Recorded:
    """A pattern that records the text of each of its matches."""

    def __init__(self, pattern):
        self.pattern, self.matched = pattern, []

    def match(self, text, pos=0):
        m = self.pattern.match(text, pos)
        self.matched.append(m and m.group(0))
        return m


def test_a_map_out_of_task_order_reads_through_the_scanner_to_the_same_value(monkeypatch):
    scanner = _Recorded(textproto._MAP_RE)
    monkeypatch.setattr(textproto, "_MAP_RE", scanner)
    categories = WORLD_48.task.categories
    for sample in WORLD_48.samples:
        probs = sample.annotation.probs
        canonical = render_annotation(sample.annotation, WORLD_48.task)
        reordered = "{" + ", ".join(f'"{c}":\t{probs[c]:.6f}' for c in reversed(categories)) + "}"
        fenced = "```json\n" + json.dumps({c: float(f"{probs[c]:.6f}") for c in reversed(
            categories)}, indent=2) + "\n```"
        want = parse_distribution_answer(canonical, categories)
        assert not scanner.matched
        for answer, literal in ((f"map: {reordered} done", reordered), (fenced, fenced[8:-4])):
            got = parse_distribution_answer(answer, categories)
            assert scanner.matched == [literal]
            assert got.probs == want.probs and list(got.probs) == list(reversed(categories))
            scanner.matched.clear()
    wrong = render_annotation(WORLD_48.samples[0].annotation, WORLD_48.task).replace(
        categories[0], "other")
    with pytest.raises(MalformedAnswer, match="missing=\\['" + categories[0]):
        parse_distribution_answer(wrong, categories)


@given(names=st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=6, unique=True),
       data=st.data())
def test_accepted_category_names_round_trip_through_the_task_pattern(names, data):
    """The names `check_answer_keys` accepts are the ones the task pattern takes:
    their canonical answer matches it; the others are refused."""
    try:
        check_answer_keys(names)
    except ValueError:
        assert textproto._map_re(tuple(names)) is None
        return
    probs = {c: data.draw(st.floats(0.0, 1.0)) for c in names}
    answer = render_annotation(Distribution(probs), Classification(tuple(names)))
    assert textproto._map_re(tuple(names)).match(answer)
    parsed = parse_distribution_answer(answer, names)
    assert list(parsed.probs) == names
    assert parsed.probs == pytest.approx(probs, abs=1e-6)


# --- tag finder and renderer vs the code they replace -------------------------------
# The lazy tag regexes and the per-call f-string renderer, kept as oracles.

_ORACLE_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.IGNORECASE | re.DOTALL)
_ORACLE_THINK_RE = re.compile(r"<think>(.*?)</think>", re.IGNORECASE | re.DOTALL)


def _oracle_think_answer(text):
    m_answer = _ORACLE_ANSWER_RE.search(text)
    if m_answer is None:
        raise MalformedAnswer("no <answer>...</answer> section found")
    m_think = _ORACLE_THINK_RE.search(text)
    return (m_think.group(1) if m_think else None), m_answer.group(1)


def _oracle_think_precedes_answer(text):
    m_think = _ORACLE_THINK_RE.search(text)
    m_answer = _ORACLE_ANSWER_RE.search(text)
    if m_think is None or m_answer is None:
        return False
    return m_think.start() <= m_answer.start() and bool(m_think.group(1).strip())


# Tags in case variants, with U+017F (long s, which folds to "s") and U+212A
# (Kelvin sign, which folds to "k") standing in for letters, broken tags and
# text in between: runs of them nest, repeat and leave tags unclosed.
_TAG_PIECES = ["<think>", "</think>", "<answer>", "</answer>", "<THINK>", "</Think>",
               "<ANSWER>", "</AnSwEr>", "<thin\u212a>", "</thin\u212a>", "<an\u017fwer>",
               "</AN\u017fWER>", "<think", "</answer", "<<answer>>", "</>", "<", ">", "/",
               "think", "answer", " ", "\n", "x", "joy", "{'a': 1}"]


@given(st.lists(st.sampled_from(_TAG_PIECES) | st.text(max_size=3), max_size=12).map("".join))
def test_tag_finder_matches_the_lazy_regexes(text):
    assert _outcome(parse_think_answer, text) == _outcome(_oracle_think_answer, text)
    assert textproto.think_precedes_answer(text) == _oracle_think_precedes_answer(text)


def test_tag_finder_folds_case_like_the_regexes():
    text = "<THIN\u212a> seen </think><an\u017fwer>{'a': 1}</ANSWER>"
    assert parse_think_answer(text) == (" seen ", "{'a': 1}") == _oracle_think_answer(text)
    assert textproto.think_precedes_answer(text)


def _oracle_render_distribution(dist, categories):
    parts = ", ".join(f"'{c}': {dist.probs[c]:.6f}" for c in categories)
    return "{" + parts + "}"


_render_values = st.one_of(
    st.floats(), st.integers(-10**6, 10**6), st.booleans(),
    st.sampled_from([0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 4.9999995e-7,
                     5e-7, 0.0000005, 1 - 1e-7, 0.1234565, 10**400]))
_render_names = st.lists(
    st.sampled_from(["%", "%%", "a%s", "%(x)s", "%.6f", "joy", "b%", "%d%%"])
    | st.text(min_size=1, max_size=4), min_size=1, max_size=6, unique=True)


@given(names=_render_names, data=st.data())
def test_render_distribution_matches_the_f_string(names, data):
    dist = Distribution({c: data.draw(_render_values) for c in names})
    task = Classification(tuple(names))
    assert (_outcome(render_annotation, dist, task)
            == _outcome(_oracle_render_distribution, dist, names))


# --- box render, box parse vs the parent's code ------------------------------------
# `render_box` as it was before its fast path, kept as an oracle. The parse
# is checked against the `ast` oracle above, which the list scanner that came
# before the answer grammar matched on every list it read.

def _oracle_num(v):
    if float(v).is_integer():
        return str(int(v))
    return f"{v:.6f}".rstrip("0").rstrip(".")


def _oracle_render_box(box):
    return "[" + ", ".join(_oracle_num(v) for v in box.as_tuple()) + "]"


# Ints (2**53 + 1 is no float; 10**400 is beyond the float range), integral
# floats up to 1e300, signed zeros, bools, fractions, subnormals and 1e-7, which
# renders as 0.
_box_render_values = st.one_of(
    st.integers(0, 10**6), st.integers(0, 2**64), st.booleans(),
    st.integers(0, 10**300).map(float), st.floats(0, 1e6), st.floats(0, 1e-300),
    st.sampled_from([0.0, -0.0, 2**53 - 1, 2**53, 2**53 + 1, float(2**53 + 2), 1e-7, 0.5,
                     5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308,
                     10**308, 10**400]))


@example(values=[0, 10**400, 0, 1])      # `_num` refuses an int beyond the float range
@example(values=[0.5, 1.5, 2.5, 0.5])    # four equal fractional parts
@given(st.lists(_box_render_values, min_size=4, max_size=4))
def test_render_box_matches_the_parent(values):
    (x1, x2), (y1, y2) = sorted(values[:2]), sorted(values[2:])
    box = Box(x1, y1, x2, y2)
    assert _outcome(render_box, box) == _outcome(_oracle_render_box, box)


# Number tokens of the answer grammar: signed zeros and ints, exponents, bare
# decimal points, 16- and 17-digit ints, and some beyond the float range.
_BOX_TOKENS = ["0", "-0", "+0", "-00", "0.0", "-0.0", "+0.0", "-0e5", "1", "+1", "-1", "12",
               "7.25", "-3.5", "1e3", "1E-3", "1e-5", ".5", "-.5", "5.", "1e999", "-1e999",
               "1234567890123456", "9007199254740993", "12345678901234567", "0.1", "999.999"]
_box_tokens = st.sampled_from(_BOX_TOKENS) | st.floats(0, 2000).map(repr) | st.integers(
    -50, 2000).map(str)


@st.composite
def _box_parse_answers(draw):
    sep = lambda: draw(st.sampled_from([",", ", ", " ,", "\t,\t", " , ", ",\n  "]))  # noqa: E731

    def flat():
        nums = draw(st.lists(_box_tokens, max_size=5))
        tail = draw(st.sampled_from(["", "", "", ","]))
        return "[" + draw(st.sampled_from(["", " ", "\t"])) + "".join(
            (sep() if i else "") + x for i, x in enumerate(nums)) + tail + "]"
    if draw(st.booleans()):
        body = flat()
    else:
        body = "[" + sep().join(flat() for _ in range(draw(st.integers(1, 3)))) + draw(
            st.sampled_from(["", "", ","])) + "]"
    return draw(st.sampled_from(["", "box: "])) + body + draw(st.sampled_from(["", " done"]))


@example(answer="[]")
@example(answer="[[]]")
@example(answer="[-0, 0, 0, 0]")
@example(answer="[0, 0, -0.0, 1]")
@example(answer="[[1, 2, 3, 4],]")
@example(answer="[4, 3, 2, 1]")
@example(answer="[0, 0, 1e999, 1]")
@example(answer="[1234567890123456, 0, 12345678901234567, 1]")
@settings(max_examples=400)
@given(answer=_box_parse_answers())
def test_parse_box_answer_matches_the_parent(answer):
    _assert_agrees(_outcome(parse_box_answer, answer), _outcome(_oracle_boxes, answer),
                   in_grammar=True)


_LEAK_PIECES = (["joy", "Joy", "JOY", "fear", "sad", "a.b", "c+", "x y", "\u00e9", "\u00df",
                 "SS", ":", "=", " : ", "= ", ": ", " ", "\u00a0", "\n", "\n1. ", "\n 2) ",
                 "0", "7", "0.5", ".25", "1.00", "42", "9 %", "\u0663", "\uff11",
                 "-", "_", ".", "\u2003", "joy:", "fear=1", "x1", "top-left"])
_leak_texts = st.lists(st.sampled_from(_LEAK_PIECES) | st.text(max_size=4),
                       max_size=12).map("".join)
_leak_categories = st.lists(st.sampled_from(["joy", "fear", "JOY", "a.b", "c+", "x y",
                                             "\u00e9", "\u00df", "sad"]) | st.text(min_size=1, max_size=3),
                            min_size=1, max_size=5, unique=True)


@given(text=_leak_texts, categories=_leak_categories)
def test_prefiltered_leak_gate_matches_the_category_loop(text, categories):
    task = Classification(categories=tuple(categories))
    assert detect_leak(text, task) == _oracle_detect_leak(text, task)
    assert detect_leak(text, DET) == _oracle_detect_leak(text, DET)


_GATE_WORLDS = [CueWorld(kind=kind, num_samples=2, vocab_size=12, seed=1)
                for kind in ("classification", "detection")]
# Digits of other scripts, and `²`, which is no `\d`.
_GATE_DIGITS = ["\u0663", "\uff15", "\u096d", "\u00b2"]
# Enumerator, percent, pair, bracket and comma pieces, the `x1` and directional
# tokens in mixed case, and the directional words apart, with `ı` and `İ` (which
# fold to `i`) and the separators the directional pattern must see as `\s`.
_GATE_PIECES = ["\n", "\n ", " ", ".", ")", "%", ":", "=", " : ", "[", "]", ",", ", ", "-",
                "x", "X", "y", "Y", "x1", "X2", "y1", "Top-Left", "top left", "LOWER-right",
                "Upper Right", "bottom-RIGHT", "the ", "top", "ToP", "lower", "LoWeR", "left",
                "LEFT", "lEft", "right", "RiGhT", "r\u0131ght", "R\u0130GHT", "\u0131", "\u0130",
                "\t", "\u00a0", "\u2028", "leftover", "_"]
_GATE_CUES = sorted({cue for world in _GATE_WORLDS for cue in world.vocab})
# Texts with no digit, with digits of other scripts only, or with ASCII ones too.
_gate_texts = st.sampled_from([[], _GATE_DIGITS, _GATE_DIGITS + ["0", "1", "2", "7", "42"]]
                              ).flatmap(lambda digits: st.lists(
    st.sampled_from(_GATE_PIECES) | st.sampled_from(_GATE_CUES)
    | st.sampled_from(digits or _GATE_PIECES), max_size=12).map("".join))


@example(text="\u0663%")               # an Arabic-Indic digit and a percent sign
@example(text="at .\uff15 and x\u00b2")  # a fullwidth decimal; `²` is no digit
@example(text="\n\u096d. Top-Left")     # a Devanagari enumerator
@example(text="top\u00a0r\u0130ght")     # a no-break space; `İ` folds to `i`
@example(text="Upper\u2028LEFT, lower\tr\u0131ght")  # a line separator and a tab
@settings(max_examples=300)
@given(text=_gate_texts)
def test_digit_free_leak_gate_matches_the_pattern_table(text):
    for world in _GATE_WORLDS:
        assert detect_leak(text, world.task) == _oracle_detect_leak(text, world.task)


LEAK_CORPUS_CLS = (
    "The mood is roughly 0.8 joyful, with .25 fear and 1.0 calm, not 1.000 or 0.333.",
    "About 80% of the frame glows; 12.5 % is shade and 3% reads neutral.",
    "cat: 3 and Cat = 0 and CAT:7, while dog=1 and Dog : 2 and red-fox= 4.",
    "joy: 0.4, fear: 0.3, joy = 2, anger:1, Sadness =5 and surprise: 9 twice surprise=1",
    "1. The sky is bright.\n2) joy is evident\n  3. sadness: 4 remains\n4) 0.5 of it",
    "joy=, fear: x, surprise : 5 neutral=9 disgust:: 1 joyful: 3",
    "0.5 0.25 .75 1.00 10.5 0.333 2.5% 100 %",
    "No numbers at all here, just warm light across the yard.",
)
LEAK_CORPUS_DET = (
    "the region [138, 182, 656, 428] holds the scarf, and so does [1.5, 2, -3, 4.25]",
    "it spans 138, 182 in the frame, then 200 300 400, and 12,34 then 7, 8",
    "near coordinates x1 and y2, X2 and Y1, but not x3 or x12",
    "sitting in the top-left corner, the Lower Right edge, upper-left, bottom right",
    "1. The object rests near the chair.\n2) 150, 250 away\n3. [10, 20]",
    "there are 3 folds visible in the woven texture",
)
LEAK_GOLDEN_SHA256 = "6c0b760a18313b46f06e7601ff4e522257ed197ce343a58e873954cc9272dcc0"


def test_leak_evidence_is_stable():
    cls = Classification(categories=EMOTION_CATEGORIES + ("cat", "Dog", "red-fox"))
    evidence = ([detect_leak(c, cls)[1] for c in LEAK_CORPUS_CLS]
                + [detect_leak(c, DET)[1] for c in LEAK_CORPUS_DET])
    assert sum(map(len, evidence)) >= 40
    assert hashlib.sha256(repr(evidence).encode()).hexdigest() == LEAK_GOLDEN_SHA256
