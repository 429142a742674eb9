"""Prompt and answer text: rendering, parsing, leak detection, format gates.

This module owns the text the loop exchanges with a model. Each shipped
template is read and checked once, and `read_slot` reads a rendered prompt
back through its template: that is how a reconstruction backend gets the CoT,
in process or behind an endpoint. `format_answer` writes every
`<think>`/`<answer>` output the loop makes, with the annotation in its
canonical form, which round-trips through the answer parsers to within 1e-6:
classification is a single-quoted map in task category order with 6-decimal
fixed-point values, written with one `%` format per category tuple (built on
first use and cached; a `%` in a name is escaped); detection is a bracketed
integer-or-decimal 4-tuple, or a list of them for multiple boxes.

Everything the loop writes reads back as written. Take any task that `ingest`
or a dataset load accepts, any annotation that `validate_annotation` accepts,
and any CoT that the closed-loop gates pass: `ParsedOutput.from_text(
format_answer(a, task, cot), task)` gives back `think == cot` and the answer
`parse_answer_for_task(render_annotation(a, task), task)`, and `validate_f_r1`
holds on the result. Each input is held to it where it enters: category names
by `check_answer_keys`, a CoT by `validate_f_cot`, and `format_answer` refuses
a think holding tag text.

Everything here is pure string work. The answer parsers own the contract
of a model answer: a distribution covers exactly the task's categories with
finite probabilities in [0, 1] (it need not sum to 1), and a box answer is
one or more 4-number lists. They raise MalformedAnswer; ParsedOutput.from_text
captures the failure as a value so scoring never aborts on bad model text.
Ground-truth annotations are checked by `domain.validate_annotation` instead.

An answer body is read as the first literal of one grammar, a subset of
Python's literal syntax, with the value Python gives it: a map of quoted keys
(either quote style, in any order) to numbers, or a flat list of numbers, or a
list of such lists. Tokens may be separated by spaces, tabs, newlines, carriage
returns and form feeds, and a trailing comma may close a literal. A number is
ASCII: a decimal with an optional exponent, or an int of 0s or without a
leading zero; it is read with `float`, and an int-form -0 as 0.0. A key holds
no quote, backslash, brace, angle bracket, control character or surrogate
(`check_answer_keys`, which `ingest` and a dataset load apply to category
names). Anything else (int keys, escapes, implicit concatenation, `1_000`,
hex, tuples, comments, line continuations) is refused. Every path is regular
expressions and `float`: no parser state is shared between threads.

A map in task order is first matched against its task's own pattern, one run
of number characters per key, the runs then checked as numbers all at once;
any other map takes the general scanner, which takes about twice as long
(about 60 us for 48 keys, against about 29 us in task order, on a 2-vCPU
host). The task's pattern is compiled on its first parse, never at import or
world build (about 9 ms for 48 categories, 0.17 s for 1,000). A box of four
unsigned numbers in corner order is built with no normalization. The leak gate
runs its per-category pair patterns only on text that holds a `:`/`=`
followed by a digit.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .domain import Annotation, Box, BoxSet, Classification, Distribution, TaskKind
from .errors import MalformedAnswer, MissingVariable, TemplateError

PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")

STAGE_VARS = {
    "reasoning": {"prob_distribution", "bbox", "target"},
    "reconstruction": {"CoTs", "target", "categories"},
    "r1": {"target", "categories"},
}


def task_name(task: TaskKind) -> str:
    """The name that keys a task kind's templates."""
    return "classification" if isinstance(task, Classification) else "detection"


@dataclass(frozen=True)
class PromptTemplate:
    stage: str     # "reasoning" | "reconstruction" | "r1"
    body: str

    def __post_init__(self):
        if self.stage not in STAGE_VARS:
            raise TemplateError(f"unknown stage: {self.stage!r}")
        bad = set(self.placeholders()) - STAGE_VARS[self.stage]
        if bad:
            raise TemplateError(
                f"placeholders {sorted(bad)} not allowed in stage {self.stage!r}")

    def placeholders(self) -> list[str]:
        return PLACEHOLDER_RE.findall(self.body)


@functools.cache
def load_template(task: str, stage: str) -> PromptTemplate:
    """The shipped template of one (task, stage), read and checked on first use."""
    name = f"{task}_{stage}.txt"
    body = resources.files("cotloop.templates").joinpath(name).read_text(encoding="utf-8")
    return PromptTemplate(stage=stage, body=body.rstrip("\n"))


def render_prompt(template: PromptTemplate, variables: dict[str, str]) -> str:
    """Exact placeholder substitution; the body is otherwise untouched."""
    def sub(m: re.Match) -> str:
        name = m.group(1)
        if name not in variables:
            raise MissingVariable(name)
        return variables[name]

    return PLACEHOLDER_RE.sub(sub, template.body)


def read_slot(template: PromptTemplate, prompt: str, name: str) -> str:
    """The text `render_prompt` put into the slot `name` of `prompt`: from the
    first match of the template's literal text left of the slot to the last
    match of the literal text right of it. A prompt without them in that order
    is not a rendering of the template and is returned whole."""
    before, slot, after = template.body.partition("{" + name + "}")
    if not slot:
        raise TemplateError(f"template has no slot {name!r}")
    left, right = PLACEHOLDER_RE.split(before)[-1], PLACEHOLDER_RE.split(after)[0]
    start = prompt.find(left)
    end = prompt.rfind(right)
    if start < 0 or end < start + len(left):
        return prompt
    return prompt[start + len(left):end]


# --- answer text -------------------------------------------------------------

_FLOAT_MAX = sys.float_info.max


def _num(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return f"{v:.6f}".rstrip("0").rstrip(".")


@functools.lru_cache(maxsize=64)
def _distribution_format(categories: tuple[str, ...]) -> str:
    """The `%` format of a map over `categories`: one `%.6f` per category."""
    return "{" + ", ".join(f"'{c.replace('%', '%%')}': %.6f" for c in categories) + "}"


def render_distribution(dist: Distribution, categories) -> str:
    categories = tuple(categories)
    return _distribution_format(categories) % tuple(map(dist.probs.__getitem__, categories))


def render_box(box: Box) -> str:
    t = box.as_tuple()
    x1, y1, x2, y2 = t
    # `%d` writes an integral value as `_num` does (-0.0 as 0). An int beyond the
    # float range is left to `_num`, which refuses it; corners are ordered, so
    # x2 and y2 bound the box.
    if x1 % 1 == y1 % 1 == x2 % 1 == y2 % 1 == 0 and x2 <= _FLOAT_MAX >= y2:
        return "[%d, %d, %d, %d]" % t
    return "[" + ", ".join(map(_num, t)) + "]"


def render_boxset(boxset: BoxSet) -> str:
    if len(boxset) == 1:
        return render_box(boxset.boxes[0])
    return "[" + ", ".join(render_box(b) for b in boxset.boxes) + "]"


def render_annotation(a: Annotation, task: TaskKind) -> str:
    if isinstance(task, Classification):
        assert isinstance(a, Distribution)
        return render_distribution(a, task.categories)
    assert isinstance(a, BoxSet)
    return render_boxset(a)


def format_answer(annotation: Annotation, task: TaskKind, think: Optional[str] = None) -> str:
    """`annotation`, canonically rendered, in `<answer>` tags, after `think` in
    `<think>` tags when it is given. ValueError when `think` holds tag text,
    which would not read back as written."""
    answer = f"<answer>{render_annotation(annotation, task)}</answer>"
    if think is None:
        return answer
    if holds_tag_text(think):
        raise ValueError("a think holding <think>/<answer> tag text does not read back")
    return f"<think>{think}</think>{answer}"


# --- think/answer extraction -------------------------------------------------

# The opening and closing pattern of each tag. Searching for `<tag>`, then for
# the first `</tag>` after it, finds the pair that the lazy regex
# `<tag>(.*?)</tag>` finds, in one scan instead of one trial per character.
_TAG_RES = {tag: (re.compile(f"<{tag}>", re.IGNORECASE), re.compile(f"</{tag}>", re.IGNORECASE))
            for tag in ("think", "answer")}


def holds_tag_text(text: str) -> bool:
    """Whether `text` holds an opening or closing `<think>`/`<answer>` tag."""
    return "<" in text and any(r.search(text) for pair in _TAG_RES.values() for r in pair)


def _find_tag(text: str, tag: str) -> Optional[tuple[int, str]]:
    """(start, body) of the first `<tag>...</tag>` pair of `text`: its first
    `<tag>` and the first `</tag>` after that, both case-insensitive; None
    when there is no such pair."""
    open_re, close_re = _TAG_RES[tag]
    m_open = open_re.search(text)
    if m_open is None:
        return None
    m_close = close_re.search(text, m_open.end())
    if m_close is None:
        return None
    return m_open.start(), text[m_open.end():m_close.start()]


def parse_think_answer(text: str) -> tuple[Optional[str], str]:
    """Extract the first <think> pair (optional) and first <answer> pair.

    Tag matching is case-insensitive; surrounding prose and code fences
    are ignored. Raises MalformedAnswer when no answer pair exists.
    """
    answer = _find_tag(text, "answer")
    if answer is None:
        raise MalformedAnswer("no <answer>...</answer> section found")
    think = _find_tag(text, "think")
    return (think[1] if think is not None else None), answer[1]


# --- answer-body parsers -----------------------------------------------------

# The answer grammar (see the module docstring). Digits are ASCII (`\d` would
# take other scripts' digits), and keys hold no character of `_KEY_FORBIDDEN`,
# so each literal is valid Python and a match ends where the literal ends. Each
# whitespace run sits between two tokens that it cannot be part of, so a failed
# match backtracks over it once, not once per split.
_WS = r"[ \t\n\r\f]*"
_NUM = (r"[-+]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
        r"|[0-9]+[eE][-+]?[0-9]+|0+|[1-9][0-9]*)")
# A quote, backslash or brace would end or change a quoted key, a control
# character or a surrogate is not valid in its source, and `<` or `>` could
# close the `<answer>` tag around it.
_KEY_FORBIDDEN = r"'\"\\{}<>\x00-\x1f\x7f\ud800-\udfff"
_KEY_FORBIDDEN_RE = re.compile(f"[{_KEY_FORBIDDEN}]")
_KEY = f"[^{_KEY_FORBIDDEN}]*"
_PAIR = rf"""(?:'{_KEY}'|"{_KEY}"){_WS}:{_WS}{_NUM}"""
_MAP_RE = re.compile(rf"\{{{_WS}(?:{_PAIR}{_WS}(?:,{_WS}{_PAIR}{_WS})*(?:,{_WS})?)?\}}")
# A run of number characters. In a literal of the grammar, each number token is
# one run: a token ends at the next non-number character.
_RUN = r"[-+.0-9eE]+"
# The keys and number tokens of a `_MAP_RE` match, pair by pair: in a match, a
# key ends at the next quote.
_PAIR_RE = re.compile(rf"""['"]({_KEY})['"]{_WS}:{_WS}({_RUN})""")
# A task's map pattern takes each value as a run; all the runs of a match are
# then checked at once against `_NUM`.
_NUM_RUNS_RE = re.compile(rf"{_NUM}(?:,{_NUM})*")
_LIST = rf"\[{_WS}(?:{_NUM}{_WS}(?:,{_WS}{_NUM}{_WS})*(?:,{_WS})?)?\]"
_LIST_RE = re.compile(_LIST)
_NESTED_RE = re.compile(rf"\[{_WS}{_LIST}{_WS}(?:,{_WS}{_LIST}{_WS})*(?:,{_WS})?\]")
_INNER_RE = re.compile(r"\[([^\[\]]*)\]")


def check_answer_keys(categories) -> None:
    """ValueError when a category name holds a character that an answer map's
    key may not hold (a quote, backslash, brace, angle bracket, control
    character or surrogate): no answer of the task could be read."""
    bad = [c for c in categories if _KEY_FORBIDDEN_RE.search(c)]
    if bad:
        raise ValueError(f"category names {bad!r} hold a quote, backslash, brace, angle "
                         "bracket, control character or surrogate, which an answer map "
                         "cannot carry")


@functools.lru_cache(maxsize=64)
def _map_re(categories: tuple[str, ...]) -> Optional[re.Pattern]:
    """The answer map of `categories` in task order, one number run per key;
    None when a name cannot be a key."""
    if any(_KEY_FORBIDDEN_RE.search(c) for c in categories):
        return None
    pairs = rf"{_WS},{_WS}".join(rf"""(?:'{key}'|"{key}"){_WS}:{_WS}({_RUN})"""
                                 for key in map(re.escape, categories))
    return re.compile(rf"\{{{_WS}{pairs}{_WS}\}}")


def _floats(tokens) -> list[float]:
    """The values Python gives `_NUM` tokens as literals, as floats: `float` of
    each, except 0.0 for an int-form -0 (the int 0); MalformedAnswer when one
    lies outside the float range. `int` is never called, so a token of any
    length is read."""
    values = [0.0 if not t.lstrip("-0") else float(t) for t in tokens]
    if not all(map(math.isfinite, values)):
        raise MalformedAnswer("number outside the float range")
    return values


def _scan_list(text: str) -> Optional[list[str]]:
    """The bodies of the number lists of the first list literal of `text` in
    the answer grammar (one body for a flat list, one per inner list of a
    nested one), else None. Either shape reads as the same list of boxes."""
    start = text.find("[")
    if start < 0:
        return None
    m = _LIST_RE.match(text, start)
    if m is not None:
        return [m.group(0)[1:-1]]
    m = _NESTED_RE.match(text, start)
    if m is None:
        return None
    return _INNER_RE.findall(m.group(0), 1)


def as_number(v) -> float:
    """`v` as a float if it is a non-bool int or float within the float range;
    MalformedAnswer otherwise."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MalformedAnswer(f"non-numeric value: {v!r}")
    try:
        if math.isfinite(v):
            return float(v)
    except OverflowError:  # an int beyond the float range
        pass
    raise MalformedAnswer("number outside the float range")


def parse_distribution_answer(answer_raw: str, categories) -> Distribution:
    """Parse a map literal into a Distribution over exactly the task's categories.

    Quoting style and key order are free (a map in task order is read by the
    task's pattern, any other by the map scanner); the category set is not.
    Every probability must lie in [0, 1]; no sum constraint is enforced here.
    """
    categories = tuple(categories)
    start = answer_raw.find("{")
    if start < 0:
        raise MalformedAnswer("no {...} literal found")
    map_re = _map_re(categories)
    m = map_re.match(answer_raw, start) if map_re is not None else None
    runs = m.groups() if m is not None else ()
    joined = ",".join(runs)
    # `float` of a `_NUM` run is the value `_floats` gives, except for an int
    # run with a minus sign. Such a run, and a value outside [0, 1], take the
    # scanner, which words the error.
    if _NUM_RUNS_RE.fullmatch(joined) and not joined.startswith("-") and ",-" not in joined:
        values = list(map(float, runs))
        if 0.0 <= min(values) and max(values) <= 1.0:
            return Distribution(dict(zip(categories, values)))
    m = _MAP_RE.match(answer_raw, start)
    if m is None:
        raise MalformedAnswer("unparseable map literal")
    pairs = _PAIR_RE.findall(m.group(0))
    got = dict(zip([key for key, _ in pairs], _floats([token for _, token in pairs])))
    want = set(categories)
    missing = sorted(want - set(got))
    extra = sorted(set(got) - want)
    if missing or extra:
        raise MalformedAnswer(f"category set mismatch: missing={missing} extra={extra}")
    for cat, v in got.items():
        if not 0.0 <= v <= 1.0:
            raise MalformedAnswer(f"probability out of range for {cat!r}: {v}")
    return Distribution(got)


def parse_box_answer(answer_raw: str) -> tuple[BoxSet, bool]:
    """Parse one [x1,y1,x2,y2] list, or a list of them, into a BoxSet.

    Swapped corners are auto-normalized (min/max) and negative
    coordinates clamped to 0; the second return value flags whether any
    normalization happened.
    """
    bodies = _scan_list(answer_raw)
    if bodies is None:
        raise MalformedAnswer("unparseable box literal")
    boxes = []
    normalized = False
    for body in bodies:
        tokens = body.split(",")
        if not tokens[-1].strip():  # a trailing comma, or an empty list
            tokens.pop()
        if len(tokens) != 4:
            raise MalformedAnswer(f"box tuple must have 4 numbers, got [{body.strip()}]")
        # `float` of an unsigned token is the value `_floats` gives. Four such
        # values, finite and in corner order, are their own normalization.
        if "-" not in body:
            x1, y1, x2, y2 = map(float, tokens)
            if 0.0 <= x1 <= x2 < math.inf and 0.0 <= y1 <= y2 < math.inf:
                boxes.append(Box(x1, y1, x2, y2))
                continue
        x1, y1, x2, y2 = _floats(map(str.strip, tokens))
        cx1, cy1 = max(x1, 0.0), max(y1, 0.0)
        cx2, cy2 = max(x2, 0.0), max(y2, 0.0)
        nx1, nx2 = min(cx1, cx2), max(cx1, cx2)
        ny1, ny2 = min(cy1, cy2), max(cy1, cy2)
        if (nx1, ny1, nx2, ny2) != (x1, y1, x2, y2):
            normalized = True
        boxes.append(Box(nx1, ny1, nx2, ny2))
    return BoxSet(tuple(boxes)), normalized


def parse_answer_for_task(answer_raw: str, task: TaskKind) -> Annotation:
    if isinstance(task, Classification):
        return parse_distribution_answer(answer_raw, task.categories)
    boxset, _ = parse_box_answer(answer_raw)
    return boxset


# --- leakage detection -------------------------------------------------------

# Every pattern below but `_DIRECTIONAL_RE`, the enumerator included, needs a
# match of this (Unicode) `\d`: text without one skips them all.
# No leak pattern has a capture group, so `findall` lists whole matches.
_DIGIT_RE = re.compile(r"\d")
_ENUMERATOR_RE = re.compile(r"(?m)^\s*\d+[.)]\s*")
_DECIMAL_01_RE = re.compile(r"(?<![\d.])(?:0?\.\d+|1\.0+)(?!\d)")
_PERCENT_RE = re.compile(r"\b\d+(?:\.\d+)?\s*%")
_BRACKET_TUPLE_RE = re.compile(
    r"\[\s*-?\d+(?:\.\d+)?(?:\s*,\s*-?\d+(?:\.\d+)?)+\s*\]")
_COORD_RUN_RE = re.compile(
    r"(?<![\w.])[1-9]\d+(?:\s*,\s*|\s+)[1-9]\d+(?:(?:\s*,\s*|\s+)[1-9]\d+)*")
_XY_TOKEN_RE = re.compile(r"\b[xy][12]\b", re.IGNORECASE)
_DIRECTIONAL_RE = re.compile(
    r"\b(?:top|bottom|upper|lower)[-\s](?:left|right)\b", re.IGNORECASE)
# The common tail of every category-value pair pattern, with the same flags:
# text it does not occur in holds no pair, so the per-category scans are skipped.
_PAIR_VALUE_RE = re.compile(r"[:=]\s*\d", re.IGNORECASE)


@functools.lru_cache(maxsize=64)
def _category_pair_res(categories: tuple[str, ...]) -> tuple[re.Pattern, ...]:
    """One `<category>: <digit>` pattern per category, in category order."""
    return tuple(re.compile(rf"\b{re.escape(cat)}\b\s*[:=]\s*\d", re.IGNORECASE)
                 for cat in categories)


def detect_leak(cot: str, task: TaskKind) -> tuple[bool, list[str]]:
    """Pattern-table leak check for annotation specifics inside a CoT.

    Line-initial list enumerators ("1.", "2)") are exempt in both tasks;
    spelled-out number words never count as leaks. Evidence lists the
    matches pattern by pattern, category pairs in category order. A CoT
    without a digit can match only the directional pattern.
    """
    if not _DIGIT_RE.search(cot):
        if isinstance(task, Classification):
            return False, []
        evidence = _DIRECTIONAL_RE.findall(cot)
        return bool(evidence), evidence
    text = _ENUMERATOR_RE.sub("", cot)
    evidence: list[str] = []
    if isinstance(task, Classification):
        evidence += _DECIMAL_01_RE.findall(text)
        evidence += _PERCENT_RE.findall(text)
        if _PAIR_VALUE_RE.search(text):
            for pair_re in _category_pair_res(task.categories):
                evidence += pair_re.findall(text)
    else:
        evidence += _BRACKET_TUPLE_RE.findall(text)
        evidence += _COORD_RUN_RE.findall(text)
        evidence += _XY_TOKEN_RE.findall(text)
        evidence += _DIRECTIONAL_RE.findall(text)
    return bool(evidence), evidence


# --- format gates ------------------------------------------------------------

MIN_NARRATIVE_CHARS = 15


def _is_bare_literal(text: str) -> bool:
    """Whether all of `text` is one literal of the answer grammar."""
    return text[:1] in "{[" and any(r.fullmatch(text) for r in (_MAP_RE, _LIST_RE, _NESTED_RE))


def validate_f_cot(cot: str, reconstruction: Optional[Annotation]) -> bool:
    """Closed-loop format gate: descriptive narrative + parsed reconstruction.
    A narrative holding a `<think>`/`<answer>` tag fails: its SFT target would
    not read back as written."""
    narrative = cot.strip()
    if len(narrative) < MIN_NARRATIVE_CHARS:
        return False
    if holds_tag_text(narrative):
        return False
    if _is_bare_literal(narrative):
        return False
    return reconstruction is not None


def think_precedes_answer(raw_model_output: str) -> bool:
    """Think-answer tag check: a non-empty <think> pair that starts before
    the first <answer> pair."""
    think = _find_tag(raw_model_output, "think")
    answer = _find_tag(raw_model_output, "answer")
    if think is None or answer is None:
        return False
    return think[0] <= answer[0] and bool(think[1].strip())


def validate_f_r1(raw_model_output: str, task: TaskKind) -> bool:
    """Think-answer format gate: non-empty think, then a parseable answer."""
    return (think_precedes_answer(raw_model_output)
            and ParsedOutput.from_text(raw_model_output, task).answer is not None)


@dataclass(frozen=True)
class ParsedOutput:
    """Outcome of parsing one raw model output against a task."""

    think: Optional[str]
    answer_raw: str
    answer: Optional[Annotation]
    error: Optional[str] = None

    @classmethod
    def from_text(cls, text: str, task: TaskKind) -> "ParsedOutput":
        try:
            think, answer_raw = parse_think_answer(text)
        except MalformedAnswer as e:
            return cls(think=None, answer_raw="", answer=None, error=str(e))
        try:
            answer = parse_answer_for_task(answer_raw, task)
        except MalformedAnswer as e:
            return cls(think=think, answer_raw=answer_raw, answer=None, error=str(e))
        return cls(think=think, answer_raw=answer_raw, answer=answer)
