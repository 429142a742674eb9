"""Prompt rendering, think/answer parsing, leak detection, format gates.

This module owns the prompt format. Each shipped template is read and checked
once, and `read_slot` reads a rendered prompt back through its template: that
is how a reconstruction backend gets the CoT, in process or behind an endpoint.

Everything here is pure string work. The answer parsers own the contract
of a model answer: a distribution covers exactly the task's categories with
finite probabilities in [0, 1] (it need not sum to 1), and a box answer is
one or more 4-number tuples. They raise MalformedAnswer; ParsedOutput.from_text
captures the failure as a value so scoring never aborts on bad model text.
Ground-truth annotations are checked by `domain.validate_annotation` instead.

An answer map is first matched against its task's own pattern: the task's
keys in task order, each quoted either way and followed by one run of number
characters, spaces or tabs between tokens; the runs are then checked as
numbers all at once. The pattern is compiled on a task's first parse, never
at import or world build (about 9 ms for 48 categories, 0.17 s for 1,000, on
a 2-vCPU host). A box answer in the canonical shape (a list of plain numbers
or a list of such lists, spaces or tabs between tokens) is read by a strict
list scanner; each of its boxes of four unsigned numbers in corner order is
read with `float` and needs no normalization. Any other literal (keys out of
task order, int keys, escapes, implicit concatenation, `1_000`, hex, tuples,
trailing commas, comments, newlines) is balanced naively and read with
`ast.literal_eval`; the two give the same value or the same error, and only
that fallback takes the interpreter-wide lock below. The fallback is slower: a
48-key map in reversed order parses in about 0.4 ms, in task order in about
45 us. A category name that holds a character no answer key may hold
(`check_answer_keys`) gives its task no pattern. The leak gate runs its
per-category pair patterns only on text that holds a `:`/`=` followed by a
digit.
"""

from __future__ import annotations

import ast
import functools
import math
import re
import threading
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .domain import Annotation, Box, BoxSet, Classification, Distribution, TaskKind
from .errors import MalformedAnswer, MissingVariable, TemplateError

# ast.literal_eval converts its parse tree under an interpreter-wide depth
# counter: in CPython 3.11.7 and earlier (gh-106905) a thread switch inside the
# conversion, such as a finalizer run by the garbage collector, raises
# SystemError in another thread. GRPO groups parse answers on worker threads;
# the lock guards the `ast` fallback only, not the answer patterns.
_LITERAL_LOCK = threading.Lock()


def _literal_eval(text: str):
    with _LITERAL_LOCK:
        return ast.literal_eval(text)


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


# --- think/answer extraction -------------------------------------------------

# The opening and closing pattern of each tag. Searching for `<tag>`, then for
# the first `</tag>` after it, finds the pair that the lazy regex
# `<tag>(.*?)</tag>` finds, in one scan instead of one trial per character.
_TAG_RES = {tag: (re.compile(f"<{tag}>", re.IGNORECASE), re.compile(f"</{tag}>", re.IGNORECASE))
            for tag in ("think", "answer")}


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

# The answer patterns (see the module docstring) match only text that
# `ast.literal_eval` reads as the same object: ASCII digits (`\d` would take
# other scripts' digits); an int is 0s or has no leading zero, at most 16 digits
# (longer ones overflow `float` or the int-string limit there); keys hold no
# character of `_KEY_FORBIDDEN_RE`, so a match ends where `_first_balanced` ends
# and the source is valid Python.
_WS = r"[ \t]*"
_NUM = (r"[-+]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
        r"|[0-9]+[eE][-+]?[0-9]+|0+|[1-9][0-9]{0,15})")
# A quote, backslash or brace would end or change a quoted key, and a control
# character or a surrogate is not valid in its source.
_KEY_FORBIDDEN_RE = re.compile(r"['\"\\{}\x00-\x1f\x7f\ud800-\udfff]")
# A map pattern takes each value as a run of number characters; all the runs of
# a match are then checked at once against `_NUM`.
_NUM_RUNS_RE = re.compile(rf"{_NUM}(?:,{_NUM})*")
_LIST = rf"\[{_WS}(?:{_NUM}(?:{_WS},{_WS}{_NUM})*{_WS})?\]"
_LIST_RE = re.compile(_LIST)
_NESTED_RE = re.compile(rf"\[{_WS}{_LIST}(?:{_WS},{_WS}{_LIST})*{_WS}\]")
_INNER_RE = re.compile(r"\[([^\[\]]*)\]")


def check_answer_keys(categories) -> None:
    """ValueError when a category name holds a character that an answer map's
    key may not hold (a quote, backslash, brace, control character or
    surrogate). The task would have no answer pattern, and most such names
    make every canonical answer of the task fail to parse."""
    bad = [c for c in categories if _KEY_FORBIDDEN_RE.search(c)]
    if bad:
        raise ValueError(f"category names {bad!r} hold a quote, backslash, brace, "
                         "control character or surrogate, which an answer map cannot carry")


@functools.lru_cache(maxsize=64)
def _map_re(categories: tuple[str, ...]) -> Optional[re.Pattern]:
    """The answer map of `categories` in task order, one number run per key;
    None when a name cannot be a key."""
    if any(_KEY_FORBIDDEN_RE.search(c) for c in categories):
        return None
    pairs = rf"{_WS},{_WS}".join(rf"""(?:'{key}'|"{key}"){_WS}:{_WS}([-+.0-9eE]+)"""
                                 for key in map(re.escape, categories))
    return re.compile(rf"\{{{_WS}{pairs}{_WS}\}}")


def _number(token: str):
    """The int or float `ast.literal_eval` makes of a `_NUM` token."""
    return float(token) if "." in token or "e" in token or "E" in token else int(token)


def _numbers(inner: str) -> list:
    inner = inner.strip(" \t")
    return [_number(t.strip(" \t")) for t in inner.split(",")] if inner else []


def _scan_list(text: str) -> Optional[list[str]]:
    """The bodies of the number lists of the first list literal of `text` if it
    has a canonical shape (one body for a flat list, one per inner list of a
    nested one), else None. Either shape reads as the same list of tuples."""
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


def _evaluated(answer_raw: str, open_ch: str, close_ch: str, what: str):
    """The first naively balanced `open_ch` literal of `answer_raw`, evaluated."""
    literal = _first_balanced(answer_raw, open_ch, close_ch)
    try:
        return _literal_eval(literal)
    except (ValueError, SyntaxError) as e:
        raise MalformedAnswer(f"unparseable {what} literal: {e}") from e


def _first_balanced(text: str, open_ch: str, close_ch: str) -> str:
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
    task's pattern, any other by `ast`); the category set is not. Every
    probability must lie in [0, 1]; no sum constraint is enforced here.
    """
    categories = tuple(categories)
    map_re = _map_re(categories)
    start = answer_raw.find("{")
    m = map_re.match(answer_raw, start) if map_re is not None and start >= 0 else None
    runs = m.groups() if m is not None else ()
    joined = ",".join(runs)
    # `float` of a `_NUM` run is the value `ast` and `as_number` give, except for
    # an int run with a minus sign (int -0 makes 0.0, not -0.0). Such a run, and
    # a value outside [0, 1], take the `ast` path, which words the error.
    if _NUM_RUNS_RE.fullmatch(joined) and not joined.startswith("-") and ",-" not in joined:
        values = list(map(float, runs))
        if 0.0 <= min(values) and max(values) <= 1.0:
            return Distribution(dict(zip(categories, values)))
    obj = _evaluated(answer_raw, "{", "}", "map")
    if not isinstance(obj, dict):
        raise MalformedAnswer("answer literal is not a map")
    got = {str(k): as_number(v) for k, v in obj.items()}
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
    """Parse one [x1,y1,x2,y2] tuple, or a list of them, into a BoxSet.

    Swapped corners are auto-normalized (min/max) and negative
    coordinates clamped to 0; the second return value flags whether any
    normalization happened.
    """
    bodies = _scan_list(answer_raw)
    if bodies is None:
        obj = _evaluated(answer_raw, "[", "]", "box")
        if not isinstance(obj, (list, tuple)):
            raise MalformedAnswer("answer literal is not a list")
        if len(obj) > 0 and all(isinstance(x, (list, tuple)) for x in obj):
            tuples = obj
        else:
            tuples = [obj]
    else:
        tuples = bodies
    boxes = []
    normalized = False
    for t in tuples:
        if bodies is not None:
            # `float` of an unsigned `_NUM` run is the value `_number` and
            # `as_number` give. Four such values, finite and in corner order,
            # are their own normalization; any other body takes the path below.
            values = t.split(",")
            if len(values) == 4 and "-" not in t:
                x1, y1, x2, y2 = map(float, values)
                if 0.0 <= x1 <= x2 < math.inf and 0.0 <= y1 <= y2 < math.inf:
                    boxes.append(Box(x1, y1, x2, y2))
                    continue
            t = _numbers(t)
        if not isinstance(t, (list, tuple)) or len(t) != 4:
            raise MalformedAnswer(f"box tuple must have 4 numbers, got {t!r}")
        x1, y1, x2, y2 = (as_number(v) for v in t)
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
        evidence = [m.group(0) for m in _DIRECTIONAL_RE.finditer(cot)]
        return bool(evidence), evidence
    text = _ENUMERATOR_RE.sub("", cot)
    evidence: list[str] = []
    if isinstance(task, Classification):
        evidence += [m.group(0) for m in _DECIMAL_01_RE.finditer(text)]
        evidence += [m.group(0) for m in _PERCENT_RE.finditer(text)]
        if _PAIR_VALUE_RE.search(text):
            for pair_re in _category_pair_res(task.categories):
                evidence += [m.group(0) for m in pair_re.finditer(text)]
    else:
        evidence += [m.group(0) for m in _BRACKET_TUPLE_RE.finditer(text)]
        evidence += [m.group(0) for m in _COORD_RUN_RE.finditer(text)]
        evidence += [m.group(0) for m in _XY_TOKEN_RE.finditer(text)]
        evidence += [m.group(0) for m in _DIRECTIONAL_RE.finditer(text)]
    return bool(evidence), evidence


# --- format gates ------------------------------------------------------------

MIN_NARRATIVE_CHARS = 15


def _is_bare_literal(text: str) -> bool:
    stripped = text.strip()
    if not stripped or stripped[0] not in "{[(":
        return False
    try:
        _literal_eval(stripped)
        return True
    except (ValueError, SyntaxError):
        return False


def validate_f_cot(cot: str, reconstruction: Optional[Annotation]) -> bool:
    """Closed-loop format gate: descriptive narrative + parsed reconstruction."""
    narrative = cot.strip()
    if len(narrative) < MIN_NARRATIVE_CHARS:
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
