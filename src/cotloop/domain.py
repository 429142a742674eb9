"""Core data model: tasks, annotations, samples, reward breakdowns, records.

All types are immutable value objects; geometry uses the continuous-area
convention (area = width * height, unit-square mask cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .errors import EmptyMask, InvalidGeometry

GT_SUM_TOL = 1e-6


@dataclass(frozen=True)
class Classification:
    """Classification task over a fixed ordered category list."""

    categories: tuple[str, ...]

    def __post_init__(self):
        if not self.categories:
            raise ValueError("category list must be non-empty")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("category names must be unique")
        if "" in self.categories:
            raise ValueError("category names must be non-empty")
        object.__setattr__(self, "categories", tuple(self.categories))

    @property
    def num_categories(self) -> int:
        return len(self.categories)


@dataclass(frozen=True)
class Detection:
    """Detection task on an image of known pixel dimensions."""

    image_width: float
    image_height: float

    def __post_init__(self):
        w, h = self.image_width, self.image_height
        if not (0 < w < math.inf and 0 < h < math.inf):
            raise ValueError("image dimensions must be positive and finite")
        # Ground-truth boxes lie inside the image, so a finite image area keeps
        # their areas finite, and no IoU against one is NaN (inf - inf).
        try:
            area = float(w) * float(h)
        except OverflowError:  # an int beyond the float range
            area = math.inf
        if area == math.inf:
            raise ValueError("image area (width x height) must be a finite float")


TaskKind = Union[Classification, Detection]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in corner format, x1 <= x2 and y1 <= y2.

    Degenerate (zero-area) boxes are valid data: real model outputs
    produce them, and they simply have IoU 0 with everything.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        x1, y1, x2, y2 = coords = (self.x1, self.y1, self.x2, self.y2)
        # Four floats in order, each finite and >= 0, pass at once; anything
        # else (ints, bools, NaN, inf, negatives, other types) takes the checks below.
        if (type(x1) is type(y1) is type(x2) is type(y2) is float
                and 0.0 <= x1 <= x2 < math.inf and 0.0 <= y1 <= y2 < math.inf):
            return
        if any(not _finite(c) or c < 0 for c in coords):
            raise InvalidGeometry(f"coordinates must be finite and >= 0: {coords}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise InvalidGeometry(f"corner ordering violated: {coords}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and x == x and abs(x) != float("inf")


@dataclass(frozen=True)
class Distribution:
    """Category -> probability map.

    Reconstructed distributions need not sum to 1 (the similarity
    function penalizes the deviation); ground truths are checked at
    ingest and dataset load via :func:`validate_annotation`.
    """

    probs: dict[str, float]

    def __post_init__(self):
        object.__setattr__(self, "probs", dict(self.probs))

    def total(self) -> float:
        return sum(self.probs.values())

    def argmax(self, categories: Sequence[str]) -> str:
        # Ties broken by first category in task order: max keeps the first of equal keys.
        return max(categories, key=self.probs.__getitem__)

    def __hash__(self):
        return hash(tuple(sorted(self.probs.items())))


@dataclass(frozen=True)
class BoxSet:
    """A set of boxes; the annotation form for detection tasks."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))

    def __len__(self) -> int:
        return len(self.boxes)


Annotation = Union[Distribution, BoxSet]


@dataclass(frozen=True)
class Sample:
    """One image reference with its task and ground-truth annotation.

    ``image_ref`` is an opaque string (path or URI); the core never
    dereferences it.
    """

    id: str
    image_ref: str
    task: TaskKind
    annotation: Annotation
    target_desc: Optional[str] = None


def validate_annotation(a: Annotation, task: TaskKind) -> list[str]:
    """Return every way a ground-truth annotation breaks its task's contract;
    an empty list means it is valid.

    A distribution covers exactly the task's categories with finite
    probabilities in [0, 1] that sum to 1 within GT_SUM_TOL; a box set holds
    at least one box, each inside the image. Model answers are checked by the
    `textproto` parsers instead. Violations are data, not faults: this never
    raises.
    """
    violations: list[str] = []
    if isinstance(task, Classification):
        if not isinstance(a, Distribution):
            violations.append("variant mismatch: classification task needs a Distribution")
            return violations
        got = set(a.probs)
        want = set(task.categories)
        if got != want:
            missing = sorted(want - got)
            extra = sorted(got - want)
            if missing:
                violations.append(f"missing categories: {missing}")
            if extra:
                violations.append(f"unknown categories: {extra}")
        for cat, p in a.probs.items():
            if not _finite(p) or p < 0 or p > 1:
                violations.append(f"probability out of range for {cat!r}: {p}")
        if not violations:
            total = a.total()
            if abs(total - 1.0) > GT_SUM_TOL:
                violations.append(f"ground-truth distribution sums to {total}, not 1")
    elif isinstance(task, Detection):
        if not isinstance(a, BoxSet):
            violations.append("variant mismatch: detection task needs a BoxSet")
            return violations
        if not a.boxes:
            violations.append("ground truth has no boxes")
        for b in a.boxes:
            if b.x2 > task.image_width or b.y2 > task.image_height:
                violations.append(f"box {list(b.as_tuple())} lies outside the "
                                  f"{task.image_width:g}x{task.image_height:g} image")
    else:
        violations.append(f"unknown task kind: {task!r}")
    return violations


def mask_to_box(mask) -> Box:
    """Tightest corner box enclosing every true cell of a dense binary grid: a
    list of rows, each a list of cells that are 0, 1, True or False
    (InvalidGeometry otherwise).

    Cell (row r, col c) occupies the continuous unit square
    [c, c+1] x [r, r+1], so a single true cell at (r, c) yields
    (c, r, c+1, r+1).
    """
    if not isinstance(mask, list) or not all(
            isinstance(row, list) and all(type(v) in (int, bool) and v in (0, 1) for v in row)
            for row in mask):
        raise InvalidGeometry("mask must be a list of rows of 0/1 or true/false cells")
    if not mask or not any(len(row) for row in mask):
        raise EmptyMask("mask grid is empty")
    rows = [(r, row) for r, row in enumerate(mask) if any(row)]
    if not rows:
        raise EmptyMask("mask has no true cells")
    r_min = rows[0][0]
    r_max = rows[-1][0]
    c_min = min(min(c for c, v in enumerate(row) if v) for _, row in rows)
    c_max = max(max(c for c, v in enumerate(row) if v) for _, row in rows)
    return Box(c_min, r_min, c_max + 1, r_max + 1)


@dataclass(frozen=True)
class RewardBreakdown:
    """Similarity plus the leak/format gates and the gated composite.

    Invariant: composite == similarity when no leak and format ok,
    otherwise composite == 0. ``reason`` names the first failed gate
    (leak | parse | format) or "similarity" when the gates passed.
    """

    similarity: float
    leak_detected: bool
    format_ok: bool
    composite: float
    reason: str = "similarity"
    leak_evidence: tuple[str, ...] = field(default=())

    def __post_init__(self):
        gates_pass = (not self.leak_detected) and self.format_ok
        expect = self.similarity if gates_pass else 0.0
        if self.composite != expect:
            raise ValueError("composite violates the gating identity")


def make_breakdown(similarity: float, leak_detected: bool, format_ok: bool,
                   parsed: bool = True,
                   leak_evidence: Sequence[str] = ()) -> RewardBreakdown:
    """The reason is the first failed gate in the order leak, parse (`parsed`
    false), format, else "similarity"."""
    gates_pass = (not leak_detected) and format_ok
    reason = ("leak" if leak_detected else "parse" if not parsed
              else "format" if not format_ok else "similarity")
    return RewardBreakdown(
        similarity=similarity,
        leak_detected=leak_detected,
        format_ok=format_ok,
        composite=similarity if gates_pass else 0.0,
        reason=reason,
        leak_evidence=tuple(leak_evidence),
    )


@dataclass(frozen=True)
class ScoredRecord:
    """One curated row: a sample's best CoT, its reconstruction, and its reward."""

    sample_id: str
    cot: str
    reconstruction: Optional[Annotation]
    reward: float
    breakdown: RewardBreakdown

    def __post_init__(self):
        if self.reward != self.breakdown.composite:
            raise ValueError("record reward must equal the breakdown composite")
