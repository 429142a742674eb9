"""Canonical text rendering of annotations.

The canonical forms round-trip through the answer parsers to within
1e-6: classification is a single-quoted map in task category order with
6-decimal fixed-point values; detection is a bracketed integer-or-decimal
4-tuple (or a list of them for multiple boxes).

A classification map is one `%` format per category tuple, built on first
use and cached, so a render is one substitution; a `%` in a category name
is escaped. A category name holding a quote, backslash, brace, control
character or surrogate renders a map that no task pattern reads, and most
such maps do not parse at all; ingest and dataset load refuse such names
(`textproto.check_answer_keys`).
"""

from __future__ import annotations

import functools
import sys

from .domain import Annotation, Box, BoxSet, Classification, Distribution, TaskKind


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
