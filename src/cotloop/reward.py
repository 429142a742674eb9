"""Composite reward functions, threshold filtering, and reward histograms.

The closed-loop reward gates annotation similarity on "no leak" and
"format ok"; the think-answer reward gates on format only.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .domain import (Classification, RewardBreakdown, Sample, ScoredRecord,
                     make_breakdown)
from .errors import DomainError
from .similarity import classification_similarity, detection_similarity
from .textproto import ParsedOutput, detect_leak, think_precedes_answer, validate_f_cot

HISTOGRAM_EDGES = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_TAU = 0.75


def _similarity(sample: Sample, reconstruction) -> float:
    if isinstance(sample.task, Classification):
        return classification_similarity(sample.annotation, reconstruction)
    return detection_similarity(sample.annotation, reconstruction)


def closed_loop_reward(sample: Sample, cot: str, reconstruction_text: str, *,
                       parsed: Optional[ParsedOutput] = None) -> RewardBreakdown:
    """Score one (CoT, reconstruction) pair against the sample's ground truth.

    Similarity gated to 0 by leakage in the CoT or a failed format check;
    a reconstruction that does not parse is a format failure, never an
    exception. A caller that has already parsed the reconstruction against
    the sample's task passes it as `parsed`.
    """
    if parsed is None:
        parsed = ParsedOutput.from_text(reconstruction_text, sample.task)
    leak, evidence = detect_leak(cot, sample.task)
    format_ok = validate_f_cot(cot, parsed.answer)
    similarity = _similarity(sample, parsed.answer) if parsed.answer is not None else 0.0
    reason = None
    if leak:
        reason = "leak"
    elif parsed.answer is None:
        reason = "parse"
    elif not format_ok:
        reason = "format"
    return make_breakdown(similarity, leak, format_ok, reason=reason,
                          leak_evidence=evidence)


def think_answer_reward(sample: Sample, raw_model_output: str) -> RewardBreakdown:
    """Score one raw think-answer output; format-gated, no leakage term."""
    parsed = ParsedOutput.from_text(raw_model_output, sample.task)
    format_ok = parsed.answer is not None and think_precedes_answer(raw_model_output)
    similarity = _similarity(sample, parsed.answer) if parsed.answer is not None else 0.0
    reason = None
    if not format_ok:
        reason = "parse" if parsed.answer is None else "format"
    return make_breakdown(similarity, leak_detected=False, format_ok=format_ok,
                          reason=reason)


def reward_histogram(rewards: Sequence[float]) -> tuple[list[int], list[float]]:
    """Bin rewards into [0,.25), [.25,.5), [.5,.75), [.75,1.0].

    Only the top bin is right-inclusive, so reward 1.0 and the tau=0.75
    cutoff land together. Returns (counts, percentages).
    """
    edges = HISTOGRAM_EDGES
    counts = [0] * (len(edges) - 1)
    for r in rewards:
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"reward out of range: {r}")
        for i in range(len(counts)):
            last = i == len(counts) - 1
            if edges[i] <= r < edges[i + 1] or (last and r == edges[-1]):
                counts[i] += 1
                break
    total = len(rewards)
    pcts = [100.0 * c / total if total else 0.0 for c in counts]
    return counts, pcts


def histogram_bins() -> list[tuple[str, float, float]]:
    """(label, low edge, high edge) of each `reward_histogram` bin, e.g.
    ("[0.00-0.25)", 0.0, 0.25); only the top bin's label is closed."""
    edges = HISTOGRAM_EDGES
    return [(f"[{lo:.2f}-{hi:.2f}{']' if hi == edges[-1] else ')'}", lo, hi)
            for lo, hi in zip(edges, edges[1:])]


def filter_high_subset(records: Sequence[ScoredRecord],
                       tau: float = DEFAULT_TAU) -> tuple[list[ScoredRecord], int, int]:
    """Keep records with reward >= tau, preserving order; returns (kept, n_kept, n_total)."""
    kept = [r for r in records if r.reward >= tau]
    return kept, len(kept), len(records)
