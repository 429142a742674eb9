"""Composite reward functions, threshold filtering, and reward histograms.

The closed-loop reward gates annotation similarity on "no leak" and
"format ok"; the think-answer reward gates on format only.
"""

from __future__ import annotations

from bisect import bisect_right
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


def score_reconstruction(sample: Sample, text: str) -> tuple[ParsedOutput, float]:
    """(parsed output, similarity) of a model output: `text` parsed against the
    sample's task, and its answer scored against the sample's ground truth. An
    answer that does not parse scores 0. Nothing here depends on a CoT, so one
    result serves every member of a group that returns the same text."""
    parsed = ParsedOutput.from_text(text, sample.task)
    similarity = _similarity(sample, parsed.answer) if parsed.answer is not None else 0.0
    return parsed, similarity


def closed_loop_reward(sample: Sample, cot: str, reconstruction_text: str, *,
                       scored: Optional[tuple[ParsedOutput, float]] = None
                       ) -> RewardBreakdown:
    """Score one (CoT, reconstruction) pair against the sample's ground truth.

    Similarity gated to 0 by leakage in the CoT or a failed format check;
    a reconstruction that does not parse is a format failure, never an
    exception. A caller that already holds
    `score_reconstruction(sample, reconstruction_text)` passes it as `scored`.
    """
    parsed, similarity = (scored if scored is not None
                          else score_reconstruction(sample, reconstruction_text))
    leak, evidence = detect_leak(cot, sample.task)
    format_ok = validate_f_cot(cot, parsed.answer)
    return make_breakdown(similarity, leak, format_ok, parsed=parsed.answer is not None,
                          leak_evidence=evidence)


def think_answer_reward(sample: Sample, raw_model_output: str) -> RewardBreakdown:
    """Score one raw think-answer output; format-gated, no leakage term."""
    parsed, similarity = score_reconstruction(sample, raw_model_output)
    format_ok = parsed.answer is not None and think_precedes_answer(raw_model_output)
    return make_breakdown(similarity, leak_detected=False, format_ok=format_ok,
                          parsed=parsed.answer is not None)


def reward_histogram(rewards: Sequence[float]) -> tuple[list[int], list[float]]:
    """Bin rewards into [0,.25), [.25,.5), [.5,.75), [.75,1.0].

    Only the top bin is right-inclusive, so reward 1.0 and the tau=0.75
    cutoff land together. Returns (counts, percentages).
    """
    counts = [0] * (len(HISTOGRAM_EDGES) - 1)
    for r in rewards:
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"reward out of range: {r}")
        counts[min(bisect_right(HISTOGRAM_EDGES, r), len(counts)) - 1] += 1
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
