"""Composite rewards, gating soundness, histograms, and threshold filtering."""

import math

import pytest
from hypothesis import given, strategies as st

from cotloop.domain import (Box, BoxSet, Distribution, Sample, ScoredRecord,
                            make_breakdown)
from cotloop.errors import DomainError
from cotloop.textproto import render_annotation
from cotloop.reward import (closed_loop_reward, filter_high_subset,
                            reward_histogram, think_answer_reward)

from conftest import (CLASS_BIN_COUNTS, EXAMPLE_DISTRIBUTION,
                      DET_BIN_COUNTS, rewards_with_bin_counts)

CLEAN_COT = ("Soft lantern light washes over the porch while children "
             "linger by the gate, their faces caught mid-laugh.")


def answer_for(sample):
    return f"<answer>{render_annotation(sample.annotation, sample.task)}</answer>"


# --- closed-loop reward ---------------------------------------------------------

def test_exact_reconstruction_scores_one(emotion_sample, detection_sample):
    for sample in (emotion_sample, detection_sample):
        b = closed_loop_reward(sample, CLEAN_COT, answer_for(sample))
        assert b.composite == pytest.approx(1.0, abs=1e-12)
        assert not b.leak_detected and b.format_ok


def test_leaking_cot_gates_to_zero(detection_sample):
    leaking = CLEAN_COT + " It sits at [138, 182, 656, 428] precisely."
    b = closed_loop_reward(detection_sample, leaking, answer_for(detection_sample))
    assert b.composite == 0.0
    assert b.leak_detected and b.reason == "leak"
    assert b.similarity == pytest.approx(1.0)  # similarity survives for debugging


def test_near_reconstruction_scores_similarity():
    task_cats = ("a", "b")
    from cotloop.domain import Classification
    sample = Sample(id="s", image_ref="i", task=Classification(task_cats),
                    annotation=Distribution({"a": 0.5, "b": 0.5}))
    b = closed_loop_reward(sample, CLEAN_COT, "<answer>{'a': 0.9, 'b': 0.1}</answer>")
    assert b.composite == pytest.approx(0.5112862733797268, abs=1e-9)
    assert b.reason == "similarity"


def test_parse_failure_scores_zero(emotion_sample):
    b = closed_loop_reward(emotion_sample, CLEAN_COT, "gibberish with no tags")
    assert b.composite == 0.0 and not b.format_ok and b.reason == "parse"


def test_probability_above_one_scores_parse():
    from cotloop.domain import Classification
    sample = Sample(id="s", image_ref="i", task=Classification(("a", "b")),
                    annotation=Distribution({"a": 1.0, "b": 0.0}))
    b = closed_loop_reward(sample, CLEAN_COT, "<answer>{'a': 1.5, 'b': 0.0}</answer>")
    assert b.composite == 0.0 and not b.format_ok and b.reason == "parse"


@pytest.mark.parametrize("answer", ["[1e999, 0, 1, 1]", f"[{10**400}, 0, 1, 1]"],
                         ids=["float", "int"])
def test_out_of_range_box_scores_parse(detection_sample, answer):
    b = closed_loop_reward(detection_sample, CLEAN_COT, f"<answer>{answer}</answer>")
    assert b.composite == 0.0 and b.reason == "parse"


def test_short_cot_is_format_failure(emotion_sample):
    b = closed_loop_reward(emotion_sample, "tiny", answer_for(emotion_sample))
    assert b.composite == 0.0 and b.reason == "format"


@pytest.mark.parametrize("cot", ["Grey light.<answer>c</answer> A slumped figure.",
                                 "Grey light, a slumped figure.</THINK> Mood: heavy."],
                         ids=["answer", "think"])
def test_cot_holding_tag_text_is_format_failure(emotion_sample, cot):
    """The SFT target of such a CoT would not read back as written: the first
    cuts the target's answer short, the second its think."""
    b = closed_loop_reward(emotion_sample, cot, answer_for(emotion_sample))
    assert b.composite == 0.0 and b.reason == "format"


# --- think-answer reward ---------------------------------------------------------

def test_think_answer_exact(emotion_sample):
    raw = f"<think>{CLEAN_COT}</think>{answer_for(emotion_sample)}"
    b = think_answer_reward(emotion_sample, raw)
    assert b.composite == pytest.approx(1.0, abs=1e-12)


def test_think_answer_requires_think(emotion_sample):
    b = think_answer_reward(emotion_sample, answer_for(emotion_sample))
    assert b.composite == 0.0 and not b.format_ok


def test_think_answer_has_no_leak_gate(detection_sample):
    # Coordinates inside the think section do not zero this reward.
    raw = ("<think>it sits at [138, 182, 656, 428]</think>"
           + answer_for(detection_sample))
    b = think_answer_reward(detection_sample, raw)
    assert b.composite == pytest.approx(1.0)
    assert not b.leak_detected


# --- gating soundness property ------------------------------------------------------

def test_gating_soundness(emotion_sample, detection_sample):
    leak_cls = CLEAN_COT + " with joy: 3 highlights"
    leak_det = CLEAN_COT + " in the top-left corner"
    for sample, leaking in ((emotion_sample, leak_cls), (detection_sample, leak_det)):
        for cot in (CLEAN_COT, leaking, "x"):
            for recon in (answer_for(sample), "<answer>junk</answer>", "junk"):
                b = closed_loop_reward(sample, cot, recon)
                if b.composite > 0:
                    assert not b.leak_detected and b.format_ok
                assert b.composite <= b.similarity or b.similarity == 0.0


# --- histogram -----------------------------------------------------------------------

def test_histogram_edge_rule():
    counts, _ = reward_histogram([0.25, 0.5, 0.75])
    assert counts == [0, 1, 1, 1]
    counts, _ = reward_histogram([0.0, 1.0])
    assert counts == [1, 0, 0, 1]


def test_histogram_all_zero():
    counts, pcts = reward_histogram([0.0] * 7)
    assert counts == [7, 0, 0, 0]
    assert pcts == [100.0, 0.0, 0.0, 0.0]


def test_histogram_rejects_out_of_range():
    with pytest.raises(DomainError):
        reward_histogram([1.2])
    with pytest.raises(DomainError):
        reward_histogram([-0.1])


def test_histogram_classification_fixture():
    rewards = rewards_with_bin_counts(CLASS_BIN_COUNTS)
    counts, pcts = reward_histogram(rewards)
    assert counts == list(CLASS_BIN_COUNTS)
    assert sum(counts) == 1386
    assert pcts[-1] == pytest.approx(100 * 568 / 1386)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=200))
def test_histogram_partitions(rewards):
    counts, pcts = reward_histogram(rewards)
    assert sum(counts) == len(rewards)
    if rewards:
        assert sum(pcts) == pytest.approx(100.0)


# --- filtering ------------------------------------------------------------------------

def make_records(rewards):
    return [ScoredRecord(sample_id=f"s{i}", cot="c", reconstruction=None,
                         reward=r, breakdown=make_breakdown(r, False, True))
            for i, r in enumerate(rewards)]


def test_filter_fixture_counts():
    emo = make_records(rewards_with_bin_counts(CLASS_BIN_COUNTS))
    kept, n_kept, n_total = filter_high_subset(emo, 0.75)
    assert (n_kept, n_total) == (568, 1386)
    det = make_records(rewards_with_bin_counts(DET_BIN_COUNTS))
    kept, n_kept, n_total = filter_high_subset(det, 0.75)
    assert (n_kept, n_total) == (231, 350)


def test_filter_preserves_order_and_tau_zero():
    records = make_records([0.9, 0.1, 0.8])
    kept, n_kept, _ = filter_high_subset(records, 0.75)
    assert [r.sample_id for r in kept] == ["s0", "s2"]
    kept, n_kept, _ = filter_high_subset(records, 0.0)
    assert n_kept == 3


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=50),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_filter_monotone(rewards, tau1, tau2):
    lo, hi = min(tau1, tau2), max(tau1, tau2)
    records = make_records(rewards)
    kept_lo = {r.sample_id for r in filter_high_subset(records, lo)[0]}
    kept_hi = {r.sample_id for r in filter_high_subset(records, hi)[0]}
    assert kept_hi <= kept_lo
