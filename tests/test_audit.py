"""Label-corruption audit: corruption validity, separation, reproducibility."""

import random

import pytest

from cotloop.audit import (AuditReport, corrupt_classification,
                           corrupt_dataset, corrupt_detection,
                           run_noise_audit)
from cotloop.backends import (CueWorld, SyntheticReasonBackend,
                              SyntheticReconBackend)
from cotloop.domain import (Box, BoxSet, Classification, Detection,
                            Distribution, Sample)
from cotloop.errors import CorruptionInfeasible, DomainError
from cotloop.similarity import iou


# --- corrupt_classification ------------------------------------------------------

def test_corrupt_classification_changes_argmax(emotion_sample):
    for seed in range(10):
        rng = random.Random(seed)
        corrupted = corrupt_classification(emotion_sample, rng)
        cats = emotion_sample.task.categories
        assert corrupted.annotation.argmax(cats) != \
            emotion_sample.annotation.argmax(cats)
        assert corrupted.annotation.total() == pytest.approx(1.0, abs=1e-9)
        assert corrupted.image_ref == emotion_sample.image_ref  # label wrong, image right


def test_corrupt_classification_deterministic(emotion_sample):
    a = corrupt_classification(emotion_sample, random.Random(5))
    b = corrupt_classification(emotion_sample, random.Random(5))
    assert a.annotation.probs == b.annotation.probs


def test_corrupt_classification_single_category():
    task = Classification(("only",))
    s = Sample(id="s", image_ref="x", task=task,
               annotation=Distribution({"only": 1.0}))
    with pytest.raises(DomainError):
        corrupt_classification(s, random.Random(0))


# --- corrupt_detection ------------------------------------------------------------

def det_sample(boxes, w=100, h=100):
    return Sample(id="d", image_ref="x", task=Detection(w, h),
                  annotation=BoxSet(tuple(boxes)))


def test_corrupt_detection_zero_overlap():
    s = det_sample([Box(10, 10, 50, 50)])
    for seed in range(10):
        corrupted = corrupt_detection(s, random.Random(seed))
        box = corrupted.annotation.boxes[0]
        assert iou(box, Box(10, 10, 50, 50)) == 0.0
        assert 0 <= box.x1 <= box.x2 <= 100
        assert 0 <= box.y1 <= box.y2 <= 100
        assert min(box.x2 - box.x1, box.y2 - box.y1) >= 5.0  # size floor


def test_corrupt_detection_deterministic():
    s = det_sample([Box(10, 10, 50, 50)])
    a = corrupt_detection(s, random.Random(7))
    b = corrupt_detection(s, random.Random(7))
    assert a.annotation.boxes == b.annotation.boxes


def test_corrupt_detection_infeasible():
    s = det_sample([Box(0, 0, 100, 100)])  # box covers the whole image
    with pytest.raises(CorruptionInfeasible):
        corrupt_detection(s, random.Random(0))


# --- corrupt_dataset ---------------------------------------------------------------

def test_corrupt_dataset_floor_count_and_order(class_world):
    samples = [s.as_sample() for s in class_world.samples]  # 12 samples
    mixed, chosen = corrupt_dataset(samples, 0.3, seed=0)
    assert len(chosen) == 3  # floor(0.3 * 12)
    assert [m.id for m in mixed] == [s.id for s in samples]
    for orig, m in zip(samples, mixed):
        if orig.id in chosen:
            assert m.annotation.probs != orig.annotation.probs
        else:
            assert m.annotation.probs == orig.annotation.probs


def test_corrupt_dataset_deterministic(class_world):
    samples = [s.as_sample() for s in class_world.samples]
    a_mixed, a_ids = corrupt_dataset(samples, 0.3, seed=1)
    b_mixed, b_ids = corrupt_dataset(samples, 0.3, seed=1)
    assert a_ids == b_ids
    assert [m.annotation.probs for m in a_mixed] == \
        [m.annotation.probs for m in b_mixed]


def test_corrupt_dataset_fraction_bounds(class_world):
    samples = [s.as_sample() for s in class_world.samples]
    with pytest.raises(DomainError):
        corrupt_dataset(samples, 0.0, seed=0)
    with pytest.raises(DomainError):
        corrupt_dataset(samples, 1.0, seed=0)


# --- run_noise_audit ----------------------------------------------------------------

def audit(world, seed):
    samples = [s.as_sample() for s in world.samples]
    return run_noise_audit(samples, 0.3,
                           SyntheticReasonBackend(world, fidelity=0.9),
                           SyntheticReconBackend(world),
                           group_size=8, seed=seed)


def test_audit_separates_clean_from_corrupted(class_world):
    report, stage = audit(class_world, seed=0)
    assert report.n_clean + report.n_corrupted == len(class_world.samples)
    assert sum(report.clean_counts) == report.n_clean
    assert sum(report.corrupted_counts) == report.n_corrupted
    assert report.fraction_corrupted_below_tau >= 0.95
    assert report.fraction_clean_at_or_above_tau >= 0.6


def test_audit_reproducible(class_world):
    a, _ = audit(class_world, seed=3)
    b, _ = audit(class_world, seed=3)
    assert a == b


def test_audit_mean_separation_sweep():
    # Mean corrupted reward is below mean clean reward for every seed.
    for seed in range(20):
        world = CueWorld(num_samples=10, cues_per_sample=4, vocab_size=24,
                         seed=seed)
        samples = [s.as_sample() for s in world.samples]
        _, stage = run_noise_audit(samples, 0.3,
                                   SyntheticReasonBackend(world, fidelity=0.9),
                                   SyntheticReconBackend(world),
                                   group_size=4, seed=seed)
        _, ids = corrupt_dataset(samples, 0.3, seed)
        clean = [r.reward for r in stage.records if r.sample_id not in ids]
        corrupted = [r.reward for r in stage.records if r.sample_id in ids]
        assert sum(corrupted) / len(corrupted) < sum(clean) / len(clean)


def test_clean_control_top_heavy(class_world):
    from cotloop.pipeline import run_closed_loop_stage
    from cotloop.reward import reward_histogram
    samples = [s.as_sample() for s in class_world.samples]
    stage = run_closed_loop_stage(samples,
                                  SyntheticReasonBackend(class_world, 0.9),
                                  SyntheticReconBackend(class_world),
                                  group_size=8, seed=0)
    counts, _ = reward_histogram([r.reward for r in stage.records])
    assert counts[3] > counts[0]


def test_audit_report_render(class_world):
    report, _ = audit(class_world, seed=0)
    text = report.render()
    assert "label-noise audit" in text
    assert "[0.75-1.00]" in text
    assert "corrupted below tau" in text
