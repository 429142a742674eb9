"""Acceptance gate: one test per release criterion.

Each test emits a single `ACCEPTANCE n (<name>): PASS|FAIL` line on the
real terminal (bypassing capture) so the gate can be read off directly.
Timed criteria assert their own wall-clock budgets.
"""

import contextlib
import json
import math
import random
import time

import pytest

from cotloop.audit import run_noise_audit
from cotloop.backends import (CueWorld, SyntheticReasonBackend,
                              SyntheticReconBackend)
from cotloop.cli import cli_dispatch
from cotloop.domain import (Box, BoxSet, Classification, Detection,
                            Distribution, Sample, make_breakdown, ScoredRecord)
from cotloop.grpo import smooth_curve, train_toy_policy
from cotloop.pipeline import save_dataset
from cotloop.textproto import render_annotation
from cotloop.reward import (closed_loop_reward, filter_high_subset,
                            reward_histogram)
from cotloop.similarity import (classification_similarity,
                                detection_similarity, hungarian_match, jsd)
from cotloop.textproto import parse_answer_for_task, validate_f_r1

from conftest import (CLASS_BIN_COUNTS, EMOTION_CATEGORIES,
                      DET_BIN_COUNTS, rewards_with_bin_counts)
from test_similarity import brute_force_max_total_iou, random_boxset


@contextlib.contextmanager
def criterion(capsys, n, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n} ({name}): PASS")


def random_distribution(rng, n_cats):
    vals = [rng.random() + 1e-6 for _ in range(n_cats)]
    total = sum(vals)
    return Distribution({f"c{i}": v / total for i, v in enumerate(vals)})


# --- 1: similarity identities ---------------------------------------------------

def test_criterion_1_similarity_identities(capsys):
    with criterion(capsys, 1, "similarity identities"):
        start = time.perf_counter()
        rng = random.Random("acceptance-1")
        for _ in range(1000):
            d = random_distribution(rng, rng.randint(2, 10))
            assert classification_similarity(d, d) == pytest.approx(1.0, abs=1e-9)
        for _ in range(1000):
            boxes = random_boxset(rng, max_boxes=6)
            if len(boxes) == 0:
                continue  # self-similarity is undefined for empty ground truth
            assert detection_similarity(boxes, boxes) == 1.0
        assert time.perf_counter() - start < 5.0


# --- 2: assignment oracle equivalence --------------------------------------------

def test_criterion_2_hungarian_oracle(capsys):
    with criterion(capsys, 2, "optimal assignment equals brute force"):
        start = time.perf_counter()
        rng = random.Random("acceptance-2")
        for _ in range(1000):
            gt, pred = random_boxset(rng, 6), random_boxset(rng, 6)
            got = hungarian_match(gt, pred).total_iou
            assert got == brute_force_max_total_iou(gt, pred)
        assert time.perf_counter() - start < 10.0


# --- 3: reward gating truth table --------------------------------------------------

def _gating_fixtures():
    """60 cases: 2 tasks x 3 CoT states x 3 parseable recon states x 3
    samples, plus 6 unparseable-reconstruction cases."""
    class_task = Classification(tuple(EMOTION_CATEGORIES))
    det_task = Detection(1024, 768)

    def class_sample(i, probs):
        return Sample(id=f"c{i}", image_ref=f"img://c{i}", task=class_task,
                      annotation=Distribution(probs))

    def det_sample(i, boxes):
        return Sample(id=f"d{i}", image_ref=f"img://d{i}", task=det_task,
                      annotation=BoxSet(boxes))

    zeros = {c: 0.0 for c in EMOTION_CATEGORIES}
    class_samples = [
        class_sample(0, {**zeros, "joy": 0.6, "surprise": 0.4}),
        class_sample(1, {**zeros, "anger": 0.25, "disgust": 0.25,
                         "fear": 0.25, "sadness": 0.25}),
        class_sample(2, {**zeros, "neutral": 1.0}),
    ]
    det_samples = [
        det_sample(0, (Box(100, 100, 300, 300),)),
        det_sample(1, (Box(0, 0, 200, 150), Box(500, 400, 900, 700))),
        det_sample(2, (Box(50, 600, 450, 760),)),
    ]

    def class_recon(sample, quality):
        gt = dict(sample.annotation.probs)
        if quality == "exact":
            out = gt
        elif quality == "near":
            cats = sample.task.categories
            top = sample.annotation.argmax(cats)
            other = next(c for c in cats if c != top)
            out = {**gt, top: gt[top] - 0.1, other: gt[other] + 0.1}
        else:  # wrong: all mass on a category the truth never uses
            empty = next(c for c in EMOTION_CATEGORIES
                         if sample.annotation.probs[c] == 0.0)
            out = {**zeros, empty: 1.0}
        return Distribution(out)

    def det_recon(sample, quality):
        if quality == "exact":
            return sample.annotation
        if quality == "near":
            return BoxSet(tuple(Box(b.x1 + 20, b.y1 + 10, b.x2 + 20, b.y2 + 10)
                                for b in sample.annotation.boxes))
        return BoxSet((Box(0, 0, 10, 10),))  # wrong: disjoint from every truth

    cots = {
        "classification": {
            "clean": "The subject's relaxed posture and soft lighting point to calm.",
            "leaking": "The face mostly shows joy, roughly 0.8 of the mix.",
            "malformed": "dim scene",  # under the narrative length floor
        },
        "detection": {
            "clean": "A knitted scarf rests draped over the wooden chair's back.",
            "leaking": "The scarf sits in the top-left region of the frame.",
            "malformed": "a scarf",
        },
    }

    cases = []
    for samples, recon_fn, key in ((class_samples, class_recon, "classification"),
                                   (det_samples, det_recon, "detection")):
        for cot_state in ("clean", "leaking", "malformed"):
            for quality in ("exact", "near", "wrong"):
                for s in samples:
                    recon = recon_fn(s, quality)
                    text = "<answer>" + render_annotation(recon, s.task) + "</answer>"
                    cases.append((s, cots[key][cot_state], cot_state, text, True))
            # one unparseable reconstruction per (task, CoT state)
            cases.append((samples[0], cots[key][cot_state], cot_state,
                          "I cannot determine the annotation.", False))
    return cases


def _oracle_similarity(sample, answer_text):
    """Independent recomputation of the similarity term from the raw text."""
    parsed = parse_answer_for_task(answer_text[len("<answer>"):-len("</answer>")],
                                   sample.task)
    if isinstance(sample.task, Classification):
        gt, pr = sample.annotation.probs, parsed.probs
        kl = sum(max(gt[c], 1e-10) * math.log(max(gt[c], 1e-10) / max(pr[c], 1e-10))
                 for c in gt)
        ms = sum((gt[c] - pr[c]) ** 2 for c in gt) / len(gt)
        total = max(sum(pr.values()), 1e-10)
        return min(1.0, math.exp(-(kl + ms)) * math.exp(-abs(math.log10(total))))
    return brute_force_max_total_iou(sample.annotation, parsed) / len(sample.annotation)


def test_criterion_3_reward_gating_matrix(capsys):
    with criterion(capsys, 3, "reward gating truth table"):
        cases = _gating_fixtures()
        assert len(cases) == 60
        for sample, cot, cot_state, recon_text, parseable in cases:
            b = closed_loop_reward(sample, cot, recon_text)
            assert b.leak_detected is (cot_state == "leaking")
            assert b.format_ok is (cot_state != "malformed" and parseable)
            gated = b.leak_detected or not b.format_ok
            if gated:
                assert b.composite == 0.0
            else:
                assert b.composite == b.similarity
                assert b.composite == pytest.approx(
                    _oracle_similarity(sample, recon_text), abs=1e-12)


# --- 4: histogram / filter fixtures ---------------------------------------------------

def test_criterion_4_histogram_fixtures(capsys):
    with criterion(capsys, 4, "histogram and filter fixtures"):
        for counts, n_kept, n_total, pct in (
                (CLASS_BIN_COUNTS, 568, 1386, 41.0),
                (DET_BIN_COUNTS, 231, 350, 66.0)):
            rewards = rewards_with_bin_counts(counts)
            got_counts, _ = reward_histogram(rewards)
            assert tuple(got_counts) == counts
            records = [ScoredRecord(sample_id=f"s{i}", cot="x " * 10,
                                    reconstruction=None, reward=r,
                                    breakdown=make_breakdown(r, False, True))
                       for i, r in enumerate(rewards)]
            _, kept, total = filter_high_subset(records, 0.75)
            assert (kept, total) == (n_kept, n_total)
            assert round(100.0 * kept / total) == pct


# --- 5: closed-loop convergence ---------------------------------------------------------

def test_criterion_5_toy_training_convergence(capsys):
    with criterion(capsys, 5, "toy training convergence"):
        start = time.perf_counter()
        world = CueWorld(num_samples=50, cues_per_sample=4, vocab_size=24, seed=0)
        result = train_toy_policy(world, steps=300, group_size=8, seed=0)
        smoothed = smooth_curve(result.curve, window=20)
        assert result.curve[0] < 0.35
        assert smoothed[-1] > 0.75
        assert all(b >= a for a, b in zip(smoothed, smoothed[1:]))
        assert time.perf_counter() - start < 60.0


# --- 6: noise separation ------------------------------------------------------------------

def test_criterion_6_noise_separation(capsys):
    with criterion(capsys, 6, "label-noise separation"):
        start = time.perf_counter()
        for kind in ("classification", "detection"):
            for seed in (0, 1, 2, 3, 4):
                world = CueWorld(kind=kind, num_samples=50, cues_per_sample=4,
                                 vocab_size=24, seed=seed)
                samples = [s.as_sample() for s in world.samples]
                report, _ = run_noise_audit(
                    samples, 0.3, SyntheticReasonBackend(world, fidelity=0.9),
                    SyntheticReconBackend(world), group_size=8, seed=seed)
                assert report.fraction_corrupted_below_tau >= 0.95, (kind, seed)
                assert report.fraction_clean_at_or_above_tau >= 0.60, (kind, seed)
        assert time.perf_counter() - start < 60.0


# --- 7: divergence metric checks ------------------------------------------------------------

def test_criterion_7_jsd_checks(capsys):
    with criterion(capsys, 7, "divergence metric checks"):
        rng = random.Random("acceptance-7")
        for _ in range(1000):
            n = rng.randint(2, 10)
            p, q = random_distribution(rng, n), random_distribution(rng, n)
            d_pq, d_qp = jsd(p, q), jsd(q, p)
            assert abs(d_pq - d_qp) <= 1e-12
            assert 0.0 <= d_pq <= math.log(2) + 1e-8
            if d_pq == 0.0:
                assert all(abs(p.probs[c] - q.probs[c]) < 1e-6 for c in p.probs)
        same = random_distribution(rng, 5)
        assert jsd(same, same) == 0.0
        disjoint = jsd(Distribution({"a": 1.0, "b": 0.0}),
                       Distribution({"a": 0.0, "b": 1.0}))
        assert disjoint == pytest.approx(0.693147, abs=1e-5)


# --- 8: format closure --------------------------------------------------------------------

def test_criterion_8_format_closure(capsys, tmp_path):
    with criterion(capsys, 8, "render/parse closure and SFT format"):
        rng = random.Random("acceptance-8")
        class_task = Classification(tuple(f"c{i}" for i in range(6)))
        det_task = Detection(1024, 768)
        for i in range(1000):
            if i % 2 == 0:
                ann, task = random_distribution(rng, 6), class_task
                back = parse_answer_for_task(render_annotation(ann, task), task)
                assert all(abs(ann.probs[c] - back.probs[c]) < 1e-6
                           for c in ann.probs)
            else:
                ann = random_boxset(rng, 4)
                if len(ann) == 0:
                    continue
                back = parse_answer_for_task(render_annotation(ann, det_task),
                                             det_task)
                for a, b in zip(ann.boxes, back.boxes):
                    assert all(abs(x - y) < 1e-6
                               for x, y in zip(a.as_tuple(), b.as_tuple()))

        # Every exported SFT target is a valid think-answer output.
        world = CueWorld(num_samples=12, cues_per_sample=4, vocab_size=24, seed=0)
        dataset = tmp_path / "data.jsonl"
        records = tmp_path / "records.jsonl"
        sft = tmp_path / "sft.jsonl"
        save_dataset([s.as_sample() for s in world.samples], world.task,
                     str(dataset))
        config = tmp_path / "config.yaml"
        config.write_text("world: {kind: classification, num_samples: 12, "
                          "cues_per_sample: 4, vocab_size: 24, seed: 0}\n")
        assert cli_dispatch(["gen-cot", "--config", str(config),
                             "--records", str(records)]) == 0
        assert cli_dispatch(["export-sft", "--records", str(records),
                             "--dataset", str(dataset),
                             "--output", str(sft)]) == 0
        lines = sft.read_text().splitlines()
        assert len(lines) > 1
        for line in lines[1:]:
            assert validate_f_r1(json.loads(line)["target"], world.task)


# --- 9: end-to-end determinism ---------------------------------------------------------------

def _full_run(root, capsys):
    root.mkdir()
    config = root / "config.yaml"
    config.write_text("world: {kind: classification, num_samples: 16, "
                      "cues_per_sample: 4, vocab_size: 24, seed: 0}\n"
                      "backends: {reason: {kind: synthetic, fidelity: 0.9}}\n")
    world = CueWorld(num_samples=16, cues_per_sample=4, vocab_size=24, seed=0)
    dataset = root / "data.jsonl"
    save_dataset([s.as_sample() for s in world.samples], world.task, str(dataset))
    records, sft, audit = root / "records.jsonl", root / "sft.jsonl", root / "audit.txt"
    assert cli_dispatch(["gen-cot", "--config", str(config),
                         "--records", str(records), "--seed", "0"]) == 0
    capsys.readouterr()
    assert cli_dispatch(["filter", "--records", str(records)]) == 0
    filter_stdout = capsys.readouterr().out
    assert cli_dispatch(["export-sft", "--records", str(records),
                         "--dataset", str(dataset), "--output", str(sft)]) == 0
    assert cli_dispatch(["audit", "--config", str(config), "--seed", "0",
                         "--output", str(audit)]) == 0
    return {"records": records.read_bytes(), "sft": sft.read_bytes(),
            "audit": audit.read_bytes(), "dataset": dataset.read_bytes(),
            "filter_stdout": filter_stdout}


def test_criterion_9_end_to_end_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "end-to-end determinism"):
        a = _full_run(tmp_path / "run_a", capsys)
        b = _full_run(tmp_path / "run_b", capsys)
        assert a == b
