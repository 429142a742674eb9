"""Group advantages, best-of-group retention, and the toy policy trainer."""

import hashlib
import math
import random
import sys
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from cotloop.backends import CueWorld, synthetic_reason, synthetic_reconstruct
from cotloop.domain import ScoredRecord, make_breakdown
from cotloop.errors import DomainError
from cotloop.grpo import (Group, ToyPolicy, ToyTrainResult, _draw,
                          build_toy_policy, compute_group_advantages, export_curve,
                          select_best_of_group, smooth_curve, train_toy_policy)
from cotloop.reward import closed_loop_reward


def member(reward):
    return ScoredRecord(sample_id="s", cot="a sufficiently descriptive narrative text",
                        reconstruction=None, reward=reward,
                        breakdown=make_breakdown(reward, False, True))


# --- advantages -----------------------------------------------------------------

def test_advantages_reference_example():
    adv = compute_group_advantages([1.0, 0.0, 0.5, 0.5])
    assert adv[0] == pytest.approx(math.sqrt(2), abs=1e-5)
    assert adv[1] == pytest.approx(-math.sqrt(2), abs=1e-5)
    assert adv[2] == pytest.approx(0.0, abs=1e-5)
    assert adv[3] == pytest.approx(0.0, abs=1e-5)


def test_advantages_constant_and_small_group():
    assert compute_group_advantages([0.3, 0.3, 0.3]) == [0.0, 0.0, 0.0]
    assert compute_group_advantages([0.5]) == [0.0]
    with pytest.raises(DomainError):
        compute_group_advantages([])


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                max_size=16))
def test_advantages_centered_unit_variance(rewards):
    adv = compute_group_advantages(rewards)
    # The 1e-8 epsilon in the denominator keeps near-constant groups from
    # blowing up but makes the variance slightly below one.
    assert sum(adv) == pytest.approx(0.0, abs=1e-6)
    mean = sum(rewards) / len(rewards)
    std = (sum((r - mean) ** 2 for r in rewards) / len(rewards)) ** 0.5
    if std >= 1e-3:
        var = sum(a * a for a in adv) / len(adv)
        assert 0.9999 <= var <= 1.0


# --- groups and retention ----------------------------------------------------------

def test_group_build_carries_advantages():
    g = Group.build("s", [member(1.0), member(0.0), member(0.5), member(0.5)])
    assert g.rewards == [1.0, 0.0, 0.5, 0.5]
    assert len(g.advantages) == 4


def test_select_best_of_group_tie_break():
    idx, record = select_best_of_group([member(0.2), member(0.9), member(0.9)])
    assert idx == 1
    assert record.reward == 0.9
    assert record.sample_id == "s"


def test_select_best_all_zero_still_retained():
    idx, record = select_best_of_group([member(0.0), member(0.0)])
    assert idx == 0 and record.reward == 0.0


# --- toy policy ------------------------------------------------------------------

def test_policy_probs_and_invalid_choice():
    p = ToyPolicy(logits={"b": {"x": 0.0, "y": 0.0}})
    probs = p.probs("b")
    assert probs == pytest.approx({"x": 0.5, "y": 0.5})
    with pytest.raises(DomainError):
        p.update("b", ["z"], [1.0])


def test_policy_update_signs():
    p = ToyPolicy(logits={"b": {"x": 0.0, "y": 0.0}}, learning_rate=0.5)
    p.update("b", ["x"], [1.0])
    assert p.probs("b")["x"] > 0.5
    before = dict(p.logits["b"])
    p.update("b", ["y"], [0.0])  # zero advantage: no change
    assert p.logits["b"] == before


# Weights with zeros (zero-probability choices, repeated cumulative values),
# ints and floats; one-choice tables included.
_WEIGHTS = st.lists(st.one_of(st.just(0), st.just(0.0), st.integers(0, 5), st.floats(0, 10)),
                    min_size=1, max_size=6).filter(lambda w: sum(w) > 0)


@given(logits=st.lists(st.floats(-30, 30), min_size=1, max_size=6),
       weights=_WEIGHTS, seed=st.integers(0, 2**32))
def test_cumulative_draws_take_the_weighted_stream(logits, weights, seed):
    p = ToyPolicy(logits={"b": {f"c{i}": v for i, v in enumerate(logits)}})
    probs = p.probs("b")
    expected = random.Random(seed).choices(list(probs), weights=list(probs.values()), k=20)
    assert p.sample_choices("b", random.Random(seed), 20) == expected

    pop, cum = [f"c{i}" for i in range(len(weights))], list(accumulate(weights))
    rng = random.Random(seed)
    drawn = [_draw(pop, cum, rng.random) for _ in range(20)]
    assert drawn == random.Random(seed).choices(pop, cum_weights=cum, k=20)
    # Below the smallest normal float, rand() * total can round up to total, and
    # Random.choices itself then draws a zero-weight last choice.
    if cum[-1] >= sys.float_info.min:
        assert all(weights[pop.index(c)] > 0 for c in drawn)


def test_policy_bandit_convergence():
    # Score-function ascent on a 3-arm bandit: the dominant arm's
    # probability exceeds 0.9 within 200 updates.
    p = ToyPolicy(logits={"b": {"x": 0.0, "y": 0.0, "z": 0.0}}, learning_rate=0.5)
    arm_reward = {"x": 1.0, "y": 0.0, "z": 0.0}
    rng = random.Random("bandit")
    for _ in range(200):
        chosen = p.sample_choices("b", rng, 4)
        rewards = [arm_reward[c] for c in chosen]
        adv = compute_group_advantages(rewards)
        p.update("b", chosen, adv)
    assert p.probs("b")["x"] >= 0.9


# --- training ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_world():
    return CueWorld(num_samples=6, cues_per_sample=3, vocab_size=12, seed=0)


def test_build_toy_policy_buckets(tiny_world):
    policy = build_toy_policy(tiny_world)
    s = tiny_world.samples[0]
    assert f"{s.id}|template" in policy.logits
    for cue in tiny_world.distractor_pool(s, 3):
        assert policy.logits[f"{s.id}|cue|{cue}"] == {"in": 0.0, "out": 0.0}


def test_train_toy_policy_basic_contracts(tiny_world):
    res = train_toy_policy(tiny_world, steps=1, group_size=4, seed=0)
    assert len(res.curve) == 1
    a = train_toy_policy(tiny_world, steps=5, group_size=4, seed=3)
    b = train_toy_policy(tiny_world, steps=5, group_size=4, seed=3)
    assert a.curve == b.curve
    with pytest.raises(DomainError):
        train_toy_policy(tiny_world, steps=0, group_size=4, seed=0)
    with pytest.raises(DomainError):
        train_toy_policy(tiny_world, steps=1, group_size=1, seed=0)


def test_training_improves_reward(tiny_world):
    res = train_toy_policy(tiny_world, steps=120, group_size=8, seed=0)
    smoothed = smooth_curve(res.curve, 20)
    assert smoothed[-1] > smoothed[0]
    assert smoothed[-1] > 0.75


def test_best_of_group_grows_with_group_size(tiny_world):
    """Mean best-of-group reward is higher for G=8 than G=2 under the
    same random-subset policy."""
    from cotloop.backends import synthetic_reason, synthetic_reconstruct
    from cotloop.reward import closed_loop_reward

    def mean_best(g_size, runs=200):
        rng = random.Random("gsize")
        total = 0.0
        for i in range(runs):
            s = tiny_world.samples[i % len(tiny_world.samples)]
            pool = tiny_world.distractor_pool(s, 3)
            best = 0.0
            for _ in range(g_size):
                subset = [c for c in pool if rng.random() < 0.5]
                cot = synthetic_reason(0, subset)
                recon = synthetic_reconstruct(tiny_world, cot)
                best = max(best, closed_loop_reward(s.as_sample(), cot, recon).composite)
            total += best
        return total / runs

    assert mean_best(8) > mean_best(2)


# --- smoothing / export --------------------------------------------------------------

def test_smooth_curve_trailing_window():
    assert smooth_curve([1.0, 2.0, 3.0, 4.0], window=2) == [1.0, 1.5, 2.5, 3.5]
    assert smooth_curve([], window=5) == []


def test_export_curve(tmp_path):
    path = tmp_path / "curve.tsv"
    export_curve([0.125, 0.5], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "step\tmean_reward"
    assert lines[1] == "1\t0.125000"
    assert lines[2] == "2\t0.500000"


# sha256 of repr(curve) for 20 samples, 40 steps, G=8, seed 0. Any change to
# the RNG draw order, the bucket order or the reward shows up here.
GOLDEN_TOY_CURVE_SHA256 = (
    "51892b0b33b40a5cc65d4d5d5d63054034008b6b00025e4f93c0040ef1242b1e")


def test_toy_curve_is_byte_stable():
    world = CueWorld(num_samples=20, cues_per_sample=4, vocab_size=24, seed=0)
    curve = train_toy_policy(world, steps=40, group_size=8, seed=0).curve
    assert hashlib.sha256(repr(curve).encode()).hexdigest() == GOLDEN_TOY_CURVE_SHA256


def _oracle_train_toy_policy(world, steps, group_size, seed, learning_rate=0.5,
                             minibatch_size=None):
    """The trainer before its per-sample draw tables: `Random.choices` per
    bucket and member, a dict per draw, a reward cache keyed by (sample id,
    template, cue subset) and a `Group` per sample-step."""
    policy = build_toy_policy(world, learning_rate=learning_rate)
    rng = random.Random(f"toy-train|{seed}")
    samples = list(world.samples)
    buckets = {s.id: [b for b in policy.logits if b.startswith(f"{s.id}|")]
               for s in samples}
    result = ToyTrainResult(policy=policy)
    reward_cache = {}
    batch_size = len(samples) if minibatch_size is None else min(
        minibatch_size, len(samples))
    for _ in range(steps):
        batch = rng.sample(samples, batch_size)
        step_best = []
        for sample in batch:
            tables = [(b, *policy.cum_weights(b)) for b in buckets[sample.id]]
            draws = []
            members = []
            for _g in range(group_size):
                draw = {b: rng.choices(choices, cum_weights=cum)[0]
                        for b, choices, cum in tables}
                draws.append(draw)
                template_id = int(draw[f"{sample.id}|template"][1:])
                subset = sorted(b.rsplit("|", 1)[1] for b, c in draw.items()
                                if c == "in")
                cot = synthetic_reason(template_id, subset)
                key = (sample.id, template_id, tuple(subset))
                if key not in reward_cache:
                    reward_cache[key] = closed_loop_reward(
                        sample.as_sample(), cot, synthetic_reconstruct(world, cot))
                breakdown = reward_cache[key]
                members.append(ScoredRecord(sample.id, cot, None, breakdown.composite,
                                            breakdown))
            group = Group.build(sample.id, members)
            if any(group.advantages):
                for b in buckets[sample.id]:
                    policy.update(b, [d[b] for d in draws], group.advantages)
            step_best.append(max(group.rewards))
        result.curve.append(sum(step_best) / len(step_best))
    return result


@st.composite
def _toy_settings(draw):
    samples, vocab = draw(st.integers(2, 12)), draw(st.integers(6, 16))
    world = dict(kind=draw(st.sampled_from(["classification", "detection"])),
                 num_samples=samples, cues_per_sample=draw(st.integers(1, min(4, vocab - 3))),
                 vocab_size=vocab, seed=draw(st.integers(0, 2**16)))
    train = dict(steps=draw(st.integers(1, 6)), group_size=draw(st.integers(2, 8)),
                 seed=draw(st.integers(0, 2**16)),
                 minibatch_size=draw(st.none() | st.integers(1, samples)))
    return world, train


@settings(deadline=None)
@given(_toy_settings())
def test_trainer_matches_the_pre_table_oracle(toy):
    world_kw, train_kw = toy
    world = CueWorld(**world_kw)
    got = train_toy_policy(world, **train_kw)
    want = _oracle_train_toy_policy(world, **train_kw)
    assert repr(got.curve) == repr(want.curve)
    assert got.policy.logits == want.policy.logits
