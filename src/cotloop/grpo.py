"""Group sampling, group-relative advantages, best-of-group retention,
and a tabular toy policy trained against the closed-loop reward.

The toy trainer demonstrates that the reward structure alone drives a
policy from near-random cue selection to full-cue narratives; it uses
plain score-function ascent on group-standardized advantages, with no
KL penalty or ratio clipping (the policy is tabular and freshly
initialized).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

from .backends import (CueWorld, DEFAULT_TEMPLATE_BANK, SyntheticSample, synthetic_reason,
                       synthetic_reconstruct)
from .domain import Annotation, RewardBreakdown, Sample, ScoredRecord
from .errors import DomainError
from .reward import closed_loop_reward

ADV_EPS = 1e-8
# Seeded distractor cues per sample that the toy policy may wrongly include.
TOY_DISTRACTORS = 3


def compute_group_advantages(rewards: Sequence[float]) -> list[float]:
    """Group-standardized rewards: (r - mean) / (population std + 1e-8).

    All-equal groups get all-zero advantages.
    """
    g = len(rewards)
    if g < 2:
        raise DomainError(f"advantage groups need at least 2 members, got {g}")
    mean = sum(rewards) / g
    var = sum((r - mean) ** 2 for r in rewards) / g
    if var == 0.0:
        return [0.0] * g
    std = math.sqrt(var)
    return [(r - mean) / (std + ADV_EPS) for r in rewards]


@dataclass(frozen=True)
class GroupMember:
    cot: str
    reconstruction: Optional[Annotation]
    breakdown: RewardBreakdown


@dataclass(frozen=True)
class Group:
    """G scored completions for one sample, with normalized advantages."""

    sample_id: str
    members: tuple[GroupMember, ...]
    advantages: tuple[float, ...]

    @classmethod
    def build(cls, sample_id: str, members: Sequence[GroupMember]) -> "Group":
        rewards = [m.breakdown.composite for m in members]
        return cls(sample_id=sample_id, members=tuple(members),
                   advantages=tuple(compute_group_advantages(rewards)))

    @property
    def rewards(self) -> list[float]:
        return [m.breakdown.composite for m in self.members]


def select_best_of_group(sample_id: str,
                         members: Sequence[GroupMember]) -> tuple[int, ScoredRecord]:
    """Highest-reward member; ties break to the lowest index."""
    if not members:
        raise DomainError("cannot select from an empty group")
    best = max(range(len(members)), key=lambda i: (members[i].breakdown.composite, -i))
    m = members[best]
    record = ScoredRecord(sample_id=sample_id, cot=m.cot,
                          reconstruction=m.reconstruction,
                          reward=m.breakdown.composite, breakdown=m.breakdown)
    return best, record


# --- toy policy --------------------------------------------------------------

def _draw(choices: Sequence[str], cum: Sequence[float], rand) -> str:
    """One weighted draw, with `rand` a bound `Random.random`: the expression
    `Random.choices(choices, cum_weights=cum)` evaluates for each draw, so it
    takes the same RNG stream and returns the same choice."""
    return choices[bisect_right(cum, rand() * (cum[-1] + 0.0), 0, len(cum) - 1)]


@dataclass
class ToyPolicy:
    """Tabular softmax policy: per-bucket logits over discrete choices."""

    logits: dict[str, dict[str, float]]
    learning_rate: float = 0.5

    def probs(self, bucket: str) -> dict[str, float]:
        ls = self.logits[bucket]
        m = max(ls.values())
        exps = {c: math.exp(v - m) for c, v in ls.items()}
        z = sum(exps.values())
        return {c: e / z for c, e in exps.items()}

    def cum_weights(self, bucket: str) -> tuple[list[str], list[float]]:
        """A bucket's choices and their cumulative probabilities: the
        `cum_weights` that `random.choices` builds from the probabilities, so
        a draw with them takes the same RNG stream."""
        probs = self.probs(bucket)
        choices = list(probs)
        return choices, list(accumulate(probs[c] for c in choices))

    def sample_choices(self, bucket: str, rng: random.Random, k: int) -> list[str]:
        choices, cum = self.cum_weights(bucket)
        return [_draw(choices, cum, rng.random) for _ in range(k)]

    def update(self, bucket: str, chosen: Sequence[str],
               advantages: Sequence[float]) -> None:
        """Score-function ascent on the group surrogate.

        For each member: raise the chosen logit by lr*a*(1-p), lower all
        others by lr*a*p, using pre-update probabilities.
        """
        if len(chosen) != len(advantages):
            raise DomainError("chosen/advantages length mismatch")
        ls = self.logits[bucket]
        for c in chosen:
            if c not in ls:
                raise DomainError(f"invalid choice id {c!r} for bucket {bucket!r}")
        probs = self.probs(bucket)
        lr = self.learning_rate
        grad = {c: 0.0 for c in ls}
        for c, a in zip(chosen, advantages):
            for k in grad:
                grad[k] += lr * a * ((1.0 if k == c else 0.0) - probs[k])
        for k, g in grad.items():
            ls[k] += g
            if not math.isfinite(ls[k]):
                raise DomainError("policy logits diverged")


def build_toy_policy(world: CueWorld, learning_rate: float = 0.5) -> ToyPolicy:
    """Factored buckets per sample: one template bucket plus one
    include/exclude bucket per candidate cue (true cues + seeded
    distractors). A policy draw assembles template + cue subset from
    the per-bucket choices."""
    logits: dict[str, dict[str, float]] = {}
    for sample in world.samples:
        pool = world.distractor_pool(sample, TOY_DISTRACTORS)
        logits[f"{sample.id}|template"] = {f"t{t}": 0.0 for t in range(len(DEFAULT_TEMPLATE_BANK))}
        for cue in pool:
            logits[f"{sample.id}|cue|{cue}"] = {"in": 0.0, "out": 0.0}
    return ToyPolicy(logits=logits, learning_rate=learning_rate)


@dataclass
class ToyTrainResult:
    curve: list[float] = field(default_factory=list)
    policy: Optional[ToyPolicy] = None


@dataclass
class _ToyPlan:
    """One sample's buckets in policy order, the cue each cue bucket names,
    and the composite reward of every draw scored so far."""

    sample: SyntheticSample
    target: Sample
    buckets: list[str]
    cues: list[str]
    template: int
    cache: dict[tuple[str, ...], float]

    @classmethod
    def build(cls, sample: SyntheticSample, policy: ToyPolicy) -> "_ToyPlan":
        buckets = [b for b in policy.logits if b.startswith(f"{sample.id}|")]
        return cls(sample=sample, target=sample.as_sample(), buckets=buckets,
                   cues=[b.rsplit("|", 1)[1] for b in buckets],
                   template=buckets.index(f"{sample.id}|template"), cache={})

    def reward(self, world: CueWorld, draw: tuple[str, ...]) -> float:
        """A draw maps one-to-one onto (template, cue subset), so the cache
        misses once per distinct CoT."""
        composite = self.cache.get(draw)
        if composite is None:
            subset = sorted(cue for cue, c in zip(self.cues, draw) if c == "in")
            cot = synthetic_reason(self.sample, int(draw[self.template][1:]), subset)
            composite = self.cache[draw] = closed_loop_reward(
                self.target, cot, synthetic_reconstruct(world, cot)).composite
        return composite


def train_toy_policy(world: CueWorld, steps: int, group_size: int, seed: int,
                     learning_rate: float = 0.5,
                     minibatch_size: Optional[int] = None) -> ToyTrainResult:
    """Train a fresh toy policy (see `build_toy_policy`) and return the
    per-step mean best-of-group reward curve. Fully deterministic under a
    fixed seed.

    By default every step visits the whole dataset (full batch), which
    keeps the per-step mean reward low-variance; pass a smaller
    minibatch_size to trade smoothness for speed.

    Each member draws one choice per bucket, in policy order, by bisecting
    the bucket's cumulative weights (one `ToyPolicy.cum_weights` table per
    bucket per sample-step): the stream `Random.choices` takes. Each sample
    caches the reward of every draw (the tuple of its choices) it has
    scored, so a CoT is built and scored only for a new draw.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if group_size < 2:
        raise DomainError("group size must be >= 2")
    if minibatch_size is not None and minibatch_size < 1:
        raise DomainError("minibatch size must be >= 1")
    policy = build_toy_policy(world, learning_rate=learning_rate)
    # String seeds hash deterministically across processes (unlike tuples).
    rng = random.Random(f"toy-train|{seed}")
    rand = rng.random
    plans = [_ToyPlan.build(s, policy) for s in world.samples]
    result = ToyTrainResult(policy=policy)
    batch_size = len(plans) if minibatch_size is None else min(minibatch_size, len(plans))
    for _ in range(steps):
        step_best: list[float] = []
        for plan in rng.sample(plans, batch_size):
            # Logits change only after all G draws: one softmax per bucket.
            tables = [policy.cum_weights(b) for b in plan.buckets]
            draws = [tuple([_draw(choices, cum, rand) for choices, cum in tables])
                     for _g in range(group_size)]
            rewards = [plan.reward(world, d) for d in draws]
            advantages = compute_group_advantages(rewards)
            if any(advantages):  # all-zero advantages update nothing
                for i, b in enumerate(plan.buckets):
                    policy.update(b, [d[i] for d in draws], advantages)
            step_best.append(max(rewards))
        result.curve.append(sum(step_best) / len(step_best))
    return result


def smooth_curve(curve: Sequence[float], window: int = 20) -> list[float]:
    """Trailing moving average used for convergence checks."""
    out = []
    for i in range(len(curve)):
        lo = max(0, i - window + 1)
        seg = curve[lo:i + 1]
        # Exactly-rounded sum: plain sum() rounds each partial, which can
        # make means of near-identical windows differ by 1 ULP.
        out.append(math.fsum(seg) / len(seg))
    return out


def export_curve(curve: Sequence[float], path: str) -> None:
    """Two-column text file (step, mean_reward) for plotting."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("step\tmean_reward\n")
        for i, v in enumerate(curve, start=1):
            f.write(f"{i}\t{v:.6f}\n")
