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

from .backends import (CueWorld, DEFAULT_TEMPLATE_BANK, require, synthetic_reason,
                       synthetic_reconstruct)
from .domain import Sample, ScoredRecord, sum_in_order
from .errors import DomainError
from .reward import closed_loop_reward

ADV_EPS = 1e-8
# Seeded distractor cues per sample that the toy policy may wrongly include.
TOY_DISTRACTORS = 3


def compute_group_advantages(rewards: Sequence[float]) -> list[float]:
    """Group-standardized rewards: (r - mean) / (population std + 1e-8).

    All-equal groups, a group of one among them, get all-zero advantages.
    """
    if not rewards:
        raise DomainError("an advantage group needs at least one member")
    g = len(rewards)
    mean = sum_in_order(rewards) / g
    var = sum_in_order((r - mean) ** 2 for r in rewards) / g
    if var == 0.0:
        return [0.0] * g
    std = math.sqrt(var)
    return [(r - mean) / (std + ADV_EPS) for r in rewards]


@dataclass(frozen=True)
class Group:
    """G scored completions for one sample, with normalized advantages."""

    sample_id: str
    members: tuple[ScoredRecord, ...]
    advantages: tuple[float, ...]

    @classmethod
    def build(cls, sample_id: str, members: Sequence[ScoredRecord]) -> "Group":
        return cls(sample_id=sample_id, members=tuple(members),
                   advantages=tuple(compute_group_advantages([m.reward for m in members])))

    @property
    def rewards(self) -> list[float]:
        return [m.reward for m in self.members]


def best_of_group(rewards: Sequence[float]) -> int:
    """The index of the highest reward of a group; ties break to the lowest
    index. The closed-loop stage keeps that member's record and builds no other."""
    if not rewards:
        raise DomainError("cannot select from an empty group")
    return max(range(len(rewards)), key=rewards.__getitem__)


# --- toy policy --------------------------------------------------------------

def _draw(choices: Sequence[str], cum: Sequence[float], rand) -> str:
    """One weighted draw, with `rand` a bound `Random.random`: the expression
    `Random.choices(choices, cum_weights=cum)` evaluates for each draw, so it
    takes the same RNG stream and returns the same choice."""
    return choices[bisect_right(cum, rand() * (cum[-1] + 0.0), 0, len(cum) - 1)]


def _softmax(values: Sequence[float]) -> list[float]:
    """exp(v - max) / sum, in the order given: the policy's one softmax."""
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    z = sum_in_order(exps)
    return [e / z for e in exps]


@dataclass
class ToyPolicy:
    """Tabular softmax policy: per-bucket logits over discrete choices."""

    logits: dict[str, dict[str, float]]
    learning_rate: float = 0.5

    def probs(self, bucket: str) -> dict[str, float]:
        ls = self.logits[bucket]
        return dict(zip(ls, _softmax(list(ls.values()))))

    def sample_choices(self, bucket: str, rng: random.Random, k: int) -> list[str]:
        """k draws with the cumulative weights `random.choices` builds from the
        probabilities, so they take the same RNG stream."""
        ls = self.logits[bucket]
        choices, cum = list(ls), list(accumulate(_softmax(list(ls.values()))))
        return [_draw(choices, cum, rng.random) for _ in range(k)]

    def update(self, bucket: str, chosen: Sequence[str], advantages: Sequence[float],
               probs: Optional[Sequence[float]] = None) -> None:
        """Score-function ascent on the group surrogate.

        For each member: raise the chosen logit by lr*a*(1-p), lower all
        others by lr*a*p, using pre-update probabilities. Each logit adds
        up its members' terms in member order, then takes that sum.

        `probs`, when given, are those pre-update probabilities: the list
        `_softmax` returns for the bucket's current logits, in logit order
        (a caller that keeps them saves the softmax). None computes them.
        """
        if len(chosen) != len(advantages):
            raise DomainError("chosen/advantages length mismatch")
        ls = self.logits[bucket]
        for c in chosen:
            if c not in ls:
                raise DomainError(f"invalid choice id {c!r} for bucket {bucket!r}")
        if probs is None:
            probs = _softmax(list(ls.values()))
        lr = self.learning_rate
        scaled = [lr * a for a in advantages]
        for k, p in zip(ls, probs):
            hit, miss = 1.0 - p, 0.0 - p
            g = 0.0
            for c, s in zip(chosen, scaled):
                g += s * (hit if k == c else miss)
            ls[k] += g
            if not math.isfinite(ls[k]):
                raise DomainError("policy logits diverged")


def build_toy_policy(world: CueWorld, learning_rate: float = 0.5) -> ToyPolicy:
    """Factored buckets per sample: one template bucket `{id}|template` over
    the choices `t0`, `t1`, ... of the template bank, then one `{id}|cue|{cue}`
    bucket over `in`/`out` per candidate cue (true cues + seeded distractors,
    in `distractor_pool` order), all logits 0. A policy draw assembles
    template + cue subset from the per-bucket choices."""
    return _toy_policy_and_plans(world, learning_rate)[0]


@dataclass
class ToyTrainResult:
    curve: list[float] = field(default_factory=list)
    policy: Optional[ToyPolicy] = None


@dataclass
class _ToyPlan:
    """One sample's buckets in policy order: each bucket's name, its logits
    dict and its choice list. Bucket 0 is the template bucket, whose choice
    index is the template id; bucket 1 + k is the bucket of `cues[k]`, whose
    choice 0 is `in`. A draw is a tuple of choice indices, one per bucket;
    `cache` holds the composite reward of every draw scored so far.

    `tables` holds each bucket's draw table (see `draw_tables`) while they
    match the logits: None until the first draw, and set back to None by
    whoever changes this plan's logits."""

    target: Sample
    buckets: list[str]
    logits: list[dict[str, float]]
    choices: list[list[str]]
    cues: tuple[str, ...]
    cache: dict[tuple[int, ...], float]
    tables: Optional[list[tuple[list[float], list[float], float, int]]] = None

    def draw_tables(self) -> list[tuple[list[float], list[float], float, int]]:
        """Per bucket: its `_softmax` probabilities, their cumulative weights,
        the weights' total and the last index, built from the logits when
        `tables` is None and kept until then."""
        if self.tables is None:
            self.tables = []
            for ls in self.logits:
                probs = _softmax(list(ls.values()))
                cum = list(accumulate(probs))
                self.tables.append((probs, cum, cum[-1] + 0.0, len(cum) - 1))
        return self.tables

    def reward(self, world: CueWorld, draw: tuple[int, ...]) -> float:
        """A draw maps one-to-one onto (template, cue subset), so the cache
        misses once per distinct CoT; only a miss builds and scores one."""
        composite = self.cache.get(draw)
        if composite is None:
            subset = sorted(cue for cue, i in zip(self.cues, draw[1:]) if i == 0)
            cot = synthetic_reason(draw[0], subset)
            composite = self.cache[draw] = closed_loop_reward(
                self.target, cot, synthetic_reconstruct(world, cot)).composite
        return composite


def _toy_policy_and_plans(world: CueWorld,
                          learning_rate: float) -> tuple[ToyPolicy, list[_ToyPlan]]:
    """The policy of `build_toy_policy` and one plan per sample, in world order,
    each built in the loop that writes the sample's buckets."""
    templates = [f"t{t}" for t in range(len(DEFAULT_TEMPLATE_BANK))]
    logits: dict[str, dict[str, float]] = {}
    plans = []
    for sample in world.samples:
        pool = world.distractor_pool(sample, TOY_DISTRACTORS)
        buckets = [f"{sample.id}|template", *(f"{sample.id}|cue|{cue}" for cue in pool)]
        own = [dict.fromkeys(templates, 0.0), *({"in": 0.0, "out": 0.0} for _ in pool)]
        logits.update(zip(buckets, own))
        plans.append(_ToyPlan(target=sample.as_sample(), buckets=buckets, logits=own,
                              choices=[list(ls) for ls in own], cues=pool, cache={}))
    return ToyPolicy(logits=logits, learning_rate=learning_rate), plans


def train_toy_policy(world: CueWorld, steps: int, group_size: int, seed: int,
                     learning_rate: float = 0.5,
                     minibatch_size: Optional[int] = None) -> ToyTrainResult:
    """Train a fresh toy policy (see `build_toy_policy`) and return the
    per-step mean best-of-group reward curve. Fully deterministic under a
    fixed seed. Each sample's plan (`_ToyPlan`) is built with its buckets, so
    a draw is read by index only: no bucket name or choice id is parsed.

    By default every step visits the whole dataset (full batch), which
    keeps the per-step mean reward low-variance; pass a smaller
    minibatch_size to trade smoothness for speed.

    Each member draws one choice index per bucket, in policy order, by
    bisecting the bucket's cumulative weights with the expression `_draw`
    evaluates: the stream `Random.choices` takes. The weights come from the
    sample's draw tables (`_ToyPlan.draw_tables`): one `_softmax` per bucket,
    the one `ToyPolicy.probs` uses, run on the sample's first draw and again
    only on its first draw after an update. A group with all-zero advantages
    changes no logit and keeps the tables; any other group drops them, and
    its update takes the probabilities they hold instead of a softmax of its
    own. Each sample caches the reward of every draw (its tuple of indices)
    it has scored, so a CoT is built and scored only for a new draw. A
    learning rate that is not a finite number >= 0 raises InvalidSetting; a
    world whose vocabulary is smaller than cues_per_sample + TOY_DISTRACTORS
    has too few distractors for its samples and raises DomainError.
    """
    require("learning_rate", learning_rate,
            isinstance(learning_rate, (int, float)) and math.isfinite(learning_rate)
            and learning_rate >= 0, "a finite number >= 0")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if group_size < 2:
        raise DomainError("group size must be >= 2")
    if minibatch_size is not None and minibatch_size < 1:
        raise DomainError("minibatch size must be >= 1")
    if len(world.vocab) < world.cues_per_sample + TOY_DISTRACTORS:
        raise DomainError(f"a toy world needs vocab_size >= cues_per_sample + "
                          f"{TOY_DISTRACTORS} distractors = "
                          f"{world.cues_per_sample + TOY_DISTRACTORS}, got {len(world.vocab)}")
    policy, plans = _toy_policy_and_plans(world, learning_rate)
    # String seeds hash deterministically across processes (unlike tuples).
    rng = random.Random(f"toy-train|{seed}")
    rand = rng.random
    result = ToyTrainResult(policy=policy)
    batch_size = len(plans) if minibatch_size is None else min(minibatch_size, len(plans))
    for _ in range(steps):
        step_best: list[float] = []
        for plan in rng.sample(plans, batch_size):
            tables = plan.draw_tables()
            draws = [tuple([bisect_right(cum, rand() * total, 0, hi)
                            for _probs, cum, total, hi in tables])
                     for _g in range(group_size)]
            rewards = [plan.reward(world, d) for d in draws]
            advantages = compute_group_advantages(rewards)
            if any(advantages):  # all-zero advantages update nothing
                plan.tables = None
                for b, choices, picked, (probs, *_) in zip(plan.buckets, plan.choices,
                                                          zip(*draws), tables):
                    policy.update(b, [choices[i] for i in picked], advantages, probs)
            step_best.append(max(rewards))
        result.curve.append(sum_in_order(step_best) / len(step_best))
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
