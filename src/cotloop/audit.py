"""Label-corruption audit: corrupt a fraction of labels, score with the
closed loop, and report the reward separation between clean and
corrupted samples."""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Sequence

from .domain import Box, BoxSet, Classification, Detection, Distribution, Sample
from .errors import CorruptionInfeasible, DomainError
from .pipeline import StageResult, run_closed_loop_stage
from .reward import DEFAULT_TAU, histogram_bins, reward_histogram
from .similarity import iou

MAX_BOX_ATTEMPTS = 10_000
MIN_SIDE_FRACTION = 0.05


def corrupt_classification(sample: Sample, rng: random.Random) -> Sample:
    """Replace the label with a uniform-simplex draw whose argmax differs.

    One `rng.expovariate(1.0)` per category, normalised, is uniform on the
    simplex (Dirichlet(1, ..., 1)). Argmax ties in the original break to the
    first category in task order before comparison.
    """
    task = sample.task
    if not isinstance(task, Classification):
        raise DomainError("corrupt_classification needs a classification sample")
    if task.num_categories < 2:
        raise DomainError("cannot change the argmax of a single-category task")
    original_argmax = sample.annotation.argmax(task.categories)
    while True:
        draw = [rng.expovariate(1.0) for _ in task.categories]
        total = sum(draw)
        corrupted = Distribution({c: p / total for c, p in zip(task.categories, draw)})
        if corrupted.argmax(task.categories) != original_argmax:
            return replace(sample, annotation=corrupted)


def corrupt_detection(sample: Sample, rng: random.Random) -> Sample:
    """Replace the label with a random box overlapping none of the originals.

    Rejection sampling of `rng.uniform` boxes with a size floor (5% of the
    shorter image side, so no slivers); gives up after 10,000 attempts.
    """
    task = sample.task
    if not isinstance(task, Detection):
        raise DomainError("corrupt_detection needs a detection sample")
    w, h = task.image_width, task.image_height
    min_side = MIN_SIDE_FRACTION * min(w, h)
    originals = sample.annotation.boxes
    for _ in range(MAX_BOX_ATTEMPTS):
        bw = rng.uniform(min_side, w)
        bh = rng.uniform(min_side, h)
        x = rng.uniform(0, w - bw)
        y = rng.uniform(0, h - bh)
        candidate = Box(x, y, x + bw, y + bh)
        if all(iou(candidate, b) == 0.0 for b in originals):
            return replace(sample, annotation=BoxSet((candidate,)))
    raise CorruptionInfeasible(
        f"no zero-overlap box found for sample {sample.id} "
        f"after {MAX_BOX_ATTEMPTS} attempts")


@dataclass
class AuditReport:
    """Clean/corrupted reward histograms, threshold separation, and the count
    of samples that failed and so scored no record."""

    seed: int
    corruption_fraction: float
    tau: float
    clean_counts: list[int] = field(default_factory=list)
    clean_percentages: list[float] = field(default_factory=list)
    corrupted_counts: list[int] = field(default_factory=list)
    corrupted_percentages: list[float] = field(default_factory=list)
    fraction_corrupted_below_tau: float = 0.0
    fraction_clean_at_or_above_tau: float = 0.0
    n_clean: int = 0
    n_corrupted: int = 0
    n_failed: int = 0

    def render(self) -> str:
        lines = [
            f"label-noise audit (seed={self.seed}, "
            f"corruption={self.corruption_fraction:.0%}, tau={self.tau})",
            "",
            f"{'bin':<14}{'clean':>10}{'clean %':>10}{'corrupt':>10}{'corrupt %':>11}",
        ]
        for i, (b, _, _) in enumerate(histogram_bins()):
            lines.append(f"{b:<14}{self.clean_counts[i]:>10}"
                         f"{self.clean_percentages[i]:>9.1f}%"
                         f"{self.corrupted_counts[i]:>10}"
                         f"{self.corrupted_percentages[i]:>10.1f}%")
        lines += [
            "",
            f"failed samples:        {self.n_failed}",
            f"corrupted below tau:   {self.fraction_corrupted_below_tau:.1%} "
            f"of {self.n_corrupted}",
            f"clean at/above tau:    {self.fraction_clean_at_or_above_tau:.1%} "
            f"of {self.n_clean}",
        ]
        return "\n".join(lines)


def corrupt_dataset(samples: Sequence[Sample], fraction: float,
                    seed: int) -> tuple[list[Sample], set[str]]:
    """Corrupt floor(fraction*M) uniformly chosen samples; order preserved.

    The picks and the corrupt labels come from two string-seeded
    `random.Random` streams, `audit-pick|{seed}` and `audit-label|{seed}`."""
    if not 0 < fraction < 1:
        raise DomainError(f"corruption fraction must be in (0,1): {fraction}")
    n = int(fraction * len(samples))
    picker = random.Random(f"audit-pick|{seed}")
    chosen = set(picker.sample([s.id for s in samples], n))
    rng = random.Random(f"audit-label|{seed}")
    corrupted: list[Sample] = []
    for s in samples:
        if s.id not in chosen:
            corrupted.append(s)
        elif isinstance(s.task, Classification):
            corrupted.append(corrupt_classification(s, rng))
        else:
            corrupted.append(corrupt_detection(s, rng))
    return corrupted, chosen


def run_noise_audit(samples: Sequence[Sample], fraction: float, reason_backend,
                    recon_backend, group_size: int, tau: float = DEFAULT_TAU,
                    seed: int = 0) -> tuple[AuditReport, StageResult]:
    """Corrupt, score the mixed run, and bin rewards separately."""
    mixed, corrupted_ids = corrupt_dataset(samples, fraction, seed)
    stage = run_closed_loop_stage(mixed, reason_backend, recon_backend,
                                  group_size=group_size, seed=seed)
    clean_rewards = [r.reward for r in stage.records
                     if r.sample_id not in corrupted_ids]
    corrupted_rewards = [r.reward for r in stage.records
                         if r.sample_id in corrupted_ids]
    report = AuditReport(seed=seed, corruption_fraction=fraction, tau=tau,
                         n_clean=len(clean_rewards),
                         n_corrupted=len(corrupted_rewards),
                         n_failed=len(stage.failures))
    report.clean_counts, report.clean_percentages = reward_histogram(clean_rewards)
    report.corrupted_counts, report.corrupted_percentages = reward_histogram(
        corrupted_rewards)
    if corrupted_rewards:
        report.fraction_corrupted_below_tau = (
            sum(1 for r in corrupted_rewards if r < tau) / len(corrupted_rewards))
    if clean_rewards:
        report.fraction_clean_at_or_above_tau = (
            sum(1 for r in clean_rewards if r >= tau) / len(clean_rewards))
    return report, stage
