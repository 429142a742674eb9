"""Closed-loop chain-of-thought curation toolkit.

Generate reasoning for image-annotation pairs, reconstruct the
annotation from the reasoning alone, score the pair with a verifiable
gated reward, filter high-quality records, export fine-tuning corpora,
and audit label noise.
"""

__version__ = "0.1.0"

from .domain import (Annotation, Box, BoxSet, Classification, Detection,
                     Distribution, RewardBreakdown, Sample, ScoredRecord,
                     TaskKind, mask_to_box, validate_annotation)
from .reward import (closed_loop_reward, filter_high_subset, reward_histogram,
                     think_answer_reward)
from .similarity import (classification_similarity, detection_similarity,
                         hungarian_match, iou, jsd, kld, mse)

__all__ = [
    "__version__",
    "Annotation", "Box", "BoxSet", "Classification", "Detection",
    "Distribution", "RewardBreakdown", "Sample", "ScoredRecord", "TaskKind",
    "mask_to_box", "validate_annotation",
    "closed_loop_reward", "filter_high_subset",
    "reward_histogram", "think_answer_reward",
    "classification_similarity", "detection_similarity", "hungarian_match",
    "iou", "jsd", "kld", "mse",
]
