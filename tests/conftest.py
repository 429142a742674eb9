"""Shared fixtures: tasks, samples, reward fixtures, and cue worlds."""

import os

import pytest

from cotloop.backends import CueWorld
from cotloop.domain import (Box, BoxSet, Classification, Detection,
                            Distribution, Sample)

EMOTION_CATEGORIES = ("anger", "disgust", "fear", "joy", "sadness",
                      "surprise", "neutral")

# The seven-way distribution used throughout the docs/examples.
EXAMPLE_DISTRIBUTION = {
    "anger": 0.0, "disgust": 0.1, "fear": 0.2, "joy": 0.388889,
    "sadness": 0.033333, "surprise": 0.122222, "neutral": 0.155556,
}


@pytest.fixture(autouse=True)
def no_proxy_variables(monkeypatch):
    """Tests run as if no proxy were configured: a remote backend that builds
    its own session refuses an endpoint that a proxy variable applies to."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@pytest.fixture(scope="session")
def emotion_task():
    return Classification(categories=EMOTION_CATEGORIES)


@pytest.fixture(scope="session")
def emotion_sample(emotion_task):
    return Sample(id="emo-1", image_ref="img://emo-1", task=emotion_task,
                  annotation=Distribution(dict(EXAMPLE_DISTRIBUTION)))


@pytest.fixture(scope="session")
def detection_task():
    return Detection(image_width=1024, image_height=768)


@pytest.fixture(scope="session")
def detection_sample(detection_task):
    return Sample(id="det-1", image_ref="img://det-1", task=detection_task,
                  annotation=BoxSet((Box(138, 182, 656, 428),)),
                  target_desc="the scarf draped over the chair")


@pytest.fixture(scope="session")
def class_world():
    return CueWorld(kind="classification", num_samples=12, cues_per_sample=4,
                    vocab_size=24, seed=0)


@pytest.fixture(scope="session")
def det_world():
    return CueWorld(kind="detection", num_samples=12, cues_per_sample=4,
                    vocab_size=24, seed=0)


def rewards_with_bin_counts(counts):
    """Deterministic reward list hitting exact 4-bin histogram counts.

    Bins: [0,.25), [.25,.5), [.5,.75), [.75,1.0]. Values are spread
    evenly inside each bin, away from the edges.
    """
    edges = [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]
    rewards = []
    for (lo, hi), n in zip(edges, counts):
        width = hi - lo
        for i in range(n):
            rewards.append(lo + width * (i + 0.5) / max(n, 1))
    return rewards


# Histogram shapes used by the analytics fixtures: a 1,386-record corpus
# with 568 at or above 0.75 (41.0%), and a 350-record corpus with 231
# (66.0%).
CLASS_BIN_COUNTS = (28, 111, 679, 568)
DET_BIN_COUNTS = (35, 38, 46, 231)
