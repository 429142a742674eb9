"""The synthetic cue world, which closes the generate/reconstruct loop
deterministically without any vision model, and the backends that generate
over it. Images in the cue world are hidden sets of cue tags; a fixed rule maps
cue sets to annotations, so reconstruction quality is exactly "which cues did
the CoT mention".
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Sequence

from .domain import (Annotation, Box, BoxSet, Classification, Detection, Distribution,
                     GenerationRequest, Sample, task_name)
from .errors import TemplateError, require
from .textproto import format_answer, load_template, read_slot

_ADJECTIVES = (
    "amber", "mossy", "gilded", "weathered", "crimson", "silvered", "dusky",
    "braided", "speckled", "hollow", "velvet", "rusted", "frosted", "woven",
    "sunlit", "shadowed", "polished", "tangled", "painted", "carved",
)
_NOUNS = (
    "lantern", "fence", "archway", "banner", "kettle", "ladder", "awning",
    "satchel", "mirror", "bellows", "anvil", "quilt", "orchard", "chimney",
    "paddle", "garland", "spindle", "trellis", "goblet", "plinth",
)


# Every cue is an adjective-noun pair, so a vocabulary holds at most this many.
MAX_CUE_VOCAB = len(_ADJECTIVES) * len(_NOUNS)


def _cue_vocab(size: int, rng: random.Random) -> tuple[str, ...]:
    pairs = [(a, n) for a in _ADJECTIVES for n in _NOUNS]
    rng.shuffle(pairs)
    return tuple(f"{a}-{n}" for a, n in pairs[:size])


@dataclass(frozen=True)
class SyntheticSample:
    """A sample whose 'image' is a hidden cue-tag set."""

    id: str
    cue_set: frozenset[str]
    task: object
    annotation: Annotation

    @property
    def image_ref(self) -> str:
        return f"synthetic://{self.id}"

    def as_sample(self) -> Sample:
        target = None
        if isinstance(self.task, Detection):
            target = "the region marked by " + " and ".join(sorted(self.cue_set))
        return Sample(id=self.id, image_ref=self.image_ref, task=self.task,
                      annotation=self.annotation, target_desc=target)


DEFAULT_TEMPLATE_BANK = (
    "The scene is quietly dominated by {cues}; their arrangement and texture "
    "set the overall character of the picture and justify the annotation.",
    "Close inspection reveals {cues}, whose colors and placement carry the "
    "weight of the interpretation offered here.",
)


# Width and height of a detection world's square image.
WORLD_IMAGE_SIZE = 1200.0


class CueWorld:
    """Deterministic stand-in environment closing the loop at desk scale.

    The world rule is a pure function cue_set -> annotation:
    classification assigns each cue its own category and returns the
    normalized weight sum; detection assigns each cue a fixed box. A count or
    seed that is not an integer (a bool among them) raises ValueError.
    """

    def __init__(self, kind: str = "classification", num_samples: int = 50,
                 cues_per_sample: int = 4, vocab_size: int = 24, seed: int = 0):
        for name, value in (("num_samples", num_samples), ("cues_per_sample", cues_per_sample),
                            ("vocab_size", vocab_size), ("seed", seed)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"a world needs an integer {name}, got {name} {value!r}")
        if not (num_samples >= 1 and 1 <= vocab_size <= MAX_CUE_VOCAB):
            raise ValueError(f"a world needs num_samples >= 1 and vocab_size in "
                             f"1..{MAX_CUE_VOCAB}, got num_samples {num_samples!r} "
                             f"and vocab_size {vocab_size!r}")
        if not 1 <= cues_per_sample <= vocab_size:
            raise ValueError(f"a world needs cues_per_sample in 1..{vocab_size} (its "
                             f"vocab_size), got cues_per_sample {cues_per_sample!r}")
        self.kind = kind
        self.seed = seed
        self.cues_per_sample = cues_per_sample
        # String seeds hash deterministically across processes (unlike tuples).
        rng = random.Random(f"cue-world|{seed}")
        self.vocab = _cue_vocab(vocab_size, rng)
        # Cues are [\w-]+ runs and the lookarounds make each match a whole
        # run, so matches cannot overlap and one findall finds every cue.
        self._cue_re = re.compile(
            rf"(?<![\w-])(?:{'|'.join(map(re.escape, self.vocab))})(?![\w-])")
        if kind == "classification":
            self.task = Classification(categories=self.vocab)
            self.cue_box = {}
        elif kind == "detection":
            self.task = Detection(image_width=WORLD_IMAGE_SIZE, image_height=WORLD_IMAGE_SIZE)
            per_row = math.ceil(math.sqrt(len(self.vocab)))
            spacing = WORLD_IMAGE_SIZE / per_row
            side = 0.9 * spacing
            self.cue_box = {
                cue: Box(
                    (i % per_row) * spacing,
                    (i // per_row) * spacing,
                    (i % per_row) * spacing + side,
                    (i // per_row) * spacing + side,
                )
                for i, cue in enumerate(self.vocab)
            }
        else:
            raise ValueError(f"unknown world kind: {kind!r}")
        self.samples = tuple(
            self._make_sample(i, rng) for i in range(num_samples)
        )
        self.by_id = {s.id: s for s in self.samples}

    def _make_sample(self, i: int, rng: random.Random) -> SyntheticSample:
        cues = frozenset(rng.sample(self.vocab, self.cues_per_sample))
        return SyntheticSample(id=f"syn-{i:04d}", cue_set=cues, task=self.task,
                               annotation=self.rule(cues))

    def rule(self, cues) -> Annotation:
        """World rule mapping a cue set to its annotation.

        A classification annotation maps every vocab category, in vocab order,
        to 0.0 and then each known cue to 1/len(cues); a cue outside the vocab
        counts in len(cues) but names no category. Only the cues' categories
        are written, and updating a key keeps its place, so the keys, their
        order and the values are those a test per category would give.
        """
        if self.kind == "classification":
            cues = set(cues)
            if not cues:
                # Empty evidence reads as total uncertainty.
                n = len(self.vocab)
                return Distribution({c: 1.0 / n for c in self.vocab})
            w = 1.0 / len(cues)
            probs = dict.fromkeys(self.vocab, 0.0)
            for c in cues:
                if c in probs:
                    probs[c] = w
            return Distribution(probs)
        boxes = tuple(self.cue_box[c] for c in sorted(cues))
        if not boxes:
            boxes = (Box(0, 0, 0, 0),)
        return BoxSet(boxes)

    def extract_cues(self, text: str) -> frozenset[str]:
        return frozenset(self._cue_re.findall(text))

    def distractor_pool(self, sample: SyntheticSample, extra: int) -> tuple[str, ...]:
        """Per-sample candidate cues: the true set plus `extra` seeded distractors."""
        rng = random.Random(f"pool|{self.seed}|{sample.id}")
        others = [c for c in self.vocab if c not in sample.cue_set]
        return tuple(sorted(sample.cue_set)) + tuple(rng.sample(others, extra))


def synthetic_reason(template_id: int, cue_subset: Sequence[str]) -> str:
    """Render a leak-free narrative CoT naming exactly the chosen cue tags."""
    if not 0 <= template_id < len(DEFAULT_TEMPLATE_BANK):
        raise TemplateError(f"unknown template id: {template_id}")
    subset = sorted(cue_subset)
    if subset:
        phrase = " and ".join(f"the {c}" for c in subset)
    else:
        phrase = "an otherwise unremarkable backdrop"
    return DEFAULT_TEMPLATE_BANK[template_id].replace("{cues}", phrase)


def synthetic_reconstruct(world: CueWorld, cot: str) -> str:
    """Apply the world rule to the cues mentioned in a CoT; render as an answer string."""
    return format_answer(world.rule(world.extract_cues(cot)), world.task)


class SyntheticReasonBackend:
    """Reasoning-stage provider over a cue world.

    `fidelity`, a number in [0, 1], is the per-cue probability that a true cue
    is mentioned; 1.0 is the scripted full-cue policy with closed-loop reward 1.
    """

    _rng_stream = "reason"

    def __init__(self, world: CueWorld, fidelity: float = 1.0):
        require("fidelity", fidelity,
                isinstance(fidelity, (int, float)) and 0 <= fidelity <= 1, "a number in [0, 1]")
        self.world = world
        self.fidelity = fidelity

    def _draw(self, request: GenerationRequest) -> tuple[list[str], str]:
        """Seeded cue-subset draw: (mentioned cues, narrative naming them)."""
        sample = self.world.by_id[request.sample_id]
        rng = random.Random(
            f"{self._rng_stream}|{self.world.seed}|{request.sample_id}|{request.seed}")
        if self.fidelity >= 1.0:
            subset = sorted(sample.cue_set)
        else:
            subset = [c for c in sorted(sample.cue_set) if rng.random() < self.fidelity]
        template_id = rng.randrange(len(DEFAULT_TEMPLATE_BANK))
        return subset, synthetic_reason(template_id, subset)

    def generate(self, request: GenerationRequest) -> str:
        return self._draw(request)[1]


class SyntheticReconBackend:
    """Reconstruction-stage provider: reads cue mentions out of the CoT.

    Like a remote model, it gets the CoT only inside the rendered prompt, which
    also lists every category name. It reads the CoT back through its world's
    reconstruction template (`textproto.read_slot`) and scans only that.
    """

    def __init__(self, world: CueWorld):
        self.world = world
        self.template = load_template(task_name(world.task), "reconstruction")

    def generate(self, request: GenerationRequest) -> str:
        cot = read_slot(self.template, request.prompt, "CoTs")
        return synthetic_reconstruct(self.world, cot)


class SyntheticR1Backend(SyntheticReasonBackend):
    """Think-answer provider for reward evaluation at a chosen cue fidelity:
    the reasoning draw (on its own RNG stream) plus the world rule's answer
    for the cues it names."""

    _rng_stream = "r1"

    def generate(self, request: GenerationRequest) -> str:
        subset, think = self._draw(request)
        return format_answer(self.world.rule(subset), self.world.task, think)
