"""Text-generation providers behind one `generate` interface.

Three kinds: a remote chat-completion service (retries + backoff), a
scripted mock for tests, and a synthetic cue-world that closes the
generate/reconstruct loop deterministically without any vision model.
Images in the cue world are hidden sets of cue tags; a fixed rule maps
cue sets to annotations, so reconstruction quality is exactly "which
cues did the CoT mention".
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .domain import Annotation, Box, BoxSet, Classification, Detection, Distribution, Sample
from .errors import (AuthFailure, BadPayload, InvalidSetting, MockMiss, RemoteUnavailable,
                     RequestRejected, TemplateError, Timeout)
from .textproto import format_answer, load_template, read_slot, task_name

if TYPE_CHECKING:
    import requests


@dataclass(frozen=True)
class GenerationRequest:
    sample_id: str
    image_ref: str
    prompt: str
    temperature: float = 0.7
    max_tokens: int = 512
    seed: Optional[int] = None

    def __post_init__(self):
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


class MockBackend:
    """Pure prompt -> response lookup for scripted tests."""

    def __init__(self, responses: dict[str, str]):
        self._responses = dict(responses)

    def generate(self, request: GenerationRequest) -> str:
        try:
            return self._responses[request.prompt]
        except KeyError:
            raise MockMiss(f"no canned response for prompt: {request.prompt[:80]!r}")


def require(name: str, value, ok: bool, want: str) -> None:
    """InvalidSetting unless `ok`; a bool is never a valid setting value."""
    if not ok or isinstance(value, bool):
        raise InvalidSetting(f"{name} must be {want}, got {value!r}")


class RemoteBackend:
    """Chat-completion client with bounded concurrency and retry/backoff.

    `max_in_flight` (default 4) caps how many posts this backend has open
    at once; a request waiting out its backoff holds no slot. The stages run
    as many GRPO groups at once as the caps of their backends add up to (see
    `pipeline._run_groups`). A session built here pools up to
    `max_in_flight` connections per host; one passed in is used as given.
    `requests` is imported here, on the constructing thread, so that a run
    without a remote backend never loads it. A `max_in_flight` or
    `max_attempts` that is not an integer >= 1, a `timeout` <= 0 or a
    negative `backoff_base` raises InvalidSetting.

    Timeouts, connection errors, replies without a usable text and every
    status >= 400 but those below are retried with exponential backoff.
    401 and 403 raise AuthFailure and the statuses in `REJECTED` raise
    RequestRejected, both on the first post: sending the same request
    again cannot succeed.

    The credential is read from the environment variable named at
    construction, never from config files. Every answered request is
    logged (prompt hash, sample id, seed, latency, token counts) to the run
    ledger when a path is given. Lines are appended as requests complete,
    so with several in flight the seed maps a line back to its group member.
    """

    # Bad request, not found, payload too large, unprocessable content.
    REJECTED = frozenset({400, 404, 413, 422})

    def __init__(self, endpoint: str, model: str, auth_env: str = "COTLOOP_API_KEY",
                 timeout: float = 120.0, max_attempts: int = 3,
                 backoff_base: float = 1.0, max_in_flight: int = 4,
                 ledger_path: Optional[str] = None,
                 session: Optional[requests.Session] = None,
                 sleep: Callable[[float], None] = time.sleep):
        require("max_in_flight", max_in_flight,
                isinstance(max_in_flight, int) and max_in_flight >= 1, "an integer >= 1")
        require("max_attempts", max_attempts,
                isinstance(max_attempts, int) and max_attempts >= 1, "an integer >= 1")
        require("timeout", timeout,
                isinstance(timeout, (int, float)) and timeout > 0, "a number > 0")
        require("backoff_base", backoff_base,
                isinstance(backoff_base, (int, float)) and backoff_base >= 0, "a number >= 0")
        self.endpoint = endpoint
        self.model = model
        self.auth_env = auth_env
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.max_in_flight = max_in_flight
        self.ledger_path = ledger_path
        import requests
        self._requests = requests
        if session is None:
            from requests.adapters import HTTPAdapter
            session = requests.Session()
            for prefix in ("http://", "https://"):
                session.mount(prefix, HTTPAdapter(pool_maxsize=max_in_flight))
        self._session = session
        self._sleep = sleep
        self._gate = threading.Semaphore(max_in_flight)
        self._ledger_lock = threading.Lock()

    def _headers(self) -> dict[str, str]:
        import os
        key = os.environ.get(self.auth_env)
        if not key:
            raise AuthFailure(f"credential env var {self.auth_env} is not set")
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def _body(self, request: GenerationRequest) -> dict:
        content: list[dict] = []
        if request.image_ref:
            content.append({"type": "image_url", "image_url": {"url": request.image_ref}})
        content.append({"type": "text", "text": request.prompt})
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": content}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            body["seed"] = request.seed
        return body

    def _log(self, request: GenerationRequest, latency: float, usage: dict) -> None:
        if not self.ledger_path:
            return
        entry = {
            "prompt_sha256": hashlib.sha256(request.prompt.encode()).hexdigest(),
            "sample_id": request.sample_id,
            "seed": request.seed,
            "latency_s": round(latency, 4),
            "usage": usage,
        }
        with self._ledger_lock, open(self.ledger_path, "a", encoding="utf-8") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
            f.flush()

    @staticmethod
    def _reply(resp) -> tuple[dict, str]:
        """(payload, reply text) of a 200 response; BadPayload when it has none."""
        try:
            payload = resp.json()
            content = payload["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError, RecursionError) as e:
            raise BadPayload(f"malformed reply: {type(e).__name__}: {e}") from None
        if not isinstance(content, str):
            raise BadPayload(f"malformed reply: content is {type(content).__name__}")
        return payload, content

    def _post(self, request: GenerationRequest, body: dict, headers: dict) -> str:
        """The reply text of one post, holding a `max_in_flight` slot only
        while the post is open; the backend error it ended in otherwise."""
        requests = self._requests
        with self._gate:
            start = time.monotonic()
            try:
                resp = self._session.post(self.endpoint, json=body,
                                          headers=headers, timeout=self.timeout)
            except requests.Timeout as e:
                raise Timeout(str(e)) from None
            except requests.RequestException as e:
                raise RemoteUnavailable(str(e)) from None
        if resp.status_code in (401, 403):
            raise AuthFailure(f"endpoint rejected credential: {resp.status_code}")
        if resp.status_code in self.REJECTED:
            raise RequestRejected(f"HTTP {resp.status_code}")
        if resp.status_code >= 400:
            raise RemoteUnavailable(f"HTTP {resp.status_code}")
        payload, content = self._reply(resp)
        self._log(request, time.monotonic() - start, payload.get("usage", {}))
        return content

    def generate(self, request: GenerationRequest) -> str:
        headers = self._headers()
        body = self._body(request)
        last_error: Exception = RemoteUnavailable("no attempt made")
        for attempt in range(self.max_attempts):
            if attempt:
                self._sleep(self.backoff_base * 2 ** (attempt - 1))
            try:
                return self._post(request, body, headers)
            except (Timeout, RemoteUnavailable, BadPayload) as e:
                last_error = e
        raise last_error


# --- synthetic cue world -----------------------------------------------------

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
    normalized weight sum; detection assigns each cue a fixed box.
    """

    def __init__(self, kind: str = "classification", num_samples: int = 50,
                 cues_per_sample: int = 4, vocab_size: int = 24, seed: int = 0):
        if cues_per_sample > vocab_size:
            raise ValueError("cues_per_sample cannot exceed vocab_size")
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
        """World rule mapping a cue set to its annotation."""
        if self.kind == "classification":
            cues = set(cues)
            if not cues:
                # Empty evidence reads as total uncertainty.
                n = len(self.vocab)
                return Distribution({c: 1.0 / n for c in self.vocab})
            w = 1.0 / len(cues)
            return Distribution({c: (w if c in cues else 0.0) for c in self.vocab})
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
