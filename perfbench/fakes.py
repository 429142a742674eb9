"""Inputs the benchmark feeds the program: a reasoning backend wrapper that
injects numeric leaks, and a fake HTTP session standing in for a remote
chat-completion service. The program is not changed; it receives these
objects through its public constructor and function arguments.
"""

from __future__ import annotations

import hashlib
import threading
import time

from cotloop.backends import GenerationRequest

LEAK_SENTENCE = " Its overall confidence reads 0.42."
IMAGE_PREFIX = "synthetic://"


def share(key: str) -> float:
    """Deterministic value in [0, 1) from a string key."""
    return int(hashlib.sha256(key.encode()).hexdigest()[:13], 16) / 16 ** 13


class LeakInjectingReasoner:
    """Appends a numeric leak to a seeded share of the inner backend's outputs.

    The choice depends only on (seed, sample id, request seed), never on call
    order. `injected` counts the outputs changed since the last reset.
    """

    def __init__(self, inner, seed: int, leak_share: float):
        self.inner = inner
        self.seed = seed
        self.leak_share = leak_share
        self.injected = 0

    def generate(self, request: GenerationRequest) -> str:
        text = self.inner.generate(request)
        if share(f"leak|{self.seed}|{request.sample_id}|{request.seed}") < self.leak_share:
            self.injected += 1
            text += LEAK_SENTENCE
        return text


class FakeResponse:
    def __init__(self, status_code: int, payload: dict):
        self.status_code = status_code
        self._payload = payload

    def json(self) -> dict:
        return self._payload


class FakeSession:
    """Stand-in for `requests.Session` behind `RemoteBackend`.

    Each post waits `delay_s`, then answers with the text of the synthetic
    backend named by the body's `model`, for the sample named by its
    `image_url`. The first attempt of a hash-selected `fault_share` of
    requests gets a 503; the selection depends only on the request's model,
    sample id and seed, never on request order.
    """

    def __init__(self, backends: dict, seed: int, delay_s: float, fault_share: float):
        self.backends = backends
        self.seed = seed
        self.delay_s = delay_s
        self.fault_share = fault_share
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seen: set[str] = set()
            self.posts = 0
            self.faults = 0

    def post(self, url, json, headers=None, timeout=None) -> FakeResponse:
        content = json["messages"][0]["content"]
        image_url = next(c["image_url"]["url"] for c in content if c["type"] == "image_url")
        prompt = next(c["text"] for c in content if c["type"] == "text")
        sample_id = image_url[len(IMAGE_PREFIX):]
        key = f"{json['model']}|{sample_id}|{json.get('seed')}"
        time.sleep(self.delay_s)
        with self._lock:
            self.posts += 1
            first = key not in self.seen
            self.seen.add(key)
            fault = first and share(f"fault|{self.seed}|{key}") < self.fault_share
            self.faults += fault
        if fault:
            return FakeResponse(503, {})
        request = GenerationRequest(sample_id=sample_id, image_ref=image_url,
                                    prompt=prompt, temperature=json["temperature"],
                                    max_tokens=json["max_tokens"], seed=json.get("seed"))
        text = self.backends[json["model"]].generate(request)
        return FakeResponse(200, {"choices": [{"message": {"content": text}}],
                                  "usage": {}})


class CountingSleep:
    """The backoff sleep handed to `RemoteBackend`: counts retries and time waited."""

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = 0
            self.waited_s = 0.0

    def __call__(self, seconds: float) -> None:
        start = time.perf_counter()
        time.sleep(seconds)
        waited = time.perf_counter() - start
        with self._lock:
            self.calls += 1
            self.waited_s += waited
