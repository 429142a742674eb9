"""Backends: mock lookup, remote retry/backoff, and the synthetic cue world."""

import json
import random
import re
import threading

import pytest
import requests
from hypothesis import given, strategies as st

from cotloop.backends import (CueWorld, DEFAULT_TEMPLATE_BANK,
                              GenerationRequest, MockBackend, RemoteBackend,
                              SyntheticR1Backend, SyntheticReasonBackend,
                              SyntheticReconBackend, synthetic_reason,
                              synthetic_reconstruct)
from cotloop.domain import Classification, Detection
from cotloop.errors import (AuthFailure, BadPayload, InvalidSetting, MockMiss,
                            RemoteUnavailable, RequestRejected, TemplateError, Timeout)
from cotloop.reward import closed_loop_reward, think_answer_reward
from cotloop.textproto import detect_leak, load_template, read_slot, validate_f_r1
from cotloop.pipeline import reconstruction_prompt


def req(prompt="p", sample_id="s", seed=0):
    return GenerationRequest(sample_id=sample_id, image_ref="img://x",
                             prompt=prompt, seed=seed)


# --- request validation / mock -------------------------------------------------

def test_generation_request_validation():
    with pytest.raises(ValueError):
        GenerationRequest(sample_id="s", image_ref="i", prompt="p", max_tokens=0)
    with pytest.raises(ValueError):
        GenerationRequest(sample_id="s", image_ref="i", prompt="p",
                          temperature=-0.1)


def test_mock_backend():
    mock = MockBackend({"p": "<answer>[1,2,3,4]</answer>"})
    assert mock.generate(req("p")) == "<answer>[1,2,3,4]</answer>"
    with pytest.raises(MockMiss):
        mock.generate(req("unknown"))


# --- remote backend -------------------------------------------------------------

class FakeResponse:
    def __init__(self, status_code=200, content="ok", usage=None):
        self.status_code = status_code
        self._content = content
        self._usage = usage or {"total_tokens": 7}

    def json(self):
        return {"choices": [{"message": {"content": self._content}}],
                "usage": self._usage}


class PayloadResponse:
    """A 200 reply whose body decodes to `payload`, or raises it if it is an
    exception (a body that is not JSON); a string is the body itself, decoded
    as `requests` decodes it."""

    status_code = 200

    def __init__(self, payload):
        self._payload = payload

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        if isinstance(self._payload, str):
            return json.loads(self._payload)
        return self._payload


class FakeSession:
    """Scripted session: pops one outcome per post call."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def make_remote(session, sleeps, **kw):
    return RemoteBackend(endpoint="https://api.example.test/v1/chat",
                         model="test-model", session=session,
                         sleep=sleeps.append, **kw)


def test_remote_requires_credential(monkeypatch):
    monkeypatch.delenv("COTLOOP_API_KEY", raising=False)
    backend = make_remote(FakeSession([FakeResponse()]), [])
    with pytest.raises(AuthFailure):
        backend.generate(req())


def test_remote_rejected_credential(monkeypatch):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    backend = make_remote(FakeSession([FakeResponse(status_code=401)]), [])
    with pytest.raises(AuthFailure):
        backend.generate(req())


def test_remote_retries_with_backoff(monkeypatch):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    sleeps = []
    session = FakeSession([FakeResponse(status_code=500),
                           requests.ConnectionError("down"),
                           PayloadResponse({"choices": []}),
                           FakeResponse(content="hello")])
    backend = make_remote(session, sleeps, max_attempts=4)
    assert backend.generate(req()) == "hello"
    assert sleeps == [1.0, 2.0, 4.0]  # exponential backoff, base 1s


@pytest.mark.parametrize("payload", [
    ValueError("Expecting value: line 1 column 1 (char 0)"),
    {"usage": {}},
    {"choices": []},
    {"choices": None},
    {"choices": [{"text": "legacy completion shape"}]},
    {"choices": [{"message": {"content": None}}]},
    {"choices": [{"message": {"content": ["a", "list"]}}]},
    ["not", "an", "object"],
    "[" * 100_000 + "]" * 100_000,
], ids=["not-json", "no-choices", "empty-choices", "null-choices", "no-message",
        "null-content", "list-content", "not-an-object", "nested-too-deep"])
def test_remote_bad_payload_is_retried_then_raised(monkeypatch, payload):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    sleeps = []
    session = FakeSession([PayloadResponse(payload)] * 3)
    backend = make_remote(session, sleeps)
    with pytest.raises(BadPayload):
        backend.generate(req())
    assert len(session.calls) == 3
    assert sleeps == [1.0, 2.0]


@pytest.mark.parametrize("status", [400, 404, 413, 422])
def test_remote_fails_fast_on_a_rejected_request(monkeypatch, status):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    sleeps = []
    session = FakeSession([FakeResponse(status_code=status), FakeResponse(content="late")])
    backend = make_remote(session, sleeps)
    with pytest.raises(RequestRejected, match=f"^HTTP {status}$"):
        backend.generate(req())
    assert len(session.calls) == 1
    assert sleeps == []


@pytest.mark.parametrize("status", [408, 429, 503])
def test_remote_retries_a_transient_status(monkeypatch, status):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    sleeps = []
    session = FakeSession([FakeResponse(status_code=status), FakeResponse(content="hello")])
    assert make_remote(session, sleeps).generate(req()) == "hello"
    assert len(session.calls) == 2
    assert sleeps == [1.0]


def test_remote_frees_its_slot_during_backoff(monkeypatch):
    """With one slot, request a is answered 503 and its backoff waits for
    request b's reply: b must get the slot while a is in backoff."""
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    in_backoff, b_answered = threading.Event(), threading.Event()
    waits = []

    def sleep(seconds):
        in_backoff.set()
        waits.append(b_answered.wait(timeout=5))

    replies = {"a": [FakeResponse(status_code=503), FakeResponse(content="A")],
               "b": [FakeResponse(content="B")]}

    class PromptSession:
        def post(self, url, json=None, headers=None, timeout=None):
            return replies[json["messages"][0]["content"][-1]["text"]].pop(0)

    backend = RemoteBackend(endpoint="https://api.example.test/v1/chat", model="test-model",
                            max_in_flight=1, session=PromptSession(), sleep=sleep)
    results = {}
    first = threading.Thread(target=lambda: results.update(a=backend.generate(req("a"))))
    first.start()
    assert in_backoff.wait(timeout=5)
    results["b"] = backend.generate(req("b"))
    b_answered.set()
    first.join(timeout=5)
    assert not first.is_alive()
    assert results == {"a": "A", "b": "B"}
    assert waits == [True]


@pytest.mark.parametrize("setting, value", [
    *(pytest.param("max_in_flight", cap, id=str(cap)) for cap in (0, -1, 1.5, "4")),
    *(pytest.param(setting, value, id=f"{setting}={value!r}") for setting, value in (
        ("max_attempts", 0), ("max_attempts", -1), ("max_attempts", 1.5),
        ("max_attempts", "3"), ("timeout", 0), ("timeout", -1.0), ("timeout", "5"),
        ("timeout", None), ("backoff_base", -0.5), ("backoff_base", "1"),
        ("backoff_base", float("nan")), ("max_in_flight", True), ("max_attempts", True),
        ("timeout", True), ("backoff_base", False))),
])
def test_remote_rejects_a_cap_that_is_not_a_positive_int(setting, value):
    with pytest.raises(InvalidSetting, match=setting):
        make_remote(FakeSession([]), [], **{setting: value})


def test_remote_sizes_its_own_connection_pool_to_the_cap():
    backend = RemoteBackend(endpoint="https://api.example.test/v1/chat",
                            model="test-model", max_in_flight=16)
    assert backend.max_in_flight == 16
    for url in ("http://api.example.test/", "https://api.example.test/"):
        assert backend._session.get_adapter(url)._pool_maxsize == 16
    injected = requests.Session()
    make_remote(injected, [], max_in_flight=16)
    assert (injected.get_adapter("https://api.example.test/")._pool_maxsize
            == requests.adapters.DEFAULT_POOLSIZE)


def test_remote_exhausts_attempts(monkeypatch):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    session = FakeSession([requests.ConnectionError("down")] * 3)
    backend = make_remote(session, [])
    with pytest.raises(RemoteUnavailable):
        backend.generate(req())
    assert len(session.calls) == 3


def test_remote_timeout(monkeypatch):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    session = FakeSession([requests.Timeout("slow")] * 3)
    backend = make_remote(session, [])
    with pytest.raises(Timeout):
        backend.generate(req())


def test_remote_body_and_ledger(monkeypatch, tmp_path):
    monkeypatch.setenv("COTLOOP_API_KEY", "secret-key")
    ledger = tmp_path / "ledger.jsonl"
    session = FakeSession([FakeResponse(content="out")])
    backend = make_remote(session, [], ledger_path=str(ledger))
    backend.generate(req(prompt="describe", seed=42))
    body = session.calls[0]["json"]
    assert body["model"] == "test-model"
    assert body["seed"] == 42
    parts = body["messages"][0]["content"]
    assert parts[0]["type"] == "image_url"
    assert parts[1]["text"] == "describe"
    assert session.calls[0]["headers"]["Authorization"] == "Bearer secret-key"
    entry = json.loads(ledger.read_text().strip())
    assert entry["sample_id"] == "s"
    assert entry["seed"] == 42  # with requests in flight, lines come in completion order
    assert "usage" in entry and "prompt_sha256" in entry
    # The raw prompt and the credential never reach the ledger.
    assert "describe" not in ledger.read_text()
    assert "secret-key" not in ledger.read_text()


# --- cue world -------------------------------------------------------------------

def test_cue_world_determinism():
    a = CueWorld(num_samples=5, seed=3)
    b = CueWorld(num_samples=5, seed=3)
    assert a.vocab == b.vocab
    assert [s.cue_set for s in a.samples] == [s.cue_set for s in b.samples]
    c = CueWorld(num_samples=5, seed=4)
    assert [s.cue_set for s in a.samples] != [s.cue_set for s in c.samples]


def test_cue_world_classification_rule(class_world):
    for s in class_world.samples:
        probs = s.annotation.probs
        assert sum(probs.values()) == pytest.approx(1.0)
        assert {c for c, p in probs.items() if p > 0} == set(s.cue_set)
    uniform = class_world.rule(frozenset())
    assert all(p == pytest.approx(1 / 24) for p in uniform.probs.values())


def test_cue_world_detection_rule(det_world):
    task = det_world.task
    assert isinstance(task, Detection)
    for s in det_world.samples:
        assert len(s.annotation) == len(s.cue_set)
        for b in s.annotation.boxes:
            assert 0 <= b.x1 <= b.x2 <= task.image_width
            assert 0 <= b.y1 <= b.y2 <= task.image_height
            assert b.area > 0
    # Distinct cues map to disjoint boxes (grid layout).
    from cotloop.similarity import iou
    boxes = list(det_world.cue_box.values())
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            assert iou(a, b) == 0.0


def test_extract_cues_word_boundaries(class_world):
    cue = class_world.vocab[0]
    assert class_world.extract_cues(f"I saw the {cue} there") == {cue}
    # Substring inside a longer hyphenated token must not match.
    assert class_world.extract_cues(f"pseudo-{cue}-ish thing") == frozenset()


_CUE_WORLD = CueWorld(vocab_size=48, seed=3)
_CUE_PIECES = list(_CUE_WORLD.vocab[:6]) + ["amber", "lantern", "-", "_", "x", "é", "7",
                                            " ", ".", ",", "\n", "pseudo-", "-ish", "the "]


@given(text=st.lists(st.sampled_from(_CUE_PIECES) | st.text(max_size=3),
                     max_size=10).map("".join))
def test_one_regex_cue_scan_matches_per_cue_search(text):
    per_cue = frozenset(
        cue for cue in _CUE_WORLD.vocab
        if re.search(rf"(?<![\w-]){re.escape(cue)}(?![\w-])", text))
    assert _CUE_WORLD.extract_cues(text) == per_cue


def test_distractor_pool(class_world):
    s = class_world.samples[0]
    pool = class_world.distractor_pool(s, 3)
    assert pool == class_world.distractor_pool(s, 3)
    assert set(pool) >= s.cue_set
    assert len(pool) == len(s.cue_set) + 3
    assert len(set(pool)) == len(pool)


# --- synthetic generation ----------------------------------------------------------

def test_synthetic_reason_is_leak_free(class_world, det_world):
    for world in (class_world, det_world):
        for s in world.samples[:4]:
            for tid in range(len(DEFAULT_TEMPLATE_BANK)):
                cot = synthetic_reason(tid, sorted(s.cue_set))
                assert all(c in cot for c in s.cue_set)
                assert not detect_leak(cot, world.task)[0]
                assert len(cot.strip()) >= 15


def test_synthetic_reason_edge_cases():
    assert len(synthetic_reason(0, []).strip()) >= 15
    with pytest.raises(TemplateError):
        synthetic_reason(99, [])


def test_closed_loop_fixed_point(class_world, det_world):
    for world in (class_world, det_world):
        for s in world.samples:
            cot = synthetic_reason(0, sorted(s.cue_set))
            recon = synthetic_reconstruct(world, cot)
            b = closed_loop_reward(s.as_sample(), cot, recon)
            assert b.composite == pytest.approx(1.0, abs=1e-12), s.id


def test_partial_cues_score_monotonically(class_world):
    s = class_world.samples[0]
    cues = sorted(s.cue_set)
    rewards = []
    for k in (0, 2, 4):
        cot = synthetic_reason(0, cues[:k])
        recon = synthetic_reconstruct(class_world, cot)
        rewards.append(closed_loop_reward(s.as_sample(), cot, recon).composite)
    assert rewards[0] < rewards[2] and rewards[1] < rewards[2]
    assert rewards[2] == pytest.approx(1.0)


def test_random_subsets_leave_training_headroom(class_world):
    rng = random.Random("headroom")
    total = 0.0
    n = 0
    for s in class_world.samples:
        pool = class_world.distractor_pool(s, 3)
        for _ in range(10):
            subset = [c for c in pool if rng.random() < 0.5]
            cot = synthetic_reason(0, subset)
            recon = synthetic_reconstruct(class_world, cot)
            total += closed_loop_reward(s.as_sample(), cot, recon).composite
            n += 1
    assert total / n < 0.5


def test_reason_backend_determinism_and_fidelity(class_world):
    full = SyntheticReasonBackend(class_world, fidelity=1.0)
    s = class_world.samples[0]
    r = req(sample_id=s.id, seed=7)
    assert full.generate(r) == full.generate(r)
    assert class_world.extract_cues(full.generate(r)) == s.cue_set
    partial = SyntheticReasonBackend(class_world, fidelity=0.5)
    seen = class_world.extract_cues(partial.generate(r))
    assert seen <= s.cue_set


@pytest.mark.parametrize("world", ["class_world", "det_world"])
def test_recon_backend_reads_cot_not_category_list(request, world):
    world = request.getfixturevalue(world)
    s = world.samples[0].as_sample()
    cot = synthetic_reason(0, [])
    prompt = reconstruction_prompt(s, cot)
    # The prompt lists every category (classification) or names the true
    # cues in its target (detection); only the CoT segment may be scanned.
    assert read_slot(load_template(world.kind, "reconstruction"), prompt, "CoTs") == cot
    backend = SyntheticReconBackend(world)
    out = backend.generate(req(prompt=prompt, sample_id=s.id))
    b = closed_loop_reward(s, cot, out)
    assert b.composite < 0.5  # empty-cue CoT cannot reconstruct the truth


def test_r1_backend_emits_valid_think_answer(class_world):
    backend = SyntheticR1Backend(class_world, fidelity=1.0)
    for s in class_world.samples[:4]:
        out = backend.generate(req(sample_id=s.id, seed=1))
        assert validate_f_r1(out, class_world.task)
        assert think_answer_reward(s.as_sample(), out).composite == pytest.approx(1.0)


def test_world_rejects_bad_config():
    with pytest.raises(ValueError):
        CueWorld(cues_per_sample=30, vocab_size=24)
    with pytest.raises(ValueError):
        CueWorld(kind="segmentation")
