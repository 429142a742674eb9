"""Backends: mock lookup, remote retry/backoff, and the synthetic cue world."""

import email.utils
import http.client
import json
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, strategies as st

from cotloop.backends import HttpSession, MockBackend, RemoteBackend
from cotloop.domain import Classification, Detection, Distribution, GenerationRequest
from cotloop.errors import (AuthFailure, BadPayload, InvalidSetting, MockMiss,
                            RemoteUnavailable, RequestRejected, TemplateError, Timeout)
from cotloop.reward import closed_loop_reward, think_answer_reward
from cotloop.textproto import detect_leak, load_template, read_slot, validate_f_r1
from cotloop.pipeline import reconstruction_prompt
from cotloop.world import (CueWorld, DEFAULT_TEMPLATE_BANK, SyntheticR1Backend,
                           SyntheticReasonBackend, SyntheticReconBackend, synthetic_reason,
                           synthetic_reconstruct)


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
                           ConnectionError("down"),
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


class BusyResponse:
    """A 429 or 503 reply whose headers carry `Retry-After`, looked up as
    `requests` looks up a header: case-insensitively."""

    def __init__(self, status_code, retry_after):
        self.status_code = status_code
        self.headers = http.client.HTTPMessage()
        self.headers["retry-after"] = retry_after


def http_date(offset_s):
    return email.utils.format_datetime(
        datetime.now(timezone.utc) + timedelta(seconds=offset_s), usegmt=True)


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize("retry_after, wait", [
    ("3", 3.0), (" 2 ", 2.0), ("0", 0.0), ("120", 4.0), ("9" * 30, 4.0),
], ids=["delta", "padded", "zero", "capped", "huge"])
def test_remote_honours_retry_after_seconds(monkeypatch, status, retry_after, wait):
    """The wait is the server's, capped at the longest backoff that
    `max_attempts` allows: 1 s · 2² before the fourth attempt."""
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    sleeps = []
    session = FakeSession([BusyResponse(status, retry_after), FakeResponse(content="hello")])
    backend = make_remote(session, sleeps, max_attempts=4)
    assert backend.generate(req()) == "hello"
    assert sleeps == [wait]


@pytest.mark.parametrize("when, wait", [
    ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0), ("Sunday, 06-Nov-94 08:49:37 GMT", 0.0),
    ("Sun Nov  6 08:49:37 1994", 0.0), ("past", 0.0), ("far-future", 4.0),
])
def test_remote_honours_retry_after_dates(monkeypatch, when, wait):
    """An HTTP-date in any of RFC 9110's three forms: a date that has passed
    means no wait, one far ahead waits the cap."""
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    when = {"past": http_date(-3600), "far-future": http_date(86400)}.get(when, when)
    sleeps = []
    session = FakeSession([BusyResponse(503, when), FakeResponse(content="hello")])
    assert make_remote(session, sleeps, max_attempts=4).generate(req()) == "hello"
    assert sleeps == [wait]


def test_remote_waits_until_a_near_retry_after_date(monkeypatch):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    sleeps = []
    session = FakeSession([BusyResponse(429, http_date(3)), FakeResponse(content="hello")])
    assert make_remote(session, sleeps, max_attempts=4).generate(req()) == "hello"
    assert 1.0 < sleeps[0] <= 3.0  # an HTTP-date has whole seconds


@pytest.mark.parametrize("retry_after", [
    "soon", "", "1.5", "-3", "+3", "0x10", "\u0663", "3 s", "Mon, 32 Jan 2020 00:00:00 GMT",
    "Fri, 31 Dec 99999 23:59:59 GMT",
])
def test_remote_falls_back_to_backoff_on_an_unreadable_retry_after(monkeypatch, retry_after):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    sleeps = []
    session = FakeSession([BusyResponse(503, retry_after), BusyResponse(429, retry_after),
                           FakeResponse(content="hello")])
    assert make_remote(session, sleeps, max_attempts=4).generate(req()) == "hello"
    assert sleeps == [1.0, 2.0]


def test_remote_caps_retry_after_at_the_longest_backoff(monkeypatch):
    """max_attempts 3 at base 0.5 s allows at most 0.5 · 2¹ = 1 s; only 429 and
    503 are read, so a 500's header is ignored."""
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    sleeps = []
    session = FakeSession([BusyResponse(429, "60"), BusyResponse(503, "0.25"),
                           FakeResponse(content="hello")])
    backend = make_remote(session, sleeps, max_attempts=3, backoff_base=0.5)
    assert backend.generate(req()) == "hello"
    assert sleeps == [1.0, 1.0]
    sleeps.clear()
    session = FakeSession([BusyResponse(500, "60"), BusyResponse(503, "60")] * 2)
    with pytest.raises(RemoteUnavailable, match="^HTTP 503$"):
        make_remote(session, sleeps, max_attempts=4).generate(req())
    assert sleeps == [1.0, 4.0, 4.0]


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


@pytest.mark.parametrize("setting, value, want", [
    pytest.param(setting, value, want, id=f"{setting}={value!r}")
    for setting, value, want in (
        ("model", 5, "a string"), ("model", None, "a string"), ("model", ["m"], "a string"),
        ("auth_env", 5, "a string"), ("auth_env", None, "a string"),
        ("ledger_path", 3, "a path"), ("ledger_path", True, "a path"),
        ("ledger_path", ["l.jsonl"], "a path"))
])
def test_remote_refuses_a_string_setting_of_another_type(setting, value, want):
    session = FakeSession([])
    kw = {"endpoint": "https://api.example.test/v1/chat", "model": "test-model",
          "session": session, setting: value}
    with pytest.raises(InvalidSetting, match=f"^{setting} must be {want}, got "):
        RemoteBackend(**kw)
    assert session.calls == []


@pytest.mark.parametrize("setting, want", [("timeout", "a finite number > 0"),
                                           ("backoff_base", "a finite number >= 0")])
def test_remote_refuses_an_infinite_timeout_or_backoff(setting, want):
    """An infinite timeout or backoff would end in OverflowError at the first
    post or backoff; it is refused before anything is posted."""
    session = FakeSession([])
    with pytest.raises(InvalidSetting, match=f"^{setting} must be {want}, got inf$"):
        RemoteBackend(endpoint="https://api.example.test/v1/chat", model="test-model",
                      session=session, **{setting: float("inf")})
    assert session.calls == []


@pytest.mark.parametrize("endpoint", [
    "ftp://api.example.test/v1/chat", "api.example.test/v1/chat", "http://", "https:///v1",
    "http://api.example.test:99999/", "http://api.example.test:port/",
    "http://api.example.test/v1 chat", "http://[::1/", 5, None, True,
])
def test_remote_rejects_an_endpoint_that_is_not_an_http_url(endpoint):
    with pytest.raises(InvalidSetting, match="^endpoint must be an http:// or https:// URL"):
        RemoteBackend(endpoint=endpoint, model="test-model", session=FakeSession([]))


# --- remote backend over loopback HTTP ------------------------------------------
# A stdlib server on 127.0.0.1 in a thread of this process: an ordinary TCP
# socket, with no network device and no route.

class ScriptedEndpoint(ThreadingHTTPServer):
    """A chat-completion endpoint that answers post n (from 0) as
    `script(n)` says: (status, extra headers, close the connection after the
    reply), or a status of None to never answer. Counts the connections it
    accepts and the posts it reads."""

    def __init__(self, script):
        super().__init__(("127.0.0.1", 0), ScriptedHandler)
        self.script = script
        self.lock = threading.Lock()
        self.connections = self.posts = 0
        self.release = threading.Event()  # ends the wait of a post never answered

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat"


class ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # connections are kept alive
    wbufsize = -1  # status line, headers and body leave in one write
    disable_nagle_algorithm = True
    timeout = 10

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            n = self.server.posts
            self.server.posts += 1
        status, headers, close = self.server.script(n)
        if status is None:
            self.server.release.wait(timeout=10)
            self.close_connection = True
            return
        body = json.dumps({"choices": [{"message": {"content": f"reply {n}"}}]}).encode()
        self.send_response(status)
        for name, value in {**headers, "Content-Type": "application/json",
                            "Content-Length": str(len(body))}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = close

    def log_message(self, format, *args):
        pass


class NotHttpEndpoint(ScriptedEndpoint):
    """An endpoint that reads each post and answers it with a status line that
    is not HTTP, then closes the connection."""

    def __init__(self, script):
        super().__init__(script)
        self.RequestHandlerClass = NotHttpHandler


class NotHttpHandler(ScriptedHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.posts += 1
        self.wfile.write(b"NOT-HTTP 200 OK\r\n\r\n")
        self.close_connection = True


@pytest.fixture
def serve(monkeypatch):
    """serve(script, endpoint=ScriptedEndpoint, **backend settings) ->
    (server, backend posting to it through its own session, the backend's
    sleeps)."""
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    started = []

    def start(script, endpoint=ScriptedEndpoint, **kw):
        server = endpoint(script)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        sleeps = []
        backend = RemoteBackend(endpoint=server.url, model="test-model", sleep=sleeps.append,
                                **kw)
        started.append((server, backend))
        return server, backend, sleeps

    yield start
    for server, backend in started:
        backend._session.close()
        server.release.set()
        server.shutdown()
        server.server_close()


def answer(n):
    return 200, {}, False


def test_remote_keeps_at_most_max_in_flight_connections(serve):
    """40 posts from 4 threads through a backend capped at 2 reach the server
    on at most 2 connections; an injected session is the one posted to."""
    server, backend, _ = serve(answer, max_in_flight=2)
    with ThreadPoolExecutor(4) as pool:
        replies = list(pool.map(lambda seed: backend.generate(req(seed=seed)), range(40)))
    assert sorted(replies) == sorted(f"reply {n}" for n in range(40))
    assert server.posts == 40
    assert 1 <= server.connections <= 2
    injected = FakeSession([FakeResponse(content="hello")])
    backend = make_remote(injected, [], max_in_flight=16)
    assert backend._session is injected
    assert backend.generate(req()) == "hello"
    assert len(injected.calls) == 1


def test_remote_reopens_a_kept_alive_connection_the_server_closed(serve):
    """The server closes the connection after its first reply, without saying
    so: the second post is answered on a new connection, with no retry."""
    server, backend, sleeps = serve(lambda n: (200, {}, n == 0))
    assert backend.generate(req()) == "reply 0"
    assert backend.generate(req()) == "reply 1"
    assert sleeps == []
    assert (server.posts, server.connections) == (2, 2)


def test_remote_honours_a_retry_after_header_on_the_wire(serve):
    server, backend, sleeps = serve(
        lambda n: (503, {"Retry-After": "3"}, False) if n == 0 else answer(n), max_attempts=4)
    assert backend.generate(req()) == "reply 1"
    assert sleeps == [3.0]


def test_remote_times_out_on_a_server_that_never_answers(serve):
    server, backend, sleeps = serve(lambda n: (None, {}, False), timeout=0.2, max_attempts=2)
    with pytest.raises(Timeout):
        backend.generate(req())
    assert server.posts == 2
    assert sleeps == [1.0]


def test_remote_counts_a_reply_that_breaks_http_as_an_unreachable_endpoint(serve):
    """A status line that is not HTTP is retried and ends as RemoteUnavailable,
    as an endpoint that cannot be reached does."""
    server, backend, sleeps = serve(answer, endpoint=NotHttpEndpoint, max_attempts=2)
    with pytest.raises(RemoteUnavailable):
        backend.generate(req())
    assert server.posts == 2
    assert sleeps == [1.0]


@pytest.mark.parametrize("status, error, message", [
    (401, AuthFailure, "^endpoint rejected credential: 401$"),
    (404, RequestRejected, "^HTTP 404$"),
    (302, RequestRejected, "^HTTP 302 to Location '/v2/chat': redirects are not followed$"),
])
def test_remote_fails_on_the_first_post_over_the_wire(serve, status, error, message):
    server, backend, sleeps = serve(lambda n: (status, {"Location": "/v2/chat"}, False)
                                    if n == 0 else answer(n))
    with pytest.raises(error, match=message):
        backend.generate(req())
    assert server.posts == 1
    assert sleeps == []


@pytest.mark.parametrize("variable, endpoint", [
    ("HTTP_PROXY", "http://127.0.0.1:9/v1/chat"), ("http_proxy", "http://127.0.0.1:9/v1/chat"),
    ("HTTPS_PROXY", "https://127.0.0.1:9/v1/chat"), ("ALL_PROXY", "http://127.0.0.1:9/v1/chat"),
])
def test_remote_refuses_a_proxy_it_cannot_use(monkeypatch, variable, endpoint):
    """A backend that builds its own session never goes direct where the
    environment names a proxy for its endpoint, unless NO_PROXY exempts it."""
    other = "HTTP_PROXY" if endpoint.startswith("https") else "HTTPS_PROXY"
    monkeypatch.setenv(other, "http://other-scheme.invalid:3128")  # does not apply
    monkeypatch.setenv(variable, "http://proxy.invalid:3128")
    with pytest.raises(InvalidSetting, match=f"^{variable} names a proxy"):
        RemoteBackend(endpoint=endpoint, model="test-model")
    make_remote(FakeSession([]), [])  # an injected session is used as given
    monkeypatch.setenv("NO_PROXY", "example.test,127.0.0.1")
    backend = RemoteBackend(endpoint=endpoint, model="test-model")
    assert isinstance(backend._session, HttpSession)


def test_remote_exhausts_attempts(monkeypatch):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    session = FakeSession([ConnectionError("down")] * 3)
    backend = make_remote(session, [])
    with pytest.raises(RemoteUnavailable):
        backend.generate(req())
    assert len(session.calls) == 3


def test_remote_timeout(monkeypatch):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    session = FakeSession([TimeoutError("slow")] * 3)
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


def _rule_by_category(world, cues):
    """The classification rule as a per-category comprehension, kept as the
    oracle of `CueWorld.rule`, which sets only the cues' categories."""
    cues = set(cues)
    if not cues:
        n = len(world.vocab)
        return Distribution({c: 1.0 / n for c in world.vocab})
    w = 1.0 / len(cues)
    return Distribution({c: (w if c in cues else 0.0) for c in world.vocab})


def test_cue_world_rule_matches_the_per_category_rule():
    world = CueWorld(vocab_size=48, num_samples=60, cues_per_sample=4, seed=3)
    vocab = world.vocab
    cases = [set(), frozenset(), ["not-a-cue"], {vocab[0], "not-a-cue", 7},
             [vocab[5], vocab[5], vocab[1]], set(vocab), tuple(reversed(vocab[:9]))]
    cases += [s.cue_set for s in world.samples]
    for cues in cases:
        got, want = world.rule(cues).probs, _rule_by_category(world, cues).probs
        # repr shows the key order, each value's type and each float's bits.
        assert repr(list(got.items())) == repr(list(want.items())), cues


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
    for size in ({"num_samples": 0}, {"num_samples": -3}, {"vocab_size": 0},
                 {"vocab_size": 401, "cues_per_sample": 1}):
        with pytest.raises(ValueError, match="num_samples >= 1 and vocab_size in 1..400"):
            CueWorld(**size)
    assert len(CueWorld(num_samples=1, vocab_size=400).vocab) == 400
