"""Text-generation providers behind one `generate` interface.

Three kinds: a remote chat-completion service (retries + backoff), a
scripted mock for tests, and a synthetic cue-world that closes the
generate/reconstruct loop deterministically without any vision model.
Images in the cue world are hidden sets of cue tags; a fixed rule maps
cue sets to annotations, so reconstruction quality is exactly "which
cues did the CoT mention".
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import re
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .domain import (Annotation, Box, BoxSet, Classification, Detection, Distribution, Sample,
                     task_name)
from .errors import (AuthFailure, BadPayload, InvalidSetting, MockMiss, RemoteUnavailable,
                     RequestRejected, TemplateError, Timeout)
from .textproto import format_answer, load_template, read_slot


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
        if not (isinstance(responses, dict)
                and all(isinstance(r, str) for r in responses.values())):
            raise TypeError("responses must map each prompt to a string")
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


def _retry_after_s(value: str) -> Optional[float]:
    """The seconds a `Retry-After` header value asks for (RFC 9110 §10.2.3):
    delta-seconds, or an HTTP-date, which reads 0 once it has passed. None
    when the value is neither."""
    value = value.strip()
    if re.fullmatch(r"[0-9]+", value):
        return float(value)
    import email.utils  # loaded only for a reply that names a date
    from datetime import datetime, timezone
    try:
        when = email.utils.parsedate_to_datetime(value)
    except ValueError:
        return None
    if when.tzinfo is None:  # an HTTP-date is in GMT
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


def _split_endpoint(endpoint):
    """The `urlsplit` parts of an http:// or https:// URL with a host and no
    whitespace or control character; InvalidSetting for anything else."""
    from urllib.parse import urlsplit
    try:
        parts = urlsplit(endpoint)
        parts.port  # raises ValueError unless the port is a number in 0..65535
    except (TypeError, ValueError, AttributeError):
        parts = None
    require("endpoint", endpoint,
            parts is not None and parts.scheme in ("http", "https") and bool(parts.hostname)
            and not re.search(r"[\x00-\x20\x7f]", endpoint), "an http:// or https:// URL")
    return parts


def _refuse_proxy(scheme: str, host: str) -> None:
    """InvalidSetting when the environment names a proxy for `scheme` that
    `NO_PROXY` does not lift for `host`: HttpSession cannot tunnel, and going
    direct where a proxy was asked for is never done silently."""
    import os
    import urllib.request
    proxies = urllib.request.getproxies()
    key = scheme if proxies.get(scheme) else "all"
    if proxies.get(key) and not urllib.request.proxy_bypass(host):
        var = next((v for v in (f"{key}_proxy", f"{key.upper()}_PROXY") if os.environ.get(v)),
                   f"{key}_proxy")
        raise InvalidSetting(f"{var} names a proxy ({proxies[key]}) for {scheme}://{host}, "
                             f"and a remote backend does not use proxies: unset {var} or "
                             f"exempt {host} in NO_PROXY")


class HttpReply:
    """One reply of an HttpSession, read as RemoteBackend reads a reply.
    `headers` is an `http.client.HTTPMessage`: names are looked up
    case-insensitively. (A plain class: a dataclass would add about 0.6 ms to
    every import of this module.)"""

    __slots__ = ("status_code", "headers", "body")

    def __init__(self, status_code: int, headers, body: bytes):
        self.status_code = status_code
        self.headers = headers
        self.body = body

    def json(self):
        return json.loads(self.body)


class HttpSession:
    """The session a RemoteBackend builds when it is given none: the
    `post(url, json=, headers=, timeout=)` of `requests.Session` on
    `http.client`, for one http:// or https:// endpoint.

    A post takes the most recently used idle connection, or opens one, so
    there are never more connections than posts open at once. A kept-alive
    connection that the server has closed in the meantime (sending fails, or
    the connection ends before a reply's headers are read) is reopened and
    the post sent again, once; a reply that breaks HTTP raises
    ConnectionError. https verifies against the system's certificate store
    (`ssl.create_default_context()`). Redirects are not followed and no
    compressed reply is asked for. No proxy is used: a proxy that the
    environment names for the endpoint raises InvalidSetting here.
    """

    _encode = staticmethod(json.dumps)  # `post` takes `json=`, as requests does

    def __init__(self, endpoint: str):
        import http.client  # loads ssl too: only a backend that posts itself pays for it
        parts = _split_endpoint(endpoint)
        _refuse_proxy(parts.scheme, parts.hostname)
        self.url = endpoint
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if parts.scheme == "https":
            import ssl
            self._connection = functools.partial(
                http.client.HTTPSConnection, parts.hostname, parts.port,
                context=ssl.create_default_context())
        else:
            self._connection = functools.partial(http.client.HTTPConnection, parts.hostname,
                                                 parts.port)
        self._broken_reply = http.client.HTTPException
        self._idle: list = []  # list.pop and list.append are atomic

    def _send(self, conn, body: bytes, headers: dict, timeout: float):
        conn.timeout = timeout  # for a connection opened by this request
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        conn.request("POST", self._target, body, headers)
        return conn.getresponse()

    def post(self, url: str, json=None, headers=None, timeout=None) -> HttpReply:
        if url != self.url:
            raise ValueError(f"this session posts to {self.url} only, got {url}")
        body = self._encode(json).encode()
        headers = headers or {}
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._connection()
        try:
            kept = conn.sock is not None
            try:
                resp = self._send(conn, body, headers, timeout)
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected among them
                if not kept:
                    raise
                conn.close()  # the next request on it opens a new socket
                resp = self._send(conn, body, headers, timeout)
            return HttpReply(resp.status, resp.headers, resp.read())
        except BaseException as e:
            conn.close()
            if isinstance(e, self._broken_reply):
                raise ConnectionError(str(e)) from None
            raise
        finally:
            self._idle.append(conn)

    def close(self) -> None:
        """Close every idle connection; a later post opens new ones."""
        while self._idle:
            self._idle.pop().close()


class RemoteBackend:
    """Chat-completion client with bounded concurrency and retry/backoff.

    `endpoint` must be an http:// or https:// URL. `max_in_flight` (default
    4) caps how many posts this backend has open at once; a request waiting
    out its backoff holds no slot. The slots are the one bound on posts: the
    stages run members on as many threads as the caps add up to, at most one
    per member (see `pipeline._run_stage`), and a session the backend builds
    itself, an `HttpSession` (the only path that loads `http.client`), opens
    a connection only for a post with no idle one. A `session` passed in is
    posted to as given: it needs only `post(url, json=, headers=, timeout=)`
    returning a reply with `status_code`, `headers` and `json()`. Of either
    session's errors a TimeoutError counts as a timeout and any other
    OSError (`requests`' errors are OSErrors) as an unreachable endpoint. A
    `max_in_flight` or `max_attempts` that is not an integer >= 1, a
    `timeout` <= 0, a negative `backoff_base`, a `model` or `auth_env` that
    is not a string or a `ledger_path` that is neither None nor a string
    raises InvalidSetting.

    Timeouts, connection errors, replies without a usable text and every
    status >= 400 but those below are retried with exponential backoff.
    After a 429 or 503 whose `Retry-After` gives delta-seconds or an
    HTTP-date, the wait is that many seconds instead, at most the longest
    backoff `max_attempts` allows. 401 and 403 raise AuthFailure, and the
    statuses in `REJECTED` and every 3xx (redirects are not followed)
    raise RequestRejected, all on the first post: sending the same request
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
                 session: Optional[HttpSession] = None,
                 sleep: Callable[[float], None] = time.sleep):
        require("max_in_flight", max_in_flight,
                isinstance(max_in_flight, int) and max_in_flight >= 1, "an integer >= 1")
        require("max_attempts", max_attempts,
                isinstance(max_attempts, int) and max_attempts >= 1, "an integer >= 1")
        require("timeout", timeout,
                isinstance(timeout, (int, float)) and timeout > 0, "a number > 0")
        require("backoff_base", backoff_base,
                isinstance(backoff_base, (int, float)) and backoff_base >= 0, "a number >= 0")
        require("model", model, isinstance(model, str), "a string")
        require("auth_env", auth_env, isinstance(auth_env, str), "a string")
        require("ledger_path", ledger_path, ledger_path is None or isinstance(ledger_path, str),
                "a path")
        _split_endpoint(endpoint)
        self.endpoint = endpoint
        self.model = model
        self.auth_env = auth_env
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.max_in_flight = max_in_flight
        self.ledger_path = ledger_path
        self._session = HttpSession(endpoint) if session is None else session
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
        with self._gate:
            start = time.monotonic()
            try:
                resp = self._session.post(self.endpoint, json=body,
                                          headers=headers, timeout=self.timeout)
            except TimeoutError as e:
                raise Timeout(str(e)) from None
            except OSError as e:
                raise RemoteUnavailable(str(e)) from None
        replied = getattr(resp, "headers", None) or {}
        if resp.status_code in (401, 403):
            raise AuthFailure(f"endpoint rejected credential: {resp.status_code}")
        if resp.status_code in self.REJECTED:
            raise RequestRejected(f"HTTP {resp.status_code}")
        if 300 <= resp.status_code < 400:
            raise RequestRejected(f"HTTP {resp.status_code} to Location "
                                  f"{replied.get('Location')!r}: redirects are not followed")
        if resp.status_code in (429, 503):
            raise RemoteUnavailable(f"HTTP {resp.status_code}",
                                    _retry_after_s(replied.get("Retry-After", "")))
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
                # The server's Retry-After, capped at the longest backoff.
                asked = getattr(last_error, "retry_after", None)
                self._sleep(self.backoff_base * 2 ** (attempt - 1) if asked is None
                            else min(asked, self.backoff_base * 2 ** (self.max_attempts - 2)))
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
