"""Text-generation providers behind one `generate` interface: a remote
chat-completion client (`RemoteBackend` over `HttpSession`, with retries and
backoff) and a scripted mock for tests. The synthetic providers over the cue
world are in `world`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import threading
import time
from typing import Callable, Optional

from .domain import GenerationRequest
from .errors import (AuthFailure, BadPayload, InvalidSetting, MockMiss, RemoteUnavailable,
                     RequestRejected, Timeout, require)
# Re-exported for perfbench's imports; ROADMAP item 5 moves those and deletes this line.
from .world import CueWorld, SyntheticReasonBackend, SyntheticReconBackend  # noqa: F401


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
    """The session a RemoteBackend builds when it is given none, on
    `http.client`, for one http:// or https:// endpoint: `post(url, json=,
    headers=, timeout=)` sends `json` as the JSON body and returns a reply with
    `status_code`, `headers` and `json()`, or raises TimeoutError or another
    OSError when the post fails.

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

    _encode = staticmethod(json.dumps)  # the body of `post`'s `json=` value

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
    returning a reply with `status_code`, `headers` and `json()`, and raising
    TimeoutError or another OSError when a post fails. Of either session's
    errors a TimeoutError counts as a timeout and any other OSError as an
    unreachable endpoint. A `max_in_flight` or `max_attempts` that is not an
    integer >= 1, a `timeout` that is not a finite number > 0, a
    `backoff_base` that is not a finite number >= 0, a `model` or `auth_env`
    that is not a string or a `ledger_path` that is neither None nor a string
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
                isinstance(timeout, (int, float)) and 0 < timeout < math.inf,
                "a finite number > 0")
        require("backoff_base", backoff_base,
                isinstance(backoff_base, (int, float)) and 0 <= backoff_base < math.inf,
                "a finite number >= 0")
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
