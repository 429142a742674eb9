"""Exception hierarchy shared across the package.

Parse failures during reward scoring are caught at the reward layer and
turned into zero-reward breakdowns; they never abort a run.
"""


class CotloopError(Exception):
    """Base class for all package errors."""


class DomainError(CotloopError):
    """A mathematical precondition was violated (mismatched categories, empty group, ...)."""


class InvalidGeometry(CotloopError):
    """Box coordinates that cannot form a valid box."""


class EmptyMask(CotloopError):
    """A binary mask with no true cells cannot produce a bounding box."""


class MalformedAnswer(CotloopError):
    """Model output that does not parse into the expected annotation form."""


class MissingVariable(CotloopError):
    """A prompt template placeholder had no value supplied."""

    def __init__(self, name: str):
        super().__init__(f"missing template variable: {name}")
        self.name = name


class TemplateError(CotloopError):
    """A prompt template has no slot of the name `read_slot` is asked for, or
    a synthetic CoT is asked for by an unknown template id."""


class BackendError(CotloopError):
    """Base class for generation-backend failures."""


class RemoteUnavailable(BackendError):
    """Remote endpoint unreachable after all retries. `retry_after` holds the
    seconds a 429 or 503 reply asked the client to wait, or None."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class AuthFailure(BackendError):
    """Remote endpoint rejected the credential."""


class RequestRejected(BackendError):
    """Endpoint refused a request (HTTP 400, 404, 413, 422) or redirected it (3xx); no retry."""


class Timeout(BackendError):
    """Remote request exceeded its deadline after all retries."""


class BadPayload(BackendError):
    """Remote endpoint answered 200 without a usable reply after all retries."""


class MockMiss(BackendError):
    """Scripted mock backend has no canned response for a prompt."""


class InvalidSetting(CotloopError):
    """A run or backend setting outside its valid range."""


def require(name: str, value, ok: bool, want: str) -> None:
    """InvalidSetting unless `ok`; a bool is never a valid setting value."""
    if not ok or isinstance(value, bool):
        raise InvalidSetting(f"{name} must be {want}, got {value!r}")


class CorruptionInfeasible(CotloopError):
    """No zero-overlap corruption box exists for a detection sample."""


class MissingFile(CotloopError):
    """A required input file does not exist."""


class HeaderMismatch(CotloopError):
    """A file's header is absent, foreign, or inconsistent with the requested task."""


class MalformedLine(CotloopError):
    """A complete data line of a cotloop file that does not parse."""

    def __init__(self, path: str, line: int, reason: Exception):
        super().__init__(f"{path}: line {line}: {reason}")
        self.path = path
        self.line = line


class ValidationFailure(CotloopError):
    """One or more dataset lines failed annotation validation; the message lists them."""

    def __init__(self, failures):
        super().__init__("\n  ".join([f"{len(failures)} invalid dataset line(s):", *failures]))
        self.failures = list(failures)
