"""End-to-end orchestration: dataset IO, the closed-loop generation stage,
tau-filtering and SFT export, think-answer reward evaluation, and metric
evaluation.

All on-disk artifacts follow one file rule:

- The first line is a header, ``{"format": "cotloop-<kind>", "version": 1, ...}``,
  and every later line is one JSON object. A line ends at a newline, never at a
  bare carriage return. Each line is flushed as it is written, so an
  interrupted run leaves at most a torn final line.
- A missing file raises `MissingFile`. A missing, unparseable or foreign
  header (another format or version, or not a text file) raises
  `HeaderMismatch`; the stage then refuses to write over the file.
- An unterminated final line that does not parse is an interrupted write:
  it is dropped with a logged warning. The stage resumes at the reader's
  offset, just past the last complete line, cutting the torn line off and
  appending. A file without a complete line starts afresh only when it is
  a torn header, a prefix of the header line the stage writes; any other
  is refused like a foreign header.
- Any other malformed line raises `MalformedLine` with its line number;
  dataset files report such lines per line instead (see `load_dataset`).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import logging
import queue
import threading
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .domain import (TASK_KINDS, Annotation, Box, BoxSet, Classification, Distribution,
                     GenerationRequest, RewardBreakdown, Sample, ScoredRecord, sum_in_order,
                     task_name, validate_annotation)
from .errors import (BackendError, DomainError, HeaderMismatch, MalformedLine, MissingFile,
                     ValidationFailure, require)
from .reward import (DEFAULT_TAU, best_of_group, closed_loop_reward, compute_group_advantages,
                     filter_high_subset, score_reconstruction, think_answer_reward)
from .similarity import hungarian_match, jsd
from .textproto import (ParsedOutput, as_number, format_answer, holds_tag_text,
                        load_template, render_annotation, render_prompt)

log = logging.getLogger(__name__)

FORMAT_VERSION = 1
DATASET = "cotloop-dataset"
RECORDS = "cotloop-records"
SFT = "cotloop-sft"
RFT_BOOKKEEPING = "cotloop-rft-bookkeeping"
PREDICTIONS = "cotloop-predictions"


# --- the file rule -----------------------------------------------------------

def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _write_jsonl(path: str, fmt: str, rows: Iterable[dict], offset: int = 0,
                 **header) -> None:
    """Write one flushed line per row. At offset 0 the file is written anew,
    the header line first. At a resume offset, the end of the last complete
    line that `_read_jsonl` found, the file is cut there, that line gets the
    newline it may lack, and the rows follow: the lines already there are
    never rewritten, so an interrupt loses none of them."""
    with open(path, "r+b" if offset else "wb") as f:
        if offset:
            f.truncate(offset)
            f.seek(offset - 1)
            if f.read(1) != b"\n":
                f.write(b"\n")
        else:
            rows = itertools.chain([{"format": fmt, "version": FORMAT_VERSION, **header}], rows)
        for obj in rows:
            f.write(_dumps(obj).encode() + b"\n")
            f.flush()


def _read_jsonl(path: str, fmt: str, row: Callable[[dict], object],
                errors: Optional[list[str]] = None, missing_ok: bool = False
                ) -> tuple[Optional[dict], list[tuple[int, object]], int]:
    """Read a `fmt` file under the file rule; returns (header, rows, end).

    Each row is (line number, row(parsed line)); `end` is the byte offset just
    past the last complete line, where a resume continues. A line that fails
    to parse, is not a JSON object or fails to convert raises `MalformedLine`,
    or is reported in `errors` when a list is given. With `missing_ok`, a file
    that is absent or whose bytes are a prefix of the header line of `fmt`
    reads as (None, [], 0).
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        if missing_ok:
            return None, [], 0
        raise MissingFile(f"no such file: {path}") from None
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as e:
        raise HeaderMismatch(f"{path}: not a text file: {e}") from None
    tail = lines.pop()  # "" when the last line is terminated
    end = len(data)
    if tail:
        try:
            json.loads(tail)
        except (json.JSONDecodeError, RecursionError):
            end = data.rfind(b"\n") + 1
        else:
            lines.append(tail)
    if not lines:
        if not (missing_ok and (_dumps({"format": fmt, "version": FORMAT_VERSION})
                                + "\n").startswith(tail)):
            raise HeaderMismatch(f"{path}: no header line ending in a newline, "
                                 f"expected {fmt}")
        header, rows = None, []
    else:
        try:
            header = json.loads(lines[0])
        except (json.JSONDecodeError, RecursionError) as e:
            raise HeaderMismatch(f"{path}: unparseable header: {e}") from None
        found = (header.get("format"), header.get("version")) if isinstance(header, dict) else None
        if found != (fmt, FORMAT_VERSION):
            raise HeaderMismatch(f"{path}: not a {fmt} v{FORMAT_VERSION} file "
                                 f"(format, version = {found})")
        rows = []
        for n, raw in enumerate(lines[1:], start=2):
            if not raw.strip():
                continue
            try:
                rows.append((n, row(_json_object("a row", json.loads(raw)))))
            except Exception as e:  # malformed line, reported with its number
                if errors is None:
                    raise MalformedLine(path, n, e) from e
                errors.append(f"line {n}: {e}")
    if end < len(data):  # checked last: only a line really dropped is logged
        log.warning("%s: dropped torn line %d (interrupted write)", path, len(lines) + 1)
    return header, rows, end


# --- rows ----------------------------------------------------------------------

def _json_object(what: str, value):
    """`value` when it is a JSON object; TypeError naming `what` otherwise."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


@functools.cache
def _fields(cls) -> tuple[tuple[str, bool], ...]:
    """(name, has no default) of each field of the dataclass `cls`."""
    return tuple((f.name, f.default is f.default_factory is MISSING) for f in fields(cls))


def _from_json(cls, obj: dict, **decoded):
    """A `cls` of `decoded` and of the keys of `obj` that name its other
    fields; other keys are ignored, and a field with a default may be absent.
    KeyError names a field without a default that neither gives."""
    for name, required in _fields(cls):
        if name not in decoded and (required or name in obj):
            decoded[name] = obj[name]
    return cls(**decoded)


# --- dataset files -----------------------------------------------------------

def _task_from_json(obj, path: str):
    """The task of a dataset header's `task` block; `HeaderMismatch` when the
    block names no known kind or does not make a valid task of it."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not (isinstance(kind, str) and kind in TASK_KINDS):
        raise HeaderMismatch(f"{path}: unknown task kind in header: {kind!r}")
    try:
        return _from_json(TASK_KINDS[kind], obj)
    except KeyError as e:
        raise HeaderMismatch(f"{path}: {kind} task in header has no {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise HeaderMismatch(f"{path}: {kind} task in header: {e}") from None


def annotation_to_json(a: Annotation) -> dict:
    if isinstance(a, Distribution):
        return {"probs": a.probs}
    return {"boxes": [list(b.as_tuple()) for b in a.boxes]}


def annotation_from_json(obj: dict) -> Annotation:
    """The annotation of a `probs` or `boxes` mapping; TypeError names a shape at fault."""
    if not isinstance(obj, dict):
        raise TypeError(f"annotation must be a mapping, got {type(obj).__name__}")
    if "probs" in obj:
        probs = obj["probs"]
        if not isinstance(probs, dict):
            raise TypeError(f"probs must be a mapping, got {type(probs).__name__}")
        return Distribution({k: as_number(v) for k, v in probs.items()})
    if "boxes" in obj:
        boxes = obj["boxes"]
        if not isinstance(boxes, list):
            raise TypeError(f"boxes must be a list, got {type(boxes).__name__}")
        if not all(isinstance(b, list) and len(b) == 4 for b in boxes):
            raise TypeError("each box must be a list of 4 numbers")
        return BoxSet(tuple(Box(*map(as_number, b)) for b in boxes))
    raise ValueError(f"unknown annotation shape: {sorted(obj)}")


def _sample_to_json(s: Sample) -> dict:
    line = {"id": s.id, "image_ref": s.image_ref,
            "annotation": annotation_to_json(s.annotation)}
    if s.target_desc is not None:
        line["target_desc"] = s.target_desc
    return line


def _text(obj: dict, key: str, null_ok: bool = False) -> Optional[str]:
    """`obj[key]` when it is a string, or, with `null_ok`, null or absent. An
    `id` may be an integer (not a bool), read in its `str` form. TypeError
    otherwise."""
    value = obj.get(key) if null_ok else obj[key]
    if isinstance(value, str) or (null_ok and value is None):
        return value
    if key == "id" and type(value) is int:
        return str(value)
    kinds = "an integer" if key == "id" else "null" if null_ok else ""
    raise TypeError(f"{key} must be a string{kinds and ' or ' + kinds}, "
                    f"got {type(value).__name__}")


def sample_text_fields(obj: dict) -> dict:
    """The `id`, `image_ref` and `target_desc` Sample fields of a dataset or
    ingest line, read by `_text`: `target_desc` may be null or absent."""
    return {"id": _text(obj, "id"), "image_ref": _text(obj, "image_ref"),
            "target_desc": _text(obj, "target_desc", null_ok=True)}


def _sample_fields(obj: dict) -> dict:
    return {**sample_text_fields(obj), "annotation": annotation_from_json(obj["annotation"])}


def save_dataset(samples: Sequence[Sample], task, path: str) -> None:
    _write_jsonl(path, DATASET, map(_sample_to_json, samples),
                 task={"kind": task_name(task), **vars(task)})


def check_sample(sample: Sample, seen_ids: set[str]) -> Sample:
    """`sample`, its id added to `seen_ids`. DomainError, leaving the set as it
    is, when a ground-truth annotation breaks its task or the id is taken."""
    violations = validate_annotation(sample.annotation, sample.task)
    if violations:
        raise DomainError("; ".join(violations))
    if sample.id in seen_ids:
        raise DomainError(f"duplicate id {sample.id!r}")
    seen_ids.add(sample.id)
    return sample


def load_dataset(path: str, skip_invalid: bool = False) -> tuple[list[Sample], list[str]]:
    """Load and validate a dataset file.

    Returns (samples, error report). Malformed lines are collected, not
    silently dropped: lines that do not parse are listed first, then lines
    that fail validation. Without skip_invalid any error aborts the load.
    """
    errors: list[str] = []
    header, rows, _ = _read_jsonl(path, DATASET, _sample_fields, errors)
    task = _task_from_json(header.get("task", {}), path)

    samples: list[Sample] = []
    seen_ids: set[str] = set()
    for n, fields in rows:
        try:
            samples.append(check_sample(Sample(task=task, **fields), seen_ids))
        except DomainError as e:
            errors.append(f"line {n} ({fields['id']}): {e}")
    if errors and not skip_invalid:
        raise ValidationFailure(errors)
    return samples, errors


# --- record files ------------------------------------------------------------

def record_to_json(r: ScoredRecord) -> dict:
    return {**vars(r), "breakdown": {**vars(r.breakdown)},
            "reconstruction": (annotation_to_json(r.reconstruction)
                               if r.reconstruction is not None else None)}


def record_from_json(obj: dict) -> ScoredRecord:
    recon = obj.get("reconstruction")
    return _from_json(ScoredRecord, obj,
                      reconstruction=annotation_from_json(recon) if recon is not None else None,
                      breakdown=_from_json(RewardBreakdown,
                                           _json_object("breakdown", obj["breakdown"])))


def save_records(records: Sequence[ScoredRecord], path: str) -> None:
    _write_jsonl(path, RECORDS, map(record_to_json, records))


def load_records(path: str) -> list[ScoredRecord]:
    return [record for _, record in _read_jsonl(path, RECORDS, record_from_json)[1]]


# --- prompt construction -----------------------------------------------------

@functools.lru_cache(maxsize=64)
def _category_list(categories: tuple[str, ...]) -> str:
    return str(list(categories))


def _prompt(sample: Sample, stage: str, **variables: str) -> str:
    """Render the `stage` template of the sample's task with `variables` and
    the task-kind variables: the category list for classification (built once
    per task), the target for detection. These are all a stage's template may
    name; a template naming any other variable raises MissingVariable when it
    is first rendered."""
    if isinstance(sample.task, Classification):
        variables["categories"] = _category_list(sample.task.categories)
    else:
        variables["target"] = sample.target_desc or "the target object"
    return render_prompt(load_template(task_name(sample.task), stage), variables)


def reasoning_prompt(sample: Sample) -> str:
    """Reasoning-stage prompt: the ground truth is passed here and only here,
    as `prob_distribution` (classification) or `bbox` (detection), so no other
    stage's template can name it."""
    truth = render_annotation(sample.annotation, sample.task)
    return _prompt(sample, "reasoning", prob_distribution=truth, bbox=truth)


def reconstruction_prompt(sample: Sample, cot: str) -> str:
    """Reconstruction-stage prompt: never sees the ground truth."""
    return _prompt(sample, "reconstruction", CoTs=cot)


def r1_prompt(sample: Sample) -> str:
    return _prompt(sample, "r1")


# --- the stage engine --------------------------------------------------------

def _require_group_size(group_size) -> None:
    """Checked before any file is read or written."""
    require("group_size", group_size,
            isinstance(group_size, int) and group_size >= 1, "an integer >= 1")


def _derive_seed(seed: int, sample_id: str, g: int) -> int:
    h = hashlib.sha256(f"{seed}|{sample_id}|{g}".encode()).hexdigest()
    return int(h[:12], 16)


def _request(sample: Sample, prompt: str, seed: int, **options) -> GenerationRequest:
    return GenerationRequest(sample_id=sample.id, image_ref=sample.image_ref,
                             prompt=prompt, seed=seed, **options)


def _ordered_map(groups: Iterable[list[Callable]], workers: int) -> Iterator[list]:
    """The results of each group of zero-argument calls, `[call() for call in
    group]`, with the calls run on `workers` threads; yielded in group order.

    A group's calls are queued together, at most `workers` groups ahead of
    the oldest unyielded one, and the group is yielded once all of them are
    done. An exception reaches the caller at its group's turn, the first in
    call order; then, or when the caller stops early, queued calls are
    dropped and running ones finish before this returns. One queue and one
    event per group cost a fraction of an executor's future per call.
    """
    jobs: queue.SimpleQueue = queue.SimpleQueue()
    stopping = False

    def work() -> None:
        while (job := jobs.get()) is not None:
            outcomes, done, i, call = job
            if stopping:
                continue
            try:
                outcomes[i] = (True, call())
            except BaseException as e:  # raised again on the calling thread
                outcomes[i] = (False, e)
            if None not in outcomes:  # this was the group's last call to finish
                done.set()

    def results(outcomes: list, done: threading.Event) -> list:
        done.wait()
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    threads = [threading.Thread(target=work, name=f"cotloop-group_{n}", daemon=True)
               for n in range(workers)]
    for thread in threads:
        thread.start()
    try:
        pending = deque()
        for group in groups:
            outcomes, done = [None] * len(group), threading.Event()
            for i, call in enumerate(group):
                jobs.put((outcomes, done, i, call))
            pending.append((outcomes, done))
            if len(pending) > workers:
                yield results(*pending.popleft())
        while pending:
            yield results(*pending.popleft())
    finally:
        stopping = True
        for thread in threads:
            jobs.put(None)
        for thread in threads:
            thread.join()


def _run_stage(samples: Sequence[Sample], group_size: int, seed: int, backends: Sequence,
               member_for: Callable[[Sample], Callable[[int], object]],
               score: Callable[[Sample, list], object], failures: list[dict],
               output: Optional[tuple] = None) -> None:
    """Run G members per sample, score each group, and write or drop the rows.

    `member_for(sample)` returns the function that makes one member's backend
    calls from its derived seed. `score(sample, members)` turns what the
    members returned, in g order, into the sample's row. Both run on the
    calling thread, in sample order. A BackendError in any member fails the
    whole sample, with the error of the lowest failing g, the one a sequential
    run meets first, into `failures`; no member above a failed one starts.

    `output` is None, and the rows are dropped, or (path, fmt, offset, line):
    `line(row)` of each row is written to `path` at `offset` by `_write_jsonl`.
    The groups are closed on the way out, so an error while scoring or writing
    stops the members in flight before it reaches the caller.

    Members, not whole groups, are the unit of work. They run on as many
    threads as the `max_in_flight` caps of the distinct `backends` add up
    to, but never more threads than members, and at most that many groups
    ahead of the one being scored. In-process backends have no cap and
    count 0; with no cap, or a single member, members run one after another
    on the calling thread. Either way rows and failures come out in sample
    order, so output files are the same bytes as a sequential run. Only the
    order of backend calls, and so a remote ledger's line order, varies.
    """
    _require_group_size(group_size)
    failed: dict[int, int] = {}  # position in `samples` -> g of a member that failed

    # No lock: a member that starts just before a lower one fails only makes
    # posts a sequential run would not, and its result is never used.
    def run(n: int, sample_id: str, member: Callable[[int], object], g: int):
        if failed.get(n, g) < g:
            return None  # a lower member failed: a sequential run stops there
        try:
            return member(_derive_seed(seed, sample_id, g))
        except BackendError as e:
            failed.setdefault(n, g)
            return e

    def calls(n: int, sample: Sample) -> list[Callable]:
        member = member_for(sample)
        return [functools.partial(run, n, sample.id, member, g) for g in range(group_size)]

    def rows() -> Iterator:
        caps = {id(b): getattr(b, "max_in_flight", 0) for b in backends}
        workers = max(1, min(sum(caps.values()), len(samples) * group_size))
        groups = itertools.starmap(calls, enumerate(samples))
        results = (([call() for call in group] for group in groups) if workers == 1
                   else _ordered_map(groups, workers))
        for sample, members in zip(samples, results):
            error = next((m for m in members if isinstance(m, BackendError)), None)
            if error is None:
                yield score(sample, members)
            else:
                failures.append({"sample_id": sample.id, "error": str(error),
                                 "kind": type(error).__name__})

    with contextlib.closing(rows()) as lines:
        if output is None:
            deque(lines, maxlen=0)
        else:
            path, fmt, offset, line = output
            _write_jsonl(path, fmt, map(line, lines), offset)


# --- closed-loop stage -------------------------------------------------------

@dataclass
class StageResult:
    records: list[ScoredRecord] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)


def run_closed_loop_stage(samples: Sequence[Sample], reason_backend, recon_backend,
                          group_size: int, seed: int,
                          records_path: Optional[str] = None) -> StageResult:
    """Generate G CoTs per sample, reconstruct, score, retain best-of-group,
    all through the stage engine `_run_stage`.

    Each distinct reconstruction of a group is parsed and scored once; the
    gates (leak, format) run per member, since members that share a
    reconstruction may differ in their CoT. One record is built per group,
    for the member `reward.best_of_group` picks from the members' rewards: the
    highest, ties to the lowest g. Records persist incrementally
    (one flushed line per sample), and a restarted run skips sample ids
    already present in the record file and appends after its last complete
    line, never rewriting the lines it resumes. Backend failures go into
    `StageResult.failures`; the stage completes.
    """
    result = StageResult()
    output = None
    if records_path is not None:
        _require_group_size(group_size)  # before the resume read
        _, rows, end = _read_jsonl(records_path, RECORDS, record_from_json, missing_ok=True)
        result.records = [record for _, record in rows]
        output = (records_path, RECORDS, end, record_to_json)
    done = frozenset(r.sample_id for r in result.records)

    def member_for(sample: Sample):
        prompt = reasoning_prompt(sample)

        def member(member_seed: int) -> tuple[str, str]:
            cot = reason_backend.generate(_request(sample, prompt, member_seed))
            return cot, recon_backend.generate(_request(
                sample, reconstruction_prompt(sample, cot), member_seed, temperature=0.0))
        return member

    def score(sample: Sample, members: list[tuple[str, str]]) -> ScoredRecord:
        # Reconstruction text -> score_reconstruction(sample, text), for this
        # group only: similarity depends on the sample.
        scores: dict[str, tuple[ParsedOutput, float]] = {}
        group = []
        for cot, recon_text in members:
            scored = scores.get(recon_text)
            if scored is None:
                scored = scores[recon_text] = score_reconstruction(sample, recon_text)
            group.append((cot, scored, closed_loop_reward(sample, cot, recon_text,
                                                          scored=scored)))
        cot, scored, breakdown = group[best_of_group([b.composite for _, _, b in group])]
        record = ScoredRecord(sample.id, cot, scored[0].answer, breakdown.composite, breakdown)
        result.records.append(record)
        return record

    _run_stage([s for s in samples if s.id not in done], group_size, seed,
               (reason_backend, recon_backend), member_for, score, result.failures, output)
    return result


# --- SFT export --------------------------------------------------------------

def export_sft_corpus(records: Sequence[ScoredRecord], samples: Sequence[Sample],
                      tau: float = DEFAULT_TAU, *, path: str) -> int:
    """Filter at tau and write one think-answer training line per kept record;
    returns the number of lines written.

    The target is `textproto.format_answer` of the sample's ground-truth
    annotation with the record's CoT as its think: the CoT in <think> tags,
    then the annotation, canonically rendered, in <answer> tags. A kept record
    whose CoT holds `<think>`/`<answer>` tag text is skipped with one logged
    warning, since its target would not read back: the format gate fails such
    a CoT, but tau 0 keeps reward-0 records. Records of sample ids missing
    from `samples` raise DomainError, and no file is written.
    """
    by_id = {s.id: s for s in samples}
    unknown = sorted({r.sample_id for r in records} - set(by_id))
    if unknown:
        raise DomainError(f"records for unknown sample ids: {unknown[:5]}")
    kept, tagged = [], []
    for r in filter_high_subset(records, tau)[0]:
        if holds_tag_text(r.cot):
            tagged.append(r.sample_id)
        else:
            kept.append((r, by_id[r.sample_id]))
    if tagged:
        log.warning("%s: skipped %d record(s) whose CoT holds answer-tag text, "
                    "first %s", path, len(tagged), ", ".join(tagged[:5]))
    _write_jsonl(path, SFT, (
        {"image_ref": sample.image_ref, "prompt": r1_prompt(sample),
         "target": format_answer(sample.annotation, sample.task, r.cot)}
        for r, sample in kept))
    return len(kept)


# --- think-answer reward evaluation ------------------------------------------

@dataclass
class RftEvalResult:
    per_sample_mean: dict[str, float] = field(default_factory=dict)
    mean_reward: float = 0.0
    failures: list[dict] = field(default_factory=list)


def run_rft_reward_eval(samples: Sequence[Sample], r1_backend, group_size: int,
                        seed: int, bookkeeping_path: Optional[str] = None) -> RftEvalResult:
    """Sample G think-answer outputs per sample, score with the format-gated
    reward, and emit the grouping bookkeeping an external trainer consumes,
    all through the stage engine `_run_stage`."""
    result = RftEvalResult()
    totals: list[float] = []

    def member_for(sample: Sample):
        prompt = r1_prompt(sample)
        return lambda member_seed: r1_backend.generate(_request(sample, prompt, member_seed))

    def score(sample: Sample, completions: list[str]) -> tuple[str, list[str], list[float]]:
        rewards = [think_answer_reward(sample, text).composite for text in completions]
        mean = sum_in_order(rewards) / len(rewards)
        result.per_sample_mean[sample.id] = mean
        totals.append(mean)
        return sample.id, completions, rewards

    def line(row: tuple[str, list[str], list[float]]) -> dict:
        sample_id, completions, rewards = row
        return {"sample_id": sample_id, "completions": completions, "rewards": rewards,
                "advantages": compute_group_advantages(rewards)}

    _run_stage(samples, group_size, seed, (r1_backend,), member_for, score, result.failures,
               None if bookkeeping_path is None
               else (bookkeeping_path, RFT_BOOKKEEPING, 0, line))
    result.mean_reward = sum_in_order(totals) / len(totals) if totals else 0.0
    return result


# --- evaluation --------------------------------------------------------------

@dataclass
class EvalReport:
    per_sample: dict[str, float] = field(default_factory=dict)
    mean_jsd: Optional[float] = None
    accuracy: Optional[float] = None
    detection_score: Optional[float] = None
    win_rate: Optional[float] = None
    parse_failures: int = 0


def _prediction(obj: dict) -> tuple[str, str]:
    return _text(obj, "id"), _text(obj, "raw")


def load_predictions(path: str) -> dict[str, str]:
    """The raw output of each sample id; `MalformedLine` at a line whose id an
    earlier line has."""
    _, rows, _ = _read_jsonl(path, PREDICTIONS, _prediction)
    preds: dict[str, str] = {}
    for n, (sid, raw) in rows:
        if sid in preds:
            raise MalformedLine(path, n, ValueError(f"duplicate id {sid!r}"))
        preds[sid] = raw
    return preds


def save_predictions(preds: dict[str, str], path: str) -> None:
    _write_jsonl(path, PREDICTIONS, ({"id": sid, "raw": raw} for sid, raw in preds.items()))


def _normalized_prediction(raw: str, task: Classification) -> tuple[Distribution, bool]:
    """Parsed prediction renormalized to a distribution; failures score
    as the uniform distribution (counted by the caller)."""
    uniform = Distribution({c: 1.0 / len(task.categories) for c in task.categories})
    parsed = ParsedOutput.from_text(raw, task)
    if parsed.answer is None:
        return uniform, True
    total = parsed.answer.total()
    if total <= 0:
        return uniform, True
    return Distribution({c: v / total for c, v in parsed.answer.probs.items()}), False


def _box_hit_rate(raw: str, sample: Sample) -> tuple[float, bool]:
    """The fraction of the sample's ground-truth boxes that the answer of `raw`
    matches at IoU >= 0.5, and whether that answer failed to parse; an answer
    that does not parse or holds no box scores 0 and counts as failed."""
    parsed = ParsedOutput.from_text(raw, sample.task)
    if parsed.answer is None or len(parsed.answer) == 0:
        return 0.0, True
    match = hungarian_match(sample.annotation, parsed.answer)
    return sum(1 for v in match.per_pair_iou if v >= 0.5) / len(sample.annotation), False


def evaluate_predictions(predictions: dict[str, str], samples: Sequence[Sample],
                         reference: Optional[dict[str, str]] = None) -> EvalReport:
    """Per-sample metrics plus aggregates, over samples of one task kind.

    Classification: JSD against ground truth (prediction renormalized
    first) and argmax accuracy; win-rate is the fraction of samples
    where the reference beats this run (strictly lower JSD); samples of
    both kinds, a reference given for detection samples, and predictions
    or a reference of sample ids missing from `samples` raise DomainError.
    Detection: fraction of ground-truth boxes matched at IoU >= 0.5.
    """
    by_id = {s.id: s for s in samples}
    for name, run in (("predictions", predictions), ("reference", reference or {})):
        unknown = sorted(set(run) - set(by_id))
        if unknown:
            raise DomainError(f"{name} for unknown sample ids: {unknown[:5]}")
    kinds = {type(s.task) for s in samples}
    if len(kinds) > 1:
        raise DomainError("evaluated samples must be of one task kind, got classification "
                          "and detection samples")
    classification = kinds <= {Classification}
    if reference is not None and not classification:
        raise DomainError("a reference run is compared on classification samples only")
    report = EvalReport()
    correct = wins = compared = 0
    for sid, raw in predictions.items():
        sample = by_id[sid]
        if classification:
            pred, failed = _normalized_prediction(raw, sample.task)
            value = jsd(sample.annotation, pred)
            categories = sample.task.categories
            correct += pred.argmax(categories) == sample.annotation.argmax(categories)
            if reference is not None and sid in reference:
                ref_pred, _ = _normalized_prediction(reference[sid], sample.task)
                compared += 1
                wins += jsd(sample.annotation, ref_pred) < value
        else:
            value, failed = _box_hit_rate(raw, sample)
        report.per_sample[sid] = value
        report.parse_failures += failed
    if report.per_sample:
        mean = sum_in_order(report.per_sample.values()) / len(report.per_sample)
        if classification:
            report.mean_jsd, report.accuracy = mean, correct / len(report.per_sample)
            if compared:
                report.win_rate = wins / compared
        else:
            report.detection_score = mean
    return report
