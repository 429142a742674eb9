"""End-to-end orchestration: dataset IO, the closed-loop generation stage,
tau-filtering and SFT export, think-answer reward evaluation, and metric
evaluation.

All on-disk artifacts follow one file rule:

- The first line is a header, ``{"format": "cotloop-<kind>", "version": 1, ...}``,
  and every later line is one JSON object. Each line is flushed as it is
  written, so an interrupted run leaves at most a torn final line.
- A missing file raises `MissingFile`. A missing, unparseable or foreign
  header (another format or version, or not a text file) raises
  `HeaderMismatch`; the stage then refuses to write over the file.
- An unterminated final line that does not parse is an interrupted write:
  it is dropped with a logged warning. The stage resumes after the last
  complete record, cutting the torn line off and appending, and a file
  holding only a torn header starts afresh.
- Any other malformed line raises `MalformedLine` with its line number;
  dataset files report such lines per line instead (see `load_dataset`).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import logging
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .backends import GenerationRequest, require
from .domain import (Annotation, Box, BoxSet, Classification, Detection,
                     Distribution, RewardBreakdown, Sample, ScoredRecord,
                     validate_annotation)
from .errors import (BackendError, DomainError, HeaderMismatch, MalformedLine, MissingFile,
                     ValidationFailure)
from .grpo import compute_group_advantages, select_best_of_group
from .reward import (DEFAULT_TAU, closed_loop_reward, filter_high_subset,
                     score_reconstruction, think_answer_reward)
from .similarity import hungarian_match, jsd
from .textproto import (ParsedOutput, as_number, check_answer_keys, format_answer,
                        holds_tag_text, load_template, render_annotation, render_prompt,
                        task_name)

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


def _write_lines(f, rows: Iterable[dict]) -> None:
    for obj in rows:
        f.write(_dumps(obj) + "\n")
        f.flush()


def _write_jsonl(path: str, fmt: str, rows: Iterable[dict], **header) -> None:
    """Write the header line, then one flushed line per row."""
    with open(path, "w", encoding="utf-8") as f:
        _write_lines(f, itertools.chain(
            [{"format": fmt, "version": FORMAT_VERSION, **header}], rows))


def _append_jsonl(path: str, rows: Iterable[dict]) -> None:
    """Append one flushed line per row to a file that `_read_jsonl` read, after
    its last complete line. A final line that does not parse (a torn write) is
    cut off first; one that parses but lacks its newline gets one. The lines
    already there are never rewritten, so an interrupt loses none of them."""
    with open(path, "rb") as f:
        data = f.read()
    end = data.rfind(b"\n") + 1
    unterminated = end < len(data)
    if unterminated:
        try:
            json.loads(data[end:])
        except (ValueError, RecursionError):
            os.truncate(path, end)
            unterminated = False
    with open(path, "a", encoding="utf-8") as f:
        if unterminated:
            f.write("\n")
        _write_lines(f, rows)


def _read_jsonl(path: str, fmt: str, row: Callable[[dict], object],
                errors: Optional[list[str]] = None, missing_ok: bool = False
                ) -> tuple[Optional[dict], list[tuple[int, object]]]:
    """Read a `fmt` file under the file rule; returns (header, rows).

    Each row is (line number, row(parsed line)). A line that fails to
    parse or convert raises `MalformedLine`, or is reported in `errors`
    when a list is given. With `missing_ok`, a file that is absent or holds
    no complete line reads as (None, []).
    """
    if not os.path.exists(path):
        if missing_ok:
            return None, []
        raise MissingFile(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise HeaderMismatch(f"{path}: not a text file: {e}") from None
    tail = lines.pop()  # "" when the last line is terminated
    if tail:
        try:
            json.loads(tail)
        except (json.JSONDecodeError, RecursionError):
            log.warning("%s: dropped torn line %d (interrupted write)", path, len(lines) + 1)
        else:
            lines.append(tail)
    if not lines:
        if missing_ok:
            return None, []
        raise HeaderMismatch(f"{path}: no header line, expected {fmt}")
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
            rows.append((n, row(json.loads(raw))))
        except Exception as e:  # malformed line, reported with its number
            if errors is None:
                raise MalformedLine(path, n, e) from e
            errors.append(f"line {n}: {e}")
    return header, rows


# --- dataset files -----------------------------------------------------------

def _task_to_json(task) -> dict:
    if isinstance(task, Classification):
        return {"kind": "classification", "categories": list(task.categories)}
    return {"kind": "detection", "image_width": task.image_width,
            "image_height": task.image_height}


def _task_from_json(obj, path: str):
    """The task of a dataset header's `task` block; `HeaderMismatch` when the
    block names no known kind or does not make a valid task of it."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in ("classification", "detection"):
        raise HeaderMismatch(f"{path}: unknown task kind in header: {kind!r}")
    try:
        if kind == "classification":
            categories = obj["categories"]
            if not (isinstance(categories, list)
                    and all(isinstance(c, str) for c in categories)):
                raise TypeError("categories must be a list of strings")
            task = Classification(categories=tuple(categories))
            check_answer_keys(task.categories)
            return task
        dims = obj["image_width"], obj["image_height"]
        if not all(isinstance(d, (int, float)) and not isinstance(d, bool) for d in dims):
            raise TypeError(f"image dimensions must be numbers, got {list(dims)!r}")
        return Detection(*dims)
    except KeyError as e:
        raise HeaderMismatch(f"{path}: {kind} task in header has no {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise HeaderMismatch(f"{path}: {kind} task in header: {e}") from None


def annotation_to_json(a: Annotation) -> dict:
    if isinstance(a, Distribution):
        return {"probs": a.probs}
    return {"boxes": [list(b.as_tuple()) for b in a.boxes]}


def annotation_from_json(obj: dict) -> Annotation:
    if "probs" in obj:
        return Distribution({str(k): as_number(v) for k, v in obj["probs"].items()})
    if "boxes" in obj:
        return BoxSet(tuple(Box(*map(as_number, b)) for b in obj["boxes"]))
    raise ValueError(f"unknown annotation shape: {sorted(obj)}")


def _sample_to_json(s: Sample) -> dict:
    line = {"id": s.id, "image_ref": s.image_ref,
            "annotation": annotation_to_json(s.annotation)}
    if s.target_desc is not None:
        line["target_desc"] = s.target_desc
    return line


def sample_text_fields(obj: dict) -> dict:
    """The `id`, `image_ref` and `target_desc` Sample fields of a dataset or
    ingest line. `target_desc` is a string or null (or absent); TypeError
    otherwise."""
    target_desc = obj.get("target_desc")
    if target_desc is not None and not isinstance(target_desc, str):
        raise TypeError(f"target_desc must be a string or null, "
                        f"got {type(target_desc).__name__}")
    return {"id": str(obj["id"]), "image_ref": str(obj["image_ref"]),
            "target_desc": target_desc}


def _sample_fields(obj: dict) -> dict:
    return {**sample_text_fields(obj), "annotation": annotation_from_json(obj["annotation"])}


def save_dataset(samples: Sequence[Sample], task, path: str) -> None:
    _write_jsonl(path, DATASET, map(_sample_to_json, samples), task=_task_to_json(task))


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
    header, rows = _read_jsonl(path, DATASET, _sample_fields, errors)
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

def _breakdown_to_json(b: RewardBreakdown) -> dict:
    return {"similarity": b.similarity, "leak_detected": b.leak_detected,
            "format_ok": b.format_ok, "composite": b.composite,
            "reason": b.reason, "leak_evidence": list(b.leak_evidence)}


def _breakdown_from_json(obj: dict) -> RewardBreakdown:
    return RewardBreakdown(similarity=obj["similarity"],
                           leak_detected=obj["leak_detected"],
                           format_ok=obj["format_ok"],
                           composite=obj["composite"],
                           reason=obj.get("reason", "similarity"),
                           leak_evidence=tuple(obj.get("leak_evidence", ())))


def record_to_json(r: ScoredRecord) -> dict:
    return {"sample_id": r.sample_id, "cot": r.cot,
            "reconstruction": (annotation_to_json(r.reconstruction)
                               if r.reconstruction is not None else None),
            "reward": r.reward, "breakdown": _breakdown_to_json(r.breakdown)}


def record_from_json(obj: dict) -> ScoredRecord:
    recon = obj.get("reconstruction")
    return ScoredRecord(sample_id=obj["sample_id"], cot=obj["cot"],
                        reconstruction=(annotation_from_json(recon)
                                        if recon is not None else None),
                        reward=obj["reward"],
                        breakdown=_breakdown_from_json(obj["breakdown"]))


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
    per task), the target for detection."""
    if isinstance(sample.task, Classification):
        variables["categories"] = _category_list(sample.task.categories)
    else:
        variables["target"] = sample.target_desc or "the target object"
    return render_prompt(load_template(task_name(sample.task), stage), variables)


def reasoning_prompt(sample: Sample) -> str:
    """Reasoning-stage prompt: the ground truth is injected here and only here,
    as `prob_distribution` (classification) or `bbox` (detection)."""
    truth = render_annotation(sample.annotation, sample.task)
    return _prompt(sample, "reasoning", prob_distribution=truth, bbox=truth)


def reconstruction_prompt(sample: Sample, cot: str) -> str:
    """Reconstruction-stage prompt: never sees the ground truth."""
    return _prompt(sample, "reconstruction", CoTs=cot)


def r1_prompt(sample: Sample) -> str:
    return _prompt(sample, "r1")


# --- the group loop ----------------------------------------------------------

def _require_group_size(group_size) -> None:
    """Both stages call this before they read or write any file."""
    require("group_size", group_size,
            isinstance(group_size, int) and group_size >= 1, "an integer >= 1")


def _derive_seed(seed: int, sample_id: str, g: int) -> int:
    h = hashlib.sha256(f"{seed}|{sample_id}|{g}".encode()).hexdigest()
    return int(h[:12], 16)


def _ordered_map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """`map(fn, items)` on `workers` threads, yielding results in item order.

    At most `workers` calls are submitted ahead of the oldest unyielded one.
    An exception reaches the caller at its item's turn; then, or when the
    caller stops early, queued calls are cancelled and running ones finish
    before this returns.
    """
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="cotloop-group")
    try:
        pending = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _run_groups(samples: Sequence[Sample], group_size: int, seed: int,
                member_for: Callable[[Sample], Callable[[int], object]],
                failures: list[dict], backends: Sequence,
                done: frozenset[str] = frozenset()) -> Iterator[tuple[Sample, list]]:
    """Yield (sample, members) for each sample whose id is not in `done`.

    `member_for(sample)` returns the function that makes one group member
    from its derived seed; it runs for g = 0..G-1 in order. A BackendError
    anywhere in a group sends the whole sample to `failures`.

    Whole groups run concurrently on as many threads as the `max_in_flight`
    caps of the distinct `backends` add up to. In-process backends have no
    cap and count 0; with no cap at all, groups run one after another on
    the calling thread. Either way groups and failures come out in sample
    order, so output files are the same bytes as a sequential run. Only the
    order of backend calls, and so a remote ledger's line order, varies.
    """
    todo = [sample for sample in samples if sample.id not in done]

    def run(sample: Sample):
        try:
            member = member_for(sample)
            return [member(_derive_seed(seed, sample.id, g)) for g in range(group_size)]
        except BackendError as e:
            return e

    caps = {id(b): getattr(b, "max_in_flight", 0) for b in backends}
    workers = max(1, sum(caps.values()))
    results = map(run, todo) if workers == 1 else _ordered_map(run, todo, workers)
    for sample, members in zip(todo, results):
        if isinstance(members, BackendError):
            failures.append({"sample_id": sample.id, "error": str(members),
                             "kind": type(members).__name__})
            continue
        yield sample, members


# --- closed-loop stage -------------------------------------------------------

@dataclass
class StageResult:
    records: list[ScoredRecord] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)


def run_closed_loop_stage(samples: Sequence[Sample], reason_backend, recon_backend,
                          group_size: int, seed: int,
                          records_path: Optional[str] = None) -> StageResult:
    """Generate G CoTs per sample, reconstruct, score, retain best-of-group.

    Each distinct reconstruction of a group is parsed and scored once; the
    gates (leak, format) run per member, since members that share a
    reconstruction may differ in their CoT. Records persist incrementally
    (one flushed line per sample), and a restarted run skips sample ids
    already present in the record file and appends after its last complete
    line, never rewriting the lines it resumes. Backend failures go into
    `StageResult.failures`; the stage completes.
    """
    _require_group_size(group_size)
    result = StageResult()
    header = None
    if records_path is not None:
        header, rows = _read_jsonl(records_path, RECORDS, record_from_json, missing_ok=True)
        result.records = [record for _, record in rows]
    done = frozenset(r.sample_id for r in result.records)

    def member_for(sample: Sample):
        prompt = reasoning_prompt(sample)
        # Reconstruction text -> score_reconstruction(sample, text), for this
        # group only: similarity depends on the sample. A group's members run
        # in order on one thread (`_run_groups`), so the dict needs no lock.
        scores: dict[str, tuple[ParsedOutput, float]] = {}

        def member(member_seed: int) -> ScoredRecord:
            cot = reason_backend.generate(GenerationRequest(
                sample_id=sample.id, image_ref=sample.image_ref,
                prompt=prompt, seed=member_seed))
            recon_text = recon_backend.generate(GenerationRequest(
                sample_id=sample.id, image_ref=sample.image_ref,
                prompt=reconstruction_prompt(sample, cot), temperature=0.0,
                seed=member_seed))
            scored = scores.get(recon_text)
            if scored is None:
                scored = scores[recon_text] = score_reconstruction(sample, recon_text)
            breakdown = closed_loop_reward(sample, cot, recon_text, scored=scored)
            return ScoredRecord(sample.id, cot, scored[0].answer, breakdown.composite,
                                breakdown)
        return member

    def scored() -> Iterator[ScoredRecord]:
        for sample, members in _run_groups(samples, group_size, seed, member_for,
                                           result.failures,
                                           (reason_backend, recon_backend), done):
            _, record = select_best_of_group(members)
            result.records.append(record)
            yield record

    if records_path is None:
        for _ in scored():
            pass
    elif header is None:  # no file, or no complete line in it: start afresh
        _write_jsonl(records_path, RECORDS, map(record_to_json, scored()))
    else:  # new records follow the complete ones
        _append_jsonl(records_path, map(record_to_json, scored()))
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
    reward, and emit the grouping bookkeeping an external trainer consumes."""
    _require_group_size(group_size)
    result = RftEvalResult()
    totals: list[float] = []

    def member_for(sample: Sample):
        prompt = r1_prompt(sample)

        def member(member_seed: int) -> tuple[str, float]:
            text = r1_backend.generate(GenerationRequest(
                sample_id=sample.id, image_ref=sample.image_ref, prompt=prompt,
                seed=member_seed))
            return text, think_answer_reward(sample, text).composite
        return member

    def rows() -> Iterator[dict]:
        for sample, members in _run_groups(samples, group_size, seed, member_for,
                                           result.failures, (r1_backend,)):
            rewards = [reward for _, reward in members]
            advantages = compute_group_advantages(rewards)
            mean = sum(rewards) / len(rewards)
            result.per_sample_mean[sample.id] = mean
            totals.append(mean)
            yield {"sample_id": sample.id, "completions": [text for text, _ in members],
                   "rewards": rewards, "advantages": advantages}

    if bookkeeping_path is None:
        for _ in rows():
            pass
    else:
        _write_jsonl(bookkeeping_path, RFT_BOOKKEEPING, rows())
    result.mean_reward = sum(totals) / len(totals) if totals else 0.0
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
    raw = obj["raw"]
    if not isinstance(raw, str):
        raise TypeError(f"raw must be a string, got {type(raw).__name__}")
    return str(obj["id"]), raw


def load_predictions(path: str) -> dict[str, str]:
    """The raw output of each sample id; `MalformedLine` at a line whose id an
    earlier line has."""
    _, rows = _read_jsonl(path, PREDICTIONS, _prediction)
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


def evaluate_predictions(predictions: dict[str, str], samples: Sequence[Sample],
                         reference: Optional[dict[str, str]] = None) -> EvalReport:
    """Per-sample metrics plus aggregates.

    Classification: JSD against ground truth (prediction renormalized
    first) and argmax accuracy; win-rate is the fraction of samples
    where the reference beats this run (strictly lower JSD); a reference
    given for samples that are not all classification raises DomainError.
    Detection: fraction of ground-truth boxes matched at IoU >= 0.5.
    """
    by_id = {s.id: s for s in samples}
    unknown = sorted(set(predictions) - set(by_id))
    if unknown:
        raise DomainError(f"predictions for unknown sample ids: {unknown[:5]}")
    classification = all(isinstance(s.task, Classification) for s in samples)
    if reference is not None and not classification:
        raise DomainError("a reference run is compared on classification samples only")
    report = EvalReport()

    jsd_values, hits, correct = [], [], 0
    wins = 0
    compared = 0
    for sid, raw in predictions.items():
        sample = by_id[sid]
        if isinstance(sample.task, Classification):
            pred, failed = _normalized_prediction(raw, sample.task)
            if failed:
                report.parse_failures += 1
            value = jsd(sample.annotation, pred)
            report.per_sample[sid] = value
            jsd_values.append(value)
            if pred.argmax(sample.task.categories) == sample.annotation.argmax(
                    sample.task.categories):
                correct += 1
            if reference is not None and sid in reference:
                ref_pred, _ = _normalized_prediction(reference[sid], sample.task)
                ref_value = jsd(sample.annotation, ref_pred)
                compared += 1
                if ref_value < value:
                    wins += 1
        else:
            parsed = ParsedOutput.from_text(raw, sample.task)
            if parsed.answer is None or len(parsed.answer) == 0:
                report.parse_failures += 1
                report.per_sample[sid] = 0.0
                hits.append(0.0)
                continue
            match = hungarian_match(sample.annotation, parsed.answer)
            n_hit = sum(1 for v in match.per_pair_iou if v >= 0.5)
            frac = n_hit / len(sample.annotation)
            report.per_sample[sid] = frac
            hits.append(frac)

    if classification and jsd_values:
        report.mean_jsd = sum(jsd_values) / len(jsd_values)
        report.accuracy = correct / len(jsd_values)
        if reference is not None and compared:
            report.win_rate = wins / compared
    if not classification and hits:
        report.detection_score = sum(hits) / len(hits)
    return report
