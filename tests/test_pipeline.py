"""Pipeline: dataset IO, the closed-loop stage, SFT export, and evaluation."""

import dataclasses
import hashlib
import itertools
import json
import os
import sys
import tempfile
import threading
import time
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from cotloop import pipeline
from cotloop.backends import (CueWorld, GenerationRequest, MockBackend, RemoteBackend,
                              SyntheticR1Backend, SyntheticReasonBackend,
                              SyntheticReconBackend)
from cotloop.domain import (Box, BoxSet, Classification, Distribution, Sample,
                            ScoredRecord, make_breakdown)
from cotloop.errors import (CotloopError, DomainError, HeaderMismatch,
                            InvalidSetting, MissingFile, MissingVariable, MockMiss,
                            RemoteUnavailable, ValidationFailure)
from cotloop.pipeline import (evaluate_predictions, export_sft_corpus,
                              load_dataset, load_predictions, load_records,
                              r1_prompt, reasoning_prompt,
                              reconstruction_prompt, run_closed_loop_stage,
                              run_rft_reward_eval, save_dataset,
                              save_predictions, save_records)
from cotloop.textproto import format_answer, render_annotation
from cotloop.reward import think_answer_reward
from cotloop.similarity import classification_similarity
from cotloop.textproto import validate_f_r1, parse_think_answer, ParsedOutput

from conftest import EMOTION_CATEGORIES, EXAMPLE_DISTRIBUTION


@pytest.fixture
def class_samples(emotion_task):
    def dist(joy):
        rest = (1.0 - joy) / 6
        return Distribution({c: (joy if c == "joy" else rest)
                             for c in EMOTION_CATEGORIES})
    return [Sample(id=f"s{i}", image_ref=f"img://{i}", task=emotion_task,
                   annotation=dist(0.1 * i + 0.2)) for i in range(4)]


# --- dataset files ---------------------------------------------------------------

def test_dataset_round_trip(tmp_path, class_samples, emotion_task):
    path = tmp_path / "data.jsonl"
    save_dataset(class_samples, emotion_task, str(path))
    loaded, errors = load_dataset(str(path))
    assert errors == []
    assert [s.id for s in loaded] == [s.id for s in class_samples]
    assert loaded[0].annotation.probs == pytest.approx(
        class_samples[0].annotation.probs)
    # Re-saving the loaded dataset is byte-identical.
    path2 = tmp_path / "data2.jsonl"
    save_dataset(loaded, emotion_task, str(path2))
    assert path.read_bytes() == path2.read_bytes()


@example(names=["it's", "b"], values=[0.5] * 6)
@given(names=st.lists(st.text(min_size=1, max_size=5) | st.sampled_from(
    ["it's", '"', "a\\b", "{", "}", "</answer>", "b\nc", "\x7f", "%", "x y", "\u00e9"]),
    min_size=1, max_size=6, unique=True),
    values=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
def test_every_classification_that_can_be_built_reads_back(names, values):
    """A task that `Classification` accepts loads back from its dataset, and
    its canonical answer parses back to the annotation within 1e-6."""
    try:
        task = Classification(tuple(names))
    except ValueError:
        return
    probs = dict(zip(names, values))
    parsed = ParsedOutput.from_text(format_answer(Distribution(probs), task, "cot"), task)
    assert parsed.error is None
    assert parsed.answer.probs == pytest.approx(probs, abs=1e-6)
    truth = Distribution({c: float(i == 0) for i, c in enumerate(names)})
    samples = [Sample(id="s", image_ref="img://s", task=task, annotation=truth)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.jsonl")
        save_dataset(samples, task, path)
        assert load_dataset(path) == (samples, [])


def test_dataset_detection_round_trip(tmp_path, detection_task, detection_sample):
    path = tmp_path / "det.jsonl"
    save_dataset([detection_sample], detection_task, str(path))
    loaded, _ = load_dataset(str(path))
    assert loaded[0].annotation.boxes[0].as_tuple() == (138, 182, 656, 428)
    assert loaded[0].target_desc == detection_sample.target_desc


def test_dataset_error_handling(tmp_path, class_samples, emotion_task):
    with pytest.raises(MissingFile):
        load_dataset(str(tmp_path / "absent.jsonl"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(HeaderMismatch):
        load_dataset(str(bad))

    path = tmp_path / "data.jsonl"
    save_dataset(class_samples, emotion_task, str(path))
    with open(path, "a", encoding="utf-8") as f:
        partial = {k: v for k, v in EXAMPLE_DISTRIBUTION.items() if k != "joy"}
        f.write(json.dumps({"id": "broken", "image_ref": "x",
                            "annotation": {"probs": partial}}) + "\n")
    with pytest.raises(ValidationFailure):
        load_dataset(str(path))
    loaded, errors = load_dataset(str(path), skip_invalid=True)
    assert len(loaded) == 4 and len(errors) == 1
    assert "missing categories" in errors[0]


def test_dataset_duplicate_ids(tmp_path, class_samples, emotion_task):
    path = tmp_path / "dup.jsonl"
    save_dataset(class_samples + [class_samples[0]], emotion_task, str(path))
    with pytest.raises(ValidationFailure) as exc:
        load_dataset(str(path))
    assert any("duplicate" in e for e in exc.value.failures)


# --- prompt construction ------------------------------------------------------------

def test_reasoning_prompt_injects_ground_truth(emotion_sample, detection_sample):
    assert "0.388889" in reasoning_prompt(emotion_sample)
    det = reasoning_prompt(detection_sample)
    assert "[138, 182, 656, 428]" in det
    assert detection_sample.target_desc in det


def test_reconstruction_prompt_never_contains_ground_truth(emotion_sample,
                                                           detection_sample):
    cot = "A festive porch scene with warm light."
    recon = reconstruction_prompt(emotion_sample, cot)
    assert cot in recon
    assert "0.388889" not in recon
    det = reconstruction_prompt(detection_sample, cot)
    assert "[138, 182, 656, 428]" not in det and "138" not in det


def test_r1_prompt_has_task_info_only(emotion_sample):
    p = r1_prompt(emotion_sample)
    assert "joy" in p  # category list
    assert "0.388889" not in p


def test_only_the_reasoning_prompt_renders_a_template_naming_the_ground_truth(
        monkeypatch, emotion_sample, detection_sample):
    """The stage builders are the guard: a template naming a ground-truth slot
    renders in the reasoning stage only, on either task."""
    for text in ("see {bbox}", "see {prob_distribution}"):
        monkeypatch.setattr(pipeline, "load_template", lambda task, stage, text=text: text)
        for sample in (emotion_sample, detection_sample):
            truth = render_annotation(sample.annotation, sample.task)
            assert reasoning_prompt(sample) == f"see {truth}"
            with pytest.raises(MissingVariable):
                reconstruction_prompt(sample, "a CoT")
            with pytest.raises(MissingVariable):
                r1_prompt(sample)


# --- closed-loop stage ---------------------------------------------------------------

@pytest.fixture(scope="module")
def stage_world():
    return CueWorld(num_samples=8, cues_per_sample=4, vocab_size=24, seed=0)


def run_stage(world, path=None, fidelity=1.0, group_size=4):
    return run_closed_loop_stage(
        [s.as_sample() for s in world.samples],
        SyntheticReasonBackend(world, fidelity=fidelity),
        SyntheticReconBackend(world),
        group_size=group_size, seed=0,
        records_path=str(path) if path else None)


def test_stage_fixed_point(stage_world):
    result = run_stage(stage_world)
    assert len(result.records) == 8
    assert all(r.reward == pytest.approx(1.0) for r in result.records)
    assert result.failures == []


def test_stage_records_leaking_cot(emotion_sample):
    leaking_cot = ("The scene is dominated by joy: 0.9 according to my "
                   "reading of the light.")
    answer = "<answer>" + render_annotation(emotion_sample.annotation,
                                            emotion_sample.task) + "</answer>"
    reason = MockBackend({reasoning_prompt(emotion_sample): leaking_cot})
    recon = MockBackend({reconstruction_prompt(emotion_sample, leaking_cot): answer})
    result = run_closed_loop_stage([emotion_sample], reason, recon,
                                   group_size=2, seed=0)
    assert result.records[0].reward == 0.0
    assert result.records[0].breakdown.reason == "leak"


def test_stage_backend_failure_manifest(emotion_sample):
    reason = MockBackend({})  # every generate call misses
    recon = MockBackend({})
    result = run_closed_loop_stage([emotion_sample], reason, recon,
                                   group_size=2, seed=0)
    assert result.records == []
    assert result.failures[0]["sample_id"] == emotion_sample.id
    assert result.failures[0]["kind"] == "MockMiss"


def test_stage_scores_out_of_range_answers_as_parse_failures(detection_sample):
    class OutOfRangeRecon:
        def __init__(self):
            self.answers = itertools.cycle(["[1e999, 0, 1, 1]", f"[{10**400}, 0, 1, 1]"])

        def generate(self, request):
            return f"<answer>{next(self.answers)}</answer>"

    result = run_closed_loop_stage(
        [detection_sample], MockBackend({reasoning_prompt(detection_sample): "cot"}),
        OutOfRangeRecon(), group_size=4, seed=0)
    assert result.failures == []
    assert result.records[0].breakdown.reason == "parse"


CLEAN_COT = ("Soft lantern light washes over the porch while children "
             "linger by the gate, their faces caught mid-laugh.")
LEAKING_COT = "The scene is dominated by joy: 0.9 according to my reading of the light."


class Scripted:
    """A backend that returns its texts in turn, one per call; an Exception
    in the list is raised at its turn instead."""

    def __init__(self, texts):
        self.texts = itertools.cycle(texts)

    def generate(self, request):
        text = next(self.texts)
        if isinstance(text, Exception):
            raise text
        return text


def answer_of(annotation, task):
    return f"<answer>{render_annotation(annotation, task)}</answer>"


@pytest.fixture
def calls(monkeypatch):
    """Counter of the calls to parsing, similarity, the closed-loop reward and
    the leak gate, each counted where the stage reaches it."""
    from cotloop import pipeline, reward, similarity
    counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    from_text = ParsedOutput.from_text.__func__
    monkeypatch.setattr(ParsedOutput, "from_text", classmethod(counted("parse", from_text)))
    monkeypatch.setattr(reward, "classification_similarity",
                        counted("similarity", reward.classification_similarity))
    monkeypatch.setattr(similarity, "hungarian_match",
                        counted("similarity", similarity.hungarian_match))
    monkeypatch.setattr(pipeline, "closed_loop_reward",
                        counted("reward", pipeline.closed_loop_reward))
    monkeypatch.setattr(reward, "detect_leak", counted("leak", reward.detect_leak))
    return counter


@pytest.mark.parametrize("sample", ["emotion_sample", "detection_sample"])
def test_stage_parses_and_scores_each_distinct_reconstruction_once_per_group(
        request, calls, sample):
    sample = request.getfixturevalue(sample)
    other = Sample(id="other", image_ref="img://other", task=sample.task,
                   annotation=sample.annotation)
    exact = answer_of(sample.annotation, sample.task)
    texts = [exact, exact + " ", exact, "no answer", exact + " ", exact]  # 3 distinct
    result = run_closed_loop_stage([sample, other], Scripted([CLEAN_COT]),
                                   Scripted(texts), group_size=6, seed=0)
    assert [r.reward for r in result.records] == [pytest.approx(1.0)] * 2
    # 3 distinct texts per group; "no answer" is parsed but has nothing to score.
    assert calls == {"parse": 6, "similarity": 4, "reward": 12, "leak": 12}


def test_stage_scores_a_shared_reconstruction_against_each_samples_truth(class_samples):
    text = answer_of(class_samples[0].annotation, class_samples[0].task)
    result = run_closed_loop_stage(class_samples[:2], Scripted([CLEAN_COT]),
                                   Scripted([text]), group_size=2, seed=0)
    answer = ParsedOutput.from_text(text, class_samples[0].task).answer
    expected = [classification_similarity(s.annotation, answer) for s in class_samples[:2]]
    assert [r.breakdown.similarity for r in result.records] == expected
    assert expected[0] > 0.99 > expected[1]


def test_stage_gates_each_member_that_shares_a_reconstruction(monkeypatch, emotion_sample):
    from cotloop import pipeline
    original, scored = pipeline.closed_loop_reward, []

    def recording(sample, cot, text, **kwargs):
        scored.append((cot, original(sample, cot, text, **kwargs)))
        return scored[-1][1]
    monkeypatch.setattr(pipeline, "closed_loop_reward", recording)
    text = answer_of(emotion_sample.annotation, emotion_sample.task)
    result = run_closed_loop_stage([emotion_sample], Scripted([LEAKING_COT, CLEAN_COT]),
                                   Scripted([text]), group_size=4, seed=0)
    assert [(cot, b.reason, b.composite) for cot, b in scored] == [
        (LEAKING_COT, "leak", 0.0), (CLEAN_COT, "similarity", pytest.approx(1.0))] * 2
    assert result.records[0].cot == CLEAN_COT


def _oracle_select_best_of_group(members):
    """(index, member) of the highest-reward member of per-member records, ties
    to the lowest index: the selection the stage made when it built a record
    for every member."""
    if not members:
        raise DomainError("cannot select from an empty group")
    best = max(range(len(members)), key=lambda i: (members[i].reward, -i))
    return best, members[best]


OTHER_CLEAN_COT = "A dog naps in a pool of afternoon sun beside an overturned water bowl."
SHORT_COT = "a dog"  # shorter than a narrative: fails the format gate


@pytest.mark.parametrize("cots, answers, best", [
    # Two members tied at the top, after a lower one: the first of the tie.
    ([CLEAN_COT, OTHER_CLEAN_COT, LEAKING_COT, CLEAN_COT + " "],
     ["uniform", "exact", "exact", "exact"], 1),
    # Every member gated to 0: the first.
    ([LEAKING_COT, SHORT_COT, LEAKING_COT + " "], ["exact", "exact", "no answer"], 0),
    # A leak-gated member shares the best member's reconstruction.
    ([LEAKING_COT, CLEAN_COT], ["exact", "exact"], 1),
], ids=["tie-at-the-top", "all-zero", "leak-shares-the-best-reconstruction"])
def test_the_stage_keeps_the_record_that_per_member_selection_keeps(
        monkeypatch, emotion_sample, cots, answers, best):
    from cotloop import pipeline
    original, members = pipeline.closed_loop_reward, []

    def recording(sample, cot, text, *, scored):
        breakdown = original(sample, cot, text, scored=scored)
        members.append(ScoredRecord(sample.id, cot, scored[0].answer, breakdown.composite,
                                    breakdown))
        return breakdown
    monkeypatch.setattr(pipeline, "closed_loop_reward", recording)
    task = emotion_sample.task
    uniform = Distribution({c: 1 / len(task.categories) for c in task.categories})
    texts = {"exact": answer_of(emotion_sample.annotation, task),
             "uniform": answer_of(uniform, task), "no answer": "no answer"}
    recon = MockBackend({reconstruction_prompt(emotion_sample, cot): texts[answer]
                         for cot, answer in zip(cots, answers)})
    other = Sample(id="other", image_ref="img://other", task=task, annotation=uniform)
    g = len(cots)
    result = run_closed_loop_stage([emotion_sample, other], Scripted(cots), recon,
                                   group_size=g, seed=0)
    assert result.failures == []
    # closed_loop_reward runs once per member: G times per sample.
    assert [r.sample_id for r in members] == [emotion_sample.id] * g + ["other"] * g
    assert result.records == [_oracle_select_best_of_group(members[:g])[1],
                              _oracle_select_best_of_group(members[g:])[1]]
    assert result.records[0].cot == cots[best]


def test_stage_fails_a_sample_whose_backend_fails_part_way_through_a_group(emotion_sample):
    other = Sample(id="other", image_ref="img://other", task=emotion_sample.task,
                   annotation=emotion_sample.annotation)
    text = answer_of(emotion_sample.annotation, emotion_sample.task)
    recon = Scripted([text, text, MockMiss("third member"), text, text, text, text])
    result = run_closed_loop_stage([emotion_sample, other], Scripted([CLEAN_COT]), recon,
                                   group_size=4, seed=0)
    assert [r.sample_id for r in result.records] == ["other"]
    assert result.failures == [{"sample_id": emotion_sample.id, "error": "third member",
                                 "kind": "MockMiss"}]


def test_stage_resumes_from_torn_file(stage_world, tmp_path):
    full_path = tmp_path / "full.jsonl"
    run_stage(stage_world, full_path)
    full = full_path.read_bytes()

    # Simulate a crash: keep the header + first two records and half of
    # the third record's line.
    lines = full.decode().splitlines(keepends=True)
    torn = tmp_path / "torn.jsonl"
    torn.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
    resumed = run_stage(stage_world, torn)
    assert torn.read_bytes() == full
    assert len(resumed.records) == 8


@pytest.mark.parametrize("torn", [False, True], ids=["complete-end", "torn-end"])
def test_an_interrupted_resume_loses_no_complete_record(stage_world, tmp_path, monkeypatch,
                                                         torn):
    """Resume appends: an interrupt at any line write, Ctrl-C standing in for a
    kill, keeps every complete line of the file it resumes, and a second resume
    then writes the bytes of one uninterrupted run."""
    full_path = tmp_path / "full.jsonl"
    run_stage(stage_world, full_path)
    full = full_path.read_bytes()
    lines = full.decode().splitlines(keepends=True)
    complete = "".join(lines[:5])  # the header and four records
    start = complete + (lines[5][: len(lines[5]) // 2] if torn else "")
    dumps = pipeline._dumps
    for k in range(1, len(lines) + 1):  # every line write of a resume that rewrites the file
        calls = itertools.count(1)

        def interrupted(obj):
            if next(calls) == k:
                raise KeyboardInterrupt
            return dumps(obj)
        path = tmp_path / f"resumed-{k}.jsonl"
        path.write_text(start)
        monkeypatch.setattr(pipeline, "_dumps", interrupted)
        try:
            run_stage(stage_world, path)
        except KeyboardInterrupt:
            pass
        monkeypatch.setattr(pipeline, "_dumps", dumps)
        assert path.read_text().startswith(complete), k
        run_stage(stage_world, path)
        assert path.read_bytes() == full, k


def test_stage_resumes_after_a_complete_line_without_its_newline(stage_world, tmp_path):
    full_path = tmp_path / "full.jsonl"
    run_stage(stage_world, full_path)
    full = full_path.read_bytes()
    path = tmp_path / "unterminated.jsonl"
    path.write_bytes(full[: full.index(b"\n", full.index(b"\n") + 1)])  # header, one record
    run_stage(stage_world, path)
    assert path.read_bytes() == full


def test_stage_skips_completed_samples(stage_world, tmp_path):
    path = tmp_path / "records.jsonl"
    run_stage(stage_world, path)
    before = path.read_bytes()

    class ExplodingBackend:
        def generate(self, request):
            raise AssertionError("must not be called on a complete run")

    result = run_closed_loop_stage(
        [s.as_sample() for s in stage_world.samples],
        ExplodingBackend(), ExplodingBackend(),
        group_size=4, seed=0, records_path=str(path))
    assert path.read_bytes() == before
    assert len(result.records) == 8


# --- records files -------------------------------------------------------------------

def test_records_round_trip(stage_world, tmp_path):
    result = run_stage(stage_world)
    path = tmp_path / "records.jsonl"
    save_records(result.records, str(path))
    loaded = load_records(str(path))
    assert len(loaded) == len(result.records)
    assert loaded[0] == result.records[0]
    with pytest.raises(MissingFile):
        load_records(str(tmp_path / "absent.jsonl"))


def edit_lines(path, edit):
    """Rewrite `path` after `edit(lines)` of the list of its parsed lines, the
    header first."""
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(lines)
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def test_a_row_or_task_block_with_an_unknown_key_loads_as_without_it(
        stage_world, tmp_path, class_samples, emotion_task, detection_task, detection_sample):
    records = run_stage(stage_world).records
    path = tmp_path / "records.jsonl"
    save_records(records, str(path))

    def add_keys(lines):
        for row in lines[1:]:
            row["note"] = row["breakdown"]["note"] = 1
    edit_lines(path, add_keys)
    assert load_records(str(path)) == records
    for samples, task in ((class_samples, emotion_task), ([detection_sample], detection_task)):
        path = tmp_path / "data.jsonl"
        save_dataset(samples, task, str(path))
        edit_lines(path, lambda lines: lines[0]["task"].update(note="x"))
        assert load_dataset(str(path)) == (samples, [])


def test_a_record_without_its_optional_fields_loads_with_their_defaults(stage_world, tmp_path):
    record = run_stage(stage_world).records[0]
    path = tmp_path / "records.jsonl"
    save_records([record], str(path))

    def drop_optional_fields(lines):
        row = lines[1]
        del row["reconstruction"], row["breakdown"]["reason"], row["breakdown"]["leak_evidence"]
    edit_lines(path, drop_optional_fields)
    loaded, = load_records(str(path))
    assert loaded == dataclasses.replace(record, reconstruction=None)
    assert (loaded.breakdown.reason, loaded.breakdown.leak_evidence) == ("similarity", ())


# --- the file rule: torn, foreign and malformed files ------------------------------

LOADERS = {"dataset": lambda p: load_dataset(p)[0], "records": load_records,
           "predictions": load_predictions}


def write_format(name, path, stage_world):
    samples = [s.as_sample() for s in stage_world.samples]
    if name == "dataset":
        save_dataset(samples, stage_world.task, str(path))
    elif name == "records":
        save_records(run_stage(stage_world).records, str(path))
    else:
        save_predictions(predictions_for(samples), str(path))


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize("content", [
    b"", b"not json\n", b"\xff\xfe binary\n", b'{"format": "cotloop-sft", "version": 1}\n',
    b'{"format": "cotloop-records", "version": 99}\n', b"[1, 2]\n",
    b'{"format": "cotloop-records", "version": 1}\r{"sample_id": "s0"}\r',
], ids=["empty", "not-json", "not-utf8", "foreign", "other-version", "not-object",
        "lines-ending-in-a-bare-cr"])
def test_loaders_refuse_foreign_files(tmp_path, name, content):
    path = tmp_path / "foreign.jsonl"
    path.write_bytes(content)
    with pytest.raises(HeaderMismatch):
        LOADERS[name](str(path))


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loaders_drop_a_torn_final_line(tmp_path, stage_world, caplog, name):
    path = tmp_path / f"{name}.jsonl"
    write_format(name, path, stage_world)
    complete = LOADERS[name](str(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    with caplog.at_level("WARNING", logger="cotloop.pipeline"):
        loaded = LOADERS[name](str(path))
    assert len(loaded) == len(complete) - 1
    assert f"line {len(lines)}" in caplog.text


@pytest.mark.parametrize("name", ["records", "predictions", "stage"])
def test_malformed_middle_line_names_its_line(tmp_path, stage_world, name):
    path = tmp_path / "file.jsonl"
    write_format("predictions" if name == "predictions" else "records", path, stage_world)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = '{"sample_id": "s1"}\n' if name == "records" else "{torn\n"
    path.write_text("".join(lines))
    before = path.read_bytes()
    with pytest.raises(CotloopError, match=r"line 3\b"):
        if name == "stage":
            run_stage(stage_world, path)
        else:
            LOADERS[name](str(path))
    assert path.read_bytes() == before


def test_stage_resumes_a_torn_header_as_a_fresh_run(stage_world, tmp_path):
    full_path = tmp_path / "full.jsonl"
    run_stage(stage_world, full_path)
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(full_path.read_bytes()[:10])
    assert len(run_stage(stage_world, torn).records) == 8
    assert torn.read_bytes() == full_path.read_bytes()


# --- SFT export ----------------------------------------------------------------------

def test_export_sft_corpus(stage_world, tmp_path):
    result = run_stage(stage_world, fidelity=0.45, group_size=2)
    samples = [s.as_sample() for s in stage_world.samples]
    path = tmp_path / "sft.jsonl"
    kept = export_sft_corpus(result.records, samples, tau=0.75, path=str(path))
    expected = sum(1 for r in result.records if r.reward >= 0.75)
    assert kept == expected
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["format"] == "cotloop-sft"
    assert len(lines) == kept + 1
    by_id = {s.id: s for s in samples}
    for raw in lines[1:]:
        obj = json.loads(raw)
        assert validate_f_r1(obj["target"], stage_world.task)
        think, answer_raw = parse_think_answer(obj["target"])
        assert think  # the curated CoT rides in the think section
        parsed = ParsedOutput.from_text(obj["target"], stage_world.task)
        # Canonical rendering closure: the target's answer equals the
        # sample's ground truth within 1e-6.
        sample = next(s for s in samples if r1_prompt(s) == obj["prompt"]
                      and s.image_ref == obj["image_ref"])
        for c in stage_world.vocab:
            assert parsed.answer.probs[c] == pytest.approx(
                sample.annotation.probs[c], abs=1e-6)


def test_export_sft_skips_a_cot_holding_tag_text(stage_world, tmp_path, caplog):
    """Tau 0 keeps reward-0 records, a CoT that failed the format gate among
    them: one holding tag text is skipped, so every target reads back."""
    failed = make_breakdown(1.0, False, False)  # how the format gate scores such a CoT
    records = [dataclasses.replace(r, cot=r.cot + "</think> Mood: heavy.", reward=0.0,
                                   breakdown=failed) if i in (1, 4) else r
               for i, r in enumerate(run_stage(stage_world).records)]
    samples = [s.as_sample() for s in stage_world.samples]
    path = tmp_path / "sft.jsonl"
    with caplog.at_level("WARNING", logger="cotloop.pipeline"):
        written = export_sft_corpus(records, samples, tau=0.0, path=str(path))
    assert written == len(records) - 2
    assert "skipped 2 record(s) whose CoT holds answer-tag text, first syn-0001, syn-0004" \
        in caplog.text
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == written
    for raw in lines:
        obj = json.loads(raw)
        sample = next(s for s in samples if s.image_ref == obj["image_ref"])
        breakdown = think_answer_reward(sample, obj["target"])
        assert breakdown.format_ok and breakdown.composite == pytest.approx(1.0)


def test_a_cot_holding_a_close_think_tag_fails_the_stage_and_the_export(
        stage_world, tmp_path, caplog):
    """A reason backend that ends one sample's CoTs with `</think>` text: that
    record gets reason `format` and reward 0, and export at tau 0 skips it."""
    class ThinkTagReasoner(SyntheticReasonBackend):
        def generate(self, request):
            cot = super().generate(request)
            return cot + "</think> Mood: heavy." if request.sample_id == "syn-0001" else cot

    samples = [s.as_sample() for s in stage_world.samples]
    result = run_closed_loop_stage(samples, ThinkTagReasoner(stage_world),
                                   SyntheticReconBackend(stage_world), group_size=4, seed=0)
    by_id = {r.sample_id: r for r in result.records}
    tagged = by_id.pop("syn-0001")
    assert (tagged.breakdown.reason, tagged.reward) == ("format", 0.0)
    assert tagged.cot.endswith("</think> Mood: heavy.")
    assert all(r.reward == pytest.approx(1.0) for r in by_id.values())
    path = tmp_path / "sft.jsonl"
    with caplog.at_level("WARNING", logger="cotloop.pipeline"):
        written = export_sft_corpus(result.records, samples, tau=0.0, path=str(path))
    assert written == len(samples) - 1
    assert "skipped 1 record(s) whose CoT holds answer-tag text, first syn-0001" in caplog.text
    image_refs = [json.loads(line)["image_ref"] for line in path.read_text().splitlines()[1:]]
    assert "synthetic://syn-0001" not in image_refs


def test_export_sft_excludes_below_tau(stage_world, tmp_path):
    result = run_stage(stage_world)
    samples = [s.as_sample() for s in stage_world.samples]
    path = tmp_path / "sft.jsonl"
    kept = export_sft_corpus(result.records, samples, tau=1.1, path=str(path))
    assert kept == 0
    assert len(path.read_text().splitlines()) == 1


def test_export_sft_refuses_unknown_record_ids(stage_world, tmp_path):
    result = run_stage(stage_world)
    samples = [s.as_sample() for s in stage_world.samples][:1]
    path = tmp_path / "sft.jsonl"
    with pytest.raises(DomainError) as caught:
        export_sft_corpus(result.records, samples, tau=0.75, path=str(path))
    assert str(caught.value) == ("records for unknown sample ids: "
                                 + str([f"syn-000{i}" for i in range(1, 6)]))
    assert not path.exists()


# --- think-answer reward evaluation ----------------------------------------------------

def test_rft_eval_perfect_backend(stage_world, tmp_path):
    samples = [s.as_sample() for s in stage_world.samples]
    book = tmp_path / "book.jsonl"
    result = run_rft_reward_eval(samples, SyntheticR1Backend(stage_world, 1.0),
                                 group_size=4, seed=0,
                                 bookkeeping_path=str(book))
    assert result.mean_reward == pytest.approx(1.0)
    lines = book.read_text().splitlines()
    assert json.loads(lines[0])["format"] == "cotloop-rft-bookkeeping"
    entry = json.loads(lines[1])
    assert len(entry["completions"]) == 4
    assert entry["advantages"] == [0.0] * 4  # constant rewards


def test_rft_eval_format_failures_score_zero(emotion_sample):
    class AnswerOnly:
        def generate(self, request):
            return "<answer>{}</answer>"

    result = run_rft_reward_eval([emotion_sample], AnswerOnly(),
                                 group_size=2, seed=0)
    assert result.mean_reward == 0.0


def test_rft_eval_partial_fidelity_between(stage_world):
    samples = [s.as_sample() for s in stage_world.samples]
    mid = run_rft_reward_eval(samples, SyntheticR1Backend(stage_world, 0.5),
                              group_size=4, seed=0)
    assert 0.0 < mid.mean_reward < 1.0


@pytest.mark.parametrize("group_size", [0, -1, 2.5, "4", True])
@pytest.mark.parametrize("stage", ["closed-loop", "rft"])
def test_stages_refuse_a_group_size_below_one(stage_world, tmp_path, stage, group_size):
    samples = [s.as_sample() for s in stage_world.samples]
    path = tmp_path / "out.jsonl"

    def run(g):
        if stage == "closed-loop":
            return run_stage(stage_world, path, group_size=g)
        return run_rft_reward_eval(samples, SyntheticR1Backend(stage_world), group_size=g,
                                   seed=0, bookkeeping_path=str(path))

    run(1)
    before = path.read_bytes()
    with pytest.raises(InvalidSetting, match="group_size"):
        run(group_size)
    assert path.read_bytes() == before


# --- groups in flight over remote backends ---------------------------------------------

class Reply:
    def __init__(self, status_code, payload):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class ServiceSession:
    """Fake chat-completion service answering each model with a synthetic backend.

    Every post waits about 2 ms, counts the posts open per model and the posts
    made per sample. The first attempt of every request whose seed is
    divisible by 5 gets a 503. Every post for a sample in `bad_body` gets a
    body that is not JSON, every post for one in `down` a 503, and a post for
    `crash` raises an error that is not a backend failure.
    """

    def __init__(self, world, bad_body=(), down=(), crash=None):
        self.models = {"reason": SyntheticReasonBackend(world, 0.6),
                       "recon": SyntheticReconBackend(world),
                       "r1": SyntheticR1Backend(world, 0.6)}
        self.bad_body, self.down, self.crash = set(bad_body), set(down), crash
        self._lock = threading.Lock()
        self.open, self.peak, self.seen = Counter(), Counter(), set()
        self.answered, self.posts = Counter(), Counter()

    def post(self, url, json=None, headers=None, timeout=None):
        image, text = json["messages"][0]["content"]
        sample_id = image["image_url"]["url"].removeprefix("synthetic://")
        model, seed = json["model"], json["seed"]
        with self._lock:
            self.posts[sample_id] += 1
            self.open[model] += 1
            self.peak[model] = max(self.peak[model], self.open[model])
            first = (model, sample_id, seed) not in self.seen
            self.seen.add((model, sample_id, seed))
        try:
            time.sleep(0.002)
            if sample_id == self.crash:
                raise RuntimeError(f"session broke on {sample_id}")
            if sample_id in self.bad_body:
                return Reply(200, ValueError("Expecting value: line 1 column 1 (char 0)"))
            if sample_id in self.down or (first and seed % 5 == 0):
                return Reply(503, {})
            out = self.models[model].generate(GenerationRequest(
                sample_id=sample_id, image_ref=image["image_url"]["url"],
                prompt=text["text"], temperature=json["temperature"],
                max_tokens=json["max_tokens"], seed=seed))
            with self._lock:
                self.answered[model] += 1
            return Reply(200, {"choices": [{"message": {"content": out}}], "usage": {}})
        finally:
            with self._lock:
                self.open[model] -= 1


@pytest.fixture(scope="module")
def remote_world():
    return CueWorld(num_samples=12, cues_per_sample=2, vocab_size=8, seed=3)


def remote_run(world, root, cap, session, ledger=False):
    """Closed-loop stage and rft eval through RemoteBackends capped at `cap`."""
    remote = {model: RemoteBackend(endpoint="http://service.test/v1/chat", model=model,
                                   max_in_flight=cap, session=session,
                                   sleep=lambda seconds: None,
                                   ledger_path=(str(root / f"ledger-{model}.jsonl")
                                                if ledger else None))
              for model in ("reason", "recon", "r1")}
    samples = [s.as_sample() for s in world.samples]
    records, book = root / "records.jsonl", root / "book.jsonl"
    stage = run_closed_loop_stage(samples, remote["reason"], remote["recon"],
                                  group_size=3, seed=5, records_path=str(records))
    rft = run_rft_reward_eval(samples, remote["r1"], group_size=3, seed=5,
                              bookkeeping_path=str(book))
    return stage, rft, records.read_bytes(), book.read_bytes()


def test_groups_in_flight_write_the_bytes_of_a_sequential_run(remote_world, tmp_path,
                                                              monkeypatch):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    samples = [s.as_sample() for s in remote_world.samples]
    bad_body, down = "syn-0002", "syn-0007"
    # In-process backends run on the calling thread: the sequential reference.
    kept = [s for s in samples if s.id not in (bad_body, down)]
    reference = {"records": tmp_path / "reference-records.jsonl",
                 "book": tmp_path / "reference-book.jsonl"}
    run_closed_loop_stage(kept, SyntheticReasonBackend(remote_world, 0.6),
                          SyntheticReconBackend(remote_world), group_size=3, seed=5,
                          records_path=str(reference["records"]))
    run_rft_reward_eval(kept, SyntheticR1Backend(remote_world, 0.6), group_size=3, seed=5,
                        bookkeeping_path=str(reference["book"]))
    failures = [
        {"sample_id": bad_body, "kind": "BadPayload",
         "error": "malformed reply: ValueError: Expecting value: line 1 column 1 (char 0)"},
        {"sample_id": down, "kind": "RemoteUnavailable", "error": "HTTP 503"}]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cap in (1, 2, 3):
            root = tmp_path / f"cap{cap}"
            root.mkdir()
            session = ServiceSession(remote_world, bad_body=[bad_body], down=[down])
            stage, rft, records, book = remote_run(remote_world, root, cap, session,
                                                   ledger=True)
            assert records == reference["records"].read_bytes()
            assert book == reference["book"].read_bytes()
            assert stage.failures == failures and rft.failures == failures
            assert all(peak <= cap for peak in session.peak.values()), session.peak
            if cap > 1:
                assert max(session.peak.values()) > 1, session.peak
            for model in ("reason", "recon", "r1"):
                lines = (root / f"ledger-{model}.jsonl").read_text().splitlines()
                entries = [json.loads(line) for line in lines]
                assert len(entries) == session.answered[model]
                assert len({(e["sample_id"], e["seed"]) for e in entries}) == len(entries)
    finally:
        sys.setswitchinterval(switch)


def test_an_error_in_one_group_leaves_an_in_order_prefix(remote_world, tmp_path,
                                                         monkeypatch):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    full_root, root = tmp_path / "full", tmp_path / "crashed"
    full_root.mkdir()
    root.mkdir()
    _, _, full, _ = remote_run(remote_world, full_root, 3,
                               ServiceSession(remote_world, down=["syn-0002"]))
    with pytest.raises(RuntimeError, match="syn-0005"):
        remote_run(remote_world, root, 3,
                   ServiceSession(remote_world, down=["syn-0002"], crash="syn-0005"))
    assert not [t for t in threading.enumerate() if t.name.startswith("cotloop-group")]
    prefix = (root / "records.jsonl").read_bytes()
    ids = [json.loads(line)["sample_id"] for line in prefix.splitlines()[1:]]
    assert ids == ["syn-0000", "syn-0001", "syn-0003", "syn-0004"]
    assert full.startswith(prefix)
    _, _, resumed, _ = remote_run(remote_world, root, 3,
                                  ServiceSession(remote_world, down=["syn-0002"]))
    assert resumed == full


def remote_stage(samples, cap, session, group_size):
    """The closed-loop stage through reason and recon RemoteBackends capped at `cap`."""
    reason, recon = (RemoteBackend(endpoint="http://service.test/v1/chat", model=model,
                                   max_in_flight=cap, session=session,
                                   sleep=lambda seconds: None)
                     for model in ("reason", "recon"))
    return run_closed_loop_stage(samples, reason, recon, group_size=group_size, seed=5)


def assert_nothing_left_running(session):
    assert not [t for t in threading.enumerate() if t.name.startswith("cotloop-group")]
    assert all(n == 0 for n in session.open.values()), session.open


def test_the_members_of_one_group_fill_every_slot(remote_world, monkeypatch):
    """One sample at G = 8 with caps of 2: its members share the four threads,
    so each model has two posts open at once, where one thread per group
    would post one at a time."""
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    sample = remote_world.samples[0].as_sample()
    session = ServiceSession(remote_world)
    stage = remote_stage([sample], 2, session, group_size=8)
    assert [r.sample_id for r in stage.records] == [sample.id]
    assert session.peak == {"reason": 2, "recon": 2}
    assert_nothing_left_running(session)


def test_a_stage_starts_no_more_threads_than_it_has_members(remote_world, monkeypatch):
    """One sample at G = 2 through two backends capped at 20: the caps add up
    to 40, but only the stage's 2 members can ever run, so at most 2 member
    threads are alive during any post."""
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    alive = []

    class ThreadCountingSession(ServiceSession):
        def post(self, url, json=None, headers=None, timeout=None):
            alive.append(sum(t.name.startswith("cotloop-group")
                             for t in threading.enumerate()))
            return super().post(url, json=json, headers=headers, timeout=timeout)

    sample = remote_world.samples[0].as_sample()
    session = ThreadCountingSession(remote_world)
    stage = remote_stage([sample], 20, session, group_size=2)
    assert [r.sample_id for r in stage.records] == [sample.id]
    assert len(alive) >= 4 and max(alive) <= 2
    assert_nothing_left_running(session)


def test_a_failed_sample_posts_no_member_above_its_failure(remote_world, monkeypatch):
    """Every post of a sample fails at cap 1 (two threads): once one member has
    failed, no later member is posted, so the sample makes at most two
    members' attempts, not G × max_attempts."""
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    down, up = (s.as_sample() for s in remote_world.samples[:2])
    session = ServiceSession(remote_world, down=[down.id])
    stage = remote_stage([down, up], 1, session, group_size=8)
    assert stage.failures == [{"sample_id": down.id, "kind": "RemoteUnavailable",
                               "error": "HTTP 503"}]
    assert [r.sample_id for r in stage.records] == [up.id]
    max_attempts = 3
    assert session.posts[down.id] <= 2 * max_attempts < 8 * max_attempts
    assert_nothing_left_running(session)


@pytest.mark.parametrize("line", [3, 16], ids=["closed-loop", "rft"])
def test_an_error_while_writing_stops_the_members_in_flight(remote_world, tmp_path,
                                                            monkeypatch, line):
    """Ctrl-C at a line write of a remote run (line 16 is the rft file's
    second): while the caller still holds the traceback, no member thread is
    left and no post is made after."""
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    dumps, writes = pipeline._dumps, itertools.count(1)

    def interrupted(obj):
        if next(writes) == line:
            raise KeyboardInterrupt
        return dumps(obj)
    monkeypatch.setattr(pipeline, "_dumps", interrupted)
    session = ServiceSession(remote_world)
    with pytest.raises(KeyboardInterrupt) as caught:
        remote_run(remote_world, tmp_path, 2, session)
    assert caught.traceback  # the frames of the run are still referenced
    assert_nothing_left_running(session)
    posts = sum(session.posts.values())
    time.sleep(0.05)
    assert sum(session.posts.values()) == posts


def test_closing_the_ordered_map_drops_its_queued_calls_and_joins_its_threads():
    """A caller that stops after the first group: the calls still queued (at
    most `workers` groups ahead) are dropped, and no thread outlives close()."""
    ran = []

    def call(n):
        def run():
            time.sleep(0.001)
            ran.append(n)
            return n
        return run

    groups = ([call(4 * k + i) for i in range(4)] for k in range(10))
    results = pipeline._ordered_map(groups, workers=2)
    assert next(results) == [0, 1, 2, 3]
    results.close()
    assert not [t for t in threading.enumerate() if t.name.startswith("cotloop-group")]
    assert 4 <= len(ran) <= 3 * 4
    assert len(ran) == len(set(ran))


def test_a_failed_sample_records_the_error_of_its_lowest_failing_member(
        remote_world, monkeypatch):
    """Member 5 fails first (503s) while member 2 is still posting; member 2
    then fails too (bodies that are not JSON). The failure recorded is member
    2's, the one a sequential run meets first."""
    monkeypatch.setenv("COTLOOP_API_KEY", "k")
    sample = remote_world.samples[0].as_sample()
    seeds = [pipeline._derive_seed(5, sample.id, g) for g in range(8)]
    member_5_posts, member_5_failed = itertools.count(1), threading.Event()

    class TwoFailingMembers(ServiceSession):
        def post(self, url, json=None, headers=None, timeout=None):
            if json["seed"] == seeds[5]:
                if next(member_5_posts) == 3:  # its last attempt
                    member_5_failed.set()
                return Reply(503, {})
            if json["seed"] == seeds[2]:
                member_5_failed.wait(timeout=5)
                return Reply(200, ValueError("Expecting value: line 1 column 1 (char 0)"))
            return super().post(url, json=json, headers=headers, timeout=timeout)

    session = TwoFailingMembers(remote_world)
    stage = remote_stage([sample], 2, session, group_size=8)
    assert member_5_failed.is_set()
    assert stage.failures == [{
        "sample_id": sample.id, "kind": "BadPayload",
        "error": "malformed reply: ValueError: Expecting value: line 1 column 1 (char 0)"}]
    assert_nothing_left_running(session)


class Capped:
    """An in-process backend with a `max_in_flight` cap that answers `text`
    after a short wait. Its first call with the seed `down` raises
    RemoteUnavailable instead."""

    def __init__(self, text, cap, down=None):
        self.text, self.max_in_flight, self.down = text, cap, down

    def generate(self, request):
        if request.seed == self.down:
            self.down = None
            raise RemoteUnavailable("down")
        time.sleep(0.005)
        return self.text


def test_two_samples_that_share_an_id_fail_and_score_apart(emotion_sample):
    """The same sample twice, its member 0 down once: the copy that meets it
    fails and the other is scored, the same with members on four threads
    (caps of 2) as on the calling thread (no caps)."""
    text = answer_of(emotion_sample.annotation, emotion_sample.task)
    down = pipeline._derive_seed(0, emotion_sample.id, 0)

    def run(cap):
        return run_closed_loop_stage([emotion_sample] * 2, Capped(CLEAN_COT, cap, down),
                                     Capped(text, cap), group_size=4, seed=0)
    threaded, sequential = run(2), run(0)
    assert threaded == sequential
    assert [r.sample_id for r in threaded.records] == [emotion_sample.id]
    assert threaded.failures == [{"sample_id": emotion_sample.id, "error": "down",
                                  "kind": "RemoteUnavailable"}]


def test_a_stage_without_an_output_path_serializes_nothing(monkeypatch, stage_world):
    """Neither the closed-loop stage without a records path nor the noise
    audit turns a record into JSON."""
    from cotloop import audit

    def refused(record):
        raise AssertionError("record_to_json called without a records path")
    monkeypatch.setattr(pipeline, "record_to_json", refused)
    samples = [s.as_sample() for s in stage_world.samples]
    reason, recon = SyntheticReasonBackend(stage_world, 0.8), SyntheticReconBackend(stage_world)
    stage = run_closed_loop_stage(samples, reason, recon, group_size=2, seed=0)
    assert len(stage.records) == len(samples)
    report, _ = audit.run_noise_audit(samples, 0.5, reason, recon, group_size=2)
    assert report.n_clean + report.n_corrupted == len(samples)


# --- evaluation ------------------------------------------------------------------------

def predictions_for(samples):
    return {s.id: "<answer>" + render_annotation(s.annotation, s.task) + "</answer>"
            for s in samples}


def test_evaluate_identity(class_samples):
    report = evaluate_predictions(predictions_for(class_samples), class_samples)
    assert report.mean_jsd == pytest.approx(0.0, abs=1e-9)
    assert report.accuracy == 1.0
    assert report.parse_failures == 0


def test_evaluate_disjoint_two_class():
    task = Classification(("a", "b"))
    samples = [Sample(id=f"s{i}", image_ref="x", task=task,
                      annotation=Distribution({"a": 1.0, "b": 0.0}))
               for i in range(3)]
    preds = {s.id: "<answer>{'a': 0.0, 'b': 1.0}</answer>" for s in samples}
    report = evaluate_predictions(preds, samples)
    assert report.mean_jsd == pytest.approx(0.693147, abs=1e-5)
    assert report.accuracy == 0.0


def test_evaluate_win_rate(class_samples):
    preds = {s.id: "<answer>" + render_annotation(
        Distribution({c: 1 / 7 for c in EMOTION_CATEGORIES}),
        s.task) + "</answer>" for s in class_samples}
    reference = predictions_for(class_samples)  # exact: beats uniform everywhere
    report = evaluate_predictions(preds, class_samples, reference)
    assert report.win_rate == 1.0
    report = evaluate_predictions(reference, class_samples, preds)
    assert report.win_rate == 0.0


def test_evaluate_parse_failure_scores_uniform(class_samples):
    preds = predictions_for(class_samples)
    preds[class_samples[0].id] = "no tags"
    report = evaluate_predictions(preds, class_samples)
    assert report.parse_failures == 1
    from cotloop.similarity import jsd
    uniform = Distribution({c: 1 / 7 for c in EMOTION_CATEGORIES})
    assert report.per_sample[class_samples[0].id] == pytest.approx(
        jsd(class_samples[0].annotation, uniform))


def test_evaluate_detection_hit_rate(detection_task):
    gt = Sample(id="d", image_ref="x", task=detection_task,
                annotation=BoxSet((Box(0, 0, 100, 100), Box(300, 300, 400, 400))))
    # One box matched well (IoU > 0.5), one matched poorly.
    report = evaluate_predictions(
        {"d": "<answer>[[0, 0, 100, 90], [300, 300, 320, 320]]</answer>"}, [gt])
    assert report.detection_score == 0.5
    report = evaluate_predictions({"d": "word salad"}, [gt])
    assert report.detection_score == 0.0 and report.parse_failures == 1


def test_evaluate_refuses_samples_of_two_task_kinds(class_samples, detection_task):
    gt = Sample(id="d", image_ref="x", task=detection_task,
                annotation=BoxSet((Box(0, 0, 100, 100),)))
    preds = {**predictions_for(class_samples[:1]), "d": "<answer>[[0, 0, 100, 100]]</answer>"}
    with pytest.raises(DomainError, match="one task kind"):
        evaluate_predictions(preds, [class_samples[0], gt])


def test_evaluate_unknown_id(class_samples):
    with pytest.raises(DomainError):
        evaluate_predictions({"ghost": "<answer>{}</answer>"}, class_samples)


def test_predictions_round_trip(tmp_path, class_samples):
    preds = predictions_for(class_samples)
    path = tmp_path / "preds.jsonl"
    save_predictions(preds, str(path))
    assert load_predictions(str(path)) == preds


def test_an_integer_id_reads_in_its_str_form(tmp_path, class_samples, emotion_task):
    path = tmp_path / "preds.jsonl"
    save_predictions({3: "<answer>{}</answer>"}, str(path))
    assert load_predictions(str(path)) == {"3": "<answer>{}</answer>"}
    path = tmp_path / "data.jsonl"
    save_dataset(class_samples[:1], emotion_task, str(path))
    edit_lines(path, lambda lines: lines[1].update(id=3))
    assert load_dataset(str(path))[0][0].id == "3"


# --- golden bytes ------------------------------------------------------------------------

# sha256 of every file format, written for a tiny world of each task kind.
# A change to any writer, to the synthetic backends or to reward scoring
# shows up here.
GOLDEN_SHA256 = {
    "classification": {
        "dataset": "d452ad4483697f6ee948ba7fa7dc395d5ce95479b3173c4f354639642ee1b510",
        "records": "536c27adeb74a6c53e5e6faa1df74b87f333725f82c79e9e94d19620dec208b6",
        "sft": "9cd51087c5d673c2c35d6bf377299f9e1b5548ffb50f7e3621416069ce5d4f68",
        "rft": "1a74395c3c9aaa4c7a190a7a1b5f8ecec8eb622f2610648a04bf8acda60828cc",
        "predictions": "32a26e547182d03ffaf0d5bb6a3d9756a6f25f6105149f8252c181edc4a8d214",
    },
    "detection": {
        "dataset": "8ab7c26b5ab4231206430d0851e1206310fefd41e7d8a73085a66c0929448387",
        "records": "b269374cce84b536104b1ca2a95b1fa593d37232abb8536b9aecb8b3ebc50e38",
        "sft": "939eb6eff6c7cb5bcfc23d6f2cccb4d0a1d18c2bd710db87ca304e2469b4eaf2",
        "rft": "f6885617269d538b8892800c9e3b585faca66baf4022ce0287b8c6a41698cfad",
        "predictions": "ec68d844890f6dc3c72ce9e2784f53114aaae583ba2a0de430f4298e545d5c33",
    },
}


def write_every_format(kind, root):
    world = CueWorld(kind=kind, num_samples=4, cues_per_sample=2, vocab_size=6,
                     seed=3)
    samples = [s.as_sample() for s in world.samples]
    paths = {name: root / f"{kind}-{name}.jsonl"
             for name in ("dataset", "records", "sft", "rft", "predictions")}
    save_dataset(samples, world.task, str(paths["dataset"]))
    stage = run_closed_loop_stage(samples, SyntheticReasonBackend(world, 0.6),
                                  SyntheticReconBackend(world), group_size=3,
                                  seed=5, records_path=str(paths["records"]))
    resaved = root / f"{kind}-resaved.jsonl"
    save_records(stage.records, str(resaved))
    assert resaved.read_bytes() == paths["records"].read_bytes()
    export_sft_corpus(stage.records, samples, tau=0.5, path=str(paths["sft"]))
    run_rft_reward_eval(samples, SyntheticR1Backend(world, 0.6), group_size=3,
                        seed=5, bookkeeping_path=str(paths["rft"]))
    save_predictions(predictions_for(samples), str(paths["predictions"]))
    return paths


@pytest.mark.parametrize("kind", ["classification", "detection"])
def test_every_format_is_byte_stable(tmp_path, kind):
    paths = write_every_format(kind, tmp_path)
    digests = {name: hashlib.sha256(p.read_bytes()).hexdigest()
               for name, p in paths.items()}
    assert digests == GOLDEN_SHA256[kind]


# sha256 of the records and rft bookkeeping at G=1: the stage keeps each
# sample's only member and every rft advantage is 0.
GOLDEN_G1_SHA256 = {
    "classification": {
        "records": "038efebf13659d4d5e72fa51e7709757c165de34920652491d2b3e59ae2a5d94",
        "rft": "f8858dece44616056b6e79e0a8dc2d7c49b3f60a550dc3cdd055d9d811878d3c",
    },
    "detection": {
        "records": "04380e3259a51bc7dd9f2e9ef2fc43798f2a37bb7e6186c6e5ff545141ed19d3",
        "rft": "ecab9523d46a98469404577fee195556cbf4a93f9cfe8ff4f52b2404c9235af1",
    },
}


@pytest.mark.parametrize("kind", ["classification", "detection"])
def test_a_group_of_one_is_byte_stable(tmp_path, kind):
    world = CueWorld(kind=kind, num_samples=6, cues_per_sample=2, vocab_size=6,
                     seed=3)
    samples = [s.as_sample() for s in world.samples]
    records, rft = tmp_path / "records.jsonl", tmp_path / "rft.jsonl"
    run_closed_loop_stage(samples, SyntheticReasonBackend(world, 0.6),
                          SyntheticReconBackend(world), group_size=1, seed=5,
                          records_path=str(records))
    run_rft_reward_eval(samples, SyntheticR1Backend(world, 0.6), group_size=1,
                        seed=5, bookkeeping_path=str(rft))
    digests = {name: hashlib.sha256(p.read_bytes()).hexdigest()
               for name, p in (("records", records), ("rft", rft))}
    assert digests == GOLDEN_G1_SHA256[kind]
