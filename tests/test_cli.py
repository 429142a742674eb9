"""CLI: exit codes, fixture outputs, manifests, and idempotence."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import threading
import types

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import cotloop
from cotloop import cli
from cotloop.cli import _build_backend, cli_dispatch
from cotloop.domain import make_breakdown, ScoredRecord
from cotloop.pipeline import (load_dataset, r1_prompt, reasoning_prompt,
                              run_closed_loop_stage, save_dataset, save_predictions,
                              save_records)
from cotloop.backends import (CueWorld, MockBackend, RemoteBackend, SyntheticReconBackend,
                              synthetic_reason)
from cotloop.textproto import ParsedOutput, format_answer

from conftest import CLASS_BIN_COUNTS, rewards_with_bin_counts


def write_records(path, rewards, ids=None):
    records = [ScoredRecord(sample_id=ids[i] if ids else f"s{i}", cot="narrative " * 3,
                            reconstruction=None, reward=r,
                            breakdown=make_breakdown(r, False, True))
               for i, r in enumerate(rewards)]
    save_records(records, str(path))


def write_world_config(path, **world):
    cfg = {"world": {"kind": "classification", "num_samples": 8,
                     "cues_per_sample": 4, "vocab_size": 24, "seed": 0,
                     **world}}
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


# --- usage / exit codes ----------------------------------------------------------

def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_dispatch(["frobnicate"]) == 64
    assert cli_dispatch(["filter"]) == 64  # missing required flag


# Each subcommand's options: option strings -> (type, default, required, action).
_HELP = (None, argparse.SUPPRESS, False, "_HelpAction")
_STR = (None, None, False, "_StoreAction")
_REQUIRED = (None, None, True, "_StoreAction")
_INT = (int, None, False, "_StoreAction")
_FLOAT = (float, None, False, "_StoreAction")
_FLAG = (None, False, False, "_StoreTrueAction")
SUBCOMMAND_OPTIONS = {
    "ingest": {"-h --help": _HELP, "--input": _REQUIRED, "--output": _REQUIRED,
               "--task": _REQUIRED, "--categories": _STR, "--width": _FLOAT,
               "--height": _FLOAT},
    "gen-cot": {"-h --help": _HELP, "--config": _STR, "--dataset": _STR,
                "--records": _REQUIRED, "--group-size": _INT, "--seed": _INT,
                "--skip-invalid": _FLAG},
    "filter": {"-h --help": _HELP, "--records": _REQUIRED, "--tau": _FLOAT},
    "export-sft": {"-h --help": _HELP, "--records": _REQUIRED, "--dataset": _REQUIRED,
                   "--output": _REQUIRED, "--tau": _FLOAT, "--skip-invalid": _FLAG,
                   "--config": _STR},
    "rft-eval": {"-h --help": _HELP, "--config": _STR, "--dataset": _STR, "--output": _STR,
                 "--group-size": _INT, "--seed": _INT, "--skip-invalid": _FLAG},
    "train-toy": {"-h --help": _HELP, "--steps": (int, 300, False, "_StoreAction"),
                  "--group-size": _INT, "--seed": _INT,
                  "--lr": (float, 0.5, False, "_StoreAction"), "--minibatch": _INT,
                  "--world-samples": _INT, "--world-cues": _INT, "--world-vocab": _INT,
                  "--world-seed": _INT, "--output": _REQUIRED, "--config": _STR},
    "eval": {"-h --help": _HELP, "--pred": _REQUIRED, "--gt": _REQUIRED, "--reference": _STR,
             "--skip-invalid": _FLAG},
    "audit": {"-h --help": _HELP, "--config": _STR, "--dataset": _STR, "--skip-invalid": _FLAG,
              "--fraction": (float, 0.3, False, "_StoreAction"), "--tau": _FLOAT,
              "--seed": _INT, "--group-size": _INT, "--world-samples": _INT,
              "--world-cues": _INT, "--world-vocab": _INT, "--output": _STR},
    "report": {"-h --help": _HELP, "--records": _REQUIRED, "--output": _STR},
}


def test_each_subcommand_takes_exactly_its_options():
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(subcommands) == sorted(SUBCOMMAND_OPTIONS)
    for name, parser in subcommands.items():
        options = {" ".join(a.option_strings): (a.type, a.default, a.required,
                                                type(a).__name__) for a in parser._actions}
        assert options == SUBCOMMAND_OPTIONS[name], name


def test_validation_error_exits_one(tmp_path, capsys):
    assert cli_dispatch(["filter", "--records",
                         str(tmp_path / "absent.jsonl")]) == 1
    assert capsys.readouterr().err == ("setting tau=0.75 (default)\n"
                                       f"error: no such file: {tmp_path / 'absent.jsonl'}\n")


def test_backend_exhaustion_exits_two(tmp_path, capsys):
    responses = tmp_path / "responses.json"
    responses.write_text("{}")  # mock misses every prompt
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "world": {"kind": "classification", "num_samples": 2,
                  "cues_per_sample": 2, "vocab_size": 8, "seed": 0},
        "backends": {"reason": {"kind": "mock",
                                "responses": str(responses)},
                     "recon": {"kind": "mock",
                               "responses": str(responses)}},
    }))
    code = cli_dispatch(["gen-cot", "--config", str(config),
                         "--records", str(tmp_path / "records.jsonl")])
    assert code == 2


def test_remote_backoff_base_is_checked_and_passed(tmp_path, capsys):
    config = write_world_config(tmp_path / "config.yaml")
    cfg = yaml.safe_load((tmp_path / "config.yaml").read_text())
    remote = {"kind": "remote", "endpoint": "http://localhost:9/v1/chat",
              "model": "m", "max_attempts": 1, "backoff_base": -1}
    cfg["backends"] = {"reason": remote, "recon": remote}
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(cfg))
    code = cli_dispatch(["gen-cot", "--config", config,
                         "--records", str(tmp_path / "records.jsonl")])
    assert code == 1
    assert "backoff_base" in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()
    backends = {"backends": {"reason": dict(remote, backoff_base=0.25)}}
    assert _build_backend(backends, "reason", None).backoff_base == 0.25


def python_with_src(*args, **kw):
    """A fresh interpreter run with the package's source tree on its path."""
    src = os.path.dirname(os.path.dirname(cotloop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kw)


def test_cli_import_leaves_scipy_optimize_unloaded():
    scoring = ("import sys; from cotloop import Box, BoxSet, detection_similarity\n"
               "a, b = Box(0, 0, 2, 2), Box(4, 4, 6, 6)\n"
               "assert detection_similarity(BoxSet((a, b)), BoxSet((b, a))) == 1.0\n"
               "print('scipy' in sys.modules)")
    for script in ("import sys, cotloop.cli; print('scipy.optimize' in sys.modules)",
                   scoring):
        out = python_with_src("-c", script, check=True)
        assert out.stdout.strip() == "False"


def test_python_dash_m_runs_the_cli():
    out = python_with_src("-m", "cotloop.cli", "--help")
    assert out.returncode == 0
    assert out.stdout.startswith("usage: cotloop")
    out = python_with_src("-m", "cotloop.cli", "ingest")
    assert out.returncode == 64
    assert "the following arguments are required" in out.stderr


def test_a_mock_whose_responses_is_a_file_descriptor_number_reads_no_stdin(tmp_path):
    """`responses: 0` is not a path, so the run refuses it instead of reading
    its responses from stdin, here a pipe that holds a JSON mapping."""
    config = edited_config(tmp_path, lambda cfg: cfg.update(
        backends={"reason": {"kind": "mock", "responses": 0}}))
    out = python_with_src("-m", "cotloop.cli", *gen_cot(tmp_path, *config), input="{}")
    assert out.returncode == 1
    assert "backends.reason.responses must be a path, got 0" in out.stderr.splitlines()[-1]
    assert not (tmp_path / "records.jsonl").exists()


def test_a_rejected_request_fails_its_sample_and_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COTLOOP_API_KEY", "k")

    class RejectingSession:
        posts, lock = 0, threading.Lock()  # members post from worker threads

        def post(self, url, json=None, headers=None, timeout=None):
            with self.lock:
                self.posts += 1
            return types.SimpleNamespace(status_code=404)

    session, stages = RejectingSession(), []

    def stage(*args, **kw):
        stages.append(run_closed_loop_stage(*args, **kw))
        return stages[-1]

    monkeypatch.setattr(cli, "RemoteBackend", functools.partial(
        RemoteBackend, session=session, sleep=lambda seconds: pytest.fail("slept")))
    monkeypatch.setattr(cli, "run_closed_loop_stage", stage)
    config = edited_config(tmp_path, lambda cfg: cfg.update(
        backends={"reason": remote_spec(), "recon": remote_spec()}))
    assert cli_dispatch(gen_cot(tmp_path, *config)) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "8 sample(s) failed after retries"
    # Member 0 of each sample posts its first reasoning call and is rejected; a
    # member of the same sample that started before that failure may post too.
    assert 8 <= session.posts <= 8 * 8
    assert [f["kind"] for f in stages[0].failures] == ["RequestRejected"] * 8
    assert {f["error"] for f in stages[0].failures} == {"HTTP 404"}


def test_remote_cap_below_one_exits_one(tmp_path, capsys):
    config = write_world_config(tmp_path / "config.yaml")
    cfg = yaml.safe_load((tmp_path / "config.yaml").read_text())
    remote = {"kind": "remote", "endpoint": "http://localhost:9/v1/chat",
              "model": "m", "max_in_flight": 0}
    cfg["backends"] = {"reason": remote, "recon": remote}
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(cfg))
    code = cli_dispatch(["gen-cot", "--config", config,
                         "--records", str(tmp_path / "records.jsonl")])
    assert code == 1
    assert "max_in_flight" in capsys.readouterr().err
    assert not (tmp_path / "records.jsonl").exists()


def edited_config(tmp, edit):
    """--config for the world config as changed in place by `edit`."""
    write_world_config(tmp / "config.yaml")
    cfg = yaml.safe_load((tmp / "config.yaml").read_text())
    edit(cfg)
    (tmp / "config.yaml").write_text(yaml.safe_dump(cfg))
    return ["--config", str(tmp / "config.yaml")]


def config_text(tmp, text):
    (tmp / "config.yaml").write_text(text)
    return ["--config", str(tmp / "config.yaml")]


def remote_spec(**extra):
    return {"kind": "remote", "endpoint": "http://localhost:9/v1/chat", "model": "m", **extra}


def mock_spec(tmp, responses_text):
    (tmp / "responses.json").write_text(responses_text)
    return {"kind": "mock", "responses": str(tmp / "responses.json")}


def mock_answering(tmp, stage, prompt, response):
    """--config whose `stage` backend is a mock answering the config world's
    first sample's `prompt(sample)` with `response`."""
    world = CueWorld(kind="classification", num_samples=8, cues_per_sample=4, vocab_size=24,
                     seed=0)
    text = json.dumps({prompt(world.samples[0].as_sample()): response})
    return edited_config(tmp, lambda cfg: cfg.update(backends={stage: mock_spec(tmp, text)}))


def ingest(tmp, task, lines, *flags):
    """ingest argv for an input of `lines`: JSON objects, or bytes as they are."""
    (tmp / "raw.jsonl").write_bytes(b"".join(
        (line if isinstance(line, bytes) else json.dumps(line).encode()) + b"\n"
        for line in lines))
    return ["ingest", "--input", str(tmp / "raw.jsonl"), "--output", str(tmp / "data.jsonl"),
            "--task", task, *flags]


def gen_cot(tmp, *args):
    return ["gen-cot", "--records", str(tmp / "records.jsonl"), *args]


def world_dataset(tmp, num_samples):
    """Path of a dataset of the config world's samples, `num_samples` of them."""
    world = CueWorld(kind="classification", num_samples=num_samples, cues_per_sample=4,
                     vocab_size=24, seed=0)
    save_dataset([s.as_sample() for s in world.samples], world.task, str(tmp / "world.jsonl"))
    return str(tmp / "world.jsonl")


def eval_with_lines(tmp, kind="classification", gt=(), pred=(), ref=None):
    """eval argv for a 2-sample `kind` world's ground truth followed by the `gt`
    lines, predictions of the `pred` lines, and a reference of the `ref` lines
    when given."""
    world = CueWorld(kind=kind, num_samples=2, cues_per_sample=2, vocab_size=4, seed=0)
    paths = tmp / "gt.jsonl", tmp / "preds.jsonl", tmp / "ref.jsonl"
    save_dataset([s.as_sample() for s in world.samples], world.task, str(paths[0]))
    save_predictions({}, str(paths[1]))
    save_predictions({}, str(paths[2]))
    for path, lines in zip(paths, (gt, pred, ref or ())):
        with open(path, "a", encoding="utf-8") as f:
            f.writelines(json.dumps(line) + "\n" for line in lines)
    argv = ["eval", "--pred", str(paths[1]), "--gt", str(paths[0])]
    return argv if ref is None else argv + ["--reference", str(paths[2])]


def eval_with_an_invalid_gt_line(tmp):
    """eval argv for a ground-truth dataset whose line 4 lacks a category."""
    world = CueWorld(kind="classification", num_samples=2, cues_per_sample=2,
                     vocab_size=4, seed=0)
    probs = {c: 1.0 for c in world.vocab[:3]}
    return eval_with_lines(tmp, gt=[{"id": "broken", "image_ref": "x",
                                     "annotation": {"probs": probs}}])


def eval_with_gt_task(tmp, task):
    """eval argv for a ground-truth dataset of no lines whose header's task
    block is `task`."""
    argv = eval_with_lines(tmp)
    gt = tmp / "gt.jsonl"
    header = json.loads(gt.read_text(encoding="utf-8").splitlines()[0])
    gt.write_text(json.dumps({**header, "task": task}) + "\n", encoding="utf-8")
    return argv


def eval_with_a_string_probability(tmp):
    """eval argv for a ground-truth dataset whose line 4 gives a probability as
    the string "1" and is valid otherwise."""
    world = CueWorld(kind="classification", num_samples=2, cues_per_sample=2,
                     vocab_size=4, seed=0)
    probs = {c: 0.0 for c in world.task.categories}
    probs[world.task.categories[0]] = "1"
    return eval_with_lines(tmp, gt=[{**NO_ANNOTATION, "annotation": {"probs": probs}}])


def records_file(tmp):
    """Path of a records file of rewards 0, 1/8, ..., 7/8 over the config world."""
    write_records(tmp / "scored.jsonl", [i / 8 for i in range(8)],
                  [f"syn-{i:04d}" for i in range(8)])
    return str(tmp / "scored.jsonl")


def edited_records(tmp, edit):
    """Path of `records_file` with `edit` applied to its last record, the one
    of reward 7/8."""
    path = pathlib.Path(records_file(tmp))
    lines = path.read_text().splitlines()
    record = json.loads(lines[-1])
    edit(record)
    path.write_text("\n".join(lines[:-1] + [json.dumps(record)]) + "\n")
    return str(path)


def records_with_line(tmp, line):
    """Path of `records_file` with the JSON value `line` appended as line 10."""
    path = pathlib.Path(records_file(tmp))
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(line) + "\n")
    return str(path)


def scores_as_strings(record):
    """Make a record's reward, composite and similarity the same string, which
    keeps the reward = composite = similarity identities."""
    record["reward"] = "0.9"
    record["breakdown"].update(composite="0.9", similarity="0.9")


def export_sft_of(records):
    """export-sft argv for a tmp dir, of the records file `records(tmp)`."""
    return lambda t: ["export-sft", "--records", records(t), "--dataset", world_dataset(t, 8),
                      "--output", str(t / "sft.jsonl")]


def a_directory(tmp):
    (tmp / "a-directory").mkdir()
    return str(tmp / "a-directory")


def deep_header_records(tmp):
    """Path of a records file whose header line nests too deep to decode."""
    (tmp / "deep.jsonl").write_text(DEEP_JSON + "\n")
    return str(tmp / "deep.jsonl")


NO_ANNOTATION = {"id": "b", "image_ref": "img://b"}
# Documents nested deeper than the decoders recurse.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
DEEP_YAML = "[" * 5_000 + "]" * 5_000

# case -> (argv for a tmp dir, exit code, text of the last stderr line)
BAD_INPUT = {
    "missing-config": (lambda t: gen_cot(t, "--config", str(t / "absent.yaml")), 1,
                       "absent.yaml"),
    "config-not-a-mapping": (lambda t: gen_cot(t, *config_text(t, "- a\n- b\n")), 1,
                             "must be a mapping"),
    "config-not-yaml": (lambda t: gen_cot(t, *config_text(t, "world: [\n")), 1,
                        "not a YAML file"),
    "unknown-world-kind": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg["world"].update(kind="segmentation"))), 1, "segmentation"),
    "remote-without-endpoint": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reason": {"kind": "remote", "model": "m"}}))),
        1, "endpoint"),
    "remote-max-attempts-0": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reason": remote_spec(max_attempts=0),
                                            "recon": remote_spec()}))), 1, "max_attempts"),
    "unknown-backend-kind": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reason": {"kind": "local"}}))), 1,
        "backends.reason: unknown backend kind: 'local'"),
    "synthetic-backend-unknown-key": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reason": {"kind": "synthetic",
                                                       "fidelty": 0.5}}))), 1,
        "backends.reason: unknown key(s) fidelty"),
    "remote-backend-unknown-key": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reason": remote_spec(max_inflight=8),
                                            "recon": remote_spec()}))), 1,
        "backends.reason: unknown key(s) max_inflight"),
    "config-unknown-key": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(group_sise=4))), 1, "config.yaml: unknown key(s) group_sise"),
    "backends-unknown-stage": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reasn": {"kind": "synthetic"}}))), 1,
        "backends: unknown key(s) reasn"),
    "world-unknown-key": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg["world"].update(vocab=48))), 1, "world: unknown key(s) vocab"),
    "remote-auth-env-an-int": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reason": remote_spec(auth_env=5),
                                            "recon": remote_spec()}))), 1,
        "auth_env must be a string, got 5"),
    "mock-responses-a-list": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reason": {"kind": "mock", "responses": ["a"]}}))),
        1, "backends.reason.responses must be a path, got ['a']"),
    "mock-responses-a-mapping": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"recon": {"kind": "mock", "responses": {"a": 1}}}))),
        1, "backends.recon.responses must be a path, got {'a': 1}"),
    "world-num-samples-a-bool": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg["world"].update(num_samples=True, cues_per_sample=2,
                                           vocab_size=6))), 1,
        "world: a world needs an integer num_samples, got num_samples True"),
    "world-seed-a-bool": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg["world"].update(seed=True))), 1,
        "world: a world needs an integer seed, got seed True"),
    "mock-responses-not-json": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reason": mock_spec(t, "not json")}))), 1,
        "not a JSON mapping"),
    "gen-cot-mock-response-a-list": (lambda t: gen_cot(t, *mock_answering(
        t, "reason", reasoning_prompt, ["a"])), 1, "responses.json: not a JSON mapping "
        "(a JSON object of prompt -> response strings): responses must map each prompt to a "
        "string"),
    "rft-eval-mock-response-an-int": (lambda t: ["rft-eval", *mock_answering(
        t, "r1", r1_prompt, 5)], 1, "responses must map each prompt to a string"),
    "mock-responses-a-list-of-pairs": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reason": mock_spec(t, '[["p", "r"]]')}))), 1,
        "responses must map each prompt to a string"),
    "gen-cot-group-size-0": (lambda t: gen_cot(t, "--group-size", "0",
                                               *edited_config(t, lambda cfg: None)), 1,
                             "group_size"),
    "rft-eval-group-size-0": (lambda t: ["rft-eval", "--group-size", "0",
                                         *edited_config(t, lambda cfg: None)], 1, "group_size"),
    "audit-cues-above-vocab": (lambda t: ["audit", "--world-cues", "30", "--world-vocab",
                                          "5"], 1, "cues_per_sample"),
    "audit-world-cues-0": (lambda t: ["audit", "--world-cues", "0", "--world-samples", "4"],
                           1, "got cues_per_sample 0"),
    "audit-world-cues-negative": (lambda t: ["audit", "--world-cues", "-1"], 1,
                                  "got cues_per_sample -1"),
    "audit-world-samples-0": (lambda t: ["audit", "--world-samples", "0"], 1,
                              "got num_samples 0"),
    "audit-world-vocab-above-the-cue-pairs": (lambda t: [
        "audit", "--world-samples", "2", "--world-vocab", "500"], 1, "vocab_size 500"),
    "audit-detection-world-vocab-0": (lambda t: ["audit", *edited_config(
        t, lambda cfg: cfg["world"].update(kind="detection", vocab_size=0,
                                           cues_per_sample=0))], 1, "vocab_size 0"),
    "train-toy-world-samples-0": (lambda t: ["train-toy", "--world-samples", "0",
                                             "--output", str(t / "curve.tsv")], 1,
                                  "got num_samples 0"),
    "train-toy-world-samples-negative": (lambda t: ["train-toy", "--world-samples", "-3",
                                                    "--output", str(t / "curve.tsv")], 1,
                                         "got num_samples -3"),
    "train-toy-world-too-small-for-its-distractors": (lambda t: [
        "train-toy", "--world-vocab", "6", "--world-cues", "4", "--output",
        str(t / "curve.tsv")], 1, "vocab_size >= cues_per_sample + 3 distractors = 7, got 6"),
    "train-toy-minibatch-0": (lambda t: ["train-toy", "--minibatch", "0", "--output",
                                         str(t / "curve.tsv")], 1, "minibatch"),
    "train-toy-lr-nan": (lambda t: ["train-toy", "--lr=nan", "--output",
                                    str(t / "curve.tsv")], 1,
                         "learning_rate must be a finite number >= 0, got nan"),
    "train-toy-lr-inf": (lambda t: ["train-toy", "--lr=inf", "--output",
                                    str(t / "curve.tsv")], 1,
                         "learning_rate must be a finite number >= 0, got inf"),
    "train-toy-lr-negative": (lambda t: ["train-toy", "--lr=-0.5", "--output",
                                         str(t / "curve.tsv")], 1,
                              "learning_rate must be a finite number >= 0, got -0.5"),
    "ingest-line-without-probs": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": {"x": 1.0, "y": 0.0}},
                              NO_ANNOTATION], "--categories", "x,y"), 1, "raw.jsonl: line 2"),
    "ingest-line-without-boxes": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "boxes": [[0, 0, 1, 1]]}, NO_ANNOTATION],
        "--width", "3", "--height", "3"), 1, "raw.jsonl: line 2"),
    "ingest-probs-of-other-categories": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": {"zzz": 1.0}}], "--categories",
        "a,b"), 1, "raw.jsonl: line 1: missing categories: ['a', 'b']"),
    "ingest-probs-not-summing-to-one": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": {"a": .3, "b": .3}}],
        "--categories", "a,b"), 1, "raw.jsonl: line 1: ground-truth distribution sums to 0.6"),
    "eval-invalid-gt-line": (eval_with_an_invalid_gt_line, 1,
                             "line 4 (broken): missing categories"),
    "ingest-detection-without-boxes": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "boxes": []}], "--width", "3", "--height", "3"),
        1, "raw.jsonl: line 1: ground truth has no boxes"),
    "eval-gt-line-without-boxes": (lambda t: eval_with_lines(
        t, "detection", gt=[{**NO_ANNOTATION, "annotation": {"boxes": []}}]), 1,
        "line 4 (b): ground truth has no boxes"),
    "ingest-target-desc-not-a-string": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": {"x": 1.0, "y": 0.0},
                               "target_desc": 7}], "--categories", "x,y"), 1,
        "raw.jsonl: line 1: target_desc must be a string or null, got int"),
    "eval-gt-target-desc-not-a-string": (lambda t: eval_with_lines(
        t, "detection", gt=[{**NO_ANNOTATION, "annotation": {"boxes": [[0, 0, 1, 1]]},
                             "target_desc": 7}]), 1,
        "line 4: target_desc must be a string or null, got int"),
    "ingest-image-ref-null": (lambda t: ingest(
        t, "classification", [{"id": "b", "image_ref": None, "probs": {"a": 1.0, "b": 0.0}}],
        "--categories", "a,b"), 1, "raw.jsonl: line 1: image_ref must be a string, "
        "got NoneType"),
    "eval-gt-image-ref-a-dict": (lambda t: eval_with_lines(
        t, "detection", gt=[{**NO_ANNOTATION, "image_ref": {"u": 1},
                             "annotation": {"boxes": [[0, 0, 1, 1]]}}]), 1,
        "line 4: image_ref must be a string, got dict"),
    "eval-pred-id-null": (lambda t: eval_with_lines(
        t, pred=[{"id": None, "raw": "<answer>{}</answer>"}]), 1,
        "preds.jsonl: line 2: id must be a string or an integer, got NoneType"),
    "eval-reference-unknown-id": (lambda t: eval_with_lines(
        t, pred=[{"id": "syn-0000", "raw": "<answer>{}</answer>"}],
        ref=[{"id": "zzz", "raw": "<answer>{}</answer>"}]), 1,
        "reference for unknown sample ids: ['zzz']"),
    "eval-pred-raw-not-a-string": (lambda t: eval_with_lines(
        t, pred=[{"id": "syn-0000", "raw": 5}]), 1,
        "preds.jsonl: line 2: raw must be a string, got int"),
    "eval-reference-raw-null": (lambda t: eval_with_lines(
        t, pred=[{"id": "syn-0000", "raw": "<answer>{}</answer>"}],
        ref=[{"id": "syn-0000", "raw": None}]), 1,
        "ref.jsonl: line 2: raw must be a string, got NoneType"),
    "eval-pred-duplicate-id": (lambda t: eval_with_lines(
        t, pred=[{"id": "syn-0000", "raw": "<answer>{}</answer>"}] * 2), 1,
        "preds.jsonl: line 3: duplicate id 'syn-0000'"),
    "eval-reference-duplicate-id": (lambda t: eval_with_lines(
        t, pred=[{"id": "syn-0000", "raw": "<answer>{}</answer>"}],
        ref=[{"id": "syn-0000", "raw": "<answer>{}</answer>"},
             {"id": "syn-0001", "raw": "<answer>{}</answer>"},
             {"id": "syn-0000", "raw": "<answer>{}</answer>"}]), 1,
        "ref.jsonl: line 4: duplicate id 'syn-0000'"),
    "ingest-line-not-utf8": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "boxes": [[0, 0, 1, 1]]}, b"\xff"],
        "--width", "3", "--height", "3"), 1, "raw.jsonl: line 2"),
    "eval-gt-task-without-categories": (lambda t: eval_with_gt_task(
        t, {"kind": "classification"}), 1,
        "gt.jsonl: classification task in header has no 'categories'"),
    "eval-gt-task-width-not-a-number": (lambda t: eval_with_gt_task(
        t, {"kind": "detection", "image_width": "a", "image_height": 3}), 1,
        "gt.jsonl: detection task in header: image dimensions must be numbers, got ['a', 3]"),
    "eval-gt-task-duplicate-categories": (lambda t: eval_with_gt_task(
        t, {"kind": "classification", "categories": ["a", "a"]}), 1,
        "gt.jsonl: classification task in header: category names must be unique"),
    "ingest-duplicate-categories": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": {"a": 1.0}}], "--categories", "a,a"),
        1, "ingest --task classification: category names must be unique"),
    "ingest-trailing-comma-category": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": {"a": 0.5, "": 0.5}}],
        "--categories", "a,"), 1,
        "ingest --task classification: category names must be non-empty"),
    "ingest-empty-categories": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": {"": 1.0}}], "--categories", ""),
        1, "ingest --task classification: category names must be non-empty"),
    # Names an answer map's key cannot carry: every canonical answer of the task
    # (and so every SFT target) would fail to parse.
    "ingest-category-with-a-quote": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": {"it's": 0.5, "b": 0.5}}],
        "--categories", "it's,b"), 1,
        "ingest --task classification: category names [\"it's\"] hold a quote"),
    "ingest-category-with-a-brace": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": {"a}": 0.5, "b": 0.5}}],
        "--categories", "a},b"), 1,
        "ingest --task classification: category names ['a}'] hold a quote"),
    "ingest-category-with-tag-text": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": {"</answer>": 0.5, "b": 0.5}}],
        "--categories", "</answer>,b"), 1,
        "ingest --task classification: category names ['</answer>'] hold a quote"),
    "eval-gt-task-category-with-a-backslash": (lambda t: eval_with_gt_task(
        t, {"kind": "classification", "categories": ["a\\b", "c"]}), 1,
        "gt.jsonl: classification task in header: category names ['a\\\\b'] hold a quote"),
    "eval-gt-task-category-with-a-newline": (lambda t: eval_with_gt_task(
        t, {"kind": "classification", "categories": ["a", "b\nc"]}), 1,
        "gt.jsonl: classification task in header: category names ['b\\nc'] hold a quote"),
    "eval-gt-task-empty-category": (lambda t: eval_with_gt_task(
        t, {"kind": "classification", "categories": ["a", ""]}), 1,
        "gt.jsonl: classification task in header: category names must be non-empty"),
    "ingest-width-0": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "boxes": [[0, 0, 1, 1]]}], "--width", "0",
        "--height", "3"), 1, "ingest --task detection: image dimensions must be positive"),
    "ingest-height-nan": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "boxes": [[0, 0, 1, 1]]}], "--width", "3",
        "--height", "nan"), 1, "ingest --task detection: image dimensions must be positive"),
    "ingest-detection-image-area-overflows": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "boxes": [[0, 0, 1e200, 1e200]]}],
        "--width", "1e201", "--height", "1e201"), 1,
        "ingest --task detection: image area (width x height) must be a finite float"),
    "eval-gt-task-image-area-overflows": (lambda t: eval_with_gt_task(
        t, {"kind": "detection", "image_width": 10**400, "image_height": 3}), 1,
        "gt.jsonl: detection task in header: image area (width x height) must be a finite "
        "float"),
    "synthetic-recon-fidelity": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"recon": {"kind": "synthetic",
                                                      "fidelity": 0.5}}))), 1,
        "backends.recon: unknown key(s) fidelity (known: kind)"),
    "gen-cot-dataset-ids-outside-world": (lambda t: gen_cot(
        t, "--dataset", world_dataset(t, 20), *edited_config(t, lambda cfg: None)), 1,
        "world.jsonl: 12 sample id(s) not in the config world, first syn-0008, syn-0009, "
        "syn-0010, syn-0011, syn-0012"),
    "rft-eval-dataset-ids-outside-world": (lambda t: [
        "rft-eval", "--dataset", world_dataset(t, 9), *edited_config(t, lambda cfg: None)], 1,
        "world.jsonl: 1 sample id(s) not in the config world, first syn-0008"),
    "audit-config-tau-not-a-number": (lambda t: ["audit", *edited_config(
        t, lambda cfg: cfg.update(tau="x"))], 1, "tau must be a number, got 'x'"),
    # Rewards lie in [0, 1]: any other tau keeps nothing or everything.
    "filter-tau-nan": (lambda t: ["filter", "--records", records_file(t), "--tau", "nan"], 1,
                       "tau must be a finite number in [0, 1], got nan"),
    "export-sft-tau-nan": (lambda t: export_sft(t, str(t / "data.jsonl")) + ["--tau", "nan"],
                           1, "tau must be a finite number in [0, 1], got nan"),
    "audit-tau-above-1": (lambda t: ["audit", "--tau", "1.5", *edited_config(
        t, lambda cfg: None)], 1, "tau must be a finite number in [0, 1], got 1.5"),
    "audit-config-tau-negative": (lambda t: ["audit", *edited_config(
        t, lambda cfg: cfg.update(tau=-0.1))], 1,
        "tau must be a finite number in [0, 1], got -0.1"),
    "audit-dataset-ids-outside-world": (lambda t: [
        "audit", "--dataset", world_dataset(t, 9), *edited_config(t, lambda cfg: None)], 1,
        "world.jsonl: 1 sample id(s) not in the config world, first syn-0008"),
    "train-toy-config-group-size-a-string": (lambda t: [
        "train-toy", "--steps", "3", "--output", str(t / "curve.tsv"),
        *edited_config(t, lambda cfg: cfg.update(group_size="2"))], 1,
        "group_size must be an integer, got '2'"),
    "gen-cot-config-seed-a-list": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(seed=[1]))), 1, "seed must be an integer, got [1]"),
    "gen-cot-config-group-size-a-bool": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(group_size=True))), 1,
        "group_size must be an integer, got True"),
    "synthetic-reason-fidelity-not-a-number": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reason": {"kind": "synthetic",
                                                       "fidelity": "x"}}))), 1,
        "fidelity must be a number in [0, 1], got 'x'"),
    "ingest-duplicate-id": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "id": "a", "probs": {"x": 1.0}}] * 2,
        "--categories", "x"), 1, "raw.jsonl: line 2: duplicate id 'a'"),
    "ingest-box-coordinate-a-string": (lambda t: ingest(
        t, "detection", [{"id": "b", "image_ref": "y", "boxes": [["1", 2, True, 4]]}],
        "--width", "10", "--height", "10"), 1, "raw.jsonl: line 1: non-numeric value: '1'"),
    "ingest-probability-a-bool": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": {"p": True, "q": "0"}}],
        "--categories", "p,q"), 1, "raw.jsonl: line 1: non-numeric value: True"),
    "ingest-coordinate-beyond-float-range": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "boxes": [[0, 0, 10**400, 4]]}],
        "--width", "10", "--height", "10"), 1,
        "raw.jsonl: line 1: number outside the float range"),
    "eval-gt-probability-a-string": (eval_with_a_string_probability, 1,
                                     "line 4: non-numeric value: '1'"),
    # Annotation shapes that are not a probs mapping or a list of 4-number boxes,
    # on each path that reads one: an ingest line, a dataset line, a record.
    "ingest-line-not-a-mapping": (lambda t: ingest(
        t, "classification", [5], "--categories", "a,b"), 1,
        "raw.jsonl: line 1: annotation must be a mapping, got int"),
    "ingest-detection-line-not-a-mapping": (lambda t: ingest(
        t, "detection", [5], "--width", "3", "--height", "3"), 1,
        "raw.jsonl: line 1: annotation must be a mapping, got int"),
    "ingest-probs-a-list": (lambda t: ingest(
        t, "classification", [{**NO_ANNOTATION, "probs": [1]}], "--categories", "a,b"), 1,
        "raw.jsonl: line 1: probs must be a mapping, got list"),
    "ingest-boxes-an-int": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "boxes": 5}], "--width", "3", "--height", "3"), 1,
        "raw.jsonl: line 1: boxes must be a list, got int"),
    "ingest-box-of-3-numbers": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "boxes": [[1, 2, 3]]}], "--width", "3",
        "--height", "3"), 1, "raw.jsonl: line 1: each box must be a list of 4 numbers"),
    "eval-gt-annotation-a-string": (lambda t: eval_with_lines(
        t, gt=[{**NO_ANNOTATION, "annotation": "probs"}]), 1,
        "line 4: annotation must be a mapping, got str"),
    "eval-gt-annotation-an-int": (lambda t: eval_with_lines(
        t, gt=[{**NO_ANNOTATION, "annotation": 5}]), 1,
        "line 4: annotation must be a mapping, got int"),
    "eval-gt-probs-a-list": (lambda t: eval_with_lines(
        t, gt=[{**NO_ANNOTATION, "annotation": {"probs": [1]}}]), 1,
        "line 4: probs must be a mapping, got list"),
    "eval-gt-boxes-a-mapping": (lambda t: eval_with_lines(
        t, "detection", gt=[{**NO_ANNOTATION, "annotation": {"boxes": {"a": 1}}}]), 1,
        "line 4: boxes must be a list, got dict"),
    "eval-gt-box-of-5-numbers": (lambda t: eval_with_lines(
        t, "detection", gt=[{**NO_ANNOTATION, "annotation": {"boxes": [[0, 0, 1, 1, 1]]}}]),
        1, "line 4: each box must be a list of 4 numbers"),
    "eval-pred-line-a-string": (lambda t: eval_with_lines(t, pred=["x"]), 1,
                                "preds.jsonl: line 2: a row must be a JSON object, got str"),
    "eval-gt-line-an-int": (lambda t: eval_with_lines(t, gt=[5]), 1,
                            "line 4: a row must be a JSON object, got int"),
    "report-records-line-a-list": (lambda t: ["report", "--records", records_with_line(
        t, [1, 2])], 1, "scored.jsonl: line 10: a row must be a JSON object, got list"),
    "report-record-breakdown-an-int": (lambda t: ["report", "--records", edited_records(
        t, lambda r: r.update(breakdown=5))], 1,
        "scored.jsonl: line 9: breakdown must be a JSON object, got int"),
    "report-record-reconstruction-a-string": (lambda t: ["report", "--records", edited_records(
        t, lambda r: r.update(reconstruction="probs"))], 1,
        "scored.jsonl: line 9: annotation must be a mapping, got str"),
    "report-record-reconstruction-probs-a-list": (lambda t: [
        "report", "--records", edited_records(t, lambda r: r.update(
            reconstruction={"probs": [1]}))], 1,
        "scored.jsonl: line 9: probs must be a mapping, got list"),
    "report-record-reconstruction-boxes-an-int": (lambda t: [
        "report", "--records", edited_records(t, lambda r: r.update(
            reconstruction={"boxes": 5}))], 1,
        "scored.jsonl: line 9: boxes must be a list, got int"),
    "report-record-reconstruction-box-of-3-numbers": (lambda t: [
        "report", "--records", edited_records(t, lambda r: r.update(
            reconstruction={"boxes": [[1, 2, 3]]}))], 1,
        "scored.jsonl: line 9: each box must be a list of 4 numbers"),
    "gen-cot-records-a-directory": (lambda t: [
        "gen-cot", "--records", a_directory(t), *edited_config(t, lambda cfg: None)], 1,
        "Is a directory"),
    "gen-cot-records-in-a-missing-directory": (lambda t: [
        "gen-cot", "--records", str(t / "nodir" / "r.jsonl"),
        *edited_config(t, lambda cfg: None)], 1, "No such file or directory"),
    "report-records-a-directory": (lambda t: ["report", "--records", a_directory(t)], 1,
                                   "Is a directory"),
    "train-toy-output-in-a-missing-directory": (lambda t: [
        "train-toy", "--steps", "2", "--world-samples", "3", "--output",
        str(t / "nodir" / "c.tsv")], 1, "No such file or directory"),
    "audit-output-in-a-missing-directory": (lambda t: [
        "audit", "--output", str(t / "nodir" / "a.txt"), *edited_config(t, lambda cfg: None)],
        1, "No such file or directory"),
    "report-output-in-a-missing-directory": (lambda t: [
        "report", "--records", records_file(t), "--output", str(t / "nodir" / "p.tsv")], 1,
        "No such file or directory"),
    "ingest-mask-cell-a-string": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "mask": [["0", "0"], [0, 0]]}],
        "--width", "10", "--height", "10"), 1,
        "raw.jsonl: line 1: mask must be a list of rows of 0/1 or true/false cells"),
    "ingest-mask-not-a-grid": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "mask": "abc"}], "--width", "10", "--height", "10"),
        1, "raw.jsonl: line 1: mask must be a list of rows of 0/1 or true/false cells"),
    "ingest-box-beyond-the-image": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "boxes": [[0, 0, 50, 50]]}],
        "--width", "10", "--height", "10"), 1,
        "raw.jsonl: line 1: box [0.0, 0.0, 50.0, 50.0] lies outside the 10x10 image"),
    "ingest-mask-wider-than-the-image": (lambda t: ingest(
        t, "detection", [{**NO_ANNOTATION, "mask": [[1, 1]]}], "--width", "1", "--height", "1"),
        1, "raw.jsonl: line 1: box [0, 0, 2, 1] lies outside the 1x1 image"),
    "eval-gt-box-beyond-the-image": (lambda t: eval_with_lines(
        t, "detection", gt=[{**NO_ANNOTATION, "annotation": {"boxes": [[0, 0, 1300, 10]]}}]),
        1, "line 4 (b): box [0.0, 0.0, 1300.0, 10.0] lies outside the 1200x1200 image"),
    "report-output-is-its-records": (lambda t: [
        "report", "--records", records_file(t), "--output", records_file(t)], 1,
        "scored.jsonl is both the output and the --records input"),
    "export-sft-output-is-its-records": (lambda t: export_sft(t, records_file(t)), 1,
                                         "scored.jsonl is both the output and the "
                                         "--records input"),
    "export-sft-output-is-its-dataset": (lambda t: export_sft(
        t, str(t / "." / "world.jsonl")), 1,
        "world.jsonl is both the output and the --dataset input"),
    "ingest-line-nested-too-deep": (lambda t: ingest(
        t, "classification", [DEEP_JSON.encode()], "--categories", "a,b"), 1,
        "raw.jsonl: line 1: maximum recursion depth exceeded"),
    "filter-header-nested-too-deep": (lambda t: ["filter", "--records", deep_header_records(t)],
                                      1, "deep.jsonl: unparseable header"),
    "config-nested-too-deep": (lambda t: gen_cot(t, *config_text(t, DEEP_YAML)), 1,
                               "not a YAML file"),
    "mock-responses-nested-too-deep": (lambda t: gen_cot(t, *edited_config(
        t, lambda cfg: cfg.update(backends={"reason": mock_spec(t, DEEP_JSON)}))), 1,
        "not a JSON mapping"),
    "eval-reference-on-detection": (lambda t: eval_with_lines(t, "detection", ref=[]), 1,
                                    "a reference run is compared on classification samples "
                                    "only"),
    "report-record-reason-a-list": (lambda t: ["report", "--records", edited_records(
        t, lambda r: r["breakdown"].update(reason=["x"]))], 1,
        "scored.jsonl: line 9: reason must be one of leak, parse, format, similarity, "
        "got ['x']"),
    "report-record-reason-an-int": (lambda t: ["report", "--records", edited_records(
        t, lambda r: r["breakdown"].update(reason=3))], 1,
        "scored.jsonl: line 9: reason must be one of leak, parse, format, similarity, got 3"),
    "report-record-scores-strings": (lambda t: ["report", "--records", edited_records(
        t, scores_as_strings)], 1, "scored.jsonl: line 9: similarity must be a number, got str"),
    "filter-record-scores-strings": (lambda t: ["filter", "--records", edited_records(
        t, scores_as_strings)], 1, "scored.jsonl: line 9: similarity must be a number, got str"),
    "export-sft-record-cot-an-int": (export_sft_of(lambda t: edited_records(
        t, lambda r: r.update(cot=5))), 1, "scored.jsonl: line 9: cot must be a string, got int"),
    "export-sft-record-cot-a-list": (export_sft_of(lambda t: edited_records(
        t, lambda r: r.update(cot=["a", 1]))), 1,
        "scored.jsonl: line 9: cot must be a string, got list"),
    "report-record-leak-evidence-a-string": (lambda t: ["report", "--records", edited_records(
        t, lambda r: r["breakdown"].update(leak_evidence="0.9"))], 1,
        "scored.jsonl: line 9: leak_evidence must be a list of strings"),
    "filter-record-leak-evidence-a-string": (lambda t: ["filter", "--records", edited_records(
        t, lambda r: r["breakdown"].update(leak_evidence="0.9"))], 1,
        "scored.jsonl: line 9: leak_evidence must be a list of strings"),
    "report-record-leak-evidence-holding-a-number": (lambda t: [
        "report", "--records", edited_records(
            t, lambda r: r["breakdown"].update(leak_evidence=["0.9", 0.9]))], 1,
        "scored.jsonl: line 9: leak_evidence must be a list of strings"),
    "filter-record-leak-evidence-holding-a-number": (lambda t: [
        "filter", "--records", edited_records(
            t, lambda r: r["breakdown"].update(leak_evidence=["0.9", 0.9]))], 1,
        "scored.jsonl: line 9: leak_evidence must be a list of strings"),
    "ingest-without-categories": (lambda t: ingest(t, "classification", []), 64,
                                  "--categories"),
    "ingest-without-height": (lambda t: ingest(t, "detection", [], "--width", "3"), 64,
                              "--height"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_with_a_typed_error(tmp_path, capsys, case):
    make_argv, code, message = BAD_INPUT[case]
    assert cli_dispatch(make_argv(tmp_path)) == code  # an escaping exception fails the test
    out, err = capsys.readouterr()
    assert message in err.splitlines()[-1]
    assert out == ""  # no summary or report is printed before the error
    assert not (tmp_path / "records.jsonl").exists()
    assert not (tmp_path / "data.jsonl").exists()


def export_sft(tmp, output):
    """export-sft argv for records of rewards 0, 1/8, ..., 7/8 over the config world."""
    return ["export-sft", "--records", records_file(tmp), "--dataset", world_dataset(tmp, 8),
            "--output", output]


# command -> (argv for a tmp dir and an output path, the run settings --config may give)
CONFIG_RUNS = {
    "gen-cot": (lambda t, out: ["gen-cot", "--records", out], ("group_size", "seed")),
    "rft-eval": (lambda t, out: ["rft-eval", "--output", out], ("group_size", "seed")),
    "audit": (lambda t, out: ["audit", "--output", out], ("group_size", "seed", "tau")),
    "train-toy": (lambda t, out: ["train-toy", "--steps", "3", "--output", out],
                  ("group_size", "seed")),
    "export-sft": (export_sft, ("tau",)),
}
# A value of each run setting other than its default.
SETTING_VALUES = {"group_size": 2, "seed": 3, "tau": 0.5}


@pytest.mark.parametrize("command, key", [(command, key) for command, (_, keys)
                                          in CONFIG_RUNS.items() for key in keys])
def test_a_config_setting_runs_as_its_flag(tmp_path, capsys, command, key):
    """A run setting given in --config writes the output and stdout of the same
    value given as a flag, and the manifest records it."""
    make_argv, _ = CONFIG_RUNS[command]
    value, runs = SETTING_VALUES[key], {}
    for source in ("config", "flag"):
        run = tmp_path / source
        run.mkdir()
        config = edited_config(run, lambda cfg: cfg.update({key: value} if source == "config"
                                                           else {}))
        flag = ["--" + key.replace("_", "-"), str(value)] if source == "flag" else []
        assert cli_dispatch(make_argv(tmp_path, str(run / "out")) + config + flag) == 0
        out, err = capsys.readouterr()
        assert f"setting {key}={value} ({source})" in err.splitlines()
        manifest = json.loads((run / "out.manifest.json").read_text())
        assert manifest["settings"][key] == value
        runs[source] = (run / "out").read_bytes(), out.replace(str(run), "<run>")
    assert runs["config"] == runs["flag"]


# command (and its case) -> argv for a tmp dir; each gives every input-file flag the
# command has
MANIFEST_RUNS = {
    "ingest": lambda t: ingest(t, "classification", [{**NO_ANNOTATION, "probs": {"x": 1.0}}],
                               "--categories", "x"),
    "gen-cot": lambda t: gen_cot(t, "--dataset", world_dataset(t, 8),
                                 *edited_config(t, lambda cfg: None)),
    "export-sft": lambda t: export_sft(t, str(t / "sft.jsonl")) + edited_config(
        t, lambda cfg: None),
    "rft-eval": lambda t: ["rft-eval", "--dataset", world_dataset(t, 8), "--output",
                           str(t / "book.jsonl"), *edited_config(t, lambda cfg: None)],
    "train-toy": lambda t: ["train-toy", "--steps", "3", "--output", str(t / "curve.tsv"),
                            *edited_config(t, lambda cfg: None)],
    "audit": lambda t: ["audit", "--group-size", "2", "--output", str(t / "audit.txt"),
                        *edited_config(t, lambda cfg: None)],
    "audit --dataset": lambda t: ["audit", "--group-size", "2", "--dataset",
                                  world_dataset(t, 8), "--output", str(t / "audit.txt"),
                                  *edited_config(t, lambda cfg: None)],
    "report": lambda t: ["report", "--records", records_file(t), "--output",
                         str(t / "plot.tsv")],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_every_manifest_records_exactly_its_inputs(tmp_path, capsys, command):
    """The manifest beside the output holds the settings the command printed and
    the digest of every input-file flag it was given, the output excepted."""
    argv = MANIFEST_RUNS[command](tmp_path)
    assert cli_dispatch(argv) == 0
    command = command.split()[0]
    err = capsys.readouterr().err
    given = {flag: argv[i + 1] for i, flag in enumerate(argv) if flag.startswith("--")}
    output = given["--records" if command == "gen-cot" else "--output"]
    manifest = json.loads(pathlib.Path(output + ".manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == command and os.path.exists(output)
    printed = [line.rsplit(" (", 1)[0] for line in err.splitlines()
               if line.startswith("setting ")]
    assert sorted(printed) == sorted(f"setting {k}={v}" for k, v in manifest["settings"].items())
    inputs = {given[f] for f in ("--config", "--input", "--records", "--dataset")
              if f in given} - {output}
    assert manifest["input_digests"] == {
        p: hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest() for p in inputs}


def test_audit_exits_two_when_samples_fail(tmp_path, capsys):
    config = edited_config(tmp_path, lambda cfg: cfg.update(
        backends={"reason": mock_spec(tmp_path, "{}")}))
    assert cli_dispatch(["audit", "--group-size", "2", *config]) == 2
    out, err = capsys.readouterr()
    assert err.splitlines()[-1] == "8 sample(s) failed after retries"
    assert out.endswith("failed samples:        8\n"
                        "corrupted below tau:   0.0% of 0\n"
                        "clean at/above tau:    0.0% of 0\n")


# --- generated bad input ------------------------------------------------------------
# One valid file of each kind a command reads. Each example breaks one of them by one
# mutation, then runs every command that reads that kind of file on the result.

FUZZ_WORLD = {"kind": "classification", "num_samples": 4, "cues_per_sample": 2,
              "vocab_size": 6, "seed": 0}
# Values of the wrong type for any field; 10**400 is beyond the float range.
WRONG_VALUES = (None, True, 7, -1, 0.5, 10**400, "", "x", [], ["a", 1], {}, {"a": 1})
MUTATIONS = ("drop", "add", "swap", "nest", "truncate", "insert")


@functools.cache
def fuzz_inputs():
    """File name -> bytes of each valid input but the config, which names the
    responses file of its own directory. The mock's responses map the world's
    r1 prompts, then its reasoning prompts; the records are a stage's output."""
    world = CueWorld(**FUZZ_WORLD)
    det = CueWorld(kind="detection", num_samples=4, cues_per_sample=2, vocab_size=4, seed=0)
    samples = [s.as_sample() for s in world.samples]
    thinks = [synthetic_reason(0, s.cue_set) for s in world.samples]
    answers = [format_answer(s.annotation, s.task, think) for s, think in zip(samples, thinks)]
    responses = {**{r1_prompt(s): a for s, a in zip(samples, answers)},
                 **{reasoning_prompt(s): think for s, think in zip(samples, thinks)}}
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        save_dataset(samples, world.task, str(d / "data.jsonl"))
        save_dataset([s.as_sample() for s in det.samples], det.task, str(d / "det.jsonl"))
        save_predictions({s.id: a for s, a in zip(samples, answers)}, str(d / "preds.jsonl"))
        save_predictions({s.id: a for s, a in zip(samples, answers)}, str(d / "ref.jsonl"))
        save_predictions({s.id: format_answer(s.annotation, det.task) for s in det.samples},
                         str(d / "det-preds.jsonl"))
        run_closed_loop_stage(samples, MockBackend(responses), SyntheticReconBackend(world),
                              group_size=2, seed=0, records_path=str(d / "records.jsonl"))
        (d / "responses.json").write_text(json.dumps(responses), encoding="utf-8")
        return {p.name: p.read_bytes() for p in d.iterdir()}


def fuzz_config(d):
    mock = {"kind": "mock", "responses": str(d / "responses.json")}
    return yaml.safe_dump({"world": FUZZ_WORLD, "group_size": 2,
                           "backends": {"reason": mock, "r1": mock}}).encode()


def fuzz_runs(d, name):
    """argv of each command that reads the input `name` in the directory `d`.
    gen-cot resumes from its --records on purpose, so a run that gives it an
    input comes last."""
    f = {n: str(d / n) for n in (*fuzz_inputs(), "config.yaml")}
    config = ["--config", f["config.yaml"]]
    export = ["export-sft", "--records", f["records.jsonl"], "--output", str(d / "sft.jsonl")]
    stages = [["gen-cot", "--records", str(d / "out.jsonl"), *config],
              ["rft-eval", "--output", str(d / "book.jsonl"), *config],
              ["audit", "--output", str(d / "audit.txt"), *config]]
    return {
        "config.yaml": [*stages, [*export, "--dataset", f["data.jsonl"], *config],
                        ["train-toy", "--steps", "2", "--output", str(d / "curve.tsv"),
                         *config]],
        "responses.json": stages,
        "data.jsonl": [*(argv + ["--dataset", f["data.jsonl"]] for argv in stages),
                       [*export, "--dataset", f["data.jsonl"]],
                       ["eval", "--pred", f["preds.jsonl"], "--gt", f["data.jsonl"]]],
        "det.jsonl": [["eval", "--pred", f["det-preds.jsonl"], "--gt", f["det.jsonl"]],
                      [*export, "--dataset", f["det.jsonl"]]],
        "preds.jsonl": [["eval", "--pred", f["preds.jsonl"], "--gt", f["data.jsonl"]],
                        ["eval", "--pred", f["ref.jsonl"], "--gt", f["data.jsonl"],
                         "--reference", f["preds.jsonl"]]],
        "records.jsonl": [["report", "--records", f["records.jsonl"], "--output",
                           str(d / "plot.tsv")],
                          ["filter", "--records", f["records.jsonl"]],
                          [*export, "--dataset", f["data.jsonl"]],
                          ["gen-cot", "--records", f["records.jsonl"], *config]],
    }[name]


def json_paths(doc, path=()):
    """The path of every value in `doc`, `doc` itself first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in list(doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from json_paths(value, path + (key,))


def mutate(data, yaml_file, mutation, where, value):
    """`data` with one mutation at the `where`-th place (counted modulo the
    places it has): a dropped key or item, a key of `value` added to a
    mapping, a value swapped for `value` or nested too deep to decode, the
    file cut at a byte, or a byte that is not UTF-8 inserted."""
    if mutation == "truncate":
        return data[:where % len(data)]
    if mutation == "insert":
        at = where % (len(data) + 1)
        return data[:at] + b"\xff" + data[at:]
    docs = [yaml.safe_load(data)] if yaml_file else [json.loads(line) for line in data.splitlines()]

    def at(doc, path):
        return functools.reduce(lambda node, key: node[key], path, doc)

    places = [(n, path) for n, doc in enumerate(docs) for path in json_paths(doc)
              if (path or mutation != "drop")
              and (mutation != "add" or isinstance(at(doc, path), dict))]
    n, path = places[where % len(places)]
    new = "deep-nesting" if mutation == "nest" else value
    if mutation == "add":
        at(docs[n], path)["added-key"] = value
    elif not path:
        docs[n] = new
    else:
        parent = at(docs[n], path[:-1])
        if mutation == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    if yaml_file:
        # Block sequences, which the loader refuses about 100 times faster than
        # DEEP_YAML's flow sequences, on a line of their own below their key.
        text = yaml.safe_dump(docs[0])
        line = next((line for line in text.splitlines() if "deep-nesting" in line), "")
        below = "\n" + " " * (len(line) - len(line.lstrip()) + 2)
        return text.replace("deep-nesting", below + "- " * 1000 + "x").encode()
    return "".join(json.dumps(doc) + "\n" for doc in docs).replace(
        '"deep-nesting"', DEEP_JSON).encode()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(name=st.sampled_from(("config.yaml", "responses.json", "data.jsonl", "det.jsonl",
                             "preds.jsonl", "records.jsonl")),
       mutation=st.sampled_from(MUTATIONS), where=st.integers(0, 10**4),
       value=st.sampled_from(WRONG_VALUES))
# The response to the first r1 prompt becomes an int.
@example(name="responses.json", mutation="swap", where=1, value=7)
def test_a_mutated_input_ends_in_a_typed_error(name, mutation, where, value):
    """Every command that reads a file of one mutation exits 0, 1 or 2 with no
    escaping exception. A failure ends in a typed error line, or for exit 2 in
    the count of failed samples. No input changes but the records gen-cot
    resumes from, and an SFT target that is written reads back with its think."""
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        inputs = {d / n: data for n, data in fuzz_inputs().items()}
        inputs[d / "config.yaml"] = fuzz_config(d)
        inputs[d / name] = mutate(inputs[d / name], name.endswith(".yaml"), mutation, where,
                                  value)
        for path, data in inputs.items():
            path.write_bytes(data)
        for argv in fuzz_runs(d, name):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli_dispatch(argv)
            lines = [line for line in err.getvalue().splitlines() if line[:1].strip()]
            assert code in (0, 1, 2), (argv, lines)
            if code:
                assert lines[-1].startswith(("error: ", "backend error: ")) or (
                    code == 2 and re.fullmatch(r"\d+ sample\(s\) failed after retries",
                                               lines[-1])), (argv, lines)
            if argv[0] == "gen-cot":
                inputs.pop(pathlib.Path(argv[argv.index("--records") + 1]), None)
            assert {path: path.read_bytes() for path in inputs} == inputs, argv
            if code == 0 and argv[0] == "export-sft":
                samples, _ = load_dataset(argv[argv.index("--dataset") + 1])
                for line in (d / "sft.jsonl").read_text(encoding="utf-8").splitlines()[1:]:
                    target = json.loads(line)["target"]
                    assert isinstance(ParsedOutput.from_text(target, samples[0].task).think,
                                      str), (argv, target)


# --- filter ------------------------------------------------------------------------

def test_filter_fixture_output(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    write_records(records, rewards_with_bin_counts(CLASS_BIN_COUNTS))
    assert cli_dispatch(["filter", "--records", str(records),
                         "--tau", "0.75"]) == 0
    out = capsys.readouterr().out
    assert "kept 568 / 1386 (41.0%)" in out
    assert "[0.75-1.00]" in out


# --- gen-cot / export-sft / report ---------------------------------------------------

def test_gen_cot_and_export_sft(tmp_path, capsys):
    config = write_world_config(tmp_path / "config.yaml")
    records = tmp_path / "records.jsonl"
    assert cli_dispatch(["gen-cot", "--config", config,
                         "--records", str(records)]) == 0
    assert records.exists()
    assert (tmp_path / "records.jsonl.manifest.json").exists()

    # Export needs the dataset on disk too.
    world = CueWorld(kind="classification", num_samples=8, cues_per_sample=4,
                     vocab_size=24, seed=0)
    dataset = tmp_path / "dataset.jsonl"
    save_dataset([s.as_sample() for s in world.samples], world.task,
                 str(dataset))
    sft = tmp_path / "sft.jsonl"
    assert cli_dispatch(["export-sft", "--records", str(records),
                         "--dataset", str(dataset),
                         "--output", str(sft)]) == 0
    out = capsys.readouterr().out
    assert "exported 8 SFT lines" in out  # fidelity-1 world: all kept

    assert cli_dispatch(["report", "--records", str(records),
                         "--output", str(tmp_path / "plot.tsv")]) == 0
    assert "reasons:" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "plot.tsv.manifest.json").read_text())
    assert manifest["command"] == "report"
    assert manifest["input_digests"] == {
        str(records): hashlib.sha256(records.read_bytes()).hexdigest()}


@pytest.fixture
def torn_run(tmp_path):
    """gen-cot records killed mid-line after 7 of 8 samples, and the dataset."""
    config = write_world_config(tmp_path / "config.yaml")
    records = tmp_path / "records.jsonl"
    assert cli_dispatch(["gen-cot", "--config", config,
                         "--records", str(records)]) == 0
    lines = records.read_text().splitlines(keepends=True)
    records.write_text("".join(lines[:-1]) + lines[-1][:40])
    world = CueWorld(kind="classification", num_samples=8, cues_per_sample=4,
                     vocab_size=24, seed=0)
    dataset = tmp_path / "dataset.jsonl"
    save_dataset([s.as_sample() for s in world.samples], world.task,
                 str(dataset))
    return records, dataset


@pytest.mark.parametrize("command, expected", [
    (["filter"], "kept 7 / 7 (100.0%)"),
    (["report"], "[0.75-1.00]          7   100.0%"),
    (["export-sft", "--dataset", "{dataset}", "--output", "{dataset}.sft"],
     "exported 7 SFT lines"),
], ids=["filter", "report", "export-sft"])
def test_commands_read_a_torn_records_file(torn_run, capsys, command, expected):
    records, dataset = torn_run
    capsys.readouterr()
    args = [a.format(dataset=dataset) for a in command]
    assert cli_dispatch(args + ["--records", str(records)]) == 0
    assert expected in capsys.readouterr().out


def test_a_torn_tail_nested_too_deep_is_dropped_and_cut_on_resume(tmp_path, capsys):
    """A final line cut off inside 100,000 open brackets is a torn line: report
    reads the file without it, and a resume cuts it off and then writes the
    bytes of an uninterrupted run."""
    config = write_world_config(tmp_path / "config.yaml")
    full, records = tmp_path / "full.jsonl", tmp_path / "records.jsonl"
    assert cli_dispatch(["gen-cot", "--config", config, "--records", str(full)]) == 0
    lines = full.read_text().splitlines(keepends=True)
    records.write_text("".join(lines[:-1]) + "[" * 100_000)
    capsys.readouterr()
    assert cli_dispatch(["report", "--records", str(records)]) == 0
    assert "[0.75-1.00]          7   100.0%" in capsys.readouterr().out
    assert cli_dispatch(["gen-cot", "--config", config, "--records", str(records)]) == 0
    assert records.read_bytes() == full.read_bytes()


def test_gen_cot_refuses_a_foreign_records_file(torn_run, capsys):
    _, dataset = torn_run
    before = dataset.read_bytes()
    config = write_world_config(dataset.parent / "config.yaml")
    assert cli_dispatch(["gen-cot", "--config", config,
                         "--records", str(dataset)]) == 1
    assert "cotloop-records" in capsys.readouterr().err
    assert dataset.read_bytes() == before


def test_gen_cot_refuses_a_records_file_of_bare_carriage_returns(tmp_path, capsys):
    """Lines that end in a bare carriage return are no complete lines: a resume
    refuses the file and leaves its bytes as they are."""
    config = write_world_config(tmp_path / "config.yaml", num_samples=4)
    records = tmp_path / "records.jsonl"
    argv = ["gen-cot", "--config", config, "--group-size", "2", "--records", str(records)]
    assert cli_dispatch(argv) == 0
    lines = records.read_bytes().split(b"\n")
    records.write_bytes(b"\r".join(lines[:3]) + b"\r")  # the header and 2 records
    before = records.read_bytes()
    capsys.readouterr()
    assert cli_dispatch(argv) == 1
    assert "cotloop-records" in capsys.readouterr().err
    assert records.read_bytes() == before


@pytest.mark.parametrize("content", [b"my only copy of the notes",
                                     b'{"format": "cotloop-sft", "ver'],
                         ids=["text", "torn-foreign-header"])
def test_gen_cot_refuses_a_one_line_file_that_is_no_torn_header(tmp_path, capsys, caplog,
                                                                 content):
    """A file without a complete line starts afresh only when it begins like the
    records header; any other is refused, untouched and without a torn-line
    warning, since no line is dropped."""
    config = write_world_config(tmp_path / "config.yaml")
    notes = tmp_path / "notes.txt"
    notes.write_bytes(content)
    with caplog.at_level("WARNING", logger="cotloop.pipeline"):
        assert cli_dispatch(["gen-cot", "--config", config, "--records", str(notes)]) == 1
    assert "expected cotloop-records" in capsys.readouterr().err
    assert "torn" not in caplog.text
    assert notes.read_bytes() == content


def test_gen_cot_idempotent(tmp_path):
    config = write_world_config(tmp_path / "config.yaml")
    r1, r2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli_dispatch(["gen-cot", "--config", config, "--records", str(r1)]) == 0
    assert cli_dispatch(["gen-cot", "--config", config, "--records", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


# --- train-toy -----------------------------------------------------------------------

def test_train_toy_deterministic_curves(tmp_path):
    args = ["train-toy", "--steps", "3", "--seed", "7",
            "--world-samples", "6", "--world-cues", "3", "--world-vocab", "12"]
    c1, c2 = tmp_path / "c1.tsv", tmp_path / "c2.tsv"
    assert cli_dispatch(args + ["--output", str(c1)]) == 0
    assert cli_dispatch(args + ["--output", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    assert c1.read_text().startswith("step\tmean_reward\n")


# --- eval ----------------------------------------------------------------------------

def test_eval_identity_reports_zero_jsd(tmp_path, capsys):
    world = CueWorld(kind="classification", num_samples=4, cues_per_sample=4,
                     vocab_size=24, seed=0)
    samples = [s.as_sample() for s in world.samples]
    gt = tmp_path / "gt.jsonl"
    save_dataset(samples, world.task, str(gt))
    from cotloop.textproto import render_annotation
    preds = {s.id: "<answer>" + render_annotation(s.annotation, s.task)
             + "</answer>" for s in samples}
    pred_path = tmp_path / "preds.jsonl"
    save_predictions(preds, str(pred_path))
    assert cli_dispatch(["eval", "--pred", str(pred_path),
                         "--gt", str(gt)]) == 0
    out = capsys.readouterr().out
    assert "mean JSD 0.000000" in out
    assert "accuracy 1.0000" in out


# --- audit ---------------------------------------------------------------------------

def test_audit_command(tmp_path, capsys):
    out_path = tmp_path / "audit.txt"
    assert cli_dispatch(["audit", "--world-samples", "10", "--seed", "0",
                         "--group-size", "4",
                         "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "label-noise audit" in out
    assert out_path.exists()


@pytest.mark.parametrize("kind", ["classification", "detection"])
def test_audit_of_a_dataset_of_its_world_writes_the_world_run(tmp_path, capsys, kind):
    config = edited_config(tmp_path, lambda cfg: cfg["world"].update(kind=kind))
    world = CueWorld(kind=kind, num_samples=8, cues_per_sample=4, vocab_size=24, seed=0)
    dataset = str(tmp_path / "world.jsonl")
    save_dataset([s.as_sample() for s in world.samples], world.task, dataset)
    runs = {}
    for name, extra in [("world", []), ("dataset", ["--dataset", dataset]),
                        ("skip-invalid", ["--dataset", dataset, "--skip-invalid"])]:
        out = tmp_path / f"{name}.txt"
        assert cli_dispatch(["audit", "--group-size", "2", "--output", str(out), *config,
                             *extra]) == 0
        runs[name] = out.read_bytes(), capsys.readouterr().out
    assert runs["dataset"] == runs["world"] == runs["skip-invalid"]
    assert b"label-noise audit" in runs["world"][0]


def test_audit_world_flags_override_the_config_world(tmp_path, capsys):
    config = write_world_config(tmp_path / "config.yaml", num_samples=12)
    assert cli_dispatch(["audit", "--config", config, "--world-samples", "40",
                         "--group-size", "2"]) == 0
    out = capsys.readouterr().out
    assert "of 12\n" in out and "of 28\n" in out  # 30% of 40 corrupted, the rest clean


# --- ingest --------------------------------------------------------------------------

def test_ingest_classification(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({"id": "a", "image_ref": "img://a",
                               "probs": {"x": 0.5, "y": 0.5}}) + "\n")
    out = tmp_path / "data.jsonl"
    assert cli_dispatch(["ingest", "--input", str(raw), "--output", str(out),
                         "--task", "classification",
                         "--categories", "x,y"]) == 0
    assert "ingested 1 samples" in capsys.readouterr().out
    from cotloop.pipeline import load_dataset
    samples, _ = load_dataset(str(out))
    assert samples[0].annotation.probs == {"x": 0.5, "y": 0.5}


def test_ingest_detection_with_mask(tmp_path):
    raw = tmp_path / "raw.jsonl"
    mask = [[0, 0, 0], [0, 1, 1], [0, 0, 0]]
    raw.write_text(json.dumps({"id": "m", "image_ref": "img://m",
                               "mask": mask}) + "\n")
    out = tmp_path / "det.jsonl"
    assert cli_dispatch(["ingest", "--input", str(raw), "--output", str(out),
                         "--task", "detection", "--width", "3",
                         "--height", "3"]) == 0
    from cotloop.pipeline import load_dataset
    samples, _ = load_dataset(str(out))
    assert samples[0].annotation.boxes[0].as_tuple() == (1, 1, 3, 2)


# --- manifests ------------------------------------------------------------------------

def test_manifest_contents(tmp_path):
    config = write_world_config(tmp_path / "config.yaml")
    records = tmp_path / "records.jsonl"
    cli_dispatch(["gen-cot", "--config", config, "--records", str(records)])
    manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text())
    assert manifest["command"] == "gen-cot"
    assert "version" in manifest and "args" in manifest
    assert config in manifest["input_digests"]
