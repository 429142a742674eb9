"""Operator surface: subcommands wiring configuration to pipeline stages.

`cli_dispatch` runs every command one way: load `--config` (else `{}`); resolve
and print the run settings, flag > config file > default; check that the
output's directory exists and that the output is none of the input files; call
the handler with (args, config, settings), which returns its stage's failures or
None; write a manifest beside the output (version, command, args, config,
settings, digests of the input-file flags given); exit 2 when samples failed.
The output is gen-cot's `--records` (which is also the file it resumes from),
else `--output`.

Exit codes: 0 success, 1 validation or file error, 2 backend exhaustion,
64 usage error.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import inspect
import json
import os
import sys
from collections import Counter
from typing import Iterator, Optional

from . import __version__
from .audit import run_noise_audit
from .backends import (CueWorld, MockBackend, RemoteBackend,
                       SyntheticR1Backend, SyntheticReasonBackend,
                       SyntheticReconBackend, require)
from .domain import BoxSet, Classification, Detection, Sample, mask_to_box
from .errors import BackendError, CotloopError, InvalidSetting, MalformedLine, MissingFile
from .grpo import export_curve, train_toy_policy
from .pipeline import (annotation_from_json, check_sample, evaluate_predictions,
                       export_sft_corpus, load_dataset, load_predictions, load_records,
                       run_closed_loop_stage, run_rft_reward_eval, sample_text_fields,
                       save_dataset)
from .reward import DEFAULT_TAU, filter_high_subset, histogram_bins, reward_histogram

USAGE_EXIT = 64
# The flags that name a file a command reads; its manifest records their digests.
INPUT_FLAGS = ("config", "input", "records", "dataset")
# Flags that `ingest --task <kind>` cannot do without.
INGEST_NEEDS = {"classification": ("categories",), "detection": ("width", "height")}
# Keys a config file may give, and the stages its backends block may name.
CONFIG_KEYS = ("world", "backends", "group_size", "seed", "tau")
# PyYAML's pure-Python scanner is quadratic in the depth of flow collections
# (`[`, `{`), so a config nested deeper is refused before it is parsed.
MAX_FLOW_DEPTH = 100
BACKEND_STAGES = ("reason", "recon", "r1")
# The run settings and their defaults; a command resolves those it has a flag for.
RUN_DEFAULTS = {"group_size": 8, "seed": 0, "tau": DEFAULT_TAU}
# The `--world-*` flag of each world setting; only train-toy has --world-seed.
WORLD_FLAGS = {"num_samples": "world_samples", "cues_per_sample": "world_cues",
               "vocab_size": "world_vocab", "seed": "world_seed"}
SYNTHETIC_BACKENDS = {"reason": SyntheticReasonBackend, "recon": SyntheticReconBackend,
                      "r1": SyntheticR1Backend}
# Constructor parameters no config block sets: a synthetic backend's world, and
# the session and clock a caller may hand a remote backend.
NOT_CONFIG = ("world", "session", "sleep")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _open(path: str):
    """Open an input for a parser that decodes bytes itself (JSON, YAML);
    MissingFile when there is none."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise MissingFile(f"no such file: {path}") from None


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidSetting(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _known(block: dict, keys, where: str) -> dict:
    """`block` if it gives no key outside `keys`; InvalidSetting otherwise, so
    that a misspelt setting is refused rather than left at its default."""
    unknown = sorted(str(key) for key in block if key not in keys)
    if unknown:
        raise InvalidSetting(f"{where}: unknown key(s) {', '.join(unknown)} "
                             f"(known: {', '.join(keys)})")
    return block


def _too_deep(data: bytes) -> bool:
    """Whether a run of unclosed `[`/`{` in `data` passes MAX_FLOW_DEPTH. Every
    bracket counts, quoted or not: the check only needs to be cheap."""
    depth = 0
    for b in data.translate(None, bytes(c for c in range(256) if c not in b"[]{}")):
        if b in b"[{":
            depth += 1
            if depth > MAX_FLOW_DEPTH:
                return True
        elif depth:
            depth -= 1
    return False


def _load_config(path):
    if not path:
        return {}
    import io
    import yaml  # only a run with --config pays for loading PyYAML
    with _open(path) as f:
        data = f.read()
    if _too_deep(data):
        raise InvalidSetting(f"{path}: not a YAML file: flow collections nest deeper than "
                             f"{MAX_FLOW_DEPTH} levels")
    stream = io.BytesIO(data)
    stream.name = path  # PyYAML's error marks name the file
    try:
        config = yaml.safe_load(stream) or {}
    except (yaml.YAMLError, RecursionError) as e:
        raise InvalidSetting(f"{path}: not a YAML file: {' '.join(str(e).split())}") from None
    return _known(_mapping(config, path), CONFIG_KEYS, path)


def _settings(args: argparse.Namespace, config: dict) -> dict:
    """The run settings the command has a flag for, each resolved flag > config >
    default and printed with its source. The stage runs with the returned dict,
    and the manifest records it. A config value must have its flag's type (an
    int serves for a float), and tau from either source must be a finite number
    in [0, 1]; any other value raises InvalidSetting."""
    settings = {}
    for key, default in RUN_DEFAULTS.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is not None:
            settings[key], source = getattr(args, key), "flag"
        elif key in config:
            number = isinstance(default, float)
            require(key, config[key], isinstance(config[key], (int, float) if number else int),
                    "a number" if number else "an integer")
            settings[key], source = config[key], "config"
        else:
            settings[key], source = default, "default"
        if key == "tau":  # rewards lie in [0, 1]
            require(key, settings[key], 0.0 <= settings[key] <= 1.0, "a finite number in [0, 1]")
        print(f"setting {key}={settings[key]} ({source})", file=sys.stderr)
    return settings


def _inputs(args: argparse.Namespace, out_flag: str) -> Iterator[tuple[str, str]]:
    """(flag, path) of each input-file flag given, but the output flag: gen-cot's
    `--records` is its output and, on purpose, the file it resumes from."""
    for flag in INPUT_FLAGS:
        path = getattr(args, flag, None)
        if path and flag != out_flag:
            yield flag, path


def _write_manifest(output_path: str, out_flag: str, args: argparse.Namespace,
                    config: dict, settings: dict) -> None:
    manifest = {
        "version": __version__,
        "command": getattr(args, "command", None),
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "config": config,
        "settings": settings,
        "input_digests": {p: _sha256(p) for _, p in _inputs(args, out_flag)},
    }
    with open(output_path + ".manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def _refuse_output_over_input(args: argparse.Namespace, output: str,
                              out_flag: str) -> None:
    """InvalidSetting when `output` names the same file as an input-file flag, so
    that the run cannot write over its own input."""
    target = os.path.realpath(output)
    for flag, path in _inputs(args, out_flag):
        if os.path.realpath(path) == target:
            raise InvalidSetting(f"{output} is both the output and the --{flag} input")


def _build_world(args, config: dict, seed: Optional[int] = None) -> Optional[CueWorld]:
    """The world of the command's `--world-*` flags over the config's world block,
    or None for a command without such flags whose config has none. Each setting
    resolves flag, config, then `seed` for the seed, then CueWorld's default."""
    if "world" not in config and not hasattr(args, "world_samples"):
        return None
    settings = dict(_known(_mapping(config.get("world", {}), "world"),
                           tuple(inspect.signature(CueWorld).parameters), "world"))
    settings.update((key, getattr(args, flag)) for key, flag in WORLD_FLAGS.items()
                    if getattr(args, flag, None) is not None)
    if seed is not None:
        settings.setdefault("seed", seed)
    try:
        return CueWorld(**settings)
    except (ValueError, TypeError) as e:
        raise InvalidSetting(f"world: {e}") from None


def _build_backend(config: dict, stage: str, world, default: Optional[dict] = None):
    """The backend of the config's spec for `stage` (else `default`), built by
    passing the checked spec to the class of its kind."""
    backends = _known(_mapping(config.get("backends", {}), "backends"), BACKEND_STAGES,
                      "backends")
    where = f"backends.{stage}"
    spec = dict(_mapping(backends.get(stage, default or {}), where))
    kind = spec.pop("kind", "synthetic")
    # Built per call: a test may replace the module's RemoteBackend.
    classes = {"synthetic": SYNTHETIC_BACKENDS[stage], "mock": MockBackend,
               "remote": RemoteBackend}
    if not isinstance(kind, str) or kind not in classes:
        raise InvalidSetting(f"{where}: unknown backend kind: {kind!r}")
    cls = classes[kind]
    # Only the constructor's signature names a backend's settings and their defaults.
    params = {k: p for k, p in inspect.signature(cls).parameters.items() if k not in NOT_CONFIG}
    _known(spec, ("kind", *params), where)
    missing = [k for k, p in params.items() if p.default is p.empty and k not in spec]
    if missing:
        raise InvalidSetting(f"{where}: a {kind} backend needs {', '.join(missing)}")
    if kind == "synthetic":
        if world is None:
            raise InvalidSetting("synthetic backend requires a world block in config")
        spec["world"] = world
    elif kind == "mock":
        if not isinstance(spec["responses"], str):
            raise InvalidSetting(f"{where}.responses must be a path, got {spec['responses']!r}")
        with _open(spec["responses"]) as f:
            try:
                return cls(json.load(f))
            except (ValueError, TypeError, RecursionError) as e:
                raise InvalidSetting(f"{spec['responses']}: not a JSON mapping (a JSON object of "
                                     f"prompt -> response strings): {e}") from None
    return cls(**spec)


def _dataset_or_world(args, world, *backends):
    """The samples of `--dataset`, else of the world. A dataset run through
    synthetic backends may only name samples of their world."""
    if getattr(args, "dataset", None):
        samples, _ = load_dataset(args.dataset, skip_invalid=args.skip_invalid)
        if any(isinstance(b, tuple(SYNTHETIC_BACKENDS.values())) for b in backends):
            unknown = [s.id for s in samples if s.id not in world.by_id]
            if unknown:
                raise InvalidSetting(f"{args.dataset}: {len(unknown)} sample id(s) not in "
                                     f"the config world, first {', '.join(unknown[:5])}")
        return samples
    if world is not None:
        return [s.as_sample() for s in world.samples]
    raise InvalidSetting("either --dataset or a world block in config is required")


# --- subcommand handlers -----------------------------------------------------

def _cmd_ingest(args, config, settings):
    try:
        task = (Classification(args.categories.split(",")) if args.task == "classification"
                else Detection(args.width, args.height))
    except ValueError as e:
        raise InvalidSetting(f"ingest --task {args.task}: {e}") from None
    samples, seen_ids = [], set()
    with _open(args.input) as f:
        for n, raw in enumerate(f, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
                if args.task == "detection" and isinstance(obj, dict) and "mask" in obj:
                    annotation = BoxSet((mask_to_box(obj["mask"]),))
                else:
                    annotation = annotation_from_json(obj)
                sample = Sample(task=task, annotation=annotation, **sample_text_fields(obj))
                samples.append(check_sample(sample, seen_ids))
            except (ValueError, LookupError, TypeError, RecursionError, CotloopError) as e:
                raise MalformedLine(args.input, n, e) from e
    save_dataset(samples, task, args.output)
    print(f"ingested {len(samples)} samples -> {args.output}")


def _cmd_gen_cot(args, config, settings):
    world = _build_world(args, config)
    reason = _build_backend(config, "reason", world)
    recon = _build_backend(config, "recon", world)
    samples = _dataset_or_world(args, world, reason, recon)
    result = run_closed_loop_stage(samples, reason, recon, records_path=args.records,
                                   **settings)
    print(f"scored {len(result.records)} samples -> {args.records}")
    return result.failures


def _cmd_filter(args, config, settings):
    records = load_records(args.records)
    kept, n_kept, n_total = filter_high_subset(records, settings["tau"])
    pct = 100.0 * n_kept / n_total if n_total else 0.0
    print(f"kept {n_kept} / {n_total} ({pct:.1f}%)")
    counts, pcts = reward_histogram([r.reward for r in records])
    for (label, _, _), c, p in zip(histogram_bins(), counts, pcts):
        print(f"{label}  {c:>8}  {p:5.1f}%")


def _cmd_export_sft(args, config, settings):
    records = load_records(args.records)
    samples, _ = load_dataset(args.dataset, skip_invalid=args.skip_invalid)
    kept = export_sft_corpus(records, samples, path=args.output, **settings)
    print(f"exported {kept} SFT lines -> {args.output}")


def _cmd_rft_eval(args, config, settings):
    world = _build_world(args, config)
    r1 = _build_backend(config, "r1", world)
    samples = _dataset_or_world(args, world, r1)
    result = run_rft_reward_eval(samples, r1, bookkeeping_path=args.output, **settings)
    print(f"mean reward {result.mean_reward:.6f} over {len(result.per_sample_mean)} samples")
    return result.failures


def _cmd_train_toy(args, config, settings):
    world = _build_world(args, config)
    result = train_toy_policy(world, steps=args.steps, learning_rate=args.lr,
                              minibatch_size=args.minibatch, **settings)
    export_curve(result.curve, args.output)
    print(f"wrote reward curve ({len(result.curve)} steps) -> {args.output}")
    print(f"first {result.curve[0]:.4f}  last {result.curve[-1]:.4f}")


def _cmd_eval(args, config, settings):
    samples, _ = load_dataset(args.gt, skip_invalid=args.skip_invalid)
    predictions = load_predictions(args.pred)
    reference = load_predictions(args.reference) if args.reference else None
    report = evaluate_predictions(predictions, samples, reference)
    if report.mean_jsd is not None:
        print(f"mean JSD {report.mean_jsd:.6f}")
        print(f"accuracy {report.accuracy:.4f}")
        if report.win_rate is not None:
            print(f"win-rate (reference beats this run) {report.win_rate:.4f}")
    if report.detection_score is not None:
        print(f"detection score (IoU@0.5 hit rate) {report.detection_score:.4f}")
    print(f"parse failures {report.parse_failures}")


def _cmd_audit(args, config, settings):
    world = _build_world(args, config, settings["seed"])
    reason = _build_backend(config, "reason", world, {"fidelity": 0.9})
    recon = _build_backend(config, "recon", world)
    samples = _dataset_or_world(args, world, reason, recon)
    report, stage = run_noise_audit(samples, fraction=args.fraction, reason_backend=reason,
                                    recon_backend=recon, **settings)
    text = report.render()
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return stage.failures


def _cmd_report(args, config, settings):
    records = load_records(args.records)
    rewards = [r.reward for r in records]
    counts, pcts = reward_histogram(rewards)
    bins = histogram_bins()
    print(f"{'bin':<14}{'count':>8}{'percent':>9}")
    for (label, _, _), c, p in zip(bins, counts, pcts):
        print(f"{label:<14}{c:>8}{p:>8.1f}%")
    reasons = Counter(r.breakdown.reason for r in records)
    print("reasons: " + ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write("bin_low\tbin_high\tcount\tpercent\n")
            for (_, lo, hi), c, p in zip(bins, counts, pcts):
                f.write(f"{lo}\t{hi}\t{c}\t{p:.4f}\n")
        print(f"wrote plot data -> {args.output}")


# --- parser ------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="cotloop",
                     description="Closed-loop chain-of-thought curation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags several subcommands share, each group declared once.
    config, run, data, world, records, tau = (argparse.ArgumentParser(add_help=False)
                                              for _ in range(6))
    config.add_argument("--config")
    run.add_argument("--group-size", type=int)
    run.add_argument("--seed", type=int)
    data.add_argument("--dataset")
    data.add_argument("--skip-invalid", action="store_true")
    world.add_argument("--world-samples", type=int)
    world.add_argument("--world-cues", type=int)
    world.add_argument("--world-vocab", type=int)
    records.add_argument("--records", required=True)
    tau.add_argument("--tau", type=float)

    p = sub.add_parser("ingest", help="convert raw label files into a dataset file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--task", choices=["classification", "detection"], required=True)
    p.add_argument("--categories", help="comma-separated category names")
    p.add_argument("--width", type=float, help="image width for detection")
    p.add_argument("--height", type=float, help="image height for detection")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("gen-cot", parents=[config, data, run, records],
                       help="run the closed-loop generation stage")
    p.set_defaults(func=_cmd_gen_cot)

    p = sub.add_parser("filter", parents=[records, tau],
                       help="threshold filter plus reward histogram")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("export-sft", parents=[config, records, tau],
                       help="export the high-reward SFT corpus")
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--skip-invalid", action="store_true")
    p.set_defaults(func=_cmd_export_sft)

    p = sub.add_parser("rft-eval", parents=[config, data, run],
                       help="score think-answer outputs per sample")
    p.add_argument("--output", help="bookkeeping file for an external trainer")
    p.set_defaults(func=_cmd_rft_eval)

    p = sub.add_parser("train-toy", parents=[config, run, world],
                       help="train the toy policy; write the reward curve")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--minibatch", type=int, default=None,
                   help="samples per step (default: full dataset)")
    p.add_argument("--world-seed", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("eval", help="evaluate a predictions file against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--reference")
    p.add_argument("--skip-invalid", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("audit", parents=[config, data, run, world, tau],
                       help="label-noise audit on a synthetic world")
    p.add_argument("--fraction", type=float, default=0.3)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("report", parents=[records],
                       help="render histograms as text tables and plot data")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_report)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "ingest":
            missing = [f"--{name}" for name in INGEST_NEEDS[args.task]
                       if getattr(args, name) is None]
            if missing:
                parser.error(f"--task {args.task} needs {' and '.join(missing)}")
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        config = _load_config(getattr(args, "config", None))
        settings = _settings(args, config)
        out_flag = "records" if args.command == "gen-cot" else "output"
        output = getattr(args, out_flag, None)
        if output and not os.path.exists(os.path.dirname(output) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), output)
        if output:
            _refuse_output_over_input(args, output, out_flag)
        failures = args.func(args, config, settings)
        if output:
            _write_manifest(output, out_flag, args, config, settings)
    except BackendError as e:
        print(f"backend error: {e}", file=sys.stderr)
        return 2
    except (CotloopError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if failures:
        print(f"{len(failures)} sample(s) failed after retries", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()
