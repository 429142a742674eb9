"""Operator surface: subcommands wiring configuration to pipeline stages.

Precedence is flag > config file > default, and the effective settings
are printed at startup. Every run with an output path writes a manifest
(config snapshot, seeds, version, input digests) next to it.

Exit codes: 0 success, 1 validation error, 2 backend exhaustion,
64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Optional

from . import __version__
from .audit import run_noise_audit
from .backends import (CueWorld, MockBackend, RemoteBackend,
                       SyntheticR1Backend, SyntheticReasonBackend,
                       SyntheticReconBackend)
from .domain import (BoxSet, Classification, Detection, Sample, mask_to_box,
                     validate_annotation)
from .errors import (BackendError, CotloopError, DomainError, InvalidSetting,
                     MalformedLine, MissingFile)
from .grpo import export_curve, train_toy_policy
from .pipeline import (annotation_from_json, evaluate_predictions, export_sft_corpus,
                       load_dataset, load_predictions, load_records,
                       run_closed_loop_stage, run_rft_reward_eval, sample_text_fields,
                       save_dataset)
from .reward import DEFAULT_TAU, filter_high_subset, histogram_bins, reward_histogram

USAGE_EXIT = 64
# Flags that `ingest --task <kind>` cannot do without.
INGEST_NEEDS = {"classification": ("categories",), "detection": ("width", "height")}
# Keys a config file may give, and the stages its backends block may name.
CONFIG_KEYS = ("world", "backends", "group_size", "seed", "tau")
BACKEND_STAGES = ("reason", "recon", "r1")
# Settings a config world block may give.
WORLD_KEYS = ("kind", "num_samples", "cues_per_sample", "vocab_size", "seed")
# Keys a backend spec of each kind cannot do without.
BACKEND_NEEDS = {"mock": ("responses",), "remote": ("endpoint", "model")}
# Keys a backend spec of each kind may give.
BACKEND_KEYS = {
    "synthetic": ("kind", "fidelity"),
    "mock": ("kind", "responses"),
    "remote": ("kind", "endpoint", "model", "auth_env", "timeout", "max_attempts",
               "backoff_base", "max_in_flight", "ledger_path"),
}


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


def _load_config(path):
    if not path:
        return {}
    import yaml  # only a run with --config pays for loading PyYAML
    with _open(path) as f:
        try:
            config = yaml.safe_load(f) or {}
        except yaml.YAMLError as e:
            raise InvalidSetting(f"{path}: not a YAML file: {' '.join(str(e).split())}") from None
    return _known(_mapping(config, path), CONFIG_KEYS, path)


def _resolve(flag_value, config, key, default):
    """Flag > config > default; returns (value, source)."""
    if flag_value is not None:
        return flag_value, "flag"
    if key in config:
        return config[key], "config"
    return default, "default"


def _print_settings(settings: dict) -> None:
    for k, (v, source) in settings.items():
        print(f"setting {k}={v} ({source})", file=sys.stderr)


def _write_manifest(output_path: str, args: argparse.Namespace, config: dict,
                    inputs: list[str]) -> None:
    manifest = {
        "version": __version__,
        "command": getattr(args, "command", None),
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "config": config,
        "input_digests": {p: _sha256(p) for p in inputs if p and os.path.exists(p)},
    }
    with open(output_path + ".manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def _world_flags(args, seed: Optional[int]) -> dict:
    return {"num_samples": args.world_samples, "cues_per_sample": args.world_cues,
            "vocab_size": args.world_vocab, "seed": seed}


def _build_world(config: dict, flags: Optional[dict] = None,
                 seed: Optional[int] = None) -> Optional[CueWorld]:
    """The world of the `--world-*` `flags` and the config's world block, or None
    when there are neither. Each setting resolves flag (None: not given), then
    config, then CueWorld's default; a given `seed` replaces the default seed."""
    if "world" not in config and flags is None:
        return None
    block = _known(_mapping(config.get("world", {}), "world"), WORLD_KEYS, "world")
    settings = dict(block)
    settings.update((key, value) for key, value in (flags or {}).items() if value is not None)
    if seed is not None:
        settings.setdefault("seed", seed)
    try:
        return CueWorld(**settings)
    except (ValueError, TypeError) as e:
        raise InvalidSetting(f"world: {e}") from None


def _build_backend(config: dict, stage: str, world, default: Optional[dict] = None):
    backends = _known(_mapping(config.get("backends", {}), "backends"), BACKEND_STAGES,
                      "backends")
    spec = _mapping(backends.get(stage, default or {}), f"backends.{stage}")
    kind = spec.get("kind", "synthetic")
    if not isinstance(kind, str) or kind not in BACKEND_KEYS:
        raise InvalidSetting(f"backends.{stage}: unknown backend kind: {kind!r}")
    _known(spec, BACKEND_KEYS[kind], f"backends.{stage}")
    missing = [key for key in BACKEND_NEEDS.get(kind, ()) if key not in spec]
    if missing:
        raise InvalidSetting(f"backends.{stage}: a {kind} backend needs {', '.join(missing)}")
    if kind == "synthetic":
        if world is None:
            raise CotloopError("synthetic backend requires a world block in config")
        if stage == "reason":
            return SyntheticReasonBackend(world, fidelity=spec.get("fidelity", 1.0))
        if stage == "recon":
            return SyntheticReconBackend(world)
        return SyntheticR1Backend(world, fidelity=spec.get("fidelity", 1.0))
    if kind == "mock":
        with _open(spec["responses"]) as f:
            try:
                return MockBackend(json.load(f))
            except (ValueError, TypeError) as e:
                raise InvalidSetting(f"{spec['responses']}: not a JSON mapping: {e}") from None
    return RemoteBackend(endpoint=spec["endpoint"], model=spec["model"],
                         auth_env=spec.get("auth_env", "COTLOOP_API_KEY"),
                         timeout=spec.get("timeout", 120.0),
                         max_attempts=spec.get("max_attempts", 3),
                         backoff_base=spec.get("backoff_base", 1.0),
                         max_in_flight=spec.get("max_in_flight", 4),
                         ledger_path=spec.get("ledger_path"))


def _dataset_or_world(args, config, world):
    if getattr(args, "dataset", None):
        samples, _ = load_dataset(args.dataset, skip_invalid=args.skip_invalid)
        return samples
    if world is not None:
        return [s.as_sample() for s in world.samples]
    raise CotloopError("either --dataset or a world block in config is required")


# --- subcommand handlers -----------------------------------------------------

def _cmd_ingest(args):
    config = _load_config(args.config)
    try:
        if args.task == "classification":
            task = Classification(categories=tuple(args.categories.split(",")))
        else:
            task = Detection(image_width=args.width, image_height=args.height)
    except ValueError as e:
        raise InvalidSetting(f"ingest --task {args.task}: {e}") from None
    samples = []
    with _open(args.input) as f:
        for n, raw in enumerate(f, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
                if args.task == "detection" and "mask" in obj:
                    annotation = BoxSet((mask_to_box(obj["mask"]),))
                else:
                    annotation = annotation_from_json(obj)
                violations = validate_annotation(annotation, task)
                if violations:
                    raise DomainError("; ".join(violations))
                samples.append(Sample(task=task, annotation=annotation,
                                      **sample_text_fields(obj)))
            except (ValueError, LookupError, TypeError, AttributeError, CotloopError) as e:
                raise MalformedLine(args.input, n, e) from e
    save_dataset(samples, task, args.output)
    _write_manifest(args.output, args, config, [args.input])
    print(f"ingested {len(samples)} samples -> {args.output}")
    return 0


def _cmd_gen_cot(args):
    config = _load_config(args.config)
    group_size, gs_src = _resolve(args.group_size, config, "group_size", 8)
    seed, seed_src = _resolve(args.seed, config, "seed", 0)
    _print_settings({"group_size": (group_size, gs_src), "seed": (seed, seed_src)})
    world = _build_world(config)
    reason = _build_backend(config, "reason", world)
    recon = _build_backend(config, "recon", world)
    samples = _dataset_or_world(args, config, world)
    result = run_closed_loop_stage(samples, reason, recon, group_size=group_size,
                                   seed=seed, records_path=args.records)
    _write_manifest(args.records, args, config,
                    [args.config or "", args.dataset or ""])
    print(f"scored {len(result.records)} samples -> {args.records}")
    if result.failures:
        print(f"{len(result.failures)} sample(s) failed after retries",
              file=sys.stderr)
        return 2
    return 0


def _cmd_filter(args):
    records = load_records(args.records)
    kept, n_kept, n_total = filter_high_subset(records, args.tau)
    pct = 100.0 * n_kept / n_total if n_total else 0.0
    print(f"kept {n_kept} / {n_total} ({pct:.1f}%)")
    counts, pcts = reward_histogram([r.reward for r in records])
    for (label, _, _), c, p in zip(histogram_bins(), counts, pcts):
        print(f"{label}  {c:>8}  {p:5.1f}%")
    return 0


def _cmd_export_sft(args):
    config = _load_config(args.config)
    records = load_records(args.records)
    samples, _ = load_dataset(args.dataset, skip_invalid=args.skip_invalid)
    kept = export_sft_corpus(records, samples, tau=args.tau, path=args.output)
    _write_manifest(args.output, args, config, [args.records, args.dataset])
    print(f"exported {kept} SFT lines -> {args.output}")
    return 0


def _cmd_rft_eval(args):
    config = _load_config(args.config)
    group_size, gs_src = _resolve(args.group_size, config, "group_size", 8)
    seed, seed_src = _resolve(args.seed, config, "seed", 0)
    _print_settings({"group_size": (group_size, gs_src), "seed": (seed, seed_src)})
    world = _build_world(config)
    r1 = _build_backend(config, "r1", world)
    samples = _dataset_or_world(args, config, world)
    result = run_rft_reward_eval(samples, r1, group_size=group_size, seed=seed,
                                 bookkeeping_path=args.output)
    if args.output:
        _write_manifest(args.output, args, config,
                        [args.config or "", args.dataset or ""])
    print(f"mean reward {result.mean_reward:.6f} over {len(result.per_sample_mean)} samples")
    if result.failures:
        print(f"{len(result.failures)} sample(s) failed after retries",
              file=sys.stderr)
        return 2
    return 0


def _cmd_train_toy(args):
    config = _load_config(args.config)
    world = _build_world(config, _world_flags(args, args.world_seed))
    result = train_toy_policy(world, steps=args.steps, group_size=args.group_size,
                              seed=args.seed, learning_rate=args.lr,
                              minibatch_size=args.minibatch)
    export_curve(result.curve, args.output)
    _write_manifest(args.output, args, config, [args.config or ""])
    print(f"wrote reward curve ({len(result.curve)} steps) -> {args.output}")
    print(f"first {result.curve[0]:.4f}  last {result.curve[-1]:.4f}")
    return 0


def _cmd_eval(args):
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
    return 0


def _cmd_audit(args):
    config = _load_config(args.config)
    tau, tau_src = _resolve(args.tau, config, "tau", DEFAULT_TAU)
    seed, seed_src = _resolve(args.seed, config, "seed", 0)
    _print_settings({"tau": (tau, tau_src), "seed": (seed, seed_src)})
    world = _build_world(config, _world_flags(args, None), seed)
    reason = _build_backend(config, "reason", world, {"fidelity": 0.9})
    recon = _build_backend(config, "recon", world)
    samples = [s.as_sample() for s in world.samples]
    report, _ = run_noise_audit(samples, fraction=args.fraction,
                                reason_backend=reason, recon_backend=recon,
                                group_size=args.group_size, tau=tau, seed=seed)
    text = report.render()
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        _write_manifest(args.output, args, config, [args.config or ""])
    return 0


def _cmd_report(args):
    records = load_records(args.records)
    rewards = [r.reward for r in records]
    counts, pcts = reward_histogram(rewards)
    bins = histogram_bins()
    print(f"{'bin':<14}{'count':>8}{'percent':>9}")
    for (label, _, _), c, p in zip(bins, counts, pcts):
        print(f"{label:<14}{c:>8}{p:>8.1f}%")
    reasons: dict[str, int] = {}
    for r in records:
        reasons[r.breakdown.reason] = reasons.get(r.breakdown.reason, 0) + 1
    print("reasons: " + ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write("bin_low\tbin_high\tcount\tpercent\n")
            for (_, lo, hi), c, p in zip(bins, counts, pcts):
                f.write(f"{lo}\t{hi}\t{c}\t{p:.4f}\n")
        print(f"wrote plot data -> {args.output}")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="cotloop",
                     description="Closed-loop chain-of-thought curation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert raw label files into a dataset file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--task", choices=["classification", "detection"], required=True)
    p.add_argument("--categories", help="comma-separated category names")
    p.add_argument("--width", type=float, help="image width for detection")
    p.add_argument("--height", type=float, help="image height for detection")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("gen-cot", help="run the closed-loop generation stage")
    p.add_argument("--config")
    p.add_argument("--dataset")
    p.add_argument("--records", required=True)
    p.add_argument("--group-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--skip-invalid", action="store_true")
    p.set_defaults(func=_cmd_gen_cot)

    p = sub.add_parser("filter", help="threshold filter plus reward histogram")
    p.add_argument("--records", required=True)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("export-sft", help="export the high-reward SFT corpus")
    p.add_argument("--records", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--skip-invalid", action="store_true")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_export_sft)

    p = sub.add_parser("rft-eval", help="score think-answer outputs per sample")
    p.add_argument("--config")
    p.add_argument("--dataset")
    p.add_argument("--output", help="bookkeeping file for an external trainer")
    p.add_argument("--group-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--skip-invalid", action="store_true")
    p.set_defaults(func=_cmd_rft_eval)

    p = sub.add_parser("train-toy", help="train the toy policy; write the reward curve")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--group-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--minibatch", type=int, default=None,
                   help="samples per step (default: full dataset)")
    p.add_argument("--world-samples", type=int)
    p.add_argument("--world-cues", type=int)
    p.add_argument("--world-vocab", type=int)
    p.add_argument("--world-seed", type=int)
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("eval", help="evaluate a predictions file against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--reference")
    p.add_argument("--skip-invalid", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("audit", help="label-noise audit on a synthetic world")
    p.add_argument("--config")
    p.add_argument("--fraction", type=float, default=0.3)
    p.add_argument("--tau", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--group-size", type=int, default=8)
    p.add_argument("--world-samples", type=int)
    p.add_argument("--world-cues", type=int)
    p.add_argument("--world-vocab", type=int)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("report", help="render histograms as text tables and plot data")
    p.add_argument("--records", required=True)
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
        return args.func(args)
    except BackendError as e:
        print(f"backend error: {e}", file=sys.stderr)
        return 2
    except CotloopError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()
