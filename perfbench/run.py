"""cotloop benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload gencot-cls --seed 1 --seconds 20 --trace 0

Run from a checkout: the program is imported from `src/` next to this
directory, never from an installed copy, and the run fails without a
result when that is missing. Set-up time is the median of several fresh
interpreters (`--probe` mode) importing `cotloop.cli` and building the
workload. The timed phase cycles through the workload's chunks for
`--seconds`; throughput and CPU cost are medians over reps, with on-CPU
time adjusted to the reference host speed (see hostspeed.py). Every
rep's outputs are checked. With `--trace 1` a few passes are then rerun
under the span recorder for the per-layer metrics. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}; a
failed check prints the failures and publishes no metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
MAX_TRACED_CYCLES = 4
OUT_DIR = ".perfbench_out"


def _bootstrap() -> None:
    src = ROOT / "src"
    if not (src / "cotloop" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no cotloop sources at {src}\n")
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]


def _probe(workload: str, seed: int, tiny: bool) -> None:
    """Child side of a set-up probe: import, build, report, exit."""
    start = time.perf_counter()
    import cotloop.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    import_s = time.perf_counter() - start
    scipy_loaded = "scipy.optimize" in sys.modules
    from perfbench.workloads import WORKLOADS
    WORKLOADS[workload](seed, tiny=tiny).setup()
    print(json.dumps({"import_s": import_s, "scipy_at_setup": scipy_loaded}), flush=True)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int, tiny: bool, probes: int) -> list[tuple[float, dict]]:
    """Seconds from starting a fresh interpreter until the workload can run,
    with the child's on-CPU time adjusted to the reference host speed."""
    from perfbench import hostspeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    results = []
    for _ in range(probes):
        before = hostspeed.slowdown()
        cpu0 = _children_cpu_s()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        cpu = _children_cpu_s() - cpu0
        slowdown = (before + hostspeed.slowdown()) / 2
        results.append((hostspeed.adjusted(elapsed, cpu, slowdown), json.loads(line)))
    return results


def run_metadata() -> dict:
    """Recorded with every run; not gated."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_lines": src_lines}


class Rep(NamedTuple):
    chunk: int
    wall: float          # seconds
    cpu: float           # process CPU seconds
    slowdown: float      # host slowdown measured around the rep
    out: object          # RepOutput


def timed_reps(wl, workdir: str, seconds: float):
    """Untraced reps, cycling through the chunks, until `seconds` have passed
    and every chunk has run once. Returns the reps and the raw outputs of
    the first pass over every chunk."""
    from perfbench import hostspeed

    reps, first_cycle = [], []
    start = time.perf_counter()
    before = hostspeed.slowdown()
    while len(reps) < wl.chunks or time.perf_counter() - start < seconds:
        chunk = len(reps) % wl.chunks
        wall0, cpu0 = time.perf_counter(), time.process_time()
        raw = wl.rep(workdir, chunk)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        after = hostspeed.slowdown()
        reps.append(Rep(chunk, wall, cpu, (before + after) / 2,
                        wl.inspect(raw, workdir, chunk)))
        before = after
        if len(first_cycle) < wl.chunks:
            first_cycle.append(raw)
    return reps, first_cycle


def rep_errors(outs: list, chunks: int) -> list[str]:
    """Every rep's own errors, plus any difference between reps of one chunk."""
    errors = [e for out in outs for e in out.errors]
    for first, out in zip(outs, outs[chunks:]):
        if out.digest != first.digest:
            errors.append("outputs differ between reps of the same seed and chunk")
        if out.counts != first.counts:
            errors.append("injected counts differ between reps of the same seed and chunk")
    return sorted(set(errors))


def cycle_walls(reps: list, chunks: int) -> list[float]:
    """Wall time of each complete pass over every chunk."""
    walls = [r.wall for r in reps]
    return [sum(walls[i:i + chunks]) for i in range(0, len(walls) - chunks + 1, chunks)]


def cold_extra_ms(reps: list, chunks: int) -> float:
    """First rep's time minus the median of later reps of the same chunk:
    what the process pays once inside the timed phase (lazy imports, caches)."""
    later = [r.wall for r in reps[chunks::chunks]]
    return 1000.0 * (reps[0].wall - statistics.median(later)) if later else 0.0


def traced_reps(wl, workdir: str, cycles: int, untraced: list, quality: dict,
                setup: list, trace_path: str, meta: dict) -> tuple[dict, list[str]]:
    """Rerun `cycles` passes under the span recorder; per-layer values are
    per pass over every chunk (counts must repeat, times are medians)."""
    from perfbench import layers
    from perfbench.spans import Patcher, SpanRecorder

    recorder = SpanRecorder()
    cycle_spans, cycle_counts, outs, walls = [], [], [], []
    with Patcher() as patcher:
        layers.install(patcher, recorder)
        wl.hook(patcher, recorder)
        for _ in range(cycles):
            span_start, before = len(recorder.spans), Counter(recorder.counts)
            wall = 0.0
            for chunk in range(wl.chunks):
                wall0 = time.perf_counter()
                raw = recorder.run("bench.rep", wl.rep, workdir, chunk)
                wall += time.perf_counter() - wall0
                outs.append(wl.inspect(raw, workdir, chunk))
            walls.append(wall)
            cycle_spans.append(recorder.spans[span_start:])
            cycle_counts.append(Counter(recorder.counts) - before)
    errors = rep_errors(outs, wl.chunks)
    errors += [f"trace hook target missing: {m}" for m in patcher.missing]
    metrics, span_errors = layers.span_layer_metrics(cycle_spans)
    errors += span_errors
    if any(c != cycle_counts[0] for c in cycle_counts):
        errors.append("layer counters differ between passes of the same seed")
    counts, first = cycle_counts[0], outs[:wl.chunks]
    for gate, want in wl.expected_gates(first).items():
        if counts[f"reward.gate.{gate}"] != want:
            errors.append(f"{counts[f'reward.gate.{gate}']} {gate} gate hits, expected {want}")
    posts = [s.end - s.start for spans in cycle_spans for s in spans
             if s.name == "backends.remote.post"]
    drawn = sum(o.groups for o in first) * wl.group_size
    per_cycle = [outs[i:i + wl.chunks] for i in range(0, len(outs), wl.chunks)]
    n_records = sum(len(o.rewards) for o in first)
    # The first untraced pass runs cold, so the warm traced passes are
    # compared with the later ones.
    untraced_walls = cycle_walls(untraced, wl.chunks)
    untraced_cycle_s = statistics.median(untraced_walls[1:] or untraced_walls)
    metrics.update({
        "cli.import_s": statistics.median(info["import_s"] for _, info in setup),
        "cli.scipy_at_setup": int(setup[0][1]["scipy_at_setup"]),
        **{f"reward.gate.{g}": counts[f"reward.gate.{g}"] for g in layers.GATES},
        "reward.filter.kept_frac": sum(o.kept for o in first) / n_records if n_records else 0.0,
        "audit.noise_auroc": quality.get("noise_auroc", 0.0),
        "grpo.policy.sample.calls": counts["grpo.policy.sample"],
        "grpo.group_build.calls": counts["grpo.group_build"],
        "grpo.reward_cache_miss_ratio": (counts["grpo.reward_calls"] / drawn
                                         if counts["grpo.reward_calls"] else 0.0),
        "backends.remote.posts": sum(o.counts.get("posts", 0) for o in first),
        "backends.remote.retries": sum(o.counts.get("retries", 0) for o in first),
        "backends.remote.wait_ms": statistics.median(sum(o.backoff_ms for o in c)
                                                     for c in per_cycle),
        "backends.remote.failed": counts["backends.remote.failed"],
        "backends.remote.call_ms.p50": 1000.0 * layers.percentile(posts, 50) if posts else 0.0,
        "backends.remote.call_ms.p99": 1000.0 * layers.percentile(posts, 99) if posts else 0.0,
        "backends.remote.call_ms.n": len(posts),
        "trace.overhead_ms": 1000.0 * (statistics.median(walls) - untraced_cycle_s),
        "trace.overhead_frac": statistics.median(walls) / untraced_cycle_s - 1.0,
        "trace.cycles": cycles,
        "bench.cold_rep_extra_ms": cold_extra_ms(untraced, wl.chunks),
        "bench.raw_groups_per_s": 1.0 / statistics.median(r.wall / r.out.groups
                                                          for r in untraced),
        "bench.host_slowdown": statistics.median(r.slowdown for r in untraced),
    })
    recorder.write(trace_path, dict(meta, workload=wl.name, seed=wl.seed, cycles=cycles))
    return metrics, errors


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, probes: int = SETUP_PROBES,
                  out_dir: Path = ROOT / OUT_DIR) -> dict:
    """Run one workload; returns the result object printed on the last line.

    Scratch files and the span dump go under `out_dir`.
    """
    from perfbench import hostspeed, layers
    from perfbench.workloads import WORKLOADS

    meta = run_metadata()
    setup = measure_setup(workload, seed, tiny, probes)
    wl = WORKLOADS[workload](seed, tiny=tiny)
    wl.setup()
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    try:
        reps, first_cycle = timed_reps(wl, workdir, seconds)
        outs = [r.out for r in reps]
        errors = rep_errors(outs, wl.chunks)
        finish_errors, quality = wl.finish(first_cycle)
        errors += finish_errors
        if trace and not errors:
            metrics, trace_errors = traced_reps(
                wl, workdir, min(len(reps) // wl.chunks, MAX_TRACED_CYCLES), reps, quality,
                setup, str(out_dir / f"trace-{workload}-seed{seed}.json"), meta)
            errors += trace_errors
            units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
        else:
            rewards = [r for out in outs[:wl.chunks] for r in out.rewards]
            metrics = {
                "setup_s": statistics.median(s for s, _ in setup),
                "groups_per_s": 1.0 / statistics.median(
                    hostspeed.adjusted(r.wall, r.cpu, r.slowdown) / r.out.groups for r in reps),
                "cpu_ms_per_group": 1000.0 * statistics.median(
                    r.cpu / r.slowdown / r.out.groups for r in reps),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "mean_reward": sum(rewards) / len(rewards),
            }
            units = {"setup_s": "s", "groups_per_s": "1/s", "cpu_ms_per_group": "ms",
                     "peak_rss_mb": "MB", "mean_reward": "reward"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": not errors, "attempted": sum(o.attempted for o in outs),
            "failed": sum(o.failed for o in outs),
            "metrics": {} if errors else {name: {"value": metrics[name], "unit": unit}
                                          for name, unit in units.items()},
            "errors": errors, "meta": dict(meta, reps=len(reps), probes=probes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap()
    if args.probe:  # before anything imports cotloop
        _probe(args.workload, args.seed, args.tiny)
        return 0
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           tiny=args.tiny)
    meta = result.pop("meta")
    errors = result.pop("errors")
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for error in errors:
        print(f"CHECK FAILED: {error}")
    for name, m in result["metrics"].items():
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
