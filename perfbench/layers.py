"""Per-layer metrics of the traced run and the hooks that produce them.

Each layer is hooked where its caller looks the name up (for example
`pipeline.closed_loop_reward`, not `reward.closed_loop_reward`). Counts and
self times are per pass over all of a workload's samples; a layer the
workload never reaches reads 0. `MOVES` records, before any optimisation
is measured, which end-to-end metric on which workload each layer metric
should move; `LAYER_METRICS` is the list `BENCHMARK.json` declares as
`per_layer`.
"""

from __future__ import annotations

import statistics

from .spans import Patcher, SpanRecorder, self_time_by_name

# Layers recorded as spans; each yields `<name>.calls` and `<name>.self_ms`.
SPAN_LAYERS = (
    "pipeline.stage", "pipeline.prompt", "pipeline.records_io",
    "textproto.load_template", "textproto.detect_leak", "textproto.parse",
    "reward.closed_loop", "similarity.classification", "similarity.hungarian",
    "similarity.lsa", "grpo.train", "grpo.policy.update",
    "backends.reason.generate", "backends.recon.generate", "audit.corrupt",
)
GATES = ("leak", "parse", "format")

# (metric, unit, better)
LAYER_METRICS = (
    [("cli.import_s", "s", "lower"), ("cli.scipy_at_setup", "count", "lower")]
    + [m for layer in SPAN_LAYERS
       for m in ((f"{layer}.calls", "count", "lower"), (f"{layer}.self_ms", "ms", "lower"))]
    + [(f"reward.gate.{g}", "count", "lower") for g in GATES]
    + [("reward.filter.kept_frac", "ratio", "higher"),
       ("audit.noise_auroc", "ratio", "higher"),
       ("grpo.policy.sample.calls", "count", "lower"),
       ("grpo.group_build.calls", "count", "lower"),
       ("grpo.reward_cache_miss_ratio", "ratio", "lower"),
       ("backends.remote.posts", "count", "lower"),
       ("backends.remote.retries", "count", "lower"),
       ("backends.remote.wait_ms", "ms", "lower"),
       ("backends.remote.failed", "count", "lower"),
       ("backends.remote.call_ms.p50", "ms", "lower"),
       ("backends.remote.call_ms.p99", "ms", "lower"),
       ("backends.remote.call_ms.n", "count", "higher"),
       ("bench.cold_rep_extra_ms", "ms", "lower"),
       ("bench.raw_groups_per_s", "1/s", "higher"),
       ("bench.host_slowdown", "ratio", "lower"),
       ("trace.overhead_ms", "ms", "lower"),
       ("trace.overhead_frac", "ratio", "lower"),
       ("trace.cycles", "count", "higher")]
)

# Metric-name prefix -> the end-to-end metric and workloads it should move.
MOVES = {
    "cli.": "setup_s on every workload; a lazy scipy import lowers both here "
            "and raises bench.cold_rep_extra_ms on audit-det",
    "pipeline.stage": "groups_per_s on gencot-cls, audit-det, remote-cls "
                      "(group engine, bounded concurrency)",
    "pipeline.prompt": "groups_per_s on gencot-cls, audit-det, remote-cls; "
                       "no change on toy-train",
    "textproto.load_template": "groups_per_s on gencot-cls, audit-det, remote-cls; "
                               "no change on toy-train",
    "textproto.detect_leak": "groups_per_s on gencot-cls; barely on audit-det",
    "textproto.parse": "groups_per_s on gencot-cls, then audit-det",
    "reward.closed_loop": "groups_per_s on gencot-cls and audit-det",
    "reward.gate.": "nothing: must repeat exactly (mean_reward guard)",
    "reward.filter.kept_frac": "nothing: quality guard with mean_reward",
    "audit.noise_auroc": "nothing: quality guard on audit-det",
    "similarity.classification": "groups_per_s on gencot-cls; no change on audit-det",
    "similarity.hungarian": "groups_per_s on audit-det; no change on gencot-cls",
    "similarity.lsa": "groups_per_s on audit-det; no change on gencot-cls",
    "grpo.": "groups_per_s on toy-train only",
    "backends.": "groups_per_s on remote-cls (cpu_ms_per_group unchanged)",
    "pipeline.records_io": "groups_per_s on gencot-cls",
    "audit.corrupt": "groups_per_s on audit-det",
    "bench.cold_rep_extra_ms": "groups_per_s only through cold-start costs paid once in "
                               "the timed phase; a lazy scipy import lands here on audit-det",
    "bench.raw_groups_per_s": "groups_per_s before the host-speed adjustment",
    "bench.host_slowdown": "nothing: host CPU speed during the untraced run "
                           "(1.0 = reference host, uncontended)",
    "trace.": "nothing: cost of tracing, traced minus untraced time per pass",
}


def moves(metric: str) -> str:
    return next(text for prefix, text in MOVES.items() if metric.startswith(prefix))


def _gate_counter(recorder: SpanRecorder, extra: str = ""):
    def on_result(result):
        parts = result if isinstance(result, tuple) else (result,)
        reason = next((p.reason for p in parts if hasattr(p, "reason")), None)
        if reason in GATES:
            recorder.count(f"reward.gate.{reason}")
        if extra:
            recorder.count(extra)
    return on_result


def install(patcher: Patcher, recorder: SpanRecorder) -> None:
    """Hook every program layer the workloads reach."""
    from cotloop import audit, grpo, pipeline, reward, similarity, textproto

    def span(name, **kw):
        return lambda fn: recorder.wrap(name, fn, **kw)

    def counted(name):
        return lambda fn: recorder.counted(name, fn)

    patcher.function(pipeline, "run_closed_loop_stage", span("pipeline.stage"))
    patcher.function(audit, "run_closed_loop_stage", span("pipeline.stage"))
    for attr in ("reasoning_prompt", "reconstruction_prompt", "r1_prompt"):
        patcher.function(pipeline, attr, span("pipeline.prompt"))
    for module in (pipeline, textproto):
        patcher.function(module, "load_template", span("textproto.load_template"))
    patcher.function(reward, "detect_leak", span("textproto.detect_leak"))
    patcher.classmethod(textproto.ParsedOutput, "from_text", span("textproto.parse"))
    patcher.function(pipeline, "closed_loop_reward",
                     span("reward.closed_loop", on_result=_gate_counter(recorder)))
    patcher.function(grpo, "closed_loop_reward",
                     span("reward.closed_loop",
                          on_result=_gate_counter(recorder, "grpo.reward_calls")))
    patcher.function(reward, "classification_similarity", span("similarity.classification"))
    patcher.function(similarity, "hungarian_match", span("similarity.hungarian"))
    if hasattr(similarity, "linear_sum_assignment"):
        patcher.function(similarity, "linear_sum_assignment", span("similarity.lsa"))
    else:  # imported lazily at call time
        import scipy.optimize
        patcher.function(scipy.optimize, "linear_sum_assignment", span("similarity.lsa"))
    patcher.function(grpo, "train_toy_policy", span("grpo.train"))
    patcher.method(grpo.ToyPolicy, "sample_choices", counted("grpo.policy.sample"))
    patcher.method(grpo.ToyPolicy, "update", span("grpo.policy.update"))
    patcher.classmethod(grpo.Group, "build", counted("grpo.group_build"))
    for attr in ("record_to_json", "load_records", "export_sft_corpus"):
        patcher.function(pipeline, attr, span("pipeline.records_io"))
    patcher.function(audit, "corrupt_dataset", span("audit.corrupt"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def span_calls(spans) -> dict[str, int]:
    calls: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    return calls


def span_layer_metrics(cycle_spans: list[list]) -> tuple[dict, list[str]]:
    """`.calls` (per pass, must repeat) and `.self_ms` (median per pass) for
    every span layer; returns (metrics, errors)."""
    calls = [span_calls(spans) for spans in cycle_spans]
    selfs = [self_time_by_name(spans) for spans in cycle_spans]
    out, errors = {}, []
    for layer in SPAN_LAYERS:
        counts = {c.get(layer, 0) for c in calls}
        if len(counts) > 1:
            errors.append(f"{layer} call count differs between passes: {sorted(counts)}")
        out[f"{layer}.calls"] = calls[0].get(layer, 0)
        out[f"{layer}.self_ms"] = 1000.0 * statistics.median(s.get(layer, 0.0) for s in selfs)
    return out, errors
