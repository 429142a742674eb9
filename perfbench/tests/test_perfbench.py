"""Tests for the benchmark harness: a tiny smoke run of every workload,
span self-time arithmetic, the AUROC against a brute-force pair count,
and the declared metric lists against what the harness emits."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import layers  # noqa: E402
from perfbench.fakes import FakeSession  # noqa: E402
from perfbench.hostspeed import adjusted  # noqa: E402
from perfbench.run import run_benchmark  # noqa: E402
from perfbench.spans import Span, SpanRecorder, self_time_by_name, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, noise_auroc  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_run(workload, tmp_path):
    result = run_benchmark(workload, seed=3, seconds=0, trace=True, tiny=True,
                           probes=1, out_dir=tmp_path)
    assert result["correct"], result["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    assert (tmp_path / f"trace-{workload}-seed3.json").is_file()


def test_untraced_run_prints_the_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "remote-cls",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--tiny"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_declared_metrics_match_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        list(layers.LAYER_METRICS)
    assert all(layers.moves(name) for name, _, _ in layers.LAYER_METRICS)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, 0, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),     # overlaps a: the union counts once
        Span(4, 2, "c", 2.0, 3.0),
        Span(5, 1, "a", 8.0, 9.0),
        Span(6, 3, "d", 5.0, 7.0),     # runs past its parent: clipped
    ]
    assert self_times(spans) == {1: 4.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0, 6: 2.0}
    assert self_time_by_name(spans) == {"root": 4.0, "a": 3.0, "b": 2.0, "c": 1.0, "d": 2.0}


def test_recorder_links_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    inner = recorder.wrap("inner", lambda: "x")
    outer = recorder.wrap("outer", lambda: inner())
    assert outer() == "x"
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent == 0
    assert self_time_by_name(recorder.spans) == {"outer": 8.0, "inner": 2.0}


def _brute_force_auroc(clean, corrupted):
    wins = sum(1.0 if c > k else 0.5 if c == k else 0.0 for c in clean for k in corrupted)
    return wins / (len(clean) * len(corrupted))


def test_noise_auroc_matches_brute_force_with_ties():
    assert noise_auroc([1.0, 0.5], [0.5, 0.0]) == 0.875
    assert noise_auroc([0.3, 0.3], [0.3]) == 0.5
    rng = random.Random("auroc")
    for _ in range(200):
        levels = [0.0, 0.25, 0.5, 0.75, 1.0][:rng.randint(1, 5)]
        clean = [rng.choice(levels) for _ in range(rng.randint(1, 12))]
        corrupted = [rng.choice(levels) for _ in range(rng.randint(1, 12))]
        assert noise_auroc(clean, corrupted) == pytest.approx(
            _brute_force_auroc(clean, corrupted), abs=1e-12)


class _Echo:
    def generate(self, request):
        return request.prompt


def _body(model, sample_id, seed):
    return {"model": model, "temperature": 0.7, "max_tokens": 16, "seed": seed,
            "messages": [{"role": "user", "content": [
                {"type": "image_url", "image_url": {"url": f"synthetic://{sample_id}"}},
                {"type": "text", "text": "p"}]}]}


def test_fault_choice_does_not_depend_on_request_order():
    bodies = [_body(m, f"syn-{i:04d}", s) for m in ("reason", "recon")
              for i in range(20) for s in range(5)]

    def faulted(order):
        session = FakeSession({"reason": _Echo(), "recon": _Echo()}, seed=7,
                              delay_s=0.0, fault_share=0.2)
        return {json.dumps(b, sort_keys=True) for b in order
                if session.post("url", json=b).status_code == 503}

    forward = faulted(bodies)
    assert forward and forward == faulted(list(reversed(bodies)))


def test_host_speed_adjustment_rescales_only_on_cpu_time():
    assert adjusted(1.0, 0.5, 2.0) == 0.75       # 0.5 s waiting + 0.5 s CPU at half speed
    assert adjusted(1.0, 1.2, 2.0) == 0.5        # CPU time beyond wall time is clipped
    assert adjusted(1.0, 0.0, 3.0) == 1.0        # pure waiting is never rescaled
