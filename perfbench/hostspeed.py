"""Host-speed calibration for the timed phase.

The benchmark host is a shared VM whose vCPUs slow by a third or more
for seconds to minutes at a time when co-tenants are busy (measured on
an Intel Xeon 2.0 GHz vCPU: same-seed runs of one workload read 70, 54,
54, 54 and 50 groups/s back to back). A run cannot wait out such a phase,
so every rep is bracketed by runs of a fixed calibration loop and the
rep's on-CPU time is rescaled by how much slower than `REFERENCE_S` the
loop ran, averaged over the two brackets. Waiting (sleeps, backoff) is
not rescaled. The loop mixes the kinds of work the program does: literal
parsing of a 48-key map, regex scanning, JSON encoding, small numpy
arrays, and a few hundred two-way softmax draws over a bucket table.
"""

from __future__ import annotations

import ast
import json
import math
import random
import re
import time

import numpy as np

# Loop time on the reference host (Intel Xeon 2.0 GHz vCPU, Python 3.11.7,
# numpy 2.4) in an uncontended phase.
REFERENCE_S = 0.0025
TRIES = 7

_MAP_TEXT = "{" + ", ".join(f"'amber-cue{i}': {i / 1000:.4f}" for i in range(48)) + "}"
_PAIR_RE = re.compile(r"\bamber-cue\d+\b\s*[:=]\s*\d")


_BUCKETS = [f"syn-{i // 8:04d}|cue|amber-cue{i}" for i in range(400)]


def _loop() -> float:
    total = 0.0
    for _ in range(3):
        obj = ast.literal_eval(_MAP_TEXT)
        total += sum(v * math.log(max(v, 1e-10)) for v in obj.values())
        total += len(_PAIR_RE.findall(_MAP_TEXT))
        total += len(json.dumps(obj, sort_keys=True))
        m = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                m[i, j] = (i * 7 + j) % 5 / 5.0
        total += float(m.sum()) + len(f"{total:.3f}")
    rng = random.Random(7)
    logits = {b: {"in": (len(b) % 5) / 5.0, "out": 0.0} for b in _BUCKETS}
    for bucket, ls in logits.items():
        top = max(ls.values())
        exps = {c: math.exp(v - top) for c, v in ls.items()}
        z = sum(exps.values())
        total += len(rng.choices(list(exps), weights=[e / z for e in exps.values()], k=1)[0])
    for prefix in ("syn-0003|", "syn-0031|"):
        total += sum(1 for b in logits if b.startswith(prefix))
    return total


def slowdown() -> float:
    """How many times slower than the reference host the CPU runs right now:
    the median of a few loop runs, so one interrupt does not count."""
    times = []
    for _ in range(TRIES):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2] / REFERENCE_S


def adjusted(wall_s: float, cpu_s: float, factor: float) -> float:
    """Wall time with its on-CPU part rescaled to the reference host speed."""
    on_cpu = min(cpu_s, wall_s)
    return (wall_s - on_cpu) + on_cpu / factor
