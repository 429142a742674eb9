"""The benchmark's workloads on synthetic cue worlds built from the seed.

Every workload counts its work in GRPO groups: one sample times G
attempts. A workload's samples are split into chunks, and the timed
phase runs one chunk per rep, cycling through all of them; short reps
let the harness see past the seconds-long slow phases of a shared host.
A rep calls only public cotloop functions, looked up on their modules at
call time so the traced run can wrap them. `inspect` checks a rep's
outputs and reduces them to a digest that must repeat exactly every
time the same chunk runs again.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from cotloop import audit, grpo, pipeline, reward
from cotloop.backends import (CueWorld, RemoteBackend, SyntheticReasonBackend,
                              SyntheticReconBackend)

from .fakes import LEAK_SENTENCE, CountingSleep, FakeSession, LeakInjectingReasoner

TAU = reward.DEFAULT_TAU
# Acceptance-6 separation floors, unchanged.
CORRUPTED_BELOW_TAU_FLOOR = 0.95
CLEAN_AT_OR_ABOVE_TAU_FLOOR = 0.60
# Unwrapped serializer, so digests taken by the benchmark are never traced.
_record_to_json = pipeline.record_to_json


@dataclass
class RepOutput:
    groups: int                  # groups finished
    attempted: int               # samples attempted
    failed: int                  # samples in StageResult.failures
    digest: str                  # sha256 of every output byte of the rep
    rewards: list                # retained records' rewards (toy: curve tail)
    kept: int = 0                # retained records with reward >= tau
    counts: dict = field(default_factory=dict)    # repeat exactly per chunk
    backoff_ms: float = 0.0      # time RemoteBackend spent in retry backoff
    errors: list = field(default_factory=list)


def records_bytes(records) -> bytes:
    return "".join(json.dumps(_record_to_json(r), sort_keys=True) + "\n"
                   for r in records).encode()


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


def _kept(records) -> int:
    return sum(r.reward >= TAU for r in records)


def noise_auroc(clean: list[float], corrupted: list[float]) -> float:
    """AUROC of reward as a clean-vs-corrupted score (Mann-Whitney U over all
    clean x corrupted pairs, ties counting half)."""
    if not clean or not corrupted:
        raise ValueError("noise_auroc needs clean and corrupted rewards")
    # Average ranks over the pooled scores handle ties exactly.
    pooled = sorted([(r, 1) for r in clean] + [(r, 0) for r in corrupted])
    rank_sum = 0.0
    i = 0
    while i < len(pooled):
        j = i
        while j < len(pooled) and pooled[j][0] == pooled[i][0]:
            j += 1
        avg_rank = (i + 1 + j) / 2
        rank_sum += avg_rank * sum(label for _, label in pooled[i:j])
        i = j
    n_clean = len(clean)
    u = rank_sum - n_clean * (n_clean + 1) / 2
    return u / (n_clean * len(corrupted))


class Workload:
    """One benchmark workload. Subclasses set the sizes and implement rep."""

    name = ""
    why = ""
    group_size = 8
    sizes: dict = {}
    tiny_sizes: dict = {}

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.size = dict(self.sizes, **(self.tiny_sizes if tiny else {}))

    def setup(self) -> None:
        """World and backend construction; counted in setup_s. Sets `samples`."""
        raise NotImplementedError

    @property
    def chunks(self) -> int:
        return math.ceil(len(self.samples) / self.size["chunk"])

    def chunk_samples(self, chunk: int) -> list:
        n = self.size["chunk"]
        return self.samples[chunk * n:(chunk + 1) * n]

    def rep(self, workdir: str, chunk: int):
        """The timed unit of work; returns raw outputs for `inspect`."""
        raise NotImplementedError

    def inspect(self, raw, workdir: str, chunk: int) -> RepOutput:
        raise NotImplementedError

    def finish(self, cycle: list) -> tuple[list[str], dict]:
        """Checks on the raw outputs of the first pass over every chunk;
        returns (errors, quality metrics)."""
        return [], {}

    def hook(self, patcher, recorder) -> None:
        """Trace hooks on objects the workload owns (its backends)."""

    def expected_gates(self, outs: list) -> dict:
        """Gate counts per pass over every chunk that the inputs determine."""
        return {"leak": 0, "parse": 0, "format": 0}

    def _world(self, kind: str) -> CueWorld:
        s = self.size
        return CueWorld(kind=kind, num_samples=s["samples"], cues_per_sample=4,
                        vocab_size=s["vocab"], seed=self.seed)

    def _hook_generate(self, patcher, recorder, reason, recon, on_error=None) -> None:
        for stage, backend in (("reason", reason), ("recon", recon)):
            patcher.function(backend, "generate", lambda fn, stage=stage: recorder.wrap(
                f"backends.{stage}.generate", fn, on_error=on_error))


class GenCotCls(Workload):
    name = "gencot-cls"
    why = ("closed-loop stage on a 48-category world with seeded numeric leaks, then "
           "records read, tau filter and SFT export: loads textproto, KLD/MSE and record IO")
    sizes = {"samples": 96, "chunk": 12, "vocab": 48, "fidelity": 0.8, "leak_share": 0.10}
    tiny_sizes = {"samples": 6, "chunk": 3}

    def setup(self) -> None:
        world = self._world("classification")
        self.samples = [s.as_sample() for s in world.samples]
        self.reason = SyntheticReasonBackend(world, fidelity=self.size["fidelity"])
        self.leaky = LeakInjectingReasoner(self.reason, self.seed, self.size["leak_share"])
        self.recon = SyntheticReconBackend(world)

    def _paths(self, workdir: str) -> tuple[str, str]:
        return os.path.join(workdir, "records.jsonl"), os.path.join(workdir, "sft.jsonl")

    def rep(self, workdir: str, chunk: int):
        samples = self.chunk_samples(chunk)
        records_path, sft_path = self._paths(workdir)
        for path in (records_path, sft_path):
            if os.path.exists(path):
                os.remove(path)
        self.leaky.injected = 0
        stage = pipeline.run_closed_loop_stage(
            samples, self.leaky, self.recon, group_size=self.group_size,
            seed=self.seed, records_path=records_path)
        records = pipeline.load_records(records_path)
        kept, _, _ = reward.filter_high_subset(records, TAU)
        pipeline.export_sft_corpus(kept, samples, TAU, path=sft_path)
        return stage, records

    def inspect(self, raw, workdir: str, chunk: int) -> RepOutput:
        stage, records = raw
        errors = []
        written = records_bytes(stage.records)
        if records_bytes(records) != written:
            errors.append("records read back differ from the records the stage returned")
        for r in stage.records:
            leaked = LEAK_SENTENCE in r.cot
            if leaked != r.breakdown.leak_detected or (leaked and r.reward != 0.0):
                errors.append(f"leak gate disagrees with the injected leak on {r.sample_id}")
        records_path, sft_path = self._paths(workdir)
        with open(records_path, "rb") as f, open(sft_path, "rb") as g:
            digest = _digest(written, f.read(), g.read())
        return RepOutput(groups=len(stage.records), attempted=len(self.chunk_samples(chunk)),
                         failed=len(stage.failures), digest=digest,
                         rewards=[r.reward for r in stage.records], kept=_kept(stage.records),
                         counts={"leaks_injected": self.leaky.injected}, errors=errors)

    def hook(self, patcher, recorder) -> None:
        self._hook_generate(patcher, recorder, self.reason, self.recon)

    def expected_gates(self, outs: list) -> dict:
        return {"leak": sum(o.counts["leaks_injected"] for o in outs), "parse": 0, "format": 0}


class AuditDet(Workload):
    name = "audit-det"
    why = ("noise audit on a detection world, 30% corruption, G=8, fidelity 0.9: "
           "loads hungarian_match and label corruption; fixed leak regexes stay cheap")
    sizes = {"samples": 100, "chunk": 25, "vocab": 24, "fidelity": 0.9, "fraction": 0.3}
    tiny_sizes = {"samples": 20, "chunk": 10}

    def setup(self) -> None:
        world = self._world("detection")
        self.samples = [s.as_sample() for s in world.samples]
        self.reason = SyntheticReasonBackend(world, fidelity=self.size["fidelity"])
        self.recon = SyntheticReconBackend(world)

    def rep(self, workdir: str, chunk: int):
        return audit.run_noise_audit(self.chunk_samples(chunk), self.size["fraction"],
                                     self.reason, self.recon, group_size=self.group_size,
                                     tau=TAU, seed=self.seed)

    def inspect(self, raw, workdir: str, chunk: int) -> RepOutput:
        report, stage = raw
        return RepOutput(groups=len(stage.records), attempted=len(self.chunk_samples(chunk)),
                         failed=len(stage.failures),
                         digest=_digest(records_bytes(stage.records),
                                        report.render().encode()),
                         rewards=[r.reward for r in stage.records], kept=_kept(stage.records))

    def finish(self, cycle: list) -> tuple[list[str], dict]:
        clean, corrupted, errors = [], [], []
        for chunk, (report, stage) in enumerate(cycle):
            _, ids = audit.corrupt_dataset(self.chunk_samples(chunk), self.size["fraction"],
                                           self.seed)
            chunk_clean = [r.reward for r in stage.records if r.sample_id not in ids]
            chunk_corrupted = [r.reward for r in stage.records if r.sample_id in ids]
            if (len(chunk_clean), len(chunk_corrupted)) != (report.n_clean, report.n_corrupted):
                errors.append("corrupt_dataset ids disagree with the audit report counts")
            clean += chunk_clean
            corrupted += chunk_corrupted
        below = sum(r < TAU for r in corrupted) / len(corrupted)
        above = sum(r >= TAU for r in clean) / len(clean)
        if below < CORRUPTED_BELOW_TAU_FLOOR:
            errors.append(f"corrupted below tau {below:.3f} < {CORRUPTED_BELOW_TAU_FLOOR}")
        if above < CLEAN_AT_OR_ABOVE_TAU_FLOOR:
            errors.append(f"clean at/above tau {above:.3f} < {CLEAN_AT_OR_ABOVE_TAU_FLOOR}")
        return errors, {"noise_auroc": noise_auroc(clean, corrupted)}

    def hook(self, patcher, recorder) -> None:
        self._hook_generate(patcher, recorder, self.reason, self.recon)

    def expected_gates(self, outs: list) -> dict:
        # A reasoning output that names no cue reconstructs to a degenerate
        # box and fails the parse gate, so only the leak count is fixed.
        return {"leak": 0}


class ToyTrain(Workload):
    name = "toy-train"
    why = ("GRPO toy-policy training on the acceptance-5 world: loads grpo; its reward "
           "cache idles reward and parsing and it loads no template (the bypass workload)")
    # Training is sequential, so the whole world is one chunk.
    sizes = {"samples": 50, "chunk": 50, "vocab": 24, "steps": 60}
    tiny_sizes = {"samples": 8, "chunk": 8, "steps": 3}
    tail = 20      # mean_reward is the mean of the last `tail` curve points

    def setup(self) -> None:
        self.world = self._world("classification")
        self.samples = list(self.world.samples)

    def rep(self, workdir: str, chunk: int):
        return grpo.train_toy_policy(self.world, steps=self.size["steps"],
                                     group_size=self.group_size, seed=self.seed)

    def inspect(self, raw, workdir: str, chunk: int) -> RepOutput:
        curve = raw.curve
        errors = []
        if len(curve) != self.size["steps"] or not all(0.0 <= v <= 1.0 for v in curve):
            errors.append("reward curve has the wrong length or leaves [0, 1]")
        head, tail = curve[:self.tail], curve[-self.tail:]
        if self.size["steps"] >= 2 * self.tail and _mean(tail) <= _mean(head):
            errors.append("toy policy did not improve over training")
        groups = len(curve) * len(self.samples)
        return RepOutput(groups=groups, attempted=groups, failed=0,
                         digest=_digest(repr(curve).encode()), rewards=tail, errors=errors)


class RemoteCls(Workload):
    name = "remote-cls"
    why = ("the gencot stage on a 24-category world through RemoteBackend and a fake "
           "session with a fixed delay and 5% first-attempt 503s: waits and retries dominate")
    sizes = {"samples": 48, "chunk": 4, "vocab": 24, "fidelity": 0.9, "delay_s": 0.010,
             "fault_share": 0.05, "max_in_flight": 2, "backoff_s": 0.010}
    tiny_sizes = {"samples": 4, "chunk": 2, "delay_s": 0.001, "backoff_s": 0.001}
    auth_env = "PERFBENCH_FAKE_API_KEY"

    def setup(self) -> None:
        s = self.size
        world = self._world("classification")
        self.samples = [x.as_sample() for x in world.samples]
        self.synthetic = {"reason": SyntheticReasonBackend(world, fidelity=s["fidelity"]),
                          "recon": SyntheticReconBackend(world)}
        self.session = FakeSession(self.synthetic, self.seed, s["delay_s"], s["fault_share"])
        self.sleep = CountingSleep()
        os.environ[self.auth_env] = "fake-key"
        self.remote = {
            stage: RemoteBackend(endpoint="http://fake.invalid/v1/chat/completions",
                                 model=stage, auth_env=self.auth_env, timeout=5.0,
                                 max_attempts=3, backoff_base=s["backoff_s"],
                                 max_in_flight=s["max_in_flight"],
                                 session=self.session, sleep=self.sleep)
            for stage in ("reason", "recon")}

    def rep(self, workdir: str, chunk: int):
        self.session.reset()
        self.sleep.reset()
        return pipeline.run_closed_loop_stage(
            self.chunk_samples(chunk), self.remote["reason"], self.remote["recon"],
            group_size=self.group_size, seed=self.seed)

    def inspect(self, stage, workdir: str, chunk: int) -> RepOutput:
        errors = []
        faults, posts, retries = self.session.faults, self.session.posts, self.sleep.calls
        requests = len(self.session.seen)
        if retries != faults:
            errors.append(f"{retries} retries for {faults} injected faults")
        if posts != requests + faults:
            errors.append(f"{posts} posts for {requests} requests and {faults} faults")
        if requests != 2 * self.group_size * len(stage.records):
            errors.append("request count does not match 2 x G per finished sample")
        return RepOutput(groups=len(stage.records), attempted=len(self.chunk_samples(chunk)),
                         failed=len(stage.failures), digest=_digest(records_bytes(stage.records)),
                         rewards=[r.reward for r in stage.records], kept=_kept(stage.records),
                         counts={"faults_injected": faults, "posts": posts, "retries": retries},
                         backoff_ms=1000.0 * self.sleep.waited_s, errors=errors)

    def finish(self, cycle: list) -> tuple[list[str], dict]:
        for chunk, stage in enumerate(cycle):
            reference = pipeline.run_closed_loop_stage(
                self.chunk_samples(chunk), self.synthetic["reason"], self.synthetic["recon"],
                group_size=self.group_size, seed=self.seed)
            if records_bytes(stage.records) != records_bytes(reference.records):
                return [f"remote records differ from the synthetic-backend records "
                        f"(chunk {chunk})"], {}
        return [], {}

    def hook(self, patcher, recorder) -> None:
        self._hook_generate(patcher, recorder, self.remote["reason"], self.remote["recon"],
                            on_error=lambda: recorder.count("backends.remote.failed"))
        patcher.function(self.session, "post",
                         lambda fn: recorder.wrap("backends.remote.post", fn))


WORKLOADS = {w.name: w for w in (GenCotCls, AuditDet, ToyTrain, RemoteCls)}
