"""The four workloads: their inputs, how one request is driven, its checks.

Inputs come only from the workload seed: the order of prompt lengths,
token ids and sampler seeds.  Lengths come in blocks of ``STRATA``: the
midpoints of equal slices of the length range, shuffled by the seed.  So a
run covers the range evenly and medians from different seeds stay
comparable.  The model is fixed (``program.MODEL_CONFIG``).
"""

from __future__ import annotations

import json
import math
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import program
from spans import Patcher

HERE = Path(__file__).resolve().parent
STRATA = 8
WORKER_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # generate | disagg | perplexity
    mode: str
    lengths: tuple  # inclusive prompt / sequence length range
    new_tokens: int
    temperature: Optional[float]
    traced_per_s: float  # traced requests per --seconds in a --trace 1 run


WORKLOADS = {s.name: s for s in (
    Spec("long_prompt_mixquant", "generate", "mixquant", (256, 768), 8, None, 0.8),
    Spec("short_prompt_fp4_decode", "generate", "uniform_fp4", (16, 64), 32, 0.8, 0.6),
    Spec("disagg_tcp_mixquant", "disagg", "mixquant", (256, 512), 128, None, 0.5),
    Spec("perplexity_baseline16", "perplexity", "baseline16", (48, 128), 0, None, 0.5),
)}


@dataclass
class Request:
    index: int
    prompt: List[int]
    sampler_seed: Optional[int]


def requests(spec: Spec, seed, lengths=None):
    """The endless, seed-determined request sequence of a workload."""
    rng = random.Random(f"{seed}:{spec.name}")
    lo, hi = lengths or spec.lengths
    vocab = program.MODEL_CONFIG["vocab_size"]
    index = 0
    while True:
        block = [lo + int((s + 0.5) * (hi - lo + 1) / STRATA) for s in range(STRATA)]
        rng.shuffle(block)
        for length in block:
            prompt = [rng.randrange(vocab) for _ in range(length)]
            sampler_seed = rng.getrandbits(63) if spec.temperature else None
            yield Request(index, prompt, sampler_seed)
            index += 1


def warmup_request(spec: Spec) -> Request:
    """Fixed for every seed, so set-up time does not depend on the seed."""
    mid = sum(spec.lengths) // 2
    return next(requests(spec, "warmup", lengths=(mid, mid)))


@dataclass
class Result:
    request: Request
    request_s: float
    first_s: float  # time to first token; the whole request for perplexity
    tpot_s: float  # per further generated token; per scored token for perplexity
    produced: int  # generated tokens; scored tokens for perplexity
    output: str


class PhaseClock:
    """The only probe in an untraced run: when the prompt pass returns."""

    def __init__(self):
        self.prefill_end = None

    def wrap(self, fn):
        def timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.prefill_end = time.perf_counter()
            return out
        return timed


def sampler_for(m, spec: Spec, req: Request):
    engine = m["engine"]
    if spec.temperature:
        return engine.SamplerSpec(strategy="temperature", temperature=spec.temperature,
                                  seed=req.sampler_seed, max_new_tokens=spec.new_tokens)
    return engine.SamplerSpec(max_new_tokens=spec.new_tokens)


def check_dump(m, spec: Spec, req: Request, dump: str) -> Optional[str]:
    """The dump parses and holds the requested prompt, mode and length."""
    try:
        parsed = m["engine"].parse_trajectory_dump(dump)
    except (ValueError, KeyError) as exc:
        return f"request {req.index}: dump does not parse: {exc}"
    if parsed["prompt"] != req.prompt or parsed["header"].get("mode") != spec.mode:
        return f"request {req.index}: dump header does not match the request"
    if len(parsed["tokens"]) != spec.new_tokens:
        return (f"request {req.index}: {len(parsed['tokens'])} tokens, "
                f"asked for {spec.new_tokens}")
    return None


class InProcess:
    """``engine.generate`` then ``engine.render_trajectory``, or
    ``analysis.perplexity`` over one sequence, in this process.

    A perplexity request returns one number at its end, so its first
    output is the whole request and its per-token time is per scored token.
    """

    def __init__(self, m, spec: Spec):
        self.m, self.spec = m, spec
        self.mode = m["engine"].ExecutionMode.from_name(spec.mode)
        self.weights = None
        self.peak_rss_kb = 0
        self.clock = PhaseClock()
        self._patcher = Patcher()
        if spec.kind == "generate":
            self._patcher.patch(m["engine"], "prefill", self.clock.wrap)

    def setup(self):
        self.weights = self.m["model"].init_model(program.model_config(self.m))
        self.run(warmup_request(self.spec))

    def run(self, req: Request) -> Result:
        if self.spec.kind == "perplexity":
            start = time.perf_counter()
            value = self.m["analysis"].perplexity(self.weights, self.mode, [req.prompt])
            took = time.perf_counter() - start
            scored = len(req.prompt) - 1
            return Result(req, took, took, took / scored, scored, repr(value))
        engine = self.m["engine"]
        sampler = sampler_for(self.m, self.spec, req)
        start = time.perf_counter()
        traj = engine.generate(self.weights, req.prompt, self.mode, sampler)
        generated = time.perf_counter()
        dump = engine.render_trajectory(traj)
        end = time.perf_counter()
        first = self.clock.prefill_end
        n = len(traj.tokens)
        return Result(req, end - start, first - start, (generated - first) / max(n - 1, 1),
                      n, dump)

    def check(self, results) -> List[Tuple[Result, str]]:
        """The failing results, each with what failed."""
        failures = []
        for r in results:
            if self.spec.kind == "perplexity":
                value = float(r.output)
                problem = None if math.isfinite(value) and value >= 1.0 else \
                    f"request {r.request.index}: perplexity {value}"
            else:
                problem = check_dump(self.m, self.spec, r.request, r.output)
            if problem:
                failures.append((r, problem))
        return failures

    def close(self):
        self._patcher.restore()
        return []


class Worker:
    """One launcher subprocess running a ``disagg.TcpWorker``."""

    def __init__(self, role: str, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--role", role,
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, cwd=str(program.ROOT),
        )
        self.port = None

    def wait_ready(self):
        ready, _, _ = select.select([self.proc.stdout], [], [], WORKER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("worker did not start")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        """Ends the process and returns its final report ({} if none)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return {}
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines and lines[-1].startswith(b"{") else {}


class Disaggregated:
    """``disagg.request_prefill`` then ``disagg.request_decode`` over TCP."""

    def __init__(self, m, spec: Spec, trace: bool = False):
        self.m, self.spec, self.trace = m, spec, trace
        self.mode = m["engine"].ExecutionMode.from_name(spec.mode)
        self.digest = program.model_config(m).digest()
        self.workers = []
        self.peak_rss_kb = 0

    def setup(self):
        self.workers = [Worker("prefill", self.trace), Worker("decode", self.trace)]
        for w in self.workers:
            w.wait_ready()
        self.run(warmup_request(self.spec))

    def run(self, req: Request) -> Result:
        disagg = self.m["disagg"]
        sampler = sampler_for(self.m, self.spec, req)
        prefill_port, decode_port = (w.port for w in self.workers)
        start = time.perf_counter()
        stream = disagg.connect_tcp("127.0.0.1", prefill_port)
        try:
            blob, logits = disagg.request_prefill(stream, req.prompt, self.mode, sampler,
                                                  digest=self.digest)
        finally:
            stream.close()
        first = time.perf_counter()
        stream = disagg.connect_tcp("127.0.0.1", decode_port)
        try:
            dump = disagg.request_decode(stream, blob, logits, self.mode, sampler,
                                         digest=self.digest)
        finally:
            stream.close()
        end = time.perf_counter()
        n = self.spec.new_tokens
        return Result(req, end - start, first - start, (end - first) / max(n - 1, 1), n, dump)

    def check(self, results) -> List[Tuple[Result, str]]:
        """Each dump parses and equals in-process ``generate`` (untimed)."""
        engine = self.m["engine"]
        weights = self.m["model"].init_model(program.model_config(self.m))
        failures = []
        for r in results:
            problem = check_dump(self.m, self.spec, r.request, r.output)
            if problem is None:
                sampler = sampler_for(self.m, self.spec, r.request)
                local = engine.render_trajectory(
                    engine.generate(weights, r.request.prompt, self.mode, sampler))
                if local != r.output:
                    problem = (f"request {r.request.index}: worker dump differs "
                               "from in-process generate")
            if problem:
                failures.append((r, problem))
        return failures

    def close(self):
        """Stops both workers; keeps their peak RSS and spans."""
        reports = [w.stop() for w in self.workers]
        self.workers = []
        self.peak_rss_kb = sum(r.get("peak_rss_kb", 0) for r in reports)
        return [_as_setup_or_request(r.get("spans", [])) for r in reports]


def _as_setup_or_request(spans):
    """Worker spans carry a connection index; connection 0 is the warm-up."""
    for s in spans:
        s[4] = "setup" if s[4] <= 0 else s[4] - 1
    return spans


def client(m, spec: Spec, trace: bool = False):
    if spec.kind == "disagg":
        return Disaggregated(m, spec, trace)
    return InProcess(m, spec)
