"""Phase-wise execution modes and trajectory generation.

A mode fixes the numeric path of each inference phase:

    baseline16   high-precision prompt pass, high-precision decoding
    uniform_fp4  4-bit prompt pass,          4-bit decoding
    mixquant     4-bit prompt pass,          high-precision decoding
    p16d4        high-precision prompt pass, 4-bit decoding

``generate`` composes exactly ``prefill(prefill_precision)`` followed by
repeated ``decode_step(decode_precision)``; the first generated token is
sampled from the prompt pass's final-position logits.  Every step stores the
full log-probability vector in float32.

A ``SamplerSpec`` is kept in its normal form: a greedy spec draws nothing,
so it carries no seed and temperature 1.0, whatever it was built with; a
temperature spec keeps the float32 value of its temperature, the one the
engine divides by.  Every field fits its wire record.  The dump header, the
wire request and every comparison see only that form, so a spec renders the
same in process and through the worker pair.

Trajectory dump format (line-delimited text): one header line

    mode=<m> sampler=<greedy|temperature> temperature=<t|-> seed=<s|->
    max_new=<n> stop=<id|-> digest=<16 hex> prompt=<comma ids>

(single line; shown wrapped) followed by one line per step

    step=<i> token=<id> top8=<id>:<logp>,...

with steps 1-based, the top-8 pairs in descending probability (ties by
ascending token id) and log-probabilities in shortest round-trip decimal of
their float32 value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, NamedTuple, Optional

import numpy as np

from .errors import ContextOverflowError, NonFiniteError
from .model import (
    KvCache,
    ModelConfig,
    ModelWeights,
    Precision,
    decode_step,
    prefill,
)
from .rng import SplitMix64


class ExecutionMode(Enum):
    """A mode's name (its ``.value``) and the precision of each phase.  The
    definition order is the wire index."""

    BASELINE16 = ("baseline16", Precision.HIGH, Precision.HIGH)
    UNIFORM_FP4 = ("uniform_fp4", Precision.NVFP4, Precision.NVFP4)
    MIX_QUANT = ("mixquant", Precision.NVFP4, Precision.HIGH)
    P16D4 = ("p16d4", Precision.HIGH, Precision.NVFP4)

    def __new__(cls, name: str, prefill: Precision, decode: Precision):
        mode = object.__new__(cls)
        mode._value_ = name
        mode.prefill_precision = prefill
        mode.decode_precision = decode
        return mode

    @classmethod
    def from_name(cls, name: str) -> "ExecutionMode":
        key = name.strip().lower().replace("-", "_")
        for mode in cls:
            if mode.value == key:
                return mode
        raise ValueError(f"unknown execution mode: {name!r}")


@dataclass(frozen=True)
class SamplerSpec:
    """Decoding strategy. Greedy is deterministic; temperature sampling is
    deterministic given its seed (which it requires).  A greedy spec is
    normalized to no seed and temperature 1.0 (see the module docstring).

    Every accepted spec fits the wire request: ``max_new_tokens`` its u32
    field, a stop token its i64 field as a non-negative id.  The engine
    divides by ``float32(temperature)``, so a temperature spec needs that
    value finite and positive and stores it.
    """

    strategy: str = "greedy"
    temperature: float = 1.0
    seed: Optional[int] = None
    max_new_tokens: int = 16
    stop_token: Optional[int] = None

    def __post_init__(self):
        if self.strategy not in ("greedy", "temperature"):
            raise ValueError(f"unknown sampling strategy {self.strategy!r}")
        if not 0 <= self.max_new_tokens < 1 << 32:
            raise ValueError("max_new_tokens must be in [0, 2**32)")
        if self.stop_token is not None and not 0 <= self.stop_token < 1 << 63:
            raise ValueError("stop_token must be None or in [0, 2**63)")
        if self.strategy == "greedy":  # draws nothing, so nothing to record
            object.__setattr__(self, "seed", None)
            object.__setattr__(self, "temperature", 1.0)
            return
        with np.errstate(over="ignore"):
            temperature = np.float32(self.temperature)
        if not (temperature > 0 and np.isfinite(temperature)):
            raise ValueError("temperature must be positive and finite in float32")
        object.__setattr__(self, "temperature", float(temperature))
        if self.seed is None:
            raise ValueError("temperature sampling requires a seed")
        # the generator state is 64-bit; normalize so the recorded seed is
        # the one actually used
        object.__setattr__(self, "seed", self.seed & 0xFFFFFFFFFFFFFFFF)


@dataclass
class Trajectory:
    prompt: List[int]
    tokens: List[int] = field(default_factory=list)
    logprobs: List[np.ndarray] = field(default_factory=list)
    mode: str = ""
    sampler: Optional[SamplerSpec] = None
    config_digest: int = 0


class Distribution(NamedTuple):
    """One decode step: the token picked, the normalized probabilities and
    the float32 log-probabilities a trajectory stores, taken from the same
    softmax terms as ``probs``."""

    token: int
    probs: np.ndarray
    logprobs: np.ndarray


def decode_distribution(logits: np.ndarray, sampler: SamplerSpec,
                        rng: Optional[SplitMix64] = None) -> Distribution:
    """Pick the next token and return it with the normalized probabilities.

    Softmax is computed in float32 with max subtraction.  Greedy takes the
    argmax, lowest id on exact ties.  Temperature divides the logits by t
    and samples by inverse CDF over ascending token ids using one uniform
    draw from the pinned generator.  The log-probabilities are the shifted
    logits minus the log of the same exponential sum.  Logits that are not
    finite after the division by t (a tiny t can overflow them) raise
    ``NonFiniteError``.
    """
    arr = np.asarray(logits, dtype=np.float32)
    if sampler.strategy == "temperature":
        arr = arr / np.float32(sampler.temperature)
    if not np.isfinite(arr).all():
        raise NonFiniteError("logits must be finite")
    shifted = arr - arr.max()
    e = np.exp(shifted)
    total = e.sum()
    probs = e / total
    if sampler.strategy == "greedy":
        token = int(np.argmax(arr))
    else:
        if rng is None:
            raise ValueError("temperature sampling requires a generator")
        cdf = np.cumsum(probs.astype(np.float64))
        u = rng.next_float() * cdf[-1]
        token = int(np.searchsorted(cdf, u, side="right"))
        token = min(token, arr.size - 1)
    return Distribution(token, probs, shifted - np.log(total))


def run_decode_loop(
    weights: ModelWeights,
    kv: KvCache,
    first_logits: np.ndarray,
    decode_precision: Precision,
    sampler: SamplerSpec,
    prompt: List[int],
    mode_label: str,
) -> Trajectory:
    """Autoregressive decoding from already-computed first-step logits.

    Shared verbatim by the in-process engine and the decode worker so both
    produce identical trajectories from identical inputs.
    """
    traj = Trajectory(
        prompt=list(prompt),
        mode=mode_label,
        sampler=sampler,
        config_digest=weights.config.digest(),
    )
    rng = SplitMix64(sampler.seed) if sampler.strategy == "temperature" else None
    logits = first_logits
    for step in range(sampler.max_new_tokens):
        token, _, logprobs = decode_distribution(logits, sampler, rng)
        traj.tokens.append(token)
        traj.logprobs.append(logprobs)
        if sampler.stop_token is not None and token == sampler.stop_token:
            break
        if step + 1 < sampler.max_new_tokens:
            logits = decode_step(weights, kv, token, decode_precision)
    return traj


def check_context(config: ModelConfig, prompt_len: int, max_new_tokens: int):
    """Raise ``ContextOverflowError`` unless a prompt of ``prompt_len``
    tokens and ``max_new_tokens`` generated ones fit ``max_seq_len``.  The
    last generated token is never fed back, so it takes no position."""
    if prompt_len > config.max_seq_len:
        raise ContextOverflowError(
            f"prompt length {prompt_len} exceeds max_seq_len "
            f"{config.max_seq_len}",
            position=prompt_len - 1,
        )
    need = prompt_len + max(max_new_tokens - 1, 0)
    if need > config.max_seq_len:
        raise ContextOverflowError(
            f"generation would reach position {need - 1}, past max_seq_len "
            f"{config.max_seq_len}",
            position=need - 1,
        )


def generate(
    weights: ModelWeights,
    prompt,
    mode: ExecutionMode,
    sampler: SamplerSpec,
) -> Trajectory:
    """Full generation: prompt pass at the mode's prefill precision, then
    decoding at its decode precision, greedy ties to the lowest token id."""
    prompt = [int(t) for t in prompt]
    check_context(weights.config, len(prompt), sampler.max_new_tokens)
    result = prefill(weights, prompt, mode.prefill_precision)
    return run_decode_loop(
        weights,
        result.kv,
        result.logits,
        mode.decode_precision,
        sampler,
        prompt,
        mode.value,
    )


def _fmt_float(v) -> str:
    return repr(float(v))


def render_trajectory(traj: Trajectory) -> str:
    s = traj.sampler or SamplerSpec()
    temp = _fmt_float(s.temperature) if s.strategy == "temperature" else "-"
    seed = str(s.seed) if s.seed is not None else "-"
    stop = str(s.stop_token) if s.stop_token is not None else "-"
    lines = [
        f"mode={traj.mode} sampler={s.strategy} temperature={temp} seed={seed} "
        f"max_new={s.max_new_tokens} stop={stop} "
        f"digest={traj.config_digest:016x} "
        f"prompt={','.join(str(t) for t in traj.prompt)}"
    ]
    for i, (token, lp) in enumerate(zip(traj.tokens, traj.logprobs), start=1):
        order = np.argsort(-lp, kind="stable")[:8]
        pairs = ",".join(f"{int(t)}:{_fmt_float(np.float32(lp[t]))}" for t in order)
        lines.append(f"step={i} token={token} top8={pairs}")
    return "\n".join(lines) + "\n"


def parse_trajectory_dump(text: str) -> dict:
    """Header fields, token sequence and top-8 pairs from a dump."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty trajectory dump")
    header = {}
    for item in lines[0].split():
        key, _, value = item.partition("=")
        header[key] = value
    tokens = []
    top8 = []
    for line in lines[1:]:
        fields = dict(item.partition("=")[::2] for item in line.split())
        tokens.append(int(fields["token"]))
        pairs = []
        if fields.get("top8"):
            for pair in fields["top8"].split(","):
                tid, _, lp = pair.partition(":")
                pairs.append((int(tid), float(lp)))
        top8.append(pairs)
    prompt = [int(t) for t in header.get("prompt", "").split(",") if t != ""]
    return {"header": header, "prompt": prompt, "tokens": tokens, "top8": top8}
