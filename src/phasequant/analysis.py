"""Metrics: attention concentration, trajectory divergence, compute model.

Reports render as line-oriented ``key=value`` text and as plain dicts for
JSON dumping.  Metric arithmetic runs in float64 on top of the engine's
float32 outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .engine import ExecutionMode, Trajectory
from .model import (
    AttentionRecord,
    KvCache,
    ModelConfig,
    ModelWeights,
    Precision,
    prefill,
    teacher_forced_logits,
)

_PROB_FLOOR = 1e-12


@dataclass
class TopKMassReport:
    """Fraction of attention mass captured by the k heaviest positions."""

    seq_len: int
    ks: List[int]
    per_head: np.ndarray  # [n_layers, n_heads, len(ks)] float64
    mean_per_k: np.ndarray  # [len(ks)] float64

    def to_dict(self) -> dict:
        return {
            "seq_len": self.seq_len,
            "ks": list(self.ks),
            "per_head": self.per_head.tolist(),
            "mean_per_k": self.mean_per_k.tolist(),
        }

    def render(self) -> str:
        lines = [f"seq_len={self.seq_len} ks={','.join(map(str, self.ks))}"]
        n_layers, n_heads, _ = self.per_head.shape
        for li in range(n_layers):
            for hi in range(n_heads):
                for ki, k in enumerate(self.ks):
                    lines.append(
                        f"layer={li} head={hi} k={k} "
                        f"mass={float(self.per_head[li, hi, ki])!r}"
                    )
        for ki, k in enumerate(self.ks):
            lines.append(f"k={k} mean_mass={float(self.mean_per_k[ki])!r}")
        return "\n".join(lines) + "\n"


def topk_mass(record: AttentionRecord, ks: Sequence[int]) -> TopKMassReport:
    """Per-(layer, head) top-k attention mass at the recorded query position."""
    rows = record.rows
    seq_len = rows.shape[-1]
    ks = [int(k) for k in ks]
    for k in ks:
        if k < 1 or k > seq_len:
            raise ValueError(f"k={k} outside [1, {seq_len}]")
    ordered = np.sort(rows.astype(np.float64), axis=-1)[..., ::-1]
    cumulative = np.cumsum(ordered, axis=-1)
    per_head = np.stack([cumulative[..., k - 1] for k in ks], axis=-1)
    return TopKMassReport(
        seq_len=seq_len,
        ks=ks,
        per_head=per_head,
        mean_per_k=per_head.mean(axis=(0, 1)),
    )


@dataclass
class DivergenceReport:
    """Where and how a trajectory departs from a reference trajectory."""

    ref_mode: str
    test_mode: str
    steps_compared: int
    first_divergence: Optional[int]  # 1-based step, None if prefixes agree
    kl_per_step: List[float]
    top1_agree: List[bool]

    def to_dict(self) -> dict:
        return {
            "ref_mode": self.ref_mode,
            "test_mode": self.test_mode,
            "steps_compared": self.steps_compared,
            "first_divergence": self.first_divergence,
            "kl_per_step": list(self.kl_per_step),
            "top1_agree": list(self.top1_agree),
        }

    def render(self) -> str:
        div = "none" if self.first_divergence is None else str(self.first_divergence)
        lines = [
            f"ref_mode={self.ref_mode} test_mode={self.test_mode} "
            f"steps_compared={self.steps_compared} first_divergence={div}"
        ]
        for i, (kl, agree) in enumerate(zip(self.kl_per_step, self.top1_agree),
                                        start=1):
            lines.append(f"step={i} agree={int(agree)} kl={kl!r}")
        return "\n".join(lines) + "\n"


def _step_kl(ref_logprobs: np.ndarray, test_logprobs: np.ndarray) -> float:
    """KL(ref || test) in float64 from stored float32 log-probabilities.

    Both vectors are renormalized in float64; the test side is floored at
    1e-12 so a vanished probability cannot produce log of zero.
    """
    lr = ref_logprobs.astype(np.float64)
    lt = test_logprobs.astype(np.float64)
    lr = lr - _logsumexp(lr)
    lt = lt - _logsumexp(lt)
    p = np.exp(lr)
    lt = np.maximum(lt, np.log(_PROB_FLOOR))
    terms = np.where(p > 0.0, p * (lr - lt), 0.0)
    return float(terms.sum())


def _logsumexp(x: np.ndarray) -> float:
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


def compare_trajectories(ref: Trajectory, test: Trajectory) -> DivergenceReport:
    """First token divergence plus per-step KL over the shared prefix."""
    if list(ref.prompt) != list(test.prompt):
        raise ValueError("trajectories have different prompts")
    n = min(len(ref.tokens), len(test.tokens))
    first = None
    for i in range(n):
        if ref.tokens[i] != test.tokens[i]:
            first = i + 1
            break
    limit = first if first is not None else n
    kl = [
        _step_kl(ref.logprobs[i], test.logprobs[i]) for i in range(limit)
    ]
    agree = [ref.tokens[i] == test.tokens[i] for i in range(limit)]
    return DivergenceReport(
        ref_mode=ref.mode,
        test_mode=test.mode,
        steps_compared=n,
        first_divergence=first,
        kl_per_step=kl,
        top1_agree=agree,
    )


@dataclass
class CostReport:
    """Analytic multiply-accumulate counts with per-phase precision tags.

    Linear-projection work per token per layer is ``4*d^2 + 3*d*f``; the
    attention matmuls count ``L*L*d`` per layer for a length-L prompt pass
    and ``(L+t)*d`` per layer for the t-th generated token, always at high
    precision.  The modeled speedup weighs 4-bit MACs at ``1/throughput_ratio``
    of a high-precision MAC.
    """

    mode: str
    throughput_ratio: float
    prefill_linear_macs: int
    prefill_attn_macs: int
    decode_linear_macs: int
    decode_attn_macs: int
    prefill_lowbit_macs: int
    decode_lowbit_macs: int
    modeled_prefill_speedup: float

    @property
    def prefill_total_macs(self) -> int:
        return self.prefill_linear_macs + self.prefill_attn_macs

    @property
    def decode_total_macs(self) -> int:
        return self.decode_linear_macs + self.decode_attn_macs

    @property
    def prefill_linear_lowbit_fraction(self) -> float:
        if self.prefill_linear_macs == 0:
            return 0.0
        return self.prefill_lowbit_macs / self.prefill_linear_macs

    @property
    def prefill_total_lowbit_fraction(self) -> float:
        if self.prefill_total_macs == 0:
            return 0.0
        return self.prefill_lowbit_macs / self.prefill_total_macs

    @property
    def decode_total_lowbit_fraction(self) -> float:
        if self.decode_total_macs == 0:
            return 0.0
        return self.decode_lowbit_macs / self.decode_total_macs

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "throughput_ratio": self.throughput_ratio,
            "prefill_linear_macs": self.prefill_linear_macs,
            "prefill_attn_macs": self.prefill_attn_macs,
            "prefill_total_macs": self.prefill_total_macs,
            "decode_linear_macs": self.decode_linear_macs,
            "decode_attn_macs": self.decode_attn_macs,
            "decode_total_macs": self.decode_total_macs,
            "prefill_lowbit_macs": self.prefill_lowbit_macs,
            "decode_lowbit_macs": self.decode_lowbit_macs,
            "prefill_linear_lowbit_fraction": self.prefill_linear_lowbit_fraction,
            "prefill_total_lowbit_fraction": self.prefill_total_lowbit_fraction,
            "decode_total_lowbit_fraction": self.decode_total_lowbit_fraction,
            "modeled_prefill_speedup": self.modeled_prefill_speedup,
        }

    def render(self) -> str:
        d = self.to_dict()
        return "\n".join(
            f"{k}={v if isinstance(v, str) else repr(v)}" for k, v in d.items()
        ) + "\n"


def cost_model(
    cfg: ModelConfig,
    prompt_len: int,
    gen_len: int,
    mode: ExecutionMode,
    throughput_ratio: float = 1.0,
) -> CostReport:
    if prompt_len < 1 or gen_len < 1:
        raise ValueError("prompt and generation lengths must be >= 1")
    if not throughput_ratio > 0:
        raise ValueError("throughput ratio must be positive")
    d, f = cfg.d_model, cfg.ffn_hidden
    linear_per_token = 4 * d * d + 3 * d * f
    prefill_linear = cfg.n_layers * prompt_len * linear_per_token
    prefill_attn = cfg.n_layers * prompt_len * prompt_len * d
    decode_linear = cfg.n_layers * gen_len * linear_per_token
    decode_attn = cfg.n_layers * d * sum(
        prompt_len + t for t in range(1, gen_len + 1)
    )
    prefill_low = prefill_linear if mode.prefill_precision is Precision.NVFP4 else 0
    decode_low = decode_linear if mode.decode_precision is Precision.NVFP4 else 0

    base_time = float(prefill_linear + prefill_attn)
    mixed_time = (
        prefill_low / throughput_ratio
        + (prefill_linear - prefill_low)
        + prefill_attn
    )
    return CostReport(
        mode=mode.value,
        throughput_ratio=throughput_ratio,
        prefill_linear_macs=prefill_linear,
        prefill_attn_macs=prefill_attn,
        decode_linear_macs=decode_linear,
        decode_attn_macs=decode_attn,
        prefill_lowbit_macs=prefill_low,
        decode_lowbit_macs=decode_low,
        modeled_prefill_speedup=base_time / mixed_time,
    )


def perplexity(weights: ModelWeights, mode: ExecutionMode,
               corpus: Sequence[Sequence[int]]) -> float:
    """Teacher-forced perplexity with phase-split precision.

    Each scored token x_t is predicted from its context x_1..x_{t-2} run as
    a prompt pass at the mode's prefill precision and the preceding token
    x_{t-1} run as a decode step at its decode precision, mirroring how
    generation conditions on context versus fresh tokens.  A sequence of n
    tokens takes two passes: one prompt pass over its first n - 2 tokens
    (none when n = 2), whose rows serve as every shorter context, and one
    ``teacher_forced_logits`` pass over its first n - 1 tokens.

    Attention gives a row the same bits in any pass, and so do the 4-bit
    linears, so on the 4-bit path a batched row's hidden state equals a
    single decode step's.  Float32 matmuls do not: the output head of one
    row, and float32 linears of one or two rows, take other BLAS paths
    than a batch.  So the result differs from a fresh prompt pass and
    decode step per scored token by up to about 2.4e-7 relative; the tests
    hold it to 1e-5.  A float32 context row that differs in the last bit
    can still flip one activation code of a 4-bit decode row, which moves
    that token's log-probability by up to a few 1e-3.  Negative
    log-likelihoods are summed in float64.
    """
    cfg = weights.config
    seqs = [[int(t) for t in seq] for seq in corpus]
    for seq in seqs:
        if len(seq) > cfg.max_seq_len:
            raise ValueError("corpus sequence exceeds the model context")
        if any(not 0 <= t < cfg.vocab_size for t in seq):
            raise ValueError("corpus token outside the vocabulary")
    total_nll = 0.0
    scored = 0
    for seq in seqs:
        n = len(seq)
        if n < 2:
            continue
        if n > 2:
            context = prefill(weights, seq[: n - 2], mode.prefill_precision).kv
        else:
            context = KvCache(cfg)
        logits = teacher_forced_logits(weights, seq[: n - 1], context,
                                       mode.decode_precision)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logprobs = shifted[np.arange(n - 1), seq[1:]] - np.log(
            np.exp(shifted).sum(axis=-1))
        for logprob in logprobs:
            total_nll += -float(logprob)
        scored += n - 1
    if scored == 0:
        raise ValueError("corpus has no scorable positions")
    return float(np.exp(total_nll / scored))


def record_attention(weights: ModelWeights, prompt,
                     mode: ExecutionMode) -> AttentionRecord:
    """Prompt pass at the mode's prefill precision, recording the final
    position's attention rows."""
    result = prefill(
        weights, prompt, mode.prefill_precision, record_attention=True
    )
    return result.attention


def dump_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)
