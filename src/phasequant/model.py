"""Minimal decoder-only transformer with a KV cache and dual-precision linears.

Architecture: pre-norm residual blocks of causal multi-head attention and a
gated MLP, rotary position embedding on queries and keys, RMS normalization,
and a token embedding tied to the output head.  All arithmetic is float32
(the working precision).  Each of the seven projection matrices per layer
can run either as a plain float32 matmul (high precision) or through the
4-bit quantized path: the weight uses a cached quantized shadow copy and
each activation row is quantized on the fly as its own tensor (per-token
scale, 16-element blocks along the feature axis), so a token's codes never
depend on what else shares the batch.  Projections that read one input
share one quantization of it: q/k/v, and the MLP's gate/up.  Norms,
rotary embedding, softmax, residuals and the output head stay in float32
in every mode.

``prefill``, ``decode_step`` and ``teacher_forced_logits`` all run one
block loop (``_forward``), and every block one attention function
(``_attend``).  It takes heads in groups that fit a fixed score budget:
one stacked matmul forms a group's scores, the softmax runs in place on
them, and one stacked matmul forms the group's output.  Every head keeps
the GEMM shapes of a single-head product, so the bits are those of a loop
over single heads.

Weight initialization is fully pinned (see ``rng``): a single normal stream
seeded from the config seed is consumed in this order, each matrix row-major
in its stored [out, in] layout:

    token embedding [vocab, d_model], then per layer:
    attn_q, attn_k, attn_v, attn_out  [d_model, d_model]
    mlp_gate, mlp_up  [ffn_hidden, d_model], mlp_down  [d_model, ffn_hidden]

scaled by 0.02 and cast to float32.  Norm gains initialize to one and draw
nothing.

Weight file layout (all little-endian): magic ``MXQW``, version u32, config
digest u64, the config block (vocab_size, d_model, n_layers, n_heads,
head_dim, ffn_hidden, max_seq_len as u32; rope_base f64; seed u64; a
``head_dim`` other than ``d_model / n_heads`` is rejected on load), then
every tensor as float32 row-major in the order listed above with the two
norm gains of each layer preceding their sublayer and the final norm gain
last.  The table ``_WEIGHT_SCHEMA`` is the single source of both orders:
``init_model``, ``save_model`` and ``load_model`` all walk it.  The digest
is FNV-1a 64 over the config block and is echoed in cache transfer blobs.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass, make_dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, ContextOverflowError
from .quantizer import QuantizedTensor, quantize, quantize_rows
from .gemm import qgemm_rows
from .rng import normal_chunks

RMSNORM_EPS = np.float32(1e-6)
WEIGHT_FILE_MAGIC = b"MXQW"
WEIGHT_FILE_VERSION = 1
# The weight file header (magic, version, config digest) and the config
# block that follows it, field by field as in the module docstring.
_FILE_HEADER = struct.Struct("<4sIQ")
_CONFIG_BLOCK = struct.Struct("<IIIIIII d Q")


class Precision(Enum):
    HIGH = "high"
    NVFP4 = "nvfp4"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    max_seq_len: int
    seed: int
    ffn_hidden: int = 0
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.ffn_hidden == 0:
            object.__setattr__(self, "ffn_hidden", 4 * self.d_model)
        self.validate()

    @property
    def head_dim(self) -> int:
        """Width of one attention head, ``d_model / n_heads``."""
        return self.d_model // self.n_heads

    def validate(self):
        if self.vocab_size < 1 or self.n_layers < 1 or self.n_heads < 1:
            raise ConfigError("vocab_size, n_layers, n_heads must be positive")
        if self.max_seq_len < 1:
            raise ConfigError("max_seq_len must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model must be divisible by n_heads")
        for name in ("d_model", "head_dim", "ffn_hidden"):
            value = getattr(self, name)
            if value < 16 or value % 16 != 0:
                raise ConfigError(f"{name} must be a positive multiple of 16")
        if not (self.rope_base > 0 and math.isfinite(self.rope_base)):
            raise ConfigError("rope_base must be positive and finite")

    def config_block(self) -> bytes:
        return _CONFIG_BLOCK.pack(
            self.vocab_size,
            self.d_model,
            self.n_layers,
            self.n_heads,
            self.head_dim,
            self.ffn_hidden,
            self.max_seq_len,
            self.rope_base,
            self.seed & 0xFFFFFFFFFFFFFFFF,
        )

    def digest(self) -> int:
        return fnv1a64(self.config_block())

    @classmethod
    def from_config_block(cls, block: bytes) -> "ModelConfig":
        """Inverse of ``config_block``; rejects a stored ``head_dim`` other
        than ``d_model / n_heads``."""
        vocab, d, nl, nh, hd, ffn, msl, rope, seed = _CONFIG_BLOCK.unpack(block)
        cfg = cls(
            vocab_size=vocab,
            d_model=d,
            n_layers=nl,
            n_heads=nh,
            ffn_hidden=ffn,
            max_seq_len=msl,
            rope_base=rope,
            seed=seed,
        )
        if hd != cfg.head_dim:
            raise ConfigError(f"stored head_dim {hd} is not d_model / n_heads")
        return cfg


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# The weight schema, the single source of the stream and file order: every
# tensor as (field, shape, draws normals).  Shapes name config sizes: "v"
# vocab_size, "d" d_model, "f" ffn_hidden.  The first entry and the last are
# fields of ModelWeights; the entries between them are fields of
# LayerWeights and repeat once per layer.
_WEIGHT_SCHEMA = (
    ("embedding", "vd", True),
    ("attn_norm_gain", "d", False),
    ("attn_q", "dd", True),
    ("attn_k", "dd", True),
    ("attn_v", "dd", True),
    ("attn_out", "dd", True),
    ("mlp_norm_gain", "d", False),
    ("mlp_gate", "fd", True),
    ("mlp_up", "fd", True),
    ("mlp_down", "df", True),
    ("final_norm_gain", "d", False),
)
_LAYER_SCHEMA = _WEIGHT_SCHEMA[1:-1]

LayerWeights = make_dataclass(
    "LayerWeights", [(name, np.ndarray) for name, _, _ in _LAYER_SCHEMA],
    namespace={"__module__": __name__,
               "__doc__": "One block's tensors, as listed in ``_WEIGHT_SCHEMA``."},
)


def _layout(cfg: ModelConfig) -> list:
    """``(layer index or None, field, shape, draws normals)`` for every
    tensor of a model, in stream and file order."""
    dims = {"v": cfg.vocab_size, "d": cfg.d_model, "f": cfg.ffn_hidden}
    entries = [(None, *_WEIGHT_SCHEMA[0])]
    entries += [(i, *e) for i in range(cfg.n_layers) for e in _LAYER_SCHEMA]
    entries.append((None, *_WEIGHT_SCHEMA[-1]))
    return [(i, name, tuple(dims[c] for c in shape), normal)
            for i, name, shape, normal in entries]


class ModelWeights:
    """Immutable-after-construction weights plus lazily built 4-bit shadows."""

    def __init__(self, config: ModelConfig, embedding: np.ndarray,
                 layers: list, final_norm_gain: np.ndarray):
        self.config = config
        self.embedding = embedding
        self.layers = layers
        self.final_norm_gain = final_norm_gain
        self._shadows: dict = {}
        self._shadow_lock = threading.Lock()

    def shadow(self, layer_idx: int, name: str) -> QuantizedTensor:
        """Quantized copy of one projection matrix, built once and cached
        together with its block-scale fold (``QuantizedTensor.folded_t``)."""
        key = (layer_idx, name)
        with self._shadow_lock:
            qt = self._shadows.get(key)
            if qt is None:
                qt = quantize(getattr(self.layers[layer_idx], name))
                qt.folded_t()
                self._shadows[key] = qt
            return qt


def _assemble(cfg: ModelConfig, tensors: list) -> ModelWeights:
    """``ModelWeights`` from its tensors in ``_layout`` order."""
    n = len(_LAYER_SCHEMA)
    layers = [LayerWeights(*tensors[1 + i * n : 1 + (i + 1) * n])
              for i in range(cfg.n_layers)]
    return ModelWeights(cfg, tensors[0], layers, tensors[-1])


def init_model(config: ModelConfig) -> ModelWeights:
    """Deterministic weights from the config seed (see module docstring)."""
    layout = _layout(config)
    total = sum(math.prod(shape) for _, _, shape, normal in layout if normal)
    stream = np.empty(total, dtype=np.float32)
    pos = 0
    for chunk in normal_chunks(config.seed, total):
        chunk *= 0.02
        stream[pos : pos + chunk.size] = chunk  # float64 -> float32, nearest
        pos += chunk.size
    tensors, pos = [], 0
    for _, _, shape, normal in layout:
        if normal:
            size = math.prod(shape)
            tensors.append(stream[pos : pos + size].reshape(shape))
            pos += size
        else:
            tensors.append(np.ones(shape, dtype=np.float32))
    return _assemble(config, tensors)


class KvCache:
    """Per-layer key/value tensors in float32, single writer per sequence."""

    def __init__(self, config: ModelConfig):
        self.config = config
        shape = (config.max_seq_len, config.n_heads, config.head_dim)
        self.keys = [np.zeros(shape, dtype=np.float32) for _ in range(config.n_layers)]
        self.values = [np.zeros(shape, dtype=np.float32) for _ in range(config.n_layers)]
        self.length = 0


@dataclass
class AttentionRecord:
    """Post-softmax attention rows for one query position.

    ``rows`` is [n_layers, n_heads, seq_len]; each row sums to one.
    """

    query_position: int
    rows: np.ndarray


@dataclass
class PrefillResult:
    kv: KvCache
    logits: np.ndarray
    attention: Optional[AttentionRecord] = None


def _rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    ms = np.mean(x * x, axis=-1, keepdims=True)
    return x * (np.float32(1.0) / np.sqrt(ms + RMSNORM_EPS)) * gain


def _rope_tables(cfg: ModelConfig, positions: np.ndarray):
    half = cfg.head_dim // 2
    inv_freq = cfg.rope_base ** (-np.arange(half, dtype=np.float64) * 2.0 / cfg.head_dim)
    ang = positions[:, None].astype(np.float64) * inv_freq[None, :]
    cos = np.concatenate([np.cos(ang), np.cos(ang)], axis=1).astype(np.float32)
    sin = np.concatenate([np.sin(ang), np.sin(ang)], axis=1).astype(np.float32)
    return cos, sin


def _apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    # x: [P, H, Dh]; pairs (i, i + Dh/2) rotate together.
    half = x.shape[-1] // 2
    rotated = np.concatenate([-x[..., half:], x[..., :half]], axis=-1)
    return x * cos[:, None, :] + rotated * sin[:, None, :]


def _linears(x: np.ndarray, names: tuple, precision: Precision,
             weights: ModelWeights, layer_idx: int) -> list:
    """``x @ W.T`` for each projection ``W`` of the layer named in ``names``.

    At 4 bits ``x`` is quantized once and that activation (and its cached
    fold) feeds every product; per-projection quantization gives the same
    codes, so every bit is the same.
    """
    if precision is Precision.HIGH:
        layer = weights.layers[layer_idx]
        return [x @ getattr(layer, name).T for name in names]
    act = quantize_rows(x)
    return [qgemm_rows(act, weights.shadow(layer_idx, name)) for name in names]


def forward_block(
    weights: ModelWeights,
    layer_idx: int,
    x: np.ndarray,
    kv: KvCache,
    precision: Precision,
    attn_record_row: Optional[np.ndarray] = None,
    own_diagonal: bool = False,
) -> np.ndarray:
    """One pre-norm residual block over a chunk of hidden states.

    The start position is not passed but derived: the chunk's rows are the
    positions from ``kv.length`` on (which only advances once the caller
    has run every layer, so all layers of one chunk see the same start).
    Writes this layer's K/V at those positions; reads keys up to the chunk
    end with a causal mask.  If ``attn_record_row`` is given (shape
    [n_heads, chunk end]) the post-softmax rows of the chunk's last
    position are stored into it.  A chunk that would end past
    ``max_seq_len`` raises ``ContextOverflowError`` before any write.

    With ``own_diagonal`` the rows are the positions from 0 on, the cache
    is read-only context and the rows do not see each other: the row at
    position q attends to the cache entries before q and to its own K/V at
    q, as if it were a decode step on a cache holding exactly those q
    entries.  The cache must then hold every position before the chunk's
    last, and nothing is written to it.
    """
    cfg = weights.config
    layer = weights.layers[layer_idx]
    p = x.shape[0]
    pos0 = 0 if own_diagonal else kv.length
    total = pos0 + p
    if own_diagonal and kv.length < total - 1:
        raise ValueError(
            f"rows up to position {total - 1} need {total - 1} context "
            f"entries but the cache holds {kv.length}"
        )
    if total > cfg.max_seq_len:
        raise ContextOverflowError(
            f"position {total - 1} exceeds max_seq_len {cfg.max_seq_len}",
            position=total - 1,
        )
    positions = np.arange(pos0, total)
    cos, sin = _rope_tables(cfg, positions)

    h = _rmsnorm(x, layer.attn_norm_gain)
    q, k, v = _linears(h, ("attn_q", "attn_k", "attn_v"), precision, weights,
                       layer_idx)
    q = _apply_rope(q.reshape(p, cfg.n_heads, cfg.head_dim), cos, sin)
    k = _apply_rope(k.reshape(p, cfg.n_heads, cfg.head_dim), cos, sin)
    v = v.reshape(p, cfg.n_heads, cfg.head_dim)

    if own_diagonal:  # own K/V stay out of the read-only cache
        end, own = total - 1, (k, v)
    else:
        kv.keys[layer_idx][pos0:total] = k
        kv.values[layer_idx][pos0:total] = v
        end, own = total, None
    attn_out = _attend(q, kv.keys[layer_idx][:end], kv.values[layer_idx][:end],
                       positions, own, attn_record_row)
    (proj,) = _linears(attn_out.reshape(p, cfg.d_model), ("attn_out",),
                       precision, weights, layer_idx)
    x = x + proj

    h = _rmsnorm(x, layer.mlp_norm_gain)
    gate, up = _linears(h, ("mlp_gate", "mlp_up"), precision, weights, layer_idx)
    act = gate * (np.float32(1.0) / (np.float32(1.0) + np.exp(-gate))) * up
    (down,) = _linears(act, ("mlp_down",), precision, weights, layer_idx)
    return x + down


# Score buffer of one head group: as many heads as fit their [p, T]
# float32 scores in it, at least one.  So it holds at most 2 MiB, or one
# head's scores where those alone are larger.  A loop over single heads
# holds up to four [p, T] arrays at once, so once one head's scores reach
# 512 KiB the peak is no higher than that loop's.  Budgets of 0.5-4 MiB
# timed alike from decode to L = 640.
_SCORE_BYTES = 2 << 20


def _attend(q: np.ndarray, keys: np.ndarray, vals: np.ndarray,
            positions: np.ndarray, own: Optional[tuple] = None,
            record: Optional[np.ndarray] = None) -> np.ndarray:
    """Causal softmax attention, head group by head group; returns
    [p, n_heads, head_dim].

    The queries ``q`` sit at the contiguous ``positions``; each row reads
    the ``keys``/``vals`` entries up to its own position.  With ``own`` =
    ``(k, v)`` of the chunk (rows from position 0, entries ending before the
    last row's), a row's own key scores its diagonal column and its own
    value takes that column's weight.  ``record`` [n_heads, positions[-1] +
    1], if given, receives the last row's probabilities.

    A group's scores are one stacked ``np.matmul`` into one [g, p, T]
    buffer, its output one stacked ``probs @ V``.  Each gives every head
    the same BLAS call a single-head product makes: the same shape (m = p,
    k = head_dim, then m = p, k = T), the same operand strides, and the
    gemv path at p = 1.  Scale, mask, max, exp, sum and divide run in place
    on the buffer: elementwise, or along each contiguous score row, so
    every op sees the values and order a single head's would.  Every
    output bit is that of a loop over single heads.
    """
    p, n_heads, head_dim = q.shape
    total = int(positions[-1]) + 1
    scale = np.float32(1.0 / math.sqrt(head_dim))
    group = min(n_heads, max(1, _SCORE_BYTES // (4 * p * total)))
    scores = np.empty((group, p, total), dtype=np.float32)
    # a single row sits at the last position and sees every entry
    masked = np.arange(total)[None, :] > positions[:, None] if p > 1 else None
    out = np.empty((p, n_heads, head_dim), dtype=np.float32)
    q_h, k_h = q.transpose(1, 0, 2), keys.transpose(1, 2, 0)
    v_h, out_h = vals.transpose(1, 0, 2), out.transpose(1, 0, 2)
    if own is not None:
        rows = np.arange(p)
        own_scores = (q * own[0]).sum(axis=-1).T
        own_v = own[1].transpose(1, 0, 2)
    for h0 in range(0, n_heads, group):
        heads = slice(h0, h0 + group)
        s = scores[: min(group, n_heads - h0)]
        if own is None:
            np.matmul(q_h[heads], k_h[heads], out=s)
        else:
            np.matmul(q_h[heads], k_h[heads], out=s[:, :, :-1])
            s[:, rows, positions] = own_scores[heads]
        s *= scale
        if masked is not None:
            np.copyto(s, np.float32(-np.inf), where=masked)
        s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        if record is not None:
            record[heads] = s[:, -1]
        if own is None:
            np.matmul(s, v_h[heads], out=out_h[heads])
        else:
            own_probs = s[:, rows, positions]
            s[:, rows[:-1], positions[:-1]] = 0
            np.matmul(s[:, :, :-1], v_h[heads], out=out_h[heads])
            out_h[heads] += own_probs[:, :, None] * own_v[heads]
    return out


def _forward(
    weights: ModelWeights,
    tokens,
    kv: KvCache,
    precision: Precision,
    own_diagonal: bool = False,
    record: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run ``tokens`` through every block; returns each row's logits.

    Without ``own_diagonal`` the tokens are the next positions after
    ``kv.length``: their K/V entries are written and ``kv.length`` advances.
    With it, see ``teacher_forced_logits``.  ``record``
    [n_layers, n_heads, chunk end], if given, receives the last row's
    post-softmax attention in every layer.
    """
    cfg = weights.config
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.ndim != 1 or toks.size == 0:
        raise ValueError("tokens must be a non-empty 1-D sequence")
    if toks.min() < 0 or toks.max() >= cfg.vocab_size:
        raise ValueError("token id outside vocabulary")
    x = weights.embedding[toks]
    for li in range(cfg.n_layers):
        x = forward_block(weights, li, x, kv, precision,
                          None if record is None else record[li],
                          own_diagonal=own_diagonal)
    if not own_diagonal:
        kv.length += toks.size
    return _rmsnorm(x, weights.final_norm_gain) @ weights.embedding.T


def prefill(
    weights: ModelWeights,
    tokens,
    precision: Precision,
    kv: Optional[KvCache] = None,
    record_attention: bool = False,
) -> PrefillResult:
    """Causal pass over a prompt (or appended prompt chunk).

    Writes float32 KV entries regardless of precision and returns the
    logits at the final processed position.  ``record_attention`` captures
    the post-softmax rows of the final position in every layer and head.
    """
    cfg = weights.config
    kv = KvCache(cfg) if kv is None else kv
    shape = (cfg.n_layers, cfg.n_heads, kv.length + np.size(tokens))
    record = np.zeros(shape, dtype=np.float32) if record_attention else None
    logits = _forward(weights, tokens, kv, precision, record=record)
    attention = AttentionRecord(kv.length - 1, record) if record_attention else None
    return PrefillResult(kv=kv, logits=logits[-1], attention=attention)


def decode_step(
    weights: ModelWeights, kv: KvCache, token: int, precision: Precision
) -> np.ndarray:
    """Single-position forward appending one KV entry; returns logits."""
    return _forward(weights, [token], kv, precision)[0]


def teacher_forced_logits(
    weights: ModelWeights, tokens, context: KvCache, precision: Precision
) -> np.ndarray:
    """Logits of every row of ``tokens`` as a decode step on its context.

    Row j is the decode step of ``tokens[j]`` at position j, at
    ``precision``, over a cache holding the first j entries of ``context``:
    it attends to those and to its own K/V.  So one pass over n tokens
    gives what n separate ``decode_step`` calls would, on caches cut from a
    single prompt pass over the first n - 1 tokens.  ``context`` must hold
    at least n - 1 entries and is not written.  Returns [n, vocab] logits.
    """
    return _forward(weights, tokens, context, precision, own_diagonal=True)


def save_model(weights: ModelWeights, path: str):
    cfg = weights.config
    with open(path, "wb") as fh:
        fh.write(_FILE_HEADER.pack(WEIGHT_FILE_MAGIC, WEIGHT_FILE_VERSION,
                                   cfg.digest()))
        fh.write(cfg.config_block())
        for layer_idx, name, _, _ in _layout(cfg):
            owner = weights if layer_idx is None else weights.layers[layer_idx]
            fh.write(getattr(owner, name).astype("<f4").tobytes())


def load_model(path: str) -> ModelWeights:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != WEIGHT_FILE_MAGIC:
        raise ValueError("not a model weight file")
    _, version, stored_digest = _FILE_HEADER.unpack_from(data)
    if version != WEIGHT_FILE_VERSION:
        raise ValueError(f"unsupported weight file version {version}")
    off = _FILE_HEADER.size + _CONFIG_BLOCK.size
    cfg = ModelConfig.from_config_block(data[_FILE_HEADER.size : off])
    if cfg.digest() != stored_digest:
        raise ValueError("config digest mismatch in weight file")

    tensors = []
    for _, _, shape, _ in _layout(cfg):
        count = math.prod(shape)
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=off)
        tensors.append(arr.astype(np.float32).reshape(shape))
        off += 4 * count
    if off != len(data):
        raise ValueError("trailing bytes in weight file")
    return _assemble(cfg, tensors)
