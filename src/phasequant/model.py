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
(``_attend``).  A pass computes only what it hands on: every block runs
every row up to its K/V write, and the last block carries a count of
rows past it (``keep``: every row, the last, or none), whose logits the
pass returns.  ``prefill`` checks the whole prompt, then runs it as
near-equal chunks of at most ``_PREFILL_CHUNK`` rows on one cache, so
the activations alive at once are a chunk's, not the prompt's; within a
block each is dropped once read.  Its last chunk keeps the last row (or
every row, if the caller asks for every row's logits), a chunk before it
no row; teacher forcing keeps every row.
Attention runs causally over 128-key tiles aligned to absolute key
positions.  A row reads only the tiles that hold keys before its own
position (within the first tile, only as many columns as the chunk
needs), and its score against its own key is a separate dot
product, so a decode step and a teacher-forced row see their own K/V the
same way.  Within a tile the score product, the exponentials and the
contiguous tile sum follow one fixed rule; the tiles' sums and ``P @ V``
products are then added in ascending key order.  So a row's attention bits
depend only on its own keys: a prefix prefill, a chunked prefill, a longer
prefill, a decode step (one row, ``_attend_row``) and a teacher-forced row
agree bitwise.  Every attention product is a GEMM with no dimension of 1
(a decode row's query goes in twice), since a one-row product takes BLAS's
gemv path, whose bits differ.  The 4-bit linears are row-invariant too, so
on the 4-bit path so are the K/V and hidden states, and a prefill's logits
are the decode step's of its last token.  Float32 linears are not:
``np.matmul`` of a one- or two-row input takes other BLAS paths than a
longer one.  The cache keeps keys and values head-major, and the query's
rotary tables carry attention's 1/sqrt(head_dim).

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
last; a file of any other length than its config implies, or holding a
value that is not finite, is rejected on load.  The table ``_WEIGHT_SCHEMA`` is the single source of both orders:
``init_model``, ``save_model`` and ``load_model`` all walk it.  The digest
is FNV-1a 64 over the config block and is echoed in cache transfer blobs.
"""

from __future__ import annotations

import functools
import math
import struct
import threading
from dataclasses import dataclass, make_dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, ContextOverflowError
from .quantizer import GROUP_SIZE, QuantizedTensor, quantize, quantize_rows
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
            if value < GROUP_SIZE or value % GROUP_SIZE != 0:
                raise ConfigError(
                    f"{name} must be a positive multiple of {GROUP_SIZE}")
        if not (self.rope_base > 0 and math.isfinite(self.rope_base)):
            raise ConfigError("rope_base must be positive and finite")

    def config_block(self) -> bytes:
        """The config as the weight file stores it; raises ConfigError for
        a size its u32 field cannot hold."""
        try:
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
        except struct.error as exc:
            raise ConfigError(f"config field out of range: {exc}") from None

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


def _dims(cfg: ModelConfig, shape: str) -> tuple:
    """A schema shape in the config's sizes."""
    sizes = {"v": cfg.vocab_size, "d": cfg.d_model, "f": cfg.ffn_hidden}
    return tuple(sizes[c] for c in shape)


def _layout(cfg: ModelConfig) -> list:
    """``(layer index or None, field, shape, draws normals)`` for every
    tensor of a model, in stream and file order."""
    entries = [(None, *_WEIGHT_SCHEMA[0])]
    entries += [(i, *e) for i in range(cfg.n_layers) for e in _LAYER_SCHEMA]
    entries.append((None, *_WEIGHT_SCHEMA[-1]))
    return [(i, name, _dims(cfg, shape), normal)
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


def _float_count(cfg: ModelConfig, normals_only: bool = False) -> int:
    """Floats in every tensor of a model, or in those that draw normals,
    from the schema: the layout of n_layers up to 2**32 - 1 is not built
    before that many are known to fit."""
    floats = [math.prod(_dims(cfg, shape)) if normal or not normals_only else 0
              for _, shape, normal in _WEIGHT_SCHEMA]
    return floats[0] + floats[-1] + cfg.n_layers * sum(floats[1:-1])


def init_model(config: ModelConfig) -> ModelWeights:
    """Deterministic weights from the config seed (see module docstring)."""
    total = _float_count(config, normals_only=True)
    stream = np.empty(total, dtype=np.float32)
    pos = 0
    for chunk in normal_chunks(config.seed, total):
        chunk *= 0.02
        stream[pos : pos + chunk.size] = chunk  # float64 -> float32, nearest
        pos += chunk.size
    tensors, pos = [], 0
    for _, _, shape, normal in _layout(config):
        if normal:
            size = math.prod(shape)
            tensors.append(stream[pos : pos + size].reshape(shape))
            pos += size
        else:
            tensors.append(np.ones(shape, dtype=np.float32))
    return _assemble(config, tensors)


# Attention reads keys in tiles of this many positions, aligned to position 0.
_TILE = 128

# A prompt pass runs in near-equal chunks of at most this many rows, which
# bounds the activations alive at once.  A prompt of more rows gets chunks
# of at least 128, never a short remainder: a float32 product of a row or
# two takes BLAS's narrow-input paths, whose bits differ.  Caps of 128 to
# 512 rows timed alike on the 4-bit prompt pass.
_PREFILL_CHUNK = 256


def _key_width(keys: int) -> int:
    """Key columns attention computes to cover the first ``keys`` keys:
    whole tiles, or within the first tile a multiple of 16, at least 32.
    Cutting a tile's masked columns so keeps its bits: a contiguous float32
    sum over its first 8j columns equals the sum over all of them, and on
    OpenBLAS neither GEMM changes an element at these widths, for head_dim
    4 to 128.  (Other multiples of 8 changed some at head_dim 32 and up,
    and widths 8 to 24 some at head_dim 8, 24 and 40.)"""
    if keys <= _TILE:
        return max(32, -(-keys // 16) * 16)
    return -(-keys // _TILE) * _TILE


def _kv_store(rows: int, n_heads: int, head_dim: int) -> tuple:
    """Zeroed float32 keys and values, each [rows, n_heads, head_dim], as
    views of head-major arrays: keys [n_heads, head_dim, rows], values
    [n_heads, rows, head_dim].  Each head's keys and values are then one
    contiguous matrix for attention's products, which on OpenBLAS makes a
    decode row's score product about 2.5 times and its ``P @ V`` about 1.7
    times faster than over the [rows, n_heads * head_dim] layout."""
    keys = np.zeros((n_heads, head_dim, rows), dtype=np.float32)
    values = np.zeros((n_heads, rows, head_dim), dtype=np.float32)
    return keys.transpose(2, 0, 1), values.transpose(1, 0, 2)


class KvCache:
    """Per-layer key/value tensors in float32, single writer per sequence.

    ``keys[layer]`` and ``values[layer]`` are [rows, n_heads, head_dim],
    where ``rows`` covers ``max_seq_len`` in whole attention widths
    (``_key_width``), so attention reads every tile it needs in place.
    Entries from ``length`` on are finite filler that attention masks.
    Both are views of head-major arrays (``_kv_store``).
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        rows = _key_width(config.max_seq_len)
        stores = [_kv_store(rows, config.n_heads, config.head_dim)
                  for _ in range(config.n_layers)]
        self.keys = [keys for keys, _ in stores]
        self.values = [values for _, values in stores]
        self.length = 0


@dataclass
class PrefillResult:
    """A prompt pass's cache and logits; with ``record_attention``, the
    final position's post-softmax attention rows, [n_layers, n_heads,
    seq_len], each summing to one."""

    kv: KvCache
    logits: np.ndarray
    attention: Optional[np.ndarray] = None


def _rmsnorm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # np.mean's bits, without its Python-level wrapper (a third of a
    # decode-row call): a float32 sum, then a division that rounds once
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / np.float32(x.shape[-1])
    return x * (np.float32(1.0) / np.sqrt(ms + RMSNORM_EPS)) * gain


@functools.lru_cache(maxsize=16)
def _rope_table(cfg: ModelConfig, scale: float = 1.0):
    """Rotary cos and sin of every position below ``max_seq_len``, times
    ``scale``, each [max_seq_len, head_dim] float32 and read-only; a chunk
    slices its rows.  Each entry depends only on its position, so a slice
    has the bits of a table built for those positions alone.  The query's
    tables carry attention's 1/sqrt(head_dim), so the rotation scales it
    too."""
    half = cfg.head_dim // 2
    inv_freq = cfg.rope_base ** (-np.arange(half, dtype=np.float64) * 2.0 / cfg.head_dim)
    ang = np.arange(cfg.max_seq_len, dtype=np.float64)[:, None] * inv_freq[None, :]
    tables = []
    for fn in (np.cos, np.sin):
        table = np.concatenate([fn(ang), fn(ang)], axis=1).astype(np.float32)
        table *= np.float32(scale)
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


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
    keep: Optional[int] = None,
) -> Optional[np.ndarray]:
    """One pre-norm residual block over a chunk of hidden states; returns
    the hidden state of the rows it keeps (``keep``), or None if it keeps
    none.

    The start position is not passed but derived: the chunk's rows are the
    positions from ``kv.length`` on (which only advances once the caller
    has run every layer, so all layers of one chunk see the same start).
    Writes this layer's K/V at those positions; each row attends to the
    cache entries before it and to its own K/V.  If ``attn_record_row`` is
    given (shape [n_heads, chunk end]) the post-softmax rows of the chunk's
    last position are stored into it.  A chunk that would end past
    ``max_seq_len`` raises ``ContextOverflowError`` before any write.

    With ``own_diagonal`` the rows are the positions from 0 on, the cache
    is read-only context and the rows do not see each other: the row at
    position q attends to the cache entries before q and to its own K/V at
    q, as if it were a decode step on a cache holding exactly those q
    entries.  The cache must then hold every position before the chunk's
    last, and nothing is written to it.

    ``keep`` counts the rows the block carries past its K/V write: every
    row (None), or the chunk's last ``keep`` rows, whose attention (over
    the cache just written), ``attn_out`` and MLP run on those rows alone.
    Their bits are those of the same rows of the all-rows block wherever a
    narrower product keeps them: attention and the 4-bit linears do,
    float32 matmuls need not.  With ``keep`` 0 the block stops at its K/V
    write, and its k and v projections are its only products.

    Each activation is released once read (the normed input, q/k/v, the
    attention output, the projections), and the MLP gate works in one
    buffer, so the block holds few chunk-sized arrays at once.  The
    linears' outputs are not written in place.
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
    _check_fits(cfg, total)
    q_rope, k_rope = ([table[pos0:total] for table in _rope_table(cfg, scale)]
                      for scale in (1.0 / math.sqrt(cfg.head_dim), 1.0))

    h = _rmsnorm(x, layer.attn_norm_gain)
    if keep == 0:
        k, v = _linears(h, ("attn_k", "attn_v"), precision, weights, layer_idx)
    else:
        q, k, v = _linears(h, ("attn_q", "attn_k", "attn_v"), precision,
                           weights, layer_idx)
    del h
    k = _apply_rope(k.reshape(p, cfg.n_heads, cfg.head_dim), *k_rope)
    v = v.reshape(p, cfg.n_heads, cfg.head_dim)

    if not own_diagonal:
        kv.keys[layer_idx][pos0:total] = k
        kv.values[layer_idx][pos0:total] = v
    if keep == 0:
        return None
    q = _apply_rope(q.reshape(p, cfg.n_heads, cfg.head_dim), *q_rope)
    if keep is not None:
        q, k, v, x = q[-keep:], k[-keep:], v[-keep:], x[-keep:]
        pos0, p = total - keep, keep
    attn = _attend(q, k, v, kv.keys[layer_idx], kv.values[layer_idx], pos0,
                   attn_record_row)
    del q, k, v
    (proj,) = _linears(attn.reshape(p, cfg.d_model), ("attn_out",),
                       precision, weights, layer_idx)
    del attn
    x = x + proj
    del proj

    h = _rmsnorm(x, layer.mlp_norm_gain)
    gate, up = _linears(h, ("mlp_gate", "mlp_up"), precision, weights, layer_idx)
    del h
    # gate * (1 / (1 + exp(-gate))) * up, each step in place in that order,
    # so the bits are the expression's
    act = np.negative(gate)
    np.exp(act, out=act)
    act += np.float32(1.0)
    np.divide(np.float32(1.0), act, out=act)
    act *= gate
    act *= up
    del gate, up
    (down,) = _linears(act, ("mlp_down",), precision, weights, layer_idx)
    del act
    return x + down


# Score buffer of one head group: as many heads as fit the scores of the
# largest row block in it, at least one.  So it holds at most 2 MiB, or
# one head's block scores where those alone are larger.
_SCORE_BYTES = 2 << 20

# Causal bias of the key tiles a row block masks, from the first tile any
# of its rows masks: row i (the row at offset i from that tile's start)
# gets -inf from column i on, so its tile scores stop before its own
# position (its own score comes apart).  A block's rows sit at offsets
# below 130 and it masks at most two tiles.  Adding 0 leaves a score's
# bits unchanged.  Built from zeros by per-row fills, which peak 128 KB
# lower in resident memory than a ``np.where`` over index arrays.
_CAUSAL_BIAS = np.zeros((_TILE + 2, 2 * _TILE), dtype=np.float32)
for _row in range(_TILE + 2):
    _CAUSAL_BIAS[_row, _row:] = -np.inf
_CAUSAL_BIAS.flags.writeable = False
del _row


def _row_blocks(pos0: int, p: int) -> list:
    """``(start, stop)`` row ranges of a chunk of ``p`` >= 2 rows from
    position ``pos0``.  A block starts at each row one past a tile
    boundary, so its rows need the same key tiles, unless that would leave
    a block of one row: ``np.matmul`` sends a one-row product down BLAS's
    gemv path, whose bits differ from a GEMM's.  Blocks hold at most 130
    rows."""
    first = (1 - pos0) % _TILE
    starts = range(first if first >= 2 else first + _TILE, p - 1, _TILE)
    edges = [0, *starts, p]
    return list(zip(edges[:-1], edges[1:]))


def _attention_plan(pos0: int, p: int) -> tuple:
    """``(blocks, head_bytes)`` of ``_attend`` for ``p`` >= 2 rows from
    ``pos0``: the row blocks, and the bytes of one head's scores in the
    largest of them (its rows by its key width).  A head group holds
    ``_SCORE_BYTES // head_bytes`` heads."""
    blocks = _row_blocks(pos0, p)
    most_rows = max(b - a for a, b in blocks)
    return blocks, 4 * most_rows * _key_width(pos0 + p - 1)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, keys: np.ndarray,
            vals: np.ndarray, pos0: int,
            record: Optional[np.ndarray] = None) -> np.ndarray:
    """Causal softmax attention over 128-key tiles; returns
    [p, n_heads, head_dim].

    Row i of the queries ``q``, already scaled by ``1/sqrt(head_dim)``
    (``forward_block`` folds that into the query's rotary tables), sits at
    position ``pos0 + i`` and attends to the ``keys``/``vals`` entries
    before that position and to its own key ``k[i]`` and value ``v[i]``.
    ``keys`` and ``vals``, laid out as ``_kv_store`` makes them, hold at
    least ``_key_width(pos0 + p - 1)`` entries; entries from a row's
    position on are read but masked, and must be finite.  ``record``
    [n_heads, pos0 + p], if given, receives the last row's probabilities.

    The rule for one row, the same in every path:
    - its own score is the sum over ``q * k`` along ``head_dim``;
    - the scores against each tile of keys before it are one GEMM tile
      (k = head_dim), later keys get -inf;
    - the max over all of them and the own score shifts them, then exp;
    - the denominator is each tile's contiguous 128-wide sum, the tiles
      added in ascending order, then the own exponential;
    - the numerator is each tile's ``P @ V`` (a k = 128 GEMM), the tiles
      added in ascending order, then the own exponential times ``v[i]``;
    - the output is numerator over denominator.
    A tile wholly at or after a row's position adds nothing to it (its
    probabilities are 0), so it is skipped where the row blocks allow, and
    within the first tile only ``_key_width`` columns are computed.
    OpenBLAS gives a GEMM element the same bits at these k and key widths
    whatever the other dimensions, as long as none is 1 (the
    length-invariance tests check the consequence).  So a row's bits
    depend only on its own keys.

    A single row (a decode step) goes to ``_attend_row``.  More rows go in
    blocks (``_row_blocks``), heads in groups that fit the score budget.
    A block's scores for a head group are one stacked matmul into one
    [heads, rows, keys] buffer, on which the softmax runs in place; its
    ``P @ V`` is one stacked matmul over (head, tile) pairs.
    """
    p, n_heads, head_dim = q.shape
    if p == 1:
        return _attend_row(q, k, v, keys, vals, pos0, record)
    own = np.add.reduce(q * k, axis=-1).T
    q_h = q.transpose(1, 0, 2)
    k_h, v_h = keys.transpose(1, 2, 0), vals.transpose(1, 0, 2)
    out = np.empty_like(q)
    blocks, head_bytes = _attention_plan(pos0, p)
    group = min(n_heads, max(1, _SCORE_BYTES // head_bytes))
    buf = np.empty(group * head_bytes // 4, dtype=np.float32)
    for a, b in blocks:
        rows = b - a
        n = _key_width(pos0 + b - 1)
        tile = min(n, _TILE)
        n_tiles = n // tile
        c0 = (pos0 + a) // _TILE * _TILE  # first tile any row masks
        bias = _CAUSAL_BIAS[pos0 + a - c0 : pos0 + b - c0, : n - c0]
        v_tiles = v_h[:, :n].reshape(n_heads, n_tiles, tile, head_dim)
        for h0 in range(0, n_heads, group):
            heads = slice(h0, h0 + group)
            g = min(group, n_heads - h0)
            s = buf[: g * rows * n].reshape(g, rows, n)
            np.matmul(q_h[heads, a:b], k_h[heads, :, :n], out=s)
            s[:, :, c0:] += bias
            shift = np.maximum(np.fmax.reduce(s, axis=-1), own[heads, a:b])
            s -= shift[..., None]
            np.exp(s, out=s)
            own_e = np.exp(own[heads, a:b] - shift)
            if n_tiles == 1:
                den = np.add.reduce(s, axis=-1)
                acc = np.matmul(s, v_tiles[heads, 0])
            else:  # a reduce over the leading axis adds the tiles in key order
                sums = np.empty((n_tiles, g, rows), dtype=np.float32)
                np.add.reduce(s.reshape(g, rows, n_tiles, tile), axis=-1,
                              out=sums.transpose(1, 2, 0))
                pv = np.empty((n_tiles, g, rows, head_dim), dtype=np.float32)
                np.matmul(s.reshape(g, rows, n_tiles, tile).transpose(0, 2, 1, 3),
                          v_tiles[heads], out=pv.transpose(1, 0, 2, 3))
                den, acc = np.add.reduce(sums, axis=0), np.add.reduce(pv, axis=0)
            den += own_e
            acc += own_e[..., None] * v[a:b, heads].transpose(1, 0, 2)
            if record is not None and b == p:
                last = pos0 + p - 1
                record[heads, :last] = s[:, -1, :last] / den[:, -1, None]
                record[heads, last] = own_e[:, -1] / den[:, -1]
            np.divide(acc, den[..., None], out=out[a:b, heads].transpose(1, 0, 2))
    return out


def _attend_row(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                keys: np.ndarray, vals: np.ndarray, t: int,
                record: Optional[np.ndarray]) -> np.ndarray:
    """``_attend`` of the one row at position ``t`` (a decode step): the
    same rule in one pass over every head, without the row blocks, causal
    bias and head groups whose bookkeeping costs a decode row more than
    its arithmetic.  Both products are the two-row GEMMs of the query row
    and a copy of it, and the own exponential is added after the tile
    sums, as in ``_attend``."""
    _, n_heads, head_dim = q.shape
    n = _key_width(t)
    tile = min(n, _TILE)
    n_tiles = n // tile
    # row 1, a copy of the query row, pads both products to GEMMs (a
    # one-row product takes BLAS's gemv path, whose bits differ) and is
    # never read; column n holds the own score
    scores = np.zeros((2, n_heads, n + 1), dtype=np.float32)
    np.matmul(np.concatenate((q, q)).transpose(1, 0, 2),
              keys.transpose(1, 2, 0)[:, :, :n],
              out=scores[:, :, :n].transpose(1, 0, 2))
    s = scores[0]
    s[:, t:n] = -np.inf
    np.add.reduce(q[0] * k[0], axis=-1, out=s[:, n])
    s -= np.fmax.reduce(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    own_e = s[:, n]
    probs, v_h = scores[:, :, :n].transpose(1, 0, 2), vals.transpose(1, 0, 2)[:, :n]
    if n_tiles == 1:
        den = np.add.reduce(s[:, :n], axis=-1)
        acc = np.empty((2, n_heads, head_dim), dtype=np.float32)
        np.matmul(probs, v_h, out=acc.transpose(1, 0, 2))
        acc = acc[0]
    else:  # a reduce over the leading axis adds the tiles in key order
        sums = np.empty((n_tiles, n_heads), dtype=np.float32)
        np.add.reduce(s[:, :n].reshape(n_heads, n_tiles, tile), axis=-1,
                      out=sums.T)
        pv = np.empty((n_tiles, 2, n_heads, head_dim), dtype=np.float32)
        np.matmul(probs.reshape(n_heads, 2, n_tiles, tile).transpose(0, 2, 1, 3),
                  v_h.reshape(n_heads, n_tiles, tile, head_dim),
                  out=pv.transpose(2, 0, 1, 3))
        den, acc = np.add.reduce(sums, axis=0), np.add.reduce(pv[:, 0], axis=0)
    den += own_e
    acc += own_e[:, None] * v[0]
    if record is not None:
        record[:, :t] = s[:, :t] / den[:, None]
        record[:, t] = own_e / den
    return np.divide(acc, den[:, None], out=acc)[None]


def _check_fits(cfg: ModelConfig, end: int) -> None:
    """Raise ``ContextOverflowError`` if positions up to ``end`` - 1 do not
    fit ``max_seq_len``."""
    if end > cfg.max_seq_len:
        raise ContextOverflowError(
            f"position {end - 1} exceeds max_seq_len {cfg.max_seq_len}",
            position=end - 1,
        )


def check_context(config: ModelConfig, prompt_len: int, max_new_tokens: int):
    """Raise ``ContextOverflowError`` unless a prompt of ``prompt_len``
    tokens and ``max_new_tokens`` generated ones fit ``max_seq_len``: the
    prompt's last position first, then the last one a generated token is
    fed back at.  The last generated token is never fed back, so it takes
    no position."""
    _check_fits(config, prompt_len)
    _check_fits(config, prompt_len + max(max_new_tokens - 1, 0))


def _token_ids(cfg: ModelConfig, tokens) -> np.ndarray:
    """``tokens`` as int64 ids, checked: a non-empty 1-D sequence of ids
    inside the vocabulary."""
    try:
        toks = np.asarray(tokens, dtype=np.int64)
    except OverflowError:  # an id past int64 is past the vocabulary too
        raise ValueError("token id outside vocabulary") from None
    if toks.ndim != 1 or toks.size == 0:
        raise ValueError("tokens must be a non-empty 1-D sequence")
    if toks.min() < 0 or toks.max() >= cfg.vocab_size:
        raise ValueError("token id outside vocabulary")
    return toks


def _forward(
    weights: ModelWeights,
    tokens,
    kv: KvCache,
    precision: Precision,
    own_diagonal: bool = False,
    record: Optional[np.ndarray] = None,
    keep: Optional[int] = None,
) -> Optional[np.ndarray]:
    """Run ``tokens`` through every block; returns the logits of the rows
    the last block keeps (``keep``, as in ``forward_block``), or None if it
    keeps none: every block before it computes every row.

    Without ``own_diagonal`` the tokens are the next positions after
    ``kv.length``: their K/V entries are written and ``kv.length``
    advances.  With ``own_diagonal``, see ``teacher_forced_logits``.
    ``record`` [n_layers, n_heads, chunk end], if given, receives the last
    row's post-softmax attention in every layer.
    """
    cfg = weights.config
    toks = _token_ids(cfg, tokens)
    x = weights.embedding[toks]
    for li in range(cfg.n_layers):
        x = forward_block(weights, li, x, kv, precision,
                          None if record is None else record[li],
                          own_diagonal=own_diagonal,
                          keep=keep if li == cfg.n_layers - 1 else None)
    if not own_diagonal:
        kv.length += toks.size
    if keep == 0:
        return None
    return _rmsnorm(x, weights.final_norm_gain) @ weights.embedding.T


def prefill(
    weights: ModelWeights,
    tokens,
    precision: Precision,
    kv: Optional[KvCache] = None,
    record_attention: bool = False,
    every_row: bool = False,
) -> PrefillResult:
    """Causal pass over a prompt (or appended prompt chunk).

    Writes float32 KV entries regardless of precision and returns the
    logits at the final processed position.  The whole prompt is checked
    first (ids, and room in the cache), so a refused prompt writes
    nothing.  The prompt then runs as near-equal chunks of at most
    ``_PREFILL_CHUNK`` rows, one ``_forward`` each on the same cache,
    which bounds the activations alive at once by the chunk, not the
    prompt; a row's K/V and logits keep their one-shot bits.  The last
    block of the last chunk keeps the final row (``_forward``'s ``keep``)
    and that of a chunk before it no row, so on the 4-bit path the logits
    are bitwise the decode step of the final token on a cache holding the
    others.  With ``every_row`` the last block of every chunk keeps every
    row and the logits are [n, vocab], the chunks' rows in order: row j
    predicts the token after ``tokens[j]``.  From an empty cache they are
    bitwise ``teacher_forced_logits`` of the same tokens on the cache this
    pass writes, and on the 4-bit path, whose K/V are row-invariant, also
    on the cache of a prefill of all but the last token.
    ``record_attention`` captures the post-softmax rows of the final
    position in every layer and head (the last chunk fills it) as the
    result's ``attention``.
    """
    cfg = weights.config
    kv = KvCache(cfg) if kv is None else kv
    toks = _token_ids(cfg, tokens)
    end = kv.length + toks.size
    _check_fits(cfg, end)
    record = (np.zeros((cfg.n_layers, cfg.n_heads, end), dtype=np.float32)
              if record_attention else None)
    count = -(-toks.size // _PREFILL_CHUNK)
    edges = [toks.size * i // count for i in range(count + 1)]
    logits = [_forward(weights, toks[a:b], kv, precision,
                       record=record if b == toks.size else None,
                       keep=None if every_row else int(b == toks.size))
              for a, b in zip(edges, edges[1:])]
    return PrefillResult(
        kv=kv, logits=np.concatenate(logits) if every_row else logits[-1][0],
        attention=record)


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
    head = _FILE_HEADER.pack(WEIGHT_FILE_MAGIC, WEIGHT_FILE_VERSION,
                             cfg.digest()) + cfg.config_block()
    with open(path, "wb") as fh:  # opened once the header has packed
        fh.write(head)
        for layer_idx, name, _, _ in _layout(cfg):
            owner = weights if layer_idx is None else weights.layers[layer_idx]
            fh.write(getattr(owner, name).astype("<f4").tobytes())


def load_model(path: str) -> ModelWeights:
    with open(path, "rb") as fh:
        data = fh.read()
    off = _FILE_HEADER.size + _CONFIG_BLOCK.size
    if len(data) < off or data[:4] != WEIGHT_FILE_MAGIC:
        raise ValueError("not a model weight file")
    _, version, stored_digest = _FILE_HEADER.unpack_from(data)
    if version != WEIGHT_FILE_VERSION:
        raise ValueError(f"unsupported weight file version {version}")
    cfg = ModelConfig.from_config_block(data[_FILE_HEADER.size : off])
    if cfg.digest() != stored_digest:
        raise ValueError("config digest mismatch in weight file")
    size = off + 4 * _float_count(cfg)
    if len(data) != size:
        raise ValueError(f"weight file is {len(data)} bytes, not {size}")

    tensors = []
    for layer, name, shape, _ in _layout(cfg):
        count = math.prod(shape)
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=off)
        if not np.isfinite(arr).all():  # one error here, not one per forward
            where = name if layer is None else f"layer {layer} {name}"
            raise ValueError(f"weight file tensor {where} is not finite")
        tensors.append(arr.astype(np.float32).reshape(shape))
        off += 4 * count
    return _assemble(cfg, tensors)
