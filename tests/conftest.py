import contextlib
import functools
import math

import numpy as np
import pytest

from phasequant import formats, model, rng
from phasequant.errors import NonFiniteError, ShapeMismatchError
from phasequant.model import KvCache, ModelConfig, decode_step, init_model, prefill
from phasequant.quantizer import GROUP_SIZE, TensorScalePolicy


def toy_config(seed=0, **overrides):
    params = dict(
        vocab_size=64,
        d_model=32,
        n_layers=2,
        n_heads=2,
        max_seq_len=96,
        ffn_hidden=64,
        seed=seed,
    )
    params.update(overrides)
    return ModelConfig(**params)


@functools.lru_cache(maxsize=32)
def _cached_weights(key):
    seed, overrides = key
    return init_model(toy_config(seed, **dict(overrides)))


def toy_weights(seed=0, **overrides):
    return _cached_weights((seed, tuple(sorted(overrides.items()))))


@pytest.fixture
def weights():
    return toy_weights(0)


def u64_stream(seed, count):
    """First ``count`` outputs of the ``phasequant.rng`` stream, vectorised."""
    return rng._u64_block(seed, 0, count)


def uniform_stream(seed, count):
    """First ``count`` uniforms of the stream: each output's top 53 bits."""
    return (u64_stream(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def normal_stream(seed, count):
    """First ``count`` standard normals of the stream, as float64: the
    chunks of ``rng.normal_chunks`` joined."""
    return np.concatenate([np.empty(0), *rng.normal_chunks(seed, count)])


def whole_normal_stream(seed, count):
    """Oracle: the first ``count`` normals of the stream in one whole-array
    Box-Muller pass (see ``phasequant.rng``), as float64."""
    pairs = (count + 1) // 2
    u = uniform_stream(seed, 2 * pairs)
    u1 = u[0::2]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(angle)
    out[1::2] = r * np.sin(angle)
    return out[:count]


def full_forward_logits(weights, tokens, precision):
    """One-shot causal pass over a whole sequence, as ``prefill`` runs it;
    logits at every position."""
    return model._forward(weights, tokens, KvCache(weights.config), precision)


def per_head_attend(q, keys, vals, positions, own=None, record=None):
    """Oracle: ``model._attend`` as one loop over single heads, the form it
    had before head groups.  Same arguments and result."""
    p, n_heads, head_dim = q.shape
    total = int(positions[-1]) + 1
    scale = np.float32(1.0 / math.sqrt(head_dim))
    allowed = np.arange(total)[None, :] <= positions[:, None]
    rows = np.arange(p)
    out = np.empty((p, n_heads, head_dim), dtype=np.float32)
    for hidx in range(n_heads):
        qh = q[:, hidx, :]
        if own is None:
            scores = (qh @ keys[:, hidx, :].T) * scale
        else:
            scores = np.empty((p, total), dtype=np.float32)
            scores[:, :-1] = qh @ keys[:, hidx, :].T
            scores[rows, positions] = (qh * own[0][:, hidx, :]).sum(axis=-1)
            scores *= scale
        scores = np.where(allowed, scores, np.float32(-np.inf))
        scores = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        probs = e / e.sum(axis=-1, keepdims=True)
        if record is not None:
            record[hidx] = probs[-1]
        if own is None:
            out[:, hidx, :] = probs @ vals[:, hidx, :]
        else:
            own_probs = probs[rows, positions]
            context = probs[:, :-1]
            context[rows[:-1], positions[:-1]] = 0
            out[:, hidx, :] = (context @ vals[:, hidx, :]
                               + own_probs[:, None] * own[1][:, hidx, :])
    return out


def drop_shadows(weights):
    """Forget every cached 4-bit weight shadow and its fold."""
    with weights._shadow_lock:
        weights._shadows.clear()


def rel_logits_err(a, b):
    """max |a-b| relative to the magnitude scale of b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-30))


def scale_after_qgemm(a, w):
    """Independent kernel oracle: the scale-after-inner-product route.

    Per block, the inner product of the raw 4-bit grid values (exact in any
    order), then times both block scales, accumulated in ascending block
    order in float32; the tensor scales multiply once at the end, row i by
    ``float32(row_scale_i * w.tensor_scale)``.  ``a`` is a
    ``QuantizedTensor`` (one shared scale, repeated per row) or a
    ``RowQuantizedActivation`` (one scale per row).
    """
    m, k = a.codes.shape
    n = w.codes.shape[0]
    g = 16
    a_vals = formats.decode_fp4(a.codes)
    w_vals = formats.decode_fp4(w.codes)
    sa = formats.decode_e4m3(a.block_scales)
    sw = formats.decode_e4m3(w.block_scales)
    acc = np.zeros((m, n), dtype=np.float32)
    for b in range(k // g):
        lo = b * g
        inner = a_vals[:, lo : lo + g] @ w_vals[:, lo : lo + g].T
        acc += inner * np.outer(sa[:, b], sw[:, b])
    return (a.row_scales * np.float32(w.tensor_scale))[:, None] * acc


# Midpoints between adjacent 4-bit magnitudes, exact in binary64.
FP4_MIDS = (formats.FP4_VALUES[:7].astype(np.float64) + formats.FP4_VALUES[1:8]) / 2.0


def round_to_magnitude_grid(mag, mids):
    """Index of the nearest magnitude, ties toward even (mantissa-0) index.

    ``mids`` are the exact midpoints of an ascending magnitude grid whose
    entries alternate mantissa parity starting even, so at any midpoint the
    even-mantissa neighbour is the even index.
    """
    idx = np.searchsorted(mids, mag, side="left")
    at_mid = (idx < mids.size) & (mag == mids[np.minimum(idx, mids.size - 1)])
    idx = idx + (at_mid & (idx % 2 == 1))
    return idx


def searchsorted_encode_fp4(x):
    """Oracle: the ``searchsorted`` route ``encode_fp4`` took before its
    midpoint comparisons: float64 magnitudes clamped at 6, then the index
    of the nearest magnitude over ``FP4_MIDS``, ties to even."""
    v = np.asarray(x).astype(np.float64)
    mag = np.minimum(np.abs(v), formats.FP4_MAX)
    idx = round_to_magnitude_grid(mag, FP4_MIDS)
    return np.where(np.signbit(v), idx + 8, idx).astype(np.uint8)


def searchsorted_encode_e4m3(x):
    """Oracle: the route ``encode_e4m3`` took before its bit-pattern
    rounding.  Float64 magnitudes clamped at 448, then the index of the
    nearest of the 127 finite magnitudes by ``searchsorted`` over their
    exact midpoints, ties to the even (mantissa-0) index."""
    v = np.asarray(x).astype(np.float64)
    mags = formats.E4M3_VALUES[:127].astype(np.float64)
    mids = (mags[:-1] + mags[1:]) / 2.0
    mag = np.minimum(np.abs(v), formats.E4M3_MAX)
    idx = round_to_magnitude_grid(mag, mids)
    return np.where(np.signbit(v), idx + 128, idx).astype(np.uint8)


def exact_scale_quantize(x):
    """Oracle: two-level quantization with unrounded block scales.

    The tensor scale is calibrated as ``max|x| / (6 * 448)`` (1.0 for an
    all-zero matrix); each block's scale is the float32 real
    ``max|block| / (tensor_scale * 6)``.  Elements are scaled as
    ``(x / max|block|) * 6`` so no scaled magnitude exceeds 6.  Returns the
    4-bit codes and the per-block float32 combined factors
    ``tensor_scale * block_scale``; zero blocks get codes 0 and factor 0.
    """
    arr = np.asarray(x, dtype=np.float32)
    rows, cols = arr.shape
    blocks = arr.reshape(rows, cols // 16, 16)
    amax = np.abs(arr).max()
    alpha = np.float32(amax) / np.float32(6 * 448) if amax else np.float32(1)
    bmax = np.abs(blocks).max(axis=2)
    combined = alpha * (bmax / (alpha * np.float32(6)))
    safe = np.where(bmax == 0, np.float32(1), bmax)[:, :, None]
    codes = np.asarray(formats.encode_fp4((blocks / safe) * np.float32(6)))
    codes[np.broadcast_to((bmax == 0)[:, :, None], codes.shape)] = 0
    return codes.reshape(rows, cols), combined


# The two-pass ``quantize_rows`` route the one-pass quantizer replaced,
# kept verbatim as its bitwise oracle: ``_blocks`` and ``_encode`` check and
# round through the public encoders, and ``fold_blocks`` folds afresh.

_SCALE_DENOM = np.float32(formats.FP4_MAX * formats.E4M3_MAX)  # 2688


def _blocks(x):
    """``x`` checked and viewed as float32 rows x nblocks x 16, and the
    ``max|x|`` of each block.

    The block max is reduced across the rows of a transposed copy: numpy is
    several times slower reducing a 16-wide inner axis, and a max is exact
    either way.
    """
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim != 2:
        raise ShapeMismatchError("expected a 2-D matrix")
    rows, cols = arr.shape
    if cols % GROUP_SIZE != 0:
        raise ShapeMismatchError(
            f"columns ({cols}) not divisible by group size ({GROUP_SIZE})"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteError("matrix entries must be finite")
    blocks = arr.reshape(rows, cols // GROUP_SIZE, GROUP_SIZE)
    mag_t = np.ascontiguousarray(np.abs(arr).reshape(-1, GROUP_SIZE).T)
    return blocks, np.maximum.reduce(mag_t, axis=0).reshape(blocks.shape[:2])


def _tensor_scales(amax: np.ndarray, policy: TensorScalePolicy) -> np.ndarray:
    """Tensor scale for each float32 ``max|x|`` in ``amax``.

    Calibrated: ``amax / (6 * 448)``, or 1.0 where that is 0: an all-zero
    tensor, or one so small (``amax`` at most ``2688 * 2**-150``, about
    1.9e-42) that the quotient underflows.  Every block of such a tensor then encodes as dead.
    Unit: always 1.0.
    """
    if policy is TensorScalePolicy.UNIT:
        return np.ones_like(amax)
    scales = amax / _SCALE_DENOM
    return np.where(scales == 0, np.float32(1.0), scales)


def _encode(blocks: np.ndarray, bmax: np.ndarray, alphas: np.ndarray):
    """4-bit codes (rows x cols) and 8-bit block-scale codes of ``blocks``,
    with ``alphas[i]`` the tensor scale of row ``i``.

    Block scale code: ``round(max|block| / (alpha * 6))``.  Element code:
    ``round(x / (alpha * block_scale))``; a block whose combined factor is 0
    gets code 0 throughout.
    """
    rows, nblocks, g = blocks.shape
    ratios = bmax / (alphas[:, None] * np.float32(formats.FP4_MAX))
    scale_codes = np.asarray(formats.encode_e4m3(ratios), dtype=np.uint8)
    combined = alphas[:, None] * formats.decode_e4m3(scale_codes)
    dead = combined == 0
    safe = np.where(dead, np.float32(1.0), combined)[:, :, None]
    codes = np.asarray(formats.encode_fp4(blocks / safe))
    codes[dead] = 0
    return codes.reshape(rows, nblocks * g), scale_codes


def fold_blocks(codes: np.ndarray, block_scales: np.ndarray) -> np.ndarray:
    """``decode_fp4(code) * block_scale`` per element, as float32.

    Exact when the block scales are on the 8-bit grid: a 4-bit value has at
    most 2 significand bits and an 8-bit scale at most 4, so their product
    fits float32 (and the smallest, ``0.5 * 2**-9``, is a normal number).
    """
    rows, cols = codes.shape
    values = formats.decode_fp4(codes).reshape(rows, cols // GROUP_SIZE, GROUP_SIZE)
    values *= block_scales[:, :, None]  # in place: decode_fp4 returns a new array
    return values.reshape(rows, cols)


def two_pass_quantize(x, policy=TensorScalePolicy.AMAX_CALIBRATED):
    """Oracle: ``quantize`` by the two-pass route; the codes, the
    block-scale codes and the tensor scale."""
    blocks, bmax = _blocks(x)
    alpha = np.float32(_tensor_scales(bmax.max(initial=np.float32(0)), policy))
    codes, scale_codes = _encode(blocks, bmax, np.full(len(blocks), alpha))
    return codes, scale_codes, alpha


def two_pass_quantize_rows(x, policy=TensorScalePolicy.AMAX_CALIBRATED):
    """Oracle: ``quantize_rows`` as two passes, the codes first and the
    fold from them afterwards.  Returns the codes, the block-scale codes,
    the row scales and the fold."""
    blocks, bmax = _blocks(x)
    alphas = _tensor_scales(bmax.max(axis=1, initial=np.float32(0)), policy)
    codes, scale_codes = _encode(blocks, bmax, alphas)
    return codes, scale_codes, alphas, fold_blocks(
        codes, formats.decode_e4m3(scale_codes))


@pytest.fixture
def identity_quantizer(monkeypatch):
    """``with identity_quantizer():`` runs the 4-bit path as exact float32
    matmuls, the branch ``model._linears`` takes for high precision."""
    linears = model._linears

    def high(x, names, precision, *rest):
        return linears(x, names, model.Precision.HIGH, *rest)

    @contextlib.contextmanager
    def active():
        with monkeypatch.context() as patch:
            patch.setattr(model, "_linears", high)
            yield

    return active


def per_token_perplexity(weights, mode, corpus):
    """Oracle: teacher-forced perplexity with a fresh prompt pass per token.

    For each scored token x_t the context x_1..x_{t-2} runs through the
    prompt pass at the mode's prefill precision and the immediately
    preceding token x_{t-1} through a decode step at its decode precision.
    """
    total_nll = 0.0
    scored = 0
    for seq in corpus:
        seq = [int(t) for t in seq]
        if len(seq) > weights.config.max_seq_len:
            raise ValueError("corpus sequence exceeds the model context")
        for t in range(1, len(seq)):
            if t == 1:
                kv = KvCache(weights.config)
            else:
                kv = prefill(weights, seq[: t - 1], mode.prefill_precision).kv
            logits = decode_step(weights, kv, seq[t - 1], mode.decode_precision)
            shifted = logits - logits.max()
            logprob = shifted[seq[t]] - np.log(np.exp(shifted).sum())
            total_nll += -float(logprob)
            scored += 1
    if scored == 0:
        raise ValueError("corpus has no scorable positions")
    return float(np.exp(total_nll / scored))
