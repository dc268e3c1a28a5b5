import contextlib
import functools

import numpy as np
import pytest

from phasequant import formats, model
from phasequant.model import KvCache, ModelConfig, decode_step, init_model, prefill
from phasequant.rng import uniform_stream


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
    order in float32; the tensor scales multiply once at the end.  ``a`` is
    a ``QuantizedTensor`` (one shared scale, as ``qgemm``) or a
    ``RowQuantizedActivation`` (one scale per row, as ``qgemm_rows``).
    """
    m, k = a.codes.shape
    n = w.codes.shape[0]
    g = a.group_size
    a_vals = formats.decode_fp4(a.codes)
    w_vals = formats.decode_fp4(w.codes)
    sa = formats.decode_e4m3(a.block_scales)
    sw = formats.decode_e4m3(w.block_scales)
    acc = np.zeros((m, n), dtype=np.float32)
    for b in range(k // g):
        lo = b * g
        inner = a_vals[:, lo : lo + g] @ w_vals[:, lo : lo + g].T
        acc += inner * np.outer(sa[:, b], sw[:, b])
    if hasattr(a, "row_scales"):
        return (a.row_scales * np.float32(w.tensor_scale))[:, None] * acc
    return (np.float32(a.tensor_scale) * np.float32(w.tensor_scale)) * acc


def searchsorted_encode_e4m3(x):
    """Oracle: the route ``encode_e4m3`` took before its bit-pattern
    rounding.  Float64 magnitudes clamped at 448, then the index of the
    nearest of the 127 finite magnitudes by ``searchsorted`` over their
    exact midpoints, ties to the even (mantissa-0) index."""
    v = np.asarray(x).astype(np.float64)
    mags = formats.E4M3_VALUES[:127].astype(np.float64)
    mids = (mags[:-1] + mags[1:]) / 2.0
    mag = np.minimum(np.abs(v), formats.E4M3_MAX)
    idx = formats._round_to_magnitude_grid(mag, mids)
    return np.where(np.signbit(v), idx + 128, idx).astype(np.uint8)


def exact_scale_quantize(x, group_size=16):
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
    blocks = arr.reshape(rows, cols // group_size, group_size)
    amax = np.abs(arr).max()
    alpha = np.float32(amax) / np.float32(6 * 448) if amax else np.float32(1)
    bmax = np.abs(blocks).max(axis=2)
    combined = alpha * (bmax / (alpha * np.float32(6)))
    safe = np.where(bmax == 0, np.float32(1), bmax)[:, :, None]
    codes = np.asarray(formats.encode_fp4((blocks / safe) * np.float32(6)))
    codes[np.broadcast_to((bmax == 0)[:, :, None], codes.shape)] = 0
    return codes.reshape(rows, cols), combined


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
