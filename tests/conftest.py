import contextlib
import functools
import io
import pathlib
import threading
from typing import Callable

import numpy as np
import pytest

from phasequant import disagg, formats, model, rng
from phasequant.errors import NonFiniteError, ShapeMismatchError
from phasequant.model import (KvCache, ModelConfig, decode_step, init_model,
                              prefill, teacher_forced_logits)
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


def normal_stream(seed, count):
    """First ``count`` standard normals of the stream, as float64: the
    chunks of ``rng.normal_chunks`` joined."""
    return np.concatenate([np.empty(0), *rng.normal_chunks(seed, count)])


def whole_normal_stream(seed, count):
    """Oracle: the first ``count`` normals of the stream in one whole-array
    Box-Muller pass (see ``phasequant.rng``), as float64."""
    pairs = (count + 1) // 2
    u = rng.uniforms(seed, 2 * pairs)
    u1 = u[0::2]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(angle)
    out[1::2] = r * np.sin(angle)
    return out[:count]


def final_hidden(weights, tokens, kv, precision, own_diagonal=False,
                 record=None):
    """Oracle: the block loop of ``model._forward`` over every row, every
    block through ``model.forward_block``, without the output head: every
    row's hidden state after the last block.  Without ``own_diagonal`` it
    writes ``kv`` and advances its length.  ``record`` [n_layers, n_heads,
    chunk end], if given, receives the last row's attention in every
    layer."""
    x = weights.embedding[np.asarray(tokens, dtype=np.int64)]
    for layer in range(weights.config.n_layers):
        x = model.forward_block(weights, layer, x, kv, precision,
                                None if record is None else record[layer],
                                own_diagonal=own_diagonal)
    if not own_diagonal:
        kv.length += len(tokens)
    return x


def full_forward_logits(weights, tokens, precision, kv=None, record=None):
    """Oracle: the all-rows causal pass over a whole sequence
    (``final_hidden``, then the output head on every row); logits at every
    position.  ``kv``, if given, is the empty cache the pass writes, and
    ``record`` receives attention as ``prefill`` records it."""
    kv = KvCache(weights.config) if kv is None else kv
    x = final_hidden(weights, tokens, kv, precision, record=record)
    return model._rmsnorm(x, weights.final_norm_gain) @ weights.embedding.T


def cut_cache(kv, length):
    """A fresh cache holding the first ``length`` entries of ``kv``."""
    out = KvCache(kv.config)
    for layer in range(kv.config.n_layers):
        out.keys[layer][:length] = kv.keys[layer][:length]
        out.values[layer][:length] = kv.values[layer][:length]
    out.length = length
    return out


def assert_same_kv(a, b, length):
    """The first ``length`` K/V entries of caches ``a`` and ``b`` are
    bit-equal in every layer."""
    for layer in range(len(a.keys)):
        assert a.keys[layer][:length].tobytes() == b.keys[layer][:length].tobytes()
        assert (a.values[layer][:length].tobytes()
                == b.values[layer][:length].tobytes())


def check_prompt_pass(weights, tokens):
    """Assert what ``prefill`` hands on against the all-rows oracle: its K/V
    bit-equal in both precisions, its float32 logits within 1e-5 of the
    oracle's last row, and its 4-bit logits bit-equal to the decode step of
    the last token on the cache of the others.  Returns the float32
    oracle's logits and the float32 ``prefill`` result."""
    passes = {}
    for prec in model.Precision:
        kv = KvCache(weights.config)
        rows = full_forward_logits(weights, tokens, prec, kv=kv)
        res = prefill(weights, tokens, prec)
        assert res.kv.length == kv.length == len(tokens)
        assert_same_kv(res.kv, kv, len(tokens))
        passes[prec] = rows, res
    rows, res = passes[model.Precision.HIGH]
    assert rel_logits_err(res.logits, rows[-1]) <= 1e-5
    fp4 = passes[model.Precision.NVFP4][1]
    step = decode_step(weights, cut_cache(fp4.kv, len(tokens) - 1),
                       tokens[-1], model.Precision.NVFP4)
    assert fp4.logits.tobytes() == step.tobytes()
    return rows, res


def per_head_attend(q, k, v, keys, vals, pos0, record=None):
    """Oracle: the attention rule of ``model._attend``, one head at a time
    and one key tile at a time.  Same arguments and result.

    Per head, every query row meets every whole 128-key tile up to the
    last row's (rows a tile is masked for get probability 0 there; keys
    past the end of the store are zero filler), the causal mask is an
    explicit comparison of positions, and the own score sits in a column
    of its own.  A single row is padded with a copy of itself, so that no
    product takes the gemv path.
    """
    tile = model._TILE
    p, n_heads, head_dim = q.shape
    own = (q * k).sum(axis=-1)
    positions = np.arange(pos0, pos0 + p)
    last = int(positions[-1])
    n_tiles = max(1, -(-last // tile))
    filler = np.zeros((max(0, n_tiles * tile - len(keys)), n_heads, head_dim),
                      dtype=np.float32)
    keys, vals = np.concatenate((keys, filler)), np.concatenate((vals, filler))
    visible = np.arange(n_tiles * tile)[None, :] < positions[:, None]
    pad = [0] * max(p, 2)  # row 0 again for a single row
    pad[:p] = range(p)
    out = np.empty_like(q)
    for h in range(n_heads):
        qh = q[pad, h, :]
        scores = np.empty((p, n_tiles * tile + 1), dtype=np.float32)
        for t in range(n_tiles):
            cols = slice(t * tile, (t + 1) * tile)
            scores[:, cols] = (qh @ keys[cols, h, :].T)[:p]
        scores[:, :-1][~visible] = -np.inf
        scores[:, -1] = own[:, h]
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        tile_sums = [e[:, t * tile:(t + 1) * tile].sum(axis=1)
                     for t in range(n_tiles)]
        tile_outs = [(e[pad, t * tile:(t + 1) * tile]
                      @ vals[t * tile:(t + 1) * tile, h, :])[:p]
                     for t in range(n_tiles)]
        den, acc = tile_sums[0], tile_outs[0]
        for t in range(1, n_tiles):
            den = den + tile_sums[t]
            acc = acc + tile_outs[t]
        den = den + e[:, -1]
        acc = acc + e[:, -1:] * v[:, h, :]
        out[:, h, :] = acc / den[:, None]
        if record is not None:
            record[h, :last] = e[-1, :last] / den[-1]
            record[h, last] = e[-1, -1] / den[-1]
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


# Half-width of the grid interval enclosing each magnitude index, used by
# reconstruction-error bounds.  Entry i is the largest distance a value
# rounding to magnitude i can have from it (within the non-saturating range).
FP4_HALF_GAPS = np.array(
    [0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 1.0, 1.0], dtype=np.float64
)


def fp4_half_gap(scaled_magnitude) -> np.ndarray:
    """Half-width of the 4-bit grid interval enclosing ``|scaled value|``:
    the entry of ``FP4_HALF_GAPS`` at the magnitude ``encode_fp4`` rounds it
    to, after clamping at 6.  Raises NonFiniteError on NaN."""
    mag = np.minimum(np.abs(np.asarray(scaled_magnitude, dtype=np.float64)), formats.FP4_MAX)
    return FP4_HALF_GAPS[formats.encode_fp4(mag)]


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


def two_pass_perplexity(weights, mode, corpus):
    """Oracle: ``analysis.perplexity`` in its two-pass form in every mode.

    A sequence of n tokens runs a prompt pass over its first n - 2 tokens
    at the mode's prefill precision (none when n = 2), then
    ``teacher_forced_logits`` over its first n - 1 on that cache at its
    decode precision.  The log-probability arithmetic is ``perplexity``'s.
    """
    total_nll = 0.0
    scored = 0
    for seq in corpus:
        seq = [int(t) for t in seq]
        n = len(seq)
        if n < 2:
            continue
        kv = KvCache(weights.config)
        if n > 2:
            kv = prefill(weights, seq[: n - 2], mode.prefill_precision).kv
        logits = teacher_forced_logits(weights, seq[: n - 1], kv,
                                       mode.decode_precision)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logprobs = shifted[np.arange(n - 1), seq[1:]] - np.log(
            np.exp(shifted).sum(axis=-1))
        for logprob in logprobs:
            total_nll += -float(logprob)
        scored += n - 1
    return float(np.exp(total_nll / scored))


def frame_bytes(*frames) -> bytes:
    """The wire bytes of ``frames``: a ``(FrameType, body)`` pair as
    ``FrameStream.write_frame`` writes it, raw ``bytes`` as they are."""
    buf = io.BytesIO()
    out = disagg.FrameStream(buf, buf)
    for frame in frames:
        if isinstance(frame, bytes):
            buf.write(frame)
        else:
            out.write_frame(*frame)
    return buf.getvalue()


def serve_bytes(handler, request: bytes) -> bytes:
    """The reply bytes of a worker ``handler`` run in memory on ``request``."""
    reply = io.BytesIO()
    handler(disagg.FrameStream(io.BytesIO(request), reply))
    return reply.getvalue()


def exchange(handler, *frames) -> list:
    """Run a worker ``handler`` in memory on request ``frames`` (see
    ``frame_bytes``) and return its whole reply as ``(FrameType, body)``
    pairs, read with ``FrameStream.read_frame`` to the last byte."""
    data = serve_bytes(handler, frame_bytes(*frames))
    reply = io.BytesIO(data)
    stream = disagg.FrameStream(reply, reply)
    frames = []
    while reply.tell() < len(data):
        frames.append(stream.read_frame())
    return frames


def lazy_stream(serve: Callable[[bytes], bytes]) -> disagg.FrameStream:
    """A client stream for a one-shot worker: the frames written to it
    collect in memory, and its first read hands them to ``serve``, which
    returns the reply bytes the stream then reads."""
    request = io.BytesIO()

    class Reply:
        reply = None

        def read(self, n):
            if self.reply is None:
                self.reply = io.BytesIO(serve(request.getvalue()))
            return self.reply.read(n)

        def close(self):
            pass

    return disagg.FrameStream(Reply(), request)


def blob_dir_stream(directory, run_worker: Callable[[str], None]):
    """Client stream of the blob-dir transport, the counterpart of
    ``disagg.serve_blob_dir``: its first read writes the request file, runs
    ``run_worker(directory)`` and reads the response file."""
    directory = pathlib.Path(directory)

    def serve(request):
        (directory / disagg.REQUEST_FILE).write_bytes(request)
        run_worker(str(directory))
        return (directory / disagg.RESPONSE_FILE).read_bytes()

    return lazy_stream(serve)


@contextlib.contextmanager
def tcp_worker(handler, connections=1):
    """Serve ``connections`` TCP connections with a worker ``handler`` on a
    thread and yield the worker's address.  Then join the thread, close the
    worker and assert that the thread had ended."""
    worker = disagg.TcpWorker("127.0.0.1", 0, handler)
    closed_early = threading.Event()

    def serve():
        try:
            for _ in range(connections):
                worker.serve_one()
        except OSError:
            # the close below woke a waiting ``accept``: serving is over
            if not closed_early.is_set():
                raise

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        yield worker.address
    except BaseException:
        closed_early.set()
        worker.close()  # wakes a thread still waiting to accept
        raise
    finally:
        thread.join(timeout=10)
        ended = not thread.is_alive()
        worker.close()
    assert ended, "the worker thread did not end"


def worker_pair(weights_p, weights_d, prompt, mode, sampler, tmp_path=None):
    """``disagg.disaggregated_generate`` through a prompt worker on
    ``weights_p`` and a decode worker on ``weights_d``, each at its phase's
    precision in ``mode``: over TCP, or over blob dirs under ``tmp_path``
    if given."""
    handlers = (
        lambda s: disagg.serve_prefill(s, weights_p, mode.prefill_precision),
        lambda s: disagg.serve_decode(s, weights_d, mode.decode_precision),
    )
    if tmp_path is None:
        with tcp_worker(handlers[0]) as pre, tcp_worker(handlers[1]) as dec:
            return disagg.disaggregated_generate(
                prompt, mode, sampler, lambda: disagg.connect_tcp(*pre),
                lambda: disagg.connect_tcp(*dec))
    connects = []
    for name, handler in zip(("pre", "dec"), handlers):
        (tmp_path / name).mkdir()
        run = functools.partial(disagg.serve_blob_dir, handler=handler)
        connects.append(functools.partial(blob_dir_stream, tmp_path / name, run))
    return disagg.disaggregated_generate(prompt, mode, sampler, *connects)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test after which a thread is alive that was not alive before
    it: the thread counterpart of the ``error::ResourceWarning`` filter."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"
