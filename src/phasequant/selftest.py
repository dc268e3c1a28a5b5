"""Fast oracle-backed self checks, one pass/fail line per suite.

A condensed version of the property suites in the test tree, runnable from
the command line without a test framework.  Each suite compares the
implementation against an independent oracle (exhaustive grid search,
float64 products, a monolithic generation run) on seeded random data.
"""

from __future__ import annotations

import io
from unittest import mock

import numpy as np

from . import analysis, disagg, formats
from . import gemm as qg
from . import model
from . import quantizer as qz
from .engine import ExecutionMode, SamplerSpec, generate, render_trajectory
from .model import AttentionRecord, ModelConfig, init_model, prefill


def nearest_fp4_oracle(x) -> np.ndarray:
    """Exhaustive 16-point nearest-grid search with the even-mantissa tie
    rule; 4-bit codes of ``x`` as a 1-D uint8 array (scalars included)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    mags = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
    v = np.clip(np.abs(x), 0.0, 6.0)
    dist = np.abs(v[:, None] - mags[None, :])
    tied = dist == dist.min(axis=1, keepdims=True)
    # ties are always between adjacent grid points; prefer mantissa bit 0
    pick = np.where(tied, np.arange(8) % 2, 2)
    idx = np.argmin(pick, axis=1)
    return np.where(np.signbit(x), idx + 8, idx).astype(np.uint8)


def _suite_formats() -> bool:
    codes = np.arange(16, dtype=np.uint8)
    if not np.array_equal(formats.encode_fp4(formats.decode_fp4(codes)), codes):
        return False
    ok_codes = np.array([c for c in range(256) if not formats.E4M3_IS_NAN[c]],
                        dtype=np.uint8)
    if not np.array_equal(
        formats.encode_e4m3(formats.decode_e4m3(ok_codes)), ok_codes
    ):
        return False
    rng = np.random.default_rng(7)
    x = rng.uniform(-9.0, 9.0, size=100_000).astype(np.float32)
    return bool(np.array_equal(formats.encode_fp4(x), nearest_fp4_oracle(x)))


def _suite_quantizer() -> bool:
    row = np.full((1, 16), 3.0, dtype=np.float32)
    cfg = qz.QuantConfig(policy=qz.TensorScalePolicy.UNIT)
    qt = qz.quantize(row, cfg)
    if float(formats.decode_e4m3(qt.block_scales)[0, 0]) != 0.5:
        return False
    if not np.all(formats.decode_fp4(qt.codes) == 6.0):
        return False
    if not np.all(qz.dequantize(qt) == 3.0):
        return False
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 64)).astype(np.float32)
    q1 = qz.quantize(x, cfg)
    q2 = qz.quantize(qz.dequantize(q1), cfg)
    if not (
        np.array_equal(q1.codes, q2.codes)
        and np.array_equal(q1.block_scales, q2.block_scales)
        and q1.tensor_scale == q2.tensor_scale
    ):
        return False
    # quantize_rows: each row as quantize alone, and the fold it carries
    # equal to a fold of its codes; with a dead block and a -0.0 row.
    x[2, 16:32] *= np.float32(1e-30)
    x[5] = -0.0
    rq = qz.quantize_rows(x)
    for i in range(len(x)):
        one, row = qz.quantize(x[i : i + 1]), rq.row(i)
        if (one.codes.tobytes() != row.codes.tobytes()
                or one.block_scales.tobytes() != row.block_scales.tobytes()
                or one.tensor_scale.tobytes() != row.tensor_scale.tobytes()):
            return False
    fold = qz.fold_blocks(rq.codes, formats.decode_e4m3(rq.block_scales))
    return rq.folded().tobytes() == fold.tobytes()


def _suite_qgemm() -> bool:
    rng = np.random.default_rng(13)
    for _ in range(20):
        m, n = rng.integers(1, 9, size=2)
        k = 16 * int(rng.integers(1, 9))
        a = qz.quantize(rng.normal(size=(m, k)).astype(np.float32))
        w = qz.quantize(rng.normal(size=(n, k)).astype(np.float32))
        got = qg.qgemm(a, w)
        if not np.array_equal(got, qg.qgemm_mirror(a, w)):
            return False
        ref = qg.reference_gemm(qz.dequantize(a), qz.dequantize(w))
        scale = max(np.abs(ref).max(), 1e-30)
        if np.abs(got - ref).max() / scale > 1e-5:
            return False
    return True


def _toy_model(seed: int):
    cfg = ModelConfig(
        vocab_size=64, d_model=32, n_layers=1, n_heads=2, max_seq_len=64,
        ffn_hidden=64, seed=seed,
    )
    return init_model(cfg)


def _suite_identity_collapse() -> bool:
    weights = _toy_model(3)
    prompt = [1, 5, 9, 2]
    sampler = SamplerSpec(max_new_tokens=8)
    # The quantizer as the identity: the 4-bit path runs the float32 matmuls.
    linears = model._linears
    with mock.patch.object(model, "_linears", lambda x, names, _, *rest:
                           linears(x, names, model.Precision.HIGH, *rest)):
        dumps = {
            mode: render_trajectory(generate(weights, prompt, mode, sampler))
            for mode in ExecutionMode
        }
    texts = {d.split("\n", 1)[1] for d in dumps.values()}
    return len(texts) == 1


def _suite_disagg() -> bool:
    weights = _toy_model(5)
    prompt = [2, 4, 6]
    result = prefill(weights, prompt, ExecutionMode.MIX_QUANT.prefill_precision)
    blob = disagg.serialize_kv(result.kv, weights.config.digest(), prompt)
    parsed = disagg.deserialize_kv(blob)
    for layer in range(weights.config.n_layers):
        if not np.array_equal(parsed.keys[layer], result.kv.keys[layer][:3]):
            return False
    corrupted = bytearray(blob)
    corrupted[len(corrupted) // 2] ^= 0x40
    try:
        disagg.deserialize_kv(bytes(corrupted))
    except disagg.BlobIntegrityError:
        return True
    return False


def _suite_attention() -> bool:
    # A 4-bit prefix prefill's K/V are the first rows of a longer prefill's,
    # bit for bit, within the narrowed first tile and on both sides of the
    # 128-key tile boundaries.
    weights = init_model(ModelConfig(
        vocab_size=64, d_model=32, n_layers=2, n_heads=2, max_seq_len=300,
        ffn_hidden=64, seed=9,
    ))
    tokens = [int(t) for t in np.random.default_rng(17).integers(0, 64, 300)]
    full = prefill(weights, tokens, model.Precision.NVFP4).kv
    for length in (1, 2, 50, 127, 128, 129, 257):
        kv = prefill(weights, tokens[:length], model.Precision.NVFP4).kv
        for cache, whole in ((kv.keys, full.keys), (kv.values, full.values)):
            for part, rows in zip(cache, whole):
                if part[:length].tobytes() != rows[:length].tobytes():
                    return False
    # A 4-bit prefill's logits are the decode step of its last token on
    # the cache of the others: its last block runs that row alone.
    for length in (2, 129, 300):
        kv = prefill(weights, tokens[: length - 1], model.Precision.NVFP4).kv
        step = model.decode_step(weights, kv, tokens[length - 1],
                                 model.Precision.NVFP4)
        logits = prefill(weights, tokens[:length], model.Precision.NVFP4).logits
        if logits.tobytes() != step.tobytes():
            return False
    # A decode row (one query) is the matching row of a teacher-forced
    # pass: the BLAS gives a GEMM element the same bits at either shape.
    # Positions in the narrow first tile, at its edge and past it.
    rng = np.random.default_rng(19)
    for head_dim in (16, 32):
        q, k, v, *context = (rng.standard_normal((130, 4, head_dim))
                             .astype(np.float32) for _ in range(5))
        keys, vals = model._kv_store(model._key_width(130), 4, head_dim)
        keys[:130], vals[:130] = context
        forced = model._attend(q, k, v, keys, vals, 0)
        for pos in (0, 33, 127, 128, 129):
            row = slice(pos, pos + 1)
            step = model._attend(q[row], k[row], v[row], keys, vals, pos)
            if step.tobytes() != forced[row].tobytes():
                return False
    return True


def _suite_analysis() -> bool:
    rows = np.full((1, 1, 8), 1.0 / 8.0, dtype=np.float32)
    record = AttentionRecord(query_position=7, rows=rows)
    report = analysis.topk_mass(record, [2, 8])
    if abs(report.mean_per_k[0] - 0.25) > 1e-9:
        return False
    if abs(report.mean_per_k[1] - 1.0) > 1e-6:
        return False
    cfg = ModelConfig(
        vocab_size=16, d_model=32, n_layers=1, n_heads=2, max_seq_len=16,
        ffn_hidden=64, seed=1,
    )
    report = analysis.cost_model(cfg, 8, 4, ExecutionMode.MIX_QUANT, 1.0)
    return report.modeled_prefill_speedup == 1.0


_SUITES = (
    ("formats", _suite_formats),
    ("quantizer", _suite_quantizer),
    ("qgemm", _suite_qgemm),
    ("identity-collapse", _suite_identity_collapse),
    ("disagg", _suite_disagg),
    ("attention", _suite_attention),
    ("analysis", _suite_analysis),
)


def run_selftest(out: io.TextIOBase) -> int:
    failures = 0
    for name, fn in _SUITES:
        try:
            ok = fn()
        except Exception as exc:  # a crashed suite is a failed suite
            out.write(f"FAIL {name} ({exc})\n")
            failures += 1
            continue
        if ok:
            out.write(f"ok {name}\n")
        else:
            out.write(f"FAIL {name}\n")
            failures += 1
    return 0 if failures == 0 else 1
