"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 9 checks
the total prefill 4-bit share twice: at the reference geometry it must equal
the closed-form value of exactly 2/3, and the ``>= 0.95`` bound is asserted
at the width where the closed forms say it starts to hold (d = 19L/16), and
shown to fail just below it.
"""

import io
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    check_prompt_pass,
    exact_scale_quantize,
    fp4_half_gap,
    full_forward_logits,
    rel_logits_err,
    scale_after_qgemm,
    toy_weights,
    worker_pair,
)
from phasequant import disagg, formats
from phasequant.analysis import cost_model, topk_mass
from phasequant.cli import main as cli_main
from phasequant.engine import (
    ExecutionMode,
    SamplerSpec,
    generate,
    parse_trajectory_dump,
    render_trajectory,
)
from phasequant.gemm import qgemm, qgemm_mirror, reference_gemm
from phasequant.model import (
    ModelConfig,
    Precision,
    decode_step,
    init_model,
    prefill,
    save_model,
)
from phasequant.quantizer import (
    QuantConfig,
    TensorScalePolicy,
    dequantize,
    quantize,
)
from phasequant.selftest import nearest_fp4_oracle

UNIT = QuantConfig(policy=TensorScalePolicy.UNIT)
AMAX = QuantConfig(policy=TensorScalePolicy.AMAX_CALIBRATED)


def check(number, description, fn):
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {number:02d}: {description}")
        raise
    print(f"PASS criterion {number:02d}: {description}")


def test_criterion_01_format_exactness():
    def run():
        start = time.monotonic()
        lines = formats.format_tables().strip().split("\n")
        assert len(lines) == 16 + 256
        fp4_table = [line.split(",")[1] for line in lines[:16]]
        assert fp4_table == [
            "0.0", "0.5", "1.0", "1.5", "2.0", "3.0", "4.0", "6.0",
            "-0.0", "-0.5", "-1.0", "-1.5", "-2.0", "-3.0", "-4.0", "-6.0",
        ]
        e4m3_table = [line.split(",")[1] for line in lines[16:]]
        nan_codes = [c for c, v in enumerate(e4m3_table) if v == "nan"]
        assert nan_codes == [0x7F, 0xFF]  # exactly one pattern per sign
        finite = [abs(float(v)) for v in e4m3_table if v != "nan"]
        assert max(finite) == 448.0

        rng = np.random.default_rng(20240101)
        x = np.concatenate([
            rng.uniform(-9.0, 9.0, size=500_000),
            rng.normal(scale=3.0, size=500_000),
        ]).astype(np.float32)
        mismatches = int(
            (np.asarray(formats.encode_fp4(x)) != nearest_fp4_oracle(x)).sum()
        )
        assert mismatches == 0
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"

    check(1, "format tables exact; fp4 rounding matches oracle on 1e6 inputs",
          run)


def test_criterion_02_quantizer_properties():
    def run():
        rng = np.random.default_rng(2)
        blocks_seen = 0
        for _ in range(10):
            x = rng.normal(size=(32, 512)).astype(np.float32)
            q1 = quantize(x, UNIT)
            q2 = quantize(dequantize(q1), UNIT)
            assert np.array_equal(q1.codes, q2.codes)
            assert np.array_equal(q1.block_scales, q2.block_scales)
            assert q1.tensor_scale == q2.tensor_scale
            blocks_seen += q1.block_scales.size
        assert blocks_seen >= 10_000

        blocks_seen = 0
        for _ in range(10):
            x = rng.normal(size=(32, 512)).astype(np.float32)
            base = dequantize(quantize(x, AMAX))
            for k in range(-8, 9):
                scaled = (np.float32(2.0**k) * x).astype(np.float32)
                lhs = dequantize(quantize(scaled, AMAX))
                assert np.array_equal(
                    lhs, (np.float32(2.0**k) * base).astype(np.float32)
                )
            blocks_seen += 32 * 32
        assert blocks_seen >= 10_000

        x = rng.normal(size=(64, 256)).astype(np.float32)
        zero_rows = rng.integers(0, 64, size=200)
        zero_blocks = rng.integers(0, 16, size=200)
        for r, b in zip(zero_rows, zero_blocks):
            x[r, 16 * b : 16 * b + 16] = 0.0
        qt = quantize(x, AMAX)
        assert qt.block_scales.size >= 1000
        dq = dequantize(qt)
        for r, b in zip(zero_rows, zero_blocks):
            assert qt.block_scales[r, b] == 0
            assert (qt.codes[r, 16 * b : 16 * b + 16] == 0).all()
            assert (dq[r, 16 * b : 16 * b + 16] == 0.0).all()

        blocks_seen = 0
        for _ in range(10):
            x = (rng.normal(size=(32, 512))
                 * 10 ** rng.uniform(-2, 2)).astype(np.float32)
            codes, combined = exact_scale_quantize(x)
            blocks3 = x.reshape(32, -1, 16)
            bmax = np.abs(blocks3).max(axis=2)
            safe = np.where(bmax == 0, np.float32(1), bmax)
            scaled = (blocks3 / safe[:, :, None]) * np.float32(6.0)
            assert np.abs(scaled).max() <= 6.0  # never clips
            xhat = np.repeat(combined, 16, axis=1) * formats.decode_fp4(codes)
            err = np.abs(x.astype(np.float64) - xhat.astype(np.float64))
            bound = np.repeat(np.abs(combined.astype(np.float64)), 16, axis=1)
            bound *= fp4_half_gap(scaled.reshape(32, -1))
            assert (err <= bound * (1 + 1e-6) + 1e-12).all()
            blocks_seen += bmax.size
        assert blocks_seen >= 10_000

    check(2, "idempotence, pow2 equivariance, zero blocks, half-gap bound",
          run)


def test_criterion_03_worked_example():
    def run():
        row = np.full((1, 16), 3.0, dtype=np.float32)
        qt = quantize(row, UNIT)
        assert float(formats.decode_e4m3(qt.block_scales)[0, 0]) == 0.5
        assert (formats.decode_fp4(qt.codes) == 6.0).all()
        assert (dequantize(qt) == 3.0).all()

    check(3, "all-3.0 block: scale 0.5, codes 6.0, exact reconstruction", run)


def test_criterion_04_gemm_oracles():
    def run():
        rng = np.random.default_rng(4)
        for i in range(1000):
            m = int(rng.integers(1, 65))
            n = int(rng.integers(1, 65))
            k = 16 * int(rng.integers(1, 65))
            cfg = UNIT if i % 3 == 0 else AMAX
            a = quantize((rng.normal(size=(m, k))
                          * 10 ** rng.uniform(-2, 2)).astype(np.float32), cfg)
            w = quantize(rng.normal(size=(n, k)).astype(np.float32), cfg)
            got = qgemm(a, w)
            assert np.array_equal(got, qgemm_mirror(a, w))
            assert got.tobytes() == scale_after_qgemm(a, w).tobytes()
            ref = reference_gemm(dequantize(a), dequantize(w))
            scale = max(float(np.abs(ref).max()), 1e-30)
            assert float(np.abs(got.astype(np.float64) - ref).max()) / scale <= 1e-5

    check(4, "qgemm equals mirror and scale-after oracles bitwise, f64 @1e-5",
          run)


def test_criterion_05_identity_quantizer_collapse(identity_quantizer):
    def run():
        rng = np.random.default_rng(5)
        sampler = SamplerSpec(max_new_tokens=8)
        for seed in range(10):
            weights = toy_weights(300 + seed)
            prompt = list(rng.integers(0, weights.config.vocab_size, size=6))
            with identity_quantizer():
                trajs = {m: generate(weights, prompt, m, sampler)
                         for m in ExecutionMode}
            ref = trajs[ExecutionMode.BASELINE16]
            for mode, traj in trajs.items():
                assert traj.tokens == ref.tokens, (seed, mode)
                for a, b in zip(traj.logprobs, ref.logprobs):
                    assert np.array_equal(a, b)

    check(5, "identity quantizer collapses all four modes, 10 seeded pairs",
          run)


def test_criterion_06_teacher_forcing():
    def run():
        cases = [
            dict(seed=60, d_model=64, n_layers=2, n_heads=4, L=48, T=8),
            dict(seed=61, d_model=128, n_layers=3, n_heads=4, L=64, T=6),
            dict(seed=62, d_model=96, n_layers=4, n_heads=6, L=40, T=6),
            # the stated upper bounds
            dict(seed=63, d_model=256, n_layers=4, n_heads=8, L=512, T=6),
        ]
        for case in cases:
            cfg = ModelConfig(
                vocab_size=128,
                d_model=case["d_model"],
                n_layers=case["n_layers"],
                n_heads=case["n_heads"],
                ffn_hidden=4 * case["d_model"],
                max_seq_len=case["L"] + case["T"],
                seed=case["seed"],
            )
            weights = init_model(cfg)
            rng = np.random.default_rng(case["seed"])
            toks = list(rng.integers(0, cfg.vocab_size,
                                     size=case["L"] + case["T"]))
            full = full_forward_logits(weights, toks, Precision.HIGH)
            rows, res = check_prompt_pass(weights, toks[: case["L"]])
            for pos in range(case["L"]):
                assert rel_logits_err(rows[pos], full[pos]) <= 1e-5
            kv = res.kv
            for pos in range(case["L"], case["L"] + case["T"]):
                logits = decode_step(weights, kv, toks[pos], Precision.HIGH)
                assert rel_logits_err(logits, full[pos]) <= 1e-5, pos

    check(6, "prefill-then-decode matches full forward at every position",
          run)


def test_criterion_07_disaggregation_equivalence(tmp_path):
    def run():
        start = time.monotonic()
        rng = np.random.default_rng(7)
        sampler = SamplerSpec(max_new_tokens=6)
        for case in range(5):
            weights = toy_weights(700 + case)
            prompt = list(rng.integers(0, weights.config.vocab_size, size=7))
            for mode in ExecutionMode:
                mono = generate(weights, prompt, mode, sampler)
                mono_dump = render_trajectory(mono)
                tcp_dump = worker_pair(weights, weights, prompt, mode, sampler)
                base = tmp_path / f"c{case}-{mode.value}"
                base.mkdir()
                file_dump = worker_pair(weights, weights, prompt, mode, sampler,
                                        base)
                assert parse_trajectory_dump(tcp_dump)["tokens"] == mono.tokens
                assert parse_trajectory_dump(file_dump)["tokens"] == mono.tokens
                assert tcp_dump == mono_dump
                assert file_dump == mono_dump

        weights = toy_weights(700, n_layers=1, max_seq_len=16)
        res = prefill(weights, [5, 6, 7], Precision.NVFP4)
        blob = disagg.serialize_kv(res.kv, [5, 6, 7])
        parsed = disagg.deserialize_kv(blob)
        kv = parsed.to_cache(weights)
        for layer in range(weights.config.n_layers):
            assert np.array_equal(kv.keys[layer][:3], res.kv.keys[layer][:3])
            assert np.array_equal(kv.values[layer][:3],
                                  res.kv.values[layer][:3])
        for pos in range(len(blob)):
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0x01
            try:
                disagg.deserialize_kv(bytes(corrupted))
                raise AssertionError(f"byte {pos} corruption accepted")
            except disagg.BlobIntegrityError:
                pass
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    check(7, "worker pair token-identical to monolithic on files and tcp",
          run)


def test_criterion_08_metric_oracles():
    def run():
        rng = np.random.default_rng(8)
        for _ in range(1000):
            n = int(rng.integers(2, 48))
            logits = rng.normal(scale=2.0, size=n)
            e = np.exp(logits - logits.max())
            row = (e / e.sum()).astype(np.float32)
            record = row.reshape(1, 1, n)
            k = int(rng.integers(1, n + 1))
            got = topk_mass(record, [k]).per_head[0, 0, 0]
            brute = float(sum(sorted(row.astype(np.float64), reverse=True)[:k]))
            assert abs(got - brute) <= 1e-6

        from phasequant.analysis import _step_kl

        for _ in range(100):
            lp = np.log(np.random.default_rng(81).dirichlet(np.ones(32))
                        ).astype(np.float32)
            assert abs(_step_kl(lp, lp)) <= 1e-9

        uniform = np.full((1, 1, 10), 0.1, np.float32)
        report = topk_mass(uniform, [3])
        assert report.per_head[0, 0, 0] == pytest.approx(0.3, abs=1e-7)
        onehot = np.zeros((1, 1, 10), np.float32)
        onehot[0, 0, 4] = 1.0
        assert topk_mass(onehot, [1]).per_head[0, 0, 0] == 1.0

    check(8, "topk matches brute force @1e-6; KL(p,p)<=1e-9; edge cases exact",
          run)


def closed_form_prefill_share(d, f, prompt_len):
    """4-bit share of prefill MACs from the ``CostReport`` closed forms:
    linear work ``L*(4d^2 + 3df)`` at 4 bits, attention ``L*L*d`` at high
    precision (both per layer, so the layer count cancels)."""
    linear = prompt_len * (4 * d * d + 3 * d * f)
    attention = prompt_len * prompt_len * d
    return Fraction(linear, linear + attention)


def test_criterion_09_cost_model():
    def mixquant_report(d, n_heads, f):
        cfg = ModelConfig(vocab_size=256, d_model=d, n_layers=2,
                          n_heads=n_heads, ffn_hidden=f,
                          max_seq_len=4096, seed=0)
        return cfg, cost_model(cfg, 2048, 8, ExecutionMode.MIX_QUANT, 3.0)

    def share(report):
        return Fraction(report.prefill_lowbit_macs, report.prefill_total_macs)

    def run():
        cfg, report = mixquant_report(256, 16, 1024)
        assert report.prefill_linear_lowbit_fraction == 1.0
        for mode in ExecutionMode:
            unit = cost_model(cfg, 2048, 8, mode, 1.0)
            assert unit.modeled_prefill_speedup == 1.0
        # reported, not asserted: the modeled shape of the claimed speedup
        print(f"  cost: ratio=3 modeled prefill speedup "
              f"{report.modeled_prefill_speedup:.3f}, total 4-bit share "
              f"{report.prefill_total_lowbit_fraction:.4f}")

        expected = closed_form_prefill_share(256, 1024, 2048)
        assert expected == Fraction(2, 3)
        assert share(report) == expected
        assert report.prefill_total_lowbit_fraction == float(expected)

        # share = 16d/(16d+L) for f=4d, which is >= 0.95 iff d >= 19L/16
        for d, n_heads, holds in ((2432, 19, True), (2400, 150, False)):
            _, wide = mixquant_report(d, n_heads, 4 * d)
            assert share(wide) == closed_form_prefill_share(d, 4 * d, 2048)
            assert (share(wide) >= Fraction(95, 100)) is holds, (
                "4-bit share of total prefill MACs is "
                f"{wide.prefill_total_lowbit_fraction:.4f} at "
                f"d={d}, f=4d, L=2048: share = 16d/(16d+L) for f=4d, which "
                "is >= 0.95 iff d >= 19L/16"
            )
            if holds:
                assert wide.prefill_total_lowbit_fraction >= 0.95

    check(9, "cost model: linear share 1.0, ratio-1 speedup 1.0, total share",
          run)


def test_criterion_10_divergence_experiment(tmp_path):
    def run():
        import contextlib

        def run_cli(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(list(argv))
            assert code == 0
            return out.getvalue()

        for seed in range(20):
            path = str(tmp_path / f"m{seed}.mxqw")
            cfg = ModelConfig(vocab_size=64, d_model=32, n_layers=1,
                              n_heads=2, ffn_hidden=64, max_seq_len=32,
                              seed=9000 + seed)
            save_model(init_model(cfg), path)
            args = ("compare-modes", "--model", path, "--prompt-tokens",
                    "1,5,9,2", "--max-new", "5")
            first = run_cli(*args)
            second = run_cli(*args)
            assert first == second
            assert first.count("ref_mode=baseline16") == 3

    check(10, "compare-modes deterministic byte-identical on 20 seeded models",
          run)
