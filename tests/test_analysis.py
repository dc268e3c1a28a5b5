from fractions import Fraction

import numpy as np
import pytest

from conftest import (per_token_perplexity, toy_config, toy_weights,
                      two_pass_perplexity)
from phasequant import analysis, model
from phasequant.analysis import (
    compare_trajectories,
    cost_model,
    dump_json,
    perplexity,
    record_attention,
    topk_mass,
)
from phasequant.engine import ExecutionMode, SamplerSpec, Trajectory, generate


def softmax_rows(rng, n_rows, n_cols, scale=2.0):
    logits = rng.normal(scale=scale, size=(n_rows, n_cols))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)).astype(np.float32)


def topk_oracle(row, k):
    return float(sum(sorted(row.astype(np.float64), reverse=True)[:k]))


class TestTopkMass:
    def test_uniform_attention(self):
        rows = np.full((2, 3, 10), 0.1, np.float32)
        report = topk_mass(rows, [1, 4, 10])
        assert np.allclose(report.mean_per_k, [0.1, 0.4, 1.0], atol=1e-6)

    def test_one_hot_row(self):
        rows = np.zeros((1, 1, 6), np.float32)
        rows[0, 0, 3] = 1.0
        report = topk_mass(rows, [1])
        assert report.mean_per_k[0] == 1.0

    def test_matches_sort_and_sum_oracle(self):
        rng = np.random.default_rng(0)
        rows = softmax_rows(rng, 12, 33).reshape(3, 4, 33)
        ks = [1, 2, 5, 33]
        report = topk_mass(rows, ks)
        for li in range(3):
            for hi in range(4):
                for ki, k in enumerate(ks):
                    assert abs(
                        report.per_head[li, hi, ki] - topk_oracle(rows[li, hi], k)
                    ) <= 1e-6

    def test_monotone_in_k_and_normalized_at_full(self):
        rng = np.random.default_rng(1)
        rows = softmax_rows(rng, 8, 21).reshape(2, 4, 21)
        ks = list(range(1, 22))
        report = topk_mass(rows, ks)
        assert (np.diff(report.per_head, axis=-1) >= -1e-12).all()
        assert np.abs(report.per_head[..., -1] - 1.0).max() <= 1e-6

    def test_k_out_of_range(self):
        rows = np.full((1, 1, 4), 0.25, np.float32)
        with pytest.raises(ValueError):
            topk_mass(rows, [0])
        with pytest.raises(ValueError):
            topk_mass(rows, [5])
        with pytest.raises(ValueError, match="at least one k"):
            topk_mass(rows, [])

    def test_engine_record_feeds_metric(self, weights):
        record = record_attention(weights, [3, 1, 4, 1, 5],
                                  ExecutionMode.MIX_QUANT)
        report = topk_mass(record, [1, 5])
        assert np.abs(report.per_head[..., -1] - 1.0).max() <= 1e-5

    def test_render_is_plain_key_value_text(self):
        rows = np.full((1, 2, 4), 0.25, np.float32)
        text = topk_mass(rows, [1, 4]).render()
        assert "np.float64" not in text
        assert "layer=0 head=1 k=4 mass=" in text
        values = [line.rsplit("=", 1)[1] for line in text.strip().split("\n")[1:]]
        assert all(float(v) >= 0 for v in values)


def make_traj(prompt, tokens, logprob_rows, mode="baseline16"):
    return Trajectory(
        prompt=prompt,
        tokens=list(tokens),
        logprobs=[np.asarray(r, np.float32) for r in logprob_rows],
        mode=mode,
    )


class TestCompareTrajectories:
    def test_self_comparison_is_clean(self, weights):
        traj = generate(weights, [2, 3, 5], ExecutionMode.BASELINE16,
                        SamplerSpec(max_new_tokens=6))
        report = compare_trajectories(traj, traj)
        assert report.first_divergence is None
        assert all(report.top1_agree)
        assert max(abs(k) for k in report.kl_per_step) <= 1e-9

    def test_constructed_divergence_at_step_5(self):
        rng = np.random.default_rng(2)
        rows = np.log(softmax_rows(rng, 6, 8))
        ref = make_traj([1], [3, 3, 3, 3, 3, 3], rows)
        test_rows = rows.copy()
        test = make_traj([1], [3, 3, 3, 3, 7, 3], test_rows, mode="mixquant")
        report = compare_trajectories(ref, test)
        assert report.first_divergence == 5
        assert report.top1_agree[:4] == [True] * 4
        assert report.top1_agree[4] is False
        assert len(report.kl_per_step) == 5

    def test_prompt_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        rows = np.log(softmax_rows(rng, 1, 4))
        with pytest.raises(ValueError):
            compare_trajectories(make_traj([1], [0], rows),
                                 make_traj([2], [0], rows))

    def test_kl_nonnegative_on_engine_runs(self, weights):
        sampler = SamplerSpec(max_new_tokens=8)
        ref = generate(weights, [5, 9], ExecutionMode.BASELINE16, sampler)
        for mode in (ExecutionMode.UNIFORM_FP4, ExecutionMode.MIX_QUANT,
                     ExecutionMode.P16D4):
            test = generate(weights, [5, 9], mode, sampler)
            report = compare_trajectories(ref, test)
            assert all(k >= -1e-9 for k in report.kl_per_step)
            if report.first_divergence is not None:
                for i in range(report.first_divergence - 1):
                    assert report.top1_agree[i]

    def test_report_deterministic(self, weights):
        sampler = SamplerSpec(max_new_tokens=6)
        ref = generate(weights, [5, 9], ExecutionMode.BASELINE16, sampler)
        test = generate(weights, [5, 9], ExecutionMode.UNIFORM_FP4, sampler)
        a = compare_trajectories(ref, test).render()
        b = compare_trajectories(ref, test).render()
        assert a == b
        assert dump_json(compare_trajectories(ref, test)) == dump_json(
            compare_trajectories(ref, test))


class TestDivergenceExperiment:
    def test_quantized_modes_reported_against_baseline(self):
        # Divergence steps are experiment output, not asserted: they depend
        # on the model draw.  What must hold: reports are reproducible and
        # internally consistent at a scale where divergence can occur.
        from phasequant.model import ModelConfig, init_model

        cfg = ModelConfig(vocab_size=256, d_model=96, n_layers=4, n_heads=6,
                          ffn_hidden=384, max_seq_len=128, seed=8001)
        w = init_model(cfg)
        prompt = list(np.random.default_rng(1).integers(0, 256, size=32))
        sampler = SamplerSpec(max_new_tokens=40)
        ref = generate(w, prompt, ExecutionMode.BASELINE16, sampler)
        for mode in (ExecutionMode.UNIFORM_FP4, ExecutionMode.MIX_QUANT,
                     ExecutionMode.P16D4):
            test = generate(w, prompt, mode, sampler)
            a = compare_trajectories(ref, test)
            b = compare_trajectories(
                ref, generate(w, prompt, mode, sampler))
            assert a.render() == b.render()
            assert all(k >= -1e-9 for k in a.kl_per_step)
            if a.first_divergence is not None:
                assert all(a.top1_agree[: a.first_divergence - 1])
                assert not a.top1_agree[a.first_divergence - 1]


class TestCostModel:
    def test_baseline_has_no_lowbit_macs(self):
        cfg = toy_config(0)
        report = cost_model(cfg, 16, 4, ExecutionMode.BASELINE16, 3.0)
        assert report.prefill_lowbit_macs == 0
        assert report.prefill_total_lowbit_fraction == 0.0
        assert report.modeled_prefill_speedup == 1.0

    def test_closed_form_counts(self):
        cfg = toy_config(0, d_model=256, ffn_hidden=1024, n_heads=16,
                         n_layers=3, max_seq_len=4096, vocab_size=256)
        L = 2048
        per_token = 4 * 256 * 256 + 3 * 256 * 1024
        for T in (1, 2, 3, 4, 5, 17, 64):
            report = cost_model(cfg, L, T, ExecutionMode.MIX_QUANT, 3.0)
            assert report.prefill_linear_macs == 3 * L * per_token
            assert report.prefill_attn_macs == 3 * L * L * 256
            assert report.decode_linear_macs == 3 * T * per_token
            assert report.decode_attn_macs == 3 * 256 * sum(
                L + t for t in range(1, T + 1))

    def test_decode_attention_of_a_trillion_tokens_is_exact(self):
        # a sum over the generated tokens would take 10**12 steps; the
        # count is exact, as in rationals
        cfg = toy_config(0)
        L, T = 3, 10**12
        report = cost_model(cfg, L, T, ExecutionMode.MIX_QUANT, 3.0)
        exact = Fraction(T * L) + Fraction(T * (T + 1), 2)
        assert isinstance(report.decode_attn_macs, int)
        assert report.decode_attn_macs == cfg.n_layers * cfg.d_model * exact

    def test_mixquant_prefill_linear_share_is_one(self):
        cfg = toy_config(0, d_model=256, ffn_hidden=1024, n_heads=16,
                         max_seq_len=4096)
        report = cost_model(cfg, 2048, 1, ExecutionMode.MIX_QUANT, 3.0)
        assert report.prefill_linear_lowbit_fraction == 1.0
        assert report.decode_lowbit_macs == 0

    def test_additivity_mode_independent_totals(self):
        cfg = toy_config(0)
        totals = set()
        for mode in ExecutionMode:
            report = cost_model(cfg, 17, 5, mode, 2.0)
            totals.add((report.prefill_total_macs, report.decode_total_macs))
        assert len(totals) == 1

    def test_ratio_one_speedup_exactly_one(self):
        cfg = toy_config(0)
        for mode in ExecutionMode:
            assert cost_model(cfg, 16, 2, mode, 1.0).modeled_prefill_speedup == 1.0

    def test_p16d4_tags_decode_only(self):
        cfg = toy_config(0)
        report = cost_model(cfg, 16, 2, ExecutionMode.P16D4, 3.0)
        assert report.prefill_lowbit_macs == 0
        assert report.decode_lowbit_macs == report.decode_linear_macs
        assert report.modeled_prefill_speedup == 1.0

    @pytest.mark.parametrize("prompt_len, gen_len", [(0, 1), (1, 0)])
    def test_zero_length_rejected(self, prompt_len, gen_len):
        with pytest.raises(ValueError):
            cost_model(toy_config(0), prompt_len, gen_len,
                       ExecutionMode.MIX_QUANT, 3.0)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            cost_model(toy_config(0), 4, 1, ExecutionMode.MIX_QUANT, 0.0)


class TestPerplexity:
    def test_single_token_vocab_gives_one(self):
        w = toy_weights(0, vocab_size=1, d_model=16, n_layers=1, n_heads=1,
                        ffn_hidden=16, max_seq_len=16)
        value = perplexity(w, ExecutionMode.BASELINE16, [[0, 0, 0, 0]])
        assert abs(value - 1.0) <= 1e-6

    def test_identity_quantizer_matches_baseline_bitwise(self, weights,
                                                         identity_quantizer):
        corpus = [[1, 2, 3, 4, 5], [9, 8, 7]]
        with identity_quantizer():
            mq = perplexity(weights, ExecutionMode.MIX_QUANT, corpus)
            bl = perplexity(weights, ExecutionMode.BASELINE16, corpus)
        assert mq == bl

    def test_bounds(self, weights):
        value = perplexity(weights, ExecutionMode.UNIFORM_FP4, [[4, 2, 7, 1]])
        assert value >= 1.0
        assert np.isfinite(value)

    def test_empty_corpus_rejected(self, weights):
        with pytest.raises(ValueError):
            perplexity(weights, ExecutionMode.BASELINE16, [])
        with pytest.raises(ValueError):
            perplexity(weights, ExecutionMode.BASELINE16, [[3]])

    def test_longer_than_context_rejected(self, weights):
        too_long = [1] * (weights.config.max_seq_len + 1)
        with pytest.raises(ValueError):
            perplexity(weights, ExecutionMode.BASELINE16, [too_long])

    @pytest.mark.parametrize("last", [-1, 64, 2**70])
    def test_last_token_outside_vocabulary_rejected(self, weights, last):
        # the last token is only ever a target, never a model input
        assert weights.config.vocab_size == 64
        with pytest.raises(ValueError):
            perplexity(weights, ExecutionMode.BASELINE16, [[1, 2, last]])

    def test_bad_token_rejected_before_any_pass(self, weights, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "forward_block",
                            lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError):
            perplexity(weights, ExecutionMode.BASELINE16,
                       [[1, 2, 3, 4], [5, 6, 64]])
        assert calls == []


PER_TOKEN_SEQ = [int(t) for t in np.random.default_rng(17).integers(0, 64, 24)]


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_matches_per_token_oracle(weights, mode):
    # one prefix per corpus pins each token's log-probability in turn; the
    # two passes agree with a fresh prompt pass per token up to the
    # forward's length and batch dependence
    for n in range(2, len(PER_TOKEN_SEQ) + 1):
        corpus = [PER_TOKEN_SEQ[:n]]
        got = perplexity(weights, mode, corpus)
        expected = per_token_perplexity(weights, mode, corpus)
        assert abs(got - expected) <= 1e-5 * expected, n


@pytest.fixture
def counted_passes(monkeypatch):
    """Record each ``prefill`` call of ``perplexity`` as (tokens, precision)
    and each block as (rows in, precision, own_diagonal, keeps one row)."""
    prefills, blocks = [], []
    real_prefill, real_block = analysis.prefill, model.forward_block

    def counting_prefill(w, tokens, precision, *args, **kwargs):
        prefills.append((len(tokens), precision))
        return real_prefill(w, tokens, precision, *args, **kwargs)

    def counting_block(w, layer, x, kv, precision, *args, **kwargs):
        blocks.append((len(x), precision, kwargs.get("own_diagonal", False),
                       kwargs.get("keep") == 1))
        return real_block(w, layer, x, kv, precision, *args, **kwargs)

    monkeypatch.setattr(analysis, "prefill", counting_prefill)
    monkeypatch.setattr(model, "forward_block", counting_block)
    return prefills, blocks


PASS_CORPUS = [list(range(1, 12)), [5, 9], [7]]


def test_one_prompt_pass_and_one_decode_pass_per_sequence(weights,
                                                          counted_passes):
    # the mixed modes: context and last token run at different precisions
    prefills, blocks = counted_passes
    n_layers = weights.config.n_layers
    for mode in (ExecutionMode.MIX_QUANT, ExecutionMode.P16D4):
        prefills.clear()
        blocks.clear()
        perplexity(weights, mode, PASS_CORPUS)
        low, high = mode.prefill_precision, mode.decode_precision
        assert prefills == [(9, low)]  # n - 2 = 9; none at n = 2
        prompt_blocks = ([(9, low, False, False)] * (n_layers - 1)
                         + [(9, low, False, True)])
        decode_blocks = [(10, high, True, False)] * n_layers
        assert blocks == (prompt_blocks + decode_blocks
                          + [(1, high, True, False)] * n_layers)


@pytest.mark.parametrize("mode", [ExecutionMode.BASELINE16,
                                  ExecutionMode.UNIFORM_FP4])
def test_one_prompt_pass_per_sequence_when_phases_share_a_precision(
        weights, counted_passes, mode):
    prefills, blocks = counted_passes
    perplexity(weights, mode, PASS_CORPUS)
    prec = mode.decode_precision
    assert prefills == [(10, prec), (1, prec)]  # n - 1 tokens; none at n = 1
    n_layers = weights.config.n_layers
    # every block keeps all n - 1 rows and writes the cache
    assert blocks == ([(10, prec, False, False)] * n_layers
                      + [(1, prec, False, False)] * n_layers)


class TestOnePassEqualsTwoPasses:
    """Where a mode's phases share a precision, ``perplexity``'s one prompt
    pass gives the two-pass form's value."""

    LENGTHS = list(range(2, 41)) + [128, 129, 130, 131, 300]  # 128: a tile

    @pytest.fixture(scope="class")
    def long_weights(self):
        return toy_weights(0, max_seq_len=300)

    @pytest.fixture(scope="class")
    def seq(self):
        return [int(t) for t in np.random.default_rng(29).integers(0, 64, 300)]

    def test_uniform_fp4_bit_equal(self, long_weights, seq):
        mode = ExecutionMode.UNIFORM_FP4
        for n in self.LENGTHS:
            corpus = [seq[:n]]
            assert (perplexity(long_weights, mode, corpus)
                    == two_pass_perplexity(long_weights, mode, corpus)), n

    def test_baseline16_within_1e_6(self, long_weights, seq):
        # the two-pass form's context pass is one row shorter, and its
        # float32 K/V can take other BLAS paths than the same rows here
        mode = ExecutionMode.BASELINE16
        for n in self.LENGTHS:
            corpus = [seq[:n]]
            expected = two_pass_perplexity(long_weights, mode, corpus)
            got = perplexity(long_weights, mode, corpus)
            assert abs(got - expected) <= 1e-6 * expected, n

    @pytest.mark.parametrize("n", [48, 64, 88, 127, 128])
    def test_baseline16_bit_equal_at_benchmark_geometry(self, n):
        w = toy_weights(20260517, vocab_size=512, d_model=256,
                        ffn_hidden=1024, n_layers=2, n_heads=16,
                        max_seq_len=1024)
        corpus = [[int(t) for t in
                   np.random.default_rng(n).integers(0, 512, n)]]
        mode = ExecutionMode.BASELINE16
        assert (perplexity(w, mode, corpus)
                == two_pass_perplexity(w, mode, corpus))
