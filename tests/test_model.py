import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_same_kv,
    check_prompt_pass,
    cut_cache,
    drop_shadows,
    final_hidden,
    full_forward_logits,
    per_head_attend,
    rel_logits_err,
    toy_config,
    toy_weights,
    whole_normal_stream,
)
from phasequant import analysis, model
from phasequant.engine import ExecutionMode
from phasequant.errors import ConfigError, ContextOverflowError
from phasequant.quantizer import QuantizedTensor
from phasequant.model import (
    KvCache,
    ModelConfig,
    Precision,
    decode_step,
    fnv1a64,
    init_model,
    load_model,
    prefill,
    save_model,
    teacher_forced_logits,
)


def documented_tensors(cfg):
    """``(layer index or None, field, shape)`` of every tensor in the stream
    and file order the ``model`` module docstring states."""
    d, f = cfg.d_model, cfg.ffn_hidden
    per_layer = (
        ("attn_norm_gain", (d,)), ("attn_q", (d, d)), ("attn_k", (d, d)),
        ("attn_v", (d, d)), ("attn_out", (d, d)), ("mlp_norm_gain", (d,)),
        ("mlp_gate", (f, d)), ("mlp_up", (f, d)), ("mlp_down", (d, f)),
    )
    return ([(None, "embedding", (cfg.vocab_size, d))]
            + [(i, name, shape) for i in range(cfg.n_layers)
               for name, shape in per_layer]
            + [(None, "final_norm_gain", (d,))])


def tensor_of(weights, layer, name):
    return getattr(weights if layer is None else weights.layers[layer], name)


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=16, d_model=24, n_layers=1, n_heads=2,
                        max_seq_len=8, seed=0)
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=16, d_model=32, n_layers=1, n_heads=2,
                        ffn_hidden=40, max_seq_len=8, seed=0)
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=16, d_model=32, n_layers=1, n_heads=3,
                        max_seq_len=8, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("d_model", 0), ("d_model", -16), ("vocab_size", 0), ("n_layers", 0),
        ("n_heads", 0), ("max_seq_len", 0), ("rope_base", 0.0),
        ("rope_base", float("nan")), ("rope_base", float("inf")),
    ], ids=["0", "-16", "vocab_size-0", "n_layers-0", "n_heads-0",
            "max_seq_len-0", "rope_base-0", "rope_base-nan", "rope_base-inf"])
    def test_zero_or_negative_width_rejected(self, field, value):
        # a d_model of 0 or -16 is a multiple of 16, and head_dim and
        # ffn_hidden derive from it, so only a lower bound keeps such a
        # model out; so it is for the other sizes and the rotary base
        params = dict(vocab_size=16, d_model=32, n_layers=1, n_heads=1,
                      max_seq_len=8, seed=0)
        params[field] = value
        with pytest.raises(ConfigError):
            ModelConfig(**params)

    def test_defaults(self):
        cfg = ModelConfig(vocab_size=16, d_model=32, n_layers=1, n_heads=2,
                          max_seq_len=8, seed=0)
        assert cfg.head_dim == 16
        assert cfg.ffn_hidden == 128
        assert cfg.rope_base == 10000.0

    def test_digest_covers_every_field(self):
        base = toy_config(0)
        assert base.digest() == toy_config(0).digest()
        assert base.digest() != toy_config(1).digest()
        assert base.digest() != toy_config(0, vocab_size=65).digest()  # not %16
        assert base.digest() != toy_config(0, rope_base=500.0).digest()

    def test_digest_hash_known_vectors(self):
        from phasequant.model import fnv1a64

        # published FNV-1a 64 test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_model(toy_config(3))
        b = init_model(toy_config(3))
        assert np.array_equal(a.embedding, b.embedding)
        for la, lb in zip(a.layers, b.layers):
            for name in ("attn_q", "attn_k", "attn_v", "attn_out",
                         "mlp_gate", "mlp_up", "mlp_down"):
                assert np.array_equal(getattr(la, name), getattr(lb, name))

    def test_adjacent_seeds_differ(self):
        a = init_model(toy_config(3))
        b = init_model(toy_config(4))
        assert not np.array_equal(a.embedding, b.embedding)

    def test_gains_are_ones_and_scale_is_002(self):
        w = init_model(toy_config(5))
        assert (w.final_norm_gain == 1.0).all()
        assert (w.layers[0].attn_norm_gain == 1.0).all()
        assert abs(float(w.embedding.std()) - 0.02) < 0.002

    def test_stream_consumed_in_documented_order(self):
        # matrices take consecutive slices of one scaled normal stream; gains
        # are one and draw nothing
        self.check_documented_order(toy_config(7, n_layers=3))

    def test_stream_spanning_several_chunks(self):
        # 147,456 values: the generator makes them in three chunks
        self.check_documented_order(toy_config(7, vocab_size=256, d_model=64,
                                               n_heads=4, ffn_hidden=256))

    @staticmethod
    def check_documented_order(cfg):
        w = init_model(cfg)
        entries = documented_tensors(cfg)
        total = sum(math.prod(shape) for *_, shape in entries if len(shape) == 2)
        stream = (0.02 * whole_normal_stream(cfg.seed, total)).astype(np.float32)
        pos = 0
        for layer, name, shape in entries:
            tensor = tensor_of(w, layer, name)
            assert tensor.shape == shape, name
            assert tensor.dtype == np.float32
            if len(shape) == 1:
                assert (tensor == 1.0).all(), name
            else:
                size = math.prod(shape)
                expected = stream[pos : pos + size].reshape(shape)
                assert np.array_equal(tensor, expected), (layer, name)
                pos += size
        assert pos == total

    def test_shadow_rebuild_bit_identical(self):
        w = toy_weights(6)
        first = w.shadow(0, "attn_q")
        drop_shadows(w)
        second = w.shadow(0, "attn_q")
        assert np.array_equal(first.codes, second.codes)
        assert np.array_equal(first.block_scales, second.block_scales)
        assert first.tensor_scale == second.tensor_scale


class TestWeightFoldCache:
    """Each weight shadow carries one block-scale fold, built with it."""

    PROMPT = [3, 1, 4, 1, 5, 9, 2, 6]

    @pytest.fixture
    def fold_builds(self, monkeypatch):
        builds = []
        original = QuantizedTensor.folded

        def counting(qt):
            builds.append(qt)
            return original(qt)

        monkeypatch.setattr(QuantizedTensor, "folded", counting)
        return builds

    @staticmethod
    def n_linears(w):
        return 7 * w.config.n_layers

    def test_built_once_per_shadow_not_per_call(self, fold_builds):
        w = init_model(toy_config(41))
        first = prefill(w, self.PROMPT, Precision.NVFP4)
        assert len(fold_builds) == self.n_linears(w)
        fold = w.shadow(0, "attn_q").folded_t()
        kv = first.kv
        decode_step(w, kv, 7, Precision.NVFP4)
        prefill(w, self.PROMPT, Precision.NVFP4)
        assert len(fold_builds) == self.n_linears(w)
        assert w.shadow(0, "attn_q").folded_t() is fold
        shadow = w.shadow(1, "mlp_down")
        assert shadow.folded_t().shape == shadow.codes.shape[::-1]

    def test_read_only(self):
        w = init_model(toy_config(42))
        fold = w.shadow(0, "mlp_up").folded_t()
        assert not fold.flags.writeable
        with pytest.raises(ValueError):
            fold[0, 0] = 1.0

    def test_drop_shadows_drops_fold_and_logits_stay_bit_identical(
            self, fold_builds):
        w = init_model(toy_config(43))
        before = prefill(w, self.PROMPT, Precision.NVFP4).logits
        old_fold = w.shadow(0, "attn_k").folded_t()
        drop_shadows(w)
        assert w._shadows == {}
        after = prefill(w, self.PROMPT, Precision.NVFP4).logits
        assert len(fold_builds) == 2 * self.n_linears(w)
        assert w.shadow(0, "attn_k").folded_t() is not old_fold
        assert np.array_equal(w.shadow(0, "attn_k").folded_t(), old_fold)
        assert before.tobytes() == after.tobytes()

    def test_high_and_identity_quantizer_never_build_it(self, fold_builds,
                                                         identity_quantizer):
        w = init_model(toy_config(44))
        kv = prefill(w, self.PROMPT, Precision.HIGH).kv
        decode_step(w, kv, 2, Precision.HIGH)
        with identity_quantizer():
            kv = prefill(w, self.PROMPT, Precision.NVFP4).kv
            decode_step(w, kv, 2, Precision.NVFP4)
        assert fold_builds == []
        assert w._shadows == {}


class TestSharedActivationQuantization:
    """Each 4-bit input is quantized once, however many products read it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from phasequant import gemm, model, quantizer

        log = {"quantize": [], "gemm": []}

        def quantize_rows(x, cfg=quantizer.QuantConfig()):
            act = quantizer.quantize_rows(x, cfg)
            log["quantize"].append((np.array(x), cfg, act))
            return act

        def qgemm_rows(act, w):
            out = gemm.qgemm_rows(act, w)
            log["gemm"].append((act, w, out))
            return out

        monkeypatch.setattr(model, "quantize_rows", quantize_rows)
        monkeypatch.setattr(model, "qgemm_rows", qgemm_rows)
        return log

    def test_four_quantizations_seven_products_per_layer(self, calls, weights):
        from phasequant import gemm, quantizer

        n_layers = weights.config.n_layers
        kv = prefill(weights, [3, 1, 4, 1, 5, 9], Precision.NVFP4).kv
        decode_step(weights, kv, 2, Precision.NVFP4)
        assert len(calls["quantize"]) == 2 * 4 * n_layers
        assert len(calls["gemm"]) == 2 * 7 * n_layers
        sources = {id(act): (x, cfg) for x, cfg, act in calls["quantize"]}
        shared = [id(act) for act, _, _ in calls["gemm"]]
        for layer in range(2 * n_layers):  # q/k/v share, out, gate/up, down
            qkv, out, gate_up, down = (shared[7 * layer : 7 * layer + 3],
                                       shared[7 * layer + 3 : 7 * layer + 4],
                                       shared[7 * layer + 4 : 7 * layer + 6],
                                       shared[7 * layer + 6 :7 * layer + 7])
            assert len(set(qkv)) == len(set(gate_up)) == 1
            assert len(set(qkv + out + gate_up + down)) == 4
        for act, w, out in calls["gemm"]:
            x, cfg = sources[id(act)]
            own = gemm.qgemm_rows(quantizer.quantize_rows(x, cfg), w)
            assert out.tobytes() == own.tobytes()

    def test_high_precision_quantizes_nothing(self, calls, weights):
        kv = prefill(weights, [3, 1, 4], Precision.HIGH).kv
        decode_step(weights, kv, 2, Precision.HIGH)
        assert calls == {"quantize": [], "gemm": []}


class TestPrefillDecode:
    def test_empty_prompt_rejected(self, weights):
        with pytest.raises(ValueError):
            prefill(weights, [], Precision.HIGH)

    def test_overflow_rejected(self, weights):
        too_long = [1] * (weights.config.max_seq_len + 1)
        with pytest.raises(ContextOverflowError) as err:
            prefill(weights, too_long, Precision.HIGH)
        assert err.value.position == weights.config.max_seq_len

    @pytest.mark.parametrize("prec", list(Precision))
    def test_overflowing_chunk_leaves_cache_untouched(self, weights, prec):
        cap = weights.config.max_seq_len
        kv = prefill(weights, [3, 1, 4, 1, 5], prec).kv
        keys = [k.tobytes() for k in kv.keys]
        values = [v.tobytes() for v in kv.values]
        with pytest.raises(ContextOverflowError) as err:
            prefill(weights, [2] * (cap - 4), prec, kv=kv)
        assert err.value.position == cap
        assert kv.length == 5
        assert [k.tobytes() for k in kv.keys] == keys
        assert [v.tobytes() for v in kv.values] == values

    @pytest.mark.parametrize("token", [2**63, -(2**63) - 1])
    def test_id_past_int64_is_outside_the_vocabulary(self, weights, token):
        with pytest.raises(ValueError, match="^token id outside vocabulary$"):
            prefill(weights, [1, token], Precision.HIGH)
        kv = prefill(weights, [1], Precision.HIGH).kv
        with pytest.raises(ValueError, match="^token id outside vocabulary$"):
            decode_step(weights, kv, token, Precision.HIGH)
        assert kv.length == 1

    def test_decode_overflow(self, weights):
        kv = prefill(weights, [1] * weights.config.max_seq_len,
                     Precision.HIGH).kv
        with pytest.raises(ContextOverflowError):
            decode_step(weights, kv, 2, Precision.HIGH)

    def test_prefill_deterministic(self, weights):
        toks = [1, 4, 9, 16, 25]
        a = prefill(weights, toks, Precision.HIGH)
        b = prefill(weights, toks, Precision.HIGH)
        assert np.array_equal(a.logits, b.logits)
        a4 = prefill(weights, toks, Precision.NVFP4)
        b4 = prefill(weights, toks, Precision.NVFP4)
        assert np.array_equal(a4.logits, b4.logits)

    def test_single_token_prefill_matches_argmax_contract(self, weights):
        res = prefill(weights, [7], Precision.HIGH)
        assert res.logits.shape == (weights.config.vocab_size,)
        assert np.isfinite(res.logits).all()

    def test_kv_written_in_float32_every_mode(self, weights):
        toks = [3, 1, 4, 1, 5]
        for prec in Precision:
            kv = prefill(weights, toks, prec).kv
            assert kv.length == 5
            for layer in range(weights.config.n_layers):
                assert kv.keys[layer].dtype == np.float32
                assert kv.values[layer].dtype == np.float32

    def test_kv_layout_identical_across_modes(self, weights):
        toks = [3, 1, 4]
        shapes = set()
        for prec in Precision:
            kv = prefill(weights, toks, prec).kv
            shapes.add(tuple(k.shape for k in kv.keys))
        assert len(shapes) == 1

    def test_decode_can_consume_any_prefills_cache(self, weights):
        toks = [2, 7, 1]
        for pre_prec in Precision:
            kv = prefill(weights, toks, pre_prec).kv
            for dec_prec in Precision:
                logits = decode_step(
                    weights, cut_cache(kv, kv.length), 5, dec_prec)
                assert logits.shape == (weights.config.vocab_size,)
                assert np.isfinite(logits).all()


class TestTeacherForcing:
    @pytest.mark.parametrize("seed,L,extra", [(0, 12, 6), (1, 20, 4)])
    def test_prefill_then_decode_matches_full_forward(self, seed, L, extra):
        w = toy_weights(seed)
        rng = np.random.default_rng(seed)
        toks = list(rng.integers(0, w.config.vocab_size, size=L + extra))
        full = full_forward_logits(w, toks, Precision.HIGH)
        rows, res = check_prompt_pass(w, toks[:L])
        for pos in range(L):
            assert rel_logits_err(rows[pos], full[pos]) <= 1e-5
        kv = res.kv
        for pos in range(L, L + extra):
            logits = decode_step(w, kv, toks[pos], Precision.HIGH)
            assert rel_logits_err(logits, full[pos]) <= 1e-5

    @pytest.mark.parametrize("ctx_prec", list(Precision))
    @pytest.mark.parametrize("prec", list(Precision))
    def test_rows_match_decode_steps_on_cut_caches(self, weights, ctx_prec, prec):
        # row j is the decode step of token j on the context's first j rows
        rng = np.random.default_rng(41)
        toks = list(rng.integers(0, weights.config.vocab_size, size=9))
        context = prefill(weights, toks[:-1], ctx_prec).kv
        rows = teacher_forced_logits(weights, toks, context, prec)
        assert rows.shape == (len(toks), weights.config.vocab_size)
        for j, tok in enumerate(toks):
            step = decode_step(weights, cut_cache(context, j), tok, prec)
            assert rel_logits_err(rows[j], step) <= 1e-5, j

    def test_context_cache_not_written(self, weights):
        toks = [4, 8, 15, 16, 23, 42]
        context = prefill(weights, toks[:-1], Precision.HIGH).kv
        keys = [k.copy() for k in context.keys]
        values = [v.copy() for v in context.values]
        teacher_forced_logits(weights, toks, context, Precision.NVFP4)
        assert context.length == 5
        for layer in range(weights.config.n_layers):
            assert np.array_equal(context.keys[layer], keys[layer])
            assert np.array_equal(context.values[layer], values[layer])

    def test_first_row_needs_no_context(self, weights):
        rows = teacher_forced_logits(weights, [9], KvCache(weights.config),
                                     Precision.HIGH)
        step = decode_step(weights, KvCache(weights.config), 9, Precision.HIGH)
        assert rel_logits_err(rows[0], step) <= 1e-5

    def test_short_context_and_bad_tokens_rejected(self, weights):
        context = prefill(weights, [1, 2], Precision.HIGH).kv
        with pytest.raises(ValueError):
            teacher_forced_logits(weights, [1, 2, 3, 4], context, Precision.HIGH)
        with pytest.raises(ValueError):
            teacher_forced_logits(weights, [1, -1, 3], context, Precision.HIGH)
        with pytest.raises(ValueError):
            teacher_forced_logits(weights, [], context, Precision.HIGH)

    def test_greedy_pick_consistent_at_l1(self, weights):
        res = prefill(weights, [9], Precision.HIGH)
        full = full_forward_logits(weights, [9], Precision.HIGH)
        assert int(np.argmax(res.logits)) == int(np.argmax(full[0]))


class TestCausality:
    @pytest.mark.parametrize("prec", list(Precision))
    def test_prefix_kv_bit_unchanged(self, prec, weights):
        rng = np.random.default_rng(9)
        toks = list(rng.integers(0, weights.config.vocab_size, size=14))
        kv1 = prefill(weights, toks, prec).kv
        changed = list(toks)
        changed[8] = (changed[8] + 1) % weights.config.vocab_size
        kv2 = prefill(weights, changed, prec).kv
        for layer in range(weights.config.n_layers):
            assert np.array_equal(kv1.keys[layer][:8], kv2.keys[layer][:8])
            assert np.array_equal(kv1.values[layer][:8], kv2.values[layer][:8])
        assert not np.array_equal(kv1.keys[0][8], kv2.keys[0][8])


class TestAttentionRecording:
    def test_rows_are_distributions(self, weights):
        toks = [5, 3, 8, 1, 2, 13, 21]
        res = prefill(weights, toks, Precision.HIGH, record_attention=True)
        rows = res.attention
        cfg = weights.config
        assert rows.shape == (cfg.n_layers, cfg.n_heads, len(toks))
        assert (rows >= 0).all()
        assert np.abs(rows.sum(axis=-1) - 1.0).max() <= 1e-5

    @pytest.mark.parametrize("prec", list(Precision))
    def test_appended_chunk_rows_span_cache_and_chunk(self, weights, prec):
        kv = prefill(weights, [5, 3, 8, 1], prec).kv
        res = prefill(weights, [2, 13, 21], prec, kv=kv, record_attention=True)
        rows = res.attention
        cfg = weights.config
        assert rows.shape == (cfg.n_layers, cfg.n_heads, 7)
        assert (rows >= 0).all()
        assert np.abs(rows.sum(axis=-1) - 1.0).max() <= 1e-5


def key_value_store(entries_k, entries_v, rows):
    """Keys and values laid out as a ``KvCache`` holds them, ``rows``
    entries deep: the given entries first, zero filler after."""
    n, n_heads, head_dim = entries_k.shape
    keys, vals = model._kv_store(rows, n_heads, head_dim)
    keys[:n], vals[:n] = entries_k, entries_v
    return keys, vals


def attention_inputs(p, total, n_heads=16, head_dim=16, own=False, seed=0):
    """Arguments of ``_attend``: ``p`` rows at the last of ``total``
    positions, their K/V written at those positions of a store of
    ``total`` entries as a prompt pass writes them; or with ``own`` the
    teacher-forcing layout (rows from position 0, a context store of other
    entries, the rows' own K/V apart).  Defaults are the benchmark model's
    heads."""
    rng = np.random.default_rng(seed)

    def normal(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    q, k, v = (normal(p, n_heads, head_dim) for _ in range(3))
    entries_k, entries_v = (normal(total, n_heads, head_dim) for _ in range(2))
    if not own:
        entries_k[total - p:], entries_v[total - p:] = k, v
    keys, vals = key_value_store(entries_k, entries_v, model._key_width(total))
    return dict(q=q, k=k, v=v, keys=keys, vals=vals, pos0=total - p)


def score_budget(group, pos0, p):
    """``_SCORE_BYTES`` that makes ``_attend`` take heads ``group`` at a
    time for ``p`` rows from position ``pos0``."""
    return group * model._attention_plan(pos0, p)[1]


def assert_same_attention_bits(args):
    """``_attend`` and the per-head oracle give the same output and record
    bits."""
    n_heads = args["q"].shape[1]
    total = args["pos0"] + args["q"].shape[0]
    records = [np.full((n_heads, total), np.nan, dtype=np.float32)
               for _ in range(2)]
    got = model._attend(**args, record=records[0])
    want = per_head_attend(**args, record=records[1])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert records[0].tobytes() == records[1].tobytes()
    assert np.abs(records[0].sum(axis=-1) - 1.0).max() <= 1e-5


class TestHeadGroupedAttention:
    """``_attend`` runs row blocks and head groups over key tiles; every
    bit must equal the per-head, tile-by-tile oracle
    (``conftest.per_head_attend``)."""

    @pytest.mark.parametrize("p,total", [
        (1, 1), (1, 41), (1, 200), (2, 2), (2, 3), (33, 100), (44, 300),
        (129, 129), (257, 640), (512, 512), (513, 513), (768, 768),
        (1024, 1024),
    ])
    def test_equals_per_head_loop(self, p, total):
        assert_same_attention_bits(attention_inputs(p, total))

    @pytest.mark.parametrize("p", [2, 3, 17, 129, 300, 513])
    def test_own_diagonal_equals_per_head_loop(self, p):
        assert_same_attention_bits(attention_inputs(p, p, own=True))

    @pytest.mark.parametrize("group", [1, 2, 3])
    @pytest.mark.parametrize("p,total,own", [
        (1, 1, False), (1, 9, False), (5, 9, False), (40, 40, False),
        (6, 6, True), (40, 40, True),
    ])
    def test_head_count_not_a_multiple_of_the_group(self, monkeypatch, group,
                                                    p, total, own):
        monkeypatch.setattr(model, "_SCORE_BYTES",
                            score_budget(group, total - p, p))
        assert_same_attention_bits(
            attention_inputs(p, total, n_heads=3, own=own, seed=p))

    @pytest.mark.parametrize("prec", list(Precision))
    def test_three_head_model_forward_equals_per_head_forward(
            self, monkeypatch, prec):
        weights = toy_weights(5, n_heads=3, d_model=48)
        toks = [int(t) for t in
                np.random.default_rng(3).integers(0, 64, size=40)]
        # groups of two heads (2 + 1) in the prompt pass, all three in decode
        monkeypatch.setattr(model, "_SCORE_BYTES", score_budget(2, 0, 40))

        def run():
            res = prefill(weights, toks, prec, record_attention=True)
            step = decode_step(weights, res.kv, 9, prec)
            forced = teacher_forced_logits(weights, toks, res.kv, prec)
            return [res.logits, res.attention, step, forced,
                    *res.kv.keys, *res.kv.values]

        grouped = run()
        monkeypatch.setattr(model, "_attend", per_head_attend)
        per_head = run()
        for a, b in zip(grouped, per_head):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("length", [512, 768, 1024])
    def test_peak_memory_not_above_per_head_loop(self, length):
        args = attention_inputs(length, length)
        peaks = []
        for attend in (model._attend, per_head_attend):
            tracemalloc.start()
            try:
                attend(**args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


@pytest.mark.parametrize("pos0", [0, 1, 2, 100, 127, 128, 129, 255, 256, 383])
def test_row_blocks_cover_the_chunk_in_gemm_shapes(pos0):
    # every row once, in order; no one-row block (a single row goes to
    # _attend_row); at most 130 rows, which the causal bias table is sized
    # for
    tile = model._TILE
    for p in (2, 3, 127, 128, 129, 130, 131, 255, 256, 257, 300):
        blocks = model._row_blocks(pos0, p)
        assert [a for a, _ in blocks] + [p] == [0] + [b for _, b in blocks]
        for a, b in blocks:
            assert 2 <= b - a <= 130
            first_masked = (pos0 + a) // tile * tile
            keys = model._key_width(pos0 + b - 1)
            assert pos0 + b - first_masked <= model._CAUSAL_BIAS.shape[0]
            assert keys - first_masked <= model._CAUSAL_BIAS.shape[1]


class TestLengthInvariantAttention:
    """``_attend`` gives a row the same bits whatever else shares the pass:
    a prefix, a chunk, a longer pass, a single decode row and a
    teacher-forced row all agree bitwise."""

    LENGTH = 800

    @pytest.fixture(scope="class")
    def sequence(self):
        rng = np.random.default_rng(41)
        q, k, v = (rng.standard_normal((self.LENGTH, 16, 16)).astype(np.float32)
                   for _ in range(3))
        rows = model._key_width(self.LENGTH)
        return q, k, v, rows, model._attend(q, k, v, *key_value_store(k, v, rows), 0)

    @pytest.mark.parametrize("length",
                             [1, 2, 5, 50, 64, 127, 128, 129, 300, 512, 513, 799])
    def test_prefix_equals_rows_of_longer_pass(self, sequence, length):
        q, k, v, rows, full = sequence
        store = key_value_store(k[:length], v[:length], rows)
        got = model._attend(q[:length], k[:length], v[:length], *store, 0)
        assert got.tobytes() == full[:length].tobytes()

    @pytest.mark.parametrize("head_dim", [8, 24, 32, 64])
    def test_prefix_equals_longer_pass_at_other_head_dims(self, head_dim):
        rng = np.random.default_rng(head_dim)
        q, k, v = (rng.standard_normal((300, 4, head_dim)).astype(np.float32)
                   for _ in range(3))
        rows = model._key_width(300)
        full = model._attend(q, k, v, *key_value_store(k, v, rows), 0)
        for length in (2, 5, 33, 50, 64, 97, 113, 128, 129, 200):
            store = key_value_store(k[:length], v[:length], rows)
            got = model._attend(q[:length], k[:length], v[:length], *store, 0)
            assert got.tobytes() == full[:length].tobytes(), length

    @pytest.mark.parametrize("chunk", [1, 37, 128, 200])
    def test_chunked_equals_one_shot(self, sequence, chunk):
        q, k, v, rows, full = sequence
        end = 300 if chunk == 1 else self.LENGTH
        keys, vals = key_value_store(k[:0], v[:0], rows)
        for start in range(0, end, chunk):
            span = slice(start, min(start + chunk, end))
            keys[span], vals[span] = k[span], v[span]
            got = model._attend(q[span], k[span], v[span], keys, vals, start)
            assert got.tobytes() == full[span].tobytes(), start

    # narrow first tiles (32 to 112 wide), the full first tile, and whole
    # tiles after it
    DECODE_POSITIONS = (0, 1, 31, 32, 33, 40, 63, 64, 65, 111, 112, 113, 127,
                        128, 129, 383, 384, 385, 799)

    @pytest.mark.parametrize("head_dim", [8, 16, 24, 32, 64])
    def test_decode_rows_equal_teacher_forced_rows(self, head_dim):
        # the context holds other entries than the rows' own K/V
        rng = np.random.default_rng(43)
        q, k, v, *context = (
            rng.standard_normal((self.LENGTH, 4, head_dim)).astype(np.float32)
            for _ in range(5))
        context = key_value_store(*context, model._key_width(self.LENGTH))
        forced = model._attend(q, k, v, *context, 0)
        for pos in self.DECODE_POSITIONS:
            step = model._attend(q[pos:pos + 1], k[pos:pos + 1],
                                 v[pos:pos + 1], *context, pos)
            assert step.tobytes() == forced[pos:pos + 1].tobytes(), pos

    def test_decode_record_equals_teacher_forced_record(self, sequence):
        q, k, v, rows, _ = sequence
        store = key_value_store(k, v, rows)
        for pos in (40, 128, 385):
            records = np.zeros((2, 16, pos + 1), dtype=np.float32)
            model._attend(q[:pos + 1], k[:pos + 1], v[:pos + 1], *store, 0,
                          record=records[0])
            model._attend(q[pos:pos + 1], k[pos:pos + 1], v[pos:pos + 1],
                          *store, pos, record=records[1])
            assert records[0].tobytes() == records[1].tobytes(), pos


def test_key_width_narrows_only_the_first_tile():
    tile = model._TILE
    for keys in range(1, 4 * tile):
        width = model._key_width(keys)
        assert width >= keys
        if keys <= tile:
            assert width % 16 == 0 and width >= 32
            assert width - keys < 16 or width == 32
        else:
            assert width % tile == 0 and width - keys < tile


class TestLengthInvariantForward:
    """On the 4-bit path, whose linears already give a row the same codes
    in any batch, the whole forward is length-invariant: at the benchmark
    geometry (16 heads of 16) the K/V and hidden states of a row do not
    depend on what else shares the pass."""

    @pytest.fixture(scope="class")
    def weights(self):
        return init_model(ModelConfig(vocab_size=512, d_model=256,
                                      ffn_hidden=1024, n_layers=2, n_heads=16,
                                      max_seq_len=1024, seed=20260517))

    @pytest.fixture(scope="class")
    def tokens(self):
        return [int(t) for t in np.random.default_rng(47).integers(0, 512, 800)]

    @pytest.fixture(scope="class")
    def one_shot(self, weights, tokens):
        kv = KvCache(weights.config)
        return kv, final_hidden(weights, tokens, kv, Precision.NVFP4)

    def test_prefix_prefill_kv_equals_rows_of_longer_prefill(
            self, weights, tokens, one_shot):
        full, _ = one_shot
        for length in (1, 2, 5, 127, 128, 129, 300, 512, 513, 799):
            kv = prefill(weights, tokens[:length], Precision.NVFP4).kv
            assert_same_kv(kv, full, length)

    @pytest.mark.parametrize("chunk", [1, 37, 128, 200])
    def test_chunked_prefill_equals_one_shot(self, weights, tokens, one_shot,
                                             chunk):
        full, hidden = one_shot
        end = 400
        kv = KvCache(weights.config)
        for start in range(0, end, chunk):
            rows = slice(start, min(start + chunk, end))
            got = final_hidden(weights, tokens[rows], kv, Precision.NVFP4)
            assert got.tobytes() == hidden[rows].tobytes(), start
        assert_same_kv(kv, full, end)

    def test_decode_step_hidden_equals_teacher_forced_row(self, weights,
                                                          tokens):
        toks = tokens[:300]
        context = prefill(weights, toks[:-1], Precision.HIGH).kv
        forced = final_hidden(weights, toks, context, Precision.NVFP4,
                              own_diagonal=True)
        for pos in (0, 1, 40, 120, 127, 128, 129, 256, 299):
            step = final_hidden(weights, [toks[pos]], cut_cache(context, pos),
                                Precision.NVFP4)
            assert step.tobytes() == forced[pos:pos + 1].tobytes(), pos


class TestPromptPassLastRow:
    """A pass that writes the cache computes every row up to the last
    block's K/V write, then that block's attention, MLP and the output
    head for the last row alone.  What it hands on keeps its bits: the K/V
    and attention records are the all-rows oracle's in both precisions, and
    on the 4-bit path the logits are the decode step's.  At the benchmark
    geometry."""

    LENGTHS = (2, 3, 127, 128, 129, 257, 512)

    @pytest.fixture(scope="class")
    def weights(self):
        return toy_weights(20260517, vocab_size=512, d_model=256,
                           ffn_hidden=1024, n_layers=2, n_heads=16,
                           max_seq_len=1024)

    @pytest.fixture(scope="class")
    def tokens(self):
        return [int(t) for t in np.random.default_rng(53).integers(0, 512, 600)]

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("prec", list(Precision))
    def test_kv_and_record_equal_all_rows_oracle(self, weights, tokens, prec,
                                                 length):
        cfg = weights.config
        toks = tokens[:length]
        kv = KvCache(cfg)
        record = np.zeros((cfg.n_layers, cfg.n_heads, length), np.float32)
        rows = full_forward_logits(weights, toks, prec, kv=kv, record=record)
        res = prefill(weights, toks, prec, record_attention=True)
        assert_same_kv(res.kv, kv, length)
        assert res.attention.tobytes() == record.tobytes()
        # only one-row float32 products (the output head, float32 linears)
        # move the logits
        assert rel_logits_err(res.logits, rows[-1]) <= 1e-6

    @pytest.mark.parametrize("length", LENGTHS)
    def test_fp4_logits_equal_decode_step_on_cut_cache(self, weights, tokens,
                                                       length):
        res = prefill(weights, tokens[:length], Precision.NVFP4)
        step = decode_step(weights, cut_cache(res.kv, length - 1),
                           tokens[length - 1], Precision.NVFP4)
        assert res.logits.tobytes() == step.tobytes()

    @pytest.mark.parametrize("chunk", [1, 37, 128, 200])
    def test_chunked_fp4_logits_equal_one_shot(self, weights, tokens, chunk):
        end = 400
        kv = KvCache(weights.config)
        for start in range(0, end, chunk):
            res = prefill(weights, tokens[start:min(start + chunk, end)],
                          Precision.NVFP4, kv=kv)
        one_shot = prefill(weights, tokens[:end], Precision.NVFP4)
        assert res.logits.tobytes() == one_shot.logits.tobytes()
        assert_same_kv(kv, one_shot.kv, end)

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_perplexity_equals_its_value_on_the_oracle_cache(
            self, weights, tokens, mode, monkeypatch):
        corpus = [tokens[:2], tokens[2:5], tokens[10:140], tokens[200:460]]
        got = analysis.perplexity(weights, mode, corpus)

        def oracle_prefill(w, toks, precision, every_row=False):
            kv = KvCache(w.config)
            rows = full_forward_logits(w, toks, precision, kv=kv)
            return model.PrefillResult(kv=kv,
                                       logits=rows if every_row else rows[-1])

        monkeypatch.setattr(analysis, "prefill", oracle_prefill)
        assert analysis.perplexity(weights, mode, corpus) == got

    @pytest.mark.parametrize("prec", list(Precision))
    def test_last_block_runs_attn_out_and_mlp_on_one_row(
            self, weights, tokens, prec, monkeypatch):
        seen = []
        linears = model._linears

        def spy(x, names, *rest):
            seen.append((rest[-1], names, len(x)))
            return linears(x, names, *rest)

        monkeypatch.setattr(model, "_linears", spy)
        qkv, out = ("attn_q", "attn_k", "attn_v"), ("attn_out",)
        gate_up, down = ("mlp_gate", "mlp_up"), ("mlp_down",)
        kv = prefill(weights, tokens[:129], prec).kv
        assert seen == [(0, qkv, 129), (0, out, 129), (0, gate_up, 129),
                        (0, down, 129), (1, qkv, 129), (1, out, 1),
                        (1, gate_up, 1), (1, down, 1)]
        seen.clear()  # teacher forcing keeps every row
        teacher_forced_logits(weights, tokens[129:149], kv, prec)
        assert {rows for _, _, rows in seen} == {20}
        seen.clear()  # 600 tokens: three chunks of 200 rows; the first two
        # hand on only their K/V, the last as above
        prefill(weights, tokens[:600], prec)
        first = [(0, qkv, 200), (0, out, 200), (0, gate_up, 200),
                 (0, down, 200)]
        assert seen == (2 * (first + [(1, ("attn_k", "attn_v"), 200)])
                        + first + [(1, qkv, 200), (1, out, 1),
                                   (1, gate_up, 1), (1, down, 1)])

    def test_chunk_before_the_last_stops_at_its_kv_write(
            self, weights, tokens, monkeypatch):
        # 600 tokens at 4 bits: in each of the first two chunks the last
        # layer makes its k and v products only, and the output head runs
        # once, in the last chunk
        products, heads = [], []
        qgemm_rows, rmsnorm = model.qgemm_rows, model._rmsnorm
        shadows = {id(weights.shadow(1, name)): name
                   for name in ("attn_q", "attn_k", "attn_v", "attn_out",
                                "mlp_gate", "mlp_up", "mlp_down")}

        def product(act, w):
            products.append((shadows.get(id(w)), len(act.codes)))
            return qgemm_rows(act, w)

        def norm(x, gain):
            if gain is weights.final_norm_gain:
                heads.append(len(x))
            return rmsnorm(x, gain)

        monkeypatch.setattr(model, "qgemm_rows", product)
        monkeypatch.setattr(model, "_rmsnorm", norm)
        prefill(weights, tokens[:600], Precision.NVFP4)
        last_layer = [p for p in products if p[0] is not None]
        assert last_layer == (2 * [("attn_k", 200), ("attn_v", 200)]
                              + [("attn_q", 200), ("attn_k", 200),
                                 ("attn_v", 200), ("attn_out", 1),
                                 ("mlp_gate", 1), ("mlp_up", 1),
                                 ("mlp_down", 1)])
        assert heads == [1]


class TestChunkedPromptPass:
    """A prompt of more than ``_PREFILL_CHUNK`` rows runs in chunks on one
    cache: memory bounded by the chunk, and a refused prompt writes
    nothing.  At the benchmark geometry."""

    @pytest.fixture(scope="class")
    def weights(self):
        return toy_weights(20260517, vocab_size=512, d_model=256,
                           ffn_hidden=1024, n_layers=2, n_heads=16,
                           max_seq_len=1024)

    @pytest.fixture(scope="class")
    def tokens(self):
        return [int(t) for t in np.random.default_rng(59).integers(0, 512, 1100)]

    @pytest.mark.parametrize("prec", list(Precision))
    def test_peak_memory_does_not_grow_with_the_prompt(self, weights, tokens,
                                                        prec):
        # measured: 1,000 tokens peak +0.06 MB (float32) and -0.10 MB
        # (4-bit) from 512; before chunking, +11.7 MB and +14.8 MB
        prefill(weights, tokens[:300], prec)  # weight shadows, rotary tables
        peaks = []
        for length in (512, 1000):
            kv = KvCache(weights.config)
            tracemalloc.start()
            try:
                prefill(weights, tokens[:length], prec, kv=kv)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + (1 << 19)

    @pytest.mark.parametrize("prec", list(Precision))
    @pytest.mark.parametrize("prefix,fault", [(100, "vocabulary"),
                                              (800, "overflow")])
    def test_refused_append_writes_nothing(self, weights, tokens, prec,
                                           prefix, fault):
        # 300 tokens are two chunks of 150; the first would fit either way
        kv = prefill(weights, tokens[:prefix], prec).kv
        keys = [k.tobytes() for k in kv.keys]
        values = [v.tobytes() for v in kv.values]
        append = tokens[prefix:prefix + 300]
        if fault == "vocabulary":
            append[-1] = weights.config.vocab_size
            with pytest.raises(ValueError, match="token id outside vocabulary"):
                prefill(weights, append, prec, kv=kv)
        else:
            with pytest.raises(ContextOverflowError,
                               match="position 1099 exceeds max_seq_len 1024") as err:
                prefill(weights, append, prec, kv=kv)
            assert err.value.position == 1099
        assert kv.length == prefix
        assert [k.tobytes() for k in kv.keys] == keys
        assert [v.tobytes() for v in kv.values] == values


class TestIdentityQuantizer:
    def test_nvfp4_collapses_to_high(self, weights, identity_quantizer):
        toks = [11, 7, 2, 30]
        with identity_quantizer():
            a = prefill(weights, toks, Precision.NVFP4)
            b = prefill(weights, toks, Precision.HIGH)
            assert np.array_equal(a.logits, b.logits)
            for layer in range(weights.config.n_layers):
                assert np.array_equal(
                    a.kv.keys[layer][:4], b.kv.keys[layer][:4]
                )

    def test_real_nvfp4_differs(self, weights):
        toks = [11, 7, 2, 30]
        a = prefill(weights, toks, Precision.NVFP4)
        b = prefill(weights, toks, Precision.HIGH)
        assert not np.array_equal(a.logits, b.logits)


class TestForwardBlock:
    def test_zero_hidden_rmsnorm_returns_zeros(self):
        from phasequant.model import _rmsnorm

        x = np.zeros((3, 32), np.float32)
        out = _rmsnorm(x, np.ones(32, np.float32))
        assert (out == 0.0).all()

    def test_zero_hidden_input_gives_position_independent_output(self, weights):
        # norm-of-zero yields zeros, so with no biases every sublayer emits
        # zeros and the residual output equals the (zero) constant everywhere
        from phasequant.model import forward_block

        cfg = weights.config
        kv = KvCache(cfg)
        x = np.zeros((5, cfg.d_model), np.float32)
        out = forward_block(weights, 0, x, kv, Precision.HIGH)
        assert (out == 0.0).all()

    def test_high_path_deterministic(self, weights):
        from phasequant.model import forward_block

        cfg = weights.config
        rng = np.random.default_rng(31)
        x = rng.normal(size=(4, cfg.d_model)).astype(np.float32)
        outs = []
        for _ in range(2):
            kv = KvCache(cfg)
            outs.append(
                forward_block(weights, 0, x.copy(), kv, Precision.HIGH)
            )
        assert np.array_equal(outs[0], outs[1])

    def test_identity_quantizer_matches_high_per_block(self, weights,
                                                        identity_quantizer):
        from phasequant.model import forward_block

        cfg = weights.config
        rng = np.random.default_rng(32)
        x = rng.normal(size=(3, cfg.d_model)).astype(np.float32)
        kv_high = KvCache(cfg)
        high = forward_block(weights, 1, x.copy(), kv_high, Precision.HIGH)
        with identity_quantizer():
            kv_q = KvCache(cfg)
            low = forward_block(weights, 1, x.copy(), kv_q, Precision.NVFP4)
        assert np.array_equal(high, low)


def per_call_rope_tables(cfg, positions):
    """Oracle: the rotary cos and sin tables built for ``positions`` alone,
    as each block built them before the per-config table."""
    half = cfg.head_dim // 2
    inv_freq = cfg.rope_base ** (-np.arange(half, dtype=np.float64) * 2.0 / cfg.head_dim)
    ang = positions[:, None].astype(np.float64) * inv_freq[None, :]
    cos = np.concatenate([np.cos(ang), np.cos(ang)], axis=1).astype(np.float32)
    sin = np.concatenate([np.sin(ang), np.sin(ang)], axis=1).astype(np.float32)
    return cos, sin


class TestRopeTable:
    @pytest.mark.parametrize("start,length", [
        (0, 1), (0, 800), (1, 1), (7, 33), (127, 2), (500, 1), (799, 225),
    ])
    def test_slice_equals_table_built_for_those_positions(self, start, length):
        cfg = ModelConfig(vocab_size=512, d_model=256, n_layers=1, n_heads=16,
                          max_seq_len=1024, seed=0)
        tables = model._rope_table(cfg)
        oracle = per_call_rope_tables(cfg, np.arange(start, start + length))
        for table, want in zip(tables, oracle):
            assert table[start:start + length].tobytes() == want.tobytes()

    def test_built_once_per_config_and_read_only(self):
        cfg = toy_config(3)
        cos, sin = model._rope_table(cfg)
        assert model._rope_table(toy_config(3))[0] is cos
        assert cos.shape == sin.shape == (cfg.max_seq_len, cfg.head_dim)
        with pytest.raises(ValueError):
            cos[0, 0] = 2.0

    def test_scaled_query_tables_rotate_then_scale_at_head_dim_16(self):
        # 1/sqrt(16) is a power of two, so folding it into the tables
        # gives the bits of scaling the rotated query
        cfg = toy_config(3)
        assert cfg.head_dim == 16
        x = np.random.default_rng(5).standard_normal(
            (cfg.max_seq_len, 2, 16)).astype(np.float32)
        folded = model._apply_rope(x, *model._rope_table(cfg, 0.25))
        rotated = model._apply_rope(x, *model._rope_table(cfg))
        assert folded.tobytes() == (rotated * np.float32(0.25)).tobytes()


@pytest.mark.parametrize("shape", [(1, 256), (7, 96), (300, 256), (2, 1000)])
def test_rmsnorm_keeps_the_bits_of_np_mean(shape):
    rng = np.random.default_rng(9)
    x = (rng.standard_normal(shape) * 30).astype(np.float32)
    gain = rng.standard_normal(shape[-1]).astype(np.float32)
    ms = np.mean(x * x, axis=-1, keepdims=True)
    want = x * (np.float32(1.0) / np.sqrt(ms + model.RMSNORM_EPS)) * gain
    assert model._rmsnorm(x, gain).tobytes() == want.tobytes()


class TestWeightFile:
    def test_round_trip_bit_exact(self, tmp_path):
        w = toy_weights(21)
        path = str(tmp_path / "m.mxqw")
        save_model(w, path)
        back = load_model(path)
        assert back.config == w.config
        assert np.array_equal(back.embedding, w.embedding)
        for la, lb in zip(w.layers, back.layers):
            for name in ("attn_norm_gain", "attn_q", "attn_k", "attn_v",
                         "attn_out", "mlp_norm_gain", "mlp_gate", "mlp_up",
                         "mlp_down"):
                assert np.array_equal(getattr(la, name), getattr(lb, name))
        assert np.array_equal(back.final_norm_gain, w.final_norm_gain)

    def test_tensors_at_documented_offsets(self, tmp_path):
        # each tensor filled with its own tag: the tags must sit in the file
        # in the documented order, and load them back into the same fields
        w = init_model(toy_config(25))
        entries = documented_tensors(w.config)
        for tag, (layer, name, shape) in enumerate(entries, start=1):
            owner = w if layer is None else w.layers[layer]
            setattr(owner, name, np.full(shape, tag, np.float32))
        path = str(tmp_path / "m.mxqw")
        save_model(w, path)
        raw = Path(path).read_bytes()
        off = 16 + len(w.config.config_block())
        for tag, (_, name, shape) in enumerate(entries, start=1):
            size = math.prod(shape)
            body = np.frombuffer(raw, dtype="<f4", count=size, offset=off)
            assert (body == tag).all(), (tag, name)
            off += 4 * size
        assert off == len(raw)
        back = load_model(path)
        for tag, (layer, name, shape) in enumerate(entries, start=1):
            tensor = tensor_of(back, layer, name)
            assert tensor.shape == shape
            assert (tensor == tag).all(), (tag, name)

    def test_length_checked_before_any_per_layer_work(self, tmp_path,
                                                     monkeypatch):
        # a 60-byte file whose header, digest included, is well formed and
        # claims 2**32 - 1 layers: refused by its length, without building
        # a per-layer layout
        cfg = ModelConfig(vocab_size=64, d_model=32, n_layers=2**32 - 1,
                          n_heads=2, max_seq_len=8, seed=0)
        path = tmp_path / "m.mxqw"
        path.write_bytes(b"MXQW" + struct.pack("<IQ", 1, cfg.digest())
                         + cfg.config_block())
        real_layout = model._layout

        def small_layout(config):
            assert config.n_layers < 1000, "layout built for every layer"
            return real_layout(config)

        monkeypatch.setattr(model, "_layout", small_layout)
        # embedding and final norm, then per layer two norms, four d x d
        # projections and three d x 4d ones
        floats = 64 * 32 + 32 + (2**32 - 1) * (2 * 32 + 4 * 32 * 32
                                               + 3 * 32 * 128)
        with pytest.raises(ValueError,
                           match=f"^weight file is 60 bytes, not {60 + 4 * floats}$"):
            load_model(str(path))

    def test_header_layout(self, tmp_path):
        w = toy_weights(22)
        path = str(tmp_path / "m.mxqw")
        save_model(w, path)
        raw = Path(path).read_bytes()
        assert raw[:4] == b"MXQW"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:16], "little") == w.config.digest()

    def test_zero_width_file_rejected(self, tmp_path):
        # a well-formed header whose config has d_model = 0 and no tensors
        block = struct.pack("<IIIIIII d Q", 16, 0, 1, 1, 0, 0, 8, 10000.0, 0)
        digest = fnv1a64(block)
        path = tmp_path / "m.mxqw"
        path.write_bytes(b"MXQW" + struct.pack("<IQ", 1, digest) + block)
        with pytest.raises(ConfigError):
            load_model(str(path))

    @pytest.mark.parametrize("head_dim", [0, 8, 32])
    def test_head_dim_other_than_d_model_over_n_heads_rejected(
            self, tmp_path, head_dim):
        # d_model 32 over 2 heads is 16; the stored field must say so, and
        # the digest matches the block, so only that field is wrong
        block = struct.pack("<IIIIIII d Q", 64, 32, 1, 2, head_dim, 64, 8,
                            10000.0, 0)
        path = tmp_path / "m.mxqw"
        path.write_bytes(b"MXQW" + struct.pack("<IQ", 1, fnv1a64(block)) + block)
        with pytest.raises(ConfigError, match="head_dim"):
            load_model(str(path))

    def test_corrupt_digest_rejected(self, tmp_path):
        w = toy_weights(23)
        path = str(tmp_path / "m.mxqw")
        save_model(w, path)
        raw = bytearray(Path(path).read_bytes())
        raw[8] ^= 0xFF
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_model(path)

    def test_loaded_model_runs_identically(self, tmp_path):
        w = toy_weights(24)
        path = str(tmp_path / "m.mxqw")
        save_model(w, path)
        back = load_model(path)
        toks = [1, 2, 3, 4]
        for prec in Precision:
            assert np.array_equal(
                prefill(w, toks, prec).logits, prefill(back, toks, prec).logits
            )


class TestChunkedPrefill:
    def test_appended_chunk_continues_cache(self, weights):
        toks = [4, 8, 15, 16, 23, 42]
        res_a = prefill(weights, toks[:4], Precision.HIGH)
        res_b = prefill(weights, toks[4:], Precision.HIGH, kv=res_a.kv)
        assert res_b.kv.length == 6
        one_shot = prefill(weights, toks, Precision.HIGH)
        assert rel_logits_err(res_b.logits, one_shot.logits) <= 1e-5
