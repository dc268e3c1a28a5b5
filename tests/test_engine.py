import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasequant import disagg, engine
from phasequant.engine import (
    ExecutionMode,
    SamplerSpec,
    decode_distribution,
    generate,
    parse_trajectory_dump,
    render_trajectory,
)
from phasequant.errors import ContextOverflowError, NonFiniteError
from phasequant.model import Precision, decode_step, prefill
from phasequant.rng import SplitMix64

GREEDY8 = SamplerSpec(max_new_tokens=8)


class TestModes:
    def test_mode_precision_pairs(self):
        assert ExecutionMode.BASELINE16.prefill_precision is Precision.HIGH
        assert ExecutionMode.BASELINE16.decode_precision is Precision.HIGH
        assert ExecutionMode.UNIFORM_FP4.prefill_precision is Precision.NVFP4
        assert ExecutionMode.UNIFORM_FP4.decode_precision is Precision.NVFP4
        assert ExecutionMode.MIX_QUANT.prefill_precision is Precision.NVFP4
        assert ExecutionMode.MIX_QUANT.decode_precision is Precision.HIGH
        assert ExecutionMode.P16D4.prefill_precision is Precision.HIGH
        assert ExecutionMode.P16D4.decode_precision is Precision.NVFP4

    def test_order_and_names_pin_wire_index_and_dump_text(self):
        # the wire index is the definition order and the dump prints .value
        assert [(m.name, m.value) for m in ExecutionMode] == [
            ("BASELINE16", "baseline16"), ("UNIFORM_FP4", "uniform_fp4"),
            ("MIX_QUANT", "mixquant"), ("P16D4", "p16d4")]
        for index, mode in enumerate(ExecutionMode):
            assert ExecutionMode(mode.value) is mode
            body = disagg.encode_generate_req(mode, GREEDY8, [1])
            assert body[0] == index

    def test_from_name(self):
        assert ExecutionMode.from_name("MixQuant") is ExecutionMode.MIX_QUANT
        assert ExecutionMode.from_name("uniform-fp4") is ExecutionMode.UNIFORM_FP4
        with pytest.raises(ValueError):
            ExecutionMode.from_name("bf16")


class TestDecodeDistribution:
    def test_uniform_logits_tie_breaks_to_zero(self):
        logits = np.zeros(16, np.float32)
        token, probs, _ = decode_distribution(logits, SamplerSpec())
        assert token == 0
        assert np.allclose(probs, 1.0 / 16.0, atol=1e-7)

    def test_one_hot_logits(self):
        logits = np.zeros(16, np.float32)
        logits[7] = 10.0
        token, _, _ = decode_distribution(logits, SamplerSpec())
        assert token == 7
        sampler = SamplerSpec(strategy="temperature", temperature=0.5, seed=3,
                              max_new_tokens=1)
        token, _, _ = decode_distribution(logits, sampler, SplitMix64(3))
        assert token == 7

    def test_probabilities_match_double_precision_softmax(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = rng.normal(scale=3.0, size=32).astype(np.float32)
            _, probs, _ = decode_distribution(logits, SamplerSpec())
            assert abs(float(probs.sum()) - 1.0) <= 1e-6
            ref = np.exp(logits.astype(np.float64))
            ref /= ref.sum()
            assert np.abs(probs - ref).max() <= 1e-5

    def test_non_finite_rejected(self):
        bad = np.zeros(4, np.float32)
        bad[1] = np.inf
        with pytest.raises(NonFiniteError):
            decode_distribution(bad, SamplerSpec())

    def test_temperature_overflow_rejected(self, weights):
        # a subnormal float32 temperature passes the spec's checks, but the
        # quotient overflows: that fails like a non-finite logit, not as a
        # nan distribution
        sampler = SamplerSpec(strategy="temperature", temperature=1e-40,
                              seed=3)
        logits = prefill(weights, [8, 2, 44], Precision.HIGH).logits
        with pytest.raises(NonFiniteError):
            decode_distribution(logits, sampler, SplitMix64(3))
        with pytest.raises(NonFiniteError):
            generate(weights, [8, 2, 44], ExecutionMode.MIX_QUANT, sampler)

    def test_temperature_requires_seed(self):
        with pytest.raises(ValueError):
            SamplerSpec(strategy="temperature", temperature=0.7)

    @pytest.mark.parametrize("fields", [
        dict(stop_token=-5),
        dict(stop_token=1 << 63),
        dict(max_new_tokens=-1),
        dict(max_new_tokens=1 << 32),
        dict(temperature=1e-50),
        dict(temperature=1e39),
        dict(temperature=float("inf")),
    ], ids=["negative-stop", "wide-stop", "negative-max-new", "wide-max-new",
            "zero-in-float32", "inf-in-float32", "inf"])
    def test_spec_outside_the_wire_record_rejected(self, fields):
        fields = dict(dict(strategy="temperature", seed=1), **fields)
        with pytest.raises(ValueError):
            SamplerSpec(**fields)

    def test_temperature_kept_as_its_float32_value(self):
        spec = SamplerSpec(strategy="temperature", temperature=0.1, seed=1)
        assert spec.temperature == float(np.float32(0.1))
        assert spec == SamplerSpec(strategy="temperature",
                                   temperature=float(np.float32(0.1)), seed=1)

    def test_greedy_normal_form(self):
        # greedy draws nothing, so a seed or temperature given to it is
        # dropped: the spec equals the default one and renders like it
        assert SamplerSpec(strategy="greedy", seed=5, temperature=0.3) \
            == SamplerSpec()

    def test_temperature_sampling_deterministic(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=16).astype(np.float32)
        sampler = SamplerSpec(strategy="temperature", temperature=1.3, seed=99,
                              max_new_tokens=1)
        a = decode_distribution(logits, sampler, SplitMix64(99))
        b = decode_distribution(logits, sampler, SplitMix64(99))
        assert a[0] == b[0]

    def test_inverse_cdf_walks_ascending_ids(self):
        # two equally likely tokens: u below 0.5 picks id 0, above picks id 1
        logits = np.zeros(2, np.float32)
        sampler = SamplerSpec(strategy="temperature", temperature=1.0, seed=0,
                              max_new_tokens=1)

        class FakeRng:
            def __init__(self, u):
                self.u = u

            def next_float(self):
                return self.u

        assert decode_distribution(logits, sampler, FakeRng(0.2))[0] == 0
        assert decode_distribution(logits, sampler, FakeRng(0.8))[0] == 1

    @pytest.mark.parametrize("sampler", [
        SamplerSpec(),
        SamplerSpec(strategy="temperature", temperature=0.7, seed=4),
    ], ids=["greedy", "temperature"])
    def test_log_probabilities_from_the_same_softmax(self, sampler):
        # the stored log-probabilities, bit for bit as a separate
        # log-softmax of the sampling logits computes them
        rng = np.random.default_rng(2)
        for _ in range(20):
            logits = rng.normal(scale=4.0, size=64).astype(np.float32)
            dist = decode_distribution(logits, sampler, SplitMix64(4))
            token, probs, _ = dist
            arr = logits / np.float32(sampler.temperature) \
                if sampler.strategy == "temperature" else logits
            shifted = arr - arr.max()
            want = shifted - np.log(np.exp(shifted).sum())
            assert dist.logprobs.dtype == np.float32
            assert dist.logprobs.tobytes() == want.tobytes()
            assert (token, probs.tobytes()) == (dist[0], dist[1].tobytes())

    def test_one_distribution_per_step(self, weights, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args[0])
            return decode_distribution(*args)

        monkeypatch.setattr(engine, "decode_distribution", spy)
        traj = generate(weights, [3, 1, 4], ExecutionMode.MIX_QUANT,
                        SamplerSpec(max_new_tokens=5))
        assert len(calls) == len(traj.tokens) == 5


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_softmax_shift_invariance(shift):
    logits = np.array([0.3, -1.2, 2.0, 0.0, 0.7], np.float32)
    t0, p0, _ = decode_distribution(logits, SamplerSpec())
    t1, p1, _ = decode_distribution(logits + np.float32(shift), SamplerSpec())
    assert t0 == t1
    assert np.abs(p0 - p1).max() <= 1e-6


class TestGenerate:
    def test_greedy_deterministic(self, weights):
        prompt = [5, 1, 32]
        for mode in ExecutionMode:
            a = generate(weights, prompt, mode, GREEDY8)
            b = generate(weights, prompt, mode, GREEDY8)
            assert a.tokens == b.tokens
            assert all(np.array_equal(x, y) for x, y in zip(a.logprobs, b.logprobs))

    def test_identity_quantizer_collapse(self, weights, identity_quantizer):
        prompt = [5, 1, 32]
        with identity_quantizer():
            trajs = {m: generate(weights, prompt, m, GREEDY8) for m in ExecutionMode}
        ref = trajs[ExecutionMode.BASELINE16]
        for mode, traj in trajs.items():
            assert traj.tokens == ref.tokens, mode
            for a, b in zip(traj.logprobs, ref.logprobs):
                assert np.array_equal(a, b)

    def test_mode_factorization(self, weights):
        # generate() must equal composing prefill + decode_step by hand
        prompt = [9, 2, 4]
        traj = generate(weights, prompt, ExecutionMode.MIX_QUANT,
                        SamplerSpec(max_new_tokens=5))
        res = prefill(weights, prompt, Precision.NVFP4)
        logits = res.logits
        tokens = []
        for step in range(5):
            tok = int(np.argmax(logits))
            tokens.append(tok)
            if step < 4:
                logits = decode_step(weights, res.kv, tok, Precision.HIGH)
        assert traj.tokens == tokens

    def test_prefix_stability_under_extension(self, weights):
        prompt = [3, 7]
        short = generate(weights, prompt, ExecutionMode.BASELINE16,
                         SamplerSpec(max_new_tokens=4))
        long = generate(weights, prompt, ExecutionMode.BASELINE16,
                        SamplerSpec(max_new_tokens=9))
        assert long.tokens[:4] == short.tokens
        for a, b in zip(short.logprobs, long.logprobs):
            assert np.array_equal(a, b)

    def test_stop_token_halts_and_is_recorded(self, weights):
        probe = generate(weights, [3, 7], ExecutionMode.BASELINE16,
                         SamplerSpec(max_new_tokens=6))
        stop = probe.tokens[0]
        traj = generate(weights, [3, 7], ExecutionMode.BASELINE16,
                        SamplerSpec(max_new_tokens=6, stop_token=stop))
        assert traj.tokens == probe.tokens[:1]
        assert len(traj.logprobs) == 1

    def test_context_overflow_reports_position(self, weights):
        cap = weights.config.max_seq_len
        with pytest.raises(ContextOverflowError) as err:
            generate(weights, [1] * (cap - 2), ExecutionMode.BASELINE16,
                     SamplerSpec(max_new_tokens=8))
        # prompt occupies cap-2 entries, 8 new tokens need 7 more positions
        assert err.value.position == cap + 4

    def test_distributions_are_normalized(self, weights):
        traj = generate(weights, [4, 4, 8], ExecutionMode.UNIFORM_FP4, GREEDY8)
        for lp in traj.logprobs:
            total = np.exp(lp.astype(np.float64)).sum()
            assert abs(total - 1.0) <= 1e-6

    def test_temperature_generation_deterministic(self, weights):
        sampler = SamplerSpec(strategy="temperature", temperature=0.9, seed=17,
                              max_new_tokens=6)
        a = generate(weights, [2, 3], ExecutionMode.MIX_QUANT, sampler)
        b = generate(weights, [2, 3], ExecutionMode.MIX_QUANT, sampler)
        assert a.tokens == b.tokens
        c = generate(weights, [2, 3], ExecutionMode.MIX_QUANT,
                     SamplerSpec(strategy="temperature", temperature=0.9,
                                 seed=18, max_new_tokens=6))
        assert isinstance(c.tokens, list)


class TestTrajectoryDump:
    def test_render_and_parse_round_trip(self, weights):
        traj = generate(weights, [1, 2, 3], ExecutionMode.MIX_QUANT, GREEDY8)
        text = render_trajectory(traj)
        parsed = parse_trajectory_dump(text)
        assert parsed["tokens"] == traj.tokens
        assert parsed["prompt"] == [1, 2, 3]
        assert parsed["header"]["mode"] == "mixquant"
        assert parsed["header"]["sampler"] == "greedy"
        assert parsed["header"]["digest"] == f"{weights.config.digest():016x}"

    def test_top8_descending_probability_ties_by_id(self, weights):
        traj = generate(weights, [1, 2, 3], ExecutionMode.BASELINE16,
                        SamplerSpec(max_new_tokens=2))
        parsed = parse_trajectory_dump(render_trajectory(traj))
        for step_pairs, lp in zip(parsed["top8"], traj.logprobs):
            assert len(step_pairs) == min(8, weights.config.vocab_size)
            lps = [p for _, p in step_pairs]
            assert lps == sorted(lps, reverse=True)
            expected = list(np.argsort(-lp, kind="stable")[:8])
            assert [t for t, _ in step_pairs] == [int(t) for t in expected]

    def test_logprobs_round_trip_through_text(self, weights):
        traj = generate(weights, [6], ExecutionMode.BASELINE16,
                        SamplerSpec(max_new_tokens=1))
        parsed = parse_trajectory_dump(render_trajectory(traj))
        tid, lp = parsed["top8"][0][0]
        assert np.float32(lp) == traj.logprobs[0][tid]
