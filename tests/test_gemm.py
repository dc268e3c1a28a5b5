import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale_after_qgemm
from phasequant import formats, gemm
from phasequant.errors import ShapeMismatchError
from phasequant.gemm import (
    qgemm,
    qgemm_mirror,
    qgemm_rows,
    reference_gemm,
)
from phasequant.quantizer import (
    GROUP_SIZE,
    QuantConfig,
    QuantizedTensor,
    RowQuantizedActivation,
    TensorScalePolicy,
    dequantize,
    quantize,
    quantize_rows,
)

UNIT = QuantConfig(policy=TensorScalePolicy.UNIT)


def random_instance(rng, max_mn=64, max_blocks=64, policy=None):
    m = int(rng.integers(1, max_mn + 1))
    n = int(rng.integers(1, max_mn + 1))
    k = 16 * int(rng.integers(1, max_blocks + 1))
    cfg = policy or QuantConfig()
    a = quantize(
        (rng.normal(size=(m, k)) * 10 ** rng.uniform(-2, 2)).astype(np.float32), cfg
    )
    w = quantize(rng.normal(size=(n, k)).astype(np.float32), cfg)
    return a, w


class TestWorkedExamples:
    def test_zero_times_zero(self):
        z = quantize(np.zeros((3, 32), np.float32))
        out = qgemm(z, quantize(np.zeros((5, 32), np.float32)))
        assert out.shape == (3, 5)
        assert (out == 0.0).all()

    def test_all_threes_dot(self):
        row = np.full((1, 16), 3.0, np.float32)
        out = qgemm(quantize(row, UNIT), quantize(row, UNIT))
        assert out.shape == (1, 1)
        assert float(out[0, 0]) == 144.0  # 16 * 3 * 3

    def test_single_entry_identity_case_reference(self):
        # dequantized views with one 1.0 entry each at the same column
        a = np.zeros((1, 16), np.float32)
        w = np.zeros((1, 16), np.float32)
        a[0, 5] = 1.0
        w[0, 5] = 1.0
        assert float(reference_gemm(a, w)[0, 0]) == 1.0

    def test_single_exact_entry_through_qgemm(self):
        # 0.75 gives block ratio 0.125 (exactly on the 8-bit grid), so the
        # lone entry survives the round trip and the product is exact
        a = np.zeros((1, 16), np.float32)
        w = np.zeros((1, 16), np.float32)
        a[0, 5] = 0.75
        w[0, 5] = 0.75
        out = qgemm(quantize(a, UNIT), quantize(w, UNIT))
        assert float(out[0, 0]) == 0.5625

    def test_reference_gemm_zero_times_anything(self):
        rng = np.random.default_rng(99)
        z = np.zeros((3, 32), np.float32)
        w = rng.normal(size=(5, 32)).astype(np.float32)
        assert (reference_gemm(z, w) == 0.0).all()

    def test_shape_mismatch_rejected(self):
        a = quantize(np.zeros((2, 32), np.float32))
        w = quantize(np.zeros((2, 16), np.float32))
        with pytest.raises(ShapeMismatchError):
            qgemm(a, w)
        with pytest.raises(ShapeMismatchError):
            reference_gemm(np.zeros((2, 32)), np.zeros((2, 16)))


class TestOperandCheck:
    """Every kernel entry point validates its operands the same way."""

    @staticmethod
    def products(a, w):
        # k = 24 has no fold (its codes are not whole blocks), so any m x k
        # array stands in: the operand check refuses it before reading it
        m, k = a.codes.shape
        fold = (a.folded() if k % GROUP_SIZE == 0
                else np.zeros((m, k), np.float32))
        rows = RowQuantizedActivation(
            a.codes, a.block_scales, np.full(m, a.tensor_scale), fold)
        return (lambda: qgemm(a, w), lambda: qgemm_mirror(a, w),
                lambda: qgemm_rows(rows, w))

    @staticmethod
    def k24():
        # 24 columns are not whole 16-wide blocks, so the quantizer cannot
        # produce this operand; it is built directly
        return QuantizedTensor(np.zeros((1, 24), np.uint8),
                               np.zeros((1, 2), np.uint8), np.float32(1))

    def test_product_shape(self):
        a = quantize(np.zeros((3, 32), np.float32))
        w = quantize(np.zeros((5, 32), np.float32))
        for product in self.products(a, w):
            assert product().shape == (3, 5)

    def test_invalid_operands_rejected(self):
        cases = [
            # k = 24 is not a multiple of 16
            (self.k24(), self.k24()),
            # m = 0
            (quantize(np.zeros((0, 16), np.float32)),
             quantize(np.ones((1, 16), np.float32))),
            # n = 0
            (quantize(np.ones((1, 16), np.float32)),
             quantize(np.zeros((0, 16), np.float32))),
            # k = 0
            (quantize(np.zeros((1, 0), np.float32)),
             quantize(np.zeros((1, 0), np.float32))),
            # reduction dims differ
            (quantize(np.ones((1, 32), np.float32)),
             quantize(np.ones((1, 16), np.float32))),
        ]
        for a, w in cases:
            for product in self.products(a, w):
                with pytest.raises(ShapeMismatchError):
                    product()


class TestMirrorEquivalence:
    def test_bit_exact_on_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            a, w = random_instance(rng, max_mn=32, max_blocks=16)
            assert np.array_equal(qgemm(a, w), qgemm_mirror(a, w))
            assert qgemm(a, w).tobytes() == scale_after_qgemm(a, w).tobytes()

    def test_full_dequant_multiply_bit_exact_under_unit_policy(self):
        # With a unit tensor scale, dequantized values are exact products,
        # so a dequantize-then-multiply in the same block order matches the
        # fused kernel bit for bit.
        rng = np.random.default_rng(101)
        for _ in range(100):
            a, w = random_instance(rng, max_mn=16, max_blocks=8, policy=UNIT)
            av = dequantize(a)
            wv = dequantize(w)
            acc = np.zeros((av.shape[0], wv.shape[0]), dtype=np.float32)
            for b in range(av.shape[1] // 16):
                lo = 16 * b
                acc += av[:, lo : lo + 16] @ wv[:, lo : lo + 16].T
            assert np.array_equal(qgemm(a, w), acc)


class TestReferenceOracle:
    def test_within_relative_tolerance(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            a, w = random_instance(rng, max_mn=32, max_blocks=64)
            got = qgemm(a, w).astype(np.float64)
            ref = reference_gemm(dequantize(a), dequantize(w))
            scale = max(np.abs(ref).max(), 1e-30)
            assert np.abs(got - ref).max() / scale <= 1e-5

    def test_deep_reduction_k_4096(self):
        rng = np.random.default_rng(106)
        a = quantize(rng.normal(size=(4, 4096)).astype(np.float32))
        w = quantize(rng.normal(size=(6, 4096)).astype(np.float32))
        got = qgemm(a, w).astype(np.float64)
        ref = reference_gemm(dequantize(a), dequantize(w))
        assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-5
        assert np.array_equal(qgemm(a, w), qgemm_mirror(a, w))


class TestExactness:
    def test_fp4_products_exact_in_float32(self):
        mags = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
        for x in mags:
            for y in mags:
                exact = float(x) * float(y)
                assert float(np.float32(x) * np.float32(y)) == exact

    def test_block_inner_products_exact_any_order(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            qa = formats.decode_fp4(rng.integers(0, 16, size=16).astype(np.uint8))
            qw = formats.decode_fp4(rng.integers(0, 16, size=16).astype(np.uint8))
            forward = np.float32(0.0)
            for t in range(16):
                forward = forward + qa[t] * qw[t]
            exact = float(
                (qa.astype(np.float64) * qw.astype(np.float64)).sum()
            )
            assert float(forward) == exact
            assert float(qa @ qw) == exact

    def test_bilinearity_in_tensor_scales(self):
        rng = np.random.default_rng(104)
        a, w = random_instance(rng, max_mn=8, max_blocks=4)
        base = qgemm(a, w)
        for k in (-4, -1, 1, 3):
            scaled = quantize(np.zeros((1, 16), np.float32))  # placeholder
            scaled = type(a)(
                codes=a.codes,
                block_scales=a.block_scales,
                tensor_scale=np.float32(2.0**k) * a.tensor_scale,
            )
            assert np.array_equal(
                qgemm(scaled, w), (np.float32(2.0**k) * base).astype(np.float32)
            )


class TestRowActivationGemm:
    def test_bitwise_matches_stacked_scalar_calls(self):
        rng = np.random.default_rng(105)
        for _ in range(40):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            k = 16 * int(rng.integers(1, 6))
            x = rng.normal(size=(m, k)).astype(np.float32)
            w = quantize(rng.normal(size=(n, k)).astype(np.float32))
            rq = quantize_rows(x)
            batched = qgemm_rows(rq, w)
            stacked = np.vstack([qgemm(rq.row(i), w) for i in range(m)])
            assert np.array_equal(batched, stacked)


def assert_kernel_matches_oracles(x, wm, cfg=QuantConfig()):
    """``qgemm`` and ``qgemm_rows`` bit-equal to the scale-after oracle and
    to ``qgemm_mirror``, with a ``QuantizedTensor`` or a row-quantized left
    operand; returns the quantized operands for further checks."""
    a = quantize(x, cfg)
    w = quantize(wm, cfg)
    for got in (qgemm(a, w), qgemm_rows(a, w)):
        assert got.tobytes() == scale_after_qgemm(a, w).tobytes()
        assert got.tobytes() == qgemm_mirror(a, w).tobytes()
    rq = quantize_rows(x, cfg)
    rows = qgemm_rows(rq, w)
    assert rows.tobytes() == scale_after_qgemm(rq, w).tobytes()
    stacked = np.vstack([qgemm_mirror(rq.row(i), w) for i in range(x.shape[0])])
    assert rows.tobytes() == stacked.tobytes()
    return a, w, rq


class TestScaleAfterOracle:
    """The fold-then-multiply kernel against the scale-after route."""

    def test_random_instances(self):
        rng = np.random.default_rng(107)
        for i in range(200):
            m = int(rng.integers(1, 33))
            n = int(rng.integers(1, 33))
            k = 16 * int(rng.integers(1, 17))
            x = (rng.normal(size=(m, k)) * 10 ** rng.uniform(-2, 2)).astype(np.float32)
            wm = rng.normal(size=(n, k)).astype(np.float32)
            if i % 2:
                # Block magnitudes spread over 2**-12..2**12, so the float32
                # accumulation across blocks rounds and its order shows.
                spread = 2.0 ** rng.integers(-12, 13, size=k // 16)
                x *= np.repeat(spread, 16).astype(np.float32)
            assert_kernel_matches_oracles(x, wm, UNIT if i % 3 == 0 else QuantConfig())

    def test_single_row(self):
        rng = np.random.default_rng(108)
        x = rng.normal(size=(1, 256)).astype(np.float32)
        wm = rng.normal(size=(48, 256)).astype(np.float32)
        a, _, _ = assert_kernel_matches_oracles(x, wm)
        assert a.codes.shape[0] == 1

    def test_all_zero_blocks(self):
        rng = np.random.default_rng(109)
        x = rng.normal(size=(12, 128)).astype(np.float32)
        wm = rng.normal(size=(10, 128)).astype(np.float32)
        x[3] = 0.0
        x[:, 32:48] = 0.0
        wm[:, 0:16] = 0.0
        wm[7] = 0.0
        a, w, rq = assert_kernel_matches_oracles(x, wm)
        assert (a.block_scales == 0).sum() >= 12 + 7
        assert (w.block_scales == 0).sum() >= 10 + 7
        assert (rq.block_scales == 0).sum() >= 12 + 7

    @pytest.mark.parametrize("cfg", [UNIT, QuantConfig()], ids=["unit", "amax"])
    def test_subnormal_block_scales(self, cfg):
        # 8-bit scales with exponent field 0 are the subnormals (m * 2**-9).
        # Under the unit policy a block max below 6 * 2**-6 lands there;
        # under amax calibration a block 1e-5 of its row's max does.
        rng = np.random.default_rng(110)
        x = rng.normal(size=(6, 256)).astype(np.float32)
        x[:, 16:32] *= np.float32(1e-5)
        x[:, 64:80] *= np.float32(2e-3)
        wm = (rng.normal(size=(9, 256)) * 0.02).astype(np.float32)
        a, w, rq = assert_kernel_matches_oracles(x, wm, cfg)
        for scales in (a.block_scales, w.block_scales, rq.block_scales):
            if scales is w.block_scales and cfg is not UNIT:
                continue
            assert (((scales >> 3) == 0) & (scales != 0)).any()

    def test_saturated_elements(self):
        # A block max of 6.2 under the unit policy gets scale 1.0, so the
        # block's largest elements clip to codes +6 (7) and -6 (15).
        rng = np.random.default_rng(111)
        x = rng.uniform(-1, 1, size=(5, 64)).astype(np.float32)
        wm = rng.uniform(-1, 1, size=(7, 64)).astype(np.float32)
        x[:, 0], x[:, 17] = 6.2, -6.2
        wm[:, 5], wm[:, 40] = -6.2, 6.2
        a, w, rq = assert_kernel_matches_oracles(x, wm, UNIT)
        for qt in (a, w, rq):
            assert (qt.codes == 7).any() and (qt.codes == 15).any()
        assert (formats.decode_e4m3(a.block_scales)[:, :2] == 1.0).all()

    def test_deep_reduction_k_4096(self):
        rng = np.random.default_rng(112)
        x = rng.normal(size=(8, 4096)).astype(np.float32)
        wm = rng.normal(size=(24, 4096)).astype(np.float32)
        assert_kernel_matches_oracles(x, wm)


def spread_operands(rng, m, k, n):
    """Activation and weight matrices whose 16-wide blocks are scaled by
    powers of two in 2**-12..2**12, so block terms differ widely in
    magnitude and any other accumulation order would round differently."""
    def spread(rows):
        scale = 2.0 ** rng.integers(-12, 13, size=(rows, k // 16))
        return np.repeat(scale, 16, axis=1)
    x = (rng.normal(size=(m, k)) * spread(m)).astype(np.float32)
    wm = (rng.normal(size=(n, k)) * spread(n)).astype(np.float32)
    return x, wm


class TestTiledKernel:
    """The kernel at the row counts where its row tiles start and end."""

    SHAPES = [(256, 256), (256, 1024), (1024, 256)]

    @staticmethod
    def tile(k, n):
        return gemm._TILE_BYTES // (4 * (k // 16) * n)

    def check(self, x, wm):
        rq = quantize_rows(x)
        w = quantize(wm)
        rows = qgemm_rows(rq, w)
        assert rows.tobytes() == scale_after_qgemm(rq, w).tobytes()
        m = x.shape[0]
        for i in sorted({0, m // 2, m - 1}):
            assert rows[i].tobytes() == qgemm_mirror(rq.row(i), w)[0].tobytes()
        a = quantize(x)
        shared = qgemm(a, w)
        assert shared.tobytes() == scale_after_qgemm(a, w).tobytes()
        assert shared.tobytes() == qgemm_mirror(a, w).tobytes()
        return rows

    @pytest.mark.parametrize("k, n", SHAPES)
    def test_row_counts_around_the_tile(self, k, n):
        tile = self.tile(k, n)
        assert tile > 2
        rng = np.random.default_rng(k + n)
        for m in sorted({1, 2, tile - 1, tile, tile + 1, 513}):
            x, wm = spread_operands(rng, m, k, n)
            self.check(x, wm)

    @pytest.mark.parametrize("k, n", SHAPES)
    def test_tile_seams_match_single_rows(self, k, n):
        tile = self.tile(k, n)
        rng = np.random.default_rng(2 * k + n)
        x, wm = spread_operands(rng, tile + 1, k, n)
        rq = quantize_rows(x)
        w = quantize(wm)
        rows = qgemm_rows(rq, w)
        for i in (tile - 1, tile):
            assert rows[i].tobytes() == qgemm_mirror(rq.row(i), w)[0].tobytes()

    @pytest.mark.parametrize("budget_blocks", [1, 3, 5])
    def test_budget_below_one_row_runs_one_row_tiles(self, monkeypatch,
                                                      budget_blocks):
        # A budget below one row's terms still takes a whole row per tile,
        # with the oracle's bits.
        rng = np.random.default_rng(120 + budget_blocks)
        k, n = 1024, 24
        monkeypatch.setattr(gemm, "_TILE_BYTES", 4 * n * budget_blocks)
        for m in (1, 3):
            x, wm = spread_operands(rng, m, k, n)
            self.check(x, wm)

    def test_single_output_element(self):
        # m = n = 1: one output element, summed over 64 block terms
        rng = np.random.default_rng(121)
        for _ in range(20):
            x, wm = spread_operands(rng, 1, 1024, 1)
            self.check(x, wm)

    def test_all_block_terms_zero(self):
        # Every block of x leads with a live element and rounds the rest to
        # -0.0 (code 8); the weight is zero on every lead column.  So each
        # block term is a sum of signed zeros.
        k, n = 1024, 256
        rng = np.random.default_rng(122)
        x = np.full((3, k), -1e-30, np.float32)
        x[:, ::16] = rng.uniform(1, 2, size=(3, k // 16)).astype(np.float32)
        wm = rng.normal(size=(n, k)).astype(np.float32)
        wm[:, ::16] = 0.0
        rq = quantize_rows(x)
        lead = np.arange(k) % 16 == 0
        assert (rq.codes[:, ~lead] == 8).all()
        rows = self.check(x, wm)
        assert not np.signbit(rows).any() and not rows.any()

    class NegativeZeroTerms:
        """numpy with a ``matmul`` that writes every zero term as -0.0, as a
        BLAS summing from the first product would for terms that are sums
        of -0.0 products (OpenBLAS writes +0.0 there)."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, out):
            np.matmul(a, b, out=out)
            out[out == 0] = -0.0
            return out

    @pytest.mark.parametrize("m, n, budget_blocks", [
        (1, 256, None),  # one row, no tiles
        (3, 256, None),  # one row tile
        (40, 256, None),  # three row tiles
        (3, 24, 3),  # one-row tiles, the budget below one row's terms
        (1, 1, None),  # one output element
        (1, 1, 3),  # one output element, the budget below its terms
    ], ids=["one-row", "one-tile", "multi-tile", "one-row-tiles", "lone",
            "lone-below-budget"])
    def test_negative_zero_terms_sum_to_positive_zero(self, monkeypatch, m, n,
                                                      budget_blocks):
        # Row 0 of x leads every block with a live element and rounds the
        # rest to -0.0; the weight is zero on every lead column.  So all of
        # row 0's block terms are zero, written as -0.0, and its sum from
        # +0.0 is +0.0.  The other rows are spread-scale products.
        k = 1024
        rng = np.random.default_rng(123 + m + n)
        x, wm = spread_operands(rng, m, k, n)
        x[0] = -1e-30
        x[0, ::16] = rng.uniform(1, 2, size=k // 16).astype(np.float32)
        wm[:, ::16] = 0.0
        monkeypatch.setattr(gemm, "np", self.NegativeZeroTerms())
        if budget_blocks:
            monkeypatch.setattr(gemm, "_TILE_BYTES", 4 * n * budget_blocks)
        rows = self.check(x, wm)
        assert not np.signbit(rows[0]).any() and not rows[0].any()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6),
       nblocks=st.sampled_from([1, 2, 16, 64]), n=st.sampled_from([1, 2, 24, 256]))
def test_one_row_product_equals_its_row_of_the_batch(seed, m, nblocks, n):
    # A one-row product (a decode step's) runs without row tiles: its bits
    # are the oracle's, the mirror's and its row's in the m-row product.
    rng = np.random.default_rng(seed)
    x, wm = spread_operands(rng, m, 16 * nblocks, n)
    x[0] = -0.0
    w = quantize(wm)
    batch = qgemm_rows(quantize_rows(x), w)
    for i in range(m):
        one = quantize_rows(x[i : i + 1])
        got = qgemm_rows(one, w)
        assert got.shape == (1, n)
        assert got.tobytes() == batch[i : i + 1].tobytes()
        assert got.tobytes() == qgemm_mirror(one.row(0), w).tobytes()
        assert got.tobytes() == scale_after_qgemm(one, w).tobytes()
