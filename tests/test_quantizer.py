import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_scale_quantize, two_pass_quantize, two_pass_quantize_rows
from phasequant import formats
from phasequant.errors import NonFiniteError, ShapeMismatchError
from phasequant.quantizer import (
    QuantConfig,
    QuantizedTensor,
    TensorScalePolicy,
    dequantize,
    fold_blocks,
    quantize,
    quantize_rows,
)

UNIT = QuantConfig(policy=TensorScalePolicy.UNIT)
AMAX = QuantConfig(policy=TensorScalePolicy.AMAX_CALIBRATED)


def gaussian(rng, rows, cols, scale=1.0):
    return (rng.normal(size=(rows, cols)) * scale).astype(np.float32)


class TestTensorScale:
    def test_zero_matrix_degenerates_to_one(self):
        assert quantize(np.zeros((2, 16), np.float32), AMAX).tensor_scale == 1.0

    def test_amax_2688_gives_one(self):
        x = np.zeros((1, 16), np.float32)
        x[0, 3] = 2688.0
        assert quantize(x, AMAX).tensor_scale == 1.0

    def test_unit_policy(self):
        rng = np.random.default_rng(0)
        assert quantize(gaussian(rng, 4, 32), UNIT).tensor_scale == 1.0

    def test_formula(self):
        x = np.full((1, 16), 5.25, np.float32)
        expected = np.float32(5.25) / np.float32(2688.0)
        scale = quantize(x, AMAX).tensor_scale
        assert type(scale) is np.float32
        assert scale == expected

    # the largest float32 amax whose amax / 2688 rounds to 0
    UNDERFLOW_LIMIT = np.float32(2688 * 2.0**-150)

    @pytest.mark.parametrize("tiny", [1e-45, 1e-42, UNDERFLOW_LIMIT])
    def test_underflowing_scale_degenerates_to_one(self, tiny):
        # such a tensor takes the all-zero tensor's scale and encodes dead
        x = np.full((1, 16), tiny, np.float32)
        qt = quantize(x, AMAX)
        assert qt.tensor_scale == 1.0
        assert (qt.codes == 0).all() and (qt.block_scales == 0).all()

    def test_underflowing_rows_match_single_row_quantize(self):
        x = np.full((3, 32), 1e-42, np.float32)
        x[1] = np.linspace(-3, 3, 32, dtype=np.float32)
        x[2, 16:] = 7.0
        rq = quantize_rows(x, AMAX)
        assert rq.row_scales[0] == 1.0
        assert (rq.codes[0] == 0).all()
        for i in range(3):
            single = quantize(x[i : i + 1], AMAX)
            row = rq.row(i)
            assert np.array_equal(single.codes, row.codes)
            assert np.array_equal(single.block_scales, row.block_scales)
            assert single.tensor_scale == row.tensor_scale

    def test_smallest_non_underflowing_scale_unchanged(self):
        amax = np.nextafter(self.UNDERFLOW_LIMIT, np.float32(1))
        expected = amax / np.float32(2688.0)
        assert expected > 0
        assert quantize(np.full((1, 16), amax), AMAX).tensor_scale == expected

    def test_non_finite_rejected(self):
        x = np.zeros((1, 16), np.float32)
        x[0, 0] = np.inf
        for cfg in (AMAX, UNIT):
            with pytest.raises(NonFiniteError):
                quantize(x, cfg)
            with pytest.raises(NonFiniteError):
                quantize_rows(x, cfg)


class TestBlockScale:
    """The 8-bit scale code of one block under a unit tensor scale:
    ``round(max|block| / 6)``."""

    @staticmethod
    def scale_code(block):
        return quantize(block[None], UNIT).block_scales

    def test_all_threes(self):
        code = self.scale_code(np.full(16, 3.0, np.float32))
        assert float(formats.decode_e4m3(code)[0, 0]) == 0.5

    def test_zero_block(self):
        assert int(self.scale_code(np.zeros(16, np.float32))[0, 0]) == 0

    def test_max_six(self):
        block = np.zeros(16, np.float32)
        block[5] = 6.0
        assert float(formats.decode_e4m3(self.scale_code(block))[0, 0]) == 1.0


class TestQuantizeWorkedExamples:
    def test_all_threes_row(self):
        qt = quantize(np.full((1, 16), 3.0, np.float32), UNIT)
        assert qt.tensor_scale == 1.0
        assert float(formats.decode_e4m3(qt.block_scales)[0, 0]) == 0.5
        assert (formats.decode_fp4(qt.codes) == 6.0).all()
        assert (dequantize(qt) == 3.0).all()

    def test_zero_matrix(self):
        qt = quantize(np.zeros((2, 32), np.float32), UNIT)
        assert (qt.codes == 0).all()
        assert (qt.block_scales == 0).all()
        assert (dequantize(qt) == 0.0).all()

    def test_on_grid_row_reconstructs_bit_exactly(self):
        # 6x the eight magnitudes, padded with zeros: scale decodes to 6
        row = np.array(
            [[0, 3, 6, 9, 12, 18, 24, 36, 0, 0, 0, 0, 0, 0, 0, 0]], np.float32
        )
        qt = quantize(row, UNIT)
        assert np.array_equal(dequantize(qt), row)
        # the grid itself (scale 1)
        grid = formats.FP4_VALUES.reshape(1, 16).astype(np.float32)
        qt = quantize(grid, UNIT)
        assert float(formats.decode_e4m3(qt.block_scales)[0, 0]) == 1.0
        assert np.array_equal(dequantize(qt), grid)

    def test_indivisible_columns_rejected(self):
        with pytest.raises(ShapeMismatchError):
            quantize(np.zeros((2, 24), np.float32))

    def test_non_finite_rejected(self):
        x = np.zeros((1, 16), np.float32)
        x[0, 1] = np.nan
        with pytest.raises(NonFiniteError):
            quantize(x)


class TestInvariants:
    def test_idempotence_unit_policy(self):
        rng = np.random.default_rng(11)
        total_blocks = 0
        for _ in range(80):
            x = gaussian(rng, 8, 64)
            q1 = quantize(x, UNIT)
            q2 = quantize(dequantize(q1), UNIT)
            assert np.array_equal(q1.codes, q2.codes)
            assert np.array_equal(q1.block_scales, q2.block_scales)
            assert q1.tensor_scale == q2.tensor_scale
            total_blocks += q1.block_scales.size
        assert total_blocks >= 2000

    def test_idempotence_amax_codes_and_scales(self):
        # Tensor scale may drift by ulps when the reconstructed amax rounds
        # differently; codes and block scales must not.
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = gaussian(rng, 4, 32)
            q1 = quantize(x, AMAX)
            q2 = quantize(dequantize(q1), AMAX)
            assert np.array_equal(q1.codes, q2.codes)
            assert np.array_equal(q1.block_scales, q2.block_scales)
            assert abs(float(q2.tensor_scale) / float(q1.tensor_scale) - 1) < 1e-6

    def test_power_of_two_equivariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = gaussian(rng, 4, 32)
            base = dequantize(quantize(x, AMAX))
            for k in range(-8, 9):
                scaled = (np.float32(2.0**k) * x).astype(np.float32)
                lhs = dequantize(quantize(scaled, AMAX))
                rhs = (np.float32(2.0**k) * base).astype(np.float32)
                assert np.array_equal(lhs, rhs)

    def test_block_locality(self):
        rng = np.random.default_rng(14)
        x = gaussian(rng, 4, 64)
        q1 = quantize(x, UNIT)
        y = x.copy()
        y[2, 16:32] = gaussian(rng, 1, 16)[0]
        q2 = quantize(y, UNIT)
        mask = np.ones_like(x, dtype=bool)
        mask[2, 16:32] = False
        assert np.array_equal(q1.codes[mask], q2.codes[mask])
        smask = np.ones_like(q1.block_scales, dtype=bool)
        smask[2, 1] = False
        assert np.array_equal(q1.block_scales[smask], q2.block_scales[smask])

    def test_zero_block_handling(self):
        rng = np.random.default_rng(15)
        x = gaussian(rng, 4, 64)
        x[1, 32:48] = 0.0
        qt = quantize(x, AMAX)
        assert qt.block_scales[1, 2] == 0
        assert (qt.codes[1, 32:48] == 0).all()
        assert (dequantize(qt)[1, 32:48] == 0.0).all()

    def test_exact_scales_no_clip_and_half_gap(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            x = gaussian(rng, 8, 64, scale=10 ** rng.uniform(-2, 2))
            codes, combined = exact_scale_quantize(x)
            blocks = x.reshape(8, -1, 16)
            bmax = np.abs(blocks).max(axis=2)
            safe = np.where(bmax == 0, np.float32(1), bmax)
            scaled = (blocks / safe[:, :, None]) * np.float32(6.0)
            assert np.abs(scaled).max() <= 6.0
            xhat = np.repeat(combined, 16, axis=1) * formats.decode_fp4(codes)
            err = np.abs(x.astype(np.float64) - xhat.astype(np.float64))
            bound = np.repeat(
                np.abs(combined.astype(np.float64)), 16, axis=1
            ) * formats.fp4_half_gap(scaled.reshape(8, -1))
            assert (err <= bound * (1 + 1e-6) + 1e-12).all()

    def test_exact_scales_amax_element_saturates(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            x = gaussian(rng, 4, 32)
            codes, _ = exact_scale_quantize(x)
            mags = np.abs(formats.decode_fp4(codes)).reshape(4, 2, 16)
            bmax = np.abs(x.reshape(4, 2, 16)).max(axis=2)
            assert (mags.max(axis=2)[bmax > 0] == 6.0).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_quantize_deterministic(seed):
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=(2, 32))).astype(np.float32)
    a = quantize(x, AMAX)
    b = quantize(x, AMAX)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.block_scales, b.block_scales)
    assert a.tensor_scale == b.tensor_scale


def test_golden_digest_of_both_quantizers():
    # Recorded from the separate quantize and quantize_rows code paths the
    # shared core replaced; the input is built from integers, so it is the
    # same on every platform.  Row 3 has a zero block, row 5 is all zero.
    rng = np.random.default_rng(2026)
    x = np.ldexp(
        rng.integers(-2**23, 2**23, size=(24, 96)).astype(np.float32),
        rng.integers(-60, 40, size=(24, 1)).astype(np.int32),
    ).astype(np.float32)
    x[3, 16:32] = 0
    x[5] = 0
    digest = hashlib.sha256()
    for cfg in (AMAX, UNIT):
        qt = quantize(x, cfg)
        rq = quantize_rows(x, cfg)
        for part in (qt.codes, qt.block_scales, np.float32(qt.tensor_scale),
                     rq.codes, rq.block_scales, rq.row_scales):
            digest.update(part.tobytes())
    assert digest.hexdigest() == (
        "f6a0ca20e2f526c95313cc1d2bf73bc2bb8ca4690c244b548b832c4c04d00b4a"
    )


class TestRowQuantization:
    def test_bitwise_matches_single_row_quantize(self):
        rng = np.random.default_rng(18)
        for policy, cfg in ((TensorScalePolicy.UNIT, UNIT),
                            (TensorScalePolicy.AMAX_CALIBRATED, AMAX)):
            for _ in range(20):
                x = gaussian(rng, 5, 48, scale=10 ** rng.uniform(-2, 2))
                rq = quantize_rows(x, cfg)
                for i in range(5):
                    single = quantize(x[i : i + 1], cfg)
                    row = rq.row(i)
                    assert np.array_equal(single.codes, row.codes)
                    assert np.array_equal(single.block_scales, row.block_scales)
                    assert single.tensor_scale == row.tensor_scale

    def test_row_indexes_as_a_sequence(self):
        rng = np.random.default_rng(19)
        rq = quantize_rows(gaussian(rng, 4, 32, scale=1.0), AMAX)
        for i in range(-4, 0):
            neg, pos = rq.row(i), rq.row(i + 4)
            assert neg.codes.shape == (1, 32)
            assert neg.codes.tobytes() == pos.codes.tobytes()
            assert neg.block_scales.tobytes() == pos.block_scales.tobytes()
            assert neg.tensor_scale == pos.tensor_scale
        for i in (4, 5, -5):
            with pytest.raises(IndexError):
                rq.row(i)

    def test_zero_row(self):
        x = np.zeros((3, 32), np.float32)
        x[0] = 1.0
        rq = quantize_rows(x, AMAX)
        assert (rq.codes[1:] == 0).all()
        assert rq.row_scales[1] == 1.0


FP4_MIDS = np.array([0.25, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0], np.float32)
FP4_GRID = formats.FP4_VALUES[:8]
# the largest float32 amax whose amax / 2688 rounds to 0
UNDERFLOW_LIMIT = np.float32(2688 * 2.0**-150)


def hard_rows(rng, kind, m, k):
    """``m`` rows of width ``k`` that probe the rounding of the quantizer.

    ``grid``: every block has an exact scale: the row's tensor scale is a
    power of two (one element is 2688 times it), each block max is 6 times
    that scale times a block scale on the 8-bit grid, and the other scaled
    values are the 4-bit midpoints, their float32 neighbours (on blocks
    with a power-of-two scale, so they stay exact), the grid points and
    signed zeros.  ``saturate``: blocks whose scale rounds down, so their
    largest elements scale past 6.  ``dead``: Gaussian rows with blocks far
    below the row max, of either sign, and all-zero blocks of either sign.
    ``underflow``: rows at the tensor-scale underflow limit and next to it.
    ``gauss``: Gaussian rows over six decades.
    """
    nb = k // 16
    sign = rng.choice(np.float32([-1, 1]), size=(m, nb, 16))
    if kind == "gauss":
        return (rng.normal(size=(m, k)) * 10.0 ** rng.uniform(-3, 3, (m, 1))).astype(np.float32)
    if kind == "underflow":
        above = np.nextafter(UNDERFLOW_LIMIT, np.float32(1))
        tops = rng.choice(np.float32([
            np.nextafter(UNDERFLOW_LIMIT, np.float32(0)), UNDERFLOW_LIMIT,
            above, np.nextafter(above, np.float32(1))]), size=(m, 1, 1))
        x = rng.choice(np.float32([1, 0.5, 0]), size=(m, nb, 16)) * tops * sign
        x[:, 0, 0] = tops[:, 0, 0]
        return x.reshape(m, k)
    alpha = np.float32(2.0) ** rng.integers(-20, 21, size=(m, 1, 1)).astype(np.float32)
    if kind == "dead":
        x = rng.normal(size=(m, nb, 16)).astype(np.float32)
        x *= np.where(rng.random((m, nb, 1)) < 0.4, np.float32(1e-30), np.float32(1))
        x[rng.random((m, nb)) < 0.1] = -0.0
        x[rng.random((m, nb)) < 0.1] = 0.0
        return (x * alpha).reshape(m, k)
    pow2 = rng.random((m, nb, 1)) < 0.5
    scales = np.where(pow2, np.float32(2.0) ** rng.integers(-9, 9, size=(m, nb, 1)),
                      rng.choice(formats.E4M3_VALUES[1:127], size=(m, nb, 1)))
    near = np.concatenate([np.nextafter(FP4_MIDS, np.float32(0)),
                           np.nextafter(FP4_MIDS, np.float32(7))])
    values = np.where(pow2, rng.choice(np.concatenate([FP4_MIDS, near, FP4_GRID, [-0.0]]),
                                       size=(m, nb, 16)),
                      rng.choice(np.concatenate([FP4_MIDS, FP4_GRID, [-0.0]]),
                                 size=(m, nb, 16))).astype(np.float32)
    values[:, :, 0] = 6.0
    if kind == "saturate":
        values[:, :, 0] = np.float32(6 * (1 + 2.0**-5))  # the scale rounds down
        values[:, :, 1] = np.float32(6 * (1 + 2.0**-6))
    x = values * sign * scales * alpha
    x[:, 0, 0] = np.float32(2688) * alpha[:, 0, 0] * sign[:, 0, 0]  # amax: alpha exact
    return x.reshape(m, k).astype(np.float32)  # every value is exact in float32


class TestOnePassAgainstTwoPass:
    """``quantize_rows`` and ``quantize`` are bit-equal to the two-pass
    route they replaced (``conftest.two_pass_quantize_rows``), fold
    included."""

    KINDS = ("grid", "saturate", "dead", "underflow", "gauss")

    @staticmethod
    def check(x):
        for policy, cfg in ((TensorScalePolicy.AMAX_CALIBRATED, AMAX),
                            (TensorScalePolicy.UNIT, UNIT)):
            codes, scale_codes, row_scales, fold = two_pass_quantize_rows(x, policy)
            rq = quantize_rows(x, cfg)
            assert rq.codes.tobytes() == codes.tobytes()
            assert rq.block_scales.tobytes() == scale_codes.tobytes()
            assert rq.row_scales.tobytes() == row_scales.tobytes()
            assert rq.folded().tobytes() == fold.tobytes()
            codes, scale_codes, alpha = two_pass_quantize(x, policy)
            qt = quantize(x, cfg)
            assert qt.codes.tobytes() == codes.tobytes()
            assert qt.block_scales.tobytes() == scale_codes.tobytes()
            assert qt.tensor_scale.tobytes() == alpha.tobytes()

    @pytest.mark.parametrize("k", [16, 256, 1024])
    @pytest.mark.parametrize("m", [1, 2, 17, 512])
    def test_bit_equal(self, m, k):
        rng = np.random.default_rng(1000 * m + k)
        for kind in self.KINDS:
            self.check(hard_rows(rng, kind, m, k))
        mixed = np.concatenate([hard_rows(rng, kind, m, k) for kind in self.KINDS])
        self.check(rng.permutation(mixed)[:m])

    def test_inputs_reach_every_case(self):
        # the cases the row kinds are built for do occur
        rng = np.random.default_rng(7)
        grid = hard_rows(rng, "grid", 64, 256)
        rq = quantize_rows(grid, AMAX)
        scaled = grid.reshape(64, 16, 16) / (
            rq.row_scales[:, None, None]
            * formats.decode_e4m3(rq.block_scales)[:, :, None])
        mags = np.abs(scaled)
        assert np.isin(FP4_MIDS, mags).all()
        assert np.isin(np.nextafter(FP4_MIDS, np.float32(0)), mags).all()
        assert np.isin(np.nextafter(FP4_MIDS, np.float32(7)), mags).all()
        assert (rq.codes == 8).any()  # -0.0
        sat = quantize_rows(hard_rows(rng, "saturate", 64, 256), AMAX)
        lead = np.abs(formats.decode_fp4(sat.codes)).reshape(64, 16, 16)[:, 1:, :2]
        assert (lead == 6).all()
        dead = quantize_rows(hard_rows(rng, "dead", 64, 256), AMAX)
        assert (dead.block_scales == 0).any()
        low = hard_rows(rng, "underflow", 64, 256)
        amax = np.abs(low).max(axis=1)
        assert (amax <= UNDERFLOW_LIMIT).any() and (amax > UNDERFLOW_LIMIT).any()

    def test_fold_is_read_only_and_from_the_codes(self):
        rng = np.random.default_rng(8)
        rq = quantize_rows(hard_rows(rng, "dead", 9, 64))
        fold = rq.folded()
        assert not fold.flags.writeable
        assert fold is rq.folded()
        want = fold_blocks(rq.codes, formats.decode_e4m3(rq.block_scales))
        assert fold.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            fold[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [16, 256])
    def test_non_finite_anywhere_rejected(self, bad, k):
        rng = np.random.default_rng(9)
        x = gaussian(rng, 3, k)
        x[:, :16] *= np.float32(1e-30)  # a dead block
        for i, j in ((0, 0), (2, k - 1), (1, 5)):
            y = x.copy()
            y[i, j] = bad
            for cfg in (AMAX, UNIT):
                with pytest.raises(NonFiniteError):
                    quantize_rows(y, cfg)
                with pytest.raises(NonFiniteError):
                    quantize(y, cfg)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        qt = quantize(gaussian(rng, 6, 48), AMAX)
        blob = qt.serialize()
        assert blob[:4] == b"MXQT"
        back = QuantizedTensor.deserialize(blob)
        assert np.array_equal(back.codes, qt.codes)
        assert np.array_equal(back.block_scales, qt.block_scales)
        assert back.tensor_scale == qt.tensor_scale
        assert struct.unpack_from("<I", blob, 16) == (16,)

    def test_packing_low_nibble_first(self):
        codes = np.arange(16, dtype=np.uint8).reshape(1, 16)
        qt = QuantizedTensor(
            codes=codes,
            block_scales=np.array([[56]], np.uint8),
            tensor_scale=np.float32(1.0),
        )
        body = qt.serialize()
        packed = body[24 : 24 + 8]
        assert packed[0] == 0x10  # codes 0 then 1: low nibble first
        assert packed[7] == 0xFE  # codes 14 then 15

    @staticmethod
    def blob(rows=1, cols=48):
        rng = np.random.default_rng(20)
        return quantize(gaussian(rng, rows, cols), AMAX).serialize()

    @staticmethod
    def with_group(blob, group):
        return blob[:16] + struct.pack("<I", group) + blob[20:]

    def test_group_zero_rejected(self):
        with pytest.raises(ValueError):
            QuantizedTensor.deserialize(self.with_group(self.blob(), 0))

    def test_group_not_dividing_columns_rejected(self):
        # 48 columns in groups of 32 would read 24 code bytes and 1 scale
        # byte: trim the blob to that length so only the group check fails
        blob = self.with_group(self.blob(), 32)[: 24 + 24 + 1]
        with pytest.raises(ValueError):
            QuantizedTensor.deserialize(blob)
        # 40 columns in groups of 16 would read 20 code bytes and 2 scale
        # bytes: a blob of that length fails only the column check
        blob = self.blob()
        blob = blob[:12] + struct.pack("<I", 40) + blob[16:24] + bytes(20 + 2)
        with pytest.raises(ValueError, match="40 columns"):
            QuantizedTensor.deserialize(blob)

    def test_consistent_header_with_another_group_rejected(self):
        # 48 columns in groups of 8: 24 code bytes and 6 scale bytes, so
        # the header agrees with itself and with the length; only the
        # format's fixed 16-wide block rules it out
        blob = self.with_group(self.blob(), 8)[: 24 + 24] + bytes(6)
        with pytest.raises(ValueError, match="group size 8"):
            QuantizedTensor.deserialize(blob)

    def test_length_must_match_header(self):
        blob = self.blob()
        QuantizedTensor.deserialize(blob)
        for bad in (blob + b"\x00", blob[:-1], blob[:20]):
            with pytest.raises(ValueError):
                QuantizedTensor.deserialize(bad)
