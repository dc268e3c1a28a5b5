import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_scale_quantize
from phasequant import formats
from phasequant.errors import NonFiniteError, ShapeMismatchError
from phasequant.quantizer import (
    QuantConfig,
    QuantizedTensor,
    TensorScalePolicy,
    dequantize,
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

    def test_zero_row(self):
        x = np.zeros((3, 32), np.float32)
        x[0] = 1.0
        rq = quantize_rows(x, AMAX)
        assert (rq.codes[1:] == 0).all()
        assert rq.row_scales[1] == 1.0


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
