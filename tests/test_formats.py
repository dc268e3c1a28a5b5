import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import searchsorted_encode_e4m3, searchsorted_encode_fp4
from phasequant import formats
from phasequant.errors import NonFiniteError
from phasequant.selftest import nearest_fp4_oracle

FP4_GRID = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]


def nearest_e4m3_oracle(x):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    mags = formats.E4M3_VALUES[:127].astype(np.float64)
    v = np.clip(np.abs(x), 0.0, 448.0)
    dist = np.abs(v[:, None] - mags[None, :])
    tied = dist == dist.min(axis=1, keepdims=True)
    pick = np.where(tied, np.arange(127) % 2, 2)
    idx = np.argmin(pick, axis=1)
    return np.where(np.signbit(x), idx + 128, idx).astype(np.uint8)


class TestFp4Grid:
    def test_decoded_grid_is_exact(self):
        values = {float(v) for v in formats.FP4_VALUES}
        assert values == {g for g in FP4_GRID} | {-g for g in FP4_GRID}

    def test_subnormal_and_top_codes(self):
        assert formats.decode_fp4(1) == 0.5  # s=0 e=0 m=1
        assert formats.decode_fp4(7) == 6.0  # s=0 e=3 m=1
        minus_zero = formats.decode_fp4(8)  # s=1 e=0 m=0
        assert minus_zero == 0.0 and np.signbit(minus_zero)

    def test_round_trip_all_codes(self):
        codes = np.arange(16, dtype=np.uint8)
        assert np.array_equal(formats.encode_fp4(formats.decode_fp4(codes)), codes)

    def test_grid_constants(self):
        assert formats.FP4_MAX == max(abs(float(v)) for v in formats.FP4_VALUES)
        finite = formats.E4M3_VALUES[~formats.E4M3_IS_NAN]
        assert formats.E4M3_MAX == float(np.abs(finite).max())


class TestEncodeFp4:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (2.4, 2.0),
            (2.5, 2.0),  # tie: even-mantissa neighbour
            (7.0, 6.0),  # clip
            (0.75, 1.0),  # tie between 0.5 (m=1) and 1.0 (m=0)
            (0.25, 0.0),
            (5.0, 4.0),
            (-2.5, -2.0),
        ],
    )
    def test_worked_examples(self, x, expected):
        got = formats.decode_fp4(formats.encode_fp4(x))
        assert float(got) == expected

    def test_zero_sign_preserved(self):
        assert int(formats.encode_fp4(0.0)) == 0
        assert int(formats.encode_fp4(-0.0)) == 8
        assert int(formats.encode_fp4(-0.1)) == 8

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteError):
            formats.encode_fp4(np.nan)
        with pytest.raises(NonFiniteError):
            formats.encode_fp4(np.inf)
        with pytest.raises(NonFiniteError):
            formats.encode_fp4(np.array([1.0, -np.inf]))

    def test_matches_oracle_bulk(self):
        rng = np.random.default_rng(2024)
        x = np.concatenate(
            [
                rng.uniform(-8, 8, size=200_000),
                rng.normal(scale=2.0, size=200_000),
                # exact midpoints and grid points, both signs
                np.array([m for m in (0.25, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0)]),
                -np.array([m for m in (0.25, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0)]),
                np.array(FP4_GRID),
            ]
        ).astype(np.float32)
        assert np.array_equal(formats.encode_fp4(x), nearest_fp4_oracle(x))

    def test_nearest_point_property(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-10, 10, size=5000)
        decoded = formats.decode_fp4(formats.encode_fp4(x)).astype(np.float64)
        clamped = np.clip(x, -6.0, 6.0)
        for g in [s * m for m in FP4_GRID for s in (1, -1)]:
            assert (np.abs(clamped - decoded) <= np.abs(clamped - g) + 0).all()

    def test_half_gap_bound(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-6, 6, size=5000)
        decoded = formats.decode_fp4(formats.encode_fp4(x)).astype(np.float64)
        assert (np.abs(x - decoded) <= formats.fp4_half_gap(x)).all()
        assert formats.fp4_half_gap(5.5) == 1.0


class TestEncodeFp4AgainstSearchsorted:
    MIDS = np.array([0.25, 0.75, 1.25, 1.75, 2.5, 3.5, 5.0], dtype=np.float32)

    def edge_values(self):
        up = np.nextafter(self.MIDS, np.float32(np.inf))
        down = np.nextafter(self.MIDS, np.float32(0))
        mags = np.concatenate([
            self.MIDS, up, down, np.array(FP4_GRID, dtype=np.float32),
            np.array([6.0, np.nextafter(np.float32(6), np.float32(7)), 6.5, 7.0,
                      1e6, 1e30, np.finfo(np.float32).max,
                      np.finfo(np.float32).tiny, 1e-45], dtype=np.float32),
        ])
        return np.concatenate([mags, -mags])

    def test_midpoints_neighbours_and_saturation_float32(self):
        x = self.edge_values()
        assert x.dtype == np.float32
        assert np.array_equal(formats.encode_fp4(x), searchsorted_encode_fp4(x))
        assert formats.encode_fp4(x).dtype == np.uint8

    def test_float64_arrays(self):
        x = self.edge_values().astype(np.float64)
        x64 = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
        assert np.array_equal(formats.encode_fp4(x64), searchsorted_encode_fp4(x64))
        rng = np.random.default_rng(2025)
        bulk = rng.normal(scale=3.0, size=200_000)
        assert np.array_equal(formats.encode_fp4(bulk), searchsorted_encode_fp4(bulk))

    def test_bulk_float32(self):
        rng = np.random.default_rng(2026)
        x = (rng.normal(scale=3.0, size=400_000)).astype(np.float32)
        x[::5] = np.round(x[::5] * 4) / 4  # many exact midpoints and grid points
        assert np.array_equal(formats.encode_fp4(x), searchsorted_encode_fp4(x))

    def test_signed_zero(self):
        for zero, code in ((0.0, 0), (-0.0, 8)):
            assert formats.encode_fp4(zero) == code
            assert formats.encode_fp4(np.float32(zero)) == code
            assert formats.encode_fp4(np.array([zero], np.float32))[0] == code

    def test_python_scalars_and_0d_arrays_return_scalars(self):
        for v in (0.25, 0.75, 2.5, -3.5, 6.0, 7.0, 1e30, -1e30, 3, -6):
            want = searchsorted_encode_fp4(v)[()]
            for x in (v, np.asarray(v), np.asarray(v, dtype=np.float32)):
                got = formats.encode_fp4(x)
                assert isinstance(got, np.uint8)
                assert got == want

    def test_non_finite_still_rejected(self):
        for bad in (np.nan, -np.inf, np.inf):
            for x in (bad, np.float32(bad), np.array([0.5, bad], np.float32),
                      np.array([bad], np.float64)):
                with pytest.raises(NonFiniteError):
                    formats.encode_fp4(x)

    def test_half_gap_at_the_searchsorted_magnitude(self):
        # fp4_half_gap reads FP4_HALF_GAPS at encode_fp4's code; the
        # searchsorted index it used before gives the same entry, infinities
        # included (they clamp to 6).  NaN has no magnitude and is an error.
        x = self.edge_values().astype(np.float64)
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
                            [np.inf, -np.inf]])
        want = formats.FP4_HALF_GAPS[searchsorted_encode_fp4(x) & 7]
        assert np.array_equal(formats.fp4_half_gap(x), want)
        for bad in (np.nan, np.array([0.5, np.nan])):
            with pytest.raises(NonFiniteError):
                formats.fp4_half_gap(bad)


class TestEncodeE4m3:
    def test_worked_examples(self):
        assert float(formats.decode_e4m3(formats.encode_e4m3(0.5))) == 0.5
        assert float(formats.decode_e4m3(formats.encode_e4m3(449.0))) == 448.0
        assert int(formats.encode_e4m3(0.0)) == 0
        # code layout checks: s=0 e=1111 m=110 is 448; s=0 e=0 m=1 is 2^-9
        assert float(formats.decode_e4m3((0b1111 << 3) | 0b110)) == 448.0
        assert float(formats.decode_e4m3(1)) == 2.0**-9

    def test_single_nan_pattern_per_sign(self):
        nan_codes = [c for c in range(256) if formats.E4M3_IS_NAN[c]]
        assert nan_codes == [0x7F, 0xFF]
        with pytest.raises(ValueError):
            formats.decode_e4m3(0x7F)

    def test_never_emits_nan_code(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1000, 1000, size=10_000).astype(np.float32)
        codes = formats.encode_e4m3(x)
        assert not formats.E4M3_IS_NAN[codes].any()

    def test_round_trip_all_codes(self):
        codes = np.array(
            [c for c in range(256) if not formats.E4M3_IS_NAN[c]], dtype=np.uint8
        )
        assert np.array_equal(
            formats.encode_e4m3(formats.decode_e4m3(codes)), codes
        )

    def test_matches_oracle_bulk(self):
        rng = np.random.default_rng(4)
        x = np.concatenate(
            [
                rng.uniform(-500, 500, size=100_000),
                rng.normal(scale=1e-2, size=50_000),
                formats.E4M3_VALUES[:127].astype(np.float64),
            ]
        )
        assert np.array_equal(formats.encode_e4m3(x), nearest_e4m3_oracle(x))


class TestEncodeE4m3AgainstSearchsorted:
    """The bit-pattern encoder against the float64 ``searchsorted`` route."""

    MAGS = formats.E4M3_VALUES[:127].astype(np.float64)
    MIDS = (MAGS[:-1] + MAGS[1:]) / 2.0

    def edge_values(self, dtype):
        mids = self.MIDS.astype(dtype)
        up = np.nextafter(mids, dtype(np.inf))
        down = np.nextafter(mids, dtype(0))
        info = np.finfo(dtype)
        mags = np.concatenate([
            mids, up, down, self.MAGS.astype(dtype),
            np.array([448.0, 449.0, 464.0, 1e6, info.max, info.tiny,
                      info.smallest_subnormal, 2.0**-6, 2.0**-10, 0.0], dtype),
        ])
        return np.concatenate([mags, -mags])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_midpoints_neighbours_and_saturation(self, dtype):
        x = self.edge_values(dtype)
        assert np.array_equal(formats.encode_e4m3(x), searchsorted_encode_e4m3(x))

    def test_float32_bit_pattern_sweep(self):
        # every 997th float32 pattern from +0 to 500, both signs
        top = int(np.float32(500).view(np.int32))
        mags = np.arange(0, top, 997, dtype=np.int32).view(np.float32)
        x = np.concatenate([mags, -mags])
        assert np.array_equal(formats.encode_e4m3(x), searchsorted_encode_e4m3(x))

    def test_float64_rounds_once(self):
        # Within half a float32 step of a midpoint: a float64 value rounded
        # through float32 first would land on the midpoint and tie.
        offsets = self.MIDS * 2.0**-30
        x = np.concatenate([self.MIDS + offsets, self.MIDS - offsets])
        assert np.array_equal(formats.encode_e4m3(x), searchsorted_encode_e4m3(x))
        assert np.array_equal(formats.encode_e4m3(x), nearest_e4m3_oracle(x))

    def test_scalars_keep_their_type(self):
        for x in (0.5, -0.0, 3, np.float32(1e-3), np.float64(449.0)):
            got = formats.encode_e4m3(x)
            want = searchsorted_encode_e4m3(x)
            assert got == want and isinstance(got, np.uint8)
        assert formats.encode_e4m3(np.zeros((2, 0), np.float32)).shape == (2, 0)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_monotonicity_both_formats(a, b):
    lo, hi = min(a, b), max(a, b)
    assert float(formats.decode_fp4(formats.encode_fp4(lo))) <= float(
        formats.decode_fp4(formats.encode_fp4(hi))
    )
    assert float(formats.decode_e4m3(formats.encode_e4m3(lo))) <= float(
        formats.decode_e4m3(formats.encode_e4m3(hi))
    )


def test_monotonicity_bulk_pairs():
    rng = np.random.default_rng(5)
    x = rng.uniform(-9, 9, size=1_000_000)
    y = rng.uniform(-9, 9, size=1_000_000)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    assert (
        formats.decode_fp4(formats.encode_fp4(lo))
        <= formats.decode_fp4(formats.encode_fp4(hi))
    ).all()


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_sign_symmetry(x):
    for enc, dec in ((formats.encode_fp4, formats.decode_fp4),
                     (formats.encode_e4m3, formats.decode_e4m3)):
        pos = float(dec(enc(x)))
        neg = float(dec(enc(-x)))
        assert neg == -pos or (pos == 0.0 and neg == 0.0)


class TestTables:
    def test_shape_and_order(self):
        lines = formats.format_tables().strip().split("\n")
        assert len(lines) == 16 + 256
        assert lines[0] == "0,0.0"
        assert lines[1] == "1,0.5"
        assert lines[8] == "8,-0.0"
        assert lines[16] == "0,0.0"
        assert lines[16 + 0x7F] == "127,nan"
        assert lines[16 + 126] == "126,448.0"
        assert lines[16 + 1] == "1,0.001953125"

    def test_fp4_table_values(self):
        lines = formats.format_tables().strip().split("\n")[:16]
        values = [float(line.split(",")[1]) for line in lines]
        assert values == FP4_GRID + [-g for g in FP4_GRID]
