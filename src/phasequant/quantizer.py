"""Two-level block quantization of real matrices to the 4-bit grid.

A matrix is quantized along its columns (the GEMM reduction axis) in groups
of 16 elements (``GROUP_SIZE``), the block width the NVFP4 format fixes; no
other width is accepted anywhere.  Each element becomes a 4-bit code, each
group carries an 8-bit scale code, and the whole tensor carries one
positive float32 scale:

    stored code   q = round_fp4( x / (tensor_scale * block_scale) )
    reconstruction    x_hat = (tensor_scale * block_scale) * q

with all arithmetic in float32 and the combined per-block factor
``tensor_scale * block_scale`` computed once and reused by both directions,
so quantize and dequantize agree bit-for-bit on the products they form.

Quantization is one pass: ``|x|`` once, the block maxima, the tensor
scales, the scale codes (``formats.e4m3_magnitude_codes``) and the element
codes (``formats.fp4_magnitude_codes``, the encoders' rounding rules), each
input check made once on the way.  ``quantize_rows`` also builds the
activation's fold, every 4-bit value times its decoded block scale, from
the scales that pass already decoded, so the GEMM never folds an
activation it made; an activation built directly from codes folds on first
use.  A weight's fold (``QuantizedTensor.folded_t``) is built from its
codes on first use and cached.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import formats
from .errors import NonFiniteError, ShapeMismatchError

GROUP_SIZE = 16

# The MXQT header: magic, version, rows, cols, group size, tensor scale.
_MXQT_HEADER = struct.Struct("<4sIIIIf")

# Product of the two grid maxima; the calibrated tensor scale divides the
# matrix amax by this so every block-scale ratio stays on the 8-bit grid.
_SCALE_DENOM = np.float32(formats.FP4_MAX * formats.E4M3_MAX)  # 2688


class TensorScalePolicy(Enum):
    AMAX_CALIBRATED = "amax"
    UNIT = "unit"


@dataclass(frozen=True)
class QuantConfig:
    """Quantization parameters: how the tensor scale is chosen."""

    policy: TensorScalePolicy = TensorScalePolicy.AMAX_CALIBRATED


@dataclass
class QuantizedTensor:
    """A quantized matrix: 4-bit codes, per-block scales, one tensor scale.

    ``codes`` is rows x cols uint8 (values 0..15); ``block_scales`` is
    rows x (cols/16) uint8 codes of the 8-bit grid.  Blocking is always
    along the column axis.  The block-scale fold a product needs is cached
    on the tensor after its first use (``folded_t``).
    """

    codes: np.ndarray
    block_scales: np.ndarray
    tensor_scale: np.float32
    _folded_t: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def shape(self):
        return self.codes.shape

    @property
    def row_scales(self) -> np.ndarray:
        """The tensor scale once per row, as float32: the per-row scales of
        a ``RowQuantizedActivation``, for a tensor with one scale."""
        return np.full(self.codes.shape[0], self.tensor_scale, dtype=np.float32)

    def folded(self) -> np.ndarray:
        """``fold_blocks`` of this tensor: rows x cols float32, fresh."""
        return fold_blocks(self.codes, formats.decode_e4m3(self.block_scales))

    def folded_t(self) -> np.ndarray:
        """``folded()`` transposed to a contiguous read-only cols x rows array.

        Built on the first call and cached with the tensor, so a weight
        shadow is decoded once, not per product.  The codes and scales must
        not change after that first call.
        """
        if self._folded_t is None:
            folded_t = np.ascontiguousarray(self.folded().T)
            folded_t.flags.writeable = False
            self._folded_t = folded_t
        return self._folded_t

    def serialize(self) -> bytes:
        """Debug byte dump: magic, version, shape, group, tensor scale,
        packed codes (two per byte, low nibble first, row-major), then the
        block scale bytes row-major."""
        rows, cols = self.codes.shape
        head = _MXQT_HEADER.pack(b"MXQT", 1, rows, cols, GROUP_SIZE,
                                 float(self.tensor_scale))
        flat = self.codes.reshape(-1)
        packed = (flat[0::2] | (flat[1::2] << np.uint8(4))).astype(np.uint8)
        return head + packed.tobytes() + self.block_scales.reshape(-1).tobytes()

    @classmethod
    def deserialize(cls, data: bytes) -> "QuantizedTensor":
        """Inverse of ``serialize``; rejects a group size other than 16 and
        a header that disagrees with itself or with the length of
        ``data``."""
        if data[:4] != b"MXQT":
            raise ValueError("bad magic")
        head = _MXQT_HEADER.size
        if len(data) < head:
            raise ValueError("truncated header")
        _, version, rows, cols, group, tscale = _MXQT_HEADER.unpack_from(data)
        if version != 1:
            raise ValueError(f"unsupported version {version}")
        if group != GROUP_SIZE:
            raise ValueError(f"group size {group}, not {GROUP_SIZE}")
        if cols % GROUP_SIZE != 0:
            raise ValueError(f"{cols} columns do not split into groups of 16")
        n_code_bytes = rows * cols // 2
        n_scales = rows * (cols // GROUP_SIZE)
        if len(data) != head + n_code_bytes + n_scales:
            raise ValueError(
                f"{len(data)} bytes where the header implies "
                f"{head + n_code_bytes + n_scales}"
            )
        packed = np.frombuffer(data, dtype=np.uint8, count=n_code_bytes, offset=head)
        codes = np.empty(rows * cols, dtype=np.uint8)
        codes[0::2] = packed & np.uint8(0x0F)
        codes[1::2] = packed >> np.uint8(4)
        scales = np.frombuffer(
            data, dtype=np.uint8, count=n_scales, offset=head + n_code_bytes
        )
        return cls(
            codes=codes.reshape(rows, cols),
            block_scales=scales.reshape(rows, cols // GROUP_SIZE).copy(),
            tensor_scale=np.float32(tscale),
        )


def _blocks(x):
    """``x`` checked as a finite float32 matrix with a width divisible by
    16, its magnitudes viewed as rows x nblocks x 16 (a new array, the
    caller's to overwrite), and the ``max|x|`` of each block.

    The block max is reduced across the rows of a transposed copy: numpy is
    several times slower reducing a 16-wide inner axis, and a max is exact
    either way.  A max is NaN or infinite exactly when its block holds a
    NaN or an infinity, so the block maxima carry the finiteness check.
    """
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim != 2:
        raise ShapeMismatchError("expected a 2-D matrix")
    rows, cols = arr.shape
    if cols % GROUP_SIZE != 0:
        raise ShapeMismatchError(
            f"columns ({cols}) not divisible by group size ({GROUP_SIZE})"
        )
    mag = np.abs(arr)
    bmax = np.maximum.reduce(np.ascontiguousarray(mag.reshape(-1, GROUP_SIZE).T), axis=0)
    if not np.isfinite(bmax).all():
        raise NonFiniteError("matrix entries must be finite")
    nblocks = cols // GROUP_SIZE
    return arr, mag.reshape(rows, nblocks, GROUP_SIZE), bmax.reshape(rows, nblocks)


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


def _encode(arr: np.ndarray, mag: np.ndarray, bmax: np.ndarray,
            alphas: np.ndarray):
    """4-bit codes (rows x cols), 8-bit block-scale codes and their decoded
    values for the blocks of ``arr`` (magnitudes ``mag``, block maxima
    ``bmax``, both from ``_blocks``), with ``alphas[i]`` the tensor scale of
    row ``i``.  Overwrites ``mag``.

    Block scale code: ``round(max|block| / (alpha * 6))``.  Element code:
    ``round(x / (alpha * block_scale))``, its sign bit from ``x`` and its
    magnitude from ``|x| / (alpha * block_scale)``, which is ``|x /
    (alpha * block_scale)|`` exactly; a block whose combined factor is 0
    gets code 0 throughout.
    """
    rows, nblocks, g = mag.shape
    ratios = bmax / (alphas[:, None] * np.float32(formats.FP4_MAX))
    if not np.isfinite(ratios).all():
        raise NonFiniteError("scale to encode must be finite")
    scale_codes = formats.e4m3_magnitude_codes(ratios)
    scales = formats.decode_e4m3(scale_codes)
    combined = alphas[:, None] * scales
    dead = combined == 0
    combined[dead] = 1
    scaled = np.divide(mag, combined[:, :, None], out=mag)
    if not np.isfinite(scaled).all():
        raise NonFiniteError("value to encode must be finite")
    codes = formats.fp4_magnitude_codes(scaled)
    codes |= np.signbit(arr).reshape(mag.shape).view(np.uint8) << np.uint8(3)
    codes[dead] = 0
    return codes.reshape(rows, nblocks * g), scale_codes, scales


def quantize(x, cfg: QuantConfig = QuantConfig()) -> QuantizedTensor:
    """Quantize a finite float32 matrix blocked along columns, with one
    tensor scale calibrated on the whole matrix."""
    arr, mag, bmax = _blocks(x)
    alpha = np.float32(_tensor_scales(bmax.max(initial=np.float32(0)), cfg.policy))
    codes, scale_codes, _ = _encode(arr, mag, bmax, np.full(len(arr), alpha))
    return QuantizedTensor(codes, scale_codes, alpha)


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


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct the float32 matrix: ``(tensor_scale * block_scale) * q``."""
    combined = np.float32(qt.tensor_scale) * formats.decode_e4m3(qt.block_scales)
    expanded = np.repeat(combined, GROUP_SIZE, axis=1)
    return expanded * formats.decode_fp4(qt.codes)


@dataclass
class RowQuantizedActivation:
    """Activation rows quantized independently, one tensor scale per row.

    Bitwise equivalent to calling ``quantize`` on each row alone (the
    calibration then sees only that token), which keeps a token's codes
    independent of what else shares the batch.  ``quantize_rows`` hands
    over the block-scale fold with the codes; one built directly folds
    them on its first use (``folded``).  Either way the fold is cached, so
    every product of one shared input reuses it.
    """

    codes: np.ndarray  # m x k uint8
    block_scales: np.ndarray  # m x (k/16) uint8
    row_scales: np.ndarray  # m float32
    _folded: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def shape(self):
        return self.codes.shape

    def folded(self) -> np.ndarray:
        """``fold_blocks`` of the codes with their decoded block scales,
        read-only.  ``quantize_rows`` builds it with the codes; an
        activation built directly folds on the first call and caches the
        result, so its codes and scales must not change after it."""
        if self._folded is None:
            folded = fold_blocks(self.codes, formats.decode_e4m3(self.block_scales))
            folded.flags.writeable = False
            self._folded = folded
        return self._folded

    def row(self, i: int) -> QuantizedTensor:
        """Row ``i`` alone, as ``quantize`` of that row gives it.  ``i``
        indexes as a sequence does: a negative one counts from the end,
        and one out of range raises ``IndexError``."""
        i = range(len(self.codes))[i]
        return QuantizedTensor(
            codes=self.codes[i : i + 1],
            block_scales=self.block_scales[i : i + 1],
            tensor_scale=np.float32(self.row_scales[i]),
        )


def quantize_rows(x, cfg: QuantConfig = QuantConfig()) -> RowQuantizedActivation:
    """Quantize each row of a matrix as its own tensor, vectorized.

    Runs the operation sequence of ``quantize`` with a tensor scale
    calibrated per row, so ``quantize_rows(x).row(i)`` matches
    ``quantize(x[i:i+1])`` bit-for-bit under the same policy.  The fold
    (``fold_blocks`` of the codes and their decoded block scales) is built
    in the same pass from the scales already decoded, and comes with the
    activation, read-only.
    """
    arr, mag, bmax = _blocks(x)
    alphas = _tensor_scales(bmax.max(axis=1, initial=np.float32(0)), cfg.policy)
    codes, scale_codes, scales = _encode(arr, mag, bmax, alphas)
    fold = fold_blocks(codes, scales)
    fold.flags.writeable = False
    act = RowQuantizedActivation(codes, scale_codes, alphas)
    act._folded = fold
    return act
