"""Two-level block quantization of real matrices to the 4-bit grid.

A matrix is quantized along its columns (the GEMM reduction axis) in groups
of 16 elements.  Each element becomes a 4-bit code, each group carries an
8-bit scale code, and the whole tensor carries one positive float32 scale:

    stored code   q = round_fp4( x / (tensor_scale * block_scale) )
    reconstruction    x_hat = (tensor_scale * block_scale) * q

with all arithmetic in float32 and the combined per-block factor
``tensor_scale * block_scale`` computed once and reused by both directions,
so quantize and dequantize agree bit-for-bit on the products they form.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import formats
from .errors import ConfigError, NonFiniteError, ShapeMismatchError

GROUP_SIZE = 16

# Product of the two grid maxima; the calibrated tensor scale divides the
# matrix amax by this so every block-scale ratio stays on the 8-bit grid.
_SCALE_DENOM = np.float32(formats.FP4_MAX * formats.E4M3_MAX)  # 2688


class TensorScalePolicy(Enum):
    AMAX_CALIBRATED = "amax"
    UNIT = "unit"


@dataclass(frozen=True)
class QuantConfig:
    """Quantization parameters.  ``group_size`` must stay 16 outside unit
    tests."""

    group_size: int = GROUP_SIZE
    policy: TensorScalePolicy = TensorScalePolicy.AMAX_CALIBRATED

    def __post_init__(self):
        if self.group_size < 1:
            raise ConfigError("group_size must be positive")


@dataclass
class QuantizedTensor:
    """A quantized matrix: 4-bit codes, per-block scales, one tensor scale.

    ``codes`` is rows x cols uint8 (values 0..15); ``block_scales`` is
    rows x (cols/group) uint8 codes of the 8-bit grid.  Blocking is always
    along the column axis.  The block-scale fold a product needs is cached
    on the tensor after its first use (``folded_t``).
    """

    codes: np.ndarray
    block_scales: np.ndarray
    tensor_scale: np.float32
    group_size: int = GROUP_SIZE
    _folded_t: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def shape(self):
        return self.codes.shape

    def folded(self) -> np.ndarray:
        """``fold_blocks`` of this tensor: rows x cols float32, fresh."""
        return fold_blocks(
            self.codes, formats.decode_e4m3(self.block_scales), self.group_size
        )

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
        head = b"MXQT" + struct.pack(
            "<IIII", 1, rows, cols, self.group_size
        ) + struct.pack("<f", float(self.tensor_scale))
        flat = self.codes.reshape(-1)
        packed = (flat[0::2] | (flat[1::2] << np.uint8(4))).astype(np.uint8)
        return head + packed.tobytes() + self.block_scales.reshape(-1).tobytes()

    @classmethod
    def deserialize(cls, data: bytes) -> "QuantizedTensor":
        """Inverse of ``serialize``; rejects a header that disagrees with
        itself or with the length of ``data``."""
        if data[:4] != b"MXQT":
            raise ValueError("bad magic")
        if len(data) < 24:
            raise ValueError("truncated header")
        version, rows, cols, group = struct.unpack_from("<IIII", data, 4)
        if version != 1:
            raise ValueError(f"unsupported version {version}")
        if group < 1 or cols % group != 0:
            raise ValueError(f"{cols} columns do not split into groups of {group}")
        n_code_bytes = rows * cols // 2
        n_scales = rows * (cols // group)
        if len(data) != 24 + n_code_bytes + n_scales:
            raise ValueError(
                f"{len(data)} bytes where the header implies "
                f"{24 + n_code_bytes + n_scales}"
            )
        (tscale,) = struct.unpack_from("<f", data, 20)
        packed = np.frombuffer(data, dtype=np.uint8, count=n_code_bytes, offset=24)
        codes = np.empty(rows * cols, dtype=np.uint8)
        codes[0::2] = packed & np.uint8(0x0F)
        codes[1::2] = packed >> np.uint8(4)
        scales = np.frombuffer(
            data, dtype=np.uint8, count=n_scales, offset=24 + n_code_bytes
        )
        return cls(
            codes=codes.reshape(rows, cols),
            block_scales=scales.reshape(rows, cols // group).copy(),
            tensor_scale=np.float32(tscale),
            group_size=group,
        )


def _blocks(x, group_size: int):
    """``x`` checked and viewed as float32 rows x nblocks x group, and the
    ``max|x|`` of each block.

    The block max is reduced across the rows of a transposed copy: numpy is
    several times slower reducing a 16-wide inner axis, and a max is exact
    either way.
    """
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim != 2:
        raise ShapeMismatchError("expected a 2-D matrix")
    rows, cols = arr.shape
    if cols % group_size != 0:
        raise ShapeMismatchError(
            f"columns ({cols}) not divisible by group size ({group_size})"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteError("matrix entries must be finite")
    blocks = arr.reshape(rows, cols // group_size, group_size)
    mag_t = np.ascontiguousarray(np.abs(arr).reshape(-1, group_size).T)
    return blocks, np.maximum.reduce(mag_t, axis=0).reshape(blocks.shape[:2])


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


def _encode(blocks: np.ndarray, bmax: np.ndarray, alphas: np.ndarray):
    """4-bit codes (rows x cols) and 8-bit block-scale codes of ``blocks``,
    with ``alphas[i]`` the tensor scale of row ``i``.

    Block scale code: ``round(max|block| / (alpha * 6))``.  Element code:
    ``round(x / (alpha * block_scale))``; a block whose combined factor is 0
    gets code 0 throughout.
    """
    rows, nblocks, g = blocks.shape
    ratios = bmax / (alphas[:, None] * np.float32(formats.FP4_MAX))
    scale_codes = np.asarray(formats.encode_e4m3(ratios), dtype=np.uint8)
    combined = alphas[:, None] * formats.decode_e4m3(scale_codes)
    dead = combined == 0
    safe = np.where(dead, np.float32(1.0), combined)[:, :, None]
    codes = np.asarray(formats.encode_fp4(blocks / safe))
    codes[dead] = 0
    return codes.reshape(rows, nblocks * g), scale_codes


def quantize(x, cfg: QuantConfig = QuantConfig()) -> QuantizedTensor:
    """Quantize a finite float32 matrix blocked along columns, with one
    tensor scale calibrated on the whole matrix."""
    blocks, bmax = _blocks(x, cfg.group_size)
    alpha = np.float32(_tensor_scales(bmax.max(initial=np.float32(0)), cfg.policy))
    codes, scale_codes = _encode(blocks, bmax, np.full(len(blocks), alpha))
    return QuantizedTensor(codes, scale_codes, alpha, cfg.group_size)


def fold_blocks(codes: np.ndarray, block_scales: np.ndarray,
                group_size: int) -> np.ndarray:
    """``decode_fp4(code) * block_scale`` per element, as float32.

    Exact when the block scales are on the 8-bit grid: a 4-bit value has at
    most 2 significand bits and an 8-bit scale at most 4, so their product
    fits float32 (and the smallest, ``0.5 * 2**-9``, is a normal number).
    """
    rows, cols = codes.shape
    values = formats.decode_fp4(codes).reshape(rows, cols // group_size, group_size)
    values *= block_scales[:, :, None]  # in place: decode_fp4 returns a new array
    return values.reshape(rows, cols)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct the float32 matrix: ``(tensor_scale * block_scale) * q``."""
    combined = np.float32(qt.tensor_scale) * formats.decode_e4m3(qt.block_scales)
    expanded = np.repeat(combined, qt.group_size, axis=1)
    return expanded * formats.decode_fp4(qt.codes)


@dataclass
class RowQuantizedActivation:
    """Activation rows quantized independently, one tensor scale per row.

    Bitwise equivalent to calling ``quantize`` on each row alone (the
    calibration then sees only that token), which keeps a token's codes
    independent of what else shares the batch.  The block-scale fold is
    cached after its first use (``folded``), so every product of one
    shared input reuses it.
    """

    codes: np.ndarray  # m x k uint8
    block_scales: np.ndarray  # m x (k/group) uint8
    row_scales: np.ndarray  # m float32
    group_size: int = GROUP_SIZE
    _folded: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def shape(self):
        return self.codes.shape

    def folded(self) -> np.ndarray:
        """``fold_blocks`` of the codes with their decoded block scales,
        read-only; built on the first call and cached, so the codes and
        scales must not change after it."""
        if self._folded is None:
            folded = fold_blocks(
                self.codes, formats.decode_e4m3(self.block_scales), self.group_size
            )
            folded.flags.writeable = False
            self._folded = folded
        return self._folded

    def row(self, i: int) -> QuantizedTensor:
        return QuantizedTensor(
            codes=self.codes[i : i + 1],
            block_scales=self.block_scales[i : i + 1],
            tensor_scale=np.float32(self.row_scales[i]),
            group_size=self.group_size,
        )


def quantize_rows(x, cfg: QuantConfig = QuantConfig()) -> RowQuantizedActivation:
    """Quantize each row of a matrix as its own tensor, vectorized.

    Runs the operation sequence of ``quantize`` with a tensor scale
    calibrated per row, so ``quantize_rows(x).row(i)`` matches
    ``quantize(x[i:i+1])`` bit-for-bit under the same policy.
    """
    blocks, bmax = _blocks(x, cfg.group_size)
    alphas = _tensor_scales(bmax.max(axis=1, initial=np.float32(0)), cfg.policy)
    codes, scale_codes = _encode(blocks, bmax, alphas)
    return RowQuantizedActivation(codes, scale_codes, alphas, cfg.group_size)
