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
    """Quantization parameters.

    ``group_size`` must stay 16 outside unit tests.  ``exact_scales`` is a
    test hook: block scales are carried as unrounded float32 reals instead
    of 8-bit codes, which keeps every scaled value inside [-6, 6].
    """

    group_size: int = GROUP_SIZE
    policy: TensorScalePolicy = TensorScalePolicy.AMAX_CALIBRATED
    exact_scales: bool = False

    def __post_init__(self):
        if self.group_size < 1:
            raise ConfigError("group_size must be positive")


@dataclass
class QuantizedTensor:
    """A quantized matrix: 4-bit codes, per-block scales, one tensor scale.

    ``codes`` is rows x cols uint8 (values 0..15); ``block_scales`` is
    rows x (cols/group) uint8 codes of the 8-bit grid.  When built with the
    ``exact_scales`` hook, ``exact_block_scales`` holds float32 reals and
    ``block_scales`` is None.  Blocking is always along the column axis.
    The block-scale fold a product needs is cached on the tensor after its
    first use (``folded_t``).
    """

    codes: np.ndarray
    block_scales: Optional[np.ndarray]
    tensor_scale: np.float32
    group_size: int = GROUP_SIZE
    exact_block_scales: Optional[np.ndarray] = field(default=None, repr=False)
    _folded_t: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def shape(self):
        return self.codes.shape

    def block_scale_values(self) -> np.ndarray:
        """Per-block scale factors as float32, decoded or exact."""
        if self.exact_block_scales is not None:
            return self.exact_block_scales
        return formats.decode_e4m3(self.block_scales)

    def folded(self) -> np.ndarray:
        """``fold_blocks`` of this tensor: rows x cols float32, fresh."""
        return fold_blocks(self.codes, self.block_scale_values(), self.group_size)

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

    def combined_scales(self) -> np.ndarray:
        """float32 ``tensor_scale * block_scale`` per block, the factor both
        quantize and dequantize apply."""
        return np.float32(self.tensor_scale) * self.block_scale_values()

    def serialize(self) -> bytes:
        """Debug byte dump: magic, version, shape, group, tensor scale,
        packed codes (two per byte, low nibble first, row-major), then the
        block scale bytes row-major."""
        if self.block_scales is None:
            raise ValueError("exact-scale tensors have no byte form")
        rows, cols = self.codes.shape
        head = b"MXQT" + struct.pack(
            "<IIII", 1, rows, cols, self.group_size
        ) + struct.pack("<f", float(self.tensor_scale))
        flat = self.codes.reshape(-1)
        packed = (flat[0::2] | (flat[1::2] << np.uint8(4))).astype(np.uint8)
        return head + packed.tobytes() + self.block_scales.reshape(-1).tobytes()

    @classmethod
    def deserialize(cls, data: bytes) -> "QuantizedTensor":
        if data[:4] != b"MXQT":
            raise ValueError("bad magic")
        version, rows, cols, group = struct.unpack_from("<IIII", data, 4)
        if version != 1:
            raise ValueError(f"unsupported version {version}")
        (tscale,) = struct.unpack_from("<f", data, 20)
        off = 24
        n_code_bytes = rows * cols // 2
        packed = np.frombuffer(data, dtype=np.uint8, count=n_code_bytes, offset=off)
        off += n_code_bytes
        codes = np.empty(rows * cols, dtype=np.uint8)
        codes[0::2] = packed & np.uint8(0x0F)
        codes[1::2] = packed >> np.uint8(4)
        scales = np.frombuffer(
            data, dtype=np.uint8, count=rows * (cols // group), offset=off
        )
        return cls(
            codes=codes.reshape(rows, cols),
            block_scales=scales.reshape(rows, cols // group).copy(),
            tensor_scale=np.float32(tscale),
            group_size=group,
        )


def _as_working(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim != 2:
        raise ShapeMismatchError("expected a 2-D matrix")
    return arr


def tensor_scale(x, policy: TensorScalePolicy) -> np.float32:
    """Tensor-level scale for a matrix under the given policy.

    Calibrated: ``max|x| / (6 * 448)``, or 1.0 for an all-zero matrix.
    Unit: always 1.0.
    """
    arr = _as_working(x)
    if not np.isfinite(arr).all():
        raise NonFiniteError("matrix entries must be finite")
    if policy is TensorScalePolicy.UNIT:
        return np.float32(1.0)
    amax = np.abs(arr).max() if arr.size else np.float32(0.0)
    if amax == 0:
        return np.float32(1.0)
    return np.float32(amax) / _SCALE_DENOM


def block_scale_code(block, alpha) -> np.uint8:
    """8-bit scale code for one block: round(max|block| / (alpha * 6))."""
    blk = np.asarray(block, dtype=np.float32)
    if not np.isfinite(blk).all():
        raise NonFiniteError("block entries must be finite")
    bmax = np.abs(blk).max()
    if bmax == 0:
        return np.uint8(0)
    denom = np.float32(alpha) * np.float32(formats.FP4_MAX)
    return np.uint8(formats.encode_e4m3(bmax / denom))


def _block_amax(blocks: np.ndarray) -> np.ndarray:
    """``max|x|`` over the last axis of rows x nblocks x group.

    Reduced across the rows of a transposed copy: numpy is several times
    slower reducing a 16-wide inner axis, and a max is exact either way.
    """
    rows, nblocks, g = blocks.shape
    mag_t = np.ascontiguousarray(np.abs(blocks).reshape(-1, g).T)
    return np.maximum.reduce(mag_t, axis=0).reshape(rows, nblocks)


def quantize(x, cfg: QuantConfig = QuantConfig()) -> QuantizedTensor:
    """Quantize a finite float32 matrix blocked along columns."""
    arr = _as_working(x)
    rows, cols = arr.shape
    if cols % cfg.group_size != 0:
        raise ShapeMismatchError(
            f"columns ({cols}) not divisible by group size ({cfg.group_size})"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteError("matrix entries must be finite")

    g = cfg.group_size
    alpha = tensor_scale(arr, cfg.policy)
    blocks = arr.reshape(rows, cols // g, g)
    bmax = _block_amax(blocks)  # float32

    if cfg.exact_scales:
        denom = alpha * np.float32(formats.FP4_MAX)
        sigma = bmax / denom  # float32 reals, 0 for zero blocks
        # Scale via (x / blockmax) * 6 so no scaled magnitude exceeds 6.
        safe_bmax = np.where(bmax == 0, np.float32(1.0), bmax)[:, :, None]
        scaled = (blocks / safe_bmax) * np.float32(formats.FP4_MAX)
        codes = np.asarray(formats.encode_fp4(scaled))
        codes[np.broadcast_to((bmax == 0)[:, :, None], codes.shape)] = 0
        return QuantizedTensor(
            codes=codes.reshape(rows, cols),
            block_scales=None,
            tensor_scale=alpha,
            group_size=g,
            exact_block_scales=sigma,
        )

    denom = alpha * np.float32(formats.FP4_MAX)
    ratios = bmax / denom
    scale_codes = np.asarray(formats.encode_e4m3(ratios), dtype=np.uint8)
    sigma = formats.decode_e4m3(scale_codes)
    combined = np.float32(alpha) * sigma  # rows x nblocks float32
    dead = combined == 0
    safe = np.where(dead, np.float32(1.0), combined)[:, :, None]
    scaled = blocks / safe
    codes = np.asarray(formats.encode_fp4(scaled))
    codes[np.broadcast_to(dead[:, :, None], codes.shape)] = 0
    return QuantizedTensor(
        codes=codes.reshape(rows, cols),
        block_scales=scale_codes,
        tensor_scale=alpha,
        group_size=g,
    )


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
    combined = qt.combined_scales()
    expanded = np.repeat(combined, qt.group_size, axis=1)
    return expanded * formats.decode_fp4(qt.codes)


@dataclass
class RowQuantizedActivation:
    """Activation rows quantized independently, one tensor scale per row.

    Bitwise equivalent to calling ``quantize`` on each row alone (the
    calibration then sees only that token), which keeps a token's codes
    independent of what else shares the batch.
    """

    codes: np.ndarray  # m x k uint8
    block_scales: np.ndarray  # m x (k/group) uint8
    row_scales: np.ndarray  # m float32
    group_size: int = GROUP_SIZE

    @property
    def shape(self):
        return self.codes.shape

    def folded(self) -> np.ndarray:
        """``fold_blocks`` of the codes with their decoded block scales."""
        return fold_blocks(
            self.codes, formats.decode_e4m3(self.block_scales), self.group_size
        )

    def row(self, i: int) -> QuantizedTensor:
        return QuantizedTensor(
            codes=self.codes[i : i + 1],
            block_scales=self.block_scales[i : i + 1],
            tensor_scale=np.float32(self.row_scales[i]),
            group_size=self.group_size,
        )


def quantize_rows(x, cfg: QuantConfig = QuantConfig()) -> RowQuantizedActivation:
    """Quantize each row of a matrix as its own tensor, vectorized.

    Replays exactly the float32 operation sequence of ``quantize`` on a
    single row, so ``quantize_rows(x).row(i)`` matches ``quantize(x[i:i+1])``
    bit-for-bit under the same policy.
    """
    if cfg.exact_scales:
        raise ConfigError("exact_scales has no per-row form")
    arr = _as_working(x)
    rows, cols = arr.shape
    if cols % cfg.group_size != 0:
        raise ShapeMismatchError(
            f"columns ({cols}) not divisible by group size ({cfg.group_size})"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteError("matrix entries must be finite")

    g = cfg.group_size
    blocks = arr.reshape(rows, cols // g, g)
    bmax = _block_amax(blocks)
    if cfg.policy is TensorScalePolicy.UNIT:
        alphas = np.ones(rows, dtype=np.float32)
    else:
        amax = bmax.max(axis=1)  # the row's max|x|: max is exact
        alphas = np.where(amax == 0, np.float32(1.0), amax / _SCALE_DENOM)
    denom = alphas[:, None] * np.float32(formats.FP4_MAX)
    ratios = bmax / denom
    scale_codes = np.asarray(formats.encode_e4m3(ratios), dtype=np.uint8)
    combined = alphas[:, None] * formats.decode_e4m3(scale_codes)
    dead = combined == 0
    safe = np.where(dead, np.float32(1.0), combined)[:, :, None]
    codes = np.asarray(formats.encode_fp4(blocks / safe))
    codes[np.broadcast_to(dead[:, :, None], codes.shape)] = 0
    return RowQuantizedActivation(
        codes=codes.reshape(rows, cols),
        block_scales=scale_codes,
        row_scales=alphas,
        group_size=g,
    )
