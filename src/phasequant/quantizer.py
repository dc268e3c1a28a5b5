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
the scales that pass already decoded, and hands it over with the codes,
so the GEMM never folds an activation.  A single row, a decode step's
input, takes the same operations in fewer numpy calls, with the same bits:
its codes come from a lookup in the code edges of the two rounding rules
(``formats.E4M3_EDGES``, ``formats.FP4_EDGES``).  A weight's fold
(``QuantizedTensor.folded_t``) is built from its codes on first use and
cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import formats
from .errors import NonFiniteError, ShapeMismatchError

GROUP_SIZE = 16

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


def _require_finite(finite: bool, what: str) -> None:
    if not finite:
        raise NonFiniteError(f"{what} must be finite")


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
    _require_finite(np.isfinite(bmax).all(), "matrix entries")
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
    # + 1 where the quotient is 0, + 0 (which keeps its bits) elsewhere
    return scales + (scales == 0)


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
    _require_finite(np.isfinite(ratios).all(), "scale to encode")
    scale_codes = formats.e4m3_magnitude_codes(ratios)
    scales = formats.E4M3_VALUES.take(scale_codes)  # codes 0..126: no NaN
    combined = alphas[:, None] * scales
    dead = combined == 0
    combined[dead] = 1
    scaled = np.divide(mag, combined[:, :, None], out=mag)
    _require_finite(np.isfinite(scaled).all(), "value to encode")
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


def fold_blocks(codes: np.ndarray, block_scales: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """``decode_fp4(code) * block_scale`` per element, as float32; into
    ``out``, a contiguous float32 array of the codes' shape, if given.

    Exact when the block scales are on the 8-bit grid: a 4-bit value has at
    most 2 significand bits and an 8-bit scale at most 4, so their product
    fits float32 (and the smallest, ``0.5 * 2**-9``, is a normal number).
    """
    rows, cols = codes.shape
    values = formats.decode_fp4(codes, out=out).reshape(
        rows, cols // GROUP_SIZE, GROUP_SIZE)
    values *= block_scales[:, :, None]  # in place: a new array or ``out``
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
    over the block-scale fold with the codes, so every product of one
    shared input reuses it.
    """

    codes: np.ndarray  # m x k uint8
    block_scales: np.ndarray  # m x (k/16) uint8
    row_scales: np.ndarray  # m float32
    fold: np.ndarray  # m x k float32, read-only: fold_blocks of the codes

    def folded(self) -> np.ndarray:
        """The fold ``quantize_rows`` built with the codes."""
        return self.fold

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
    in the same pass from the scales already decoded, into the magnitude
    buffer the codes were read from, and comes with the activation,
    read-only.  A single row takes ``_quantize_row``, with the same bits.
    """
    arr, mag, bmax = _blocks(x)
    if len(arr) == 1:
        return _quantize_row(arr, mag[0], bmax[0], cfg.policy)
    alphas = _tensor_scales(bmax.max(axis=1, initial=np.float32(0)), cfg.policy)
    codes, scale_codes, scales = _encode(arr, mag, bmax, alphas)
    fold = fold_blocks(codes, scales, out=mag.reshape(codes.shape))
    fold.flags.writeable = False
    return RowQuantizedActivation(codes, scale_codes, alphas, fold)


def _quantize_row(arr: np.ndarray, mag: np.ndarray, bmax: np.ndarray,
                  policy: TensorScalePolicy) -> RowQuantizedActivation:
    """``quantize_rows`` of a one-row matrix ``arr``, a decode step's input,
    from its [nblocks, 16] magnitudes ``mag`` (overwritten) and block
    maxima ``bmax``: the operation sequence of ``_encode`` in fewer numpy
    calls, with the same bits.

    Each finiteness check reads one max, taken from 0 so that a row of no
    columns has one: a NaN carries through a max, and the scale ratios and
    scaled values are nonnegative, so a max is finite exactly when every
    value under it is.  The scale codes and the element
    codes each come from one lookup in the code edges of their rounding
    rule (``formats.E4M3_EDGES``, ``formats.FP4_EDGES``), and the fold
    from the 4-bit value table.  At one row's few blocks that costs fewer
    numpy calls than the many-row route; at many rows the lookup is the
    slower one.
    """
    alpha = _tensor_scales(bmax.max(initial=np.float32(0)), policy)
    ratios = bmax / (alpha * formats.FP4_MAX)
    _require_finite(math.isfinite(ratios.max(initial=np.float32(0))),
                    "scale to encode")
    scale_codes = formats.E4M3_EDGES.searchsorted(ratios, side="right")
    scales = formats.E4M3_VALUES.take(scale_codes)
    combined = alpha * scales
    dead = combined == 0
    combined[dead] = 1
    scaled = np.divide(mag, combined[:, None], out=mag)
    _require_finite(math.isfinite(scaled.max(initial=np.float32(0))),
                    "value to encode")
    codes = formats.FP4_EDGES.searchsorted(scaled, side="right").astype(np.uint8)
    codes |= np.signbit(arr).reshape(codes.shape).view(np.uint8) << 3
    codes[dead] = 0
    fold = formats.FP4_VALUES.take(codes)
    fold *= scales[:, None]
    fold.flags.writeable = False
    return RowQuantizedActivation(codes.reshape(arr.shape),
                                  scale_codes.astype(np.uint8)[None],
                                  np.array((alpha,)),
                                  fold.reshape(arr.shape))
