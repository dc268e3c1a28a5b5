"""W4A4 matrix multiplication over quantized tensors.

``qgemm(a, w)`` computes ``a @ w.T`` where both operands are quantized
along the shared reduction axis.  The production route is fold, then
multiply:

* Each operand is folded: every 4-bit value times its 8-bit block scale.
  That product is exact in float32 (2 significand bits times 4).  A weight
  shadow's fold is built once and cached with it
  (``QuantizedTensor.folded_t``), and so is an activation's
  (``RowQuantizedActivation.folded``), which the products of one shared
  input reuse.
* The kernel forms every 16-wide block term ``a_hat[:, blk] @ w_hat_t[blk]``
  of a tile of rows in one batched ``np.matmul``, over the operand views
  ``a_hat`` as [blocks, rows, 16] and ``w_hat_t`` as [blocks, 16, n].  It
  sums the terms in ascending block order, starting from +0.0, with one
  ``np.add.reduce`` over the block axis, and multiplies the tensor scales in
  once at the end.  Each block term is exact: every partial sum of a
  block's grid products is a multiple of 1/4 no larger than 576 in
  magnitude (at most 12 significand bits), and the two block scales add at
  most 8.  So no term depends on the summation order inside the matmul,
  and the only rounding is the float32 accumulation across blocks.
* Rows are independent, so the kernel runs tile by tile over them.  A tile
  holds as many rows as fit their block terms into ``_TILE_BYTES``, a
  fixed budget that keeps the terms in a core's L2 cache next to the
  weight fold; when a single row's terms do not fit, its blocks go in
  chunks, each continuing the sum where the last left it.

``qgemm_rows`` is this kernel with one tensor scale per activation row and
``qgemm`` the case of one shared scale.  ``qgemm_mirror`` runs it on
operands folded afresh from their codes, never on a cached fold.

The other route, the block inner product of the raw grid values scaled
after the product, is the test suite's independent bitwise oracle.  Every
per-block quantity is exact in both routes, so they agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError
from .quantizer import QuantizedTensor, RowQuantizedActivation


def _check_operands(a, w: QuantizedTensor) -> None:
    """Reject ``a @ w.T`` unless the reduction dims and group sizes agree,
    m, n and k are positive and k is a multiple of 16.  ``a`` is a
    ``QuantizedTensor`` or a ``RowQuantizedActivation``."""
    (m, k), (n, k_w) = a.codes.shape, w.codes.shape
    if k != k_w:
        raise ShapeMismatchError(f"reduction dims differ: {k} vs {k_w}")
    if a.group_size != w.group_size:
        raise ShapeMismatchError("operands quantized with different group sizes")
    if min(m, n, k) < 1:
        raise ShapeMismatchError("gemm dims must be positive")
    if k % 16 != 0:
        raise ShapeMismatchError("reduction dim must be divisible by 16")


# Bytes of float32 block terms one tile may hold: small enough that they
# stay in a core's L2 cache beside the weight fold they read.  Of 128 KiB
# to 1 MiB, 1 MiB was fastest or tied on every benchmark shape at m = 512.
_TILE_BYTES = 1 << 20


def _block_loop(a_hat: np.ndarray, w_hat_t: np.ndarray,
                out_scales: np.ndarray, group_size: int) -> np.ndarray:
    """``out_scales[i] * sum_b a_hat[i, b] @ w_hat_t[b]`` over blocks ``b``
    of ``group_size`` columns, accumulated in ascending order in float32
    from +0.0."""
    m, k = a_hat.shape
    n = w_hat_t.shape[1]
    nb = k // group_size
    blocks = min(nb, max(1, _TILE_BYTES // (4 * n)))
    rows = max(1, _TILE_BYTES // (4 * blocks * n))
    a3 = a_hat.reshape(m, nb, group_size).transpose(1, 0, 2)
    w3 = w_hat_t.reshape(nb, group_size, n)
    out = np.zeros((m, n), dtype=np.float32)
    terms = np.empty((blocks, min(rows, m), n), dtype=np.float32)
    for r0 in range(0, m, rows):
        acc = out[r0 : r0 + rows]
        for b0 in range(0, nb, blocks):
            t = terms[: min(blocks, nb - b0), : len(acc)]
            np.matmul(a3[b0 : b0 + blocks, r0 : r0 + rows], w3[b0 : b0 + blocks],
                      out=t)  # exact
            t[0] += acc  # the sum so far, or +0.0: a -0.0 first term becomes +0.0
            if acc.size > 1:
                np.add.reduce(t, axis=0, out=acc)  # sequential over the block axis
            else:  # numpy would sum a lone output element pairwise
                acc[...] = np.add.accumulate(t, axis=0)[-1]
    out *= out_scales[:, None]
    return out


def _shared_scales(a: QuantizedTensor, w: QuantizedTensor) -> np.ndarray:
    scale = np.float32(a.tensor_scale) * np.float32(w.tensor_scale)
    return np.full(a.codes.shape[0], scale, dtype=np.float32)


def qgemm(a: QuantizedTensor, w: QuantizedTensor) -> np.ndarray:
    """Product of an m x k and an n x k quantized tensor, as float32 m x n.

    Caches ``w``'s fold on ``w``, as for a weight shadow.
    """
    _check_operands(a, w)
    return _block_loop(a.folded(), w.folded_t(), _shared_scales(a, w),
                       a.group_size)


def qgemm_mirror(a: QuantizedTensor, w: QuantizedTensor) -> np.ndarray:
    """``qgemm`` with both operands folded afresh from their codes.

    It never reads ``w``'s cached fold, so it checks that fold against the
    codes it was built from.
    """
    _check_operands(a, w)
    return _block_loop(a.folded(), w.folded().T, _shared_scales(a, w),
                       a.group_size)


def qgemm_rows(act: RowQuantizedActivation, w: QuantizedTensor) -> np.ndarray:
    """``qgemm`` with per-row activation tensor scales, batched.

    Bitwise equal to stacking ``qgemm(act.row(i), w)`` over i: the block
    loop is elementwise across rows and the final scale multiplies row i by
    ``float32(row_scale_i * w.tensor_scale)`` exactly as the scalar path.
    """
    _check_operands(act, w)
    return _block_loop(act.folded(), w.folded_t(),
                       act.row_scales * np.float32(w.tensor_scale),
                       act.group_size)


def reference_gemm(a_values: np.ndarray, w_values: np.ndarray) -> np.ndarray:
    """Tolerance oracle: dense product of dequantized views in float64."""
    if a_values.shape[1] != w_values.shape[1]:
        raise ShapeMismatchError("reduction dims differ")
    return a_values.astype(np.float64) @ w_values.astype(np.float64).T
