"""W4A4 matrix multiplication over quantized tensors.

``qgemm(a, w)`` computes ``a @ w.T`` where both operands are quantized
along the shared reduction axis in 16-wide blocks (``GROUP_SIZE``, the one
width the quantizer produces, so two operands always agree on it).  The
production route is fold, then multiply:

* Each operand is folded: every 4-bit value times its 8-bit block scale.
  That product is exact in float32 (2 significand bits times 4).  A weight
  shadow's fold is built from its codes once and cached with it
  (``QuantizedTensor.folded_t``).  An activation's comes built from
  ``quantize_rows``, in the pass that made its codes, and the products of
  one shared input reuse it (``RowQuantizedActivation.folded``); only the
  mirror folds an activation.
* The kernel forms every 16-wide block term ``a_hat[:, blk] @ w_hat_t[blk]``
  of a tile of rows in one batched ``np.matmul``, over the operand views
  ``a_hat`` as [blocks, rows, 16] and ``w_hat_t`` as [blocks, 16, n].  It
  sums the terms in ascending block order, starting from +0.0, with one
  ``np.add.reduce`` over the block axis straight into the output rows, and
  multiplies the tensor scales in once at the end.  Each block term is
  exact: every partial sum of a block's grid products is a multiple of 1/4
  no larger than 576 in magnitude (at most 12 significand bits), and the
  two block scales add at most 8.  So no term depends on the summation order inside the matmul,
  and the only rounding is the float32 accumulation across blocks.
* Rows are independent, so the kernel runs tile by tile over them.  A tile
  holds as many rows as fit their block terms into ``_TILE_BYTES``, a
  fixed budget that keeps the terms in a core's L2 cache next to the
  weight fold, and at least one row: one row's terms are 1/16 of the
  weight fold the kernel already holds.  So a tile is always one batched
  ``np.matmul`` and one ordered reduce.  A single row (a decode step's) is
  its own tile and skips the tiling.

``qgemm_rows`` is the one entry to this kernel, and ``qgemm`` another name
for it.  Its left operand is a ``RowQuantizedActivation`` (one tensor scale
per row) or a ``QuantizedTensor`` (one scale, which ``row_scales`` repeats
per row); either way row i is scaled by ``float32(row_scale_i *
w.tensor_scale)``.  ``qgemm_mirror`` runs the kernel on both operands
folded afresh from their codes, never on a cached or carried fold.

The other route, the block inner product of the raw grid values scaled
after the product, is the test suite's independent bitwise oracle.  Every
per-block quantity is exact in both routes, so they agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from . import formats
from .errors import ShapeMismatchError
from .quantizer import GROUP_SIZE, QuantizedTensor, RowQuantizedActivation, fold_blocks


def _check_operands(a: RowQuantizedActivation | QuantizedTensor,
                    w: QuantizedTensor) -> None:
    """Reject ``a @ w.T`` unless the reduction dims agree, m, n and k are
    positive and k is a multiple of 16.  ``a`` is a ``QuantizedTensor`` or a
    ``RowQuantizedActivation``."""
    (m, k), (n, k_w) = a.codes.shape, w.codes.shape
    if k != k_w:
        raise ShapeMismatchError(f"reduction dims differ: {k} vs {k_w}")
    if min(m, n, k) < 1:
        raise ShapeMismatchError("gemm dims must be positive")
    if k % GROUP_SIZE != 0:
        raise ShapeMismatchError("reduction dim must be divisible by 16")


# Bytes of float32 block terms one tile may hold, unless one row's terms
# are more: small enough that they stay in a core's L2 cache beside the
# weight fold they read.  Of 128 KiB to 1 MiB, 1 MiB was fastest or tied on
# every benchmark shape at m = 512.
_TILE_BYTES = 1 << 20


def _block_loop(a_hat: np.ndarray, w_hat_t: np.ndarray,
                out_scales: np.ndarray) -> np.ndarray:
    """``out_scales[i] * sum_b a_hat[i, b] @ w_hat_t[b]`` over blocks ``b``
    of 16 columns, accumulated in ascending order in float32 from +0.0.

    One row (a decode step's) is one tile by itself, so it skips the tile
    arithmetic: one matmul into its [nblocks, 1, n] terms, one ordered sum.
    """
    m, k = a_hat.shape
    n = w_hat_t.shape[1]
    nb = k // GROUP_SIZE
    w3 = w_hat_t.reshape(nb, GROUP_SIZE, n)
    if m == 1:
        terms = np.empty((nb, 1, n), dtype=np.float32)
        np.matmul(a_hat.reshape(nb, 1, GROUP_SIZE), w3, out=terms)  # exact
        out = _ordered_sum(terms, np.empty((1, n), dtype=np.float32))
    else:
        rows = max(1, _TILE_BYTES // (4 * nb * n))
        a3 = a_hat.reshape(m, nb, GROUP_SIZE).transpose(1, 0, 2)
        out = np.empty((m, n), dtype=np.float32)
        terms = np.empty((nb, min(rows, m), n), dtype=np.float32)
        for r0 in range(0, m, rows):
            acc = out[r0 : r0 + rows]
            t = terms[:, : len(acc)]
            np.matmul(a3[:, r0 : r0 + rows], w3, out=t)  # exact
            _ordered_sum(t, acc)
    out *= out_scales[:, None]
    return out


def _ordered_sum(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` set to the sum of ``terms`` over its leading (block) axis,
    added in ascending order in float32 from +0.0."""
    if out.size > 1:  # sequential over the block axis
        np.add.reduce(terms, axis=0, out=out, initial=0.0)
    else:  # numpy would sum a lone output element pairwise
        out[...] = np.add.accumulate(terms, axis=0)[-1] + np.float32(0.0)
    return out


def qgemm_rows(a: RowQuantizedActivation | QuantizedTensor,
               w: QuantizedTensor) -> np.ndarray:
    """Product of an m x k quantized left operand and an n x k quantized
    tensor, as float32 m x n; ``a`` is a ``RowQuantizedActivation`` or a
    ``QuantizedTensor``.

    For an activation it is bitwise equal to stacking ``qgemm(a.row(i),
    w)`` over i: the block loop is elementwise across rows and the final
    scale multiplies row i by ``float32(row_scale_i * w.tensor_scale)``, as
    for a single row.  Caches ``w``'s fold on ``w``, as for a weight shadow.
    """
    _check_operands(a, w)
    return _block_loop(a.folded(), w.folded_t(),
                       a.row_scales * np.float32(w.tensor_scale))


qgemm = qgemm_rows


def qgemm_mirror(a: RowQuantizedActivation | QuantizedTensor,
                 w: QuantizedTensor) -> np.ndarray:
    """``qgemm`` with both operands folded afresh from their codes.

    It never reads ``w``'s cached fold nor the fold an activation carries,
    so it checks either against the codes it was built from.
    """
    _check_operands(a, w)
    return _block_loop(fold_blocks(a.codes, formats.decode_e4m3(a.block_scales)),
                       w.folded().T, a.row_scales * np.float32(w.tensor_scale))


def reference_gemm(a_values: np.ndarray, w_values: np.ndarray) -> np.ndarray:
    """Tolerance oracle: dense product of dequantized views in float64."""
    if a_values.shape[1] != w_values.shape[1]:
        raise ShapeMismatchError("reduction dims differ")
    return a_values.astype(np.float64) @ w_values.astype(np.float64).T
