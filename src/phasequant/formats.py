"""Bit-exact software emulation of two tiny floating-point grids.

Two formats are emulated at the code (bit-pattern) level:

* 4-bit, laid out ``[sign(1) | exponent(2) | mantissa(1)]`` with exponent
  bias 1.  Exponent 0 is subnormal (value ``mantissa * 0.5``), there are no
  infinities or NaNs, and the decoded grid is exactly
  ``{+-0, +-0.5, +-1, +-1.5, +-2, +-3, +-4, +-6}``.
* 8-bit, laid out ``[sign(1) | exponent(4) | mantissa(3)]`` with exponent
  bias 7, following the OCP convention for the 1-4-3 format: no infinities,
  a single NaN pattern per sign (exponent 1111 with mantissa 111), largest
  finite magnitude 448, subnormals ``mantissa * 2**-9``.

Encoding rounds to the nearest grid point with ties resolved toward the
code whose mantissa low bit is 0, saturates past the largest finite
magnitude, and preserves the sign of zero.  All functions are pure and
accept scalars or numpy arrays.  Each format's rounding rule is one
unchecked magnitude core.  Its code edges (``FP4_EDGES``, ``E4M3_EDGES``)
are the midpoints of neighbouring grid values, one float32 step up where
the tie rule sends the midpoint down; the tests check a lookup in them
against the core at every edge and both its float32 neighbours.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError

FP4_MAX = 6.0
E4M3_MAX = 448.0

# Nonnegative magnitude grid of the 4-bit format, in code order
# (code = sign<<3 | exp<<1 | mantissa).
_FP4_MAGNITUDES = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0], dtype=np.float64)

# Decoded value for every 4-bit code; index == code.  Codes 8..15 are the
# negative mirror, so code 8 decodes to -0.0.
FP4_VALUES = np.concatenate([_FP4_MAGNITUDES, -_FP4_MAGNITUDES]).astype(np.float32)


def _build_e4m3_values():
    values = np.zeros(256, dtype=np.float32)
    for code in range(256):
        sign = (code >> 7) & 1
        exp = (code >> 3) & 0xF
        man = code & 0x7
        if exp == 0:
            mag = man * 2.0**-9
        elif exp == 15 and man == 7:
            values[code] = np.float32(np.nan)
            continue
        else:
            mag = (1.0 + man / 8.0) * 2.0 ** (exp - 7)
        values[code] = np.float32(-mag if sign else mag)
    return values


E4M3_VALUES = _build_e4m3_values()

# Midpoints between adjacent magnitudes, exact in float32 and binary64.
_FP4_MID_FLOATS = tuple(float(lo + hi) / 2
                        for lo, hi in zip(_FP4_MAGNITUDES, _FP4_MAGNITUDES[1:]))


def require_finite(finite: bool, what: str) -> None:
    """Raise ``NonFiniteError`` ("<what> must be finite") unless ``finite``:
    the one finiteness error of both encoders and the quantizer."""
    if not finite:
        raise NonFiniteError(f"{what} must be finite")


def encode_fp4(x) -> np.ndarray:
    """Round finite values to the nearest 4-bit code, saturating at +-6.

    Ties go to the even-mantissa neighbour; the sign of zero is kept.
    Raises NonFiniteError on NaN or infinite input.
    """
    arr = np.asarray(x)
    require_finite(np.isfinite(arr).all(), "value to encode")
    codes = fp4_magnitude_codes(np.abs(arr))
    codes |= np.signbit(arr).astype(np.uint8) << np.uint8(3)
    if np.isscalar(x) or arr.ndim == 0:
        return codes[()]
    return codes


def fp4_magnitude_codes(mag) -> np.ndarray:
    """4-bit code (0..7) of the grid magnitude nearest each finite ``mag >=
    0``, saturating at 6, as a new uint8 array of ``mag``'s shape.

    The rounding rule of ``encode_fp4``, which adds the sign bit; unchecked,
    so a caller vouches that ``mag`` is finite and nonnegative.
    """
    mag = np.asarray(mag)
    # The magnitude code counts the midpoints below ``mag``.  Midpoint j
    # lies between codes j and j + 1, so a tie there goes to the even one:
    # down (strict compare) for even j, up (inclusive compare) for odd j.
    # Compared in the input's own dtype; every midpoint is exact in float32.
    codes = np.zeros(mag.shape, dtype=np.uint8)
    for j, mid in enumerate(_FP4_MID_FLOATS):
        codes += (mag >= mid) if j % 2 else (mag > mid)
    return codes


def decode_fp4(codes) -> np.ndarray:
    """Decoded grid value of each 4-bit code, as float32."""
    c = np.asarray(codes)
    if c.size and (c.min() < 0 or c.max() > 15):
        raise ValueError("4-bit code out of range")
    # about twice as fast as ``FP4_VALUES[c]``; every code is in range, so
    # "clip" moves none
    return np.take(FP4_VALUES, c, mode="clip")


def encode_e4m3(x) -> np.ndarray:
    """Round finite values to the nearest 8-bit code, saturating at +-448.

    Round-to-nearest, ties to even mantissa; never yields the NaN pattern.
    Works on float32 input as float32 and on any other input as float64,
    so each value is rounded once, from its own precision.
    """
    arr = np.asarray(x)
    require_finite(np.isfinite(arr).all(), "scale to encode")
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64)
    codes = e4m3_magnitude_codes(np.abs(arr))
    codes |= np.signbit(arr).astype(np.uint8) << np.uint8(7)
    if np.isscalar(x) or arr.ndim == 0:
        return codes[()]
    return codes


def e4m3_magnitude_codes(mag) -> np.ndarray:
    """8-bit code (0..126) of the grid magnitude nearest each finite float32
    or float64 ``mag >= 0``, saturating at 448, as uint8.

    The rounding rule of ``encode_e4m3``, which adds the sign bit;
    unchecked, so a caller vouches that ``mag`` is finite and nonnegative.
    Below ``2**-6`` the codes are the subnormals, ``rint(mag * 2**9)``
    (which reaches code 8, the smallest normal, at the top).  From there
    the significand of the bit pattern is rounded to 3 bits, half to even,
    and the exponent rebased: the result is the code itself, since both
    formats lay out ``[exponent | mantissa]`` and a carry out of the
    mantissa steps the exponent.
    """
    mag = np.minimum(mag, E4M3_MAX)
    info = np.finfo(mag.dtype)
    shift = info.nmant - 3  # significand bits below the kept three
    rebase = (info.maxexp - 8) << 3  # exponent bias (maxexp - 1) down to 7
    bits = mag.view(f"i{mag.itemsize}")
    # Adding half a kept step less one, plus the lowest kept bit, carries
    # past a tie exactly when that bit is odd: round half to even.
    below_half = (1 << (shift - 1)) - 1
    normal = ((bits + below_half + ((bits >> shift) & 1)) >> shift) - rebase
    subnormal = np.rint(mag * 512).astype(bits.dtype)
    return np.where(mag < 2.0**-6, subnormal, normal).astype(np.uint8)


def _code_edges(values: np.ndarray) -> np.ndarray:
    """For each code c in 1..``len(values) - 1``, the smallest nonnegative
    float32 that the rounding rule of the ascending grid ``values`` maps to
    c or above, as a read-only float32 array.

    That is the midpoint of ``values[c - 1]`` and ``values[c]`` (exact in
    float32: one bit past either value's significand), where a tie goes up
    to c, and the next float32 above it where c is odd, since the tie then
    goes down to the even code.  The rule is a non-decreasing step function
    of the magnitude, so ``np.searchsorted(edges, mag, side="right")`` is
    the magnitude core for every nonnegative float32 ``mag``.
    """
    mids = ((values[:-1] + values[1:]) / 2).astype(np.float32)
    odd = np.arange(1, len(values)) % 2 == 1
    edges = np.where(odd, np.nextafter(mids, np.float32(np.inf)), mids)
    edges.flags.writeable = False
    return edges


# Code edges of both rounding rules, for a ``searchsorted`` lookup where a
# few values make the compare-count or the bit arithmetic cost more in
# numpy calls than in work.
FP4_EDGES = _code_edges(_FP4_MAGNITUDES)
E4M3_EDGES = _code_edges(E4M3_VALUES[:127])


def decode_e4m3(codes) -> np.ndarray:
    """Decoded grid value of each 8-bit code; the NaN pattern is an error."""
    c = np.asarray(codes)
    if c.size and (c.min() < 0 or c.max() > 255):
        raise ValueError("8-bit code out of range")
    values = E4M3_VALUES[c]
    if np.isnan(values).any():
        raise ValueError("cannot decode the NaN pattern")
    return values


def format_tables() -> str:
    """All codes of both grids as ``code,value`` lines for diffing.

    The 16 four-bit codes come first, then the 256 eight-bit codes, both in
    ascending bit order, values in shortest round-trip decimal (signed zero
    kept, NaN spelled ``nan``).
    """
    lines = []
    for code in range(16):
        lines.append(f"{code},{float(FP4_VALUES[code])!r}")
    for code in range(256):
        lines.append(f"{code},{float(E4M3_VALUES[code])!r}")
    return "\n".join(lines) + "\n"
