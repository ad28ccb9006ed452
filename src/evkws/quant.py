"""Fixed-point primitives shared by the quantized network.

All tensors are symmetric signed 8-bit with zero point 0. Every layer
accumulates in int32, and ``requantize`` takes int32 accumulators alone;
results return to 8 bits through a rounding right shift (add half, shift,
saturate), optionally after an integer scale multiplier. Each block's scale
is fixed when the block is built: it checks its scales then and keeps the
clamp window ``_window`` derives, so ``requantize(acc, block)`` checks
nothing but the accumulators.
Negative values shift arithmetically, so rounding is half toward +inf
everywhere, matching what a hardware barrel shifter with an added offset
produces.

Sigmoid and tanh for the recurrent head come from 256-entry tables indexed by
an int8 whose value q represents q/16, covering [-8, 8). Sigmoid entries are
round(256 * sigmoid(x)) in [0, 256]; tanh entries are round(127 * tanh(x)) in
[-127, 127]. Multiplying by a sigmoid entry therefore scales by 256, undone
with a rounding shift by 8. ``lut_sigmoid`` and ``lut_tanh`` take int8 arrays
alone, as ``requantize`` makes them, and read entry q + 128 at byte q ^ 128.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .events import int_column

I8_MIN = -128
I8_MAX = 127
I32_MIN = -2**31
I32_MAX = 2**31 - 1
MAX_SHIFT = 62  # rounding offset 2**61 plus a scaled value below 2**62

# Age offsets enter the network scaled by 1/64 so the default 5000 us window
# maps inside int8 range.
DT_SHIFT = 6

LUT_SIZE = 256
LUT_INPUT_STEP = 16  # table index q encodes q / 16

_XS = (np.arange(LUT_SIZE) - 128) / LUT_INPUT_STEP  # entry i is x = _XS[i]
SIGMOID_LUT = np.floor(256.0 / (1.0 + np.exp(-_XS)) + 0.5).astype(np.int32)
TANH_LUT = np.floor(127.0 * np.tanh(_XS) + 0.5).astype(np.int32)


def rounding_rshift(value, shift: int) -> np.ndarray:
    """Shift right with rounding half toward +inf, in int64.

    ``value`` must be integers within the int64 range, as
    ``events.int_column`` takes them: float, bool and wider values are
    refused, never truncated or wrapped. Shifts lie in [0, 63], and the
    rounding bit is added after the shift, so no int64 wraps.
    """
    if not 0 <= shift <= 63:
        raise ValidationError("shift must lie in [0, 63]")
    value = int_column(value, "shifted values").astype(np.int64, copy=False)
    if not shift:
        return value.copy()
    return (value >> shift) + ((value >> (shift - 1)) & 1)


def saturate_i8(value) -> np.ndarray:
    """Clamp to [-128, 127] as int8.

    Clamps with ``ndarray.clip`` and bounds of the array's own dtype: on a
    (256, 72) int32 array that takes about 10 us, where a ``maximum`` and
    ``minimum`` pair against Python-int bounds took 26-37 us. No unsigned
    or boolean value lies below -128, and numpy 2 refuses that bound for an
    unsigned array, so such input only takes the upper clamp.
    """
    value = np.asarray(value)
    bound = value.dtype.type
    low = None if value.dtype.kind in "bu" else bound(I8_MIN)
    return value.clip(low, bound(I8_MAX)).astype(np.int8)


def _window(scale_num: int, scale_shift: int, low: int) -> tuple:
    """How ``requantize`` takes int32 accumulators to int8 outputs in
    ``[low, 127]`` at one scale: ``(lo, hi, scale dtype, rounding offset,
    last clamp)``. ``lo`` and ``hi``, int32 scalars, bound the window
    outside which the output saturates; the last clamp is the output range
    in the scale dtype where ``scale_num > 2**scale_shift``, None otherwise.
    A ``Block`` derives its own when it is built, from scales it checked.
    """
    half = (1 << scale_shift) >> 1
    # Python ints, so that no bound overflows; 0 < hi and lo < 2**62
    lo = (((low + 1) << scale_shift) - half - 1) // scale_num
    hi = -((half - (I8_MAX << scale_shift)) // scale_num)
    # every int32 below a lo past the int32 maximum gives the lowest output
    lo, hi = min(max(lo, I32_MIN), I32_MAX), min(hi, I32_MAX)
    reach = max(-lo, hi) * scale_num + half  # below 2**63
    scale = np.int32 if reach <= I32_MAX else np.int64
    last = ((scale(low), scale(I8_MAX)) if scale_num > 1 << scale_shift
            else None)
    return np.int32(lo), np.int32(hi), scale, half, last


def requantize(acc: np.ndarray, block) -> np.ndarray:
    """int32 accumulators of ``block`` back to int8: scale, rounding shift,
    saturate, at the block's ``scale_num`` and ``scale_shift``, rectified
    (negative outputs become 0) where its kind rectifies.

    ``acc`` must be an int32 array; any other input, a Python int
    included, is refused. Everything else was checked and derived when the
    block was built (``Block.window``, from ``_window``), so a call only
    computes: it clamps first, in int32, to the window ``[lo, hi]`` outside
    which the output saturates: ``lo`` is the largest accumulator that
    gives the lowest output (-128, or 0 when rectifying) and ``hi`` the
    smallest that gives 127, both capped to int32. Then it scales in int32
    where the window's scaled ends plus the rounding offset fit, and in
    int64 otherwise, which always holds them, so the result is exact. When
    ``scale_num <= 2**scale_shift`` the window's scaled ends already lie in
    the output range; otherwise a last clamp saturates. Clamps take
    ``ndarray.clip`` with bounds of the array's dtype: on a chunk's
    accumulators that costs a third of ``maximum`` and ``minimum``, and the
    method skips the dispatch cost of ``np.clip``.
    """
    if not isinstance(acc, np.ndarray) or acc.dtype != np.int32:
        raise ValidationError(
            "accumulators must be an int32 array, got "
            f"{getattr(acc, 'dtype', type(acc).__name__)}")
    lo, hi, scale, half, last = block.window
    scaled = acc.clip(lo, hi, out=np.empty_like(acc)).astype(scale,
                                                               copy=False)
    if block.scale_num != 1:
        scaled *= block.scale_num
    scaled += half
    scaled >>= block.scale_shift
    if last is not None:
        scaled.clip(*last, out=scaled)
    return scaled.astype(np.int8)


# the ages from which quantize_dt saturates: + 32, >> 6 gives -128 and 127
_DT_HALF = 1 << (DT_SHIFT - 1)
_DT_RANGE = [np.int64((q << DT_SHIFT) - _DT_HALF) for q in (I8_MIN, I8_MAX)]


def quantize_dt(dt_us) -> np.ndarray:
    """Microsecond age to the int8 feature scale (1/64 us, saturated): as
    ``saturate_i8(rounding_rshift(dt_us, 6))``, clamped first, in int64."""
    q = int_column(dt_us, "ages").clip(*_DT_RANGE, dtype=np.int64)
    q += _DT_HALF
    q >>= DT_SHIFT
    return q.astype(np.int8)


def lut_sigmoid(q: np.ndarray) -> np.ndarray:
    """Sigmoid entries, in [0, 256], of an int8 array (see above)."""
    return SIGMOID_LUT.take(q.view(np.uint8) ^ 128)


def lut_tanh(q: np.ndarray) -> np.ndarray:
    """Tanh entries, in [-127, 127], of an int8 array."""
    return TANH_LUT.take(q.view(np.uint8) ^ 128)


def div_round_half_away(total, count):
    """Integer mean with ties away from zero, for signed channel offsets
    (ints or arrays)."""
    if np.any(np.asarray(count) <= 0):
        raise ValidationError("count must be positive")
    return np.sign(total) * ((abs(total) + count // 2) // count)


def div_round_half_up_nonneg(total, count):
    """Integer mean rounding half up; operands must be non-negative (ints or
    arrays)."""
    if np.any(np.asarray(count) <= 0):
        raise ValidationError("count must be positive")
    if np.any(np.asarray(total) < 0):
        raise ValidationError("total must be non-negative")
    return (total + count // 2) // count
