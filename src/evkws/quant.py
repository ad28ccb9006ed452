"""Fixed-point primitives shared by the quantized network.

All tensors are symmetric signed 8-bit with zero point 0. Layer accumulation
happens in 32 bits; results return to 8 bits through a rounding right shift
(add half, shift, saturate), optionally after an integer scale multiplier.
Negative values shift arithmetically, so rounding is half toward +inf
everywhere, matching what a hardware barrel shifter with an added offset
produces.

Sigmoid and tanh for the recurrent head come from 256-entry tables indexed by
an int8 whose value q represents q/16, covering [-8, 8). Sigmoid entries are
round(256 * sigmoid(x)) in [0, 256]; tanh entries are round(127 * tanh(x)) in
[-127, 127]. Multiplying by a sigmoid entry therefore scales by 256, undone
with a rounding shift by 8.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

I8_MIN = -128
I8_MAX = 127
I64_MAX = 2**63 - 1

# Age offsets enter the network scaled by 1/64 so the default 5000 us window
# maps inside int8 range.
DT_SHIFT = 6

LUT_SIZE = 256
LUT_INPUT_STEP = 16  # table index q encodes q / 16


def _build_luts() -> tuple[np.ndarray, np.ndarray]:
    xs = (np.arange(LUT_SIZE) - 128) / LUT_INPUT_STEP
    sig = np.floor(256.0 / (1.0 + np.exp(-xs)) + 0.5).astype(np.int32)
    tanh = np.floor(127.0 * np.tanh(xs) + 0.5).astype(np.int32)
    return sig, tanh


SIGMOID_LUT, TANH_LUT = _build_luts()


def rounding_rshift(value, shift: int) -> np.ndarray:
    """Shift right with rounding half toward +inf, in int64."""
    if shift < 0:
        raise ValidationError("shift must be non-negative")
    return (np.asarray(value, dtype=np.int64) + ((1 << shift) >> 1)) >> shift


def saturate_i8(value) -> np.ndarray:
    """Clamp to [-128, 127] as int8.

    Clamps with ``maximum``/``minimum``: ``np.clip`` costs several times
    more on the short vectors of the head. No unsigned value lies below
    -128, and numpy 2 refuses that bound for an unsigned array, so unsigned
    input only takes the upper clamp.
    """
    value = np.asarray(value)
    if value.dtype.kind != "u":
        value = np.maximum(value, I8_MIN)
    return np.minimum(value, I8_MAX).astype(np.int8)


def requantize(acc, scale_num: int, scale_shift: int) -> np.ndarray:
    """32-bit accumulator back to int8: scale, rounding shift, saturate."""
    if scale_shift < 0:
        raise ValidationError("shift must be non-negative")
    acc = np.asarray(acc)
    if acc.dtype == np.uint64 and (acc > np.uint64(I64_MAX)).any():
        raise ValidationError("accumulator beyond the int64 range")
    scaled = acc.astype(np.int64)  # the one copy; the rest in place
    scaled *= scale_num
    scaled += (1 << scale_shift) >> 1
    scaled >>= scale_shift
    np.maximum(scaled, I8_MIN, out=scaled)
    return np.minimum(scaled, I8_MAX, out=scaled).astype(np.int8)


def quantize_dt(dt_us) -> np.ndarray:
    """Microsecond age to the int8 feature scale (1/64 us, saturated)."""
    return saturate_i8(rounding_rshift(dt_us, DT_SHIFT))


def lut_sigmoid(index) -> np.ndarray:
    """Table lookup on a saturated int8 index; returns values in [0, 256]."""
    return SIGMOID_LUT[saturate_i8(index).astype(np.int32) + 128]


def lut_tanh(index) -> np.ndarray:
    return TANH_LUT[saturate_i8(index).astype(np.int32) + 128]


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
