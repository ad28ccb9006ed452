from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from evkws import ValidationError
from evkws.model import GruBlock, LinearBlock
from evkws.quant import (
    DT_SHIFT,
    I32_MAX,
    I32_MIN,
    I8_MAX,
    I8_MIN,
    LUT_INPUT_STEP,
    LUT_SIZE,
    SIGMOID_LUT,
    TANH_LUT,
    div_round_half_away,
    div_round_half_up_nonneg,
    lut_sigmoid,
    lut_tanh,
    quantize_dt,
    requantize,
    rounding_rshift,
    saturate_i8,
)

from oracles import ref_quantize_dt, ref_requant, ref_sat8

I64_MAX = 2**63 - 1


def i32(values) -> np.ndarray:
    return np.array(values, dtype=np.int32)


def block(scale_num, scale_shift, rectify=False):
    """A one-output block at the scale whose window rectifies or not: a
    linear block's does, a GRU's (its gates') does not."""
    cls = LinearBlock if rectify else GruBlock
    rows, cols = cls.weight_shape(1, 1)
    return cls(weight=np.zeros((rows, cols), np.int8),
               bias=np.zeros(rows, np.int32), in_width=1, out_width=1,
               scale_num=scale_num, scale_shift=scale_shift)


# ------------------------------------------------------------------ shifts

def test_rounding_rshift_rounds_half_up():
    assert rounding_rshift(5, 1) == 3      # 2.5 -> 3
    assert rounding_rshift(4, 1) == 2
    assert rounding_rshift(3, 1) == 2      # 1.5 -> 2
    assert rounding_rshift(-3, 1) == -1    # -1.5 -> -1 (toward +inf)
    assert rounding_rshift(-4, 1) == -2
    assert rounding_rshift(7, 0) == 7


def test_rounding_rshift_matches_float_reference():
    for v in range(-1000, 1000):
        for k in (1, 2, 5, 8):
            expect = math.floor(v / 2**k + 0.5)
            assert rounding_rshift(v, k) == expect, (v, k)


def test_rounding_rshift_vectorized():
    v = np.array([-3, 3, 5, -4], dtype=np.int32)
    np.testing.assert_array_equal(rounding_rshift(v, 1), [-1, 2, 3, -2])


@given(v=st.integers(-2**40, 2**40), k=st.integers(0, 20))
@settings(max_examples=300, deadline=None)
def test_rounding_rshift_property(v, k):
    assert rounding_rshift(v, k) == math.floor(v / 2**k + 0.5)


@pytest.mark.parametrize("value", [
    2.7,                                   # truncated to 2
    np.array([0.5, -1.5]),                 # floats, whole arrays too
    True,                                  # bool read as 1
    np.array([True, False]),
    np.array([2**63], dtype=np.uint64),    # wrapped to a negative int64
    2**63,                                 # past int64, as a Python int
    -2**63 - 1,
    "5",
])
def test_rounding_rshift_refuses_what_it_would_truncate_or_wrap(value):
    with pytest.raises(ValidationError, match="int64 range"):
        rounding_rshift(value, 0)


def python_rshift(value: int, shift: int) -> int:
    """floor((value + 2**(shift - 1)) / 2**shift) in Python ints."""
    return (value + ((1 << shift) >> 1)) >> shift


@pytest.mark.parametrize("shift", [0, 1, 2, 31, 32, 61, 62, 63])
@pytest.mark.parametrize("value", [I64_MAX, I64_MAX - 1, 2**62, 2**62 - 1,
                                   1, 0, -1, -2**62, -2**63 + 1, -2**63])
def test_rounding_rshift_is_exact_at_the_int64_ends(value, shift):
    # adding the half before the shift wrapped within 2**(shift - 1) of the
    # int64 maximum: 2**63 - 1 >> 1 read -2**62, 2**62 >> 63 read -1
    got = rounding_rshift(np.array([value], dtype=np.int64), shift)
    assert got.dtype == np.int64
    assert got.tolist() == [python_rshift(value, shift)]


@given(v=st.integers(-2**63, I64_MAX), k=st.integers(0, 63))
@settings(max_examples=300, deadline=None)
def test_rounding_rshift_property_over_int64(v, k):
    assert rounding_rshift(v, k) == python_rshift(v, k)


@pytest.mark.parametrize("shift", [-1, 64, 65, 200])
def test_rounding_rshift_refuses_shifts_outside_int64(shift):
    with pytest.raises(ValidationError, match=r"shift must lie in \[0, 63\]"):
        rounding_rshift(np.array([1, 2]), shift)


def test_rounding_rshift_takes_every_integer_dtype_within_int64():
    v = np.array([-2**62, 2**62 - 1, 3], dtype=np.int64)
    np.testing.assert_array_equal(rounding_rshift(v, 61), [-2, 2, 0])
    assert rounding_rshift(np.array([2**62], np.uint64), 1) == 2**61
    assert rounding_rshift(np.array([255], np.uint8), 4) == 16
    assert rounding_rshift(np.zeros(0, np.int16), 3).dtype == np.int64
    assert rounding_rshift([], 3).shape == (0,)


# -------------------------------------------------------------- saturation

def test_saturate_scalar_and_array():
    assert saturate_i8(300) == 127
    assert saturate_i8(-300) == -128
    assert saturate_i8(5) == 5
    np.testing.assert_array_equal(
        saturate_i8(np.array([-1000, 0, 1000])), [-128, 0, 127])


def test_requantize_saturates():
    assert requantize(i32(127 << 4), block(1, 4)) == 127
    assert requantize(i32(4097 << 4), block(1, 4)) == 127
    assert requantize(i32(-(4097 << 4)), block(1, 4)) == -128
    assert requantize(i32(100), block(3, 2)) == 75
    np.testing.assert_array_equal(
        requantize(i32([100, -100]), block(3, 2)), [75, -75])
    np.testing.assert_array_equal(
        requantize(i32([100, -100]), block(3, 2, rectify=True)), [75, 0])


INT64_EDGES = st.sampled_from([-2**63, -2**63 + 1, -129, -128, 127, 128,
                               I64_MAX - 1, I64_MAX])


@given(values=st.lists(st.integers(-2**63, I64_MAX) | INT64_EDGES,
                       min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_saturate_equals_oracle_over_int64(values):
    got = saturate_i8(np.array(values, dtype=np.int64))
    assert got.dtype == np.int8
    assert got.tolist() == [ref_sat8(v) for v in values]
    scalar = saturate_i8(values[0])  # a Python int
    assert scalar.dtype == np.int8 and scalar == ref_sat8(values[0])


SATURATE_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8,
                   np.uint16, np.uint32, np.uint64, np.float64]


@given(data=st.data(), dtype=st.sampled_from(SATURATE_DTYPES))
@settings(max_examples=300, deadline=None)
def test_saturate_equals_oracle_over_every_dtype(data, dtype):
    # each dtype's whole range and both ends; floats also take fractions,
    # which the int8 cast truncates toward zero
    if dtype == np.float64:
        values = st.floats(allow_nan=False, allow_infinity=True) | \
            st.floats(-200, 200) | st.sampled_from([-128.5, -127.5, 127.5])
    else:
        info = np.iinfo(dtype)
        lo, hi = int(info.min), int(info.max)
        values = st.integers(lo, hi) | st.sampled_from(
            [v for v in (lo, -129, -128, 127, 128, hi) if lo <= v <= hi])
    drawn = data.draw(st.lists(values, min_size=1, max_size=20))
    got = saturate_i8(np.array(drawn, dtype=dtype))
    assert got.dtype == np.int8
    assert got.tolist() == [int(ref_sat8(v)) for v in drawn]


@given(data=st.data(), num=st.integers(1, 2**31 - 1),
       shift=st.integers(0, 62))
@settings(max_examples=300, deadline=None)
def test_requantize_array_equals_scalar(data, num, shift):
    # each element of an int32 array requantizes as it does alone, in a
    # 0-d int32 array; the same value as a Python int is refused
    acc = data.draw(st.lists(st.integers(I32_MIN, I32_MAX), min_size=1,
                             max_size=20))
    scale = block(num, shift)
    got = requantize(i32(acc), scale)
    assert got.dtype == np.int8
    assert got.tolist() == [int(requantize(i32(a), scale)) for a in acc]
    with pytest.raises(ValidationError, match="int32 array"):
        requantize(acc[0], scale)


def test_requantize_near_the_int64_ends_does_not_wrap():
    # int64 accumulators are refused, never wrapped or narrowed: near the
    # int64 ends, acc * scale_num + 2**61 fits no machine integer
    for acc in ([I64_MAX], [-2**63], [I64_MAX, -I64_MAX]):
        with pytest.raises(ValidationError, match="int64"):
            requantize(np.array(acc), block(2**31 - 1, 62))
    # the int32 ends at the widest scales are exact, numpy integer scales
    # (as a Block built in code may take) too
    acc = [I32_MAX, I32_MIN, I32_MIN + 1, 0, -1]
    for num, shift in ((1, 62), (2**31 - 1, 62), (2**31 - 1, 0),
                       (np.int64(12345), np.int64(61))):
        assert requantize(i32(acc), block(num, shift)).tolist() == [
            ref_requant(a, int(num), int(shift)) for a in acc]
    assert requantize(i32(acc), block(2**31 - 1, 62)).tolist() == [
        1, -1, -1, 0, 0]


@given(data=st.data(),
       num=st.integers(1, 2**31 - 1) | st.sampled_from([1, 2, 2**31 - 1]),
       shift=st.integers(0, 62) | st.sampled_from([0, 30, 31, 55, 56, 62]),
       rectify=st.booleans())
@settings(max_examples=500, deadline=None)
def test_requantize_equals_oracle_over_the_whole_domain(data, num, shift,
                                                         rectify):
    # every int32 accumulator, every scale the blocks accept, with and
    # without rectification; the edges include the accumulators around
    # each output's threshold
    edges = [I32_MIN, I32_MIN + 1, I32_MAX - 1, I32_MAX] + [
        ((k << shift) - ((1 << shift) >> 1)) // num + d
        for k in (-127, 0, 1, 127) for d in (-1, 0, 1)]
    acc = data.draw(st.lists(
        st.integers(I32_MIN, I32_MAX)
        | st.sampled_from([v for v in edges if I32_MIN <= v <= I32_MAX]),
        min_size=1, max_size=20))
    got = requantize(i32(acc), block(num, shift, rectify))
    assert got.dtype == np.int8
    expect = [ref_requant(a, num, shift) for a in acc]
    assert got.tolist() == [max(0, v) if rectify else v for v in expect]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shift", [0, 1, 8, 20])
@pytest.mark.parametrize("rectify", [False, True])
def test_requantize_at_scale_one_is_exact_at_both_clamp_edges(dtype, shift,
                                                              rectify):
    # scale_num 1, as every layer of random_weights has, skips the multiply:
    # the accumulators around each end of the clamp window, lo the largest
    # giving the lowest output and hi the smallest giving 127, still
    # requantize as the oracle does; as int64 they are refused until the
    # caller narrows them
    low, half = 0 if rectify else I8_MIN, (1 << shift) >> 1
    lo, hi = ((low + 1) << shift) - half - 1, (I8_MAX << shift) - half
    acc = np.array([lo - 1, lo, lo + 1, hi - 1, hi, hi + 1], dtype=dtype)
    scale = block(1, shift, rectify)
    if dtype != np.int32:
        with pytest.raises(ValidationError, match="int32"):
            requantize(acc, scale)
        acc = acc.astype(np.int32)
    got = requantize(acc, scale)
    expect = [max(low, ref_requant(int(a), 1, shift)) for a in acc]
    assert got.dtype == np.int8 and got.tolist() == expect
    assert expect == [low, low, low + 1, I8_MAX - 1, I8_MAX, I8_MAX]


@pytest.mark.parametrize("name", ["int8", "int16", "int64", "uint32",
                                  "uint64", "float64", "bool", "int"])
def test_requantize_refuses_every_accumulator_but_int32(name):
    acc = 0 if name == "int" else np.zeros(2, dtype=name)  # "int": Python
    with pytest.raises(ValidationError, match=f"accumulators must be an "
                                              f"int32 array, got {name}$"):
        requantize(acc, block(1, 0))


def test_requantize_rejects_a_zero_scale():
    # refused when the block is built, so no requantize ever sees it
    for rectify in (False, True):
        with pytest.raises(ValidationError, match="scale_num"):
            block(0, 0, rectify)


def test_requantize_rejects_a_scale_outside_the_block_range():
    # the blocks' build-time range, where int64 holds every scaled window
    for num, shift, name in ((2**31, 0, "scale_num"), (1, -1, "shift"),
                             (1, 63, "shift")):
        for rectify in (False, True):
            with pytest.raises(ValidationError, match=name):
                block(num, shift, rectify)


def test_requantize_derives_nothing_per_call(monkeypatch):
    # the window is derived when the block is built; requantize reads it
    import evkws.quant

    scale = block(3, 2)
    monkeypatch.setattr(evkws.quant, "_window", None)
    assert requantize(i32([100, -100, 2**20]), scale).tolist() == [
        75, -75, 127]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_unsigned_inputs_saturate_without_wrapping(dtype):
    # saturate_i8 clamps every unsigned value; requantize refuses them all,
    # so none can wrap to a negative accumulator
    top = int(np.iinfo(dtype).max)
    values = np.array([0, 127, 128, top], dtype=dtype)
    assert saturate_i8(values).tolist() == [0, 127, 127, 127]
    with pytest.raises(ValidationError, match=f"got {values.dtype}"):
        requantize(values, block(1, 0))


def test_quantize_dt_scales_by_64():
    assert DT_SHIFT == 6
    assert quantize_dt(0) == 0
    assert quantize_dt(2000) == 31    # 2000/64 = 31.25
    assert quantize_dt(2016) == 32    # 31.5 rounds up
    assert quantize_dt(10_000) == 127  # saturates


I64_MIN = -2**63
# each side of both saturation edges and of the clamp quantize_dt takes
DT_EDGES = [-8225, -8224, -8161, -8160, -33, -32, 31, 32, 8095, 8096,
            I64_MIN, I64_MIN + 1, I64_MAX - 1, I64_MAX]


def test_quantize_dt_matches_the_oracle_at_its_edges():
    assert [ref_quantize_dt(v) for v in DT_EDGES[:4]] == [-128] * 3 + [-127]
    assert [ref_quantize_dt(v) for v in DT_EDGES[-6:-4]] == [126, 127]
    for v in DT_EDGES:
        assert quantize_dt(v) == ref_quantize_dt(v), v
    got = quantize_dt(np.array(DT_EDGES, dtype=np.int64))
    assert got.dtype == np.int8
    assert got.tolist() == [ref_quantize_dt(v) for v in DT_EDGES]


@given(dt=hnp.arrays(np.int64, hnp.array_shapes(max_dims=2, max_side=40),
                     elements=st.one_of(st.integers(-9000, 9000),
                                        st.integers(I64_MIN, I64_MAX))))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_quantize_dt_matches_the_oracle_on_int64_arrays(dt):
    got = quantize_dt(dt)
    assert got.dtype == np.int8 and got.shape == dt.shape
    assert got.ravel().tolist() == [ref_quantize_dt(v) for v in dt.ravel()
                                    .tolist()]


# --------------------------------------------------------------------- luts

def test_lut_tables_shape_and_symmetry():
    assert SIGMOID_LUT.shape == (LUT_SIZE,)
    assert TANH_LUT.shape == (LUT_SIZE,)
    # index 128 is x=0
    assert SIGMOID_LUT[128] == 128   # 256 * 0.5
    assert TANH_LUT[128] == 0
    assert SIGMOID_LUT.min() >= 0 and SIGMOID_LUT.max() <= 256
    assert TANH_LUT.min() >= -127 and TANH_LUT.max() <= 127
    assert (np.diff(SIGMOID_LUT) >= 0).all()
    assert (np.diff(TANH_LUT) >= 0).all()


def test_lut_entries_match_float_reference():
    for idx in range(LUT_SIZE):
        x = (idx - 128) / LUT_INPUT_STEP
        assert SIGMOID_LUT[idx] == math.floor(256 / (1 + math.exp(-x)) + 0.5)
        assert TANH_LUT[idx] == math.floor(127 * math.tanh(x) + 0.5)


def test_lut_lookup_uses_q_over_16_domain():
    # q=16 is x=1.0
    q = np.array([16], dtype=np.int8)
    assert lut_sigmoid(q) == math.floor(256 / (1 + math.exp(-1.0)) + 0.5)
    assert lut_tanh(q) == math.floor(127 * math.tanh(1.0) + 0.5)
    ends = np.array([I8_MIN, I8_MAX], dtype=np.int8)
    assert lut_sigmoid(ends).tolist() == [SIGMOID_LUT[0], SIGMOID_LUT[255]]


def test_lut_lookups_read_entry_q_plus_128_for_every_int8():
    q = np.arange(I8_MIN, I8_MAX + 1).astype(np.int8)
    entry = q.astype(np.int64) + 128
    np.testing.assert_array_equal(lut_sigmoid(q), SIGMOID_LUT[entry])
    np.testing.assert_array_equal(lut_tanh(q), TANH_LUT[entry])
    # the gates' lookup is one flat int8 row; a 2-d one reads alike
    np.testing.assert_array_equal(lut_sigmoid(q.reshape(2, -1)),
                                  SIGMOID_LUT[entry.reshape(2, -1)])


def test_gru_blend_lies_between_candidate_and_state_without_a_clamp():
    # the blend ((256 - z) * n + z * h + 128) >> 8 over every sigmoid entry
    # z, tanh entry n and int8 state h: a convex mix, so its rounding stays
    # between n and h and equals the saturating requantize at scale (1, 8)
    z = np.unique(SIGMOID_LUT)[:, None]
    n = np.unique(TANH_LUT)[None, :]
    assert z.min() == 0 and z.max() == 256
    for h in range(I8_MIN, I8_MAX + 1):
        total = (256 - z) * n + z * h
        blend = (total + 128) >> 8
        assert (np.minimum(n, h) <= blend).all()
        assert (blend <= np.maximum(n, h)).all()
        np.testing.assert_array_equal(
            requantize(total.astype(np.int32), block(1, 8)), blend)


# --------------------------------------------------------------- division

def test_div_round_half_away():
    assert div_round_half_away(3, 2) == 2
    assert div_round_half_away(-3, 2) == -2
    assert div_round_half_away(5, 2) == 3
    assert div_round_half_away(-5, 2) == -3
    assert div_round_half_away(4, 2) == 2


def test_div_round_half_up_nonneg():
    assert div_round_half_up_nonneg(3, 2) == 2
    assert div_round_half_up_nonneg(2, 4) == 1   # 0.5 -> 1
    assert div_round_half_up_nonneg(1, 4) == 0


@given(num=st.integers(-10_000, 10_000), den=st.integers(1, 500))
@settings(max_examples=300, deadline=None)
def test_div_round_half_away_property(num, den):
    got = div_round_half_away(num, den)
    exact = abs(num) / den
    lo, hi = math.floor(exact), math.ceil(exact)
    expect = hi if (abs(num) * 2 >= (2 * lo + 1) * den) else lo
    assert got == (expect if num >= 0 else -expect)

