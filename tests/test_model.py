from __future__ import annotations

import base64
import dataclasses
import json

import numpy as np
import pytest

from evkws import (
    ModelArch,
    ModelWeights,
    ParseError,
    ValidationError,
    load_weights,
    random_weights,
    save_weights,
)
from evkws.model import ConvLayer, GruBlock, LinearBlock

from oracles import ref_rectified_window


def test_default_arch_parameter_budget():
    w = random_weights(0)
    assert w.conv_widths == [72, 72, 72, 72]
    assert w.class_count == 11
    # weights + biases across 4 convs and the 5-block head
    assert w.param_count() == 59_556


def test_random_weights_deterministic():
    assert random_weights(5) == random_weights(5)
    assert random_weights(5) != random_weights(6)


def test_conv_stack_shape_rules():
    w = random_weights(1)
    assert len(w.conv_layers) == 4
    assert w.conv_layers[0].in_width == 3
    for layer in w.conv_layers:
        # +2 columns for the relative (channel, age) position
        assert layer.weight.shape == (layer.out_width, layer.in_width + 2)
    for prev, cur in zip(w.conv_layers, w.conv_layers[1:]):
        assert cur.in_width == prev.out_width


def test_head_chaining_and_final_width():
    w = random_weights(2)
    assert w.head_blocks[0].in_width == w.conv_layers[-1].out_width
    for prev, cur in zip(w.head_blocks, w.head_blocks[1:]):
        assert cur.in_width == prev.out_width
    assert w.head_blocks[-1].out_width == w.class_count + 1


def test_gru_weight_packing():
    w = random_weights(3)
    gru = [b for b in w.head_blocks if isinstance(b, GruBlock)][0]
    assert gru.weight.shape == (3 * gru.out_width,
                                gru.in_width + gru.out_width)
    assert gru.bias.shape == (3 * gru.out_width,)


def test_custom_arch():
    arch = ModelArch(conv_widths=(8, 8, 8, 8),
                     head=(("linear", 16), ("gru", 16), ("linear", 0)),
                     class_count=3)
    w = random_weights(0, arch)
    assert w.conv_widths == [8, 8, 8, 8]
    assert w.head_blocks[-1].out_width == 4
    assert isinstance(w.head_blocks[1], GruBlock)


@pytest.mark.parametrize("kind", ["conv", "lstm", ["linear"]])
def test_arch_rejects_a_head_kind_that_is_not_a_head_block(kind):
    arch = ModelArch(conv_widths=(8, 8, 8, 8),
                     head=((kind, 16), ("linear", 0)), class_count=3)
    with pytest.raises(ValidationError, match="head kind"):
        random_weights(0, arch)


def test_round_trip(tmp_path):
    w = random_weights(9)
    path = tmp_path / "w.json"
    save_weights(w, str(path))
    back = load_weights(str(path))
    assert back == w
    blob = json.loads(path.read_text())
    assert blob["version"] == 1
    assert blob["class_count"] == 11
    assert blob["conv_widths"] == [72, 72, 72, 72]
    assert [b["kind"] for b in blob["blocks"][:4]] == ["conv"] * 4
    first = blob["blocks"][0]
    raw = base64.b64decode(first["weight"])
    assert len(raw) == 72 * 5  # row-major int8


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "w.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_weights(str(path))


def test_load_rejects_bad_base64(tmp_path):
    w = random_weights(0)
    path = tmp_path / "w.json"
    save_weights(w, str(path))
    blob = json.loads(path.read_text())
    blob["blocks"][0]["weight"] = "!!!not-base64!!!"
    path.write_text(json.dumps(blob))
    with pytest.raises(ParseError, match="block 0"):
        load_weights(str(path))


def test_load_rejects_wrong_version(tmp_path):
    w = random_weights(0)
    path = tmp_path / "w.json"
    save_weights(w, str(path))
    blob = json.loads(path.read_text())
    blob["version"] = 2
    path.write_text(json.dumps(blob))
    with pytest.raises(ValidationError, match="version"):
        load_weights(str(path))


def test_load_rejects_shape_mismatch(tmp_path):
    w = random_weights(0)
    path = tmp_path / "w.json"
    save_weights(w, str(path))
    blob = json.loads(path.read_text())
    blob["blocks"][0]["weight"] = base64.b64encode(bytes(10)).decode()
    path.write_text(json.dumps(blob))
    with pytest.raises(ValidationError, match="block 0"):
        load_weights(str(path))


@pytest.mark.parametrize("in_width,out_width", [(0, -2), (-1, -1), (2, 0)])
def test_load_rejects_nonpositive_widths(tmp_path, in_width, out_width):
    # the first two reshaped a weight blob to a negative shape: a traceback
    path = tmp_path / "w.json"
    save_weights(random_weights(0), str(path))
    blob = json.loads(path.read_text())
    block = blob["blocks"][5]
    assert block["kind"] == "linear"
    block.update({"in": in_width, "out": out_width, "bias": [],
                  "weight": base64.b64encode(
                      bytes(max(in_width * out_width, 0))).decode()})
    path.write_text(json.dumps(blob))
    with pytest.raises(ValidationError, match="block 5"):
        load_weights(str(path))


def test_load_rejects_conv_after_head(tmp_path):
    w = random_weights(0)
    path = tmp_path / "w.json"
    save_weights(w, str(path))
    blob = json.loads(path.read_text())
    blob["blocks"] = blob["blocks"][1:] + blob["blocks"][:1]
    path.write_text(json.dumps(blob))
    with pytest.raises(ValidationError):
        load_weights(str(path))


def test_weights_validation_wrong_conv_count():
    w = random_weights(0)
    with pytest.raises(ValidationError):
        ModelWeights(conv_layers=w.conv_layers[:3],
                     head_blocks=w.head_blocks, class_count=11)


def test_weights_validation_broken_chain():
    w = random_weights(0)
    bad = LinearBlock(
        weight=np.zeros((5, 7), dtype=np.int8),
        bias=np.zeros(5, dtype=np.int32),
        in_width=7, out_width=5, scale_num=1, scale_shift=8)
    with pytest.raises(ValidationError):
        ModelWeights(conv_layers=w.conv_layers,
                     head_blocks=[bad] + list(w.head_blocks[1:]),
                     class_count=11)


def test_weights_and_blocks_are_frozen():
    w = random_weights(0)
    assert isinstance(w.conv_layers, tuple)
    assert isinstance(w.head_blocks, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.conv_layers = w.conv_layers[:3]
    for block in (w.conv_layers[0], w.head_blocks[0], w.head_blocks[2]):
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.weight = np.zeros_like(block.weight)
        for array in (block.weight, block.bias):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 127
    # a changed copy is built, so it is checked like any other
    with pytest.raises(ValidationError):
        dataclasses.replace(w, class_count=12)
    with pytest.raises(ValidationError, match="int8 range"):
        dataclasses.replace(w.conv_layers[0],
                            weight=np.full(w.conv_layers[0].weight.shape, 128))


def _derived(block):
    """Every derived table of a block, with its dtype, recomputed from its
    weight and bias in Python ints."""
    w, b = block.weight.tolist(), block.bias.tolist()
    if not isinstance(block, ConvLayer):
        return {"weight_t": (_exact_float(block),
                             [list(map(float, col)) for col in zip(*w)])}
    lo, hi = ref_rectified_window(block.scale_num, block.scale_shift)
    features = []
    for row, bias in zip(w, b):
        w_x, w_dc, w_age = row[:block.in_width], *row[block.in_width:]
        ages = [q * w_age for q in range(128)]
        chans = [bias - ch * w_dc for ch in range(-127, 128)]
        reach = 128 * sum(map(abs, w_x)) + 127 * abs(w_dc)
        low = max(-reach, min(reach, lo - max(ages) - max(chans)))
        high = max(-reach, min(reach, hi - min(ages) - min(chans)))
        features.append((w_x, w_dc, ages, chans, low, high,
                         high - low + max(ages) - min(ages)))
    narrow = max(f[-1] for f in features) <= 2**16 - 1
    offset = [min(low + min(ages) + 2**15, 2**31 - 1 - max(chans))
              if narrow else 0
              for _, _, ages, chans, low, _, _ in features]
    exact = (np.float32 if max(128 * sum(map(abs, row)) + abs(off)
                               for row, off in zip(w, offset)) <= 2**24
             else np.float64)
    def columns(rows):  # per-feature lists -> (rows, features) table
        return [list(col) for col in zip(*rows)]

    return {
        "age_table": (np.int16 if narrow else np.int32,
                      columns(f[2] for f in features)),
        "channel_table": (np.int32, columns(
            [c + off for c in f[3]] for f, off in zip(features, offset))),
        "product_t": (exact, columns(
            [*f[0], f[1], -off] for f, off in zip(features, offset))),
        "node_range": (exact, columns(
            [f[4] - off, f[5] - off] for f, off in zip(features, offset))),
        "offset": (np.int32, offset),
    }


def _exact_float(block):
    """A head block's product dtype rule: float32 when 128 * sum|w| of every
    row is at most 2**24, the largest range of integers float32 holds
    exactly."""
    extent = max(128 * sum(abs(v) for v in row)
                 for row in block.weight.tolist())
    return np.float32 if extent <= 2**24 else np.float64


def test_derived_tables_are_read_only_and_match_the_weights():
    w = random_weights(2)
    for block in [*w.conv_layers, *w.head_blocks]:
        for name, (dtype, expect) in _derived(block).items():
            table = getattr(block, name)
            assert table.dtype == dtype
            assert table.tolist() == expect
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1
    for block in w.head_blocks:
        assert block.weight_t.dtype == np.float32  # fan-in <= 1024
    for layer in w.conv_layers:  # every span of the stand-in fits int16
        assert layer.node_dtype == np.int16
        assert layer.product_t.dtype == np.float32
        assert not hasattr(layer, "weight_t")  # the head's table alone
    assert not hasattr(w.head_blocks[0], "channel_table")


@pytest.mark.parametrize("scale_num,scale_shift", [
    (1, 0), (1, 8), (3, 24), (1, 25), (1, 40), (2**31 - 1, 62)])
def test_conv_tables_near_the_accumulator_limit(scale_num, scale_shift):
    # rows at |bias| + 128*sum|w| = 2**31 - 1 with either sign of bias, and
    # all-zero rows at bias +-(2**31 - 1): the window's bounds lie near or
    # beyond +-2**31 and must come out as Python ints compute them
    rng = np.random.default_rng(scale_shift)
    weight = rng.integers(-128, 128, size=(6, 5))
    weight[:2, 3:] = rng.integers(-3, 4, size=(2, 2))  # narrow A and C
    weight[4:] = 0
    bias = (2**31 - 1 - 128 * np.abs(weight).sum(axis=1)) * np.resize(
        [1, -1], 6)
    layer = ConvLayer(weight=weight, bias=bias, in_width=3, out_width=6,
                      scale_num=scale_num, scale_shift=scale_shift)
    for name, (dtype, expect) in _derived(layer).items():
        assert getattr(layer, name).dtype == dtype
        assert getattr(layer, name).tolist() == expect, name


@pytest.mark.parametrize("fan_in,dtype", [(1024, np.float32),
                                          (1025, np.float64)])
def test_products_are_float32_up_to_the_bound(fan_in, dtype):
    # all |w| = 128: fan-in 1024 reaches 128 * sum|w| = 2**24 exactly
    block = LinearBlock(weight=np.full((2, fan_in), -128, np.int8),
                        bias=np.zeros(2, np.int32), in_width=fan_in,
                        out_width=2)
    assert block.weight_t.dtype == _exact_float(block) == dtype
    x = np.full(fan_in, -128, np.int8)
    x[::3] = 127
    expect = sum(-128 * v for v in x.tolist())
    assert (x @ block.weight_t).tolist() == [expect, expect]


def test_replaced_block_derives_its_own_tables():
    w = random_weights(2)
    for block in (w.conv_layers[1], w.head_blocks[0], w.head_blocks[2]):
        weight = -np.array(block.weight)
        copy = dataclasses.replace(block, weight=weight, bias=block.bias + 1)
        for name, (_, expect) in _derived(copy).items():
            assert getattr(copy, name).tolist() == expect
            assert getattr(copy, name).tolist() != _derived(block)[name][1]
        name = next(iter(_derived(block)))
        with pytest.raises(ValueError):  # a table is never passed in
            dataclasses.replace(block, **{name: getattr(block, name)})


def test_block_equality_ignores_derived_tables():
    a, b = random_weights(2).conv_layers[0], random_weights(2).conv_layers[0]
    for name in _derived(b):
        object.__setattr__(b, name, np.zeros(1))
    assert a == b
    assert a != dataclasses.replace(a, bias=a.bias + 1)


def test_conv_layer_rejects_out_of_range_weight():
    weight = np.zeros((2, 5), dtype=np.int64)
    layer = ConvLayer(weight=weight, bias=np.zeros(2, dtype=np.int32),
                      in_width=3, out_width=2)
    assert layer.weight.dtype == np.int8
    weight[0, 0] = 300
    with pytest.raises(ValidationError, match="int8 range"):
        ConvLayer(weight=weight, bias=np.zeros(2, dtype=np.int32),
                  in_width=3, out_width=2)
    with pytest.raises(ValidationError, match="int8 range"):
        GruBlock(weight=np.full((3, 2), -129), bias=np.zeros(3),
                 in_width=1, out_width=1)


# ------------------------------------------------------ accumulator bounds

ACC_LIMIT = 2**31

# kind -> (block class, weight shape for in_width=1, out_width=2)
BLOCK_SHAPES = {"conv": (ConvLayer, (2, 3)), "linear": (LinearBlock, (2, 1)),
                "gru": (GruBlock, (6, 3))}


def _block(kind, bias, **scales):
    cls, shape = BLOCK_SHAPES[kind]
    return cls(weight=np.full(shape, -3, dtype=np.int8),
               bias=np.full(shape[0], bias, dtype=np.int64),
               in_width=1, out_width=2, **scales)


@pytest.mark.parametrize("kind", sorted(BLOCK_SHAPES))
def test_blocks_reject_wrong_shapes(kind):
    cls, shape = BLOCK_SHAPES[kind]
    assert cls.weight_shape(1, 2) == shape

    def make(in_width=1, out_width=2, weight_shape=None, bias_len=None):
        weight_shape = weight_shape or cls.weight_shape(in_width, out_width)
        bias_len = weight_shape[0] if bias_len is None else bias_len
        return cls(weight=np.zeros(weight_shape, dtype=np.int8),
                   bias=np.zeros(bias_len, dtype=np.int32),
                   in_width=in_width, out_width=out_width)

    make()
    rows, cols = shape
    for bad in ({"weight_shape": (rows, cols + 1)},
                {"weight_shape": (rows - 1, cols)},
                {"weight_shape": (rows * cols,)},
                {"bias_len": rows - 1}, {"bias_len": rows + 1},
                {"in_width": 0}, {"out_width": 0}):
        with pytest.raises(ValidationError):
            make(**bad)


@pytest.mark.parametrize("kind", sorted(BLOCK_SHAPES))
def test_blocks_reject_an_accumulator_that_could_reach_2_31(kind):
    # per row |bias| + 128*sum|w| must stay below 2**31
    row_weight = 128 * 3 * BLOCK_SHAPES[kind][1][1]
    edge = ACC_LIMIT - 1 - row_weight
    assert _block(kind, edge).bias[0] == edge
    assert _block(kind, -edge).bias[0] == -edge
    for bias in (edge + 1, -edge - 1, 2**31 - 1, 2**40):
        with pytest.raises(ValidationError, match="2\\*\\*31"):
            _block(kind, bias)


@pytest.mark.parametrize("kind", sorted(BLOCK_SHAPES))
def test_blocks_reject_scales_beyond_the_64_bit_requantizer(kind):
    _block(kind, 0, scale_num=ACC_LIMIT - 1, scale_shift=62)
    for scales in ({"scale_num": ACC_LIMIT}, {"scale_num": 2**62},
                   {"scale_num": 0}, {"scale_shift": 63},
                   {"scale_shift": 100}, {"scale_shift": -1}):
        with pytest.raises(ValidationError):
            _block(kind, 0, **scales)


def test_gru_at_the_accumulator_limit_matches_the_oracle():
    # Bias 2**31 - 1 used to be accepted and wrapped the int32 accumulator:
    # gru_step gave [-127, -127] where the integer oracle gives [3, -2].
    # Such a block is now rejected; the largest accepted bias stays exact.
    from evkws.inference import gru_step
    from oracles import ref_gru_step

    with pytest.raises(ValidationError):
        GruBlock(weight=np.ones((6, 3), np.int8), bias=np.full(6, 2**31 - 1),
                 in_width=1, out_width=2)
    x = np.array([-128], dtype=np.int8)
    h = np.array([-128, -128], dtype=np.int8)
    for bias in (ACC_LIMIT - 1 - 128 * 3 * 3, -(ACC_LIMIT - 1 - 128 * 3 * 3)):
        block = _block("gru", bias)
        expect = ref_gru_step(block.weight.tolist(), block.bias.tolist(),
                              1, 0, 1, 2, x.tolist(), h.tolist())
        assert gru_step(block, x, h).tolist() == expect
