from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evkws import (
    EventStream,
    FiltrationParams,
    GraphBuilder,
    GraphParams,
    HeadState,
    InferenceEngine,
    ModelArch,
    ModelWeights,
    OrderingError,
    Prediction,
    RunState,
    SensorConfig,
    ValidationError,
    WindowPool,
    filter_stream,
    first_layer_inputs,
    gru_step,
    head_forward,
    pointnet_conv,
    random_weights,
    summarize_predictions,
    synth_stream,
)
import evkws.graph
import evkws.inference
from evkws.graph import CHUNK, NeighborTable
from evkws.model import ConvLayer, GruBlock, LinearBlock

from conftest import events_of, make_stream
from oracles import (
    ref_conv_stream,
    ref_first_layer_inputs,
    ref_gru_step,
    ref_head_forward,
    ref_infer_stream,
    ref_pointnet_conv,
    ref_rectified_window,
    ref_stage_products,
    ref_window_pool,
)


def one_row(pairs):
    """A one-event neighbor table from (dc, dt) pairs; neighbor k is row k
    on channel dc, the event is row m on channel 0."""
    m = len(pairs)
    dc = np.array([dc for dc, _ in pairs], dtype=np.int64).reshape(m)
    return NeighborTable(
        row=np.arange(m, dtype=np.int64).reshape(m, 1),
        dc=dc,
        dt=np.array([dt for _, dt in pairs], dtype=np.int64).reshape(m, 1),
        valid=np.ones((m, 1), dtype=bool),
        channel=np.append(dc, 0))


def lone_events(channel):
    """A table of one event per channel and no neighbor offsets, over no
    history rows."""
    n = len(channel)
    return NeighborTable(np.zeros((0, n), dtype=np.int64),
                         np.zeros(0, dtype=np.int64),
                         np.zeros((0, n), dtype=np.int64),
                         np.zeros((0, n), dtype=bool),
                         np.asarray(channel, dtype=np.int64))


def products(layer, rows, channel):
    """The oracle's vertex products of stage-input rows, as int32."""
    return np.array(ref_stage_products(layer.weight.tolist(),
                                       np.asarray(rows).tolist(),
                                       np.asarray(channel).tolist()),
                    dtype=np.int32).reshape(len(rows), layer.out_width)


def clamp_bounds(layer):
    """The layer's clamp of a vertex product, ``(2, out_width)`` int64: row
    0 the lower bound, row 1 the upper."""
    return layer.node_range.astype(np.int64) + layer.offset


def stored(layer, prods):
    """Vertex products as a node buffer holds them: clamped to the layer's
    bounds, less its offset, in its node dtype."""
    low, high = clamp_bounds(layer)
    return (np.clip(prods, low, high) - layer.offset).astype(layer.node_dtype)


def first_layer_one(pairs, p):
    """Stage-1 features of one event through the batched form."""
    return first_layer_inputs(one_row(pairs), np.array([p]))[0]


def conv_rows(layer, rows, table):
    """One stage over stage-input rows: the history rows' products taken
    first, the batch rows' inside the stage."""
    hist = len(rows) - table.row.shape[1]
    node = np.zeros((len(rows), layer.out_width), layer.node_dtype)
    node[:hist] = stored(layer,
                         products(layer, rows[:hist], table.channel[:hist]))
    return pointnet_conv(layer, node, rows[hist:], table)


def conv_one(layer, center, neighbors):
    """One stage on (center, [(feats, dc, dt)]) as one batch row: neighbor
    features are the history rows, the center the batch row."""
    rows = np.array([*(f for f, _, _ in neighbors), center],
                    dtype=np.int8).reshape(-1, len(center))
    table = one_row([(dc, dt) for _, dc, dt in neighbors])
    return conv_rows(layer, rows, table)[0]


def rand_conv(rng, in_w, out_w):
    return ConvLayer(
        weight=rng.integers(-64, 64, size=(out_w, in_w + 2)).astype(np.int8),
        bias=rng.integers(-1024, 1024, size=out_w).astype(np.int32),
        in_width=in_w, out_width=out_w,
        scale_num=int(rng.integers(1, 4)),
        scale_shift=int(rng.integers(4, 11)))


def rand_linear(rng, in_w, out_w):
    return LinearBlock(
        weight=rng.integers(-32, 33, size=(out_w, in_w)).astype(np.int8),
        bias=rng.integers(-1024, 1024, size=out_w).astype(np.int32),
        in_width=in_w, out_width=out_w,
        scale_num=int(rng.integers(1, 4)),
        scale_shift=int(rng.integers(5, 12)))


def rand_gru(rng, in_w, out_w):
    return GruBlock(
        weight=rng.integers(-32, 33,
                            size=(3 * out_w, in_w + out_w)).astype(np.int8),
        bias=rng.integers(-512, 512, size=3 * out_w).astype(np.int32),
        in_width=in_w, out_width=out_w,
        scale_num=1, scale_shift=int(rng.integers(6, 12)))


def as_oracle_block(block):
    kind = {ConvLayer: "conv", LinearBlock: "linear",
            GruBlock: "gru"}[type(block)]
    return {"kind": kind,
            "weight": block.weight.tolist(),
            "bias": block.bias.tolist(),
            "scale_num": block.scale_num,
            "scale_shift": block.scale_shift,
            "in": block.in_width,
            "out": block.out_width}


# -------------------------------------------------------- stage-one inputs

def test_first_layer_inputs_empty_neighborhood():
    np.testing.assert_array_equal(first_layer_one([], -1), [0, 0, -1])


def test_first_layer_inputs_means():
    # mean dc = 0.5 -> 1 (half away from zero); mean dt = 150.5 -> 151 -> >>6
    np.testing.assert_array_equal(
        first_layer_one([(-2, 100), (3, 201)], 1), [1, 151 >> 6, 1])
    # mean dc = -2.5 -> -3; mean dt = 64 -> q 1
    np.testing.assert_array_equal(
        first_layer_one([(-3, 64), (-2, 64)], 1), [-3, 1, 1])


@given(st.lists(st.tuples(st.integers(-127, 127), st.integers(0, 20_000)),
                min_size=0, max_size=12),
       st.sampled_from([-1, 1]))
@settings(max_examples=150, deadline=None)
def test_first_layer_inputs_matches_oracle(pairs, p):
    got = first_layer_one(pairs, p)
    assert got.tolist() == ref_first_layer_inputs(pairs, (50_000, 0, p))


# ------------------------------------------------------------- convolution

def test_pointnet_conv_tiny_hand_case():
    # one output row: weight [1, 0, 2, 1], bias 8, scale 1, shift 2
    layer = ConvLayer(
        weight=np.array([[1, 0, 2, 1]], dtype=np.int8),
        bias=np.array([8], dtype=np.int32),
        in_width=2, out_width=1, scale_num=1, scale_shift=2)
    center = np.array([4, 0], dtype=np.int8)
    # self vertex: 4 + 8 = 12 -> >>2 = 3
    assert conv_one(layer, center, []).tolist() == [3]
    # neighbor [6, 0] at dc=5, dt=128 (q=2): 6 + 10 + 2 + 8 = 26 -> >>2 -> 7
    out = conv_one(layer, center, [(np.array([6, 0], dtype=np.int8),
                                    5, 128)])
    assert out.tolist() == [7]


def test_pointnet_conv_rejects_bad_widths():
    rng = np.random.default_rng(0)
    layer = rand_conv(rng, 4, 3)
    dtype = layer.node_dtype
    assert dtype == np.int16
    table = one_row([(1, 0)])            # rows: one neighbor, then the event
    x, node = np.ones((1, 4), dtype=np.int8), np.zeros((2, 3), dtype)
    pointnet_conv(layer, node, x, table)
    node[:] = 12345              # a rejected call writes nothing
    for bad in (node[:1], np.concatenate([node, node]),   # row count
                node[:, :2], np.full((2, 4), 12345, dtype),  # width
                node.astype(np.int32), node.astype(np.int64),  # dtype
                node[0]):
        with pytest.raises(ValidationError,
                           match=f"stage expects {dtype} \\(2, 3\\)"):
            pointnet_conv(layer, bad, x, table)
        assert (bad == 12345).all()
    for bad in (x[:, :3], np.ones((1, 5), np.int8),       # width
                np.ones((2, 4), np.int8), x[0],           # one row an event
                np.ones((0, 4), np.int8)):
        with pytest.raises(ValidationError, match="stage inputs"):
            pointnet_conv(layer, node, bad, table)
        assert (node == 12345).all()
    with pytest.raises(ValidationError, match="2 events over 1 rows"):
        pointnet_conv(layer, np.zeros((1, 3), dtype=dtype),  # too few
                      np.zeros((2, 4), dtype=np.int8),
                      NeighborTable(np.zeros((0, 2), dtype=np.int64),
                                    np.zeros(0, dtype=np.int64),
                                    np.zeros((0, 2), dtype=np.int64),
                                    np.zeros((0, 2), dtype=bool),
                                    np.zeros(1, dtype=np.int64)))


@given(seed=st.integers(0, 2**32 - 1), n_neighbors=st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_pointnet_conv_matches_oracle(seed, n_neighbors):
    rng = np.random.default_rng(seed)
    in_w = int(rng.integers(1, 7))
    out_w = int(rng.integers(1, 7))
    layer = rand_conv(rng, in_w, out_w)
    center = rng.integers(-128, 128, size=in_w).astype(np.int8)
    neighbors = [
        (rng.integers(-128, 128, size=in_w).astype(np.int8),
         int(rng.integers(-127, 128)), int(rng.integers(0, 10_000)))
        for _ in range(n_neighbors)
    ]
    got = conv_one(layer, center, neighbors)
    expect = ref_pointnet_conv(layer.weight.tolist(),
                               layer.bias.tolist(),
                               layer.scale_num, layer.scale_shift,
                               center.tolist(),
                               [(f.tolist(), dc, dt)
                                for f, dc, dt in neighbors])
    assert got.tolist() == expect


def test_conv_layer_at_the_float32_bound_matches_oracle():
    # every weight -128 over 1022 features, channel and age: 128 * sum|w|
    # = 2**24, the last row bound at which the products run in float32
    rng = np.random.default_rng(11)
    in_w = 1022
    layer = ConvLayer(weight=np.full((3, in_w + 2), -128, np.int8),
                      bias=np.array([0, 2**16 + 1, -2**16]), in_width=in_w,
                      out_width=3, scale_num=1, scale_shift=17)
    assert layer.product_t.dtype == np.float32
    assert not hasattr(layer, "weight_t")
    extremes = [np.full(in_w, -128, np.int8), np.full(in_w, 127, np.int8),
                *rng.choice(np.array([-128, 127], np.int8), size=(6, in_w))]
    # the products at both channel extremes, as the layer stores them
    rows = np.array(extremes)
    channel = np.resize([-127, 127], len(rows))
    expect = [[-128 * (sum(r) + ch)] * 3
              for r, ch in zip(rows.tolist(), channel.tolist())]
    assert expect == products(layer, rows, channel).tolist()
    node = np.zeros((len(rows), 3), layer.node_dtype)
    pointnet_conv(layer, node, rows, lone_events(channel))
    assert node.tolist() == stored(layer, expect).tolist()
    # and every bit of them where the clamp is the products' whole reach:
    # at bias 2**25 and shift 19 the window lies beyond it on both sides
    wide = dataclasses.replace(layer, bias=np.full(3, 2**25), scale_shift=19)
    reach = 128 * 128 * in_w + 127 * 128
    assert clamp_bounds(wide).tolist() == [[-reach] * 3, [reach] * 3]
    assert wide.node_dtype == np.int32 and not wide.offset.any()
    node = np.zeros((len(rows), 3), wide.node_dtype)
    pointnet_conv(wide, node, rows, lone_events(channel))
    assert node.tolist() == expect
    for case in range(8):
        center = extremes[case]
        neighbors = [(extremes[int(rng.integers(len(extremes)))],
                      int(rng.choice([-127, -1, 1, 127])),
                      int(rng.choice([0, 8128, 10_000])))
                     for _ in range(int(rng.integers(0, 4)))]
        got = conv_one(layer, center, neighbors)
        assert got.tolist() == ref_pointnet_conv(
            layer.weight.tolist(), layer.bias.tolist(), layer.scale_num,
            layer.scale_shift, center.tolist(),
            [(f.tolist(), dc, dt) for f, dc, dt in neighbors]), case


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_pointnet_conv_neighbor_order_invariant(seed):
    rng = np.random.default_rng(seed)
    layer = rand_conv(rng, 4, 5)
    center = rng.integers(-128, 128, size=4).astype(np.int8)
    neighbors = [
        (rng.integers(-128, 128, size=4).astype(np.int8),
         int(rng.integers(-20, 21)), int(rng.integers(0, 5000)))
        for _ in range(5)
    ]
    base = conv_one(layer, center, neighbors)
    perm = rng.permutation(5)
    shuffled = [neighbors[i] for i in perm]
    np.testing.assert_array_equal(base, conv_one(layer, center, shuffled))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_pointnet_conv_monotone_in_vertices(seed):
    # more vertices can only raise the element-wise maximum
    rng = np.random.default_rng(seed)
    layer = rand_conv(rng, 3, 4)
    center = rng.integers(-128, 128, size=3).astype(np.int8)
    neighbors = [
        (rng.integers(-128, 128, size=3).astype(np.int8),
         int(rng.integers(-20, 21)), int(rng.integers(0, 5000)))
        for _ in range(6)
    ]
    prev = conv_one(layer, center, [])
    for n in range(1, 7):
        cur = conv_one(layer, center, neighbors[:n])
        assert (cur >= prev).all()
        prev = cur


def test_pointnet_conv_output_rectified(rng):
    layer = rand_conv(rng, 3, 8)
    center = rng.integers(-128, 128, size=3).astype(np.int8)
    out = conv_one(layer, center, [])
    assert (out >= 0).all()


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_pointnet_conv_ignores_whatever_invalid_slots_hold(seed):
    # a batch of events sharing K columns: valid slots point at rows on the
    # right channel; invalid ones at any row, with any age, even negative
    rng = np.random.default_rng(seed)
    in_w, out_w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    layer = rand_conv(rng, in_w, out_w)
    n, k = int(rng.integers(1, 6)), int(rng.integers(0, 7))
    dc = rng.choice(np.arange(-60, 61), size=k, replace=False)
    center_ch = rng.integers(-60, 61, size=n)
    valid = rng.random((k, n)) < 0.5
    hist = [(rng.integers(-128, 128, size=in_w).astype(np.int8),
             center_ch[i] + dc[j]) for j, i in zip(*np.nonzero(valid))]
    rows = np.array([f for f, _ in hist]
                    + list(rng.integers(-128, 128, size=(n, in_w))),
                    dtype=np.int8).reshape(-1, in_w)
    channel = np.array([ch for _, ch in hist] + list(center_ch),
                       dtype=np.int64)
    row = rng.integers(0, len(rows), size=(k, n))
    dt = rng.integers(-10**6, 10**6, size=(k, n))
    row[valid] = np.arange(len(hist))
    dt[valid] = rng.integers(0, 10_000, size=len(hist))
    got = conv_rows(layer, rows, NeighborTable(row, dc, dt, valid, channel))
    for i in range(n):
        expect = ref_pointnet_conv(
            layer.weight.tolist(), layer.bias.tolist(), layer.scale_num,
            layer.scale_shift, rows[len(hist) + i].tolist(),
            [(rows[row[j, i]].tolist(), int(dc[j]), int(dt[j, i]))
             for j in np.flatnonzero(valid[:, i])])
        assert got[i].tolist() == expect


@pytest.mark.parametrize("case", [
    "negative row", "row past the end", "channel above 127",
    "channel below -127", "dc is not the channel difference",
    "dc beyond 127", "negative age"])
def test_pointnet_conv_rejects_inconsistent_tables(case):
    rng = np.random.default_rng(0)
    layer = rand_conv(rng, 2, 3)
    # rows 0-1 history, row 2 event; products of the consistent channels
    node = stored(layer, products(layer, np.zeros((3, 2), dtype=np.int8),
                                  [8, 13, 10]))
    row, dc, dt = np.array([[0], [1]]), np.array([-2, 3]), np.array([[5], [9]])
    valid = np.array([[True], [True]])
    channel = np.array([8, 13, 10])
    if case == "negative row":
        row[1, 0] = -1
        valid[1, 0] = False      # checked even where the slot is unused
    elif case == "row past the end":
        row[0, 0] = 3
    elif case == "channel above 127":
        channel[0] = 128
    elif case == "channel below -127":
        channel[0] = -128
    elif case == "dc is not the channel difference":
        channel[1] = 14
    elif case == "dc beyond 127":
        dc[0], channel[0], channel[2] = -200, -100, 100
        channel[1] = 103
    else:
        dt[1, 0] = -33           # quantizes to -1
    x = np.array([[5, -7]], dtype=np.int8)
    pointnet_conv(layer, node, x, NeighborTable(
        np.array([[0], [1]]), np.array([-2, 3]), np.array([[5], [9]]),
        np.array([[True], [True]]), np.array([8, 13, 10])))  # consistent
    node[2] = 12345              # any write of the event's products shows
    before = node.copy()
    with pytest.raises(ValidationError):
        pointnet_conv(layer, node, x,
                      NeighborTable(row, dc, dt, valid, channel))
    np.testing.assert_array_equal(node, before)


def _graph_batch(rng, channels=8):
    """A neighbor table from a builder that has seen one earlier batch, so
    it points into history rows as well as the batch's own."""
    builder = GraphBuilder(channels, GraphParams(r_c=3, r_t_high=4000))
    t = np.sort(rng.integers(0, 6000, size=int(rng.integers(2, 24))))
    c = rng.integers(0, channels, size=len(t))
    cut = int(rng.integers(1, len(t)))
    builder.insert(t[:cut], c[:cut])
    return builder.insert(t[cut:], c[cut:])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pointnet_conv_writes_its_products_in_place(seed):
    rng = np.random.default_rng(seed)
    in_w, out_w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    layer = rand_conv(rng, in_w, out_w)
    table = _graph_batch(rng)
    n = table.row.shape[1]
    x = rng.integers(-128, 128, size=(n, in_w)).astype(np.int8)
    info = np.iinfo(layer.node_dtype)
    node = rng.integers(info.min, info.max, size=(len(table.channel), out_w),
                        dtype=layer.node_dtype, endpoint=True)
    history = node[:-n].copy()
    pointnet_conv(layer, node, x, table)
    np.testing.assert_array_equal(
        node[-n:], stored(layer, products(layer, x, table.channel[-n:])))
    np.testing.assert_array_equal(node[:-n], history)


# ------------------------------------------------------------- window pool

def _pooled(emissions):
    return [(i, v.tolist()) for i, v in emissions]


def test_window_pool_emits_gaps_as_zeros():
    pool = WindowPool(width=2, window_us=10)
    assert pool.push(np.array([[3, 1], [1, 5]], dtype=np.int8), [0, 9]) == []
    out = pool.push(np.array([[2, 2], [0, 1]], dtype=np.int8), [35, 39])
    assert _pooled(out) == [(0, [3, 5]), (1, [0, 0]), (2, [0, 0])]
    zero = out[1][1]                    # one read-only zero, shared
    assert out[2][1] is zero and not zero.flags.writeable
    assert _pooled(pool.flush()) == [(3, [2, 2])]
    assert pool.flush() == []


def test_window_pool_flush_without_events():
    pool = WindowPool(width=2, window_us=10)
    assert pool.push(np.zeros((0, 2), dtype=np.int8), []) == []
    assert pool.flush() == []


def test_window_pool_boundary_times():
    pool = WindowPool(width=1, window_us=10)
    out = pool.push(np.array([[7], [4]], dtype=np.int8), [0, 10])
    assert _pooled(out) == [(0, [7])]    # 10 is exactly the next window


def test_window_pool_rejects_regression():
    pool = WindowPool(width=1, window_us=10)
    pool.push(np.array([[1]], dtype=np.int8), [25])
    with pytest.raises(OrderingError):   # starts behind the open window
        pool.push(np.array([[1], [1]], dtype=np.int8), [15, 30])
    with pytest.raises(OrderingError):   # regresses within the chunk
        pool.push(np.array([[1], [1]], dtype=np.int8), [31, 29])
    with pytest.raises(ValidationError):  # one row a timestamp
        pool.push(np.array([[1], [1]], dtype=np.int8), [31])
    with pytest.raises(ValidationError):  # a chunk, not one row
        pool.push(np.array([1], dtype=np.int8), 31)
    with pytest.raises(ValidationError):  # the pool's width
        pool.push(np.array([[1, 1]], dtype=np.int8), [31])
    assert _pooled(pool.push(np.array([[3]], dtype=np.int8), [20])) == []
    assert _pooled(pool.flush()) == [(2, [3])]


def test_window_pool_max_is_elementwise():
    pool = WindowPool(width=3, window_us=100)
    pool.push(np.array([[5, -3, 0], [2, 4, -1]], dtype=np.int8), [1, 2])
    out = pool.flush()
    assert out[0][1].tolist() == [5, 4, 0]   # each max starts from zeros


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_window_pool_pieces_match_oracle(data):
    width = data.draw(st.integers(1, 4))
    gaps = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, 30),
                                        st.integers(30, 400)), max_size=40))
    start = data.draw(st.sampled_from([0, 7, 95]))
    t = start + np.cumsum(gaps, dtype=np.int64)
    rows = np.array(data.draw(st.lists(
        st.lists(st.integers(-128, 127), min_size=width, max_size=width),
        min_size=len(t), max_size=len(t))), dtype=np.int8).reshape(-1, width)
    cuts = data.draw(st.lists(st.integers(0, len(t)), max_size=6))
    pool = WindowPool(width, window_us=25)
    got = []
    bounds = [0, *sorted(cuts), len(t)]
    for lo, hi in zip(bounds, bounds[1:]):
        got += _pooled(pool.push(rows[lo:hi], t[lo:hi]))
    assert got + _pooled(pool.flush()) == ref_window_pool(
        t.tolist(), rows.tolist(), 25)


# -------------------------------------------------------------------- head

@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_gru_step_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    in_w = int(rng.integers(1, 8))
    out_w = int(rng.integers(1, 8))
    block = rand_gru(rng, in_w, out_w)
    x = rng.integers(-128, 128, size=in_w).astype(np.int8)
    h = rng.integers(-128, 128, size=out_w).astype(np.int8)
    got = gru_step(block, x, h)
    expect = ref_gru_step(block.weight.tolist(), block.bias.tolist(),
                          block.scale_num, block.scale_shift,
                          in_w, out_w, x.tolist(), h.tolist())
    assert got.tolist() == expect


def small_head_weights(seed):
    rng = np.random.default_rng(seed)
    convs = [rand_conv(rng, 3, 6)] + [rand_conv(rng, 6, 6) for _ in range(3)]
    head = [rand_linear(rng, 6, 8), rand_gru(rng, 8, 5),
            rand_linear(rng, 5, 4)]
    return ModelWeights(conv_layers=convs, head_blocks=head, class_count=3)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_head_forward_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    weights = small_head_weights(seed)
    state = HeadState.fresh(weights)
    oracle_hidden = [h.tolist() for h in state.hidden]
    oracle_blocks = [as_oracle_block(b) for b in weights.head_blocks]
    for step in range(3):
        pooled = rng.integers(0, 128, size=6).astype(np.int8)
        pred, state = head_forward(weights, pooled, state, window_index=step)
        logits, conf, oracle_hidden = ref_head_forward(
            oracle_blocks, pooled.tolist(), oracle_hidden)
        assert pred.logits.tolist() == logits
        assert pred.conf == conf
        assert pred.window_index == step
        assert [h.tolist() for h in state.hidden] == oracle_hidden


def test_head_forward_does_not_mutate_input_state():
    weights = small_head_weights(0)
    state = HeadState.fresh(weights)
    before = [h.copy() for h in state.hidden]
    pooled = np.full(6, 40, dtype=np.int8)
    head_forward(weights, pooled, state)
    for h, b in zip(state.hidden, before):
        np.testing.assert_array_equal(h, b)


def test_head_forward_final_block_keeps_full_range():
    # saturating logits would corrupt the confidence comparison; values
    # beyond int8 must survive
    big = LinearBlock(
        weight=np.full((2, 1), 127, dtype=np.int8),
        bias=np.array([1 << 20, 0], dtype=np.int32),
        in_width=1, out_width=2, scale_num=1, scale_shift=0)
    from evkws import ModelWeights
    rng = np.random.default_rng(0)
    convs = [rand_conv(rng, 3, 1)] + [rand_conv(rng, 1, 1) for _ in range(3)]
    weights = ModelWeights(conv_layers=convs, head_blocks=[big],
                           class_count=1)
    pred, _ = head_forward(weights, np.array([127], dtype=np.int8),
                           HeadState.fresh(weights))
    assert pred.logits[0] > 127


def test_head_forward_checks_pooled_width():
    weights = small_head_weights(1)
    with pytest.raises(ValidationError):
        head_forward(weights, np.zeros(7, dtype=np.int8),
                     HeadState.fresh(weights))
    # int8 values in any dtype run; others would break exact products
    pooled = np.array([127, -128, 0, 1, 2, 3])
    pred, _ = head_forward(weights, pooled, HeadState.fresh(weights))
    expect, _ = head_forward(weights, pooled.astype(np.int8),
                             HeadState.fresh(weights))
    assert _triples([pred]) == _triples([expect])
    for bad in (128, -129, 2**40):
        pooled[0] = bad
        with pytest.raises(ValidationError, match="int8"):
            head_forward(weights, pooled, HeadState.fresh(weights))


# ------------------------------------------------------------- predictions

def test_prediction_argmax_first_on_ties():
    pred = Prediction(0, np.array([5, 9, 9, 1]), conf=3)
    assert pred.argmax_class == 1
    d = pred.to_json_dict()
    assert d == {"window": 0, "logits": [5, 9, 9, 1], "conf": 3, "class": 1}


def test_summarize_predictions_tie_breaks_to_first_window():
    preds = [Prediction(0, np.array([1, 0]), conf=7),
             Prediction(1, np.array([0, 1]), conf=9),
             Prediction(2, np.array([1, 0]), conf=9)]
    assert summarize_predictions(preds) == (1, 1)
    assert summarize_predictions([]) is None


# ------------------------------------------------------------------ engine

def small_arch():
    return ModelArch(conv_widths=(6, 6, 6, 6),
                     head=(("linear", 8), ("gru", 5), ("linear", 0)),
                     class_count=3)


def test_engine_runs_are_independent(rng):
    weights = random_weights(0, small_arch())
    gp = GraphParams(r_c=4, skip_step=1, r_t_low=0, r_t_high=2000)
    engine = InferenceEngine(weights, gp, window_us=1000)
    a = make_stream(rng, channels=64, n=150, t_max=8000)
    b = make_stream(rng, channels=64, n=150, t_max=8000)
    first_b = engine.run(b)
    engine.run(a)  # interleave another sample
    second_b = engine.run(b)
    assert len(first_b) == len(second_b)
    for x, y in zip(first_b, second_b):
        assert x.window_index == y.window_index
        assert x.conf == y.conf
        np.testing.assert_array_equal(x.logits, y.logits)


def test_engine_prediction_windows_cover_stream(rng):
    weights = random_weights(0, small_arch())
    gp = GraphParams(r_c=4, skip_step=1, r_t_low=0, r_t_high=2000)
    stream = make_stream(rng, channels=64, n=100, t_max=9500)
    preds = InferenceEngine(weights, gp, window_us=1000).run(stream)
    last_window = int(stream.t[-1]) // 1000
    assert [p.window_index for p in preds] == list(range(last_window + 1))


def test_engine_empty_stream_emits_nothing(cfg64):
    weights = random_weights(0, small_arch())
    gp = GraphParams(r_c=4, skip_step=1, r_t_low=0, r_t_high=2000)
    preds = InferenceEngine(weights, gp).run(EventStream.empty(cfg64))
    assert preds == []


def test_engine_applies_filtration(rng):
    from evkws import FiltrationParams
    weights = random_weights(0, small_arch())
    gp = GraphParams(r_c=4, skip_step=1, r_t_low=0, r_t_high=2000)
    # threshold too high to ever fire: no events survive, no windows emitted
    filt = FiltrationParams(div_factor=0, weight=1,
                            thresholds=np.full(64, 10**9, dtype=np.int64))
    stream = make_stream(rng, channels=64, n=200, t_max=5000)
    assert InferenceEngine(weights, gp, filt).run(stream) == []


def test_engine_single_event_stream(cfg64):
    weights = random_weights(0, small_arch())
    gp = GraphParams(r_c=4, skip_step=1, r_t_low=0, r_t_high=2000)
    stream = EventStream.from_events(cfg64, [(25_000, 3, 1)])
    preds = InferenceEngine(weights, gp).run(stream)
    # windows 0 and 1 are empty but still emitted; window 2 holds the event
    assert [p.window_index for p in preds] == [0, 1, 2]


# --------------------------------------------------------- end-to-end oracle

def _oracle_case(seed, filtered):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(2, 7))
    convs = [rand_conv(rng, 3, width)] + [rand_conv(rng, width, width)
                                          for _ in range(3)]
    head = [rand_linear(rng, width, 8), rand_gru(rng, 8, 5),
            rand_linear(rng, 5, 4)]
    weights = ModelWeights(conv_layers=convs, head_blocks=head,
                           class_count=3)
    channels = int(rng.choice([32, 64]))
    window_us = 1000
    n = int(rng.integers(200, 400))
    start = 0 if seed % 2 == 0 else int(rng.integers(2, 5)) * window_us + \
        int(rng.integers(0, window_us))  # first event >= 2 windows in
    t = start + np.sort(rng.integers(0, int(rng.choice([2000, 20_000])),
                                     size=n))
    c = rng.integers(0, channels, size=n)
    p = rng.choice([-1, 1], size=n)
    stream = EventStream(SensorConfig(channels), t.astype(np.int64),
                         c.astype(np.int32), p.astype(np.int8))
    r_t_low = int(rng.integers(0, 200))
    gp = GraphParams(r_c=int(rng.integers(0, 9)),
                     skip_step=int(rng.integers(1, 4)), r_t_low=r_t_low,
                     r_t_high=r_t_low + int(rng.integers(0, 5000)))
    filtration = None
    if filtered:
        filtration = FiltrationParams(
            div_factor=int(rng.integers(2, 10)), weight=32,
            thresholds=rng.integers(32, 97, size=channels))
    return weights, stream, gp, filtration, window_us


def _oracle_predictions(weights, stream, gp, filtration, window_us):
    oracle_filter = None if filtration is None else (
        filtration.div_factor, filtration.weight,
        filtration.thresholds.tolist())
    return ref_infer_stream(
        events_of(stream), stream.config.channels,
        [as_oracle_block(b) for b in weights.conv_layers],
        [as_oracle_block(b) for b in weights.head_blocks],
        gp, window_us, oracle_filter)


def _triples(predictions):
    return [(p.window_index, p.logits.tolist(), p.conf) for p in predictions]


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_engine_matches_end_to_end_oracle(seed, filtered):
    case = _oracle_case(seed, filtered)
    weights, stream, gp, filtration, window_us = case
    preds = InferenceEngine(weights, gp, filtration, window_us).run(stream)
    expect = _oracle_predictions(*case)
    assert _triples(preds) == expect
    assert expect and expect[0][0] == 0


def _rows_at_the_bound(block, rows, rng, **changes):
    """A copy of ``block`` whose ``rows`` hold int8 extremes and reach
    |bias| + 128*sum|w| = 2**31 - 1, the bias alternating in sign."""
    weight, bias = np.array(block.weight), block.bias.astype(np.int64)
    weight[rows] = rng.choice([-127, 127], size=weight[rows].shape)
    if isinstance(block, ConvLayer):
        weight[rows, block.in_width] = 127                     # w_dc
    extent = 128 * np.abs(weight.astype(np.int64)).sum(axis=1)
    room = 2**31 - 1 - extent[rows]
    bias[rows] = room * np.resize([1, -1], len(room))
    block = dataclasses.replace(block, weight=weight, bias=bias, **changes)
    assert (np.abs(bias) + extent)[rows].tolist() == [2**31 - 1] * len(room)
    return block


def test_engine_at_the_accumulator_bound_matches_oracle():
    # 128 channels with events on both edge channels, every offset in reach;
    # every row of conv 2 and some rows of the gru (one per gate) and of the
    # final linear block sit at the accumulator bound, the last at shift 0
    # so its logits keep every bit of the products
    rng = np.random.default_rng(7)
    width = 4
    convs = [rand_conv(rng, 3, width)] + [rand_conv(rng, width, width)
                                          for _ in range(3)]
    convs[1] = _rows_at_the_bound(convs[1], slice(None), rng, scale_num=1,
                                  scale_shift=24)
    head = [rand_linear(rng, width, 8),
            _rows_at_the_bound(rand_gru(rng, 8, 5), [0, 5, 10], rng),
            _rows_at_the_bound(rand_linear(rng, 5, 4), [0, 2], rng,
                               scale_num=1, scale_shift=0)]
    weights = ModelWeights(conv_layers=convs, head_blocks=head,
                           class_count=3)
    n = 300
    t = np.sort(rng.integers(0, 6000, size=n))
    c = rng.choice([0, 127, 0, 127, 1, 64, 126], size=n)
    p = rng.choice([-1, 1], size=n)
    stream = EventStream(SensorConfig(128), t.astype(np.int64),
                         c.astype(np.int32), p.astype(np.int8))
    gp = GraphParams(r_c=127, skip_step=1, r_t_low=0, r_t_high=2000)
    preds = InferenceEngine(weights, gp, window_us=1000).run(stream)
    events = list(zip(t.tolist(), c.tolist(), p.tolist()))
    expect = ref_infer_stream(
        events, 128, [as_oracle_block(b) for b in weights.conv_layers],
        [as_oracle_block(b) for b in weights.head_blocks], gp, 1000)
    assert [(p.window_index, p.logits.tolist(), p.conf)
            for p in preds] == expect


# ------------------------------------------------------- node dtype bounds

EDGE_GRAPH = GraphParams(r_c=127, skip_step=1, r_t_low=0, r_t_high=9000)


def _edge_stream(groups=40):
    """128 channels: groups of events on the edge channels and next to
    them, 8,200 us apart. Every event finds the previous group at ages of
    8,140-8,260 us, which quantize to 127, its own group at ages near 0,
    and the far edge at channel offsets of -127 and +127."""
    rng = np.random.default_rng(31)
    t, c = [], []
    for g in range(groups):
        size = int(rng.integers(2, 6))
        t += (g * 8200 + np.sort(rng.integers(0, 60, size=size))).tolist()
        c += rng.choice([0, 127, 0, 127, 1, 126], size=size).tolist()
    stream = EventStream(SensorConfig(128), np.array(t), np.array(c),
                         rng.choice([-1, 1], size=len(t)))
    builder = GraphBuilder(128, EDGE_GRAPH)
    table = builder.insert(stream.t, stream.c)
    ages = table.gather[1][table.valid]
    dc = np.broadcast_to(table.dc[:, None], table.valid.shape)[table.valid]
    assert ages.max() == 127 and ages.min() == 0
    assert dc.min() == -127 and dc.max() == 127
    return stream


def _run_against_oracle(convs, width, seed):
    """The engine and the oracle on the edge stream, conv layers as given."""
    rng = np.random.default_rng(seed)
    head = [rand_linear(rng, width, 8), rand_gru(rng, 8, 5),
            rand_linear(rng, 5, 4)]
    weights = ModelWeights(conv_layers=convs, head_blocks=head,
                           class_count=3)
    stream = _edge_stream()
    expect = _oracle_predictions(weights, stream, EDGE_GRAPH, None, 10_000)
    preds = InferenceEngine(weights, EDGE_GRAPH).run(stream)
    assert len(expect) == 32 and _triples(preds) == expect


def _span_conv(rng, in_w, out_w, scale_num, reach):
    """A layer at shift 14 with |w_age| + |w_dc| = ``reach`` in every row,
    w_age >= 0 and every other weight -128 or 127."""
    w_age = rng.integers(max(reach - 127, 0), min(reach, 127) + 1,
                         size=out_w)
    w_dc = (reach - w_age) * rng.choice([-1, 1], size=out_w)
    weight = np.column_stack([rng.choice([-128, 127], size=(out_w, in_w)),
                              w_dc, w_age])
    return ConvLayer(weight=weight, bias=rng.integers(0, 500, size=out_w),
                     in_width=in_w, out_width=out_w, scale_num=scale_num,
                     scale_shift=14)


@pytest.mark.parametrize("scale_num,reach,span,dtype", [
    (63, 129, 65_535, np.int16),   # hi - lo = 32,769
    (43, 69, 65_536, np.int32),    # hi - lo = 48,010
])
def test_widest_span_at_the_int16_bound_matches_oracle(scale_num, reach,
                                                        span, dtype):
    # every row of every conv layer spans exactly `span`: (hi - lo) +
    # 2*range(A) + range(C) = (hi - lo) + 254*(|w_age| + |w_dc|)
    rng = np.random.default_rng(span)
    width = 5
    convs = [_span_conv(rng, 3, width, scale_num, reach)] + [
        _span_conv(rng, width, width, scale_num, reach) for _ in range(3)]
    lo, hi = ref_rectified_window(scale_num, 14)
    for layer in convs:
        w_dc, w_age = np.abs(layer.weight[:, -2:].astype(np.int64)).T
        assert ((hi - lo) + 254 * (w_age + w_dc) == span).all()
        low, high = clamp_bounds(layer)            # no bound at the reach
        ages = layer.age_table.astype(np.int64)
        assert (high - low + ages.max(axis=0) - ages.min(axis=0)
                == span).all()
        assert layer.node_dtype == dtype
        assert (layer.offset != 0).any() == (dtype == np.int16)
    _run_against_oracle(convs, width, span)


def test_float64_products_on_the_int16_path_match_oracle():
    # conv 2 takes 1,200 inputs with |w| >= 112: 128*sum|w| > 2**24, so its
    # products run in float64, while its span still fits int16
    rng = np.random.default_rng(12)
    wide, width = 1200, 3
    weight = rng.integers(112, 129, size=(width, wide)) * rng.choice(
        [-1, 1], size=(width, wide))
    weight = np.column_stack([weight.clip(-128, 127),
                              rng.integers(-20, 21, size=(width, 2))])
    conv2 = ConvLayer(weight=weight, bias=rng.integers(-500, 500, size=width),
                      in_width=wide, out_width=width, scale_num=1,
                      scale_shift=8)
    assert conv2.product_t.dtype == np.float64
    assert not hasattr(conv2, "weight_t")
    assert conv2.node_dtype == np.int16 and conv2.offset.any()
    convs = [rand_conv(rng, 3, wide), conv2, rand_conv(rng, width, width),
             rand_conv(rng, width, width)]
    _run_against_oracle(convs, width, 12)


def _rows_near_the_limit(rng, in_w, scale_shift, dc_age):
    """Five rows: two at |bias| + 128*sum|w| = 2**31 - 1 with each sign of
    bias, two with zero weights and bias +-(2**31 - 1), one ordinary;
    |w_dc| and |w_age| up to ``dc_age``."""
    weight = np.column_stack([rng.integers(-128, 128, size=(5, in_w)),
                              rng.integers(-dc_age, dc_age + 1, size=(5, 2))])
    weight[2:4] = 0
    bias = (2**31 - 1 - 128 * np.abs(weight).sum(axis=1)) * np.array(
        [1, -1, 1, -1, 0])
    bias[4] = rng.integers(-500, 500)
    return ConvLayer(weight=weight, bias=bias, in_width=in_w, out_width=5,
                     scale_num=1, scale_shift=scale_shift)


def test_bias_near_the_accumulator_limit_matches_oracle():
    # the window's clamp bounds lie near +-2**31 before they are cut to
    # the products' reach; at shift 25 the window's top is capped at
    # 2**31 - 1 and the positive-bias row's bounds take the whole reach
    rng = np.random.default_rng(13)
    width = 5
    convs = [rand_conv(rng, 3, width), _rows_near_the_limit(rng, width, 8, 20),
             _rows_near_the_limit(rng, width, 25, 127),
             rand_conv(rng, width, width)]
    assert [layer.node_dtype for layer in convs[1:3]] == [np.int16, np.int32]
    for layer in convs[1:3]:
        w = np.abs(layer.weight.astype(np.int64))
        reach = 128 * w[:, :-2].sum(axis=1) + 127 * w[:, -2]
        low, high = clamp_bounds(layer)
        assert (-reach <= low).all() and (low <= high).all()
        assert (high <= reach).all()
        if layer is convs[2]:      # row 0, bias > 0: the whole reach
            assert [low[0], high[0]] == [-reach[0], reach[0]]
    _run_against_oracle(convs, width, 13)


# ----------------------------------------------------------- chunk splits

SPLIT_WEIGHTS = random_weights(3, small_arch())
SPLIT_GRAPH = GraphParams(r_c=3, skip_step=1, r_t_low=0, r_t_high=3000)


def _fed_in_pieces(stream, cuts, window_us=1000):
    state = RunState(SPLIT_WEIGHTS, SPLIT_GRAPH, stream.config.channels,
                     window_us)
    preds = []
    bounds = [0, *sorted(cuts), len(stream)]
    for lo, hi in zip(bounds, bounds[1:]):
        preds += state.feed(stream.t[lo:hi], stream.c[lo:hi],
                            stream.p[lo:hi])
    return preds + state.close()


def _same(a, b):
    return [(p.window_index, p.logits.tolist(), p.conf) for p in a] == \
        [(p.window_index, p.logits.tolist(), p.conf) for p in b]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_split_anywhere_equals_single_run(data):
    steps = data.draw(st.lists(
        st.tuples(st.one_of(st.just(0), st.integers(0, 400),
                            st.integers(900, 6000)),
                  st.integers(0, 11), st.sampled_from([-1, 1])),
        min_size=1, max_size=150))
    start = data.draw(st.sampled_from([0, 1000, 2999]))
    t = start + np.cumsum([gap for gap, _, _ in steps])
    stream = EventStream(SensorConfig(32), t.astype(np.int64),
                         np.array([c for _, c, _ in steps], dtype=np.int32),
                         np.array([p for _, _, p in steps], dtype=np.int8))
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=8))
    whole = InferenceEngine(SPLIT_WEIGHTS, SPLIT_GRAPH,
                            window_us=1000).run(stream)
    assert _same(_fed_in_pieces(stream, cuts), whole)


# Window 1000 us. Index: 0..7 below; each case names the split it tests.
SPLIT_EVENTS = [(100, 5, 1), (500, 3, 1), (500, 4, -1), (1700, 9, 1),
                (2000, 6, -1), (2100, 2, 1), (6500, 3, 1), (6600, 4, -1)]


@pytest.mark.parametrize("cut,case", [
    (2, "equal timestamps on both sides"),
    (4, "neighbor only in an earlier chunk"),   # event 4 (c6) sees c5 at 100
    (4, "split exactly on a window edge"),      # event 4 at t = 2000
    (6, "split inside an empty stretch"),       # 2100 | 6500: windows 3-5
])
def test_named_splits_equal_single_run(cfg64, cut, case):
    stream = EventStream.from_events(cfg64, SPLIT_EVENTS)
    before, after = SPLIT_EVENTS[cut - 1], SPLIT_EVENTS[cut]
    if case == "equal timestamps on both sides":
        assert before[0] == after[0]
    elif case == "neighbor only in an earlier chunk":
        builder = GraphBuilder(64, SPLIT_GRAPH)
        builder.insert(stream.t[:cut], stream.c[:cut])
        table = builder.insert(stream.t[cut:], stream.c[cut:])
        # column of channel offset -1 for event 4 points into history
        k = int(np.flatnonzero(table.dc == -1)[0])
        assert table.valid[k, 0] and table.row[k, 0] < 64
    elif case == "split exactly on a window edge":
        assert after[0] % 1000 == 0
    else:
        assert after[0] // 1000 - before[0] // 1000 > 1
    whole = InferenceEngine(SPLIT_WEIGHTS, SPLIT_GRAPH,
                            window_us=1000).run(stream)
    assert [p.window_index for p in whole] == list(range(7))
    assert _same(_fed_in_pieces(stream, [cut]), whole)


def test_long_gap_matches_oracle_whole_and_in_pieces():
    # two 60-event bursts 1.2 s apart: over a thousand empty windows, all
    # emitted by one push, or by pieces cut inside the gap
    rng = np.random.default_rng(21)
    burst = np.sort(rng.integers(0, 2500, size=60))
    t = np.concatenate([burst, 1_200_000 + burst])
    c = rng.integers(0, 32, size=len(t))
    p = rng.choice([-1, 1], size=len(t))
    stream = EventStream(SensorConfig(32), t.astype(np.int64),
                         c.astype(np.int32), p.astype(np.int8))
    expect = _oracle_predictions(SPLIT_WEIGHTS, stream, SPLIT_GRAPH, None,
                                 1000)
    last = int(t[-1]) // 1000
    assert [w for w, _, _ in expect] == list(range(last + 1))
    assert last + 1 - len(set((t // 1000).tolist())) >= 1000  # empty ones
    whole = InferenceEngine(SPLIT_WEIGHTS, SPLIT_GRAPH,
                            window_us=1000).run(stream)
    assert _triples(whole) == expect
    for cuts in ([60], [30, 60, 60, 90], [59, 61]):
        assert _triples(_fed_in_pieces(stream, cuts)) == expect, cuts


def test_feed_rejects_a_chunk_older_than_the_last(cfg64):
    state = RunState(SPLIT_WEIGHTS, SPLIT_GRAPH, 64, 1000)
    state.feed(np.array([500]), np.array([3]), np.array([1]))
    with pytest.raises(OrderingError):
        state.feed(np.array([400]), np.array([4]), np.array([1]))


@pytest.mark.parametrize("case,error,message", [
    ("polarities one short", ValidationError, "polarities"),
    ("channels one short", ValidationError, "one length"),
    ("two-dimensional columns", ValidationError, "one length"),
    ("scalar columns", ValidationError, "one length"),
    ("polarity 7", ValidationError, "polarity 7 not in"),
    ("uint8 polarities, -1 as 255", ValidationError, "polarity 255 not in"),
    ("polarity 0", ValidationError, "polarity 0 not in"),
    ("channel off the sensor in the last chunk", ValidationError,
     "channel 32 outside"),
    ("timestamp regressing in the last chunk", OrderingError, "regress"),
    ("timestamp before the last fed", OrderingError, "regress"),
    ("float timestamps", ValidationError, "timestamps must be integers"),
    ("bool polarities", ValidationError, "polarities must be integers"),
    ("timestamp at 2**32 in the last chunk", ValidationError,
     "timestamps must fit in unsigned 32 bits"),
    ("timestamp at the int64 maximum", ValidationError,
     "timestamps must fit in unsigned 32 bits"),
])
def test_feed_refuses_malformed_input_whole(case, error, message):
    # the refused call spans three chunks and runs none of them: feeding
    # the same events again, well formed, predicts as if it never happened
    rng = np.random.default_rng(4)
    n, cut = 2 * CHUNK + 52, 40
    t = 100 + np.sort(rng.integers(0, 9000, size=n))
    c = rng.integers(0, 32, size=n)
    p = rng.choice([-1, 1], size=n)
    bt, bc, bp = t[cut:].copy(), c[cut:].copy(), p[cut:].copy()
    if case == "polarities one short":
        bp = bp[:-1]
    elif case == "channels one short":
        bc = bc[:-1]
    elif case == "two-dimensional columns":
        bt, bc, bp = bt.reshape(2, -1), bc.reshape(2, -1), bp.reshape(2, -1)
    elif case == "scalar columns":
        bt, bc, bp = bt[0], bc[0], bp[0]
    elif case == "polarity 7":
        bp[-1] = 7
    elif case == "uint8 polarities, -1 as 255":
        bp = bp.astype(np.uint8)
    elif case == "polarity 0":
        bp[-1] = 0
    elif case == "channel off the sensor in the last chunk":
        bc[-1] = 32
    elif case == "timestamp regressing in the last chunk":
        bt[-1] = bt[-2] - 1
    elif case == "float timestamps":
        bt = bt.astype(np.float64)
    elif case == "bool polarities":
        bp = bp > 0
    elif case == "timestamp at 2**32 in the last chunk":
        bt[-1] = 2**32
    elif case == "timestamp at the int64 maximum":
        bt[-1] = 2**63 - 1
    else:
        bt[0] = t[cut - 1] - 1
    state = RunState(SPLIT_WEIGHTS, SPLIT_GRAPH, 32, 1000)
    preds = state.feed(t[:cut], c[:cut], p[:cut])
    with pytest.raises(error, match=message):
        state.feed(bt, bc, bp)
    preds += state.feed(t[cut:], c[cut:], p[cut:]) + state.close()
    whole = InferenceEngine(SPLIT_WEIGHTS, SPLIT_GRAPH, window_us=1000).run(
        EventStream(SensorConfig(32), t, c, p))
    assert len(whole) > 1 and _same(preds, whole)


def test_one_feed_longer_than_a_chunk_equals_run():
    # RunState's node buffers hold CHUNK events; a longer feed still runs
    rng = np.random.default_rng(9)
    n = 3 * CHUNK + 1
    stream = EventStream(SensorConfig(32),
                         np.sort(rng.integers(0, 9000, size=n)),
                         rng.integers(0, 32, size=n).astype(np.int32),
                         rng.choice([-1, 1], size=n).astype(np.int8))
    whole = InferenceEngine(SPLIT_WEIGHTS, SPLIT_GRAPH,
                            window_us=1000).run(stream)
    assert len(whole) == 9
    state = RunState(SPLIT_WEIGHTS, SPLIT_GRAPH, 32, 1000)
    preds = state.feed(stream.t, stream.c, stream.p)
    assert _same(preds + state.close(), whole)
    *_, (_, _, inputs) = ref_conv_stream(
        events_of(stream), 32,
        [as_oracle_block(b) for b in SPLIT_WEIGHTS.conv_layers], SPLIT_GRAPH)
    for layer, memory, latest in zip(SPLIT_WEIGHTS.conv_layers,
                                     state.memories, inputs):
        assert memory.dtype == layer.node_dtype == np.int16
        assert memory.shape == (32, layer.out_width)
        assert memory.flags.writeable and memory.base is not None
        assert_carried(layer, memory, latest)


@pytest.mark.parametrize("filtered", [False, True])
def test_chunk_size_never_changes_the_outputs(monkeypatch, filtered):
    rng = np.random.default_rng(5)
    t = np.sort(rng.integers(0, 12_000, size=1200))
    stream = EventStream(SensorConfig(32), t.astype(np.int64),
                         rng.integers(0, 32, size=1200).astype(np.int32),
                         rng.choice([-1, 1], size=1200).astype(np.int8))
    filtration = None
    if filtered:
        filtration = FiltrationParams(
            div_factor=4, weight=32, thresholds=rng.integers(32, 97, size=32))
        assert len(filter_stream(stream, filtration)) > 256  # 1024 != 256
    expect = _oracle_predictions(SPLIT_WEIGHTS, stream, SPLIT_GRAPH,
                                 filtration, 1000)
    edges = []
    for chunk in (1, 5, 128, 256, 1024):
        monkeypatch.setattr(evkws.inference, "CHUNK", chunk)
        monkeypatch.setattr(evkws.graph, "CHUNK", chunk)
        engine = InferenceEngine(SPLIT_WEIGHTS, SPLIT_GRAPH, filtration, 1000)
        assert _triples(engine.run(stream)) == expect, f"chunk {chunk}"
        edges.append(evkws.graph.edges_per_event(stream, SPLIT_GRAPH))
        np.testing.assert_array_equal(edges[-1], edges[0])
    assert len(edges[0]) == len(stream) and edges[0].any()


def test_default_model_matches_end_to_end_oracle(monkeypatch):
    # the deployed widths (72-wide convs, a 64-wide gru), so every product
    # is BLAS-sized, with the README quick-start graph and filtration; a
    # sparse 30 ms stream keeps the oracle to about a second
    weights = random_weights(5)
    stream = synth_stream(11, SensorConfig(64), 30_000, 100.0)
    gp = GraphParams(r_c=6, skip_step=1, r_t_low=0, r_t_high=5000)
    filtration = FiltrationParams(div_factor=10, weight=32,
                                  thresholds=np.full(64, 48))
    assert weights.conv_widths == [72] * 4
    assert len(filter_stream(stream, filtration)) > 64
    expect = _oracle_predictions(weights, stream, gp, filtration, 10_000)
    assert len(expect) == 3
    for chunk in (CHUNK, 16):  # one chunk, then products carried across
        monkeypatch.setattr(evkws.inference, "CHUNK", chunk)
        monkeypatch.setattr(evkws.graph, "CHUNK", chunk)
        engine = InferenceEngine(weights, gp, filtration)
        assert _triples(engine.run(stream)) == expect, f"chunk {chunk}"


# ------------------------------------------------------- carried products

def assert_carried(layer, memory, inputs):
    """Each channel's carried row plus the layer's offset is the oracle's
    product of the channel's latest stage input ``inputs[ch]``, clamped to
    the layer's bounds."""
    seen = sorted(inputs)
    low, high = clamp_bounds(layer)
    expect = np.clip(products(layer, [inputs[ch] for ch in seen], seen),
                     low, high)
    np.testing.assert_array_equal(
        memory[seen].astype(np.int64) + layer.offset, expect)


def poison(dtype):
    """Both extremes of a node buffer's dtype."""
    info = np.iinfo(dtype)
    return np.array([info.max, info.min], dtype=dtype)


def _split_case(data):
    """A 32-channel stream on a drawn subset of channels, and cuts."""
    channels = data.draw(st.lists(st.integers(0, 31), min_size=1,
                                  max_size=12, unique=True))
    steps = data.draw(st.lists(
        st.tuples(st.one_of(st.just(0), st.integers(0, 400),
                            st.integers(900, 6000)),
                  st.sampled_from(channels), st.sampled_from([-1, 1])),
        min_size=1, max_size=60))
    t = np.cumsum([gap for gap, _, _ in steps])
    stream = EventStream(SensorConfig(32), t.astype(np.int64),
                         np.array([c for _, c, _ in steps], dtype=np.int32),
                         np.array([p for _, _, p in steps], dtype=np.int8))
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=6))
    return stream, [0, *sorted(cuts), len(stream)]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_products_of_channels_without_events_are_never_read(data):
    stream, bounds = _split_case(data)
    whole = InferenceEngine(SPLIT_WEIGHTS, SPLIT_GRAPH,
                            window_us=1000).run(stream)
    state = RunState(SPLIT_WEIGHTS, SPLIT_GRAPH, 32, 1000)
    preds = []
    for lo, hi in zip(bounds, bounds[1:]):
        unseen = np.setdiff1d(np.arange(32), stream.c[:lo])
        for memory in state.memories:   # a checkerboard of both extremes
            memory[unseen] = poison(memory.dtype)[
                (unseen[:, None] + np.arange(memory.shape[1])) % 2]
        preds += state.feed(stream.t[lo:hi], stream.c[lo:hi],
                            stream.p[lo:hi])
    assert _same(preds + state.close(), whole)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_carried_products_equal_recomputed(data):
    # after every feed, each seen channel's carried row is the product of
    # its latest event's stage input, taken from the plain-Python oracle
    stream, bounds = _split_case(data)
    conv_blocks = [as_oracle_block(b) for b in SPLIT_WEIGHTS.conv_layers]
    snapshots = [[dict(m) for m in memories] for _, _, memories in
                 ref_conv_stream(events_of(stream), 32, conv_blocks,
                                 SPLIT_GRAPH)]
    state = RunState(SPLIT_WEIGHTS, SPLIT_GRAPH, 32, 1000)
    for lo, hi in zip(bounds, bounds[1:]):
        state.feed(stream.t[lo:hi], stream.c[lo:hi], stream.p[lo:hi])
        if hi == 0:
            continue
        for layer, carried, inputs in zip(SPLIT_WEIGHTS.conv_layers,
                                          state.memories, snapshots[hi - 1]):
            assert carried.dtype == layer.node_dtype
            assert carried.shape == (32, layer.out_width)
            assert sorted(inputs) == sorted(set(stream.c[:hi].tolist()))
            assert_carried(layer, carried, inputs)
