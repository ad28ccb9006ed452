from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evkws import (
    EventStream,
    GraphBuilder,
    GraphParams,
    InferenceEngine,
    OrderingError,
    SensorConfig,
    ValidationError,
    edges_per_event,
    random_weights,
    synth_stream,
)
from evkws.events import SUPPORTED_CHANNEL_COUNTS
from evkws.graph import CHUNK, dump_neighbors

from oracles import brute_force_neighbors, linear_scan_neighbors


def insert(builder, t, c):
    """Insert one event as a one-row batch; its (channel, dt) pairs,
    ascending channel."""
    return builder.insert([t], [c]).pairs(0, c)


# ------------------------------------------------------------------ params

def test_params_validation():
    GraphParams(r_c=0, skip_step=1, r_t_low=0, r_t_high=0)
    with pytest.raises(ValidationError):
        GraphParams(r_c=-1, skip_step=1, r_t_low=0, r_t_high=10)
    with pytest.raises(ValidationError):
        GraphParams(r_c=1, skip_step=0, r_t_low=0, r_t_high=10)
    with pytest.raises(ValidationError):
        GraphParams(r_c=1, skip_step=1, r_t_low=5, r_t_high=4)
    with pytest.raises(ValidationError):
        GraphParams(r_c=1, skip_step=1, r_t_low=-1, r_t_high=4)


def test_max_degree():
    assert GraphParams(r_c=10, skip_step=1, r_t_low=0,
                       r_t_high=100).max_degree == 20
    assert GraphParams(r_c=10, skip_step=3, r_t_low=0,
                       r_t_high=100).max_degree == 6
    assert GraphParams(r_c=2, skip_step=5, r_t_low=0,
                       r_t_high=100).max_degree == 0


# ------------------------------------------------------------- worked case

def test_worked_example_center_channel_not_a_neighbor():
    # history: (100, c4), (200, c5); inserting (300, c5) with r_c=1, s=1
    # only the cross-channel record qualifies; the earlier same-channel
    # event occupies the center slot, not a neighbor slot
    params = GraphParams(r_c=1, skip_step=1, r_t_low=0, r_t_high=1000)
    builder = GraphBuilder(channels=64, params=params)
    builder.insert([100], [4])
    builder.insert([200], [5])
    assert insert(builder, 300, 5) == [(4, 200)]


def test_window_bounds_are_inclusive():
    params = GraphParams(r_c=1, skip_step=1, r_t_low=50, r_t_high=150)
    for t, expect in ((50, [(1, 50)]), (150, [(1, 150)]), (151, []),
                      (49, [])):
        builder = GraphBuilder(channels=8, params=params)
        builder.insert([0], [1])
        assert insert(builder, t, 2) == expect


def test_newer_event_shadows_older_on_same_channel():
    # channel 2 has an in-window event at t=10 and a fresher out-of-window
    # event at t=190; only the most recent record is consulted, so the
    # stale in-window one must not resurface
    params = GraphParams(r_c=2, skip_step=1, r_t_low=100, r_t_high=300)
    builder = GraphBuilder(channels=8, params=params)
    builder.insert([10], [2])
    builder.insert([190], [2])
    assert insert(builder, 200, 3) == []


def test_skip_step_selects_channel_lanes():
    params = GraphParams(r_c=4, skip_step=2, r_t_low=0, r_t_high=1000)
    builder = GraphBuilder(channels=16, params=params)
    for c in range(16):
        builder.insert([c], [c])
    assert [c for c, _ in insert(builder, 100, 8)] == \
        [4, 6, 10, 12]


def test_channel_edges_clip():
    params = GraphParams(r_c=3, skip_step=1, r_t_low=0, r_t_high=1000)
    builder = GraphBuilder(channels=8, params=params)
    for c in range(8):
        builder.insert([0], [c])
    assert [c for c, _ in insert(builder, 5, 0)] == [1, 2, 3]


@pytest.mark.parametrize("channels", [32, 64, 128])
@pytest.mark.parametrize("t", [0, 2**32 - 1])
def test_first_events_at_the_sensor_edges_have_no_neighbour(channels, t):
    # r_c reaches past both ends of the sensor and the window starts at age
    # 0: every offset of a first event reads an unseen channel or lies off
    # the sensor, and none of them is a neighbour, at either end of time
    params = GraphParams(r_c=127, skip_step=1, r_t_low=0, r_t_high=2**32)
    last = channels - 1
    for c in (0, last):
        table = GraphBuilder(channels, params).insert([t], [c])
        assert not table.valid.any() and table.pairs(0, c) == []
        assert ((table.row >= 0) & (table.row < len(table.channel))).all()
        rows, age = table.gather
        assert (rows == channels).all() and not age.any()
    # in one batch, the second event's one neighbour is the first
    table = GraphBuilder(channels, params).insert([t, t], [0, last])
    assert table.pairs(0, 0) == [] and table.pairs(1, last) == [(0, 0)]
    assert ((table.row >= 0) & (table.row < len(table.channel))).all()


@pytest.mark.parametrize("t", [2**32, 2**32 + 1, 2**63 - 1])
def test_insert_refuses_timestamps_past_32_bits(t):
    # the EventStream rule: a timestamp at 2**32 or above is refused whole,
    # on any channel, and the builder records nothing
    builder = GraphBuilder(32, GraphParams(r_c=1))
    builder.insert([0], [1])
    for c in (5, 31):
        with pytest.raises(ValidationError,
                           match="timestamps must fit in unsigned 32 bits"):
            builder.insert([10, t], [2, c])
    assert insert(builder, 9, 2) == [(1, 9)]
    assert insert(builder, 2**32 - 1, 31) == []  # 30 unseen, 32 off-sensor


def test_ordering_enforced():
    params = GraphParams(r_c=1, skip_step=1, r_t_low=0, r_t_high=10)
    builder = GraphBuilder(channels=8, params=params)
    builder.insert([100], [1])
    with pytest.raises(OrderingError):
        builder.insert([99], [2])
    builder.insert([100], [2])  # ties are fine


# ---------------------------------------------------------------- oracles

graph_params_st = st.builds(
    GraphParams,
    r_c=st.integers(0, 12),
    skip_step=st.integers(1, 4),
    r_t_low=st.integers(0, 200),
    r_t_high=st.integers(200, 2000),
)

events_st = st.lists(
    st.tuples(st.integers(0, 3000), st.integers(0, 31),
              st.sampled_from([-1, 1])),
    min_size=1, max_size=60,
).map(lambda evs: sorted(evs, key=lambda e: e[0]))


@given(events=events_st, params=graph_params_st)
@settings(max_examples=200, deadline=None)
def test_incremental_matches_both_oracles(events, params):
    cfg = SensorConfig(channels=32)
    stream = EventStream.from_events(cfg, events)
    builder = GraphBuilder(channels=32, params=params)
    for i, ev in enumerate(events):
        got = insert(builder, *ev[:2])
        assert got == linear_scan_neighbors(events[:i], ev, params)
        assert got == brute_force_neighbors(stream.t[:i], stream.c[:i], 32, ev,
                                            params)
        assert len(got) <= params.max_degree


@given(events=events_st, params=graph_params_st,
       chunk=st.integers(1, 2 * CHUNK))
@settings(max_examples=50, deadline=None)
def test_batched_query_and_edge_counts(events, params, chunk):
    # any batch size gives the one-event answers; edge counts agree
    cfg = SensorConfig(channels=32)
    stream = EventStream.from_events(cfg, events)
    one = GraphBuilder(channels=32, params=params)
    expect = [insert(one, t, c) for t, c, _ in events]
    batched = GraphBuilder(channels=32, params=params)
    got = []
    for start in range(0, len(stream), chunk):
        c = stream.c[start:start + chunk]
        table = batched.insert(stream.t[start:start + chunk], c)
        assert len(table) == table.valid.sum()
        got += [table.pairs(i, int(ch)) for i, ch in enumerate(c)]
    assert got == expect
    counts = edges_per_event(stream, params)
    assert [len(e) for e in expect] == counts.tolist()


@st.composite
def wide_streams(draw):
    """Channel count (1, 2, 32, 64 or 128) and up to ~700 sorted events, spread
    over the channels or a one-channel burst, with equal timestamps (zero
    gaps) in both."""
    channels = draw(st.sampled_from([1, 2, 32, 64, 128]))
    n = draw(st.integers(0, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.cumsum(rng.integers(0, draw(st.sampled_from([1, 3, 40, 400])), n))
    if draw(st.booleans()):
        c = np.full(n, rng.integers(0, channels))
    else:
        c = rng.integers(0, channels, n)
    return channels, t, c


@given(drawn=wide_streams(),
       params=st.builds(GraphParams, r_c=st.integers(0, 12),
                        skip_step=st.integers(1, 4),
                        r_t_low=st.integers(0, 60),
                        r_t_high=st.integers(60, 3000)),
       sizes=st.lists(st.integers(0, 2 * CHUNK), min_size=1, max_size=4)
       .filter(any))
@settings(max_examples=40, deadline=None)
def test_batched_insert_on_wide_and_bursty_streams(drawn, params, sizes):
    # empty batches included; each batch's answers equal the stateless
    # rescan, and its carried rows equal a plain scan of that batch
    channels, t, c = drawn
    builder = GraphBuilder(channels, params)
    got, start, k = [], 0, 0
    while start < len(t) or k < len(sizes):
        size = sizes[k % len(sizes)]
        k += 1
        bt, bc = t[start:start + size], c[start:start + size]
        table = builder.insert(bt, bc)
        for column in (table.row, table.dt, table.valid):
            assert column.shape == (len(table.dc), len(bt))
            assert column.flags.c_contiguous
        # every slot, valid or not, indexes a row of the table
        assert ((table.row >= 0) & (table.row < len(table.channel))).all()
        for i in range(len(bt)):
            ev = (int(bt[i]), int(bc[i]), 1)
            pairs = table.pairs(i, ev[1])
            assert pairs == brute_force_neighbors(
                t[:start + i], c[:start + i], channels, ev, params)
            got.append(len(pairs))
        last = list(range(channels))
        for i, ch in enumerate(bc.tolist()):
            last[ch] = channels + i
        assert builder.latest.tolist() == last
        assert builder.latest.base is None
        start += size
    if channels in SUPPORTED_CHANNEL_COUNTS:  # a stream needs a real sensor
        stream = EventStream(SensorConfig(channels), t, c, np.ones_like(c))
        assert edges_per_event(stream, params).tolist() == got


def test_batch_rejects_regressing_or_foreign_events():
    params = GraphParams(r_c=1, skip_step=1, r_t_low=0, r_t_high=10)
    builder = GraphBuilder(channels=8, params=params)
    with pytest.raises(OrderingError):
        builder.insert([5, 4], [1, 2])
    with pytest.raises(ValidationError):
        builder.insert([5, 6], [1, 8])
    builder.insert([5, 5], [1, 2])
    with pytest.raises(OrderingError):
        builder.insert([4], [3])


@pytest.mark.parametrize("t,c,message", [
    ([1, 2, 3], [5, 6], r"timestamps \(3,\), channels \(2,\) are not 1-D "
                        "columns of one length"),
    ([1, 2], [5, 6, 7], r"timestamps \(2,\), channels \(3,\)"),
    ([[1, 2]], [[5, 6]], r"timestamps \(1, 2\), channels \(1, 2\)"),
    (1, 5, r"timestamps \(\), channels \(\)"),
    ([1, 2], [[5, 6]], r"timestamps \(2,\), channels \(1, 2\)"),
    ([5, 6, 6], [5, 6, 8], r"record 2: channel 8 outside \[0, 8\)"),
    ([6, 7, 6], [5, 6, 7], "timestamps regress at record 2: 6 < 7"),
    ([4], [1], "timestamps regress at record 0: 4 < 5"),
    ([-1], [1], "timestamps must fit in unsigned 32 bits"),
], ids=["t0-c0", "t1-c1", "t2-c2", "1-5", "t4-c4", "channel-off-the-sensor",
        "regress-within", "regress-before-the-last", "negative"])
def test_insert_refuses_malformed_columns(t, c, message):
    builder = GraphBuilder(8, GraphParams(r_c=1))
    builder.insert([5], [1])
    with pytest.raises(ValidationError, match=message):
        builder.insert(t, c)
    assert insert(builder, 9, 2) == [(1, 4)]   # nothing was recorded


def test_insert_event_is_a_one_row_insert():
    params = GraphParams(r_c=2, skip_step=1, r_t_low=0, r_t_high=100)
    one, batched = GraphBuilder(8, params), GraphBuilder(8, params)
    for t, c in ((0, 3), (10, 4), (10, 2), (50, 3), (300, 4)):
        a, b = one.insert_event(t, c), batched.insert([t], [c])
        for name in ("row", "dc", "dt", "valid", "channel"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(one.latest, batched.latest)


def test_dump_neighbors_format(rng):
    params = GraphParams(r_c=2, skip_step=1, r_t_low=0, r_t_high=500)
    cfg = SensorConfig(channels=32)
    stream = EventStream.from_events(
        cfg, [(0, 1, 1), (100, 2, -1), (150, 3, 1)])
    buf = io.StringIO()
    dump_neighbors(stream, params, buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == 3
    assert lines[2]["t"] == 150 and lines[2]["c"] == 3
    assert {"c": 2, "dt": 50} in lines[2]["neighbors"]
    assert {"c": 1, "dt": 150} in lines[2]["neighbors"]


@pytest.mark.parametrize("skip_step", [1, 3])
def test_reach_past_the_sensor_adds_nothing(skip_step):
    # an offset of channels or more never lands on the sensor: a radius
    # past channels - 1 builds no more table rows and gives the same bits
    cfg = SensorConfig(channels=32)
    stream = synth_stream(5, cfg, duration_us=40_000, rate_profile=700)
    engine_weights = random_weights(0)
    runs = []
    for r_c in (31, 127, 4000):
        params = GraphParams(r_c=r_c, skip_step=skip_step, r_t_high=3000)
        assert len(GraphBuilder(32, params).dc) == 2 * (31 // skip_step)
        dump = io.StringIO()
        dump_neighbors(stream, params, dump)
        preds = InferenceEngine(engine_weights, params).run(stream)
        runs.append(([p.to_json_dict() for p in preds],
                     edges_per_event(stream, params).tolist(),
                     dump.getvalue()))
    assert len(stream) > CHUNK and sum(runs[0][1]) > 0 and runs[0][0]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def _check_against_the_rescan(channels, t, c, params, chunk=CHUNK):
    """Every batch's neighbor pairs, edge counts and carried rows equal the
    stateless rescan (and a plain scan of the batch)."""
    builder = GraphBuilder(channels, params)
    counts = []
    for start in range(0, len(t), chunk):
        bt, bc = t[start:start + chunk], c[start:start + chunk]
        table = builder.insert(bt, bc)
        degree = table.valid.sum(axis=0)
        for i in range(len(bt)):
            ev = (int(bt[i]), int(bc[i]), 1)
            expect = brute_force_neighbors(t[:start + i], c[:start + i],
                                           channels, ev, params)
            assert table.pairs(i, ev[1]) == expect
            assert degree[i] == len(expect)
            counts.append(len(expect))
        last = list(range(channels))
        for i, ch in enumerate(bc.tolist()):
            last[ch] = channels + i
        assert builder.latest.tolist() == last
    return counts


# ages reach 2**32 - 1 (an event at 0, then one at 2**32 - 1), and three
# events share each of the ages 7 and 2**31
_AGE_T = np.array([0, 0, 7, 7, 14, 2**31, 2**31 + 7, 2**32 - 8, 2**32 - 1,
                   2**32 - 1])
_AGE_C = np.array([0, 1, 1, 2, 3, 2, 4, 31, 30, 3])
_HIGHS = [2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64, 10**30]


@pytest.mark.parametrize("r_t_low,r_t_high", [
    *((0, high) for high in _HIGHS),
    *((high, high) for high in _HIGHS),
    (7, 7), (2**31, 2**31), (2**32 - 1, 2**32 - 1),
    # past every age: unseen channels and the sentinel row stay invalid too
    *((2**32, high) for high in _HIGHS[1:]),
    (10**30, 10**30),
])
@pytest.mark.parametrize("chunk", [1, 4, CHUNK])
def test_age_window_is_exact_at_any_width(r_t_low, r_t_high, chunk):
    # valid and edges_per_event equal the rescan's exact integer compare,
    # at windows wider than any age, past 64 bits, and of zero width
    params = GraphParams(r_c=31, skip_step=1, r_t_low=r_t_low,
                         r_t_high=r_t_high)
    counts = _check_against_the_rescan(32, _AGE_T, _AGE_C, params, chunk)
    stream = EventStream(SensorConfig(32), _AGE_T, _AGE_C,
                         np.ones_like(_AGE_C))
    assert edges_per_event(stream, params).tolist() == counts
    if r_t_low > 2**32 - 1:
        assert not any(counts)
    elif r_t_low == 0:
        assert sum(counts) > len(counts)


@pytest.mark.parametrize("channels", [254, 255, 256, 300])
def test_builder_on_sensors_wider_than_a_byte_key(channels):
    # insert takes any positive channel count: the run-start keys hold
    # channels + 2 values, so at 255 channels and up they widen past uint8
    # and must not wrap
    rng = np.random.default_rng(channels)
    n = 2 * CHUNK + 5
    t = np.cumsum(rng.integers(0, 4, n))
    c = np.where(rng.random(n) < 0.5, rng.integers(channels - 6, channels, n),
                 rng.integers(0, channels, n))
    for r_c, skip_step in ((3, 1), (channels, 1), (40, 7)):
        params = GraphParams(r_c=r_c, skip_step=skip_step, r_t_high=60)
        _check_against_the_rescan(channels, t, c, params)
