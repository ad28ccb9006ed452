from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evkws import (
    EventStream,
    FiltrationParams,
    OrderingError,
    SensorConfig,
    ThresholdSchedule,
    ValidationError,
    filter_stream,
    make_thresholds,
)
from evkws.cli import main
from evkws.filtering import V_LIMIT

from conftest import events_of, make_stream
from oracles import transcribed_filter


def uniform_params(channels=64, div_factor=8, weight=32, theta=64):
    return FiltrationParams(div_factor=div_factor, weight=weight,
                            thresholds=np.full(channels, theta, dtype=np.int64))


def run_steps(events, params):
    """Per-event accept flags, read off filter_stream on growing prefixes.

    The filter is causal, so event i passed exactly when the prefix ending
    at i keeps one more event than the prefix before it.
    """
    cfg = SensorConfig(params.channels)
    kept = [len(filter_stream(EventStream.from_events(cfg, events[:n]),
                              params))
            for n in range(len(events) + 1)]
    return [after > before for before, after in zip(kept, kept[1:])]


# -------------------------------------------------------------- hand traces

def test_trace_three_events_middle_accepted():
    # v: 32 -> 64 (accept, reset) -> 32; decay is zero at these gaps
    params = uniform_params()
    assert run_steps([(0, 3, 1), (100, 3, 1), (300, 3, -1)],
                     params) == [False, True, False]


def test_trace_decay_blocks_second():
    # dt=1000 decays floor(1000/256)=3 off the stored 32 -> 29+32=61 < 64
    params = uniform_params()
    assert run_steps([(0, 3, 1), (1000, 3, 1)], params) == [False, False]


def test_trace_threshold_equals_weight_accepts_everything():
    params = uniform_params(weight=32, theta=32)
    assert run_steps([(0, 1, 1), (5, 1, 1), (5, 1, -1)],
                     params) == [True, True, True]


def test_trace_zero_weight_accepts_nothing():
    params = uniform_params(weight=0, theta=1)
    assert run_steps([(0, 1, 1), (1, 1, 1)], params) == [False, False]


def test_trace_simultaneous_events_accumulate():
    # three events at the same instant: 32, 64, 96 -> third crosses 96
    params = uniform_params(weight=32, theta=96)
    assert run_steps([(50, 2, 1), (50, 2, 1), (50, 2, 1)],
                     params) == [False, False, True]


def test_rejected_event_still_moves_the_clock():
    # the rejections at t=100 and t=105 must update t_last: decaying from
    # t=0 each time would leave v at 10 and never accept the third event
    params = uniform_params(div_factor=0, weight=10, theta=19)
    # v: 10 (reject), max(0, 10 - 5) + 10 = 15 (reject), 14 + 10 = 24
    assert run_steps([(100, 0, 1), (105, 0, 1), (106, 0, 1)],
                     params) == [False, False, True]


def test_div_factor_zero_decays_one_per_microsecond():
    params = uniform_params(div_factor=0, weight=10, theta=19)
    # second event: v = max(0, 10 - 5) + 10 = 15 < 19
    # third:        v = max(0, 15 - 1) + 10 = 24 >= 19 -> accept
    assert run_steps([(0, 0, 1), (5, 0, 1), (6, 0, 1)],
                     params) == [False, False, True]


def test_time_regression_raises():
    # a regressing stream fails when built, so it never reaches the filter
    with pytest.raises(OrderingError):
        filter_stream(EventStream(SensorConfig(64), np.array([10, 9]),
                                  np.array([3, 3]), np.array([1, 1])),
                      uniform_params())


def test_potential_overflow_raises():
    params = FiltrationParams(div_factor=32, weight=V_LIMIT,
                              thresholds=np.full(32, V_LIMIT + 1,
                                                 dtype=np.int64))
    assert run_steps([(0, 0, 1)], params) == [False]
    with pytest.raises(ValidationError, match="overflow"):
        run_steps([(0, 0, 1), (0, 0, 1)], params)


def test_overflow_names_the_first_in_stream_order_not_by_rank():
    # Channel 5 overflows at its rank 3 (stream index 5), channel 9 at its
    # rank 1 (index 6): by rank 9 comes first, in stream order 5 does.
    half = 2**31
    events = [(0, 5, 1), (half, 5, 1), (V_LIMIT, 9, 1), (V_LIMIT, 5, 1),
              (V_LIMIT, 2, 1), (V_LIMIT, 5, 1), (V_LIMIT, 9, 1)]
    params = FiltrationParams(div_factor=0, weight=half,
                              thresholds=np.full(32, 2**62, dtype=np.int64))
    stream = EventStream.from_events(SensorConfig(32), events)
    with pytest.raises(ValidationError) as info:
        filter_stream(stream, params)
    # 5: 2**31, decays to 0 then 2**31, decays to 1 then 2**31 + 1, then
    # 2**32 + 1 > V_LIMIT; 9 reaches 2**32 one event later in the stream
    assert str(info.value) == (
        f"channel 5: potential {2**32 + 1} overflows 32-bit storage")
    # and nothing before index 5 overflows
    assert len(filter_stream(EventStream.from_events(SensorConfig(32),
                                                     events[:5]), params)) == 0


def test_cli_weight_beyond_int64_is_the_first_events_overflow(capsys,
                                                              tmp_path):
    source = tmp_path / "s.csv"
    source.write_text("t,c,p\n3,1,1\n4,0,1\n")
    code = main(["--set", "filtration.weight=1180591620717411303424",
                 "filter", str(source), str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 4
    assert json.loads(err)["error"]["message"] == (
        "channel 1: potential 1180591620717411303424 overflows 32-bit storage")


# ---------------------------------------------------------------- schedules

def test_constant_schedule():
    sched = ThresholdSchedule(kind="constant", start=48, end=48)
    np.testing.assert_array_equal(make_thresholds(sched, 4), [48, 48, 48, 48])


def test_linear_schedule_endpoints_and_rounding():
    sched = ThresholdSchedule(kind="linear", start=48, end=16)
    np.testing.assert_array_equal(make_thresholds(sched, 3), [48, 32, 16])
    # 5 channels: step -8 exactly
    np.testing.assert_array_equal(make_thresholds(sched, 5),
                                  [48, 40, 32, 24, 16])


def test_exponential_schedule():
    sched = ThresholdSchedule(kind="exponential", start=64, end=32)
    np.testing.assert_array_equal(make_thresholds(sched, 3), [64, 45, 32])


def test_schedules_clamp_to_one():
    sched = ThresholdSchedule(kind="linear", start=2, end=1)
    vals = make_thresholds(sched, 8)
    assert vals.min() >= 1
    assert vals[0] == 2 and vals[-1] == 1


def test_schedule_rejects_increasing():
    with pytest.raises(ValidationError):
        ThresholdSchedule(kind="linear", start=16, end=48)
    with pytest.raises(ValidationError):
        ThresholdSchedule(kind="exponential", start=16, end=0)


def test_schedule_single_channel():
    sched = ThresholdSchedule(kind="exponential", start=64, end=32)
    np.testing.assert_array_equal(make_thresholds(sched, 1), [64])


@given(start=st.integers(1, 4096), end=st.integers(1, 4096),
       channels=st.sampled_from([1, 2, 3, 32, 64, 128]),
       kind=st.sampled_from(["linear", "exponential"]))
@settings(max_examples=200, deadline=None)
def test_schedule_properties(start, end, channels, kind):
    if end > start:
        start, end = end, start
    sched = ThresholdSchedule(kind=kind, start=start, end=end)
    vals = make_thresholds(sched, channels)
    assert vals[0] == start
    assert vals[-1] == (end if channels > 1 else start)
    assert (np.diff(vals) <= 0).all(), "must be non-increasing"
    assert vals.min() >= 1


# --------------------------------------------------------------- properties

def test_params_validation():
    with pytest.raises(ValidationError):
        FiltrationParams(div_factor=-1, weight=1,
                         thresholds=np.ones(4, dtype=np.int64))
    with pytest.raises(ValidationError):
        FiltrationParams(div_factor=33, weight=1,
                         thresholds=np.ones(4, dtype=np.int64))
    with pytest.raises(ValidationError):
        FiltrationParams(div_factor=0, weight=-1,
                         thresholds=np.ones(4, dtype=np.int64))
    with pytest.raises(ValidationError):
        FiltrationParams(div_factor=0, weight=1,
                         thresholds=np.zeros(4, dtype=np.int64))


def test_filter_stream_preserves_metadata_and_config(rng):
    stream = dataclasses.replace(make_stream(rng, n=300), sample_id="abc")
    out = filter_stream(stream, uniform_params())
    assert out.sample_id == "abc"
    assert out.config == stream.config
    # output is a subsequence of the input
    assert set(events_of(out)) <= set(events_of(stream))


def test_filter_stream_channel_count_mismatch(rng):
    stream = make_stream(rng, channels=32, n=10)
    with pytest.raises(ValidationError):
        filter_stream(stream, uniform_params(channels=64))


stream_events = st.lists(
    st.tuples(st.integers(0, 5000), st.integers(0, 31),
              st.sampled_from([-1, 1])),
    min_size=0, max_size=80,
).map(lambda evs: sorted(evs, key=lambda e: e[0]))


# Long streams over a few channels: channels end at different ranks.
ragged_events = st.integers(1, 32).flatmap(lambda used: st.lists(
    st.tuples(st.integers(0, 20_000), st.integers(0, used - 1),
              st.sampled_from([-1, 1])),
    min_size=0, max_size=400,
).map(lambda evs: sorted(evs, key=lambda e: e[0])))


@given(events=st.one_of(stream_events, ragged_events),
       div_factor=st.integers(0, 12), weight=st.integers(0, 200),
       thetas=st.lists(st.integers(1, 300), min_size=32, max_size=32))
@settings(max_examples=300, deadline=None)
def test_filter_matches_transcribed_rule(events, div_factor, weight, thetas):
    cfg = SensorConfig(channels=32)
    params = FiltrationParams(div_factor, weight,
                              np.array(thetas, dtype=np.int64))
    stream = EventStream.from_events(cfg, events)
    kept = filter_stream(stream, params)
    expected = transcribed_filter(events, div_factor, weight, thetas)
    got = events_of(kept)
    assert got == [events[i] for i in expected]


@given(events=stream_events, weight=st.integers(0, 100),
       theta_lo=st.integers(1, 200), bump=st.integers(0, 100))
@settings(max_examples=150, deadline=None)
def test_higher_threshold_never_accepts_more(events, weight, theta_lo, bump):
    cfg = SensorConfig(channels=32)
    stream = EventStream.from_events(cfg, events)
    lo = filter_stream(stream, uniform_params(32, 8, weight, theta_lo))
    hi = filter_stream(stream, uniform_params(32, 8, weight, theta_lo + bump))
    assert len(hi) <= len(lo)


@given(events=stream_events)
@settings(max_examples=100, deadline=None)
def test_channels_filter_independently(events):
    cfg = SensorConfig(channels=32)
    params = uniform_params(32, 6, 24, 48)
    stream = EventStream.from_events(cfg, events)
    whole = set(events_of(filter_stream(stream, params)))
    per_channel = set()
    for ch in sorted({e[1] for e in events}):
        sub = [e for e in events if e[1] == ch]
        kept = filter_stream(EventStream.from_events(cfg, sub), params)
        per_channel.update(events_of(kept))
    assert whole == per_channel

