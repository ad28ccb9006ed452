from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evkws import (
    EventStream,
    FiltrationParams,
    GraphParams,
    HwParams,
    SensorConfig,
    ThresholdSchedule,
    ValidationError,
    calibrate_cycle_model,
    edges_per_event,
    filter_stream,
    latency_report,
    simulate,
    synth_stream,
    throughput_envelope,
)

from conftest import make_stream
from oracles import ref_simulate


def stream_of(times, channels=64):
    cfg = SensorConfig(channels=channels)
    return EventStream.from_events(cfg, [(t, 0, 1) for t in times])


# ------------------------------------------------------------- cycle model

def test_calibration_recovers_integer_coefficients():
    cal = calibrate_cycle_model()
    assert (cal.cycle_base, cal.cycle_per_vertex) == (58, 36)
    assert cal.residual_cycles == pytest.approx(0.0, abs=1e-9)


def test_calibration_rejects_degenerate_inputs():
    with pytest.raises(ValidationError):
        calibrate_cycle_model(min_latency_us=4.0, max_latency_us=1.0)
    with pytest.raises(ValidationError):
        calibrate_cycle_model(max_edges=0)


def test_latency_fixtures_are_exact():
    params = HwParams()
    assert params.cycles(0) == 94
    assert params.cycles(20) == 814
    assert params.latency_us(0) == 0.47
    assert params.latency_us(20) == 4.07


def test_throughput_envelope_fixture():
    best, worst = throughput_envelope(HwParams())
    assert round(best / 1e6, 3) == 2.128
    assert round(worst / 1e3, 1) == 245.7
    assert worst < best


def test_params_validation():
    with pytest.raises(ValidationError):
        HwParams(clock_hz=0)
    with pytest.raises(ValidationError):
        HwParams(fifo_depth=0)
    with pytest.raises(ValidationError):
        HwParams(nas_latency_us=-1)
    with pytest.raises(ValidationError):
        HwParams(window_latency_bound_us=-1)
    with pytest.raises(ValidationError):
        HwParams().cycles(-1)
    # NaN passes every range check, and infinity prints as non-JSON
    for name in ("clock_hz", "nas_latency_us", "head_latency_us",
                 "flush_timeout_us", "window_latency_bound_us",
                 "fifo_depth", "window_us"):
        for value in (math.nan, math.inf, -math.inf, np.float64("nan")):
            with pytest.raises(ValidationError, match=name):
                HwParams(**{name: value})
    HwParams(window_latency_bound_us=0.0, flush_timeout_us=0.0)


# --------------------------------------------------------------- queueing

def test_single_event_passes_straight_through():
    trace = simulate(stream_of([100]), [0], HwParams())
    assert trace.arrival_us[0] == 123.0
    assert trace.admit_us[0] == 123.0
    assert trace.done_us[0] == pytest.approx(123.47)
    assert trace.stall_count == 0
    assert trace.overflow_count == 0


def test_busy_server_queues_second_event():
    trace = simulate(stream_of([0, 1]), [20, 20], HwParams())
    assert trace.admit_us[0] == 23.0
    assert trace.done_us[0] == pytest.approx(27.07)
    # second event arrives at 24 but waits for the stage
    assert trace.admit_us[1] == pytest.approx(27.07)
    assert trace.done_us[1] == pytest.approx(31.14)
    assert trace.stall_count == 1
    assert trace.max_queue_depth == 1


def test_fifo_overflow_drops_and_records():
    params = HwParams(fifo_depth=1)
    trace = simulate(stream_of([0, 0, 0]), [20, 20, 20], params)
    assert trace.dropped.tolist() == [False, False, True]
    assert trace.overflow_count == 1
    assert np.isnan(trace.done_us[2])
    rows = trace.to_rows()
    assert rows[2][2] is None and rows[2][3] is None


def test_edge_counts_must_pair_with_events():
    with pytest.raises(ValidationError):
        simulate(stream_of([0, 1]), [1], HwParams())
    with pytest.raises(ValidationError):
        simulate(stream_of([0]), [-1], HwParams())


def test_huge_edge_counts_do_not_wrap():
    params = HwParams()
    for edges in (2**58, 2**62):
        trace = simulate(stream_of([0]), [edges], params)
        assert trace.done_us[0] - trace.admit_us[0] == pytest.approx(
            params.latency_us(edges), rel=1e-12)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120),
       spread=st.sampled_from([5, 50, 500, 5000]))
@settings(max_examples=60, deadline=None)
def test_queue_discipline_invariants(seed, n, spread):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, spread * n, size=n))
    cfg = SensorConfig(channels=64)
    stream = EventStream(cfg, t.astype(np.int64),
                         np.zeros(n, dtype=np.int32),
                         np.ones(n, dtype=np.int8))
    edges = rng.integers(0, 21, size=n)
    params = HwParams(fifo_depth=8)
    trace = simulate(stream, edges, params)
    kept = np.flatnonzero(~trace.dropped)
    mhz = params.clock_hz / 1e6
    prev_done = 0.0
    for i in kept:
        # no time travel, correct service time, single server
        assert trace.admit_us[i] >= trace.arrival_us[i]
        assert trace.admit_us[i] >= prev_done
        expect = params.cycles(int(edges[i])) / mhz
        assert trace.done_us[i] == pytest.approx(
            trace.admit_us[i] + expect)
        prev_done = trace.done_us[i]
    assert trace.max_queue_depth <= params.fifo_depth
    assert trace.overflow_count == int(trace.dropped.sum())


GAPS_US = [0, 0, 1, 2, 3, 40, 260, 2_500]


@given(events=st.lists(st.tuples(st.sampled_from(GAPS_US),
                                  st.integers(0, 2) | st.integers(0, 20)),
                        max_size=80),
       depth=st.integers(1, 8), window_us=st.sampled_from([100, 1000]),
       flush=st.sampled_from([0.0, 3.5, 150.0]),
       clock=st.sampled_from([(200e6, 58, 36), (1e6, 1, 1)]))
@settings(max_examples=200, deadline=None)
def test_simulate_matches_reference(events, depth, window_us, flush, clock):
    # zero gaps give equal timestamps and overflow the short FIFO; the
    # 2_500 us gaps leave empty windows between events; whole-microsecond
    # service times (the 1 MHz clock) make admissions coincide with arrivals
    times = np.cumsum([gap for gap, _ in events], dtype=np.int64)
    edges = [e for _, e in events]
    clock_hz, cycle_base, cycle_per_vertex = clock
    params = HwParams(clock_hz=clock_hz, cycle_base=cycle_base,
                      cycle_per_vertex=cycle_per_vertex, fifo_depth=depth,
                      window_us=window_us, flush_timeout_us=flush)
    assert_equals_reference(stream_of(times.tolist()), edges, params)


def assert_equals_reference(stream, edges, params):
    """``simulate`` equals ``ref_simulate`` bit for bit; returns the trace."""
    trace = simulate(stream, edges, params)
    expect = ref_simulate(stream.t.tolist(), list(edges), params)
    nan = float("nan")
    for name in ("admit_us", "done_us"):
        np.testing.assert_array_equal(
            getattr(trace, name),
            [nan if v is None else v for v in getattr(expect, name)])
    assert trace.dropped.tolist() == expect.dropped
    for name in ("stall_count", "overflow_count", "max_queue_depth",
                 "window_predictions", "window_to_prediction_us"):
        assert getattr(trace, name) == getattr(expect, name), name
    return trace


def test_arrival_as_the_stage_frees_does_not_stall():
    # 1 MHz and one cycle each: 2 us a vertex-less event. Event 1 waits
    # until 25 and is done at 27, the instant event 2 arrives
    params = HwParams(clock_hz=1e6, cycle_base=1, cycle_per_vertex=1)
    trace = simulate(stream_of([0, 0, 4]), [0, 0, 0], params)
    assert trace.admit_us.tolist() == [23.0, 25.0, 27.0]
    assert trace.done_us.tolist() == [25.0, 27.0, 29.0]
    assert trace.stall_count == 1 and trace.max_queue_depth == 1


def test_arrival_after_a_drop_finds_the_stage_free():
    # event 2 overflows the one-slot FIFO; event 3 arrives after event 1 is
    # done, so it starts on arrival, though it arrives before event 2 would
    # have been done had event 2 started on arrival (23 + 4.07 us)
    trace = assert_equals_reference(stream_of([0, 0, 0, 1]), [0, 0, 20, 0],
                                    HwParams(fifo_depth=1))
    assert trace.dropped.tolist() == [False, False, True, False]
    assert trace.done_us[1] == pytest.approx(23.94)
    assert trace.arrival_us[3] == 24.0 < trace.arrival_us[2] + 4.07
    assert trace.admit_us[3] == 24.0
    assert trace.stall_count == 1


# One cycle each at 1 MHz: an event with E edges is served in 2 + E us, so
# the fixtures below are exact in whole microseconds (arrival = t + 23).
ONE_MHZ = dict(clock_hz=1e6, cycle_base=1, cycle_per_vertex=1)


def test_every_busy_run_is_one_event_long():
    # each pair: a 4 us event, then one arriving 1 us later that waits 3 us
    # and is done 2 us before the next pair begins
    times = [t for k in range(50) for t in (10 * k, 10 * k + 1)]
    trace = assert_equals_reference(stream_of(times), [2, 0] * 50,
                                    HwParams(**ONE_MHZ))
    assert trace.admit_us[1::2].tolist() == [
        10 * k + 27.0 for k in range(50)]
    assert trace.stall_count == 50 and trace.max_queue_depth == 1


def test_the_last_event_is_a_one_event_run():
    trace = assert_equals_reference(stream_of([0, 10, 11]), [0, 2, 0],
                                    HwParams(**ONE_MHZ, fifo_depth=1))
    assert trace.admit_us.tolist() == [23.0, 33.0, 37.0]
    assert trace.done_us[-1] == 39.0
    assert trace.stall_count == 1 and trace.max_queue_depth == 1


@pytest.mark.parametrize("times,edges,depth,admit", [
    # event 3 arrives before event 2 would be done (31 < 9 + 23), event 2
    # arrives after event 1 would be, and event 4 comes long after: event 3
    # passes the one-event test, but event 2 stalled behind event 1, so
    # event 3 waits for event 2 (admitted at 12 + 23) until 41
    ([0, 1, 3, 8, 30], [8, 0, 4, 0, 0], 1024, [23, 33, 35, 41, 53]),
    # event 2 overflows the one-slot FIFO; event 3 finds the stage free and
    # ends the run, though it passes the test against event 2 (27 + 23)
    ([0, 1, 5, 12, 40], [8, 0, 20, 0, 0], 1, [23, 33, None, 35, 63]),
])
def test_one_event_test_inside_a_replayed_run_keeps_the_replay(
        times, edges, depth, admit):
    trace = assert_equals_reference(stream_of(times), edges,
                                    HwParams(**ONE_MHZ, fifo_depth=depth))
    assert [None if lost else a for a, lost in zip(
        trace.admit_us.tolist(), trace.dropped.tolist())] == admit


def test_one_event_run_right_after_a_replayed_run_ends():
    # events 1 and 2 stall behind event 0; event 3 arrives as event 2 is
    # done (37) and ends that run; event 4 then waits for event 3 alone
    trace = assert_equals_reference(stream_of([0, 1, 2, 14, 15, 40]),
                                    [8, 0, 0, 4, 0, 0], HwParams(**ONE_MHZ))
    assert trace.admit_us.tolist() == [23, 33, 35, 37, 43, 63]
    assert trace.stall_count == 3 and trace.max_queue_depth == 2


# gaps near the service time leave many one-event runs beside longer ones:
# at 1 MHz an event takes 2 to 5 us, at 200 MHz 0.47 to 4.07 us
NEAR_SERVICE = st.one_of(
    st.tuples(st.just(ONE_MHZ), st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 3)), max_size=120)),
    st.tuples(st.just({}), st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 20)), max_size=120)))


@given(case=NEAR_SERVICE, depth=st.sampled_from([1, 2, 3, 1024]))
@settings(max_examples=200, deadline=None)
def test_simulate_matches_reference_with_gaps_near_the_service_time(case,
                                                                    depth):
    clock, events = case
    times = np.cumsum([gap for gap, _ in events], dtype=np.int64)
    assert_equals_reference(stream_of(times.tolist()),
                            [e for _, e in events],
                            HwParams(**clock, fifo_depth=depth))


def _hw_timing_stream():
    """About 2,000 kept events of a filtered 64-channel 625 ev/s/ch stream
    and their edge counts: the hw_timing shape of the benchmark."""
    cfg = SensorConfig(channels=64)
    raw = synth_stream(21, cfg, 100_000, 625.0)
    kept = filter_stream(raw, FiltrationParams.from_schedule(
        ThresholdSchedule("exponential", 64, 32), 8, 32, 64))
    return kept, edges_per_event(kept, GraphParams(10, 1, 0, 5000))


# the 200 MHz model leaves short busy runs; a stage 20 times slower runs
# near saturation, with busy runs over 1,000 events and, at depth 2, drops
@pytest.mark.parametrize("clock_hz", [200e6, 10e6])
@pytest.mark.parametrize("depth", [1024, 2])
def test_hw_timing_stream_matches_reference(clock_hz, depth):
    kept, edges = _hw_timing_stream()
    assert 1_500 < len(kept) < 2_500
    trace = assert_equals_reference(
        kept, edges.tolist(), HwParams(clock_hz=clock_hz, fifo_depth=depth))
    assert trace.stall_count > 50
    if clock_hz < 200e6:
        assert trace.max_queue_depth > 1 and (
            depth > 2 or trace.overflow_count > 100)


def test_saturated_rate_matches_cycle_model():
    # all arrivals at once: the stage output rate is exactly 1/service
    n = 400
    cfg = SensorConfig(channels=64)
    stream = EventStream(cfg, np.zeros(n, dtype=np.int64),
                         np.zeros(n, dtype=np.int32),
                         np.ones(n, dtype=np.int8))
    params = HwParams(fifo_depth=n + 1)
    for e in (0, 20):
        trace = simulate(stream, np.full(n, e), params)
        assert trace.dropped.sum() == 0
        expect = params.clock_hz / params.cycles(e)
        assert trace.processed_rate_eps() == pytest.approx(expect, rel=1e-9)


# ---------------------------------------------------------------- windows

def test_window_closes_on_next_window_arrival():
    # event just before the boundary, next event right after: the first
    # window's prediction emits head_latency after the boundary arrival
    trace = simulate(stream_of([9_999, 10_000]), [0, 0], HwParams())
    assert trace.window_predictions[0] == (0, pytest.approx(10_025.11))
    assert trace.window_to_prediction_us[0] == pytest.approx(2.11)
    # final window flushes at its own end
    assert trace.window_predictions[1] == (1, pytest.approx(20_025.11))


def test_window_closure_waits_for_processing():
    # the last event of window 0 has a huge backlog in front of it
    # (2600 * 4.07 us > 10 ms), so the closure tracks processing
    # completion, not the boundary arrival
    n = 2600
    times = [0] * n + [10_000]
    edges = [20] * n + [0]
    params = HwParams(fifo_depth=4096)
    trace = simulate(stream_of(times), edges, params)
    done_last_w0 = trace.done_us[n - 1]
    assert done_last_w0 > 10_023
    assert trace.window_predictions[0][1] == pytest.approx(
        done_last_w0 + 2.11)


def test_gap_windows_close_via_later_arrival():
    trace = simulate(stream_of([5, 25_000]), [0, 0], HwParams())
    wins = [w for w, _ in trace.window_predictions]
    assert wins == [0, 1, 2]
    # window 1 held nothing; its closure is the arrival at 25_023
    assert trace.window_predictions[1][1] == pytest.approx(25_025.11)


def test_flush_timeout_delays_final_window():
    base = simulate(stream_of([100]), [0], HwParams())
    slow = simulate(stream_of([100]), [0], HwParams(flush_timeout_us=7.0))
    assert slow.window_predictions[0][1] == pytest.approx(
        base.window_predictions[0][1] + 7.0)


def test_empty_stream_trace():
    cfg = SensorConfig(channels=64)
    trace = simulate(EventStream.empty(cfg), [], HwParams())
    assert trace.window_predictions == []
    report = latency_report(trace)
    assert report["windows"] == 0
    assert "note" in report


# ----------------------------------------------------------------- report

def test_latency_report_end_to_end_fixture():
    trace = simulate(stream_of([9_999, 10_000]), [0, 0], HwParams())
    report = latency_report(trace)
    assert report["end_to_end"]["best_us"] == pytest.approx(25.11)
    assert round(report["end_to_end"]["best_us"]) == 25
    assert report["end_to_end"]["worst_bound_us"] == pytest.approx(41.62)
    assert report["end_to_end"]["worst_bound_us"] <= 42
    assert report["end_to_end"]["observed_min_us"] == pytest.approx(25.11)
    assert report["bound_exceeded_windows"] == 0
    assert report["overflows"] == 0


def test_latency_report_flags_bound_violations():
    # backlog pushes window 0 well past the published bound
    n = 2600
    times = [0] * n + [10_000]
    edges = [20] * n + [0]
    trace = simulate(stream_of(times), edges, HwParams(fifo_depth=4096))
    report = latency_report(trace)
    assert report["bound_exceeded_windows"] >= 1
    assert report["end_to_end"]["observed_max_us"] > 42
