"""Analytic cycle model and discrete-event simulation of the pipeline.

The processing stage spends ``cycle_base + cycle_per_vertex * (1 + E)``
clock cycles on an event with E edges (the +1 is the self vertex). The two
coefficients calibrate from a measured (no-edge latency, full-neighborhood
latency) pair; sustained throughput is therefore bounded between
``clock / cycles(E_max)`` and ``clock / cycles(0)``.

The simulation replays a timestamped stream with per-event edge counts
through sensor delay, a FIFO, and the single processing stage:

* an event becomes visible ``nas_latency_us`` after its sensor timestamp;
* the stage serves events in arrival order, work-conserving; an event that
  arrives while the stage is busy waits in the FIFO until it is admitted,
  and an arrival finding ``fifo_depth`` events already waiting overflows
  and is dropped (recorded, not fatal). The trace's ``max_queue_depth`` is
  the most events waiting at once;
* an arrival that finds the stage free starts on arrival and leaves the
  FIFO empty, so the stage's state after it depends on that event alone
  (Lindley's recursion). Only an event arriving before its predecessor
  would be done, had that one started on arrival, can begin a busy run.
  A run is one event long when the next arrival comes once that event is
  done: it stalls once, as its predecessor is done, and cannot drop, since
  it finds the FIFO empty. These runs, most of them at the default clock,
  are resolved as arrays. The simulation replays every other busy run
  event by event, from its first event to the first arrival that finds the
  stage free, and leaves every other event at admit = arrival. Replayed or
  not, every admit and done time is the same floating-point sum, so
  skipping is exact. A drop changes no server time, so a run is replayed
  past its drops, and events that look like run starts inside a replayed
  run (their predecessor stalled or dropped) keep the replayed times;
* a window closes once its last event has finished processing and a
  later-window event has arrived (timestamp propagation); the final window
  closes by an end-of-sample flush at window end plus ``flush_timeout_us``.
  The head adds ``head_latency_us`` to every closure and overlaps the next
  window's processing, so it never blocks the stage.

Window-to-prediction latency is measured from the window's end on the
sensor-delayed axis, so the sensor delay is excluded; end-to-end latency is
``nas_latency_us`` plus window-to-prediction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .events import DEFAULT_WINDOW_US, EventStream, int_column

DEFAULT_MAX_EDGES = 20


@dataclass(frozen=True)
class HwParams:
    """Clock, cycle model, queueing and latency constants of the pipeline,
    each finite and in range, checked when built."""

    clock_hz: float = 200e6
    cycle_base: int = 58
    cycle_per_vertex: int = 36
    fifo_depth: int = 1024
    nas_latency_us: float = 23.0
    head_latency_us: float = 2.11
    window_us: int = DEFAULT_WINDOW_US
    flush_timeout_us: float = 0.0
    window_latency_bound_us: float = 18.62

    def __post_init__(self):
        # NaN passes every range check below, and a report would print NaN
        # or Infinity, which is not JSON
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if self.clock_hz <= 0:
            raise ValidationError("clock_hz must be positive")
        if self.cycle_base <= 0 or self.cycle_per_vertex <= 0:
            raise ValidationError("cycle counts must be positive")
        if self.fifo_depth < 1:
            raise ValidationError("fifo_depth must be at least 1")
        if min(self.nas_latency_us, self.head_latency_us,
               self.window_latency_bound_us) < 0:
            raise ValidationError("latencies must be non-negative")
        if not 1 <= self.window_us < 2**63:
            raise ValidationError("window width must lie in [1, 2**63)")
        if self.flush_timeout_us < 0:
            raise ValidationError("flush timeout must be non-negative")

    def cycles(self, edges: int | np.ndarray) -> int | np.ndarray:
        """Cycles to process an event with ``edges`` neighbors: the one cycle
        rule, for an int (giving an int) or an array of edge counts."""
        if (np.asarray(edges) < 0).any():
            raise ValidationError("edge count must be non-negative")
        return self.cycle_base + self.cycle_per_vertex * (1 + edges)

    def latency_us(self, edges: int | np.ndarray) -> float | np.ndarray:
        """Service time for an edge count or an array of them. Float64, so
        no count wraps (cycle counts below 2**53 are exact); dividing by MHz
        makes the common defaults come out exact in binary."""
        return (self.cycles(np.asarray(edges, dtype=np.float64))
                / (self.clock_hz / 1e6))


@dataclass(frozen=True)
class CycleCalibration:
    """Cycle coefficients fit to two measured latencies, plus the fit error."""

    cycle_base: int
    cycle_per_vertex: int
    residual_cycles: float


def calibrate_cycle_model(min_latency_us: float = 0.47,
                          max_latency_us: float = 4.07,
                          max_edges: int = DEFAULT_MAX_EDGES,
                          clock_hz: float = 200e6) -> CycleCalibration:
    """Solve cycles(0) and cycles(max_edges) for the two coefficients.

    Non-integral solutions round to the nearest cycle; the leftover is
    reported as ``residual_cycles`` rather than raised, since measured
    latencies carry rounding of their own.
    """
    if max_edges < 1:
        raise ValidationError("max_edges must be at least 1")
    if not 0 < min_latency_us < max_latency_us:
        raise ValidationError("need 0 < min_latency_us < max_latency_us")
    mhz = clock_hz / 1e6
    cycles_min = min_latency_us * mhz
    cycles_max = max_latency_us * mhz
    per_vertex = (cycles_max - cycles_min) / max_edges
    base = cycles_min - per_vertex
    base_i = round(base)
    per_vertex_i = round(per_vertex)
    if base_i < 1 or per_vertex_i < 1:
        raise ValidationError(
            f"calibration degenerates: base {base:.3f}, per-vertex "
            f"{per_vertex:.3f} cycles")
    residual = max(abs(base - base_i), abs(per_vertex - per_vertex_i))
    return CycleCalibration(base_i, per_vertex_i, residual)


def throughput_envelope(params: HwParams) -> tuple[float, float]:
    """(best, worst) sustained events/second for edge counts 0 and
    ``DEFAULT_MAX_EDGES``."""
    best = params.clock_hz / params.cycles(0)
    worst = params.clock_hz / params.cycles(DEFAULT_MAX_EDGES)
    return best, worst


@dataclass(eq=False)
class SimTrace:
    """Everything the simulation observed, in stream order.

    Dropped events carry NaN admit/done times. ``max_queue_depth`` is the
    most events ever waiting in the FIFO at once, counted just after an
    arrival joins it (an event served on arrival never waits; 0 when no
    event ever stalls). ``window_predictions`` holds (window index, emission
    time) pairs.
    """

    arrival_us: np.ndarray
    admit_us: np.ndarray
    done_us: np.ndarray
    edges: np.ndarray
    dropped: np.ndarray
    window_predictions: list[tuple[int, float]]
    window_to_prediction_us: list[float]
    stall_count: int
    max_queue_depth: int
    params: HwParams

    @property
    def overflow_count(self) -> int:
        return int(self.dropped.sum())

    def processed_rate_eps(self) -> float:
        """Long-run processed events per second over the busy interval."""
        done = self.done_us[~self.dropped]
        if done.size < 2:
            return 0.0
        admit = self.admit_us[~self.dropped]
        span = float(done[-1] - admit[0])
        if span <= 0:
            return 0.0
        return done.size / span * 1e6

    def to_rows(self) -> list[tuple]:
        return [(i, a, None if lost else s, None if lost else d, e)
                for i, (a, s, d, e, lost) in enumerate(zip(
                    self.arrival_us.tolist(), self.admit_us.tolist(),
                    self.done_us.tolist(), self.edges.tolist(),
                    self.dropped.tolist()))]


def simulate(stream: EventStream, edges, params: HwParams) -> SimTrace:
    """Replay a stream with known edge counts through the pipeline model."""
    edges = int_column(edges, "edge counts").astype(np.int64, copy=False)
    if edges.shape != stream.t.shape:
        raise ValidationError(
            f"edge counts {edges.shape} do not pair with events "
            f"{stream.t.shape}")
    service = params.latency_us(edges)
    arrival = stream.t.astype(np.float64) + params.nas_latency_us
    admit_us = arrival.copy()  # NaN for a dropped event
    idle_done = arrival + service
    # Only an event arriving before idle_done of its predecessor can begin a
    # busy run (module docstring). The run is one event long when the next
    # arrival comes once that event is done, and those runs are resolved as
    # arrays below; the loop replays every other run. The one server takes
    # events in arrival order, so admit times never decrease: the FIFO is a
    # queue of the stalled events' admit times.
    begins = np.flatnonzero(arrival[1:] < idle_done[:-1]) + 1
    solo_done = idle_done[begins - 1] + service[begins]  # the loop's sum
    next_arrival = arrival[np.minimum(begins + 1, len(arrival) - 1)]
    one = (begins == len(arrival) - 1) | (next_arrival >= solo_done)
    waiting: deque[float] = deque()
    depth, max_depth = params.fifo_depth, 0
    arrival_of, cost_of = arrival.item, service.item
    stalled, starts, lost = [], [], []
    end = 0  # events up to `end` are replayed or start on arrival
    for first in begins[~one].tolist():
        if first <= end:
            continue  # inside a run already replayed, or its last event
        server_free = idle_done.item(first - 1)
        for i in range(first, len(arrival)):
            a = arrival_of(i)
            while waiting and waiting[0] <= a:  # admitted by a: left the FIFO
                waiting.popleft()
            if len(waiting) >= depth:
                lost.append(i)
                continue
            if a >= server_free:
                break  # the stage is free: i starts on arrival, FIFO empty
            stalled.append(i)
            starts.append(server_free)
            waiting.append(server_free)
            server_free += cost_of(i)
            if len(waiting) > max_depth:
                max_depth = len(waiting)
        else:
            break  # the run lasts to the end of the stream
        end = i
    admit_us[stalled] = starts
    admit_us[lost] = np.nan
    # A one-event run stalls once, never drops (it finds the FIFO empty) and
    # starts as its predecessor is done, unless that predecessor stalled or
    # dropped: then it lies inside a replayed run and keeps the loop's times
    solo = begins[one]
    solo = solo[admit_us[solo - 1] == arrival[solo - 1]]
    admit_us[solo] = idle_done[solo - 1]
    if solo.size:
        max_depth = max(max_depth, 1)
    done_us = admit_us + service  # the same sums the loop made
    dropped = np.isnan(admit_us)

    # A window closes once its last event is done and a later-window event
    # has arrived, or by the end-of-sample flush when none ever does.
    window_predictions, w2p = [], []
    kept = ~dropped
    if kept.any():
        wins = stream.t[kept] // params.window_us
        k = np.arange(wins[-1] + 1)
        window_end = (k + 1) * params.window_us + params.nas_latency_us
        after = np.searchsorted(wins, k, "right")
        first_later = arrival[kept][np.minimum(after, len(wins) - 1)]
        closure = np.where(after < len(wins), first_later,
                           window_end + params.flush_timeout_us)
        processed = np.where(wins[after - 1] == k,
                             done_us[kept][after - 1], 0.0)
        emission = np.maximum(closure, processed) + params.head_latency_us
        window_predictions = list(zip(k.tolist(), emission.tolist()))
        w2p = (emission - window_end).tolist()

    return SimTrace(
        arrival_us=arrival, admit_us=admit_us, done_us=done_us, edges=edges,
        dropped=dropped, window_predictions=window_predictions,
        window_to_prediction_us=w2p, stall_count=len(stalled) + solo.size,
        max_queue_depth=max_depth, params=params)


def latency_report(trace: SimTrace) -> dict:
    """Summarize prediction latency against the trace's configured envelope.

    ``end_to_end`` re-adds the sensor latency. ``bound_exceeded_windows``
    counts windows whose observed window-to-prediction latency left the
    [head latency, configured bound] envelope.
    """
    params = trace.params
    best = params.nas_latency_us + params.head_latency_us
    worst = params.nas_latency_us + params.window_latency_bound_us
    report = {
        "windows": len(trace.window_predictions),
        "end_to_end": {"best_us": best, "worst_bound_us": worst},
        "overflows": trace.overflow_count,
        "stalls": trace.stall_count,
        "max_queue_depth": trace.max_queue_depth,
    }
    if not trace.window_to_prediction_us:
        report["note"] = "no windows observed; latency distribution empty"
        return report
    values = np.array(trace.window_to_prediction_us)
    low, high = float(values.min()), float(values.max())
    report["window_to_prediction_us"] = {
        "min": low, "mean": float(values.mean()), "max": high}
    report["end_to_end"]["observed_min_us"] = params.nas_latency_us + low
    report["end_to_end"]["observed_max_us"] = params.nas_latency_us + high
    report["bound_exceeded_windows"] = int(
        ((values < params.head_latency_us - 1e-9)
         | (values > params.window_latency_bound_us + 1e-9)).sum())
    return report
