"""Analytic cycle model and discrete-event simulation of the pipeline.

The processing stage spends ``cycle_base + cycle_per_vertex * (1 + E)``
clock cycles on an event with E edges (the +1 is the self vertex). The two
coefficients calibrate from a measured (no-edge latency, full-neighborhood
latency) pair; sustained throughput is therefore bounded between
``clock / cycles(E_max)`` and ``clock / cycles(0)``.

The simulation replays a timestamped stream with per-event edge counts
through sensor delay, a FIFO, and the single processing stage:

* an event becomes visible ``nas_latency_us`` after its sensor timestamp;
* the stage serves events in arrival order, work-conserving; an arrival
  finding ``fifo_depth`` events already waiting overflows and is dropped
  (recorded, not fatal);
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

from bisect import bisect_right, insort
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .events import DEFAULT_WINDOW_US, EventStream

DEFAULT_MAX_EDGES = 20


@dataclass(frozen=True)
class HwParams:
    """Clock, cycle model, queueing and latency constants of the pipeline."""

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
        if self.clock_hz <= 0:
            raise ValidationError("clock_hz must be positive")
        if self.cycle_base <= 0 or self.cycle_per_vertex <= 0:
            raise ValidationError("cycle counts must be positive")
        if self.fifo_depth < 1:
            raise ValidationError("fifo_depth must be at least 1")
        if self.nas_latency_us < 0 or self.head_latency_us < 0:
            raise ValidationError("latencies must be non-negative")
        if self.window_us < 1:
            raise ValidationError("window width must be positive")
        if self.flush_timeout_us < 0:
            raise ValidationError("flush timeout must be non-negative")

    def cycles(self, edges: int) -> int:
        if edges < 0:
            raise ValidationError("edge count must be non-negative")
        return self.cycle_base + self.cycle_per_vertex * (1 + edges)

    def latency_us(self, edges: int) -> float:
        # Divide by MHz so the common defaults come out exact in binary.
        return self.cycles(edges) / (self.clock_hz / 1e6)


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


def throughput_envelope(params: HwParams,
                        max_edges: int = DEFAULT_MAX_EDGES) -> tuple[float, float]:
    """(best, worst) sustained events/second for edge counts 0 and max."""
    best = params.clock_hz / params.cycles(0)
    worst = params.clock_hz / params.cycles(max_edges)
    return best, worst


@dataclass(eq=False)
class SimTrace:
    """Everything the simulation observed, in stream order.

    Dropped events carry NaN admit/done times. ``queue_depth_samples`` holds
    (time, waiting count) pairs taken at each arrival after it joins the
    FIFO; ``window_predictions`` holds (window index, emission time) pairs.
    """

    arrival_us: np.ndarray
    admit_us: np.ndarray
    done_us: np.ndarray
    edges: np.ndarray
    dropped: np.ndarray
    queue_depth_samples: list[tuple[float, int]]
    window_predictions: list[tuple[int, float]]
    window_to_prediction_us: list[float]
    overflow_events: list[tuple[float, int]]
    overflow_count: int
    stall_count: int
    params: HwParams

    @property
    def max_queue_depth(self) -> int:
        if not self.queue_depth_samples:
            return 0
        return max(d for _, d in self.queue_depth_samples)

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
        rows = []
        for i in range(len(self.arrival_us)):
            if self.dropped[i]:
                rows.append((i, float(self.arrival_us[i]), None, None,
                             int(self.edges[i])))
            else:
                rows.append((i, float(self.arrival_us[i]),
                             float(self.admit_us[i]), float(self.done_us[i]),
                             int(self.edges[i])))
        return rows


def simulate(stream: EventStream, edges, params: HwParams) -> SimTrace:
    """Replay a stream with known edge counts through the pipeline model."""
    stream.validate()
    edges = np.asarray(edges, dtype=np.int64)
    if edges.shape != stream.t.shape:
        raise ValidationError(
            f"edge counts {edges.shape} do not pair with events "
            f"{stream.t.shape}")
    if edges.size and int(edges.min()) < 0:
        raise ValidationError("edge counts must be non-negative")

    n = len(stream)
    mhz = params.clock_hz / 1e6
    arrival = stream.t.astype(np.float64) + params.nas_latency_us
    admit = np.full(n, np.nan)
    done = np.full(n, np.nan)
    dropped = np.zeros(n, dtype=bool)
    depth_samples: list[tuple[float, int]] = []
    overflow_events: list[tuple[float, int]] = []
    pending_admits: list[float] = []  # admit times of events still waiting
    server_free = 0.0
    stalls = 0

    t_list = stream.t.tolist()
    for i in range(n):
        a = arrival[i]
        # Events admitted by time a have left the FIFO.
        cut = bisect_right(pending_admits, a)
        if cut:
            del pending_admits[:cut]
        waiting = len(pending_admits)
        if waiting >= params.fifo_depth:
            dropped[i] = True
            overflow_events.append((float(a), 1))
            depth_samples.append((float(a), waiting))
            continue
        start = a if a > server_free else server_free
        admit[i] = start
        done[i] = start + params.cycles(int(edges[i])) / mhz
        server_free = done[i]
        if start > a:
            stalls += 1
            insort(pending_admits, start)
            depth_samples.append((float(a), waiting + 1))
        else:
            depth_samples.append((float(a), waiting))

    # Window bookkeeping over surviving events.
    window_predictions: list[tuple[int, float]] = []
    w2p: list[float] = []
    kept = np.flatnonzero(~dropped)
    if kept.size:
        wins = [t_list[i] // params.window_us for i in kept]
        last_win = wins[-1]
        # done(last event of window k), and arrival of first event past k.
        last_done: dict[int, float] = {}
        for idx, w in zip(kept, wins):
            last_done[w] = float(done[idx])
        first_arrival_after: dict[int, float] = {}
        cursor = 0
        for k in range(last_win + 1):
            while cursor < kept.size and wins[cursor] <= k:
                cursor += 1
            if cursor < kept.size:
                first_arrival_after[k] = float(arrival[kept[cursor]])
        for k in range(last_win + 1):
            window_end = (k + 1) * params.window_us + params.nas_latency_us
            processed = last_done.get(k, 0.0)
            if k in first_arrival_after:
                closure = max(first_arrival_after[k], processed)
            else:
                closure = max(window_end + params.flush_timeout_us, processed)
            emission = closure + params.head_latency_us
            window_predictions.append((k, emission))
            w2p.append(emission - window_end)

    return SimTrace(
        arrival_us=arrival, admit_us=admit, done_us=done, edges=edges,
        dropped=dropped, queue_depth_samples=depth_samples,
        window_predictions=window_predictions,
        window_to_prediction_us=w2p,
        overflow_events=overflow_events,
        overflow_count=len(overflow_events), stall_count=stalls,
        params=params)


def latency_report(trace: SimTrace, params: HwParams | None = None) -> dict:
    """Summarize prediction latency against the configured envelope.

    ``end_to_end`` re-adds the sensor latency. ``bound_exceeded_windows``
    counts windows whose observed window-to-prediction latency left the
    [head latency, configured bound] envelope.
    """
    params = params or trace.params
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
    report["window_to_prediction_us"] = {
        "min": float(values.min()),
        "mean": float(values.mean()),
        "max": float(values.max()),
    }
    report["end_to_end"]["observed_min_us"] = (
        params.nas_latency_us + float(values.min()))
    report["end_to_end"]["observed_max_us"] = (
        params.nas_latency_us + float(values.max()))
    report["bound_exceeded_windows"] = int(
        ((values < params.head_latency_us - 1e-9)
         | (values > params.window_latency_bound_us + 1e-9)).sum())
    return report
