"""Incremental spectro-temporal neighborhoods over an event stream.

Events become graph nodes as they arrive. A new event's neighbors are drawn
from the most recent prior event on each other channel ``c + k*skip_step``
with ``0 < |k*skip_step| <= r_c``, kept only when its age ``dt = t_new -
t_prior`` lies in ``[r_t_low, r_t_high]``. Only one record survives per
channel: inserting an event overwrites its channel's record, so an earlier
event on the same channel is never returned as a neighbor again. The new
event itself participates in downstream aggregation as the self vertex, so
the degree of any neighbor set is at most ``2 * floor(r_c / skip_step)``.

``dt`` is always non-negative; zero-age edges across channels exist only when
``r_t_low`` is 0.

Events go in as time-sorted batches of timestamp and channel columns, each
answered with one ``(K, n)`` table, one row per channel offset and one
column per event, whose entries point into one history row per channel (the
state before the batch) followed by the batch's own rows. The builder makes
the table in that layout and every reader uses it so. Batch size never
changes the answer; whole streams go through in batches of ``CHUNK`` events,
which bounds memory.

A batch of ``n`` events is answered from a ``(channels, n + 1)`` grid of the
row each channel last held before each event. Every cell run of that grid
holds one row, so the grid is filled by one ``np.repeat`` over the runs in
start order, a segmented broadcast with no scan (Blelloch, "Prefix Sums and
Their Applications", CMU-CS-90-190); each offset's row of the table then
costs two gathers. Only each channel's last cell outlives the batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .errors import OrderingError, ValidationError
from .events import EventStream, int_column
from .quant import I8_MAX, quantize_dt

# Events per batch when a whole stream is processed. Larger batches spread
# each stage call's fixed cost over more events, and with the engine carrying
# stage products a batch multiplies only its own rows. On the 128-channel
# benchmark workload (bench/run.py wide_raw, 2-vCPU x86_64) 256 ran about 11%
# faster per event than 128 when it was chosen; since the engine's stages
# write into preallocated node buffers, 512 and 1024 gave no consistent gain
# and raised peak resident memory by 1.3-3.8 MB.
CHUNK = 256


@dataclass(frozen=True)
class GraphParams:
    """Channel radius, channel stride, and inclusive age window."""

    r_c: int
    skip_step: int = 1
    r_t_low: int = 0
    r_t_high: int = 5000

    def __post_init__(self):
        if self.r_c < 0:
            raise ValidationError("r_c must be non-negative")
        if self.skip_step < 1:
            raise ValidationError("skip_step must be at least 1")
        if not 0 <= self.r_t_low <= self.r_t_high:
            raise ValidationError(
                f"need 0 <= r_t_low <= r_t_high, got "
                f"[{self.r_t_low}, {self.r_t_high}]")

    @property
    def max_degree(self) -> int:
        return 2 * (self.r_c // self.skip_step)


@dataclass(frozen=True)
class NeighborTable:
    """Neighbors of a batch of ``n`` events, one column per event.

    ``row[k, i]`` indexes the rows of one history event per channel followed
    by the batch events, ``channel[r]`` being row ``r``'s channel. ``dc[k]``
    is row ``k``'s channel offset (the row's channel minus the event's),
    ``dt[k, i]`` the age of that vertex and ``valid[k, i]`` whether it is a
    neighbor at all. Channels and the offsets of valid entries lie within
    [-127, 127], and their ages quantize to at least 0. The length is the
    number of edges. ``GraphBuilder.insert`` builds ``row``, ``dt`` and
    ``valid`` as C-contiguous ``(K, n)`` arrays, so the ``n`` entries of
    each offset are one contiguous row, which ``gather`` and the stage-1
    features read as they are.
    """

    row: np.ndarray      # int64, (K, n)
    dc: np.ndarray       # int64, (K,)
    dt: np.ndarray       # int64, (K, n)
    valid: np.ndarray    # bool, (K, n)
    channel: np.ndarray  # int64, (history + n,)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.valid))

    def pairs(self, i: int, center_channel: int) -> list[tuple[int, int]]:
        """(channel, dt) of each neighbor of event ``i``, ascending channel."""
        return [(center_channel + dc, dt) for dc, dt, ok in zip(
            self.dc.tolist(), self.dt[:, i].tolist(),
            self.valid[:, i].tolist()) if ok]

    @cached_property
    def gather(self) -> tuple[np.ndarray, np.ndarray]:
        """``(K, n)`` rows and quantized ages, one gather per column, where
        a missing neighbor repeats the event's own row at age 0. Checked
        once per table: indices in range, valid entries as documented."""
        row, valid, channel = self.row, self.valid, self.channel
        n, total = row.shape[1], len(channel)
        own = np.arange(total - n, total)
        age = quantize_dt(self.dt) * valid
        if (total < n or ((row < 0) | (row >= total)).any()
                or (np.abs(channel) > I8_MAX).any()
                or (valid & ((channel[row] != channel[own] + self.dc[:, None])
                             | (np.abs(self.dc[:, None]) > I8_MAX)
                             | (age < 0))).any()):
            raise ValidationError(
                f"neighbor table of {n} events over {total} rows breaks "
                "its row, channel, dc or age range")
        return np.where(valid, row, own), age.astype(np.intp)


class GraphBuilder:
    """One-record-per-channel incremental neighborhood builder.

    After ``insert``, ``latest[ch]`` is the row of channel ``ch``'s latest
    event among that batch's history and batch rows, in an array of its own
    (the batch's grid is not kept).
    """

    def __init__(self, channels: int, params: GraphParams):
        if channels < 1:
            raise ValidationError("channel count must be positive")
        self.channels = channels
        self.params = params
        reach = params.r_c // params.skip_step
        self.dc = np.array([k * params.skip_step
                            for k in range(-reach, reach + 1) if k],
                           dtype=np.int64)
        # (K, channels): offset k's target channel for an event on each
        # channel, 0 where the target lies off the sensor, and that mask
        target = np.arange(channels) + self.dc[:, None]
        self._inside = (target >= 0) & (target < channels)
        self._target = np.where(self._inside, target, 0)
        for table in (self._inside, self._target):
            table.flags.writeable = False
        self._t = np.zeros(channels, dtype=np.int64)
        self._seen = np.zeros(channels, dtype=bool)
        self._last_t = 0
        self.latest = np.arange(channels)

    def check(self, t, c) -> tuple[np.ndarray, np.ndarray]:
        """A batch's timestamp and channel columns as int64, once they pass
        ``insert``'s checks: integer columns (``events.int_column``), one
        dimension and one length, channels on the sensor (all
        ValidationError), timestamps non-decreasing from the last inserted
        one (OrderingError). Records nothing."""
        t = int_column(t, "timestamps").astype(np.int64, copy=False)
        c = int_column(c, "channels").astype(np.int64, copy=False)
        if t.ndim != 1 or c.shape != t.shape:
            raise ValidationError(
                f"timestamps {t.shape} and channels {c.shape} are not two "
                "columns of one length")
        channels = self.channels
        if len(t) and (c.min() < 0 or c.max() >= channels):
            bad = int(c[(c < 0) | (c >= channels)][0])
            raise ValidationError(f"channel {bad} outside [0, {channels})")
        if len(t) and (t[0] < self._last_t or (t[1:] < t[:-1]).any()):
            raise OrderingError(
                f"timestamps regress within the batch or before the last "
                f"inserted {self._last_t}")
        return t, c

    def insert(self, t: np.ndarray, c: np.ndarray) -> NeighborTable:
        """Query neighbors for a time-sorted batch, then record it."""
        t, c = self.check(t, c)
        n, channels = len(t), self.channels
        # grid[ch * span + j]: row of the latest event on ch before batch
        # event j (j = n: after the batch). Channel ch's cells hold its
        # history row ch from ch * span, and batch event i's row
        # channels + i from c[i] * span + i + 1, each until the next run
        # starts. The starts are distinct; sorted, their indices are the
        # runs' rows and their gaps the run lengths (np.diff with append
        # would concatenate first).
        span = n + 1
        starts = np.concatenate([np.arange(0, channels * span, span),
                                 c * span + np.arange(1, span)])
        rows = np.argsort(starts, kind="stable")
        first = starts.take(rows)
        lengths = np.empty_like(first)
        lengths[:-1] = first[1:]
        lengths[-1] = channels * span
        lengths -= first
        grid = np.repeat(rows, lengths)
        # (K, n): one row per neighbor column, indexing the grid flat; an
        # off-sensor target reads channel 0 and is masked out
        target = self._target.take(c, axis=1)
        target *= span
        target += np.arange(n)
        row = grid.take(target)
        times = np.concatenate([self._t, t])
        dt = t - times.take(row)
        seen = np.concatenate([self._seen, np.ones(n, dtype=bool)])
        params = self.params
        valid = (self._inside.take(c, axis=1) & seen.take(row)
                 & (dt >= params.r_t_low) & (dt <= params.r_t_high))
        self.latest = grid[n::span].copy()
        self._t = times[self.latest]
        self._seen = seen[self.latest]
        if n:
            self._last_t = int(t[-1])
        return NeighborTable(row, self.dc, dt, valid,
                             np.concatenate([np.arange(channels), c]))

    def insert_event(self, t: int, c: int) -> NeighborTable:
        """``insert`` of the one-event batch ``([t], [c])``. Nothing in the
        package calls it; bench/worker.py still wraps it by name."""
        return self.insert([t], [c])


def _tables(stream: EventStream, params: GraphParams):
    """Replay a stream through a fresh builder, one table per chunk."""
    builder = GraphBuilder(stream.config.channels, params)
    for i in range(0, len(stream), CHUNK):
        yield i, builder.insert(stream.t[i:i + CHUNK], stream.c[i:i + CHUNK])


def edges_per_event(stream: EventStream, params: GraphParams) -> np.ndarray:
    """Edge count of every event's neighbor set, in stream order."""
    counts = [table.valid.sum(axis=0)
              for _, table in _tables(stream, params)]
    return np.concatenate([np.zeros(0, dtype=np.int64), *counts])


def dump_neighbors(stream: EventStream, params: GraphParams, fh: IO[str]) -> None:
    """Write one JSON line per event: {t, c, neighbors: [{c, dt}, ...]}."""
    for start, table in _tables(stream, params):
        for i in range(table.row.shape[1]):
            t, c = int(stream.t[start + i]), int(stream.c[start + i])
            fh.write(json.dumps({
                "t": t,
                "c": c,
                "neighbors": [{"c": ch, "dt": dt}
                              for ch, dt in table.pairs(i, c)],
            }, sort_keys=True) + "\n")
