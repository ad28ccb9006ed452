"""Incremental spectro-temporal neighborhoods over an event stream.

Events become graph nodes as they arrive. A new event's neighbors are drawn
from the most recent prior event on each other channel ``c + k*skip_step``
with ``0 < |k*skip_step| <= r_c``, kept only when its age ``dt = t_new -
t_prior`` lies in ``[r_t_low, r_t_high]``; that window is the whole rule.
Only one record survives per channel, so an earlier event on the same
channel is never a neighbor again. The new event itself joins downstream
aggregation as the self vertex, so a neighbor set has at most ``2 *
floor(r_c / skip_step)`` members. Zero-age edges across channels exist only
when ``r_t_low`` is 0.

Events go in as time-sorted batches of timestamp and channel columns, each
answered with one ``(K, n)`` table, one row per channel offset and one
column per event, whose entries point into one history row per channel (the
state before the batch) followed by the batch's own rows. An offset of
``channels`` or more never lands on the sensor, so it gets no row: reach
past ``channels - 1`` costs nothing. Batch size never changes the answer;
whole streams go through in batches of ``CHUNK`` events, which bounds
memory.

A batch of ``n`` events is answered from a ``(channels + 1, n + 1)`` int32
grid of the row each channel last held before each event. Every cell run of
that grid holds one row, so one ``np.repeat`` over the runs in start order
fills it, a segmented broadcast with no scan (Blelloch, "Prefix Sums and
Their Applications", CMU-CS-90-190). A stable sort of the rows' channels
alone puts the runs in start order (a channel's history row, then its batch
rows in order), on the narrowest unsigned key (uint8 to 254 channels) that
numpy radix-sorts in one pass per byte. Each offset's row of the table then
costs two gathers. Offsets off the sensor read the extra channel, a sentinel
row after the batch rows. That row and every channel with no event yet carry
the time ``NEVER``, after every timestamp ``insert`` accepts (below 2**32),
so their age is negative; the sentinel row is then clamped to the last row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .errors import ValidationError
from .events import EventStream, check_events
from .quant import I8_MAX, quantize_dt

# Events per batch for whole streams: each chunk pays about 150 numpy calls
# whatever its length. On bench/run.py (2-vCPU x86_64, seed 17) 768 ran 14%
# faster per event than 256 on stream_infer and wide_raw and 7% on hw_timing,
# at +0.8 MB peak RSS at most; 1024 read 8% slower than 768 on wide_raw.
CHUNK = 768
NEVER = 2**63 - 1  # time of the sentinel row and of unseen channels


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
        """The degree bound, assuming a sensor wider than ``r_c``."""
        return 2 * (self.r_c // self.skip_step)


@dataclass(frozen=True)
class NeighborTable:
    """Neighbors of a batch of ``n`` events, one column per event.

    ``row[k, i]`` indexes the rows of one history event per channel followed
    by the batch events, ``channel[r]`` being row ``r``'s channel. ``dc[k]``
    is row ``k``'s channel offset (the row's channel minus the event's),
    ``dt[k, i]`` the age of that vertex and ``valid[k, i]`` whether it is a
    neighbor at all; ``dt`` means nothing where ``valid`` is False. Channels
    and the offsets of valid entries lie within [-127, 127], and their ages
    quantize to at least 0. The length is the number of edges.
    ``GraphBuilder.insert`` builds ``row``, ``dt`` and ``valid``
    C-contiguous, one row of ``n`` entries per offset, as ``gather`` and
    the stage-1 features read them.
    """

    row: np.ndarray      # int32 (intp from 2**31 rows), (K, n)
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
        # channels compare in int16 once they lie in int8; a dc past 127,
        # which int16 may wrap, is refused first where any slot is valid
        ch, dc = channel.astype(np.int16), self.dc[:, None].astype(np.int16)
        if (total < n or row.min(initial=0) < 0 or row.max(initial=-1) >= total
                or channel.min(initial=0) < -I8_MAX
                or channel.max(initial=0) > I8_MAX
                or valid[(self.dc < -I8_MAX) | (self.dc > I8_MAX)].any()
                or age.min(initial=0) < 0
                or (valid & (ch.take(row) != ch[own] + dc)).any()):
            raise ValidationError(
                f"neighbor table of {n} events over {total} rows breaks "
                "its row, channel, dc or age range")
        return np.where(valid, row, own), age.astype(np.intp)


class GraphBuilder:
    """One-record-per-channel incremental neighborhood builder.

    After ``insert``, ``latest[ch]`` is the row of channel ``ch``'s latest
    event among that batch's history and batch rows, in an int32 array of
    its own (the batch's grid is not kept), and ``last_t`` is the last
    inserted timestamp (0 before the first). A channel's time is ``NEVER``
    until its first event.
    """

    def __init__(self, channels: int, params: GraphParams):
        if channels < 1:
            raise ValidationError("channel count must be positive")
        self.channels = channels
        self.params = params
        # offsets past channels - 1 never land on the sensor: no row for them
        reach = min(params.r_c, channels - 1) // params.skip_step
        self.dc = np.array([k * params.skip_step
                            for k in range(-reach, reach + 1) if k],
                           dtype=np.int64)
        # (K, channels): offset k's target channel for an event on each
        # channel, or the sentinel channel where it lies off the sensor
        target = np.arange(channels) + self.dc[:, None]
        self._target = np.where((target >= 0) & (target < channels), target,
                                channels)
        self._target.flags.writeable = False
        self._t = np.full(channels, NEVER, dtype=np.int64)
        self.last_t = 0
        self.latest = np.arange(channels, dtype=np.int32)

    def insert(self, t: np.ndarray, c: np.ndarray) -> NeighborTable:
        """Query neighbors for a time-sorted batch, then record it.

        The timestamp and channel columns pass the event rule
        (``events.check_events``) on this sensor's channels, from
        ``last_t`` on, before anything is recorded."""
        t, c, _ = check_events(t, c, channels=self.channels,
                               after=self.last_t)
        t, c = t.astype(np.int64, copy=False), c.astype(np.int64, copy=False)
        n, channels = len(t), self.channels
        # grid[ch * span + j]: row of the latest event on ch before batch
        # event j (j = n: after the batch). Channel ch's cells hold its
        # history row ch from ch * span, batch event i's row channels + i
        # from c[i] * span + i + 1, each until the next run starts, and the
        # sentinel channel's the sentinel row channels + n. A stable sort of
        # the rows' channels puts the runs in start order, a last key closing
        # the grid at its end; the starts' gaps are the run lengths.
        span = n + 1
        keys = np.concatenate([np.arange(channels), c,
                               [channels, channels + 1]])
        rows = np.argsort(keys.astype(np.min_scalar_type(channels + 1)),
                          kind="stable")
        offset = np.concatenate([np.zeros(channels, np.int64),
                                 np.arange(1, span), [0, 0]])
        first = keys.take(rows) * span + offset.take(rows)
        # rows run to channels + n: int32 holds them, halving the grid
        index = np.int32 if channels + n < 2**31 else np.intp
        grid = np.repeat(rows[:-1].astype(index), first[1:] - first[:-1])
        # (K, n): one row per neighbor column, indexing the grid flat
        target = self._target.take(c, axis=1)
        target *= span
        target += np.arange(n)
        row = grid.take(target)
        times = np.concatenate([self._t, t, [NEVER]])
        dt = t - times.take(row)
        valid = (dt >= self.params.r_t_low) & (dt <= self.params.r_t_high)
        np.minimum(row, channels + n - 1, out=row)  # every slot indexes a row
        self.latest = grid[n:channels * span:span].copy()
        self._t = times[self.latest]
        if n:
            self.last_t = int(t[-1])
        return NeighborTable(row, self.dc, dt, valid,
                             np.concatenate([np.arange(channels), c]))

    def insert_event(self, t: int, c: int) -> NeighborTable:
        """``insert([t], [c])``, kept only as bench/worker.py wraps it."""
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
