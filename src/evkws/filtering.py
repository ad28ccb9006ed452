"""Decayed-potential event filtration.

Each channel keeps a potential ``v`` and the timestamp of its previous event.
An incoming event first decays the potential by ``floor(dt / 2**div_factor)``
(clamped at zero), then adds the fixed event weight. If the result reaches
the channel's threshold the event passes and the potential resets to zero;
otherwise the event is dropped. Polarity plays no part in the decision and is
copied through unchanged.

Thresholds per channel come from a schedule: constant, linear or exponential
interpolation from ``start`` (channel 0) down to ``end`` (last channel),
rounded half up. Both ends lie in [1, 2**63) and a curve only runs downward,
so no threshold falls below 1.

``filter_stream`` evaluates the rule rank by rank instead of event by event.
An event's update reads and writes only its own channel's state, so the
rule is a separate sequential recurrence per channel, and the k-th event of
every channel (its rank k) can be updated in one vector step once ranks
0..k-1 are done: the per-channel order of updates, and so every value, is
that of the per-event loop. Channels are laid out as the columns of a
``(max rank, channels)`` grid ordered by falling event count, so the
channels still active at rank k are a prefix of the columns and the grid is
stored without its empty cells. One stable sort of the events' columns
groups them, on the narrowest unsigned key (uint8 on every sensor), which
numpy radix-sorts in one pass per byte; their columns and ranks are then
runs, built by ``np.repeat`` over the channel counts. The decay of each
event depends only on timestamps and is computed for all events before the
steps. A step costs the same whatever the number of active channels, so the
run time follows the busiest channel's event count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .events import EventStream, int_column

SCHEDULE_KINDS = ("constant", "linear", "exponential")

# Potentials must stay representable in an unsigned 32-bit register.
V_LIMIT = 2**32 - 1


@dataclass(frozen=True)
class ThresholdSchedule:
    """Threshold interpolation rule over the channel axis."""

    kind: str
    start: int
    end: int | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValidationError(
                f"unknown schedule kind {self.kind!r}; expected one of "
                f"{SCHEDULE_KINDS}")
        end = self.start if self.end is None else self.end
        if not (1 <= self.start < 2**63 and 1 <= end < 2**63):
            raise ValidationError("thresholds must lie in [1, 2**63)")
        if self.kind != "constant" and self.start < end:
            raise ValidationError(
                f"schedules run downward: start {self.start} < end {end}")


def make_thresholds(schedule: ThresholdSchedule, channels: int) -> np.ndarray:
    """Materialize a schedule into per-channel integer thresholds.

    Linear interpolation is done in exact integer arithmetic; the exponential
    curve uses floats with round half up, capped at ``start`` (a float start
    near 2**63 rounds up past it). A single channel degenerates to
    ``start`` for every kind.
    """
    if channels < 1:
        raise ValidationError("channel count must be positive")
    start = schedule.start
    end = start if schedule.end is None else schedule.end
    if channels == 1 or schedule.kind == "constant" or start == end:
        values = [start] * channels
    elif schedule.kind == "linear":
        den = channels - 1
        values = [
            (2 * (start * den + (end - start) * c) + den) // (2 * den)
            for c in range(channels)
        ]
    else:
        ratio = end / start
        values = [
            min(start, math.floor(start * ratio ** (c / (channels - 1)) + 0.5))
            for c in range(channels)
        ]
    return np.array(values, dtype=np.int64)


@dataclass(frozen=True)
class FiltrationParams:
    """Decay divisor exponent, per-event weight, per-channel thresholds."""

    div_factor: int
    weight: int
    thresholds: np.ndarray

    def __post_init__(self):
        if not (0 <= self.div_factor <= 32):
            raise ValidationError("div_factor must lie in [0, 32]")
        if self.weight < 0:
            raise ValidationError("event weight must be non-negative")
        thresholds = int_column(self.thresholds, "thresholds").astype(
            np.int64, copy=False)
        if thresholds.ndim != 1 or thresholds.size == 0:
            raise ValidationError("thresholds must be a non-empty 1-d array")
        if (thresholds < 1).any():
            raise ValidationError("every threshold must be at least 1")
        object.__setattr__(self, "thresholds", thresholds)

    @classmethod
    def from_schedule(cls, schedule: ThresholdSchedule, div_factor: int,
                      weight: int, channels: int) -> "FiltrationParams":
        return cls(div_factor, weight, make_thresholds(schedule, channels))

    @property
    def channels(self) -> int:
        return int(self.thresholds.size)


def filter_stream(stream: EventStream,
                  params: FiltrationParams) -> EventStream:
    """Filter a whole stream, preserving order and all event fields.

    The output is always a subsequence of the input; an event's fate depends
    only on events sharing its channel. Raises ValidationError if the params
    cover another channel count or a potential would exceed the 32-bit
    ceiling.
    """
    if params.channels != stream.config.channels:
        raise ValidationError(
            f"params cover {params.channels} channels, stream has "
            f"{stream.config.channels}")
    keep = np.flatnonzero(_keep_mask(stream.t, stream.c, params))
    return EventStream(stream.config, stream.t.take(keep), stream.c.take(keep),
                       stream.p.take(keep), sample_id=stream.sample_id)


def _keep_mask(t: np.ndarray, c: np.ndarray,
               params: FiltrationParams) -> np.ndarray:
    """Which events of a validated stream pass, by rank (see module doc)."""
    if len(t) == 0:
        return np.zeros(0, dtype=bool)
    weight = params.weight
    if weight > V_LIMIT:
        # the stream's first event finds its channel at rest: value = weight
        raise ValidationError(
            f"channel {int(c[0])}: potential {weight} overflows 32-bit storage")
    counts = np.bincount(c, minlength=params.channels)
    channel_of_column = np.argsort(-counts, kind="stable")
    column = np.empty_like(counts, np.min_scalar_type(params.channels - 1))
    column[channel_of_column] = np.arange(params.channels)
    # Events channel by channel in column order, stream order within each.
    by_column = np.argsort(column.take(c), kind="stable")
    sizes = counts.take(channel_of_column)
    firsts = np.cumsum(sizes) - sizes
    index = np.int32 if len(t) < 2**31 else np.intp
    col = np.repeat(np.arange(params.channels, dtype=index), sizes)
    rank = np.arange(len(t), dtype=index)
    rank -= np.repeat(firsts.astype(index), sizes)
    width = np.bincount(rank)  # active columns per rank, non-increasing
    cell = np.concatenate(([0], np.cumsum(width)), dtype=index).take(rank)
    cell += col
    # The grid stored rank by rank: each cell starts as weight - decay and
    # ends as its event's potential.
    ts = t.take(by_column).astype(np.int64, copy=False)
    decay = ts.copy()
    decay[1:] -= ts[:-1]
    starts = firsts[:width[0]]
    decay[starts] = ts[starts]  # every channel's clock starts at 0
    decay >>= params.div_factor
    value = np.empty(len(t), dtype=np.int64)
    value.put(cell, np.subtract(weight, decay, out=decay))
    del col, rank, ts, decay  # free n-sized temporaries before the steps
    v = np.zeros(width[0], dtype=np.int64)
    below = np.empty(width[0], dtype=bool)
    thresholds = params.thresholds[channel_of_column[:width[0]]]
    # Ranks of one width form a 2-d block, stepped row by row.
    widths, repeats = np.unique(width, return_counts=True)
    start = 0
    for m, rows in zip(widths[::-1].tolist(), repeats[::-1].tolist()):
        block = value[start:start + m * rows].reshape(rows, m)
        start += m * rows
        vm, tm, bm = v[:m], thresholds[:m], below[:m]
        for x in block:
            x += vm
            np.maximum(x, weight, out=x)  # max(0, v - decay) + weight
            np.less(x, tm, out=bm)
            np.multiply(x, bm, out=vm)  # reset to 0 on a pass
    potential = np.empty(len(t), dtype=np.int64)
    potential.put(by_column, value.take(cell))
    # A channel's first overflow is exact, and the stream's first one is
    # first in its channel; later values of that channel are never read.
    over = np.flatnonzero(potential > V_LIMIT)
    if over.size:
        i = int(over[0])
        raise ValidationError(
            f"channel {int(c[i])}: potential {int(potential[i])} overflows "
            "32-bit storage")
    return potential >= params.thresholds.take(c)
