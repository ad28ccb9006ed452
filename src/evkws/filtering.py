"""Decayed-potential event filtration.

Each channel keeps a potential ``v`` and the timestamp of its previous event.
An incoming event first decays the potential by ``floor(dt / 2**div_factor)``
(clamped at zero), then adds the fixed event weight. If the result reaches
the channel's threshold the event passes and the potential resets to zero;
otherwise the event is dropped. Polarity plays no part in the decision and is
copied through unchanged.

Thresholds per channel come from a schedule: constant, linear or exponential
interpolation from ``start`` (channel 0) down to ``end`` (last channel),
rounded half up and clamped to at least 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .events import EventStream

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
        if self.start < 1 or end < 1:
            raise ValidationError("thresholds must be at least 1")
        if self.kind != "constant" and self.start < end:
            raise ValidationError(
                f"schedules run downward: start {self.start} < end {end}")


def make_thresholds(schedule: ThresholdSchedule, channels: int) -> np.ndarray:
    """Materialize a schedule into per-channel integer thresholds.

    Linear interpolation is done in exact integer arithmetic; the exponential
    curve uses floats with round half up. A single channel degenerates to
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
            math.floor(start * ratio ** (c / (channels - 1)) + 0.5)
            for c in range(channels)
        ]
    return np.maximum(np.array(values, dtype=np.int64), 1)


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
        thresholds = np.asarray(self.thresholds, dtype=np.int64)
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
    only on events sharing its channel. Raises OrderingError if timestamps
    regress and ValidationError if a potential would exceed the 32-bit
    ceiling.
    """
    stream.validate()
    if params.channels != stream.config.channels:
        raise ValidationError(
            f"params cover {params.channels} channels, stream has "
            f"{stream.config.channels}")
    div = params.div_factor
    weight = params.weight
    thresholds = params.thresholds.tolist()
    t_last = [0] * params.channels
    v = [0] * params.channels
    keep = np.zeros(len(stream), dtype=bool)
    for i, (t, c) in enumerate(zip(stream.t.tolist(), stream.c.tolist())):
        value = t_last[c]
        t_last[c] = t
        value = max(0, v[c] - ((t - value) >> div)) + weight
        if value > V_LIMIT:
            raise ValidationError(
                f"channel {c}: potential {value} overflows 32-bit storage")
        if value >= thresholds[c]:
            v[c] = 0
            keep[i] = True
        else:
            v[c] = value
    out = EventStream(stream.config, stream.t[keep], stream.c[keep],
                      stream.p[keep], sample_id=stream.sample_id,
                      label=stream.label,
                      end_of_word_bin=stream.end_of_word_bin)
    return out
