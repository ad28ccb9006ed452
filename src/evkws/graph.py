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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterator, NamedTuple

import numpy as np

from .errors import OrderingError, ValidationError
from .events import Event, EventStream


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


@dataclass
class NodeRecord:
    """Latest event on a channel."""

    event: Event


class Neighbor(NamedTuple):
    record: NodeRecord
    dc: int  # neighbor channel minus center channel
    dt: int  # center timestamp minus neighbor timestamp, >= 0


@dataclass
class NeighborSet:
    """Neighbors of one inserted event, in ascending channel order."""

    center: Event
    neighbors: list[Neighbor] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.neighbors)


class GraphBuilder:
    """One-record-per-channel incremental neighborhood builder."""

    def __init__(self, channels: int, params: GraphParams):
        if channels < 1:
            raise ValidationError("channel count must be positive")
        self.channels = channels
        self.params = params
        self._records: list[NodeRecord | None] = [None] * channels
        self._last_t = 0

    def reset(self) -> None:
        self._records = [None] * self.channels
        self._last_t = 0

    def insert_event(self, event: Event) -> NeighborSet:
        """Query neighbors for the event, then record it on its channel."""
        if not 0 <= event.c < self.channels:
            raise ValidationError(
                f"channel {event.c} outside [0, {self.channels})")
        if event.t < self._last_t:
            raise OrderingError(
                f"timestamp {event.t} precedes last inserted {self._last_t}")
        self._last_t = event.t
        params = self.params
        reach = params.r_c // params.skip_step
        neighbors: list[Neighbor] = []
        for k in range(-reach, reach + 1):
            if k == 0:
                continue  # the center slot belongs to the self vertex
            channel = event.c + k * params.skip_step
            if not 0 <= channel < self.channels:
                continue
            record = self._records[channel]
            if record is None:
                continue
            dt = event.t - record.event.t
            if params.r_t_low <= dt <= params.r_t_high:
                neighbors.append(Neighbor(record, channel - event.c, dt))
        self._records[event.c] = NodeRecord(event)
        return NeighborSet(event, neighbors)


def iter_neighbor_sets(stream: EventStream,
                       params: GraphParams) -> Iterator[NeighborSet]:
    """Replay a stream through a fresh builder, yielding each neighbor set."""
    stream.validate()
    builder = GraphBuilder(stream.config.channels, params)
    for event in stream:
        yield builder.insert_event(event)


def edges_per_event(stream: EventStream, params: GraphParams) -> np.ndarray:
    """Edge count of every event's neighbor set, in stream order."""
    return np.array([len(ns) for ns in iter_neighbor_sets(stream, params)],
                    dtype=np.int64)


def dump_neighbors(stream: EventStream, params: GraphParams, fh: IO[str]) -> None:
    """Write one JSON line per event: {t, c, neighbors: [{c, dt}, ...]}."""
    for ns in iter_neighbor_sets(stream, params):
        fh.write(json.dumps({
            "t": ns.center.t,
            "c": ns.center.c,
            "neighbors": [
                {"c": ns.center.c + n.dc, "dt": n.dt} for n in ns.neighbors
            ],
        }, sort_keys=True) + "\n")
