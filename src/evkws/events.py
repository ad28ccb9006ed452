"""Event streams from a neuromorphic auditory sensor, their codecs and stats.

The sensor decomposes audio into frequency channels and emits an asynchronous
address-event stream: each event is a (timestamp, channel, polarity) triple
with microsecond timestamps, channel indices below the configured channel
count, and polarity +1 or -1. Streams are kept time-sorted; equal timestamps
are allowed, including on the same channel. ``check_events`` is that rule,
written once: ``EventStream`` checks a whole stream with it, and
``GraphBuilder.insert`` and ``RunState.feed`` check each batch from the last
timestamp they took, ``WindowPool.push`` from the open window's start.

Two file formats are supported:

* binary: 8-byte header (magic ``NASE``, format version byte, channel count
  as little-endian u16, topology byte 0=cascade 1=parallel) followed by
  packed 8-byte records ``<u32 t, u16 c, s8 p, 1 pad byte>``, little endian.
* csv: an optional first line ``t,c,p`` (spaces ignored), then one
  ``t,c,p`` integer triple per line, under the CSV line rule of
  ``errors.csv_rows``: lines stripped, blank ones skipped. Each field is
  stripped and read through ``decimal_int``, an optional ``-`` and ASCII
  digits (``_scan_csv`` is the definition).
  Files decode on a faster path with identical results where deleting the
  digits and ``-`` after the header leaves one ``,,`` and newline per line
  (no empty last field) and every ``-`` is the sign of a nonzero value.

A zero-byte file decodes as an empty stream in either format (the caller
must then supply the sensor config, since there is no header to read it
from).

Statistics follow fixed conventions so that numbers are comparable across
runs: per-second rates use each sample's event span (last minus first
timestamp); samples with fewer than 2 events or spans under 1 ms are
excluded from rate aggregation; per-window counts use windows of fixed width
aligned at t=0, counting windows 0 through the window holding the sample's
last event.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from typing import BinaryIO, Sequence

import numpy as np

from .errors import (ConfigError, OrderingError, ParseError, ValidationError,
                     csv_fields, csv_rows, decimal_int)

US_PER_S = 1_000_000
DEFAULT_WINDOW_US = 10_000
T_LIMIT = 2**32  # timestamps must fit an unsigned 32-bit word

SUPPORTED_CHANNEL_COUNTS = (32, 64, 128)
TOPOLOGIES = ("cascade", "parallel")

MAGIC = b"NASE"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBHB")
_RECORD_DTYPE = np.dtype([("t", "<u4"), ("c", "<u2"), ("p", "i1"), ("pad", "u1")])

FORMAT_BINARY = "binary"
FORMAT_CSV = "csv"
_CSV_HEADER = "t,c,p"
_INT64 = np.iinfo(np.int64)


def int_column(values, name: str) -> np.ndarray:
    """``values`` as an integer array, or ValidationError naming ``name``.

    Integer arrays pass as they are, with no pass over their values except
    that uint64 ones are checked against the int64 range; sequences of
    Python ints pass as numpy makes them, an empty one as int64. Float,
    bool, complex, object and other columns are refused, never truncated.
    """
    try:
        column = np.asarray(values)
    except (TypeError, ValueError, OverflowError):  # ragged, for one
        column = np.asarray(None)                   # refused as object
    if not column.size and not isinstance(values, np.ndarray):
        column = column.astype(np.int64)  # an empty sequence has no dtype
    if column.dtype.kind not in "iu" or (
            column.dtype == np.uint64 and column.size
            and column.max() > np.uint64(_INT64.max)):
        raise ValidationError(f"{name} must be integers within the int64 "
                              f"range, got {column.dtype} values")
    return column


def check_events(t, c=None, p=None, channels: int = 0, after: int = 0
                 ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The event rule: the timestamp, channel and polarity columns as
    ``int_column`` makes them (None where not given), once they pass, in
    this order: integer columns; one dimension and one length; timestamps
    in [0, 2**32); none before ``after`` or before the record ahead of it
    (OrderingError); channels in [0, ``channels``); polarity +1 or -1.
    Every other failure is a ValidationError. From the order on, each error
    names the first bad record."""
    t = int_column(t, "timestamps")
    c = c if c is None else int_column(c, "channels")
    p = p if p is None else int_column(p, "polarities")
    if t.ndim != 1 or (c is not None and c.shape != t.shape) or (
            p is not None and p.shape != t.shape):
        shapes = ", ".join(f"{name} {v.shape}" for name, v in
                           zip(("timestamps", "channels", "polarities"),
                               (t, c, p)) if v is not None)
        raise ValidationError(f"{shapes} are not 1-D columns of one length")
    if not len(t):
        return t, c, p
    # neighbours compared, not differenced: a difference of unsigned
    # timestamps wraps instead of going negative; sorted, the ends of a
    # column are its extremes
    drops = t[1:] < t[:-1]
    unsorted = drops.any()
    low, high = (t.min(), t.max()) if unsorted else (t[0], t[-1])
    if int(low) < 0 or int(high) >= T_LIMIT:
        raise ValidationError("timestamps must fit in unsigned 32 bits")
    if t[0] < after or unsorted:
        i = 0 if t[0] < after else int(np.argmax(drops)) + 1
        before = int(t[i - 1]) if i else after
        raise OrderingError(
            f"timestamps regress at record {i}: {int(t[i])} < {before}")
    if c is not None and (int(c.min()) < 0 or int(c.max()) >= channels):
        bad = int(np.flatnonzero((c < 0) | (c >= channels))[0])
        raise ValidationError(
            f"record {bad}: channel {int(c[bad])} outside [0, {channels})")
    if p is not None:
        # two comparisons, not np.isin, which sorts its input
        polar = (p == 1) | (p == -1)
        if not polar.all():
            bad = int(np.flatnonzero(~polar)[0])
            raise ValidationError(
                f"record {bad}: polarity {int(p[bad])} not in {{-1, +1}}")
    return t, c, p


@dataclass(frozen=True)
class SensorConfig:
    """Channel count and filter-bank topology of the emitting sensor."""

    channels: int
    topology: str = "cascade"

    def __post_init__(self):
        if self.channels not in SUPPORTED_CHANNEL_COUNTS:
            raise ValidationError(
                f"unsupported channel count {self.channels}; "
                f"expected one of {SUPPORTED_CHANNEL_COUNTS}")
        if self.topology not in TOPOLOGIES:
            raise ValidationError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}")


@dataclass(frozen=True, eq=False)
class EventStream:
    """A time-sorted event sequence plus the sensor config that produced it.

    ``t``, ``c`` and ``p`` are parallel numpy arrays. A stream is checked
    once, when it is built, by ``check_events`` against the sensor's
    channel count. The columns are then held as read-only int64 ``t``,
    int32 ``c`` and int8 ``p``, so no function that takes a stream checks
    it again.
    ``sample_id`` is side-channel metadata, never serialized into the event
    file and excluded from equality.
    """

    config: SensorConfig
    t: np.ndarray
    c: np.ndarray
    p: np.ndarray
    sample_id: str = ""

    def __post_init__(self):
        columns = check_events(self.t, self.c, self.p, self.config.channels)
        # Narrow only after the check, so an out-of-range value cannot wrap.
        # Read-only views keep the checked values from being edited in place.
        for name, column, dtype in zip("tcp", columns,
                                       (np.int64, np.int32, np.int8)):
            column = column.astype(dtype, copy=False).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def from_events(cls, config: SensorConfig,
                    events: Sequence[tuple[int, int, int]],
                    sample_id: str = "") -> "EventStream":
        return cls(config,
                   np.array([e[0] for e in events], dtype=np.int64),
                   np.array([e[1] for e in events], dtype=np.int64),
                   np.array([e[2] for e in events], dtype=np.int64),
                   sample_id=sample_id)

    @classmethod
    def empty(cls, config: SensorConfig, sample_id: str = "") -> "EventStream":
        return cls(config, *(np.empty(0, dtype=np.int64),) * 3,
                   sample_id=sample_id)

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (self.config == other.config
                and np.array_equal(self.t, other.t)
                and np.array_equal(self.c, other.c)
                and np.array_equal(self.p, other.p))

    @property
    def span_us(self) -> int:
        """Last minus first timestamp; 0 for streams with < 2 events."""
        if len(self.t) < 2:
            return 0
        return int(self.t[-1] - self.t[0])


def write_stream(stream: EventStream, path: str, format: str = FORMAT_BINARY) -> None:
    """Serialize a stream (valid, since it was checked when built)."""
    if format == FORMAT_BINARY:
        records = np.zeros(len(stream), dtype=_RECORD_DTYPE)
        records["t"] = stream.t
        records["c"] = stream.c
        records["p"] = stream.p
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, stream.config.channels,
                              TOPOLOGIES.index(stream.config.topology))
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(records.tobytes())
    elif format == FORMAT_CSV:
        fields = np.column_stack((stream.t, stream.c, stream.p)).ravel()
        with open(path, "w") as fh:
            fh.write(_CSV_HEADER + "\n")
            fh.write(("%d,%d,%d\n" * len(stream)) % tuple(fields.tolist()))
    else:
        raise ConfigError(f"unknown stream format {format!r}")


def read_stream(path: str, format: str = FORMAT_BINARY,
                config: SensorConfig | None = None) -> EventStream:
    """Parse an event file into a checked stream whose ``sample_id`` is the
    file's stem.

    For binary files the header carries the sensor config; a config passed in
    as well must agree with it. CSV carries no header metadata, so ``config``
    is required. Malformed content raises ParseError with the offending line
    or byte offset; domain violations (channel out of range, bad polarity,
    time regression) raise ValidationError / OrderingError.
    """
    if format == FORMAT_BINARY:
        config, columns = _read_binary(path, config)
    elif format == FORMAT_CSV:
        columns = _read_csv(path, config)
    else:
        raise ConfigError(f"unknown stream format {format!r}")
    return EventStream(config, *columns, sample_id=_stem(path))


def _stem(path: str) -> str:
    name = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name


def _read_binary(path: str, config: SensorConfig | None
                 ) -> tuple[SensorConfig, tuple[np.ndarray, ...]]:
    """The header's sensor config and the ``t``, ``c``, ``p`` columns."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) == 0:
        if config is None:
            raise ConfigError(
                f"{path}: zero-byte file carries no header; a sensor config "
                "must be supplied")
        return config, (np.empty(0, dtype=np.int64),) * 3
    if len(blob) < _HEADER.size:
        raise ParseError(f"{path}: truncated header", offset=len(blob))
    magic, version, channels, topo = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}", offset=0)
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format version {version}", offset=4)
    if topo >= len(TOPOLOGIES):
        raise ParseError(f"{path}: unknown topology byte {topo}", offset=7)
    file_config = SensorConfig(channels, TOPOLOGIES[topo])
    if config is not None and config != file_config:
        raise ValidationError(
            f"{path}: header declares {file_config}, caller expected {config}")
    trailing = (len(blob) - _HEADER.size) % _RECORD_DTYPE.itemsize
    if trailing:
        raise ParseError(
            f"{path}: trailing {trailing} bytes do not form a record",
            offset=len(blob) - trailing)
    # a view past the header: the body is never copied
    records = np.frombuffer(blob, dtype=_RECORD_DTYPE, offset=_HEADER.size)
    # Copies, so that no column is a strided view of the file buffer.
    return file_config, (records["t"].astype(np.int64),
                         records["c"].astype(np.int32),
                         records["p"].astype(np.int8))


def _read_csv(path: str,
              config: SensorConfig | None) -> tuple[np.ndarray, ...]:
    if config is None:
        raise ConfigError(f"{path}: csv carries no header metadata; a sensor "
                          "config must be supplied")
    # Unbuffered, header read apart: one body copy, never joined or sliced.
    with open(path, "rb", buffering=0) as fh:
        columns = _decode_plain_csv(fh)
    return _scan_csv(path) if columns is None else columns


def _decode_plain_csv(fh: BinaryIO) -> tuple[np.ndarray, ...] | None:
    """The ``t``, ``c`` and ``p`` columns of the binary file ``fh`` if it is
    plain CSV (see the module docstring), or None. numpy's parser reads
    plain fields exactly as ``int()`` does. Anything else, and every failure
    or warning of the parser, is left to the scanner, which defines the
    format and is the only source of its errors."""
    if fh.read(len(_CSV_HEADER) + 1) != _CSV_HEADER.encode() + b"\n":
        fh.seek(0)
    body = fh.read()
    tail = not body.endswith(b"\n")  # a last line without its newline
    rest = body.translate(None, b"0123456789")  # separators and signs
    minus = len(rest)
    rest = rest.translate(None, b"-")
    minus -= len(rest)
    lines = rest.count(b"\n") + tail
    # One ",," and newline per line: the parse meets 3 * lines fields. An
    # empty last one would end it a value short, left unset without a word.
    if rest != (b",,\n" * lines)[:3 * lines - tail] or body.endswith(b","):
        return None
    del rest
    body = body.replace(b"\n", b",")
    with warnings.catch_warnings():  # numpy 1.x warns where 2.x raises
        warnings.simplefilter("error")
        try:
            values = np.fromstring(body, np.int64, count=3 * lines, sep=",")
        except (ValueError, Warning):
            return None
    del body
    # numpy 2 reads a lone "-" as 0 and "-0" is 0; beyond int64 a value
    # saturates to a limit, which no event holds. The scanner decides these.
    if (np.count_nonzero(values < 0) != minus
            or values.min() == _INT64.min or values.max() == _INT64.max):
        return None
    # t is copied, so the parsed block is freed once the stream narrows c, p.
    return values[0::3].copy(), values[1::3], values[2::3]


def _scan_csv(path: str) -> tuple[np.ndarray, ...]:
    """Line-by-line CSV decode: the definition of the CSV format, the CSV
    line rule (``errors.csv_rows``) with header ``t,c,p`` and three fields
    a line, each read by ``decimal_int``."""
    columns: tuple[list[int], ...] = ([], [], [])
    for lineno, line in csv_rows(path, _CSV_HEADER):
        fields = csv_fields(path, lineno, line, 3)
        try:
            for column, name, text in zip(columns, "tcp", fields):
                column.append(decimal_int(text, name))
        except ValueError as exc:
            raise ParseError(f"{path}: bad event row: {exc}",
                             line=lineno) from None
    try:
        return tuple(np.array(column, dtype=np.int64) for column in columns)
    except OverflowError:
        big = next(v for v in sum(columns, []) if not -2**63 <= v < 2**63)
        raise ValidationError(
            f"{path}: value {big} does not fit in 64 bits") from None


@dataclass(eq=False)
class StreamStats:
    """Aggregate statistics over a collection of streams.

    Rates are in kilo-events; ``rate_samples_used`` records how many samples
    survived the span conventions described in the module docstring.
    """

    total_events: int
    sample_count: int
    kev_per_s_avg: float
    kev_per_s_max: float
    kev_per_s_std: float
    kev_per_sample_avg: float
    kev_per_sample_max: float
    kev_per_sample_std: float
    per_channel_mean: np.ndarray = field(repr=False)
    per_channel_std: np.ndarray = field(repr=False)
    events_per_window_avg: float
    events_per_window_max: int
    window_us: int
    rate_samples_used: int

    def to_json_dict(self) -> dict:
        return {
            "total_events": self.total_events,
            "samples": self.sample_count,
            "kev_per_s_avg": self.kev_per_s_avg,
            "kev_per_s_max": self.kev_per_s_max,
            "kev_per_s_std": self.kev_per_s_std,
            "kev_per_sample_avg": self.kev_per_sample_avg,
            "kev_per_sample_max": self.kev_per_sample_max,
            "kev_per_sample_std": self.kev_per_sample_std,
            "per_channel": [
                {"mean": float(m), "std": float(s)}
                for m, s in zip(self.per_channel_mean, self.per_channel_std)
            ],
            "per_window": {
                "avg": self.events_per_window_avg,
                "max": self.events_per_window_max,
            },
            "window_us": self.window_us,
            "rate_samples_used": self.rate_samples_used,
        }


def compute_stats(streams: Sequence[EventStream],
                  window_us: int = DEFAULT_WINDOW_US) -> StreamStats:
    """Aggregate counts, rates, per-channel and per-window statistics.

    All aggregations are symmetric in the sample order, so the result is
    invariant under permuting ``streams``. Per-channel mean/std are population
    statistics of per-sample event counts, so per_channel_mean summed over
    channels times the sample count recovers total_events.
    """
    if not streams:
        raise ValidationError("compute_stats needs at least one stream")
    config = streams[0].config
    if window_us <= 0:
        raise ValidationError("window_us must be positive")
    for s in streams:
        if s.config != config:
            raise ValidationError(
                "all streams must share one sensor config; "
                f"got {s.config} vs {config}")

    channel_counts = np.stack([
        np.bincount(s.c, minlength=config.channels).astype(np.int64)
        if len(s) else np.zeros(config.channels, dtype=np.int64)
        for s in streams
    ])
    total = int(channel_counts.sum())
    counts = channel_counts.sum(axis=1)

    rates_kev = []
    for s in streams:
        if len(s) < 2 or s.span_us < 1000:
            continue  # spans under 1 ms make rates meaningless; see module doc
        rates_kev.append(len(s) / (s.span_us / US_PER_S) / 1000.0)
    rates = np.array(rates_kev, dtype=np.float64)

    window_total = 0
    window_max = 0
    for s in streams:
        if len(s) == 0:
            continue
        per_window = np.bincount(s.t // window_us)
        window_total += per_window.size  # windows 0 .. last occupied
        window_max = max(window_max, int(per_window.max()))

    kev_counts = counts / 1000.0
    return StreamStats(
        total_events=total,
        sample_count=len(streams),
        kev_per_s_avg=float(rates.mean()) if rates.size else 0.0,
        kev_per_s_max=float(rates.max()) if rates.size else 0.0,
        kev_per_s_std=float(rates.std()) if rates.size else 0.0,
        kev_per_sample_avg=float(kev_counts.mean()),
        kev_per_sample_max=float(kev_counts.max()),
        kev_per_sample_std=float(kev_counts.std()),
        per_channel_mean=channel_counts.mean(axis=0),
        per_channel_std=channel_counts.std(axis=0),
        events_per_window_avg=(total / window_total) if window_total else 0.0,
        events_per_window_max=window_max,
        window_us=window_us,
        rate_samples_used=int(rates.size),
    )


def synth_stream(seed: int, config: SensorConfig, duration_us: int,
                 rate_profile, sample_id: str = "synth") -> EventStream:
    """Generate a Poisson-like stream, reproducible from the seed.

    ``rate_profile`` is a per-channel mean rate in events/second, either a
    scalar applied to every channel or a sequence of length ``channels``.
    Per-channel event counts are Poisson draws; timestamps are uniform
    integers in [0, duration_us). The merged stream is sorted by (t, c, p).
    """
    if duration_us <= 0:
        raise ValidationError("duration_us must be positive")
    rates = np.broadcast_to(np.asarray(rate_profile, dtype=np.float64),
                            (config.channels,))
    if (rates < 0).any():
        raise ValidationError("rates must be non-negative")
    rng = np.random.default_rng(seed)
    duration_s = duration_us / US_PER_S
    ts: list[np.ndarray] = []
    cs: list[np.ndarray] = []
    ps: list[np.ndarray] = []
    for channel in range(config.channels):
        n = int(rng.poisson(rates[channel] * duration_s))
        if n == 0:
            continue
        ts.append(rng.integers(0, duration_us, size=n, dtype=np.int64))
        cs.append(np.full(n, channel, dtype=np.int32))
        ps.append(rng.choice(np.array([-1, 1], dtype=np.int8), size=n))
    if not ts:
        return EventStream.empty(config, sample_id=sample_id)
    t = np.concatenate(ts)
    c = np.concatenate(cs)
    p = np.concatenate(ps)
    order = np.lexsort((p, c, t))
    return EventStream(config, t[order], c[order], p[order],
                       sample_id=sample_id)
