from __future__ import annotations

import dataclasses
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from evkws import (
    ConfigError,
    EventStream,
    GraphBuilder,
    GraphParams,
    HwParams,
    OrderingError,
    ParseError,
    RunState,
    SensorConfig,
    ValidationError,
    WindowPool,
    compute_stats,
    random_weights,
    read_stream,
    simulate,
    synth_stream,
    write_stream,
)
import evkws.events as events
from evkws.events import SUPPORTED_CHANNEL_COUNTS, T_LIMIT, int_column

from conftest import events_of, make_stream


# ----------------------------------------------------------------- configs

def test_sensor_config_accepts_supported_shapes():
    for ch in (32, 64, 128):
        for topo in ("cascade", "parallel"):
            cfg = SensorConfig(channels=ch, topology=topo)
            assert cfg.channels == ch


@pytest.mark.parametrize("channels", [0, 16, 33, 256, -64])
def test_sensor_config_rejects_channel_count(channels):
    with pytest.raises(ValidationError):
        SensorConfig(channels=channels)


def test_sensor_config_rejects_topology():
    with pytest.raises(ValidationError):
        SensorConfig(channels=64, topology="ring")


# ------------------------------------------------------------ stream checks

def test_from_events_round_trip(cfg64):
    evs = [(0, 3, 1), (10, 3, -1), (10, 7, 1)]
    stream = EventStream.from_events(cfg64, evs)
    assert len(stream) == 3
    assert events_of(stream) == evs
    assert stream.span_us == 10


def _raw(cfg, events):
    # the constructor itself, from the readers' column dtypes
    return EventStream(cfg,
                       np.array([e[0] for e in events], dtype=np.int64),
                       np.array([e[1] for e in events], dtype=np.int32),
                       np.array([e[2] for e in events], dtype=np.int8))


def test_validate_rejects_time_regression(cfg64):
    with pytest.raises(OrderingError, match="record 1"):
        _raw(cfg64, [(5, 0, 1), (4, 0, 1)])


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_validate_rejects_time_regression_in_unsigned_columns(cfg64, dtype):
    # a difference of unsigned timestamps wraps to a large positive step
    with pytest.raises(OrderingError) as signed:
        _raw(cfg64, [(5, 0, 1), (4, 0, 1)])
    with pytest.raises(OrderingError, match="record 1") as unsigned:
        EventStream(cfg64, np.array([5, 4], dtype=dtype),
                    np.zeros(2, dtype=np.int32), np.ones(2, dtype=np.int8))
    assert str(unsigned.value) == str(signed.value)


def test_validate_rejects_out_of_range_channel(cfg64):
    with pytest.raises(ValidationError, match="channel"):
        _raw(cfg64, [(0, 64, 1)])


def test_validate_rejects_bad_polarity(cfg64):
    with pytest.raises(ValidationError, match="polarity"):
        _raw(cfg64, [(0, 0, 2)])


# polarity columns of other dtypes: integer values are compared, never
# wrapped, so a uint8 255 (int8 -1) is refused. Bool and float columns are
# refused whole by the column rule before the polarity rule reads a value, so
# a bool True or a whole 1.0 is refused too; for those rows `refused` is what
# the polarity rule would say, and the column rule's message comes instead
@pytest.mark.parametrize("dtype, values, refused", [
    (np.int8, [1, -1, 1], None),
    (np.int8, [1, 0], "record 1: polarity 0"),
    (np.int64, [-1, 1], None),
    (np.int64, [-1, 255], "record 1: polarity 255"),
    (np.int64, [2, 0], "record 0: polarity 2"),
    (np.uint8, [1, 1], None),
    (np.uint8, [1, 255], "record 1: polarity 255"),
    (np.uint8, [0, 1], "record 0: polarity 0"),
    (np.bool_, [True, True], None),
    (np.bool_, [True, False], "record 1: polarity 0"),
    (np.float64, [1.0, -1.0], None),
    (np.float64, [1.0, 1.5], "record 1: polarity 1"),
    (np.float64, [-1.0, 2.0], "record 1: polarity 2"),
])
def test_polarity_check_across_dtypes(cfg64, dtype, values, refused):
    p = np.array(values, dtype=dtype)
    t, c = np.arange(len(p)), np.zeros(len(p), dtype=np.int32)
    if p.dtype.kind not in "iu":
        with pytest.raises(ValidationError) as err:
            EventStream(cfg64, t, c, p)
        assert str(err.value) == ("polarities must be integers within the "
                                  f"int64 range, got {p.dtype} values")
    elif refused is None:
        stream = EventStream(cfg64, t, c, p)
        assert stream.p.dtype == np.int8
        assert stream.p.tolist() == [int(v) for v in values]
    else:
        with pytest.raises(ValidationError) as err:
            EventStream(cfg64, t, c, p)
        assert str(err.value) == refused + " not in {-1, +1}"


def test_validate_rejects_timestamp_overflow(cfg64):
    for t in (T_LIMIT, -1):
        with pytest.raises(ValidationError, match="unsigned 32 bits"):
            _raw(cfg64, [(t, 0, 1)])
        # the range is checked before the order, also between the ends
        with pytest.raises(ValidationError, match="unsigned 32 bits"):
            _raw(cfg64, [(5, 0, 1), (t, 0, 1), (6, 0, 1)])
    stream = EventStream.from_events(cfg64, [(T_LIMIT - 1, 0, 1)])
    assert stream.t.tolist() == [T_LIMIT - 1]


def test_stream_is_frozen(cfg64):
    stream = EventStream.from_events(cfg64, [(0, 1, 1)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        stream.t = np.array([-5])
    with pytest.raises(dataclasses.FrozenInstanceError):
        stream.sample_id = "other"
    for column in (stream.t, stream.c, stream.p):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = -5
    # a changed copy is built, so it is checked like any other stream
    with pytest.raises(ValidationError, match="channel"):
        dataclasses.replace(stream, c=np.array([64]))
    assert dataclasses.replace(stream, sample_id="b").sample_id == "b"


def test_construction_narrows_columns(cfg64):
    wide = np.array([0, 5], dtype=np.int64)
    stream = EventStream(cfg64, wide, np.array([3, 63], dtype=np.int64),
                         np.array([1, -1], dtype=np.int64))
    assert (stream.t.dtype, stream.c.dtype, stream.p.dtype) == (
        np.int64, np.int32, np.int8)
    assert stream.c.tolist() == [3, 63] and stream.p.tolist() == [1, -1]
    assert wide.flags.writeable  # the caller's own array stays writable
    # a value that int8 would wrap to a valid polarity is refused first
    with pytest.raises(ValidationError, match="polarity 257"):
        EventStream(cfg64, wide[:1], wide[:1], np.array([257]))


def test_from_events_validates_eagerly(cfg64):
    with pytest.raises(OrderingError):
        EventStream.from_events(cfg64, [(5, 0, 1), (4, 0, 1)])


def test_equality_ignores_metadata(cfg64):
    a = EventStream.from_events(cfg64, [(0, 1, 1)], sample_id="a")
    b = EventStream.from_events(cfg64, [(0, 1, 1)], sample_id="b")
    assert a == b
    c = EventStream.from_events(cfg64, [(0, 2, 1)])
    assert a != c


# ---------------------------------------------------------- column contract

NON_INTEGER_COLUMNS = {
    "float64": np.array([1.0, 2.0]),              # whole values too
    "bool": np.array([True, True]),
    "complex128": np.array([1 + 0j, 2 + 0j]),
    "object": np.array([1, 2], dtype=object),
    "uint64": np.array([1, 2**63], dtype=np.uint64),  # beyond int64
}


def _feed(column, at):
    state = RunState(random_weights(0), GraphParams(r_c=2), 32)
    columns = [[0, 1], [0, 1], [1, -1]]
    columns[at] = column
    return state.feed(*columns)


# entry point -> (call taking the column, name of the column in the message)
COLUMN_ENTRY_POINTS = {
    "EventStream t": (lambda x: EventStream(SensorConfig(32), x, [0, 1],
                                            [1, 1]), "timestamps"),
    "EventStream c": (lambda x: EventStream(SensorConfig(32), [0, 1], x,
                                            [1, 1]), "channels"),
    "EventStream p": (lambda x: EventStream(SensorConfig(32), [0, 1],
                                            [0, 1], x), "polarities"),
    "insert t": (lambda x: GraphBuilder(32, GraphParams(r_c=2)).insert(
        x, [0, 1]), "timestamps"),
    "insert c": (lambda x: GraphBuilder(32, GraphParams(r_c=2)).insert(
        [0, 1], x), "channels"),
    "feed t": (lambda x: _feed(x, 0), "timestamps"),
    "feed c": (lambda x: _feed(x, 1), "channels"),
    "feed p": (lambda x: _feed(x, 2), "polarities"),
    "WindowPool.push t": (lambda x: WindowPool(2).push(
        np.zeros((2, 2), np.int8), x), "timestamps"),
    "simulate edges": (lambda x: simulate(
        EventStream(SensorConfig(32), [0, 1], [0, 1], [1, 1]), x,
        HwParams()), "edge counts"),
}


@pytest.mark.parametrize("entry", COLUMN_ENTRY_POINTS)
@pytest.mark.parametrize("dtype", NON_INTEGER_COLUMNS)
def test_non_integer_columns_are_refused(dtype, entry):
    call, name = COLUMN_ENTRY_POINTS[entry]
    with pytest.raises(ValidationError) as err:
        call(NON_INTEGER_COLUMNS[dtype])
    assert str(err.value) == (f"{name} must be integers within the int64 "
                              f"range, got {dtype} values")


def test_integer_columns_pass_as_they_are():
    for column in (np.arange(3, dtype=np.int8), np.arange(3),
                   np.arange(3, dtype=np.uint64),
                   np.array([2**63 - 1], dtype=np.uint64)):
        assert int_column(column, "x") is column  # no copy, no conversion
    assert int_column([0, 5], "x").tolist() == [0, 5]
    assert int_column([], "x").dtype == np.int64
    with pytest.raises(ValidationError, match="got object values"):
        int_column([[0, 1], [2]], "x")                # ragged
    # lists of Python ints build a stream, and feed the graph and the pool
    stream = EventStream(SensorConfig(32), [0, 5], [1, 2], [1, -1])
    assert stream == EventStream.from_events(SensorConfig(32),
                                             [(0, 1, 1), (5, 2, -1)])
    assert EventStream(SensorConfig(32), [], [], []) == EventStream.empty(
        SensorConfig(32))
    table = GraphBuilder(32, GraphParams(r_c=2)).insert([0, 5], [1, 2])
    assert table.valid[:, 1].sum() == 1
    emitted = WindowPool(2).push(np.ones((2, 2), np.int8), [0, 10_000])
    assert [(i, v.tolist()) for i, v in emitted] == [(0, [1, 1])]


# ------------------------------------------------------------------- codecs

def test_binary_round_trip(tmp_path, rng):
    stream = make_stream(rng, channels=128, n=500, topology="parallel")
    path = tmp_path / "s.nas"
    write_stream(stream, str(path))
    back = read_stream(str(path))
    assert back == stream
    assert back.config == stream.config
    assert back.sample_id == "s"


def test_csv_round_trip(tmp_path, rng, cfg64):
    stream = make_stream(rng, n=50)
    path = tmp_path / "s.csv"
    write_stream(stream, str(path), format="csv")
    assert path.read_text().splitlines()[0] == "t,c,p"
    back = read_stream(str(path), format="csv", config=cfg64)
    assert back == stream


def test_csv_requires_config(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,c,p\n0,1,1\n")
    with pytest.raises(ConfigError):
        read_stream(str(path), format="csv")


def test_csv_reports_offending_line(tmp_path, cfg64):
    path = tmp_path / "s.csv"
    path.write_text("t,c,p\n0,1,1\n5,nope,1\n")
    with pytest.raises(ParseError, match="line 3"):
        read_stream(str(path), format="csv", config=cfg64)


def test_csv_field_count_error(tmp_path, cfg64):
    path = tmp_path / "s.csv"
    path.write_text("t,c,p\n0,1\n")
    with pytest.raises(ParseError, match="line 2"):
        read_stream(str(path), format="csv", config=cfg64)


@pytest.mark.parametrize("field", ["1_0", "+12", "\u0663"])
def test_csv_fields_are_a_sign_and_ascii_digits(tmp_path, cfg64, field):
    # int() read 1_0 as 10, +12 as 12 and U+0663 as 3
    path = tmp_path / "s.csv"
    path.write_text(f"t,c,p\n0,1,1\n{field},1,1\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"must be an integer.*\(line 3\)"):
        read_stream(str(path), format="csv", config=cfg64)


def test_csv_writer_bytes_match_the_per_event_lines(tmp_path, cfg64):
    rng = np.random.default_rng(3)
    n = 500
    t = np.sort(rng.integers(0, T_LIMIT, size=n, dtype=np.int64))
    t[-1] = T_LIMIT - 1
    stream = EventStream(cfg64, t, rng.integers(0, 64, size=n),
                         np.full(n, -1, dtype=np.int8))
    path = tmp_path / "s.csv"
    write_stream(stream, str(path), format="csv")
    lines = "".join(f"{t},{c},{p}\n" for t, c, p in zip(
        stream.t.tolist(), stream.c.tolist(), stream.p.tolist()))
    assert path.read_bytes() == ("t,c,p\n" + lines).encode()


@pytest.mark.parametrize("body,plain", [
    (b"t,c,p\n0,1,1\n5,2,-1\n", True),
    (b"0,1,1\n5,2,-1", True),
    (b"0,1,1\n\n5,2,-1\n", False),     # blank line
    (b"\n0,1,1\n", False),
    (b"t,c,p\r\n0,1,1\r\n", False),   # CRLF
    (b"0,1,+1\n", False),
    (b"0, 1,1\n", False),
    (b"1_000,1,1\n", False),
    (b"0,1,1\nt,c,p\n", False),         # header off line 1
    (b"t,c,p\n", False),                # header only
    (b"", False),
    (b"0,1\n", False),
    (b"0,1,1,1\n", False),
    (b"99999999999999999999,1,1\n", False),
    (b"9223372036854775807,1,1\n", False),  # an int64 limit
    (b"\n\n", False),
    (b"t,c,p\n0,1,1", True),           # header, no final newline
    (b"0,1,-\n", False),               # lone "-", read as 0 by numpy
    (b"-,1,1\n", False),
    (b"0,1,-0\n", False),              # "-0": the scanner reads it
    (b"0,1,1,\n", False),              # trailing comma
    (b"0,1\n2,3,4,5\n", False),        # ragged rows, 6 fields in all
    (b"0,1,1\n5,2,", False),           # empty last field, no newline
])
def test_plain_csv_takes_the_fast_path_and_nothing_else(body, plain):
    assert (events._decode_plain_csv(io.BytesIO(body)) is not None) == plain


def _csv_outcome(path, cfg):
    try:
        stream = read_stream(str(path), format="csv", config=cfg)
    except Exception as exc:
        return type(exc), str(exc)
    return ([stream.t.dtype, stream.c.dtype, stream.p.dtype],
            stream.t.tolist(), stream.c.tolist(), stream.p.tolist())


_CSV_FIELDS = st.one_of(
    st.integers(-2, 66).map(str),
    st.integers(0, T_LIMIT).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["", "-", "--1", "1-", "+5", " 5 ", "1_000", "007",
                     "-0", "9" * 20, "-" + "9" * 19, str(2**63 - 1),
                     str(-2**63), "\u0663", "0x1", "1.0", "t", "#1"]),
)


@st.composite
def _near_csv(draw):
    """Plain valid rows with a few rows, blanks or headers spliced in."""
    rows = sorted(draw(st.lists(
        st.tuples(st.integers(0, T_LIMIT - 1), st.integers(0, 63),
                  st.sampled_from([-1, 1])), max_size=30)))
    lines = [f"{t},{c},{p}" for t, c, p in rows]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.one_of(
            st.lists(_CSV_FIELDS, min_size=2, max_size=4).map(",".join),
            st.sampled_from(["", " ", "t,c,p", " t,c,p "])))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.booleans()):
        lines.insert(draw(st.sampled_from([0, 0, 1])), "t,c,p")
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text.encode()


@given(body=st.one_of(
    _near_csv(),
    st.text(alphabet="0123456789-,\n", max_size=80).map(str.encode),
    st.binary(max_size=80),
    st.sampled_from([b"", b"t,c,p", b"t,c,p\n", b"t,c,p\n\n", b"\n"])))
@example(body=b"0,1,-\n")
@example(body=b"-,1,1\n")
@example(body=b"0,1,-0\n")
@example(body=b"0,1,1,\n")
@example(body=b"0,1\n2,3,4,5\n")
@example(body=b"t,c,p\n0,1,1")
@example(body=b"0,1,1\n5,2,")
@settings(max_examples=600, deadline=None)
def test_csv_decode_equals_the_scanner_alone(tmp_path_factory, body):
    """read_stream gives what it gives with _scan_csv as its only decoder:
    the same arrays and dtypes, or the same exception type and message."""
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(body)
    cfg = SensorConfig(channels=64)
    got = _csv_outcome(path, cfg)
    with mock.patch.object(events, "_decode_plain_csv", return_value=None):
        assert got == _csv_outcome(path, cfg)


@given(seed=st.integers(0, 2**32 - 1),
       channels=st.sampled_from(SUPPORTED_CHANNEL_COUNTS),
       rate=st.floats(50.0, 2000.0), top=st.booleans())
@example(seed=0, channels=64, rate=700.0, top=True)
@settings(max_examples=40, deadline=None)
def test_written_csv_takes_the_fast_path(tmp_path_factory, seed, channels,
                                         rate, top):
    """What write_stream writes never falls back to the line scanner, even
    with the last timestamp at 2**32 - 1, and reads back equal."""
    stream = synth_stream(seed, SensorConfig(channels), 20_000, rate)
    assume(len(stream))
    if top:
        stream = EventStream(stream.config,
                             stream.t + (T_LIMIT - 1 - stream.t[-1]),
                             stream.c, stream.p)
    path = tmp_path_factory.getbasetemp() / "written.csv"
    write_stream(stream, str(path), format="csv")
    with mock.patch.object(events, "_scan_csv",
                           side_effect=AssertionError("scanned")):
        assert read_stream(str(path), format="csv",
                           config=stream.config) == stream


# traced peak of read_stream on the CSV of one second of 64 channels at
# 625 ev/s (39,660 events, 485,118 bytes): 1,469,476 bytes (numpy 2.4.6,
# the parse's int64 block beside the body), plus about 3%
CSV_READ_PEAK_BYTES = 1_520_000


def test_csv_read_peak_is_bounded(tmp_path):
    # one copy of the body at a time: a slice, a second read or a copy
    # kept through the parse adds about 485 KB and fails here
    stream = synth_stream(7, SensorConfig(64), 1_000_000, 625.0)
    path = tmp_path / "one_second.csv"
    write_stream(stream, str(path), format="csv")
    tracemalloc.start()
    try:
        back = read_stream(str(path), format="csv", config=stream.config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == stream
    assert 0 < peak <= CSV_READ_PEAK_BYTES, peak


# traced peak of read_stream on the binary file of the same second (39,660
# events, 317,288 bytes): 833,986 bytes (numpy 2.4.6, the file's bytes and
# the three columns), plus about 10%
BINARY_READ_PEAK_BYTES = 917_000


def test_binary_read_peak_is_bounded(tmp_path):
    # the records are a view of the file's bytes: a slice of the body adds
    # its 317 KB and fails here
    stream = synth_stream(7, SensorConfig(64), 1_000_000, 625.0)
    path = tmp_path / "one_second.nas"
    write_stream(stream, str(path))
    tracemalloc.start()
    try:
        back = read_stream(str(path), config=stream.config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == stream
    assert 0 < peak <= BINARY_READ_PEAK_BYTES, peak


def test_binary_zero_byte_file(tmp_path, cfg64):
    path = tmp_path / "empty.nas"
    path.write_bytes(b"")
    with pytest.raises(ConfigError):
        read_stream(str(path))
    stream = read_stream(str(path), config=cfg64)
    assert len(stream) == 0
    assert stream.config == cfg64


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.nas"
    path.write_bytes(b"XXXX" + bytes(8))
    with pytest.raises(ParseError, match="magic"):
        read_stream(str(path))


def test_binary_trailing_bytes(tmp_path, rng):
    stream = make_stream(rng, n=3)
    path = tmp_path / "s.nas"
    write_stream(stream, str(path))
    with open(path, "ab") as fh:
        fh.write(b"\x01\x02")
    with pytest.raises(ParseError, match="offset"):
        read_stream(str(path))


def test_binary_config_mismatch(tmp_path, rng):
    stream = make_stream(rng, channels=32, n=3)
    path = tmp_path / "s.nas"
    write_stream(stream, str(path))
    with pytest.raises(ValidationError):
        read_stream(str(path), config=SensorConfig(channels=64))


def test_write_validates_first(tmp_path, cfg64):
    # An invalid stream cannot be built, so none reaches the writer, not
    # even as a changed copy of a valid one: a regressing one, or one of
    # integer columns that are not 1-D
    good = _raw(cfg64, [(5, 0, 1), (6, 0, 1)])
    for columns, error, message in [
            ({"t": np.array([5, 1])}, OrderingError, "record 1: 1 < 5"),
            ({"t": [[5, 6], [7, 8]], "c": [[0, 0], [0, 0]],
              "p": [[1, 1], [1, 1]]}, ValidationError,
             r"timestamps \(2, 2\), channels \(2, 2\), polarities \(2, 2\)"
             " are not 1-D columns"),
            ({"t": 5, "c": 0, "p": 1}, ValidationError,
             r"timestamps \(\), channels \(\), polarities \(\) are not 1-D")]:
        with pytest.raises(error, match=message):
            write_stream(dataclasses.replace(good, **columns),
                         str(tmp_path / "x.nas"))
        assert not (tmp_path / "x.nas").exists()


# -------------------------------------------------------------------- stats

def test_stats_hand_case(cfg64):
    # two samples: 4 events over 10 ms and 2 events over 5 ms
    a = EventStream.from_events(cfg64, [(0, 0, 1), (3000, 0, 1),
                                        (6000, 1, -1), (10_000, 1, 1)])
    b = EventStream.from_events(cfg64, [(0, 2, 1), (5000, 2, -1)])
    stats = compute_stats([a, b])
    assert stats.total_events == 6
    assert stats.sample_count == 2
    # rates: 4 events / 10 ms = 0.4 kev/s, 2 / 5 ms = 0.4 kev/s
    assert stats.kev_per_s_avg == pytest.approx(0.4)
    assert stats.kev_per_s_std == pytest.approx(0.0)
    assert stats.rate_samples_used == 2
    # windows: a covers windows 0 and 1 (event at exactly 10ms), b window 0
    assert stats.events_per_window_avg == pytest.approx(6 / 3)
    assert stats.events_per_window_max == 3
    # channel 0: counts (2, 0) over the two samples
    assert stats.per_channel_mean[0] == pytest.approx(1.0)
    assert stats.per_channel_std[0] == pytest.approx(1.0)


def test_stats_rate_exclusions(cfg64):
    lone = EventStream.from_events(cfg64, [(0, 0, 1)])
    short = EventStream.from_events(cfg64, [(0, 0, 1), (999, 0, 1)])
    ok = EventStream.from_events(cfg64, [(0, 0, 1), (1000, 0, 1)])
    stats = compute_stats([lone, short, ok])
    assert stats.rate_samples_used == 1
    assert stats.kev_per_s_avg == pytest.approx(2.0)
    # excluded samples still count toward totals
    assert stats.total_events == 5


def test_stats_rejects_mixed_configs(cfg64):
    a = EventStream.empty(cfg64)
    b = EventStream.empty(SensorConfig(channels=32))
    with pytest.raises(ValidationError):
        compute_stats([a, b])


def test_stats_empty_input():
    with pytest.raises(ValidationError):
        compute_stats([])


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_stats_permutation_invariant(pyrandom):
    rng = np.random.default_rng(pyrandom.randrange(2**32))
    streams = [make_stream(rng, n=rng.integers(0, 60)) for _ in range(6)]
    base = compute_stats(streams)
    shuffled = list(streams)
    pyrandom.shuffle(shuffled)
    other = compute_stats(shuffled)
    assert base.total_events == other.total_events
    assert base.kev_per_s_avg == pytest.approx(other.kev_per_s_avg)
    assert base.kev_per_s_std == pytest.approx(other.kev_per_s_std)
    assert base.events_per_window_avg == pytest.approx(
        other.events_per_window_avg)
    np.testing.assert_allclose(base.per_channel_mean, other.per_channel_mean)
    np.testing.assert_allclose(base.per_channel_std, other.per_channel_std)


# -------------------------------------------------------------------- synth

def test_synth_stream_is_deterministic(cfg64):
    a = synth_stream(7, cfg64, duration_us=50_000, rate_profile=40_000)
    b = synth_stream(7, cfg64, duration_us=50_000, rate_profile=40_000)
    assert a == b
    assert (a.t.dtype, a.c.dtype, a.p.dtype) == (np.int64, np.int32, np.int8)
    assert (np.diff(a.t) >= 0).all()
    assert len(a) > 0
    assert a.t[-1] < 50_000


def test_synth_stream_rate_tracks_target(cfg64):
    # scalar profile is per channel, so totals scale with channel count
    stream = synth_stream(3, cfg64, duration_us=1_000_000, rate_profile=625)
    assert len(stream) == pytest.approx(625 * 64, rel=0.05)


def test_synth_stream_channel_profile(cfg64):
    profile = np.zeros(64)
    profile[5] = 30_000
    stream = synth_stream(1, cfg64, duration_us=200_000,
                          rate_profile=profile)
    assert set(stream.c.tolist()) == {5}
