from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evkws import (
    ConfigError,
    EventStream,
    OrderingError,
    ParseError,
    SensorConfig,
    ValidationError,
    compute_stats,
    read_stream,
    synth_stream,
    write_stream,
)
import evkws.events as events
from evkws.events import T_LIMIT

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


# polarity columns of other dtypes: values are compared, never wrapped, so a
# uint8 255 (int8 -1) or a float 1.5 is refused and a bool True is +1
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
    if refused is None:
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
])
def test_plain_csv_takes_the_fast_path_and_nothing_else(body, plain):
    assert (events._decode_plain_csv(body) is not None) == plain


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
    # even as a changed copy of a valid one.
    good = _raw(cfg64, [(5, 0, 1), (6, 0, 1)])
    with pytest.raises(OrderingError):
        write_stream(dataclasses.replace(good, t=np.array([5, 1])),
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
