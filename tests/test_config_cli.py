from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evkws import (
    ConfigError,
    ParseError,
    RunConfig,
    SensorConfig,
    expand_sweep,
    load_config,
    write_config,
    write_stream,
)
import evkws.events as events
from evkws.cli import _read_manifest, main
from evkws.config import KEYS
from evkws.filtering import make_thresholds
from evkws.metrics import read_records

from conftest import make_stream


SAMPLE_INI = """\
[sensor]
channels = 32
topology = parallel

[filtration]
div_factor = 6
weight = 24
threshold.kind = linear
threshold.start = 48
threshold.end = 16

[graph]
r_c = 4
skip_step = 2
r_t_high = 2500

[hw]
fifo_depth = 256
flush_timeout_us = 5.0
"""


# ------------------------------------------------------------------ config

def test_default_config_values():
    cfg = RunConfig()
    assert cfg.sensor.channels == 64
    assert cfg.filtration.kind == "exponential"
    assert (cfg.filtration.start, cfg.filtration.end) == (64, 32)
    assert cfg.graph.r_c == 10
    assert cfg.hw.window_us == 10_000
    assert cfg.weights_path is None


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SAMPLE_INI)
    cfg = load_config(str(path))
    assert cfg.sensor == SensorConfig(32, "parallel")
    assert cfg.filtration.div_factor == 6
    assert cfg.graph.skip_step == 2
    assert cfg.graph.r_t_low == 0            # untouched default
    assert cfg.hw.fifo_depth == 256
    assert cfg.hw.flush_timeout_us == 5.0

    cfg = load_config(str(path), overrides=["graph.r_c=9",
                                            "hw.fifo_depth=16"])
    assert cfg.graph.r_c == 9
    assert cfg.hw.fifo_depth == 16


def test_overrides_without_file():
    cfg = load_config(None, ["sensor.channels=128"])
    assert cfg.sensor.channels == 128


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, ["sensor.chanels=64"])
    path = tmp_path / "bad.ini"
    path.write_text("[sensor]\nchanels = 64\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[sensors]\nchannels = 64\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(str(path))


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(None, ["graph.r_c=ten"])
    with pytest.raises(ConfigError):
        load_config(None, ["graph.r_c"])  # no '='


@pytest.mark.parametrize("override", [
    "graph.r_c=1_0", "sensor.channels=+64", "hw.fifo_depth=\u0663",
    "graph.r_c=1 0", "hw.window_us=0x10", "graph.r_t_high=5.0",
])
def test_config_integers_are_a_sign_and_ascii_digits(override):
    # int() loaded the first three as 10, 64 and 3
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(None, [override])


@pytest.mark.parametrize("override", [
    "hw.clock_hz=2_0_0e6", "hw.head_latency_us=+2.11",
    "hw.nas_latency_us=٣", "hw.clock_hz=200e٥", "hw.clock_hz=1 0",
    "hw.head_latency_us=.5", "hw.head_latency_us=2.", "hw.clock_hz=0x10",
    "hw.clock_hz=infinity", "hw.nas_latency_us=", "hw.clock_hz=200e+",
])
def test_config_floats_are_a_sign_digits_fraction_and_exponent(override):
    # float() loaded the first three as 200000000.0, 2.11 and 3.0
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(None, [override])


def test_config_floats_read_decimal_and_exponent_forms():
    cfg = load_config(None, ["hw.clock_hz=200e6", "hw.head_latency_us=2.11",
                             "hw.nas_latency_us=23",
                             "hw.window_latency_bound_us=1.5E+1",
                             "hw.flush_timeout_us=-0.0"])
    assert (cfg.hw.clock_hz, cfg.hw.head_latency_us, cfg.hw.nas_latency_us,
            cfg.hw.window_latency_bound_us) == (200e6, 2.11, 23.0, 15.0)
    assert load_config(None, ["hw.clock_hz=10e6"]).hw.clock_hz == 10e6
    # str() of a finite float is read back as the same float
    for value in (200e6, 1e-05, 1e+16, 18.62, 2.5e-300):
        cfg = load_config(None, [f"hw.clock_hz={value}"])
        assert cfg.hw.clock_hz == value


def test_config_integers_keep_leading_zeros_and_a_minus():
    cfg = load_config(None, ["graph.r_c=007", "sensor.channels=0064"])
    assert (cfg.graph.r_c, cfg.sensor.channels) == (7, 64)
    with pytest.raises(ConfigError, match="need 0 <= r_t_low"):  # read
        load_config(None, ["graph.r_t_low=-3"])


def test_domain_violation_becomes_config_error():
    with pytest.raises(ConfigError):
        load_config(None, ["sensor.channels=48"])
    with pytest.raises(ConfigError):
        load_config(None, ["filtration.threshold.end=200"])  # end > start


def test_filtration_params_materialize():
    cfg = load_config(None, ["filtration.threshold.kind=linear",
                             "filtration.threshold.start=48",
                             "filtration.threshold.end=16",
                             "sensor.channels=32"])
    params = cfg.filtration_params()
    assert params.channels == 32
    np.testing.assert_array_equal(
        params.thresholds, make_thresholds(cfg.filtration.schedule(), 32))


def test_write_config_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SAMPLE_INI)
    cfg = load_config(str(path), ["hw.cycle_base=60",
                                  "hw.window_latency_bound_us=20.5"])
    out = tmp_path / "echo.ini"
    write_config(cfg, str(out))
    back = load_config(str(out))
    assert back == cfg


# A valid value different from the default for every key in the table.
NON_DEFAULT = {
    "sensor.channels": "128",
    "sensor.topology": "parallel",
    "filtration.div_factor": "6",
    "filtration.weight": "24",
    "filtration.threshold.kind": "linear",
    "filtration.threshold.start": "48",
    "filtration.threshold.end": "16",
    "graph.r_c": "4",
    "graph.skip_step": "2",
    "graph.r_t_low": "100",
    "graph.r_t_high": "2500",
    "model.weights": "trained.json",
    "hw.clock_hz": "100000000",
    "hw.cycle_base": "60",
    "hw.cycle_per_vertex": "30",
    "hw.fifo_depth": "256",
    "hw.nas_latency_us": "20.5",
    "hw.head_latency_us": "3.25",
    "hw.window_us": "20000",
    "hw.flush_timeout_us": "5.0",
    "hw.window_latency_bound_us": "30.0",
    "io.format": "csv",
}


def test_every_key_round_trips_through_write_config(tmp_path):
    assert set(NON_DEFAULT) == {f"{s}.{k}" for s, k in KEYS}
    cfg = load_config(None, [f"{k}={v}" for k, v in NON_DEFAULT.items()])
    doc, default_doc = cfg.to_dict(), RunConfig().to_dict()
    for section, key in KEYS:
        assert doc[section][key] != default_doc[section][key], (section, key)
    path = tmp_path / "all.ini"
    write_config(cfg, str(path))
    assert load_config(str(path)) == cfg


def test_to_dict_keys_match_key_table():
    doc = RunConfig().to_dict()
    assert {(s, k) for s, entries in doc.items() for k in entries} == set(KEYS)


@pytest.mark.parametrize("key", ["hw.parallel_multipliers", "io.input",
                                 "io.output"])
def test_removed_keys_rejected(key):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, [f"{key}=2"])


def test_expand_sweep(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text("""\
[filtration]
weight = 16, 32
threshold.kind = constant
threshold.start = 48
threshold.end = 48

[graph]
r_c = 4, 8, 12
""")
    combos = expand_sweep(str(path))
    assert len(combos) == 6
    varied_keys = {tuple(sorted(v)) for v, _ in combos}
    assert varied_keys == {("filtration.weight", "graph.r_c")}
    seen = [(v["filtration.weight"], v["graph.r_c"]) for v, _ in combos]
    assert len(set(seen)) == 6
    for varied, cfg in combos:
        assert cfg.filtration.weight == int(varied["filtration.weight"])
        assert cfg.graph.r_c == int(varied["graph.r_c"])
        assert cfg.filtration.kind == "constant"


def test_expand_sweep_without_lists_is_single(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text("[graph]\nr_c = 4\n")
    combos = expand_sweep(str(path))
    assert len(combos) == 1
    assert combos[0][0] == {}


# --------------------------------------------------------------------- cli

@pytest.fixture
def sample_file(tmp_path, rng):
    stream = make_stream(rng, channels=64, n=400, t_max=80_000)
    path = tmp_path / "sample.nas"
    write_stream(stream, str(path))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_stats(capsys, sample_file):
    code, out, err = run_cli(capsys, "stats", str(sample_file))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["stats"]["total_events"] == 400
    assert doc["config"]["sensor"]["channels"] == 64
    # reruns are byte-identical
    _, out2, _ = run_cli(capsys, "stats", str(sample_file))
    assert out == out2


def test_cli_stats_csv_format(capsys, sample_file):
    code, out, err = run_cli(capsys, "--format", "csv", "stats",
                             str(sample_file))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("stats.total_events,400") for line in lines)


def test_cli_filter(capsys, sample_file, tmp_path):
    out_path = tmp_path / "kept.nas"
    code, out, err = run_cli(capsys, "filter", str(sample_file),
                             str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["input_events"] == 400
    assert doc["output_events"] <= 400
    assert out_path.exists()
    from evkws import read_stream
    kept = read_stream(str(out_path))
    assert len(kept) == doc["output_events"]


def test_cli_infer_jsonl(capsys, sample_file, tmp_path):
    out_path = tmp_path / "preds.jsonl"
    code, out, err = run_cli(capsys, "infer", str(sample_file),
                             "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines, "expected at least one window"
    first = json.loads(lines[0])
    assert set(first) == {"window", "logits", "conf", "class"}
    assert first["window"] == 0


def test_cli_infer_respects_set_overrides(capsys, sample_file):
    code, out, err = run_cli(
        capsys, "--set", "filtration.weight=0",
        "--set", "filtration.threshold.kind=constant",
        "--set", "filtration.threshold.start=1",
        "--set", "filtration.threshold.end=1",
        "infer", str(sample_file))
    # weight 0 never crosses a threshold: no events survive, no output
    assert code == 0
    assert out == ""


def test_cli_eval_records(capsys, tmp_path):
    records = tmp_path / "records.jsonl"
    rows = [
        {"sample_id": "a", "y": 0, "y_hat": 0, "t_hat": 5, "t": 5},
        {"sample_id": "b", "y": 1, "y_hat": 0, "t_hat": 3, "t": 8},
        {"sample_id": "c", "y": 1, "y_hat": 1, "t_hat": 9, "t": 8},
    ]
    records.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code, out, err = run_cli(capsys, "eval", "--records", str(records),
                             "--tolerances", "0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["acc"] == pytest.approx(100 * 2 / 3)
    assert doc["metrics"]["ts_acc"]["0"] == pytest.approx(100 / 3)
    assert doc["metrics"]["ts_acc"]["1"] == pytest.approx(200 / 3)


def test_cli_eval_manifest(capsys, tmp_path, rng):
    paths = []
    for i in range(3):
        stream = make_stream(rng, channels=64, n=150, t_max=40_000)
        p = tmp_path / f"s{i}.nas"
        write_stream(stream, str(p))
        paths.append(p)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "path,label,end_bin\n"
        + "\n".join(f"{p.name},{i % 2},{3 + i}"
                    for i, p in enumerate(paths)) + "\n")
    code, out, err = run_cli(capsys, "--seed", "3", "eval",
                             "--manifest", str(manifest))
    assert code == 0
    doc = json.loads(out)
    assert doc["metrics"]["records"] == 3
    assert set(doc["metrics"]["ts_acc"]) == {"1", "3"}


def test_cli_jobs_flag_is_gone(capsys, tmp_path):
    # samples run one after another in one process; --jobs is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", "eval", "--manifest",
              str(tmp_path / "manifest.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: evkws")


def test_cli_simulate_with_artifacts(capsys, sample_file, tmp_path):
    trace_csv = tmp_path / "trace.csv"
    graph_jsonl = tmp_path / "graph.jsonl"
    code, out, err = run_cli(capsys, "simulate", str(sample_file),
                             "--trace-csv", str(trace_csv),
                             "--dump-graph", str(graph_jsonl))
    assert code == 0
    doc = json.loads(out)
    assert doc["events"] == 400
    assert doc["latency"]["end_to_end"]["best_us"] == pytest.approx(25.11)
    assert round(doc["throughput_eps"]["max"] / 1e6, 3) == 2.128
    header = trace_csv.read_text().splitlines()[0]
    assert header == "event_index,arrival_us,admit_us,done_us,edges"
    assert len(trace_csv.read_text().splitlines()) == 401
    assert len(graph_jsonl.read_text().splitlines()) == 400


def test_cli_simulate_filtered_flag(capsys, sample_file):
    code, out, _ = run_cli(capsys, "simulate", str(sample_file),
                           "--filtered")
    assert code == 0
    doc = json.loads(out)
    assert doc["events"] <= 400


def test_cli_ablate(capsys, tmp_path):
    sweep = tmp_path / "sweep.ini"
    sweep.write_text("[graph]\nr_c = 2, 4\n\n[filtration]\nweight = 8, 16\n")
    out_dir = tmp_path / "runs"
    code, out, err = run_cli(capsys, "ablate", str(sweep),
                             "--out-dir", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["combinations"] == 4
    index = json.loads((out_dir / "index.json").read_text())
    assert len(index) == 4
    for entry in index:
        cfg = load_config(str(out_dir / entry["config"]))
        assert cfg.graph.r_c == int(entry["varied"]["graph.r_c"])


# ------------------------------------------------------------- exit codes

def test_cli_missing_file_is_io_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "stats", str(tmp_path / "nope.nas"))
    assert code == 3
    doc = json.loads(err)
    assert doc["error"]["exit_code"] == 3


def test_cli_bad_override_is_config_error(capsys, sample_file):
    code, out, err = run_cli(capsys, "--set", "graph.r_c=ten",
                             "stats", str(sample_file))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("command", ["stats", "ablate"])
@pytest.mark.parametrize("override", [
    "filtration.div_factor=40",   # exited 0 from stats and from ablate,
    "filtration.weight=-1",       # which wrote the bad config to disk
    "filtration.threshold.start=-1",
])
def test_cli_filter_settings_are_checked_when_the_config_is_built(
        capsys, tmp_path, sample_file, command, override):
    section, rest = override.split(".", 1)
    key, value = rest.split("=")
    if command == "stats":
        argv = ["--set", override, "stats", str(sample_file)]
    else:
        sweep = tmp_path / "sweep.ini"
        sweep.write_text(f"[{section}]\n{key} = 8, {value}\n")
        argv = ["ablate", str(sweep), "--out-dir", str(tmp_path / "runs")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "ConfigError"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, value", [
    ("stats", "6%"),    # configparser's interpolation raised its
    ("ablate", "6%"),   # InterpolationSyntaxError traceback: exit 1
    ("ablate", ","),    # a list of no value: an IndexError traceback
    ("ablate", " , ,"),
])
def test_cli_ini_values_reach_the_config_rules(capsys, tmp_path, sample_file,
                                               command, value):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[graph]\nr_c = {value}\n")
    argv = (["--config", str(ini), "stats", str(sample_file)]
            if command == "stats" else
            ["ablate", str(ini), "--out-dir", str(tmp_path / "runs")])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    doc = json.loads(err)["error"]
    assert doc["type"] == "ConfigError" and "r_c" in doc["message"]
    assert not (tmp_path / "runs").exists()


def test_ini_percent_signs_are_literal(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nweights = w%1%%.json\n")
    config = load_config(str(ini))
    assert config.weights_path == "w%1%%.json"
    write_config(config, str(tmp_path / "out.ini"))
    assert load_config(str(tmp_path / "out.ini")) == config


@pytest.mark.parametrize("override", [
    "hw.nas_latency_us=nan",   # exited 0, printed NaN, dropped every event
    "hw.clock_hz=inf",         # printed Infinity as a throughput
    "hw.window_latency_bound_us=-inf",
    "hw.window_latency_bound_us=-1",
])
def test_cli_non_finite_hardware_constant_is_a_config_error(
        capsys, sample_file, override):
    code, out, err = run_cli(capsys, "--set", override, "simulate",
                             str(sample_file))
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "ConfigError"


def test_cli_corrupt_file_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.nas"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code, out, err = run_cli(capsys, "stats", str(bad))
    assert code == 5
    assert json.loads(err)["error"]["type"] == "ParseError"


# Each stream invariant, broken on the last of three events, with the error
# every stream-reading subcommand reports for it.
STREAM_VIOLATIONS = {
    "regression": ([(0, 1, 1), (5, 1, 1), (4, 1, 1)], "OrderingError",
                   "timestamps regress at record 2: 4 < 5"),
    "channel": ([(0, 1, 1), (5, 1, 1), (6, 64, 1)], "ValidationError",
                "record 2: channel 64 outside [0, 64)"),
    "polarity": ([(0, 1, 1), (5, 1, 1), (6, 1, 7)], "ValidationError",
                 "record 2: polarity 7 not in {-1, +1}"),
    "t_overflow": ([(0, 1, 1), (5, 1, 1), (2**32, 1, 1)], "ValidationError",
                   "timestamps must fit in unsigned 32 bits"),
}
STREAM_COMMANDS = {
    "stats": ["stats", "{bad}"],
    "filter": ["filter", "{bad}", "{out}"],
    "infer": ["infer", "{bad}"],
    "simulate": ["simulate", "--filtered", "{bad}"],
}


def _write_events(path, rows):
    """Write rows as they are, bypassing the stream's own checks."""
    if path.suffix == ".csv":
        path.write_text("t,c,p\n" + "".join(f"{t},{c},{p}\n"
                                            for t, c, p in rows))
        return
    records = np.zeros(len(rows), dtype=events._RECORD_DTYPE)
    for name, values in zip("tcp", zip(*rows)):
        records[name] = values
    path.write_bytes(events._HEADER.pack(events.MAGIC, events.FORMAT_VERSION,
                                         64, 0) + records.tobytes())


@pytest.mark.parametrize("violation,command,ext", [
    (violation, command, ext)
    for violation in STREAM_VIOLATIONS for command in STREAM_COMMANDS
    for ext in ("csv", "nas")
    # a binary record's u32 timestamp cannot hold 2**32
    if not (violation == "t_overflow" and ext == "nas")])
def test_cli_domain_violation_is_validation_error(capsys, tmp_path, violation,
                                                  command, ext):
    rows, error_type, message = STREAM_VIOLATIONS[violation]
    bad = tmp_path / f"bad.{ext}"
    _write_events(bad, rows)
    argv = [arg.format(bad=bad, out=tmp_path / f"out.{ext}")
            for arg in STREAM_COMMANDS[command]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": {
        "type": error_type, "message": message, "exit_code": 4}}
    assert not (tmp_path / f"out.{ext}").exists()


@pytest.mark.parametrize("row", ["0,1,300", "0,1,-129",
                                 "99999999999999999999,1,1"])
def test_cli_out_of_range_csv_field_is_one_json_line(capsys, tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"t,c,p\n{row}\n")
    code, out, err = run_cli(capsys, "stats", str(bad))
    assert code in (4, 5)
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["exit_code"] == code


@pytest.mark.parametrize("tolerances,bins", [
    ("a", True),      # a ValueError traceback, exit 1
    ("1,x", True),
    ("1.5", True),
    ("-1", True),     # exit 4 from ts_accuracy
    ("-1", False),    # ignored: no record has a ground-truth bin
    ("0,-3", False),
])
def test_cli_eval_malformed_tolerances_are_config_errors(
        capsys, tmp_path, tolerances, bins):
    records = tmp_path / "records.csv"
    records.write_text("sample_id,y,t,y_hat,t_hat\n"
                       f"a,1,{2 if bins else ''},1,2\n")
    code, out, err = run_cli(capsys, "eval", "--records", str(records),
                             "--tolerances", tolerances)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("row", ["s.nas,1_0,3", "s.nas,+5,3", "s.nas,5,+3",
                                 "s.nas,\u0663,3", "s.nas,5,3_0"])
def test_cli_eval_manifest_integers_are_a_sign_and_ascii_digits(
        capsys, tmp_path, rng, row):
    # int() read the label 1_0 as 10 and +5 as 5, and scored the sample
    write_stream(make_stream(rng, channels=64, n=50, t_max=10_000),
                 str(tmp_path / "s.nas"))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"path,label,end_bin\ns.nas,1,3\n{row}\n",
                        encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--manifest", str(manifest))
    assert code == 5
    assert out == "" and err.count("\n") == 1
    message = json.loads(err)["error"]["message"]
    assert "must be an integer" in message and "(line 3)" in message


def test_cli_eval_empty_manifest_is_validation_error(capsys, tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,end_bin\n")
    code, out, err = run_cli(capsys, "eval", "--manifest", str(manifest))
    assert code == 4


@pytest.mark.parametrize("block,field,value", [
    (0, "scale_shift", 100),      # was an OverflowError traceback, exit 1
    (4, "scale_num", 2**62),      # was a silent int64 wrap, exit 0
    (6, "bias", [2**31 - 1] * 192),  # the gru block: int32 could wrap
    (0, "bias", [2**70] * 72),       # was an OverflowError traceback
    # non-integers were truncated or parsed, and each file ran, exit 0
    (4, "scale_num", 2.9),        # loaded as 2
    (4, "scale_num", 2.5),
    (4, "scale_shift", True),     # loaded as 1
    (7, "scale_shift", "3"),
    (4, "bias", [1.7] * 96),      # loaded as 1
    (8, "bias", [True] * 12),
    (1, "in", 72.0),
    (1, "in", "72"),
    (6, "out", 64.0),
])
def test_cli_weights_beyond_the_integer_datapath_are_validation_errors(
        capsys, tmp_path, sample_file, block, field, value):
    from evkws import random_weights, save_weights

    path = tmp_path / "weights.json"
    save_weights(random_weights(0), str(path))
    doc = json.loads(path.read_text())
    doc["blocks"][block][field] = value
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--set", "sensor.channels=64", "infer",
                             "--weights", str(path), str(sample_file))
    assert code == 4
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("argv,name,body,code", [
    (["stats", "{bad}"], "bad.csv", b"t,c,p\n0,1,\xff\n", 5),
    (["infer", "--weights", "{bad}", "{sample}"], "weights.json",
     b'{"version": "\xff"}', 5),
    (["eval", "--manifest", "{bad}"], "manifest.csv",
     b"path,label,end_bin\n\xff.nas,1,2\n", 5),
    (["eval", "--records", "{bad}"], "records.csv",
     b"sample_id,y,t,y_hat,t_hat\n\xff,1,2,1,2\n", 5),
    (["--config", "{bad}", "stats", "{sample}"], "run.ini",
     b"[graph]\nr_c = \xff\n", 2),
])
def test_cli_non_utf8_input_is_one_json_line(capsys, tmp_path, sample_file,
                                             argv, name, body, code):
    bad = tmp_path / name
    bad.write_bytes(body)
    argv = [a.format(bad=bad, sample=sample_file) for a in argv]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["exit_code"] == code


@pytest.mark.parametrize("argv,name,body", [
    (["eval", "--manifest", "{bad}"], "manifest.csv",
     b"path,label,end_bin\n\x00.nas,1,2\n"),  # open() raises ValueError
    (["eval", "--records", "{bad}"], "records.jsonl",   # int(inf) raises
     b'{"sample_id": "a", "y": 1e999, "y_hat": 1, "t_hat": 9}\n'),
    # floats and booleans loaded truncated, as y=1, y_hat=1, pred_bin=2
    (["eval", "--records", "{bad}"], "records.jsonl",
     b'{"sample_id": "a", "y": 1.9, "y_hat": 1, "t_hat": 2}\n'),
    (["eval", "--records", "{bad}"], "records.jsonl",
     b'{"sample_id": "a", "y": 1, "y_hat": true, "t_hat": 2}\n'),
    (["eval", "--records", "{bad}"], "records.jsonl",
     b'{"sample_id": "a", "y": 1, "y_hat": 1, "t_hat": 2.7}\n'),
    (["eval", "--records", "{bad}"], "records.jsonl",
     b'{"sample_id": "a", "y": 1, "y_hat": 1, "t_hat": 2, "t": 3.0}\n'),
    (["eval", "--records", "{bad}"], "records.jsonl",
     b'{"sample_id": "a", "y": 1, "y_hat": 1, "t_hat": false}\n'),
])
def test_cli_malformed_row_is_one_json_line(capsys, tmp_path, argv, name,
                                             body):
    bad = tmp_path / name
    bad.write_bytes(body)
    code, out, err = run_cli(capsys, *[a.format(bad=bad) for a in argv])
    assert code == 5
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("blocks", [5, [1]])
def test_cli_weight_blocks_not_a_list_of_objects(capsys, tmp_path,
                                                 sample_file, blocks):
    from evkws import random_weights, save_weights

    path = tmp_path / "weights.json"
    save_weights(random_weights(0), str(path))
    doc = json.loads(path.read_text())
    doc["blocks"] = blocks
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--set", "sensor.channels=64", "infer",
                             "--weights", str(path), str(sample_file))
    assert code == 4
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("kind", [["conv"], 3, None, {}, "lstm"])
def test_cli_weight_kind_not_a_known_string(capsys, tmp_path, sample_file,
                                            kind):
    from evkws import random_weights, save_weights

    path = tmp_path / "weights.json"
    save_weights(random_weights(0), str(path))
    doc = json.loads(path.read_text())
    doc["blocks"][5]["kind"] = kind
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--set", "sensor.channels=64", "infer",
                             "--weights", str(path), str(sample_file))
    assert code == 4
    assert out == "" and err.count("\n") == 1
    assert "unknown block kind" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("seed", ["-1", "1_0", "abc", "+5", "", " 5"])
def test_cli_seed_is_a_non_negative_decimal_integer(capsys, sample_file,
                                                    seed):
    # --seed=-1 ended in numpy's ValueError traceback, exit 1
    code, out, err = run_cli(capsys, f"--seed={seed}", "infer",
                             str(sample_file))
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["message"] == (
        f"--seed takes non-negative integers, got {seed!r}")


BEYOND_INT64 = 2**70


@pytest.mark.parametrize("command", ["stats", "infer", "simulate", "eval"])
@pytest.mark.parametrize("key", ["hw.window_us", "filtration.threshold.start",
                                 "filtration.threshold.end"])
def test_cli_integer_settings_beyond_int64_are_config_errors(
        capsys, tmp_path, sample_file, command, key):
    # each ended in an OverflowError traceback, exit 1
    argv = {"stats": ["stats", str(sample_file)],
            "infer": ["infer", str(sample_file)],
            "simulate": ["simulate", str(sample_file)],
            "eval": ["eval", "--manifest", str(tmp_path / "m.csv")]}[command]
    (tmp_path / "m.csv").write_text(f"{sample_file.name},1,3\n")
    code, out, err = run_cli(capsys, "--set", f"{key}={BEYOND_INT64}", *argv)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"]["message"].endswith("[1, 2**63)")


def _read_events(path):
    return events.read_stream(path, events.FORMAT_CSV, SensorConfig(64))


@pytest.mark.parametrize("reader,header,row", [
    (_read_events, "t,c,p", "5,1,1"),
    (_read_manifest, "path,label,end_bin", "s.nas,1,3"),
    (read_records, "sample_id,y,t,y_hat,t_hat", "a,1,2,1,2"),
], ids=["events", "manifest", "records"])
def test_csv_readers_share_one_line_rule(tmp_path, reader, header, row):
    def read(name, text):
        path = tmp_path / name
        path.write_text(text)
        return reader(str(path))

    plain = read("plain.csv", f"{row}\n{row}\n")
    assert len(plain) == 2
    # blank lines skipped, a spaced header on line 1 skipped
    spaced = " " + header.replace(",", " , ") + " "
    assert read("loose.csv", f"{spaced}\n\n{row}\n \t\n{row}\n") == plain
    # a header past line 1 is data, refused where it names its line
    with pytest.raises(ParseError, match=r"must be an integer.*\(line 2\)"):
        read("late.csv", f"{row}\n{header}\n")
    width = header.count(",") + 1
    with pytest.raises(ParseError, match=rf"expected {width} fields, got "
                                         rf"{width + 1} \(line 3\)"):
        read("wide.csv", f"{header}\n{row}\n{row},9\n")


# ------------------------------------------------------- exit-code fuzzing

@pytest.fixture(scope="session")
def fuzz_dir(tmp_path_factory):
    """Valid inputs of every kind the CLI reads, to mutate."""
    from evkws import random_weights, save_weights

    root = tmp_path_factory.mktemp("fuzz")
    stream = make_stream(np.random.default_rng(7), channels=64, n=40,
                         t_max=30_000)
    write_stream(stream, str(root / "sample.nas"))
    write_stream(stream, str(root / "sample.csv"), format="csv")
    save_weights(random_weights(0), str(root / "weights.json"))
    (root / "manifest.csv").write_text(
        "path,label,end_bin\nsample.nas,1,2\nsample.nas,0,\n")
    (root / "records.csv").write_text(
        "sample_id,y,t,y_hat,t_hat\na,0,5,0,5\nb,1,,0,3\n"
        '{"sample_id": "c", "y": 1, "y_hat": 1, "t_hat": 9, "t": 8}\n')
    return root


@st.composite
def _mutated(draw, base: bytes):
    data = bytearray(base)
    byte = st.one_of(st.integers(0, 255),
                     st.sampled_from(list(b'0123456789,-+.e \n\r{}[]":')))
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "delete", "cut"]))
        if op == "cut":
            del data[i:]
        elif op == "insert":
            data.insert(i, draw(byte))
        elif i < len(data):
            if op == "delete":
                del data[i]
            else:
                data[i] = draw(byte)
    return bytes(data)


@pytest.mark.parametrize("base,name,argv", [
    ("sample.csv", "in.csv", ["filter", "{input}", "{dir}/out.csv"]),
    ("sample.nas", "in.nas", ["stats", "{input}"]),
    ("weights.json", "w.json",
     ["infer", "--weights", "{input}", "{dir}/sample.nas"]),
    ("manifest.csv", "m.csv", ["eval", "--manifest", "{input}"]),
    ("records.csv", "r.csv", ["eval", "--records", "{input}"]),
])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_cli_fuzzed_input_exits_cleanly(fuzz_dir, base, name, argv, data):
    """Arbitrary or mutated bytes give exit 0, or exit 2-5 with exactly one
    JSON line on stderr: never exit 1 and never a traceback."""
    original = (fuzz_dir / base).read_bytes()
    body = data.draw(st.one_of(_mutated(original), st.binary(max_size=64)),
                     label="body")
    target = fuzz_dir / name
    target.write_bytes(body)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(input=target, dir=fuzz_dir) for a in argv])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code in (2, 3, 4, 5)
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        assert json.loads(err.getvalue())["error"]["exit_code"] == code
