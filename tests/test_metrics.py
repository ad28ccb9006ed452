from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evkws import (
    EvalRecord,
    EventStream,
    ParseError,
    SensorConfig,
    ValidationError,
    accuracy,
    event_rate_report,
    macro_f1,
    metric_report,
    read_records,
    ts_accuracy,
)

from conftest import make_stream


def rec(y, y_hat, true_bin=None, pred_bin=0, sample_id="s"):
    return EvalRecord(sample_id=sample_id, y=y, y_hat=y_hat,
                      pred_bin=pred_bin, true_bin=true_bin)


# ---------------------------------------------------------------- accuracy

def test_accuracy_hand_case():
    records = [rec(0, 0), rec(1, 1), rec(2, 1), rec(3, 3)]
    assert accuracy(records) == pytest.approx(75.0)


def test_accuracy_needs_records():
    with pytest.raises(ValidationError):
        accuracy([])


# ----------------------------------------------------------- time-to-slot

def test_ts_accuracy_boundary_is_inclusive():
    # |pred - true| == k counts as a hit
    records = [rec(0, 0, true_bin=10, pred_bin=13),
               rec(0, 0, true_bin=10, pred_bin=14)]
    assert ts_accuracy(records, k=3) == pytest.approx(50.0)
    assert ts_accuracy(records, k=4) == pytest.approx(100.0)
    assert ts_accuracy(records, k=2) == pytest.approx(0.0)


def test_ts_accuracy_requires_correct_class():
    records = [rec(0, 1, true_bin=5, pred_bin=5),
               rec(0, 0, true_bin=5, pred_bin=5)]
    assert ts_accuracy(records, k=0) == pytest.approx(50.0)


def test_ts_accuracy_excludes_binless_records():
    records = [rec(0, 0, true_bin=None, pred_bin=3),
               rec(1, 1, true_bin=2, pred_bin=2)]
    assert ts_accuracy(records, k=1) == pytest.approx(100.0)
    with pytest.raises(ValidationError):
        ts_accuracy([rec(0, 0, true_bin=None)], k=1)


def test_ts_accuracy_rejects_negative_k():
    with pytest.raises(ValidationError):
        ts_accuracy([rec(0, 0, true_bin=1)], k=-1)


# ---------------------------------------------------------------- macro f1

def test_macro_f1_hand_case():
    # class 0: tp=2 fp=1 fn=0 -> p=2/3 r=1 f1=0.8 -> 80%
    # class 1: tp=0 fp=0 fn=1 -> f1=0
    records = [rec(0, 0), rec(0, 0), rec(1, 0)]
    avg, per_class = macro_f1(records)
    assert per_class[0] == pytest.approx(80.0, abs=1e-6)
    assert per_class[1] == pytest.approx(0.0)
    assert avg == pytest.approx(40.0, abs=1e-6)


def test_macro_f1_ignores_unsupported_predictions():
    # class 9 never appears as ground truth; predicting it must not add a
    # zero-f1 class to the average
    records = [rec(0, 0), rec(1, 9)]
    avg, per_class = macro_f1(records)
    assert set(per_class) == {0, 1}
    assert avg == pytest.approx(50.0, abs=1e-6)


def test_macro_f1_epsilon_keeps_zero_denominators_finite():
    records = [rec(0, 1)]
    avg, per_class = macro_f1(records)
    assert per_class[0] == pytest.approx(0.0)
    assert np.isfinite(avg)


# ----------------------------------------------------------------- reports

def test_metric_report_fields():
    records = [rec(0, 0, true_bin=4, pred_bin=4),
               rec(1, 1, true_bin=4, pred_bin=9),
               rec(2, 0, true_bin=None, pred_bin=0)]
    report = metric_report(records, ks=(1, 3, 5))
    assert report.record_count == 3
    assert report.excluded_from_ts == 1
    assert report.acc == pytest.approx(accuracy(records))
    assert set(report.ts_acc) == {1, 3, 5}
    # wider tolerance can only help
    assert report.ts_acc[1] <= report.ts_acc[3] <= report.ts_acc[5]
    d = report.to_json_dict()
    assert d["acc"] == report.acc
    assert d["ts_acc"]["3"] == report.ts_acc[3]


def test_metric_report_ts_bounded_by_acc_when_all_eligible():
    records = [rec(0, 0, true_bin=2, pred_bin=2),
               rec(1, 1, true_bin=2, pred_bin=8),
               rec(2, 1, true_bin=1, pred_bin=1)]
    report = metric_report(records, ks=(1,))
    assert report.ts_acc[1] <= report.acc


@given(st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4),
              st.integers(0, 30), st.integers(0, 30)),
    min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_metric_report_properties(raw):
    records = [rec(y, y_hat, true_bin=tb, pred_bin=pb)
               for y, y_hat, tb, pb in raw]
    report = metric_report(records, ks=(0, 1, 2, 4, 8, 32))
    vals = [report.ts_acc[k] for k in (0, 1, 2, 4, 8, 32)]
    assert vals == sorted(vals)
    assert report.ts_acc[32] == pytest.approx(report.acc)
    assert 0.0 <= report.f1_macro <= 100.0
    assert report.excluded_from_ts == 0
    for k in vals:
        assert k <= report.acc + 1e-9


# ------------------------------------------------------------ record files

def test_read_records_jsonl(tmp_path):
    path = tmp_path / "r.jsonl"
    rows = [{"sample_id": "a", "y": 3, "y_hat": 3, "t_hat": 12, "t": 10},
            {"sample_id": "b", "y": 1, "y_hat": 0, "t_hat": 4, "t": None}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    records = read_records(str(path))
    assert records[0] == EvalRecord("a", 3, 3, pred_bin=12, true_bin=10)
    assert records[1].true_bin is None


def test_read_records_csv(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("sample_id,y,t,y_hat,t_hat\na,3,10,3,12\nb,1,,0,4\n")
    records = read_records(str(path))
    assert records[0] == EvalRecord("a", 3, 3, pred_bin=12, true_bin=10)
    assert records[1].true_bin is None
    assert records[1].pred_bin == 4


def test_read_records_reports_line(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("sample_id,y,t,y_hat,t_hat\na,3,10,3,12\nb,x,,0,4\n")
    with pytest.raises(ParseError, match="line 3"):
        read_records(str(path))


@pytest.mark.parametrize("column", [1, 2, 3, 4])
@pytest.mark.parametrize("value", ["1_0", "+5", "\u0663", "1 0", "--1",
                                   "-", "0x1", "\uff15"])
def test_read_records_csv_integers_are_a_sign_and_ascii_digits(
        tmp_path, column, value):
    # int() read 1_0 as 10, +5 as 5 and the Arabic-Indic and full-width
    # digits as 3 and 5, where the JSON rows refuse anything but an integer
    row = ["b", "1", "2", "1", "2"]
    row[column] = value
    path = tmp_path / "r.csv"
    path.write_text("sample_id,y,t,y_hat,t_hat\na,1,2,1,2\n"
                    + ",".join(row) + "\n", encoding="utf-8")
    name = ["y", "t", "y_hat", "t_hat"][column - 1]
    with pytest.raises(ParseError, match=f"{name} must be an integer.*"
                                         "line 3"):
        read_records(str(path))


def test_read_records_csv_reads_negative_integers(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,-1,-0,-1,20\n")
    assert read_records(str(path)) == [
        EvalRecord("a", -1, -1, pred_bin=20, true_bin=0)]


def test_read_records_jsonl_bad_json(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"sample_id": "a", "y": 1, "y_hat": 1}\n{oops\n')
    with pytest.raises(ParseError, match="line 2"):
        read_records(str(path))


@pytest.mark.parametrize("field,value", [
    ("y", 1.9), ("y_hat", True), ("t_hat", 2.7), ("t", 3.0), ("y", False),
    ("t_hat", 1e3), ("y", "3"),
    ("sample_id", None), ("sample_id", ["a"]), ("sample_id", 3),
    ("sample_id", True),
])
def test_read_records_jsonl_refuses_floats_and_booleans(tmp_path, field,
                                                        value):
    # each used to load truncated: y 1.9 as 1, true as 1, t_hat 2.7 as 2;
    # "3" was parsed, and an id null loaded as "None", ["a"] as "['a']"
    row = {"sample_id": "a", "y": 1, "y_hat": 1, "t_hat": 2, "t": 3}
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(row) + "\n"
                    + json.dumps(dict(row, **{"sample_id": "b",
                                              field: value}))
                    + "\n")
    kind = "a string" if field == "sample_id" else "an integer"
    with pytest.raises(ParseError, match=f"{field} must be {kind}.*"
                                         "line 2"):
        read_records(str(path))


# ------------------------------------------------------------ rate report

def test_event_rate_report_reduction(rng):
    cfg = SensorConfig(channels=64)
    pre = [make_stream(rng, n=400, t_max=100_000) for _ in range(3)]
    post = []
    for s in pre:
        keep = np.zeros(len(s), dtype=bool)
        keep[::2] = True
        post.append(EventStream(cfg, s.t[keep], s.c[keep], s.p[keep],
                                sample_id=s.sample_id))
    report = event_rate_report(pre, post)
    assert report["pre"]["total_events"] == 1200
    assert report["post"]["total_events"] == 600
    assert report["reduction_pct"] == pytest.approx(50.0)


def test_event_rate_report_requires_pairing(rng):
    pre = [make_stream(rng, n=10)]
    post = [make_stream(rng, n=5), make_stream(rng, n=5)]
    with pytest.raises(ValidationError):
        event_rate_report(pre, post)


def test_event_rate_report_pre_only(rng):
    pre = [make_stream(rng, n=50)]
    report = event_rate_report(pre)
    assert report["post"] is None
    assert report["reduction_pct"] is None
