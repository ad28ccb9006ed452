"""Classification and timing metrics over per-sample evaluation records.

A record pairs the ground truth (class ``y``, optional end-of-word window
``true_bin``) with the prediction (class ``y_hat``, window ``pred_bin``).
Windows are 10 ms bins, so a timing tolerance ``k`` means "within k bins,
inclusive".

* accuracy: percent of records with ``y_hat == y``.
* ts_accuracy(k): like accuracy but additionally requiring
  ``|pred_bin - true_bin| <= k``; records without a ground-truth bin are
  excluded from both numerator and denominator, and the report notes how
  many were excluded.
* macro F1: per class ``2 * prec * rec / (prec + rec + 1e-12)``, averaged
  over classes that appear in the ground truth; classes only ever predicted
  do not enter the average.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import (ParseError, ValidationError, csv_fields, csv_rows,
                     decimal_int, exact_int)
from .events import EventStream, compute_stats

F1_EPS = 1e-12


@dataclass(frozen=True)
class EvalRecord:
    sample_id: str
    y: int
    y_hat: int
    pred_bin: int = 0
    true_bin: int | None = None

    def __post_init__(self):
        if self.pred_bin < 0:
            raise ValidationError("pred_bin must be non-negative")
        if self.true_bin is not None and self.true_bin < 0:
            raise ValidationError("true_bin must be non-negative")


def accuracy(records: Sequence[EvalRecord]) -> float:
    if not records:
        raise ValidationError("no records to score")
    hits = sum(1 for r in records if r.y_hat == r.y)
    return 100.0 * hits / len(records)


def ts_accuracy(records: Sequence[EvalRecord], k: int) -> float:
    if k < 0:
        raise ValidationError("tolerance k must be non-negative")
    eligible = [r for r in records if r.true_bin is not None]
    if not eligible:
        raise ValidationError("no records carry a ground-truth bin")
    hits = sum(1 for r in eligible
               if r.y_hat == r.y and abs(r.pred_bin - r.true_bin) <= k)
    return 100.0 * hits / len(eligible)


def macro_f1(records: Sequence[EvalRecord]) -> tuple[float, dict[int, float]]:
    """Returns (macro average percent, per-class F1 for supported classes)."""
    if not records:
        raise ValidationError("no records to score")
    supported = sorted({r.y for r in records})
    per_class: dict[int, float] = {}
    for cls in supported:
        tp = sum(1 for r in records if r.y == cls and r.y_hat == cls)
        fp = sum(1 for r in records if r.y != cls and r.y_hat == cls)
        fn = sum(1 for r in records if r.y == cls and r.y_hat != cls)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        per_class[cls] = 100.0 * 2.0 * prec * rec / (prec + rec + F1_EPS)
    return sum(per_class.values()) / len(per_class), per_class


@dataclass(eq=False)
class MetricReport:
    acc: float
    ts_acc: dict[int, float]
    f1_macro: float
    per_class_f1: dict[int, float]
    support: dict[int, int]
    record_count: int
    excluded_from_ts: int

    def to_json_dict(self) -> dict:
        return {
            "acc": self.acc,
            "ts_acc": {str(k): v for k, v in sorted(self.ts_acc.items())},
            "f1_macro": self.f1_macro,
            "per_class_f1": {str(k): v
                             for k, v in sorted(self.per_class_f1.items())},
            "support": {str(k): v for k, v in sorted(self.support.items())},
            "records": self.record_count,
            "excluded_from_ts": self.excluded_from_ts,
        }


def metric_report(records: Sequence[EvalRecord],
                  ks: Sequence[int] = (1, 3)) -> MetricReport:
    """Score a record set at every tolerance in ``ks``.

    Timing accuracy is non-decreasing in k by construction; when every record
    carries a ground-truth bin it is also bounded by plain accuracy, and both
    facts are asserted. With bin-less records excluded the denominators
    differ, so only monotonicity holds.
    """
    acc = accuracy(records)
    f1, per_class = macro_f1(records)
    excluded = sum(1 for r in records if r.true_bin is None)
    ts: dict[int, float] = {}
    if excluded < len(records):
        for k in sorted(set(ks)):
            ts[k] = ts_accuracy(records, k)
    ordered = [ts[k] for k in sorted(ts)]
    assert all(a <= b + 1e-9 for a, b in zip(ordered, ordered[1:]))
    if excluded == 0:
        assert all(v <= acc + 1e-9 for v in ordered)
    support: dict[int, int] = {}
    for r in records:
        support[r.y] = support.get(r.y, 0) + 1
    return MetricReport(acc=acc, ts_acc=ts, f1_macro=f1,
                        per_class_f1=per_class, support=support,
                        record_count=len(records),
                        excluded_from_ts=excluded)


def read_records(path: str) -> list[EvalRecord]:
    """Load records from JSON lines or ``sample_id,y,t,y_hat,t_hat`` CSV.

    A JSON line holds {"sample_id", "y", "y_hat", "t_hat", optional "t"};
    the id must be a string and the other four integers (``exact_int``):
    a float, boolean or string in them is refused. A CSV integer field is
    an optional ``-`` and ASCII digits (``decimal_int``), so ``+5`` and
    ``1_0`` are refused too; an empty ``t`` field means no ground-truth bin.
    """
    records: list[EvalRecord] = []
    for lineno, line in csv_rows(path, "sample_id,y,t,y_hat,t_hat"):
        try:
            if line.startswith("{"):
                doc = json.loads(line)
                sample_id = doc["sample_id"]
                if not isinstance(sample_id, str):
                    raise ValueError("sample_id must be a string, got "
                                     f"{json.dumps(sample_id)}")
                records.append(EvalRecord(
                    sample_id=sample_id,
                    y=exact_int(doc["y"], "y"),
                    y_hat=exact_int(doc["y_hat"], "y_hat"),
                    pred_bin=exact_int(doc.get("t_hat", 0), "t_hat"),
                    true_bin=None if doc.get("t") is None
                    else exact_int(doc["t"], "t")))
            else:
                sample_id, y, t, y_hat, t_hat = csv_fields(
                    path, lineno, line, 5)
                records.append(EvalRecord(
                    sample_id=sample_id, y=decimal_int(y, "y"),
                    true_bin=decimal_int(t, "t") if t else None,
                    y_hat=decimal_int(y_hat, "y_hat"),
                    pred_bin=decimal_int(t_hat, "t_hat")))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                OverflowError) as exc:
            raise ParseError(f"{path}: bad record: {exc}", line=lineno)
    return records


def event_rate_report(pre: Sequence[EventStream],
                      post: Sequence[EventStream] | None = None) -> dict:
    """Stream statistics before and after filtration, plus the reduction.

    ``post`` must pair with ``pre`` sample for sample. The reduction is
    :func:`reduction_pct` of the pre- and post-filter event totals.
    """
    report: dict = {"pre": compute_stats(pre).to_json_dict(),
                    "post": None, "reduction_pct": None}
    if post is not None:
        if len(post) != len(pre):
            raise ValidationError(
                f"pre has {len(pre)} samples, post has {len(post)}")
        for a, b in zip(pre, post):
            if a.config != b.config:
                raise ValidationError("pre/post sensor configs differ")
            if a.sample_id != b.sample_id:
                raise ValidationError(
                    f"sample mismatch: {a.sample_id!r} vs {b.sample_id!r}")
        post_stats = compute_stats(post)
        report["post"] = post_stats.to_json_dict()
        report["reduction_pct"] = reduction_pct(
            report["pre"]["total_events"], post_stats.total_events)
    return report


def reduction_pct(events_in: int, events_out: int) -> float | None:
    """Percent of the input events that filtration removed; None when the
    input holds no events (0/0: nothing to reduce)."""
    return 100.0 * (1.0 - events_out / events_in) if events_in else None
