"""Tests of the benchmark's own machinery.

Run with: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import evkws.hwmodel  # noqa: E402
import evkws.inference  # noqa: E402
from run import timing  # noqa: E402
from spans import Tracer, span_table  # noqa: E402
from worker import LAYER_UNITS, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate, make_job, sim_stats  # noqa: E402


def test_self_time_on_nested_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7];
    # a second root c runs [11, 12.5].
    names = ["a", "b", "c"]
    name_id = [0, 1, 2, 1, 2]
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 7.0, 12.5]
    table = span_table(names, name_id, parent, start, end)
    assert table["a"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert table["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert table["c"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}


def test_tracer_records_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    with tracer.span("outer"):
        pass
    cols = tracer.arrays()
    assert cols["parent"].tolist() == [-1, 0, 0, -1]
    assert [tracer.names[i] for i in cols["name_id"]] == \
        ["outer", "inner", "inner", "outer"]
    table = tracer.table()
    assert table["outer"]["calls"] == 2 and table["inner"]["calls"] == 2
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["total_s"] - table["inner"]["total_s"])


def _tiny(name: str, tmp_path: Path, duration_us: int):
    wl = dataclasses.replace(WORKLOADS[name], duration_us=duration_us,
                             samples=1)
    manifest = generate(wl, 3, str(tmp_path))
    return wl, str(tmp_path / manifest["samples"][0]["file"])


@pytest.mark.parametrize("name,duration_us", [("stream_infer", 20_000),
                                              ("hw_timing", 30_000)])
def test_digest_is_stable_on_tiny_stream(tmp_path, name, duration_us):
    wl, path = _tiny(name, tmp_path, duration_us)
    job = make_job(wl, str(tmp_path))
    first = job(path)
    digest = job.digest(first)
    assert job.digest(job(path)) == digest
    fresh = make_job(wl, str(tmp_path))
    assert fresh.digest(fresh(path)) == digest
    for seed, same in ((3, True), (4, False)):
        other = tmp_path / f"seed{seed}"
        other.mkdir()
        generate(wl, seed, str(other))
        again = job.digest(job(str(other / Path(path).name)))
        assert (again == digest) is same
    if not wl.inference:
        assert sim_stats([first]) == sim_stats([job(path)])


def test_absent_target_is_reported_not_fatal(tmp_path, monkeypatch):
    wl, path = _tiny("stream_infer", tmp_path, 20_000)
    job = make_job(wl, str(tmp_path))
    reference = job.digest(job(path))
    original_conv = evkws.inference.pointnet_conv
    monkeypatch.delattr(evkws.hwmodel, "simulate")

    tracer = Tracer()
    install(tracer, job)
    try:
        assert tracer.wrap("evkws.no_such_module.f", "x") is False
        assert tracer.wrap("evkws.inference.WindowPool.no_such", "x") is False
        with tracer.span("sample"):
            assert job.digest(job(path)) == reference
    finally:
        tracer.uninstall()

    assert evkws.inference.pointnet_conv is original_conv
    assert tracer.absent == ["evkws.hwmodel.simulate",
                             "evkws.no_such_module.f",
                             "evkws.inference.WindowPool.no_such"]
    layers = layer_metrics(tracer, 1, job.load_s, None, 1.0)
    assert list(layers) == list(LAYER_UNITS)
    assert layers["hwmodel.simulate_s"]["value"] == 0.0
    assert layers["inference.conv4_s"]["value"] > 0.0
    assert layers["inference.run_s"]["value"] >= sum(
        layers[f"inference.conv{k}_s"]["value"] for k in range(1, 5))
    assert layers["inference.vertices"]["value"] == \
        tracer.counts["graph.inserts"] + layers["graph.edges"]["value"]


def test_times_are_scaled_by_the_calibration_beside_them():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale([ref / 2, ref * 1.5]) == pytest.approx(1.0)
    # The same job met a fast, a normal and a slow spell of the host: raw
    # times spread 3x, scaled ones agree.
    runs = [{"i": 0, "s": 1.0, "cal": [ref / 2, ref / 2]},
            {"i": 0, "s": 2.0, "cal": [ref, ref]},
            {"i": 0, "s": 3.0, "cal": [ref * 1.4, ref * 1.6]}]
    out = timing(runs, lambda r: r["s"])
    assert out["value"] == pytest.approx(2.0)
    assert out["raw"]["median"] == 2.0 and out["n"] == 3
    assert calibrate.kernel() == calibrate.kernel()
