"""Acceptance gate: one test per release criterion.

Each test prints one PASS/FAIL line through the summary hook in conftest.
Criterion 8 needs the released dataset and trained weights; it skips with an
explanation unless EVKWS_DATASET_DIR and EVKWS_WEIGHTS point at them.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from evkws import (
    EventStream,
    FiltrationParams,
    GraphBuilder,
    GraphParams,
    HeadState,
    HwParams,
    SensorConfig,
    calibrate_cycle_model,
    filter_stream,
    head_forward,
    latency_report,
    simulate,
    synth_stream,
    throughput_envelope,
)
from evkws.graph import CHUNK
from evkws.model import ModelWeights, random_weights

from conftest import events_of
from oracles import (
    brute_force_neighbors,
    ref_head_forward,
    ref_pointnet_conv,
    transcribed_filter,
)
from test_inference import (
    as_oracle_block,
    conv_one,
    rand_conv,
    rand_gru,
    rand_linear,
)


def _random_sorted_stream(rng, channels, n, t_max):
    t = np.sort(rng.integers(0, t_max, size=n)).astype(np.int64)
    c = rng.integers(0, channels, size=n).astype(np.int32)
    p = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    return EventStream(SensorConfig(channels), t, c, p)


def test_criterion_1_filter_matches_transcription():
    """Streaming filter equals the rule transcription on 1000 random streams,
    channel counts 32/64/128, exact; under 10 seconds."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for trial in range(1000):
        channels = int(rng.choice([32, 64, 128]))
        n = int(rng.integers(20, 320))
        stream = _random_sorted_stream(rng, channels, n, t_max=200_000)
        thresholds = rng.integers(1, 257, size=channels).astype(np.int64)
        params = FiltrationParams(
            div_factor=int(rng.integers(0, 13)),
            weight=int(rng.integers(0, 129)),
            thresholds=thresholds)
        got = events_of(filter_stream(stream, params))
        events = events_of(stream)
        expected_idx = transcribed_filter(events, params.div_factor,
                                          params.weight,
                                          thresholds.tolist())
        assert got == [events[i] for i in expected_idx], f"trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_worked_filtration_examples():
    """The four worked filtration examples reproduce exactly."""
    cfg = SensorConfig(channels=64)

    def params(weight, theta, div_factor=8):
        return FiltrationParams(div_factor=div_factor, weight=weight,
                                thresholds=np.full(64, theta,
                                                   dtype=np.int64))

    # (a) empty stream passes through empty
    out = filter_stream(EventStream.empty(cfg), params(32, 64))
    assert len(out) == 0

    # (b) threshold equal to the weight accepts everything
    stream = EventStream.from_events(cfg, [(0, 0, 1), (7, 3, -1),
                                           (7, 3, 1), (900, 63, 1)])
    out = filter_stream(stream, params(32, 32))
    assert events_of(out) == events_of(stream)

    # (c) events at 0/100/300: second crosses 64, first and third stay at 32
    stream = EventStream.from_events(cfg, [(0, 0, 1), (100, 0, 1),
                                           (300, 0, 1)])
    out = filter_stream(stream, params(32, 64))
    assert out.t.tolist() == [100]

    # (d) events at 0/1000: decay floor(1000/256)=3 leaves 61 < 64
    stream = EventStream.from_events(cfg, [(0, 0, 1), (1000, 0, 1)])
    out = filter_stream(stream, params(32, 64))
    assert len(out) == 0


def test_criterion_3_incremental_graph_matches_brute_force():
    """Batched neighbor tables (two chunk sizes) equal the stateless
    full-history scan on a 10^4-event stream for 20 random parameter draws,
    and so do one-event inserts over the first 1000 events; the degree bound
    2*floor(r_c/skip) is never exceeded."""
    rng = np.random.default_rng(7)
    n = 10_000
    for trial in range(20):
        channels = int(rng.choice([32, 64, 128]))
        stream = _random_sorted_stream(rng, channels, n, t_max=1_000_000)
        r_t_low = int(rng.integers(0, 2000))
        params = GraphParams(
            r_c=int(rng.integers(0, 13)),
            skip_step=int(rng.integers(1, 5)),
            r_t_low=r_t_low,
            r_t_high=r_t_low + int(rng.integers(0, 20_000)))
        t, c = stream.t, stream.c
        expect = [brute_force_neighbors(t[:i], c[:i], channels, event, params)
                  for i, event in enumerate(events_of(stream))]
        for chunk in (CHUNK, 1000):
            builder = GraphBuilder(channels, params)
            for start in range(0, n, chunk):
                table = builder.insert(t[start:start + chunk],
                                       c[start:start + chunk])
                assert (table.valid.sum(axis=0) <= params.max_degree).all()
                for i, ch in enumerate(c[start:start + chunk].tolist()):
                    assert table.pairs(i, ch) == expect[start + i], \
                        f"trial {trial}, chunk {chunk}, event {start + i}"
        builder = GraphBuilder(channels, params)
        for i in range(1000):  # one-event inserts cost ~70 us each
            ch = int(c[i])
            assert builder.insert(t[i:i + 1], c[i:i + 1]).pairs(0, ch) == \
                expect[i], f"trial {trial}, one-event insert {i}"


def test_criterion_4_quantized_layers_match_integer_oracle():
    """Convolution stages and the full head are bit-exact against the
    plain-Python integer oracle on 1000 random cases each."""
    rng = np.random.default_rng(11)

    for case in range(1000):
        # mostly small widths, occasionally the full-size stage
        if case % 100 == 0:
            in_w, out_w = 72, 72
        else:
            in_w = int(rng.integers(1, 9))
            out_w = int(rng.integers(1, 9))
        layer = rand_conv(rng, in_w, out_w)
        center = rng.integers(-128, 128, size=in_w).astype(np.int8)
        neighbors = [
            (rng.integers(-128, 128, size=in_w).astype(np.int8),
             int(rng.integers(-127, 128)), int(rng.integers(0, 10_000)))
            for _ in range(int(rng.integers(0, 9)))
        ]
        got = conv_one(layer, center, neighbors)
        expect = ref_pointnet_conv(
            layer.weight.tolist(), layer.bias.tolist(),
            layer.scale_num, layer.scale_shift, center.tolist(),
            [(f.tolist(), dc, dt) for f, dc, dt in neighbors])
        assert got.tolist() == expect, f"conv case {case}"

    for case in range(1000):
        if case % 200 == 0:
            weights = random_weights(int(rng.integers(0, 2**31)))
            pool_w = 72
        else:
            pool_w = int(rng.integers(1, 9))
            convs = [rand_conv(rng, 3, pool_w)] + [
                rand_conv(rng, pool_w, pool_w) for _ in range(3)]
            head = [rand_linear(rng, pool_w, int(rng.integers(1, 9)))]
            head.append(rand_gru(rng, head[-1].out_width,
                                 int(rng.integers(1, 9))))
            n_classes = int(rng.integers(1, 5))
            head.append(rand_linear(rng, head[-1].out_width, n_classes + 1))
            weights = ModelWeights(conv_layers=convs, head_blocks=head,
                                   class_count=n_classes)
        state = HeadState.fresh(weights)
        oracle_hidden = [h.tolist() for h in state.hidden]
        blocks = [as_oracle_block(b) for b in weights.head_blocks]
        for step in range(2):  # recurrence exercised across two windows
            pooled = rng.integers(0, 128, size=pool_w).astype(np.int8)
            pred, state = head_forward(weights, pooled, state, step)
            logits, conf, oracle_hidden = ref_head_forward(
                blocks, pooled.tolist(), oracle_hidden)
            assert pred.logits.tolist() == logits, f"head case {case}"
            assert pred.conf == conf, f"head case {case}"
            assert [h.tolist() for h in state.hidden] == oracle_hidden


def test_criterion_5_latency_model_reproduces_figures():
    """Calibration yields (58, 36) cycles; per-event latencies 0.47/4.07 us
    exactly; throughput envelope 2.128 MEv/s to 245.7 kEv/s; end-to-end
    best ~25 us and worst bound <= 42 us."""
    cal = calibrate_cycle_model()
    assert (cal.cycle_base, cal.cycle_per_vertex) == (58, 36)
    assert cal.residual_cycles == pytest.approx(0.0, abs=1e-9)

    params = HwParams()
    assert params.latency_us(0) == 0.47
    assert params.latency_us(20) == 4.07

    best_eps, worst_eps = throughput_envelope(params)
    assert round(best_eps / 1e6, 3) == 2.128
    assert round(worst_eps / 1e3, 1) == 245.7

    best_e2e = params.nas_latency_us + params.head_latency_us
    worst_e2e = params.nas_latency_us + params.window_latency_bound_us
    assert round(best_e2e) == 25
    assert worst_e2e == pytest.approx(41.62)
    assert worst_e2e <= 42.0


def test_criterion_6_event_driven_sim_is_stable():
    """A 40 kEv/s one-second load with on-average 18 edges per event runs
    without FIFO overflow and with a small bounded queue; under 30 s."""
    start = time.perf_counter()
    cfg = SensorConfig(channels=64)
    # 625 ev/s per channel * 64 channels = 40 kEv/s
    stream = synth_stream(42, cfg, duration_us=1_000_000, rate_profile=625)
    assert len(stream) == pytest.approx(40_000, rel=0.03)

    rng = np.random.default_rng(42)
    edges = rng.integers(16, 21, size=len(stream))
    assert float(edges.mean()) == pytest.approx(18.0, abs=0.1)

    trace = simulate(stream, edges, HwParams())
    assert trace.overflow_count == 0
    assert not trace.dropped.any()
    assert trace.max_queue_depth <= 32  # far below the 1024-deep FIFO
    report = latency_report(trace)
    assert report["windows"] == 100
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_7_metrics_match_hand_computed():
    """Metric formulas reproduce a hand-worked confusion fixture, keep the
    never-predicted class finite through the epsilon guard, and count the
    |predicted - true| == k boundary as a hit."""
    from evkws import EvalRecord, accuracy, macro_f1, metric_report, \
        ts_accuracy

    records = [
        EvalRecord("r1", y=0, y_hat=0, pred_bin=13, true_bin=10),
        EvalRecord("r2", y=0, y_hat=0, pred_bin=14, true_bin=10),
        EvalRecord("r3", y=1, y_hat=0, pred_bin=5, true_bin=5),
        EvalRecord("r4", y=2, y_hat=2, pred_bin=0, true_bin=None),
    ]
    # class hits: r1, r2, r4 -> 3/4
    assert accuracy(records) == pytest.approx(75.0)

    # r4 has no ground-truth bin and leaves both sides of the ratio;
    # r3 is class-wrong; r1 sits exactly on the k=3 boundary (inclusive)
    assert ts_accuracy(records, k=3) == pytest.approx(100 / 3)
    assert ts_accuracy(records, k=4) == pytest.approx(200 / 3)
    assert ts_accuracy(records, k=2) == pytest.approx(0.0)

    # class 0: tp=2 fp=1 fn=0 -> f1 80%; class 1: never predicted, the
    # epsilon guard keeps 0/0 at zero; class 2: perfect
    avg, per_class = macro_f1(records)
    assert per_class[0] == pytest.approx(80.0, abs=1e-6)
    assert per_class[1] == pytest.approx(0.0)
    assert per_class[2] == pytest.approx(100.0, abs=1e-6)
    assert avg == pytest.approx(60.0, abs=1e-6)
    assert np.isfinite(avg)

    report = metric_report(records, ks=(2, 3, 4))
    assert report.excluded_from_ts == 1
    assert report.ts_acc[2] <= report.ts_acc[3] <= report.ts_acc[4]


needs_dataset = pytest.mark.skipif(
    not (os.environ.get("EVKWS_DATASET_DIR")
         and os.environ.get("EVKWS_WEIGHTS")),
    reason="needs the released recordings and trained weights: set "
           "EVKWS_DATASET_DIR to a directory with a test-split manifest.csv "
           "(path,label,end_bin) and EVKWS_WEIGHTS to the weight file; "
           "the headline accuracy is not reproducible from synthetic data")


@needs_dataset
def test_criterion_8_pretrained_accuracy():
    """With the released test split and trained weights: accuracy within
    0.5 points of 87.43 and event reduction within 3 points of 47."""
    from evkws import load_config, load_weights, metric_report, \
        event_rate_report, read_stream
    from evkws.cli import _eval_one

    dataset_dir = os.environ["EVKWS_DATASET_DIR"]
    weights_path = os.environ["EVKWS_WEIGHTS"]
    manifest = os.path.join(dataset_dir, "manifest.csv")
    config = load_config(os.environ.get("EVKWS_CONFIG"))
    weights = load_weights(weights_path)

    from evkws.cli import _read_manifest
    tasks = [(path, label, end_bin, config, weights)
             for path, label, end_bin in _read_manifest(manifest)]
    records = [_eval_one(task) for task in tasks]
    report = metric_report(records)
    assert report.acc == pytest.approx(87.43, abs=0.5)

    pre = [read_stream(path, config=config.sensor) for path, _, _, _, _
           in tasks]
    post = [filter_stream(s, config.filtration_params()) for s in pre]
    reduction = event_rate_report(pre, post)["reduction_pct"]
    assert reduction == pytest.approx(47.0, abs=3.0)
