"""Workload table, sample jobs and output digests of the evkws benchmark.

A workload fixes a stream shape and the pipeline parameters; the seed only
picks which streams are drawn. A sample job takes one generated file
through the public API, from decoding the file to the final result, and
returns the outputs that the digest covers. Jobs resolve every layer
function through its module attribute at call time (``events.read_stream``,
``engine.run``, ...), so a traced run can wrap those attributes from the
outside without touching the package.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

import evkws.events as events
import evkws.filtering as filtering
import evkws.graph as graph
import evkws.hwmodel as hwmodel
import evkws.inference as inference
import evkws.model as model

WEIGHTS_SEED = 5  # the README quick-start stand-in model
WEIGHTS_FILE = "weights.json"
MANIFEST_FILE = "manifest.json"


@dataclass(frozen=True)
class Workload:
    """Stream shape, pipeline parameters and sample count of one workload."""

    name: str
    channels: int
    rate_eps: float          # mean events per second on every channel
    duration_us: int         # length of each sample stream
    samples: int             # distinct streams drawn per seed
    fmt: str                 # file format the program decodes
    graph: tuple[int, int, int, int]      # r_c, skip_step, r_t_low, r_t_high
    filtration: tuple | None  # div_factor, weight, kind, start, end
    inference: bool          # engine job; otherwise the hardware-timing job


# Streams are short (under a second of host time per sample at seed speed):
# each job then lies close in time to the calibration runs around it, which
# is what makes its scaled time steady (see calibrate.py), and a run holds
# dozens of jobs. stream_infer's 25 ms samples spread 3% between seeds where
# 50 ms ones spread 6%.
WORKLOADS = {
    "stream_infer": Workload(
        "stream_infer", 64, 700.0, 25_000, 8, events.FORMAT_BINARY,
        (6, 1, 0, 5000), (10, 32, "constant", 48, 48), True),
    "wide_raw": Workload(
        "wide_raw", 128, 700.0, 20_000, 4, events.FORMAT_BINARY,
        (10, 2, 100, 5000), None, True),
    "hw_timing": Workload(
        "hw_timing", 64, 625.0, 1_000_000, 4, events.FORMAT_CSV,
        (10, 1, 0, 5000), (8, 32, "exponential", 64, 32), False),
}


def sample_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def generate(wl: Workload, seed: int, out_dir: str) -> dict:
    """Write the seed's sample streams (and weights) and their manifest."""
    os.makedirs(out_dir, exist_ok=True)
    config = events.SensorConfig(wl.channels)
    ext = "csv" if wl.fmt == events.FORMAT_CSV else "nas"
    samples = []
    for i, s in enumerate(sample_seeds(seed, wl.samples)):
        stream = events.synth_stream(s, config, wl.duration_us, wl.rate_eps,
                                     sample_id=f"sample{i}")
        name = f"sample{i}.{ext}"
        events.write_stream(stream, os.path.join(out_dir, name), wl.fmt)
        samples.append({"file": name, "events": len(stream),
                        "stream_s": wl.duration_us / events.US_PER_S})
    if wl.inference:
        model.save_weights(model.random_weights(WEIGHTS_SEED),
                           os.path.join(out_dir, WEIGHTS_FILE))
    manifest = {"workload": wl.name, "seed": seed, "samples": samples}
    with open(os.path.join(out_dir, MANIFEST_FILE), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def _filtration(wl: Workload):
    if wl.filtration is None:
        return None
    div_factor, weight, kind, start, end = wl.filtration
    return filtering.FiltrationParams.from_schedule(
        filtering.ThresholdSchedule(kind, start, end), div_factor, weight,
        wl.channels)


class InferenceJob:
    """Binary ``read_stream`` -> ``engine.run`` -> ``summarize_predictions``."""

    def __init__(self, wl: Workload, inputs_dir: str):
        start = time.perf_counter()
        weights = model.load_weights(os.path.join(inputs_dir, WEIGHTS_FILE))
        self.load_s = time.perf_counter() - start
        graph_params = graph.GraphParams(*wl.graph)
        self.conv_layers = weights.conv_layers
        self.max_degree = graph_params.max_degree
        self.fmt = wl.fmt
        self.engine = inference.InferenceEngine(weights, graph_params,
                                                _filtration(wl))

    def __call__(self, path: str):
        stream = events.read_stream(path, self.fmt)
        predictions = self.engine.run(stream)
        return predictions, inference.summarize_predictions(predictions)

    @staticmethod
    def digest(outputs) -> str:
        predictions, summary = outputs
        doc = {"windows": [[int(p.window_index), [int(v) for v in p.logits],
                            int(p.conf)] for p in predictions],
               "summary": None if summary is None else [int(v) for v in summary]}
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


class HwTimingJob:
    """CSV ``read_stream`` -> ``filter_stream`` -> ``edges_per_event``
    -> ``simulate`` -> ``latency_report``, as ``evkws simulate --filtered``."""

    load_s = 0.0  # no model to load
    conv_layers = ()

    def __init__(self, wl: Workload, inputs_dir: str):
        self.config = events.SensorConfig(wl.channels)
        self.graph_params = graph.GraphParams(*wl.graph)
        self.max_degree = self.graph_params.max_degree
        self.filtration = _filtration(wl)
        self.hw = hwmodel.HwParams()
        self.fmt = wl.fmt

    def __call__(self, path: str):
        stream = events.read_stream(path, self.fmt, self.config)
        kept = filtering.filter_stream(stream, self.filtration)
        edges = graph.edges_per_event(kept, self.graph_params)
        trace = hwmodel.simulate(kept, edges, self.hw)
        report = hwmodel.latency_report(trace)
        return kept, edges, report, trace.window_to_prediction_us

    @staticmethod
    def digest(outputs) -> str:
        kept, edges, report, _ = outputs
        h = hashlib.sha256()
        for column in (kept.t, kept.c, kept.p, edges):
            h.update(np.asarray(column, dtype=np.int64).tobytes())
        h.update(json.dumps(report, sort_keys=True).encode())
        return h.hexdigest()[:16]


def make_job(wl: Workload, inputs_dir: str):
    return (InferenceJob if wl.inference else HwTimingJob)(wl, inputs_dir)


def sim_stats(outputs: list) -> dict:
    """Simulated-time statistics over one pass of hardware-timing samples.

    Every value is in simulated time or a count from the cycle model, so it
    must repeat exactly under any change that only speeds up the code.
    """
    reports = [o[2] for o in outputs]
    w2p = [v for o in outputs for v in o[3]]
    return {
        "sim_stalls": sum(r["stalls"] for r in reports),
        "sim_overflows": sum(r["overflows"] for r in reports),
        "sim_max_queue_depth": max(r["max_queue_depth"] for r in reports),
        "sim_w2p_p50_us": statistics.median(w2p) if w2p else 0.0,
        "sim_w2p_max_us": max(w2p) if w2p else 0.0,
        "sim_bound_exceeded_windows": sum(
            r.get("bound_exceeded_windows", 0) for r in reports),
    }
