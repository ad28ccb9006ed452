"""One measured process of the evkws benchmark.

``run.py`` starts this script in a fresh interpreter for every set-up probe
and for the measured run, so set-up time and peak memory belong to one
workload. The measured run is a closed loop with one client: each sample
job starts after the previous one finished, cycling over the seed's
samples, after one untimed warm-up pass. Each sample job is followed by a
run of the calibration kernel (``calibrate.py``), whose times before and
after the job say how fast the host was meanwhile. With ``--trace 1``
untraced and traced passes over the samples alternate, and the traced
passes give the per-layer metrics.

Usage: python3 bench/worker.py --workload W --inputs DIR
                               [--seconds S] [--trace 0|1] [--setup-only]

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy as np

import calibrate
import evkws
from spans import Tracer
from workloads import MANIFEST_FILE, WORKLOADS, make_job, sim_stats

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(
    __file__))), "src")

# name -> unit of every per-layer metric. Times are host seconds per traced
# pass over the seed's samples, counts are per pass; "us_sim" marks
# simulated time of the hardware model.
LAYER_UNITS = {
    "events.decode_s": "s",
    "events.decode_ns_per_event": "ns",
    "filtering.busy_s": "s",
    "filtering.events_in": "count",
    "filtering.events_kept": "count",
    "filtering.keep_ratio": "ratio",
    "graph.busy_s": "s",
    "graph.edges": "count",
    "graph.mean_degree": "edges",
    "graph.bound_hit_ratio": "ratio",
    "quant.requantize_s": "s",
    "quant.requantize_calls": "count",
    "quant.requantize_elems": "count",
    "inference.run_s": "s",
    "inference.first_layer_s": "s",
    "inference.conv1_s": "s",
    "inference.conv2_s": "s",
    "inference.conv3_s": "s",
    "inference.conv4_s": "s",
    "inference.engine_self_s": "s",
    "inference.vertices": "count",
    "inference.pool_s": "s",
    "inference.head_s": "s",
    "inference.windows": "count",
    "inference.empty_windows": "count",
    "model.load_s": "s",
    "hwmodel.simulate_s": "s",
    "hwmodel.report_s": "s",
    "hwmodel.sim_stalls": "count",
    "hwmodel.sim_overflows": "count",
    "hwmodel.sim_max_queue_depth": "count",
    "hwmodel.sim_w2p_p50_us": "us_sim",
    "hwmodel.sim_w2p_max_us": "us_sim",
    "hwmodel.sim_bound_exceeded_windows": "count",
    "trace.overhead_ratio": "ratio",
}


def install(tracer: Tracer, job) -> None:
    """Wrap every layer function the jobs reach through a module attribute."""
    counts = tracer.counts
    run_span = tracer.name_index("inference.run")
    conv_names = {id(layer): f"inference.conv{k}"
                  for k, layer in enumerate(job.conv_layers, start=1)}

    def decoded(args, stream):
        counts["events.decoded"] += len(stream)

    def filtered(args, kept):
        counts["filtering.in"] += len(args[0])
        counts["filtering.kept"] += len(kept)

    def inserted(args, neighbor_set):
        degree = len(neighbor_set)
        counts["graph.inserts"] += 1
        counts["graph.edges"] += degree
        counts["graph.bound_hits"] += degree == job.max_degree
        if tracer.current() == run_span:
            counts["inference.vertices"] += 1 + degree

    def requantized(args, out):
        counts["quant.calls"] += 1
        counts["quant.elems"] += np.size(args[0])

    def pooled(args, emitted):
        counts["inference.windows"] += len(emitted)
        counts["inference.empty_windows"] += sum(
            not vector.any() for _, vector in emitted)

    for dotted, name, on_result in (
            ("evkws.events.read_stream", "events.decode", decoded),
            ("evkws.inference.InferenceEngine.run", "inference.run", None),
            ("evkws.inference.filter_stream", "filtering.filter", filtered),
            ("evkws.filtering.filter_stream", "filtering.filter", filtered),
            ("evkws.graph.GraphBuilder.insert_event", "graph.insert",
             inserted),
            ("evkws.graph.edges_per_event", "graph.edges_per_event", None),
            ("evkws.inference.first_layer_inputs", "inference.first_layer",
             None),
            ("evkws.inference.pointnet_conv",
             lambda args: conv_names.get(id(args[0]), "inference.conv"),
             None),
            ("evkws.inference.requantize", "quant.requantize", requantized),
            ("evkws.inference.WindowPool.push", "inference.pool", pooled),
            ("evkws.inference.WindowPool.flush", "inference.pool", pooled),
            ("evkws.inference.head_forward", "inference.head", None),
            ("evkws.hwmodel.simulate", "hwmodel.simulate", None),
            ("evkws.hwmodel.latency_report", "hwmodel.report", None)):
        tracer.wrap(dotted, name, on_result)


def layer_metrics(tracer: Tracer, passes: int, load_s: float,
                  sim: dict | None, overhead_ratio: float) -> dict:
    """Per-layer values from the traced passes, in ``LAYER_UNITS`` order."""
    table = tracer.table()

    def total(name):
        return table.get(name, {}).get("total_s", 0.0) / passes

    def own(name):
        return table.get(name, {}).get("self_s", 0.0) / passes

    def count(name):
        return tracer.counts.get(name, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    inserts = count("graph.inserts")
    values = {
        "events.decode_s": total("events.decode"),
        "events.decode_ns_per_event": ratio(total("events.decode") * 1e9,
                                            count("events.decoded")),
        "filtering.busy_s": total("filtering.filter"),
        "filtering.events_in": count("filtering.in"),
        "filtering.events_kept": count("filtering.kept"),
        "filtering.keep_ratio": ratio(count("filtering.kept"),
                                      count("filtering.in")),
        "graph.busy_s": total("graph.insert"),
        "graph.edges": count("graph.edges"),
        "graph.mean_degree": ratio(count("graph.edges"), inserts),
        "graph.bound_hit_ratio": ratio(count("graph.bound_hits"), inserts),
        "quant.requantize_s": total("quant.requantize"),
        "quant.requantize_calls": count("quant.calls"),
        "quant.requantize_elems": count("quant.elems"),
        "inference.run_s": total("inference.run"),
        "inference.first_layer_s": own("inference.first_layer"),
        **{f"inference.conv{k}_s": own(f"inference.conv{k}")
           for k in range(1, 5)},
        "inference.engine_self_s": own("inference.run"),
        "inference.vertices": count("inference.vertices"),
        "inference.pool_s": own("inference.pool"),
        "inference.head_s": own("inference.head"),
        "inference.windows": count("inference.windows"),
        "inference.empty_windows": count("inference.empty_windows"),
        "model.load_s": load_s,
        "hwmodel.simulate_s": total("hwmodel.simulate"),
        "hwmodel.report_s": total("hwmodel.report"),
        **{f"hwmodel.{k}": v for k, v in (sim or {}).items()},
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_UNITS.items()}


def host_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {"nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


class Loop:
    """Runs sample jobs and keeps what the checks need."""

    def __init__(self, job, paths: list[str], keep_outputs: bool):
        self.job = job
        self.paths = paths
        self.keep_outputs = keep_outputs
        self.records: list[dict] = []
        self.first_digest: list[str | None] = [None] * len(paths)
        self.first_outputs: list = [None] * len(paths)
        self.calibration = calibrate.seconds()

    def sample(self, i: int, traced: bool = False,
               warmup: bool = False) -> dict:
        start = time.perf_counter()
        try:
            outputs = self.job(self.paths[i])
        except Exception as exc:  # a failing sample is counted; the run goes on
            record = {"i": i, "s": time.perf_counter() - start,
                      "traced": traced, "error": f"{type(exc).__name__}: {exc}"}
        else:
            seconds = time.perf_counter() - start
            digest = self.job.digest(outputs)
            if self.first_digest[i] is None:
                self.first_digest[i] = digest
                if self.keep_outputs:
                    self.first_outputs[i] = outputs
            record = {"i": i, "s": seconds, "traced": traced,
                      "digest": digest}
        record["warmup"] = warmup
        record["cal"] = [self.calibration, calibrate.seconds()]
        self.calibration = record["cal"][1]
        self.records.append(record)
        return record

    def warm_up(self) -> None:
        for i in range(len(self.paths)):
            self.sample(i, warmup=True)

    def run_for(self, seconds: float) -> None:
        """Samples in turn until the next would end past ``seconds``;
        always at least one whole pass."""
        start = time.perf_counter()
        n = 0
        while True:
            record = self.sample(n % len(self.paths))
            n += 1
            if n >= len(self.paths) and \
                    time.perf_counter() - start + record["s"] > seconds:
                return

    def run_pairs(self, seconds: float, traced_pass) -> int:
        """Alternate an untraced and a traced pass (``traced_pass(self)``)
        until the next pair would end past ``seconds``; returns the pairs."""
        start = time.perf_counter()
        pairs = 0
        while True:
            began = time.perf_counter()
            for i in range(len(self.paths)):
                self.sample(i)
            traced_pass(self)
            pairs += 1
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                return pairs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.realpath(evkws.__file__).startswith(SRC + os.sep):
        print(f"worker: evkws imported from {evkws.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    job = make_job(wl, args.inputs)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        calibrate.kernel()  # first calls into numpy's array paths
        print(json.dumps({"ready": ready, "cal": [calibrate.seconds(),
                                                  calibrate.seconds()]}))
        return 0

    with open(os.path.join(args.inputs, MANIFEST_FILE)) as fh:
        manifest = json.load(fh)
    paths = [os.path.join(args.inputs, s["file"]) for s in manifest["samples"]]
    loop = Loop(job, paths, keep_outputs=not wl.inference)
    result = {"host": host_info()}
    loop.warm_up()

    if args.trace:
        tracer = Tracer()

        def traced_pass(loop: Loop) -> None:
            install(tracer, job)
            try:
                for i in range(len(paths)):
                    with tracer.span("sample"):
                        loop.sample(i, traced=True)
            finally:
                tracer.uninstall()

        passes = loop.run_pairs(args.seconds, traced_pass)
        plain = sum(r["s"] for r in loop.records
                    if not r["traced"] and not r["warmup"])
        traced = sum(r["s"] for r in loop.records if r["traced"])
        tracer.save(os.path.join(args.inputs, "spans.npz"))
    else:
        loop.run_for(args.seconds)

    sim = None
    if loop.keep_outputs and all(o is not None for o in loop.first_outputs):
        sim = sim_stats(loop.first_outputs)
    if args.trace:
        result["layers"] = layer_metrics(tracer, passes, job.load_s, sim,
                                         traced / plain if plain else 0.0)
        result["absent"] = tracer.absent
    result.update(
        samples=loop.records, first_digests=loop.first_digest, sim=sim,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
