"""Seeded end-to-end benchmark of the evkws pipeline.

Usage:
    python3 bench/run.py --workload stream_infer|wide_raw|hw_timing|all
                         [--seed N] [--seconds S] [--trace 0|1]

For one workload and seed:

1. The input generator writes the seed's sample streams (and the weights)
   to ``.bench_work/<workload>-<seed>/`` before anything is timed; the
   program under test receives only these files.
2. Set-up -- a fresh interpreter importing the package, loading the weights
   from JSON and building the engine or ``HwParams`` -- is timed from
   process start to ready in ``SETUP_PROBES`` fresh processes, half before
   and half after the measured run; ``setup_s`` is their median
   (scaled, see below).
3. One more fresh process (``bench/worker.py``) runs the closed loop for
   ``--seconds`` after a warm-up pass: one client, each sample job started
   when the previous one finished. ``us_per_event`` and ``rtf`` are medians
   over every timed sample job; ``peak_rss_mb`` is that process's peak
   resident set. With ``--trace 1`` the process alternates untraced and
   traced passes and reports per-layer metrics instead of end-to-end ones.
4. Every sample's output digest must equal the digest recorded from the
   seed code for this seed (``bench/digests.json``) or, for a seed without
   a record, the first run of the same sample. An error or a mismatch
   counts as a failed sample.

Every gated time is scaled to a reference host speed: each measurement is
taken beside runs of a fixed calibration kernel (``calibrate.py``) and
multiplied by ``calibrate.REFERENCE_S`` over the kernel's time then. The
host this runs on drifts in speed by up to 2x, which spreads raw times of
the same code 25-40% between runs; scaled, they spread about 5%. Raw times
and the calibration times are printed in the report beside them.

Prints a report (host, every metric with its unit, tail percentile and
sample count, digests, simulated statistics) and then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``. ``--workload all`` runs
every workload untraced and traced. Exits with 2, printing no result, when
the checkout holds no evkws sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
SETUP_PROBES = 8

E2E_UNITS = {"us_per_event": "us", "rtf": "s/s", "setup_s": "s",
             "peak_rss_mb": "MB"}
UNVALIDATED = ("simulated time of the hardware model; the repository holds "
               "no reference measurements, so the model is unvalidated")


def worker_env() -> dict:
    """Package from this checkout only; BLAS threads pinned to the CPUs."""
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def worker(workload: str, inputs: Path, *extra: str, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), *extra]
    out = subprocess.run(cmd, env=worker_env(), capture_output=True,
                         text=True, timeout=timeout, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def setup_seconds(workload: str, inputs: Path) -> dict:
    """Process start to ready, on the clock every process shares, raw and
    scaled by the calibration runs the process makes once ready."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    probe = worker(workload, inputs, "--setup-only", timeout=60)
    raw = probe["ready"] - spawned
    return {"raw": raw, "scaled": raw * calibrate.scale(probe["cal"]),
            "cal": probe["cal"]}


def distribution(values: list[float]) -> dict:
    """Median, and the highest percentile with ten samples beyond it."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    tail = None
    if p > 50:
        tail = {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
    return {"median": statistics.median(values), "n": n, "tail": tail}


def timing(runs: list[dict], per) -> dict:
    """Distribution of ``per(run)`` over the sample jobs, each scaled by
    the calibration runs before and after it; the raw one beside it."""
    raw = [per(r) for r in runs]
    scaled = [v * calibrate.scale(r["cal"]) for r, v in zip(runs, raw)]
    dist = distribution(scaled)
    return {"value": dist["median"], **dist, "raw": distribution(raw)}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from workloads import WORKLOADS, generate

    wl = WORKLOADS[workload]
    inputs = WORK / f"{workload}-{seed}"
    shutil.rmtree(inputs, ignore_errors=True)
    manifest = generate(wl, seed, str(inputs))

    # Probes before and after the measured run, so that one slow spell of
    # the host does not set the median alone.
    setup_seconds(workload, inputs)  # compiles bytecode, warms file cache
    probes = [setup_seconds(workload, inputs)
              for _ in range(SETUP_PROBES // 2)]
    res = worker(workload, inputs, "--seconds", str(seconds),
                 "--trace", str(trace), timeout=seconds + 120)
    probes += [setup_seconds(workload, inputs)
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups = [p["scaled"] for p in probes]

    recorded = None
    if DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(
            str(seed))
    reference = recorded or res["first_digests"]
    samples = res["samples"]
    failed = sum(1 for r in samples
                 if "error" in r or r["digest"] != reference[r["i"]])

    info = manifest["samples"]
    timed = [r for r in samples
             if not r["traced"] and not r["warmup"] and "error" not in r]
    e2e = {"us_per_event": timing(
               timed, lambda r: r["s"] / info[r["i"]]["events"] * 1e6),
           "rtf": timing(timed, lambda r: r["s"] / info[r["i"]]["stream_s"]),
           "setup_s": {"value": statistics.median(setups),
                       **distribution(setups),
                       "raw": distribution([p["raw"] for p in probes]),
                       "probes": probes},
           "peak_rss_mb": {"value": res["peak_rss_mb"]}}
    metrics = res["layers"] if trace else {
        name: {"value": e2e[name]["value"], "unit": unit}
        for name, unit in E2E_UNITS.items()}

    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "host": res["host"],
        "loop": "closed, one client, one sample job at a time",
        "clock": "host time unless marked simulated; gated times scaled "
                 f"to a host that runs the calibration kernel in "
                 f"{calibrate.REFERENCE_S} s",
        "calibration_s": distribution(
            [c for r in samples for c in r["cal"]]),
        "attempted": len(samples), "failed": failed,
        "error_rate": failed / len(samples),
        "end_to_end": {name: {**e2e[name], "unit": unit}
                       for name, unit in E2E_UNITS.items()},
        "digest": hashlib.sha256(
            "".join(map(str, res["first_digests"])).encode()).hexdigest()[:16],
        "sample_digests": res["first_digests"],
        "digest_reference": "recorded from the seed code" if recorded
        else "first run of each sample (no record for this seed)",
    }
    if res["sim"] is not None:
        report["simulated"] = {**res["sim"], "clock": UNVALIDATED}
    if trace:
        report["absent"] = res["absent"]
    return {"report": report,
            "result": {"correct": failed == 0, "attempted": len(samples),
                       "failed": failed, "metrics": metrics}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "evkws" / "__init__.py").is_file():
        print(f"bench: no evkws sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    elif args.workload in WORKLOADS:
        runs = [(args.workload, args.trace)]
    else:
        ap.error(f"unknown workload {args.workload!r}; expected one of "
                 f"{', '.join(WORKLOADS)} or all")
    for workload, trace in runs:
        try:
            out = run_one(workload, args.seed, args.seconds, trace)
        except subprocess.CalledProcessError as exc:
            print(f"bench: worker failed ({exc.returncode}):\n{exc.stderr}",
                  file=sys.stderr)
            return 1
        except subprocess.TimeoutExpired as exc:
            print(f"bench: worker timed out after {exc.timeout} s",
                  file=sys.stderr)
            return 1
        print(json.dumps(out["report"], indent=1))
        print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
