"""Host-speed calibration kernel of the evkws benchmark.

The benchmark shares a few cores of a host whose speed drifts by up to 2x
within seconds and between minutes, so raw host times of the same code
spread 25-40% from one run to the next. The kernel below is a fixed piece
of work written in the same style as the pipeline's hot path (a Python
loop that builds small int arrays, stacks them and multiplies them by a
weight matrix) but it shares no code with evkws, so a change to the
package cannot change its time. Run right after each sample job, its time
measures how fast the host was at that moment; a sample's time scaled by
``REFERENCE_S / calibration time`` is its time on a host that runs the
kernel in ``REFERENCE_S``, and that scaled time is what the gated metrics
report. A change that makes evkws faster lowers the scaled time by the same
share as the raw time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel time the scaled metrics refer to: about its median on a 2-vCPU
# x86_64 host (Python 3, numpy, 2 BLAS threads) in an ordinary spell.
REFERENCE_S = 0.020
_ROUNDS = 600

_rng = np.random.default_rng(0)
_FEATS = [_rng.integers(-128, 127, size=16).astype(np.int8) for _ in range(64)]
_W = _rng.integers(-128, 127, size=(18, 32)).astype(np.int32)


def kernel(rounds: int = _ROUNDS) -> int:
    acc = 0
    seen = {}
    for k in range(rounds):
        rows = []
        for j in range(8):
            feats = _FEATS[(k * 7 + j) % 64]
            rows.append(np.concatenate([feats.astype(np.int32), (j, k & 15)]))
            seen[(k + j) & 255] = j
        y = np.stack(rows) @ _W
        acc += int(np.maximum(y, 0).max(axis=0)[k % 32] >> 4)
    return acc + len(seen)


def seconds() -> float:
    """Host seconds one run of the kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def scale(calibrations: list[float]) -> float:
    """Factor that takes a time measured beside ``calibrations`` to the
    reference host speed."""
    return REFERENCE_S * len(calibrations) / sum(calibrations)
