"""Spectro-temporal neighborhoods, built a chunk at a time and checked
against a full scan."""

import numpy as np

from evkws import GraphBuilder, GraphParams, SensorConfig, synth_stream
from evkws.graph import CHUNK

config = SensorConfig(channels=64)
stream = synth_stream(seed=12, config=config, duration_us=200_000,
                      rate_profile=500.0)

params = GraphParams(r_c=6, skip_step=2, r_t_low=0, r_t_high=5_000)
print(f"reach {params.r_c} channels at stride {params.skip_step}, "
      f"dt window [{params.r_t_low}, {params.r_t_high}] us")
print(f"degree can never exceed {params.max_degree}")


def rescan(history, event):
    """Neighbors recomputed from the full history: the latest earlier event
    on each reachable channel, kept if its age fits the window."""
    latest = {prior.c: prior for prior in history}
    reach = params.r_c // params.skip_step
    found = []
    for k in range(-reach, reach + 1):
        prior = latest.get(event.c + k * params.skip_step)
        if k and prior is not None and \
                params.r_t_low <= event.t - prior.t <= params.r_t_high:
            found.append((prior.c, event.t - prior.t))
    return found


builder = GraphBuilder(config.channels, params)
degrees = np.zeros(len(stream), dtype=np.int64)
for start in range(0, len(stream), CHUNK):
    # one neighbor table per chunk: one row per event, one column per offset
    table = builder.insert(stream.t[start:start + CHUNK],
                           stream.c[start:start + CHUNK])
    degrees[start:start + len(table.row)] = table.valid.sum(axis=1)
    # spot-check a handful against the stateless rescan of full history
    for i in range(len(table.row)):
        if (start + i) % 1000 == 0:
            event = stream.event(start + i)
            history = [stream.event(j) for j in range(start + i)]
            assert table.pairs(i, event.c) == rescan(history, event)

print(f"checked {len(stream)} events in chunks of {CHUNK}, "
      f"mean degree {degrees.mean():.2f}, max {degrees.max()}")
hist = np.bincount(degrees, minlength=params.max_degree + 1)
for d, n in enumerate(hist):
    bar = "#" * int(60 * n / hist.max())
    print(f"degree {d}: {n:5d} {bar}")
