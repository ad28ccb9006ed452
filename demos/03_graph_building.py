"""Spectro-temporal neighborhoods, built a chunk at a time and checked
against a full scan."""

import numpy as np

from evkws import GraphBuilder, GraphParams, SensorConfig, synth_stream
from evkws.graph import CHUNK

config = SensorConfig(channels=64)
stream = synth_stream(seed=12, config=config, duration_us=200_000,
                      rate_profile=500.0)

params = GraphParams(r_c=6, skip_step=2, r_t_low=0, r_t_high=5_000)
builder = GraphBuilder(config.channels, params)
print(f"reach {params.r_c} channels at stride {params.skip_step}, "
      f"dt window [{params.r_t_low}, {params.r_t_high}] us")
# one table row per channel offset that lands on the sensor
print(f"degree can never exceed {len(builder.dc)}")


def rescan(i):
    """Neighbors of event i recomputed from the full history: the latest
    earlier event on each reachable channel, kept if its age fits the
    window."""
    latest = dict(zip(stream.c[:i].tolist(), stream.t[:i].tolist()))
    t, c = int(stream.t[i]), int(stream.c[i])
    reach = params.r_c // params.skip_step
    found = []
    for k in range(-reach, reach + 1):
        ch = c + k * params.skip_step
        prior = latest.get(ch)
        if k and prior is not None and \
                params.r_t_low <= t - prior <= params.r_t_high:
            found.append((ch, t - prior))
    return found


degrees = np.zeros(len(stream), dtype=np.int64)
for start in range(0, len(stream), CHUNK):
    # one neighbor table per chunk: one row per offset, one column per event
    c = stream.c[start:start + CHUNK]
    table = builder.insert(stream.t[start:start + CHUNK], c)
    degrees[start:start + len(c)] = table.valid.sum(axis=0)
    # spot-check a handful against the stateless rescan of full history
    for i in range(len(c)):
        if (start + i) % 1000 == 0:
            assert table.pairs(i, int(c[i])) == rescan(start + i)

print(f"checked {len(stream)} events in chunks of {CHUNK}, "
      f"mean degree {degrees.mean():.2f}, max {degrees.max()}")
hist = np.bincount(degrees, minlength=len(builder.dc) + 1)
for d, n in enumerate(hist):
    bar = "#" * int(60 * n / hist.max())
    print(f"degree {d}: {n:5d} {bar}")
