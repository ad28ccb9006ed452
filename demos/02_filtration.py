"""Watch the decaying-potential filter thin a stream.

Each channel integrates a fixed weight per event and leaks between events;
only crossings of the channel threshold pass through. Raising div_factor
slows the leak (the divisor is 2**div_factor microseconds per unit), so
more events survive.
"""

import numpy as np

from evkws import (
    FiltrationParams,
    SensorConfig,
    ThresholdSchedule,
    filter_stream,
    make_thresholds,
    synth_stream,
)

config = SensorConfig(channels=64)
stream = synth_stream(seed=3, config=config, duration_us=1_000_000,
                      rate_profile=600.0)
print(f"input: {len(stream)} events")

# Cochlear channels get slower toward the low end, so a common setup
# relaxes the threshold linearly across the bank.
schedule = ThresholdSchedule(kind="linear", start=64, end=32)
thresholds = make_thresholds(schedule, config.channels)
print("thresholds:", thresholds[:4], "...", thresholds[-4:])

for div_factor in (6, 8, 10):
    params = FiltrationParams(div_factor=div_factor, weight=32,
                              thresholds=thresholds)
    kept = filter_stream(stream, params)
    pct = 100.0 * len(kept) / len(stream)
    print(f"div_factor={div_factor:2d}: kept {len(kept):5d} ({pct:4.1f}%)")

# A tiny trace by hand. weight 32, threshold 64, leak 1 unit per 256 us:
# t=0 charges to 32, t=100 reaches 64 and fires (potential resets),
# t=300 only gets back to 32.
from evkws import EventStream

tiny = EventStream.from_events(config, [(0, 0, 1), (100, 0, 1), (300, 0, 1)])
params = FiltrationParams(div_factor=8, weight=32,
                          thresholds=np.full(64, 64, dtype=np.int64))
out = filter_stream(tiny, params)
print("hand trace survivors:", out.t.tolist(), "(expected [100])")
