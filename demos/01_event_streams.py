"""Make a synthetic cochlea stream, store it both ways, look at its stats."""

import os
import tempfile

import numpy as np

from evkws import SensorConfig, compute_stats, read_stream, synth_stream, write_stream

config = SensorConfig(channels=64, topology="cascade")

# Half a second of activity, low channels firing harder than high ones.
profile = np.linspace(900.0, 120.0, config.channels)
stream = synth_stream(seed=7, config=config, duration_us=500_000,
                      rate_profile=profile)
print(f"{len(stream)} events over {stream.t[-1] - stream.t[0]} us")
print("first five:", list(zip(stream.t[:5].tolist(), stream.c[:5].tolist(),
                               stream.p[:5].tolist())))

workdir = tempfile.mkdtemp()

# The binary codec is self-describing (channel count and topology live in
# the header); CSV needs the config handed back at read time.
bin_path = os.path.join(workdir, "sample.nas")
csv_path = os.path.join(workdir, "sample.csv")
write_stream(stream, bin_path, format="binary")
write_stream(stream, csv_path, format="csv")

again = read_stream(bin_path, format="binary")
assert again == stream
again_csv = read_stream(csv_path, format="csv", config=config)
assert again_csv == stream

print(f"binary: {os.path.getsize(bin_path)} bytes "
      f"({os.path.getsize(bin_path) / len(stream):.1f} per event)")
print(f"csv:    {os.path.getsize(csv_path)} bytes")

stats = compute_stats([stream])
print(f"average rate {stats.kev_per_s_avg:.1f} kev/s")
print(f"events per 10 ms window: {stats.events_per_window_avg:.1f}")
busiest = int(np.argmax(stats.per_channel_mean))
print(f"busiest channel: {busiest} "
      f"({stats.per_channel_mean[busiest]:.0f} events)")
