"""Independent reference implementations used only by tests.

Everything here is deliberately written in plain Python (dicts, ints, list
scans) so that agreement with the numpy-vectorized package code is a real
cross-check rather than the same code path twice. The one exception,
``brute_force_neighbors``, indexes its history with numpy so that rescanning
the full history for every event of a 10^4-event stream stays fast. The lookup tables for the
recurrent head are regenerated here from math.exp/math.tanh instead of being
imported.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

I8_MIN, I8_MAX = -128, 127


# ---------------------------------------------------------------- filtration

def transcribed_filter(events, div_factor, weight, thresholds):
    """Direct transcription of the decayed-potential update rule.

    ``events`` is a list of (t, c, p); returns the list of accepted indices.
    State per channel: last timestamp (0) and potential (0). Each event:
    decay by floor(dt / 2**div_factor) clamped at zero, add the weight,
    accept and reset on reaching the channel threshold.
    """
    t_last: dict[int, int] = {}
    v: dict[int, int] = {}
    accepted = []
    for i, (t, c, _p) in enumerate(events):
        dt = t - t_last.get(c, 0)
        decayed = v.get(c, 0) - (dt // (2 ** div_factor))
        if decayed < 0:
            decayed = 0
        value = decayed + weight
        t_last[c] = t
        if value >= thresholds[c]:
            v[c] = 0
            accepted.append(i)
        else:
            v[c] = value
    return accepted


# --------------------------------------------------------------------- graph

def linear_scan_neighbors(history, event, params):
    """Backward scan over the full history, one hit per qualifying channel.

    ``history`` is a list of (t, c, p) sorted by t; returns a sorted list of
    (channel, dt) pairs. The latest event on a channel shadows older ones:
    if it falls outside the age window the channel contributes nothing.
    """
    t0, c0, _ = event
    reach = params.r_c // params.skip_step
    wanted = {c0 + k * params.skip_step
              for k in range(-reach, reach + 1) if k != 0}
    found: dict[int, int] = {}
    seen: set[int] = set()
    for t, c, _p in reversed(history):
        if c in seen:
            continue
        seen.add(c)
        if c not in wanted:
            continue
        dt = t0 - t
        if params.r_t_low <= dt <= params.r_t_high:
            found[c] = dt
    return sorted(found.items())


def brute_force_neighbors(t, c, channels, event, params):
    """Stateless rescan of the full history for one new event.

    ``t`` and ``c`` are the time-sorted timestamps and channels of everything
    before ``event`` (a (t, c, p) tuple) on a ``channels``-channel sensor;
    returns a sorted list of (channel, dt) pairs. The latest event on a
    channel shadows older ones, as in linear_scan_neighbors.
    """
    t0, c0, _ = event
    last_index = np.full(channels, -1, dtype=np.int64)
    last_index[c] = np.arange(len(t))  # later writes win
    reach = params.r_c // params.skip_step
    found = []
    for k in range(-reach, reach + 1):
        channel = c0 + k * params.skip_step
        if k == 0 or not 0 <= channel < channels:
            continue
        j = int(last_index[channel])
        if j < 0:
            continue
        dt = t0 - int(t[j])
        if params.r_t_low <= dt <= params.r_t_high:
            found.append((channel, dt))
    return found


# ------------------------------------------------------------- fixed point

def ref_rshift(value: int, shift: int) -> int:
    if shift == 0:
        return value
    return (value + (1 << (shift - 1))) >> shift


def ref_sat8(value: int) -> int:
    return max(I8_MIN, min(I8_MAX, value))


def ref_requant(value: int, num: int, shift: int) -> int:
    return ref_sat8(ref_rshift(value * num, shift))


def ref_quantize_dt(dt: int) -> int:
    return ref_sat8(ref_rshift(dt, 6))


def ref_affine(weight_rows, x, bias):
    """weight_rows: list of rows; x: list of ints; returns int accumulators."""
    out = []
    for row, b in zip(weight_rows, bias):
        acc = int(b)
        for w, v in zip(row, x):
            acc += int(w) * int(v)
        out.append(acc)
    return out


def ref_stage_products(weight_rows, rows, channels):
    """Vertex products [x, ch] @ [Wx, w_dc].T of stage-input rows, one list
    of ints per row: the conv weight's feature columns on the row, plus its
    channel-offset column on the row's channel, with no bias."""
    return [ref_affine(weight_rows, list(x) + [ch], [0] * len(weight_rows))
            for x, ch in zip(rows, channels)]


def ref_first_layer_inputs(neighbors, event):
    """neighbors: list of (dc, dt); event: (t, c, p)."""
    _t, _c, p = event
    if not neighbors:
        return [0, 0, p]
    n = len(neighbors)
    sum_dc = sum(dc for dc, _ in neighbors)
    sum_dt = sum(dt for _, dt in neighbors)
    if sum_dc >= 0:
        mean_dc = (sum_dc + n // 2) // n
    else:
        mean_dc = -((-sum_dc + n // 2) // n)
    mean_dt = (sum_dt + n // 2) // n
    return [ref_sat8(mean_dc), ref_quantize_dt(mean_dt), p]


def ref_pointnet_conv(weight_rows, bias, scale_num, scale_shift,
                      center, neighbors):
    """center: feature list; neighbors: list of (features, dc, dt_us)."""
    vertices = [list(center) + [0, 0]]
    for feats, dc, dt in neighbors:
        vertices.append(list(feats) + [ref_sat8(dc), ref_quantize_dt(dt)])
    best = None
    for x in vertices:
        acc = ref_affine(weight_rows, x, bias)
        z = [max(0, ref_requant(a, scale_num, scale_shift)) for a in acc]
        best = z if best is None else [max(a, b) for a, b in zip(best, z)]
    return best


# ------------------------------------------------------------------- head

def _ref_luts():
    sig, tanh = [], []
    for idx in range(256):
        x = (idx - 128) / 16
        sig.append(math.floor(256.0 / (1.0 + math.exp(-x)) + 0.5))
        tanh.append(math.floor(127.0 * math.tanh(x) + 0.5))
    return sig, tanh


REF_SIGMOID, REF_TANH = _ref_luts()


def ref_gru_step(weight_rows, bias, scale_num, scale_shift, in_width,
                 hidden, x, h):
    """Pure-int recurrent update mirroring the documented recipe."""
    ax = []
    ah = []
    for row, b in zip(weight_rows, bias):
        ax.append(int(b) + sum(int(w) * int(v)
                               for w, v in zip(row[:in_width], x)))
        ah.append(sum(int(w) * int(v) for w, v in zip(row[in_width:], h)))

    def sig(acc):
        return REF_SIGMOID[ref_requant(acc, scale_num, scale_shift) + 128]

    h_next = []
    for j in range(hidden):
        z = sig(ax[j] + ah[j])
        n_pre = ax[2 * hidden + j] + ref_rshift(
            sig(ax[hidden + j] + ah[hidden + j]) * ah[2 * hidden + j], 8)
        n = REF_TANH[ref_requant(n_pre, scale_num, scale_shift) + 128]
        h_next.append(ref_sat8(ref_rshift((256 - z) * n + z * h[j], 8)))
    return h_next


def ref_head_forward(blocks, pooled, hidden_states):
    """blocks: list of dicts; returns (logits, conf, new_hidden_states).

    A dict has kind, weight (rows), bias, scale_num, scale_shift, in, out.
    Hidden blocks rectify; the final block stays affine and unshrunk except
    for its scale shift.
    """
    x = list(pooled)
    new_hidden = []
    gru_i = 0
    for i, block in enumerate(blocks):
        last = i == len(blocks) - 1
        if block["kind"] == "gru":
            h = hidden_states[gru_i]
            x = ref_gru_step(block["weight"], block["bias"],
                             block["scale_num"], block["scale_shift"],
                             block["in"], block["out"],
                             [ref_sat8(v) for v in x], h)
            new_hidden.append(list(x))
            gru_i += 1
        else:
            acc = ref_affine(block["weight"], x, block["bias"])
            if last:
                x = [ref_rshift(a * block["scale_num"], block["scale_shift"])
                     for a in acc]
            else:
                x = [max(0, ref_requant(a, block["scale_num"],
                                        block["scale_shift"])) for a in acc]
    return x[:-1], x[-1], new_hidden


# --------------------------------------------------------------- end to end

def ref_conv_stream(events, channels, conv_blocks, params):
    """Graph and convolution stages, one event at a time.

    Yields (t, stage-4 output, memories) per event of the time-sorted
    (t, c, p) list. ``memories`` has one dict per stage mapping each channel
    seen so far to the stage input of its latest event; the dicts keep
    changing, so copy them to keep a snapshot.
    """
    memories = [{} for _ in conv_blocks]
    for i, (t, c, p) in enumerate(events):
        found = brute_force_neighbors(
            np.array([e[0] for e in events[:i]], dtype=np.int64),
            np.array([e[1] for e in events[:i]], dtype=np.int64),
            channels, (t, c, p), params)
        x = ref_first_layer_inputs([(ch - c, dt) for ch, dt in found],
                                   (t, c, p))
        for block, memory in zip(conv_blocks, memories):
            y = ref_pointnet_conv(
                block["weight"], block["bias"], block["scale_num"],
                block["scale_shift"], x,
                [(memory[ch], ch - c, dt) for ch, dt in found])
            memory[c] = x
            x = y
        yield t, x, memories


def ref_infer_stream(events, channels, conv_blocks, head_blocks, params,
                     window_us, filtration=None):
    """Stream in, predictions out, composed from the oracles above.

    ``events`` is a time-sorted list of (t, c, p); ``conv_blocks`` and
    ``head_blocks`` are block dicts as in ``ref_head_forward``; ``params``
    has r_c, skip_step, r_t_low and r_t_high; ``filtration`` is None or
    (div_factor, weight, thresholds). Every stage keeps one memory per
    channel: the stage input of that channel's latest event. Returns one
    (window, logits, conf) per window from 0 through the last event's.
    """
    if filtration is not None:
        events = [events[i] for i in transcribed_filter(events, *filtration)]
    times, rows = [], []
    for t, x, _ in ref_conv_stream(events, channels, conv_blocks, params):
        times.append(t)
        rows.append(x)
    hidden = [[0] * b["out"] for b in head_blocks if b["kind"] == "gru"]
    out = []
    for window, vector in ref_window_pool(times, rows, window_us):
        logits, conf, hidden = ref_head_forward(head_blocks, vector, hidden)
        out.append((window, logits, conf))
    return out


def ref_window_pool(times, rows, window_us):
    """Element-wise max of feature rows per window aligned at t=0.

    ``times`` is non-decreasing, one per row. Returns one (window, vector)
    per window from 0 through the last row's; each vector's max starts from
    zeros, so a window no row landed in is all zeros. No rows, no windows.
    """
    out = []
    current, pooled = 0, [0] * len(rows[0]) if rows else []
    for t, x in zip(times, rows):
        while current < t // window_us:
            out.append((current, pooled))
            current, pooled = current + 1, [0] * len(x)
        pooled = [max(a, b) for a, b in zip(pooled, x)]
    if rows:
        out.append((current, pooled))
    return out


# ------------------------------------------------------------ hardware model

def ref_simulate(times, edges, params):
    """FIFO and window-closure rules of the pipeline model, by list scans.

    ``times`` is a non-decreasing list of sensor timestamps, ``edges`` the
    edge count of each event and ``params`` an ``HwParams``. An event waits
    from its arrival until the stage admits it; an arrival that finds
    ``fifo_depth`` earlier events waiting is dropped. Returns a namespace of
    plain lists, None standing for a dropped event's admit and done times.
    """
    mhz = params.clock_hz / 1e6
    arrival = [t + params.nas_latency_us for t in times]
    admit, done = [], []
    server_free = 0.0
    stalls = max_depth = 0
    for i, a in enumerate(arrival):
        waiting = sum(1 for s in admit[:i] if s is not None and s > a)
        if waiting >= params.fifo_depth:
            admit.append(None)
            done.append(None)
            continue
        start = max(a, server_free)
        cycles = params.cycle_base + params.cycle_per_vertex * (1 + edges[i])
        server_free = start + cycles / mhz
        admit.append(start)
        done.append(server_free)
        if start > a:
            stalls += 1
            max_depth = max(max_depth, waiting + 1)
    kept = [i for i in range(len(times)) if admit[i] is not None]
    predictions, w2p = [], []
    last_window = times[kept[-1]] // params.window_us if kept else -1
    for k in range(last_window + 1):
        window_end = (k + 1) * params.window_us + params.nas_latency_us
        members = [i for i in kept if times[i] // params.window_us == k]
        later = [i for i in kept if times[i] // params.window_us > k]
        processed = done[members[-1]] if members else 0.0
        if later:
            closure = max(arrival[later[0]], processed)
        else:
            closure = max(window_end + params.flush_timeout_us, processed)
        emission = closure + params.head_latency_us
        predictions.append((k, emission))
        w2p.append(emission - window_end)
    return SimpleNamespace(
        admit_us=admit, done_us=done,
        dropped=[s is None for s in admit], stall_count=stalls,
        overflow_count=sum(s is None for s in admit),
        max_queue_depth=max_depth, window_predictions=predictions,
        window_to_prediction_us=w2p)
