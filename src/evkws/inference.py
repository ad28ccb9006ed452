"""Streaming int8 inference: graph convolutions, window pooling, head.

Every accepted event runs through four graph-convolution stages. A stage
evaluates one quantized affine map phi over each vertex of the neighborhood
(the event itself plus its neighbors), rectifies negatives to zero, and takes
the element-wise maximum:

    out_i = max over j in {i} + N(i) of relu(W @ [x_j, dc_j, dt_q_j] + b)

where x_j are the vertex's stage-input features, dc_j the channel offset and
dt_q_j the age scaled by 1/64 (both 0 for the self vertex).

Stage-1 input features of an event are [mean neighbor channel offset, mean
neighbor age (scaled), polarity], zeros when the neighborhood is empty.

A stream runs in chunks of ``CHUNK`` events, one stage at a time over a
chunk's ``(K, n)`` neighbor table, whose rows are the chunk's neighbor
columns (one channel offset each). Requantize (scale_num >= 1) and ReLU are
monotone, so the maximum over vertices is taken on the accumulators and
requantize runs once per event and stage. Every vertex of event i then shares
one term, as dc_j * w_dc = ch_j * w_dc - ch_i * w_dc for channels below 128:
ch_j joins the vertex's product ``[x_j, ch_j] @ [Wx, w_dc].T`` as one more
input and ch_i * w_dc comes off after the maximum, with the bias. That
product depends on the vertex alone, so each stage (``pointnet_conv``)
computes it once, for the chunk's own events, in one matrix product written
into the stage's node buffer, and every later event that takes the vertex as
a neighbor reuses it. A missing neighbor repeats the self vertex, so each
neighbor column costs two gathers, an add and a maximum. The terms that
depend on position alone come from tables each layer builds once, when it is
built (``ConvLayer.age_table`` and ``channel_table``), so no chunk derives
anything from the weights. Weights are checked at load time so that no
accumulator or partial value reaches 2**31 (|bias| + 128*sum|w| per row),
which keeps int32 accumulation exact. ``requantize(acc, layer)`` clamps
each int32 accumulator to the layer's ``window`` ``[lo, hi]``, outside which
its output saturates, so it scales in int32 and folds the ReLU into that
clamp; the window is derived once, when the layer is built.

That window makes the node buffers narrow. The maximum, the adds and the
clamp are monotone, so a stage clamps each vertex product per feature to
``[lo - max A - max C, hi - min A - min C]`` (A the feature's age terms, C
its channel terms, both bounds cut to the products' reach) and no output
changes. Where every feature's candidates then span at most 65,535, the
layer's ``node_dtype`` is int16: the node buffer, the carried products and
``age_table`` are int16, each stored product is the clamped product less a
per-feature ``ConvLayer.offset``, and ``channel_table`` adds the offset
back, in int32, after the maximum. A layer whose span is wider keeps int32
with offset 0 and runs the same code. The product, offset included, is one
matrix product in float32 wherever 128*sum|w| + |offset| of every row is at
most 2**24, which float32 holds exactly, and in float64 otherwise
(``ConvLayer.product_t``); it is clamped in that dtype, before the cast into
the node buffer. A ``RunState`` carries each channel's latest stored
products, the open window and the recurrent state across chunks, in one
node buffer per stage, so chunk boundaries never change the result.

Stage-4 outputs pool element-wise-max into fixed 10 ms windows aligned at
t=0; ``WindowPool.push`` takes a chunk's rows whole and is the one place
windows are derived. Whenever a row lands past the open window, every
elapsed window emits (empty ones as all zeros, the minimum of the rectified
domain) and the head runs once per chunk on them: blocks in declared order,
hidden ones through ``requantize`` (a linear block's window rectifies, a
GRU's gates' does not), the final one affine, each mapping window rows to
rows. A linear block and a GRU's input projection take all the windows in
one BLAS product on ``weight_t``, exact by the same rule, summed in int32;
``gru_forward`` steps only the recurrence in order. Only a GRU's ``r * ah``
(up to 256 * 2**31) and the logits' ``acc * scale_num`` (below 2**62) take
int64. Each window outputs class logits and a confidence value; recurrent
state persists across one sample's windows only.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .events import DEFAULT_WINDOW_US, EventStream, check_events
from .filtering import FiltrationParams, filter_stream
from .graph import CHUNK, GraphBuilder, GraphParams, NeighborTable
from .model import NODE_TILE, ConvLayer, GruBlock, ModelWeights
from .quant import (I8_MAX, div_round_half_away, div_round_half_up_nonneg,
                    lut_sigmoid, lut_tanh, quantize_dt, requantize,
                    rounding_rshift, saturate_i8)


def first_layer_inputs(table: NeighborTable, p: np.ndarray) -> np.ndarray:
    """Stage-1 feature rows of a batch of events (int8, ``(n, 3)``)."""
    count = np.maximum(table.valid.sum(axis=0), 1)
    mean_dc = div_round_half_away(table.dc @ table.valid, count)
    mean_dt = div_round_half_up_nonneg(
        (table.dt * table.valid).sum(axis=0), count)
    return np.stack([saturate_i8(mean_dc), quantize_dt(mean_dt),
                     np.asarray(p, dtype=np.int8)], axis=1)


class Scratch:
    """Grow-only work arrays of the convolution stages, by role and dtype.

    ``take(role, dtype, n, width)`` returns a C-contiguous ``(n, width)``
    view of the first ``n * width`` elements of the role's array, which is
    allocated on first use and again only when a call needs more: at least
    ``rows`` rows of the width asked for, and no slack beyond. What a view
    holds lasts until the next ``take`` of its role, so nothing that outlives
    a stage may alias one. ``arrays`` maps each ``(role, dtype)`` to its
    array.
    """

    def __init__(self, rows: int = CHUNK):
        self.rows = rows
        self.arrays: dict[tuple[str, np.dtype], np.ndarray] = {}

    def take(self, role: str, dtype, n: int, width: int) -> np.ndarray:
        key = (role, np.dtype(dtype))
        size = n * width
        array = self.arrays.get(key)
        if array is None or array.size < size:
            array = self.arrays[key] = np.empty(max(n, self.rows) * width,
                                                key[1])
        return array[:size].reshape(n, width)


def pointnet_conv(layer: ConvLayer, node: np.ndarray, x: np.ndarray,
                  table: NeighborTable,
                  scratch: Scratch | None = None) -> np.ndarray:
    """One convolution stage over a batch of ``n`` events.

    ``x`` holds the batch's int8 stage inputs, ``(n, in_width)``, and
    ``node`` the stored vertex products of the rows ``table.row`` points
    into, in the layer's ``node_dtype``: each is ``[x, ch] @ [Wx, w_dc].T``
    clamped to the layer's bounds, minus its ``offset``. The call checks
    all three, then writes the batch's own stored products into the last
    ``n`` rows of ``node`` (their self vertices), clamped ``NODE_TILE`` rows
    at a time against ``node_tile``. Every later event that takes them as
    neighbors reads them there, and the running maximum starts from them
    there, uncopied. Each neighbor adds its age term
    from the layer's ``age_table``; after the maximum, each event adds
    ``bias - ch_i * w_dc + offset`` from its ``channel_table``, in int32.
    Both tables are built with the layer, so a call derives nothing from
    the weights. Returns the rectified int8 outputs, one row per batch
    event, in a fresh array. Invariant under neighbor order, and
    element-wise non-decreasing when vertices are added.

    Every chunk-sized work array (the product's input and output, the
    running maximum and its two operands, the accumulators) comes from
    ``scratch``, a fresh one of ``n`` rows when none is given; the
    ``InferenceEngine`` keeps the one its runs pass here (see its docstring).
    """
    n, in_w, out_w = table.row.shape[1], layer.in_width, layer.out_width
    dtype = layer.node_dtype
    if node.dtype != dtype or node.shape != (len(table.channel), out_w):
        raise ValidationError(
            f"stage products are {node.dtype} {node.shape}, stage expects "
            f"{dtype} ({len(table.channel)}, {out_w})")
    if x.shape != (n, in_w):
        raise ValidationError(
            f"stage inputs have shape {x.shape}, stage expects ({n}, {in_w})")
    nbr, age = table.gather  # indices and channels checked here
    own = len(node) - n
    if scratch is None:
        scratch = Scratch(n)
    # [x, ch, 1] @ product_t is exact in product_t's dtype, offset column
    # included; clamped before the cast, so every stored value lies inside
    # the node dtype (maximum and minimum: clip takes twice as long with
    # per-feature bounds), the last n % NODE_TILE rows against the tile's head
    float_t = layer.product_t.dtype
    vertex = scratch.take("vertex", float_t, n, in_w + 2)
    vertex[:, :in_w] = x
    vertex[:, in_w] = table.channel[own:]
    vertex[:, in_w + 1] = 1
    stored = np.matmul(vertex, layer.product_t,
                       out=scratch.take("product", float_t, n, out_w))
    low, high = layer.node_tile
    whole = n - n % NODE_TILE
    for rows in (stored[:whole].reshape(-1, low.size),
                 stored[whole:].reshape(1, -1)):
        np.maximum(rows, low[:rows.shape[1]], out=rows)
        np.minimum(rows, high[:rows.shape[1]], out=rows)
    node[own:] = stored
    maxed = scratch.take("best", dtype, n, out_w)
    cand = scratch.take("cand", dtype, n, out_w)
    aged = scratch.take("aged", dtype, n, out_w)
    best = node[own:]  # the self vertices
    for k in range(len(nbr)):
        node.take(nbr[k], axis=0, out=cand, mode="clip")
        layer.age_table.take(age[k], axis=0, out=aged, mode="clip")
        cand += aged
        best = np.maximum(best, cand, out=maxed)
    acc = layer.channel_table.take(table.channel[own:] + I8_MAX, axis=0,
                                   mode="clip",
                                   out=scratch.take("acc", np.int32, n, out_w))
    acc += best                          # bias - ch_i * w_dc + offset
    return requantize(acc, layer)


class WindowPool:
    """Running per-feature max over fixed windows aligned at t=0.

    ``push`` takes a chunk of ``width``-wide int8 feature rows with their
    timestamps, which pass the event rule (``events.check_events``) from
    ``open_start`` on, and returns the (index, vector) pairs of every
    window the chunk completed; ``flush`` closes the window holding the last
    row and opens the next, so no window is emitted twice. Each window's max
    starts from zeros, and every window nothing landed in emits the pool's
    one read-only zero vector. A stream with no rows emits nothing.
    """

    def __init__(self, width: int, window_us: int = DEFAULT_WINDOW_US):
        if width < 1:
            raise ValidationError("feature width must be positive")
        if not 1 <= window_us < 2**63:
            raise ValidationError("window width must lie in [1, 2**63)")
        self.window_us = window_us
        self._zero = np.zeros(width, dtype=np.int8)
        self._zero.flags.writeable = False
        self._current = 0     # the open window
        self._acc = None      # its running max; None until a row lands

    @property
    def open_start(self) -> int:
        """Start of the open window, the earliest timestamp ``push`` takes."""
        return self._current * self.window_us

    def push(self, features: np.ndarray,
             t: np.ndarray) -> list[tuple[int, np.ndarray]]:
        t = check_events(t, after=self.open_start)[0]
        width = len(self._zero)
        if features.dtype != np.int8 or features.shape != (len(t), width):
            raise ValidationError(
                f"feature rows are {features.dtype} {features.shape}, pool "
                f"expects int8 ({len(t)}, {width})")
        if not len(t):
            return []
        window = t // self.window_us
        starts = np.flatnonzero(np.concatenate(([True],
                                                window[1:] != window[:-1])))
        maxes = np.maximum.reduceat(features, starts, axis=0)
        acc = self._zero if self._acc is None else self._acc
        emitted: list[tuple[int, np.ndarray]] = []
        for w, rows_max in zip(window[starts].tolist(), maxes):
            if w > self._current:
                emitted.append((self._current, acc))
                emitted += [(k, self._zero)
                            for k in range(self._current + 1, w)]
                self._current, acc = w, self._zero
            acc = np.maximum(acc, rows_max)
        self._acc = acc
        return emitted

    def flush(self) -> list[tuple[int, np.ndarray]]:
        if self._acc is None:
            return []
        out = [(self._current, self._acc)]
        self._current += 1
        self._acc = None
        return out


@dataclass(eq=False)
class Prediction:
    """Head output for one window: integer logits plus a confidence value."""

    window_index: int
    logits: np.ndarray
    conf: int

    @property
    def argmax_class(self) -> int:
        return int(np.argmax(self.logits))  # first index on ties

    def to_json_dict(self) -> dict:
        return {"window": self.window_index,
                "logits": [int(v) for v in self.logits],
                "conf": int(self.conf),
                "class": self.argmax_class}


def gru_forward(block: GruBlock, xs: np.ndarray,
                h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence over ``m`` int8 window rows ``xs``, in order.

    Returns the int8 states, ``(m, out_width)``, and the last (the int8
    ``h`` given, untouched, when ``m`` is 0). The input projection ``xs @
    weight_t[:in_width] + bias`` is one product over all rows. The gates
    saturate once, in ``requantize`` onto the table index scale (a GRU's
    window does not rectify); the reset product takes int64 (up to 256 *
    2**31). Sigmoid entries are 256-scaled, so both products step back by a
    rounding shift by 8. With z in [0, 256], the blend over 256 lies between
    n and h, so nothing clamps it. Other sums are int32, the gates' within
    the load-time bound (``|gated| <= |ah|``), the blend's within 2**15.
    """
    w, gates = block.weight_t, 2 * block.out_width
    ax = (xs @ w[:block.in_width]).astype(np.int32) + block.bias
    states = np.empty((len(ax), block.out_width), np.int8)
    for j, a in enumerate(ax):  # the recurrence: in order
        ah = (h @ w[block.in_width:]).astype(np.int32)
        z, r = lut_sigmoid(requantize(a[:gates] + ah[:gates],
                                      block)).reshape(2, -1)
        gated = (r.astype(np.int64) * ah[gates:] + 128) >> 8
        n = lut_tanh(requantize(a[gates:] + gated.astype(np.int32), block))
        states[j] = h = (((256 - z) * n + z * h + 128) >> 8).astype(np.int8)
    return states, h


def head_forward(weights: ModelWeights, pooled: np.ndarray,
                 hidden: list[np.ndarray], windows: Sequence[int]
                 ) -> tuple[list[Prediction], list[np.ndarray]]:
    """Run the head over ``m`` pooled window vectors, in window order.

    ``pooled`` holds the int8 rows, ``(m, width)``, ``windows`` their ``m``
    window indices and ``hidden`` one int8 vector per gru block, which the
    call leaves untouched. Returns one prediction per row and the new
    hidden vectors. Every block maps the ``m`` rows to ``m`` rows, a linear
    block in one product, a gru through ``gru_forward``. Every block input
    is int8, which keeps the products in each block's ``weight_t`` dtype
    exact, so one product over ``m`` rows gives what ``m`` one-row ones give.
    """
    pooled = np.asarray(pooled)
    m, width = len(windows), weights.head_blocks[0].in_width
    if pooled.dtype != np.int8 or pooled.shape != (m, width):
        raise ValidationError(
            f"pooled rows are {pooled.dtype} {pooled.shape}, head expects "
            f"int8 ({m}, {width})")
    x, hidden, gru = pooled, list(hidden), 0
    for i, block in enumerate(weights.head_blocks):
        if isinstance(block, GruBlock):
            x, hidden[gru] = gru_forward(block, x, hidden[gru])
            gru += 1
            continue
        acc = (x @ block.weight_t).astype(np.int32) + block.bias
        if i == len(weights.head_blocks) - 1:
            # logits keep sign and full range; acc * scale_num < 2**62
            x = rounding_rshift(acc.astype(np.int64) * block.scale_num,
                                block.scale_shift)
        else:
            x = requantize(acc, block)
    logits = x[:, :-1].astype(np.int64)
    return ([Prediction(w, row, conf) for w, row, conf
             in zip(windows, logits, x[:, -1].tolist())], hidden)


class RunState:
    """What one run carries from chunk to chunk.

    The graph builder's per-channel timestamps, each stage's stored
    products for the latest event on every channel (``memories``, ``(channels,
    out_width)`` per stage in the layer's ``node_dtype``, int16 or int32: the
    product clamped to the layer's bounds, less its ``offset``; a channel
    with no event yet holds zeros, which no neighbor table reads), the open
    pooling window and the head's ``hidden`` vectors. ``feed`` takes
    time-sorted events on at most 128 channels and ``close`` emits the
    window holding the last one; together they return the same predictions
    however the stream is split. A window closed is never reopened.

    ``feed`` runs ``CHUNK`` events at a time, one ``pointnet_conv`` call per
    stage into the stage's node buffer of ``channels + CHUNK`` rows, in the
    layer's ``node_dtype``: the carried memories (``memories`` are views of
    its first rows), then the chunk's own products. The chunk's stage-4 rows
    go to ``WindowPool.push`` whole, and the windows they close to one
    ``head_forward`` call. Every stage takes its chunk-sized work arrays
    from ``scratch``: the engine's, which outlives the run, or a fresh one
    of its own when given none. That scratch is allocated on the first
    chunk, about 1 MB at 72-wide int16 stages with float32 products; once
    it is, one 768-event chunk at 128 channels and ten offsets peaks at
    about 711 KB beyond the node buffers and the scratch.
    """

    def __init__(self, weights: ModelWeights, graph_params: GraphParams,
                 channels: int, window_us: int = DEFAULT_WINDOW_US,
                 scratch: Scratch | None = None):
        if channels > I8_MAX + 1:
            raise ValidationError(f"the convolution stages take at most "
                                  f"{I8_MAX + 1} channels, got {channels}")
        self.weights = weights
        self.scratch = Scratch() if scratch is None else scratch
        self.graph = GraphBuilder(channels, graph_params)
        self._nodes = [np.zeros((channels + CHUNK, layer.out_width),
                                layer.node_dtype)
                       for layer in weights.conv_layers]
        self.memories = [node[:channels] for node in self._nodes]
        self.pool = WindowPool(weights.conv_layers[-1].out_width, window_us)
        self.hidden = [np.zeros(b.out_width, np.int8)
                       for b in weights.head_blocks if isinstance(b, GruBlock)]

    def feed(self, t: np.ndarray, c: np.ndarray,
             p: np.ndarray) -> list[Prediction]:
        """Run events; returns the predictions of the windows they closed.

        The three columns pass the event rule (``events.check_events``)
        whole, from the last timestamp fed or the open window's start,
        whichever is later, before any event runs, so a refused call leaves
        the run as it was.
        """
        t, c, p = check_events(t, c, p, self.graph.channels,
                               max(self.graph.last_t, self.pool.open_start))
        predictions = []
        for i in range(0, len(t), CHUNK):
            end = i + CHUNK
            predictions += self._feed_chunk(t[i:end], c[i:end], p[i:end])
        return predictions

    def _feed_chunk(self, t: np.ndarray, c: np.ndarray,
                    p: np.ndarray) -> list[Prediction]:
        table = self.graph.insert(t, c)
        x = first_layer_inputs(table, p)
        channels, rows = self.graph.channels, len(table.channel)
        for layer, node in zip(self.weights.conv_layers, self._nodes):
            x = pointnet_conv(layer, node[:rows], x, table, self.scratch)
            node[:channels] = node.take(self.graph.latest, axis=0)
        return self._emit(self.pool.push(x, t))

    def close(self) -> list[Prediction]:
        """Close the window holding the last event."""
        return self._emit(self.pool.flush())

    def _emit(self, emissions: list[tuple[int, np.ndarray]]
              ) -> list[Prediction]:
        if not emissions:
            return []
        windows, vectors = zip(*emissions)
        predictions, self.hidden = head_forward(
            self.weights, np.stack(vectors), self.hidden, windows)
        return predictions


class InferenceEngine:
    """Filtration, graph building, convolutions, pooling and head, end to end.

    One engine may process many samples; every ``run`` starts from clean
    state, so results never depend on earlier samples. The engine owns one
    ``Scratch``, the convolution stages' work arrays, and hands it to each
    run's ``RunState``, so it runs one stream at a time. The scratch keeps
    steady-state runs from faulting memory in: glibc returns freed arrays
    of this size to the OS, the first touch of a page then costs about
    3.8 us on a 2-vCPU VM, and arrays made afresh by each stage call faulted
    364 pages per 128-channel bench sample and 106 per 64-channel one. With
    the scratch kept across runs it is under one. No output aliases it.
    """

    def __init__(self, weights: ModelWeights, graph_params: GraphParams,
                 filtration: FiltrationParams | None = None,
                 window_us: int = DEFAULT_WINDOW_US):
        self.weights = weights
        self.graph_params = graph_params
        self.filtration = filtration
        self.window_us = window_us
        self.scratch = Scratch()  # its arrays come with the first chunk

    def run(self, stream: EventStream) -> list[Prediction]:
        if self.filtration is not None:
            stream = filter_stream(stream, self.filtration)
        state = RunState(self.weights, self.graph_params,
                         stream.config.channels, self.window_us,
                         self.scratch)
        return state.feed(stream.t, stream.c, stream.p) + state.close()


def summarize_predictions(
        predictions: list[Prediction]) -> tuple[int, int] | None:
    """Collapse per-window predictions into (class, end-of-word window).

    The end-of-word window is the confidence argmax (first index on ties);
    the class is that window's logit argmax. None when nothing was emitted.
    """
    if not predictions:
        return None
    best = max(range(len(predictions)),
               key=lambda i: (predictions[i].conf, -i))
    pred = predictions[best]
    return pred.argmax_class, pred.window_index
