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
which keeps int32 accumulation exact. Products run in float32 wherever
128*sum|w| of every row is at most 2**24, which float32 holds exactly, and in
float64 otherwise (``Block.weight_t``). Requantize clamps each int32
accumulator to the window outside which its output saturates, so it scales in
int32 and folds the ReLU into that clamp. A ``RunState`` carries each
channel's latest stage products, the open window and the recurrent state
across chunks, in one int32 node buffer per stage, so chunk boundaries never
change the result.

Stage-4 outputs pool element-wise-max into fixed 10 ms windows aligned at
t=0; ``WindowPool.push`` takes a chunk's rows whole and is the one place
windows are derived. Whenever a row lands past the open window, every
elapsed window emits (empty ones as all zeros, the minimum of the rectified
domain) and the head runs once per emission: linear and recurrent blocks in
declared order, hidden blocks rectified, the final block affine. Its
products are BLAS matrix-vector products on each block's ``weight_t``, exact
by the same rule, then summed with the bias in 64 bits. Its output is class
logits plus one confidence value. Recurrent state persists across windows of
one sample and resets between samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OrderingError, ValidationError
from .events import DEFAULT_WINDOW_US, EventStream, check_polarity
from .filtering import FiltrationParams, filter_stream
from .graph import CHUNK, GraphBuilder, GraphParams, NeighborTable
from .model import ConvLayer, GruBlock, ModelWeights
from .quant import (I8_MAX, I8_MIN, div_round_half_away,
                    div_round_half_up_nonneg, lut_sigmoid, lut_tanh,
                    quantize_dt, requantize, rounding_rshift, saturate_i8)


def first_layer_inputs(table: NeighborTable, p: np.ndarray) -> np.ndarray:
    """Stage-1 feature rows of a batch of events (int8, ``(n, 3)``)."""
    count = np.maximum(table.valid.sum(axis=0), 1)
    mean_dc = div_round_half_away(table.dc @ table.valid, count)
    mean_dt = div_round_half_up_nonneg(
        (table.dt * table.valid).sum(axis=0), count)
    return np.stack([saturate_i8(mean_dc), quantize_dt(mean_dt),
                     np.asarray(p, dtype=np.int8)], axis=1)


def pointnet_conv(layer: ConvLayer, node: np.ndarray, x: np.ndarray,
                  table: NeighborTable) -> np.ndarray:
    """One convolution stage over a batch of ``n`` events.

    ``x`` holds the batch's int8 stage inputs, ``(n, in_width)``, and
    ``node`` the int32 vertex products ``[x, ch] @ [Wx, w_dc].T`` of the
    rows ``table.row`` points into; the call checks all three, then writes
    the batch's own products into the last ``n`` rows of ``node`` (their
    self vertices), where every later event that takes them as neighbors
    reads them. Each neighbor adds its age term from the layer's
    ``age_table``; after the maximum, each event adds ``bias - ch_i * w_dc``
    from its ``channel_table``. Both tables are built with the layer, so a
    call derives nothing from the weights. Returns the rectified int8
    outputs, one row per batch event. Invariant under neighbor order, and
    element-wise non-decreasing when vertices are added.
    """
    n, in_w, out_w = table.row.shape[1], layer.in_width, layer.out_width
    if node.dtype != np.int32 or node.shape != (len(table.channel), out_w):
        raise ValidationError(
            f"stage products are {node.dtype} {node.shape}, stage expects "
            f"int32 ({len(table.channel)}, {out_w})")
    if x.shape != (n, in_w):
        raise ValidationError(
            f"stage inputs have shape {x.shape}, stage expects ({n}, {in_w})")
    nbr, age = table.gather  # indices and channels checked here
    own = len(node) - n
    # exact in weight_t's dtype: float32 wherever it holds every partial sum
    weight_t = layer.weight_t[:in_w + 1]
    node[own:] = np.concatenate([x, table.channel[own:, None]], axis=1,
                                dtype=weight_t.dtype) @ weight_t
    best = node[own:].copy()
    cand, aged = np.empty_like(best), np.empty_like(best)
    for k in range(len(nbr)):
        node.take(nbr[k], axis=0, out=cand, mode="clip")
        layer.age_table.take(age[k], axis=0, out=aged, mode="clip")
        cand += aged
        np.maximum(best, cand, out=best)
    layer.channel_table.take(table.channel[own:] + I8_MAX, axis=0,
                             out=aged, mode="clip")
    best += aged                                # bias - ch_i * w_dc
    return requantize(best, layer.scale_num, layer.scale_shift, rectify=True)


class WindowPool:
    """Running per-feature max over fixed windows aligned at t=0.

    ``push`` takes a chunk of ``width``-wide feature rows with their
    time-sorted timestamps and returns the (index, vector) pairs of every
    window the chunk completed; ``flush`` closes the window holding the last
    row. Each window's max starts from zeros, and every window nothing
    landed in emits the pool's one read-only zero vector. A stream with no
    rows emits nothing.
    """

    def __init__(self, width: int, window_us: int = DEFAULT_WINDOW_US):
        if width < 1:
            raise ValidationError("feature width must be positive")
        if window_us < 1:
            raise ValidationError("window width must be positive")
        self.window_us = window_us
        self._zero = np.zeros(width, dtype=np.int8)
        self._zero.flags.writeable = False
        self._current = 0     # the open window
        self._acc = None      # its running max; None until a row lands

    def push(self, features: np.ndarray,
             t: np.ndarray) -> list[tuple[int, np.ndarray]]:
        t = np.asarray(t, dtype=np.int64)
        if t.ndim != 1 or features.shape != (len(t), len(self._zero)):
            raise ValidationError(f"feature rows {features.shape} do not "
                                  f"pair with {t.shape} timestamps")
        if not len(t):
            return []
        window = t // self.window_us
        if window[0] < self._current or (t[1:] < t[:-1]).any():
            raise OrderingError(
                f"rows at {t[0]}..{t[-1]} us regress or start before "
                f"window {self._current}")
        starts = np.flatnonzero(np.concatenate(([True],
                                                window[1:] != window[:-1])))
        maxes = np.maximum.reduceat(features, starts, axis=0)
        acc = self._zero if self._acc is None else self._acc
        emitted: list[tuple[int, np.ndarray]] = []
        for w, rows_max in zip(window[starts].tolist(),
                               maxes.astype(np.int8, copy=False)):
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


@dataclass
class HeadState:
    """Hidden vectors of the recurrent head blocks, one per gru block."""

    hidden: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def fresh(cls, weights: ModelWeights) -> "HeadState":
        return cls([np.zeros(b.out_width, dtype=np.int8)
                    for b in weights.head_blocks if isinstance(b, GruBlock)])


def gru_step(block: GruBlock, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One recurrent update in pure integer arithmetic.

    Gate pre-activations requantize onto the lookup-table index scale. The
    reset gate weighs only the recurrent accumulator of the candidate; the
    new hidden state blends candidate and previous state with the update
    gate. Sigmoid entries are 256-scaled, so every product steps back down
    with a rounding shift by 8.
    """
    hidden = block.out_width
    w = block.weight_t  # exact products for int8 x and h, in its dtype
    ax = (x @ w[:block.in_width]).astype(np.int64) + block.bias
    ah = (h @ w[block.in_width:]).astype(np.int64)

    def gate_index(rows: slice, acc: np.ndarray) -> np.ndarray:
        return requantize(acc[rows], block.scale_num, block.scale_shift)

    z = lut_sigmoid(gate_index(slice(0, hidden), ax + ah))
    r = lut_sigmoid(gate_index(slice(hidden, 2 * hidden), ax + ah))
    cand_rows = slice(2 * hidden, 3 * hidden)
    gated = rounding_rshift(r.astype(np.int64) * ah[cand_rows], 8)
    n = lut_tanh(requantize(ax[cand_rows] + gated,
                            block.scale_num, block.scale_shift))
    blend = (256 - z.astype(np.int64)) * n + z.astype(np.int64) * h
    return saturate_i8(rounding_rshift(blend, 8))


def head_forward(weights: ModelWeights, pooled: np.ndarray, state: HeadState,
                 window_index: int = 0) -> tuple[Prediction, HeadState]:
    """Run the head once on a pooled window vector of int8 values.

    Returns the prediction and the advanced recurrent state (a new object;
    the input state is left untouched). Every block input is int8, which
    keeps the products in each block's ``weight_t`` dtype exact.
    """
    pooled = np.asarray(pooled)
    if pooled.shape != (weights.head_blocks[0].in_width,) or (
            pooled.dtype != np.int8
            and ((pooled < I8_MIN) | (pooled > I8_MAX)).any()):
        raise ValidationError(
            f"pooled vector has shape {pooled.shape}, head expects "
            f"({weights.head_blocks[0].in_width},) int8 values")
    x = pooled
    new_hidden: list[np.ndarray] = []
    last = len(weights.head_blocks) - 1
    for i, block in enumerate(weights.head_blocks):
        if isinstance(block, GruBlock):
            x = gru_step(block, x, state.hidden[len(new_hidden)])
            new_hidden.append(x)
            continue
        acc = (x @ block.weight_t).astype(np.int64) + block.bias
        if i == last:
            # logits keep sign and full range
            x = rounding_rshift(acc * block.scale_num, block.scale_shift)
        else:
            x = requantize(acc, block.scale_num, block.scale_shift,
                           rectify=True)
    logits = x[:-1].astype(np.int64)
    conf = int(x[-1])
    return (Prediction(window_index, logits, conf),
            HeadState(new_hidden))


class RunState:
    """What one run carries from chunk to chunk.

    The graph builder's per-channel timestamps, each stage's products for
    the latest event on every channel (``memories``, int32 ``(channels,
    out_width)`` per stage; a channel with no event yet holds zeros, which
    no neighbor table reads), the open pooling window and the recurrent head
    state. ``feed`` takes time-sorted events and ``close`` ends the run;
    together they return the same predictions however the stream is split.

    ``feed`` runs ``CHUNK`` events at a time, one ``pointnet_conv`` call per
    stage into the stage's int32 node buffer of ``channels + CHUNK`` rows:
    the carried memories (``memories`` are views of its first rows), then
    the chunk's own products. The chunk's stage-4 rows go to
    ``WindowPool.push`` whole.
    """

    def __init__(self, weights: ModelWeights, graph_params: GraphParams,
                 channels: int, window_us: int = DEFAULT_WINDOW_US):
        self.weights = weights
        self.graph = GraphBuilder(channels, graph_params)
        self._nodes = [np.zeros((channels + CHUNK, layer.out_width), np.int32)
                       for layer in weights.conv_layers]
        self.memories = [node[:channels] for node in self._nodes]
        self.pool = WindowPool(weights.conv_layers[-1].out_width, window_us)
        self.head = HeadState.fresh(weights)

    def feed(self, t: np.ndarray, c: np.ndarray,
             p: np.ndarray) -> list[Prediction]:
        """Run events; returns the predictions of the windows they closed.

        The three columns are checked whole before any event runs (as
        ``GraphBuilder.check`` checks a batch, and polarity +1 or -1), so a
        refused call leaves the run as it was.
        """
        # the int64 columns that check returns are dropped, so a long input
        # is not held twice; each chunk's insert converts its own slice
        shape = self.graph.check(t, c)[0].shape
        p = np.asarray(p)
        if p.shape != shape:
            raise ValidationError(
                f"polarities {p.shape} do not pair with {shape} events")
        check_polarity(p)
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
        latest = self.graph.latest
        moved = np.flatnonzero(latest >= channels)  # channels with new events
        for layer, node in zip(self.weights.conv_layers, self._nodes):
            x = pointnet_conv(layer, node[:rows], x, table)
            node[moved] = node[latest[moved]]
        return self._emit(self.pool.push(x, t))

    def close(self) -> list[Prediction]:
        """Close the window holding the last event."""
        return self._emit(self.pool.flush())

    def _emit(self, emissions: list[tuple[int, np.ndarray]]
              ) -> list[Prediction]:
        predictions = []
        for window_index, pooled in emissions:
            pred, self.head = head_forward(self.weights, pooled, self.head,
                                           window_index)
            predictions.append(pred)
        return predictions


class InferenceEngine:
    """Filtration, graph building, convolutions, pooling and head, end to end.

    One engine may process many samples; every ``run`` starts from clean
    state, so results never depend on earlier samples.
    """

    def __init__(self, weights: ModelWeights, graph_params: GraphParams,
                 filtration: FiltrationParams | None = None,
                 window_us: int = DEFAULT_WINDOW_US):
        self.weights = weights
        self.graph_params = graph_params
        self.filtration = filtration
        self.window_us = window_us

    def run(self, stream: EventStream) -> list[Prediction]:
        if self.filtration is not None:
            stream = filter_stream(stream, self.filtration)
        state = RunState(self.weights, self.graph_params,
                         stream.config.channels, self.window_us)
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
