"""Streaming int8 inference: graph convolutions, window pooling, head.

Every accepted event runs through four graph-convolution stages. A stage
evaluates one quantized affine map phi over each vertex of the neighborhood
(the event itself plus its neighbors), rectifies negatives to zero, and takes
the element-wise maximum:

    out_i = max over j in {i} + N(i) of relu(W @ [x_j, dc_j, dt_q_j] + b)

where x_j are the vertex's stage-input features, dc_j the channel offset and
dt_q_j the age scaled by 1/64 (both 0 for the self vertex). Accumulation is
32-bit; the result returns to int8 through the block's rounding shift. Each
stage keeps one feature record per channel (the stage input of the latest
event on that channel), so neighbors are looked up by channel.

Stage-1 input features of an event are [mean neighbor channel offset, mean
neighbor age (scaled), polarity], zeros when the neighborhood is empty.

Stage-4 outputs pool element-wise-max into fixed 10 ms windows aligned at
t=0. Whenever an event lands past the current window, every elapsed window
emits (empty ones as all zeros, the minimum of the rectified domain) and the
head runs once per emission: linear and recurrent blocks in declared order,
hidden blocks rectified, the final block affine. Its output is class logits
plus one confidence value. Recurrent state persists across windows of one
sample and resets between samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OrderingError, ValidationError
from .events import DEFAULT_WINDOW_US, Event, EventStream
from .filtering import FiltrationParams, filter_stream
from .graph import GraphBuilder, GraphParams, NeighborSet
from .model import ConvLayer, GruBlock, LinearBlock, ModelWeights
from .quant import (DT_SHIFT, div_round_half_away, div_round_half_up_nonneg,
                    lut_sigmoid, lut_tanh, quantize_dt, requantize,
                    rounding_rshift, saturate_i8)


def first_layer_inputs(neighbors: NeighborSet, event: Event) -> np.ndarray:
    """Stage-1 feature vector of a freshly inserted event (int8, length 3)."""
    n = len(neighbors)
    if n == 0:
        return np.array([0, 0, event.p], dtype=np.int8)
    mean_dc = div_round_half_away(sum(nb.dc for nb in neighbors.neighbors), n)
    mean_dt = div_round_half_up_nonneg(
        sum(nb.dt for nb in neighbors.neighbors), n)
    return np.array([saturate_i8(mean_dc), quantize_dt(mean_dt), event.p],
                    dtype=np.int8)


def pointnet_conv(layer: ConvLayer, center_features: np.ndarray,
                  neighbors) -> np.ndarray:
    """One convolution stage over a center vertex and its neighbors.

    ``neighbors`` iterates (features, dc, dt_us) triples; the center vertex
    contributes (center_features, 0, 0). Returns the rectified int8 output.
    Invariant under neighbor order, and element-wise non-decreasing when
    vertices are added.
    """
    center = np.asarray(center_features)
    if center.shape != (layer.in_width,):
        raise ValidationError(
            f"center features have shape {center.shape}, stage expects "
            f"({layer.in_width},)")
    rows = [np.concatenate([center.astype(np.int32), (0, 0)])]
    for feats, dc, dt in neighbors:
        feats = np.asarray(feats)
        if feats.shape != (layer.in_width,):
            raise ValidationError(
                f"neighbor features have shape {feats.shape}, stage expects "
                f"({layer.in_width},)")
        rows.append(np.concatenate([
            feats.astype(np.int32),
            (int(saturate_i8(dc)), int(quantize_dt(dt))),
        ]))
    x = np.stack(rows)                                   # (vertices, in + 2)
    acc = x @ layer.weight.astype(np.int32).T            # (vertices, out)
    acc += layer.bias.astype(np.int32)
    out = requantize(acc, layer.scale_num, layer.scale_shift)
    out = np.maximum(out, 0)                             # rectify
    return out.max(axis=0).astype(np.int8)


class WindowPool:
    """Running per-feature max over fixed windows aligned at t=0.

    ``push`` returns the (index, vector) pairs of every window completed by
    the new timestamp, including all-zero vectors for windows nothing landed
    in; ``flush`` closes the window holding the last event. A stream with no
    events emits nothing.
    """

    def __init__(self, width: int, window_us: int = DEFAULT_WINDOW_US):
        if width < 1:
            raise ValidationError("feature width must be positive")
        if window_us < 1:
            raise ValidationError("window width must be positive")
        self.width = width
        self.window_us = window_us
        self.reset()

    def reset(self) -> None:
        self._current = 0
        self._acc = np.zeros(self.width, dtype=np.int8)
        self._any = False

    def push(self, features: np.ndarray,
             t_us: int) -> list[tuple[int, np.ndarray]]:
        window = t_us // self.window_us
        if window < self._current:
            raise OrderingError(
                f"event at {t_us} us belongs to window {window}, already at "
                f"{self._current}")
        emitted: list[tuple[int, np.ndarray]] = []
        while self._current < window:
            emitted.append((self._current, self._acc))
            self._acc = np.zeros(self.width, dtype=np.int8)
            self._current += 1
        self._acc = np.maximum(self._acc, features.astype(np.int8))
        self._any = True
        return emitted

    def flush(self) -> list[tuple[int, np.ndarray]]:
        if not self._any:
            return []
        out = [(self._current, self._acc)]
        self._acc = np.zeros(self.width, dtype=np.int8)
        self._any = False
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
    w = block.weight.astype(np.int32)
    ax = w[:, :block.in_width] @ x.astype(np.int32) + block.bias
    ah = w[:, block.in_width:] @ h.astype(np.int32)

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
    """Run the head once on a pooled window vector.

    Returns the prediction and the advanced recurrent state (a new object;
    the input state is left untouched).
    """
    pooled = np.asarray(pooled)
    if pooled.shape != (weights.head_blocks[0].in_width,):
        raise ValidationError(
            f"pooled vector has shape {pooled.shape}, head expects "
            f"({weights.head_blocks[0].in_width},)")
    x = pooled.astype(np.int32)
    new_hidden: list[np.ndarray] = []
    gru_i = 0
    last = len(weights.head_blocks) - 1
    for i, block in enumerate(weights.head_blocks):
        if isinstance(block, GruBlock):
            h = state.hidden[gru_i]
            h_next = gru_step(block, saturate_i8(x), h)
            new_hidden.append(h_next)
            gru_i += 1
            x = h_next.astype(np.int32)
        else:
            acc = block.weight.astype(np.int32) @ x + block.bias
            if i == last:
                out = rounding_rshift(acc.astype(np.int64) * block.scale_num,
                                      block.scale_shift)
                x = out.astype(np.int32)  # logits keep sign and full range
            else:
                x = np.maximum(
                    requantize(acc, block.scale_num, block.scale_shift),
                    0).astype(np.int32)
    logits = x[:-1].copy()
    conf = int(x[-1])
    return (Prediction(window_index, logits, conf),
            HeadState(new_hidden))


class InferenceEngine:
    """Filtration, graph building, convolutions, pooling and head, end to end.

    One engine may process many samples; every ``run`` starts from clean
    state, so results never depend on earlier samples.
    """

    def __init__(self, weights: ModelWeights, graph_params: GraphParams,
                 filtration: FiltrationParams | None = None,
                 window_us: int = DEFAULT_WINDOW_US):
        weights.validate()
        self.weights = weights
        self.graph_params = graph_params
        self.filtration = filtration
        self.window_us = window_us

    def run(self, stream: EventStream) -> list[Prediction]:
        stream.validate()
        if self.filtration is not None:
            stream = filter_stream(stream, self.filtration)
        weights = self.weights
        channels = stream.config.channels
        builder = GraphBuilder(channels, self.graph_params)
        # One stage-input record per channel per stage, like the per-layer
        # memories of a pipelined implementation.
        memories = [
            np.zeros((channels, layer.in_width), dtype=np.int8)
            for layer in weights.conv_layers
        ]
        pool = WindowPool(weights.conv_layers[-1].out_width, self.window_us)
        state = HeadState.fresh(weights)
        predictions: list[Prediction] = []

        def emit(emissions: list[tuple[int, np.ndarray]]) -> None:
            nonlocal state
            for window_index, pooled in emissions:
                pred, state = head_forward(weights, pooled, state,
                                           window_index)
                predictions.append(pred)

        for event in stream:
            neighbor_set = builder.insert_event(event)
            offsets = [(event.c + nb.dc, nb.dc, nb.dt)
                       for nb in neighbor_set.neighbors]
            x = first_layer_inputs(neighbor_set, event)
            for layer, memory in zip(weights.conv_layers, memories):
                out = pointnet_conv(
                    layer, x,
                    [(memory[ch], dc, dt) for ch, dc, dt in offsets])
                memory[event.c] = x
                x = out
            emit(pool.push(x, event.t))
        emit(pool.flush())
        return predictions


def infer_stream(stream: EventStream, weights: ModelWeights,
                 graph_params: GraphParams,
                 filtration: FiltrationParams | None = None,
                 window_us: int = DEFAULT_WINDOW_US) -> list[Prediction]:
    """One prediction per window from sample start through the last event."""
    engine = InferenceEngine(weights, graph_params, filtration, window_us)
    return engine.run(stream)


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
