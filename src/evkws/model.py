"""Weight containers and the self-describing weight-file format.

A model is four graph-convolution layers followed by a head of linear and
recurrent blocks executed in declared order. The file is JSON:

    {
      "version": 1,
      "class_count": <int >= 1>,
      "conv_widths": [w1, w2, w3, w4],
      "blocks": [
        {"kind": "conv" | "linear" | "gru",
         "in": <feature input width>,
         "out": <output width>,
         "scale_num": <int >= 1>,
         "scale_shift": <int >= 0>,
         "weight": "<base64 of row-major int8 bytes>",
         "bias": [<int32>, ...]},
        ...
      ]
    }

Blocks appear conv-first (exactly four), then the head in execution order.
Every kind is a :class:`Block` and checks the same way; kinds differ only in
``weight_shape(in, out)``: conv blocks store ``out x (in + 2)`` (two trailing
columns take the relative channel and age inputs); linear blocks ``out x in``;
a gru block stores ``(3*out) x (in + out)`` with gate rows ordered update,
reset, candidate and input columns before recurrent columns. The bias holds
one value per weight row. The final head block must emit ``class_count + 1``
values: the class logits plus a confidence scalar.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ParseError, ValidationError, open_text
from .quant import I8_MAX, I8_MIN, _window

WEIGHT_FORMAT_VERSION = 1

KIND_CONV = "conv"
KIND_LINEAR = "linear"
KIND_GRU = "gru"

# Inputs to the first conv layer: mean neighbor channel offset, mean neighbor
# age, polarity.
CONV1_IN_WIDTH = 3
POSITION_WIDTH = 2
CONV_LAYER_COUNT = 4

ACC_LIMIT = 2**31  # accumulators, scale multipliers: signed 32-bit
I32_MAX = ACC_LIMIT - 1
I16_SPAN = 2**16 - 1  # widest range of candidates an int16 node holds
MAX_SHIFT = 62     # rounding offset 2**61 plus a scaled value below 2**62


def exact_float(weight: np.ndarray, extra=0) -> type:
    """float32 when ``128 * sum|w| + extra`` of every row of ``weight`` is
    at most 2**24, so products of int8 inputs and the rows are exact in any
    order, with or without fused multiply-adds; float64 otherwise."""
    extent = 128 * np.abs(weight.astype(np.int64)).sum(axis=1) + extra
    return np.float32 if extent.max() <= 2**24 else np.float64


@dataclass(frozen=True, eq=False)
class Block:
    """One int8 affine block: ``weight`` (int8) and ``bias`` (int32, one
    value per weight row) with the requantization scale of its output.
    Checked once, when built; both arrays are then read-only.

    Tables derived from the weights are built once, with the block, and are
    read-only too; ``==`` compares the six fields alone.

    Subclasses set ``kind``, the file's block kind, and ``weight_shape``,
    the only rule in which kinds differ.
    """

    kind: ClassVar[str]

    weight: np.ndarray
    bias: np.ndarray
    in_width: int
    out_width: int
    scale_num: int = 1
    scale_shift: int = 0

    @staticmethod
    def weight_shape(in_width: int, out_width: int) -> tuple[int, int]:
        raise NotImplementedError

    def _freeze(self, name: str, array: np.ndarray) -> None:
        array = array.view()  # read-only, so checked values stay checked
        array.flags.writeable = False
        object.__setattr__(self, name, array)

    def __post_init__(self):
        if self.in_width < 1 or self.out_width < 1:
            raise ValidationError("block widths must be positive")
        weight = np.asarray(self.weight)
        if weight.dtype != np.int8:
            if (weight < I8_MIN).any() or (weight > I8_MAX).any():
                raise ValidationError("weight values exceed int8 range")
            weight = weight.astype(np.int8)
        self._freeze("weight", weight)
        shape = self.weight_shape(self.in_width, self.out_width)
        if weight.shape != shape:
            raise ValidationError(
                f"{self.kind} weight shape {weight.shape} does not match "
                f"{shape} for in={self.in_width}, out={self.out_width}")
        bias = np.asarray(self.bias, dtype=np.int64)
        if bias.shape != shape[:1]:
            raise ValidationError(
                f"bias length {bias.shape} does not match {shape[0]} rows")
        # Inputs are int8, so a row's accumulator stays within |bias| + 128 *
        # sum|w|: below 2**31 it fits int32, and scale_num < 2**31 with shift
        # <= 62 keeps requantization inside int64.
        if not 1 <= self.scale_num < ACC_LIMIT:
            raise ValidationError(
                f"scale_num must be an integer in [1, 2**31), got "
                f"{self.scale_num}")
        if not 0 <= self.scale_shift <= MAX_SHIFT:
            raise ValidationError(
                f"scale_shift must lie in [0, {MAX_SHIFT}], got "
                f"{self.scale_shift}")
        bound = np.abs(bias) + 128 * np.abs(weight.astype(np.int64)).sum(1)
        if (bound >= ACC_LIMIT).any():
            row = int(np.argmax(bound >= ACC_LIMIT))
            raise ValidationError(
                f"row {row}: |bias| + 128*sum|w| = {int(bound[row])} reaches "
                "2**31, so the 32-bit accumulator could wrap")
        self._freeze("bias", bias.astype(np.int32))

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return (self.in_width == other.in_width
                and self.out_width == other.out_width
                and self.scale_num == other.scale_num
                and self.scale_shift == other.scale_shift
                and np.array_equal(self.weight, other.weight)
                and np.array_equal(self.bias, other.bias))


@dataclass(frozen=True, eq=False)
class ConvLayer(Block):
    """One graph-convolution stage: affine map over features plus position.

    A stage keeps each vertex's product ``P = [x, ch] @ [Wx, w_dc].T`` in a
    node buffer of the layer's ``node_dtype`` and takes, per feature, the
    maximum of ``P_j + A[q_j]`` over a neighborhood before it adds
    ``C[ch_i]``, where ``A[q] = q * w_age`` for each quantized age q in
    [0, 127] and ``C[ch] = bias - ch * w_dc`` for each channel ch in
    [-127, 127]. The layer holds, read-only:

    * ``age_table``, ``(128, out_width)`` in the node dtype: row q is A[q];
    * ``channel_table``, ``(255, out_width)`` int32: row ``ch + 127`` is
      ``C[ch] + offset``;
    * ``product_t``, ``(in_width + 2, out_width)``: ``[Wx; w_dc; -offset]``,
      so ``[x, ch, 1] @ product_t`` is ``P - offset``. It is float32 when
      ``128 * sum|w| + |offset|`` of every row is at most 2**24, and float64
      otherwise (``exact_float``);
    * ``node_range``, ``(2, out_width)`` in ``product_t``'s dtype: the
      bounds ``[low, high] - offset`` a stored product is clamped to;
    * ``offset``, int32 per feature: a stored product plus it is P clamped
      to ``[low, high]``.

    The rectified ``requantize`` saturates outside its window ``[lo, hi]``
    (``quant._window``, capped at the int32 maximum), and the maximum, the
    adds and that clamp are monotone. So clamping P per feature to ``[lo -
    max A - max C, hi - min A - min C]`` changes no output. Both bounds are
    then clipped to the products' reach ``±(128 * sum|Wx| + 127 * |w_dc|)``,
    which changes no product and keeps every sum of a stage inside int32.
    The candidates ``P + A`` then span ``high - low + range(A)``, which is
    at most ``(hi - lo) + 2 * range(A) + range(C)``. Where every feature's
    span is at most 65,535 the node dtype is int16 and the offset puts the
    lowest candidate at -32768, or higher where ``C + offset`` would pass
    the int32 maximum otherwise; if any feature's span is wider, the node
    dtype is int32 and the offset is 0. Everything here is derived in int64.
    """

    kind = KIND_CONV
    age_table: np.ndarray = field(init=False, repr=False)
    channel_table: np.ndarray = field(init=False, repr=False)
    product_t: np.ndarray = field(init=False, repr=False)
    node_range: np.ndarray = field(init=False, repr=False)
    offset: np.ndarray = field(init=False, repr=False)

    @staticmethod
    def weight_shape(in_width: int, out_width: int) -> tuple[int, int]:
        return out_width, in_width + POSITION_WIDTH

    @property
    def node_dtype(self) -> np.dtype:
        return self.age_table.dtype

    def __post_init__(self):
        super().__post_init__()
        weight = self.weight.astype(np.int64)
        w_x = weight[:, :self.in_width]
        w_dc, w_age = weight[:, self.in_width:].T
        age = np.outer(np.arange(I8_MAX + 1), w_age)
        channel = self.bias - np.outer(np.arange(-I8_MAX, I8_MAX + 1), w_dc)
        _, lo, hi, *_ = _window(np.dtype(np.int32), self.scale_num,
                                self.scale_shift, 0)
        lo, hi = min(int(lo), I32_MAX), min(int(hi), I32_MAX)
        a_min, a_max = age.min(axis=0), age.max(axis=0)
        reach = 128 * np.abs(w_x).sum(axis=1) + I8_MAX * np.abs(w_dc)
        low = np.clip(lo - a_max - channel.max(axis=0), -reach, reach)
        high = np.clip(hi - a_min - channel.min(axis=0), -reach, reach)
        if (high - low + a_max - a_min).max() <= I16_SPAN:
            node_dtype = np.int16
            offset = np.minimum(low + a_min + 2**15,
                                I32_MAX - channel.max(axis=0))
        else:
            node_dtype, offset = np.int32, np.zeros_like(low)
        exact = exact_float(weight, np.abs(offset))
        self._freeze("age_table", age.astype(node_dtype))
        self._freeze("channel_table", (channel + offset).astype(np.int32))
        self._freeze("product_t",
                     np.vstack([w_x.T, w_dc, -offset]).astype(exact))
        self._freeze("node_range",
                     (np.stack([low, high]) - offset).astype(exact))
        self._freeze("offset", offset.astype(np.int32))


@dataclass(frozen=True, eq=False)
class HeadBlock(Block):
    """A head block; ``weight_t``, read-only, is its transposed weight
    ``(columns, rows)`` for BLAS products, in ``exact_float(weight)``."""

    weight_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        self._freeze("weight_t", np.ascontiguousarray(
            self.weight.T, exact_float(self.weight)))


class LinearBlock(HeadBlock):
    kind = KIND_LINEAR

    @staticmethod
    def weight_shape(in_width: int, out_width: int) -> tuple[int, int]:
        return out_width, in_width


class GruBlock(HeadBlock):
    """Recurrent head block; ``out_width`` is the hidden size.

    Rows of ``weight`` stack the update, reset and candidate gates; columns
    hold the input weights first, then the recurrent weights.
    """

    kind = KIND_GRU

    @staticmethod
    def weight_shape(in_width: int, out_width: int) -> tuple[int, int]:
        return 3 * out_width, in_width + out_width


BLOCK_KINDS = {cls.kind: cls for cls in (ConvLayer, LinearBlock, GruBlock)}


def _block_class(kind) -> type[Block] | None:
    # the kind comes from the file and may be any JSON value, hashable or not
    return BLOCK_KINDS.get(kind) if isinstance(kind, str) else None


@dataclass(frozen=True, eq=False)
class ModelWeights:
    """Full network: conv stack, head blocks in execution order, class count.

    Checked once, when built: four chained conv layers, then a non-empty
    head chained from them whose last block emits ``class_count + 1``.
    """

    conv_layers: tuple[ConvLayer, ...]
    head_blocks: tuple[HeadBlock, ...]
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "conv_layers", tuple(self.conv_layers))
        object.__setattr__(self, "head_blocks", tuple(self.head_blocks))
        if self.class_count < 1:
            raise ValidationError("class_count must be at least 1")
        if len(self.conv_layers) != CONV_LAYER_COUNT:
            raise ValidationError(
                f"expected {CONV_LAYER_COUNT} conv layers, got "
                f"{len(self.conv_layers)}")
        if self.conv_layers[0].in_width != CONV1_IN_WIDTH:
            raise ValidationError(
                f"conv layer 1 must take {CONV1_IN_WIDTH} features (plus "
                f"{POSITION_WIDTH} position inputs); file declares "
                f"{self.conv_layers[0].in_width}")
        for i in range(1, CONV_LAYER_COUNT):
            prev_out = self.conv_layers[i - 1].out_width
            if self.conv_layers[i].in_width != prev_out:
                raise ValidationError(
                    f"conv layer {i + 1} input width "
                    f"{self.conv_layers[i].in_width} does not chain from "
                    f"layer {i} output {prev_out}")
        if not self.head_blocks:
            raise ValidationError("the head needs at least one block")
        width = self.conv_layers[-1].out_width
        for i, block in enumerate(self.head_blocks):
            if block.in_width != width:
                raise ValidationError(
                    f"head block {i} ({block.kind}) input width "
                    f"{block.in_width} does not chain from {width}")
            width = block.out_width
        if width != self.class_count + 1:
            raise ValidationError(
                f"final head block emits {width} values; expected "
                f"class_count + 1 = {self.class_count + 1} (logits plus "
                "confidence)")

    @property
    def conv_widths(self) -> list[int]:
        return [layer.out_width for layer in self.conv_layers]

    def param_count(self) -> int:
        return sum(block.weight.size + block.bias.size
                   for block in [*self.conv_layers, *self.head_blocks])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelWeights):
            return NotImplemented
        return (self.class_count == other.class_count
                and self.conv_layers == other.conv_layers
                and self.head_blocks == other.head_blocks)


def _encode_block(block) -> dict:
    return {
        "kind": block.kind,
        "in": block.in_width,
        "out": block.out_width,
        "scale_num": block.scale_num,
        "scale_shift": block.scale_shift,
        "weight": base64.b64encode(
            np.ascontiguousarray(block.weight).tobytes()).decode("ascii"),
        "bias": [int(b) for b in np.asarray(block.bias)],
    }


def save_weights(weights: ModelWeights, path: str) -> None:
    doc = {
        "version": WEIGHT_FORMAT_VERSION,
        "class_count": weights.class_count,
        "conv_widths": weights.conv_widths,
        "blocks": [_encode_block(b)
                   for b in [*weights.conv_layers, *weights.head_blocks]],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _decode_matrix(entry: dict, label: str, rows: int, cols: int) -> np.ndarray:
    try:
        raw = base64.b64decode(entry["weight"], validate=True)
    except Exception as exc:
        raise ParseError(f"{label}: weight blob is not valid base64: {exc}")
    data = np.frombuffer(raw, dtype=np.int8)
    if rows < 1 or cols < 1 or data.size != rows * cols:
        raise ValidationError(
            f"{label}: weight holds {data.size} values, expected a "
            f"{rows} x {cols} matrix")
    return data.reshape(rows, cols).copy()


def _decode_block(entry: dict, index: int):
    kind = entry.get("kind")
    label = f"block {index} ({kind})"
    try:
        in_width = int(entry["in"])
        out_width = int(entry["out"])
        scale_num = int(entry.get("scale_num", 1))
        scale_shift = int(entry.get("scale_shift", 0))
        bias = np.array(entry["bias"], dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{label}: missing or malformed field: {exc}")
    cls = _block_class(kind)
    if cls is None:
        raise ValidationError(f"{label}: unknown block kind {kind!r}")
    weight = _decode_matrix(entry, label,
                            *cls.weight_shape(in_width, out_width))
    try:
        return cls(weight=weight, bias=bias, in_width=in_width,
                   out_width=out_width, scale_num=scale_num,
                   scale_shift=scale_shift)
    except ValidationError as exc:
        raise ValidationError(f"{label}: {exc}") from None


def load_weights(path: str) -> ModelWeights:
    """Parse, shape-check and chain-check a weight file."""
    with open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON: {exc}", line=exc.lineno)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be an object")
    version = doc.get("version")
    if version != WEIGHT_FORMAT_VERSION:
        raise ValidationError(
            f"{path}: unsupported weight format version {version!r}")
    try:
        class_count = int(doc["class_count"])
        declared_widths = [int(w) for w in doc["conv_widths"]]
        entries = doc["blocks"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: missing or malformed field: {exc}")
    if not (isinstance(entries, list)
            and all(isinstance(entry, dict) for entry in entries)):
        raise ValidationError(f"{path}: blocks must be a list of objects")
    blocks = [_decode_block(entry, i) for i, entry in enumerate(entries)]
    conv_layers = [b for b in blocks if isinstance(b, ConvLayer)]
    head_blocks = [b for b in blocks if not isinstance(b, ConvLayer)]
    if blocks[:len(conv_layers)] != conv_layers:
        raise ValidationError(f"{path}: conv blocks must precede head blocks")
    weights = ModelWeights(conv_layers, head_blocks, class_count)
    if weights.conv_widths != declared_widths:
        raise ValidationError(
            f"{path}: conv_widths {declared_widths} disagree with block "
            f"shapes {weights.conv_widths}")
    return weights


@dataclass(frozen=True)
class ModelArch:
    """Shape-only description used to draw random weights."""

    conv_widths: tuple[int, ...] = (72, 72, 72, 72)
    head: tuple[tuple[str, int], ...] = (
        (KIND_LINEAR, 96),
        (KIND_LINEAR, 64),
        (KIND_GRU, 64),
        (KIND_LINEAR, 64),
        (KIND_LINEAR, 0),  # width 0 marks the class_count + 1 output block
    )
    class_count: int = 11


_W_RANGE = 16  # random weights stay small so accumulators exercise mid-range


def _auto_shift(fan_in: int) -> int:
    # Sized for typical random activations, not the +-127 worst case: rare
    # saturation is fine (requantize clips), all-zero layers are not.
    return max(1, (fan_in * _W_RANGE - 1).bit_length() - 3)


def random_weights(seed: int, arch: ModelArch | None = None) -> ModelWeights:
    """Draw a reproducible random model with the given shape."""
    arch = arch or ModelArch()
    rng = np.random.default_rng(seed)
    entries = [(ConvLayer, width) for width in arch.conv_widths]
    for kind, width in arch.head:
        cls = _block_class(kind)
        if cls is None or cls is ConvLayer:
            raise ValidationError(f"unknown head kind {kind!r}")
        entries.append((cls, width or arch.class_count + 1))
    blocks = []
    in_width = CONV1_IN_WIDTH
    for cls, out_width in entries:
        rows, cols = cls.weight_shape(in_width, out_width)
        blocks.append(cls(
            weight=rng.integers(-_W_RANGE, _W_RANGE + 1, size=(rows, cols),
                                dtype=np.int64),
            bias=rng.integers(-256, 257, size=rows, dtype=np.int64),
            in_width=in_width, out_width=out_width,
            scale_num=1, scale_shift=_auto_shift(cols)))
        in_width = out_width
    n_conv = len(arch.conv_widths)
    return ModelWeights(blocks[:n_conv], blocks[n_conv:], arch.class_count)
