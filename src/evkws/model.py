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
Weight shapes: conv blocks store ``out x (in + 2)`` (two trailing columns
take the relative channel and age inputs); linear blocks ``out x in``; a gru
block stores ``(3*out) x (in + out)`` with gate rows ordered update, reset,
candidate and input columns before recurrent columns. Bias length is ``out``
(``3*out`` for gru). The final head block must emit ``class_count + 1``
values: the class logits plus a confidence scalar.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ParseError, ValidationError, open_text
from .quant import I8_MAX, I8_MIN

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
MAX_SHIFT = 62     # rounding offset 2**61 plus a scaled value below 2**62


@dataclass(eq=False)
class ConvLayer:
    """One graph-convolution stage: affine map over features plus position."""

    weight: np.ndarray   # int8, (out, in + POSITION_WIDTH)
    bias: np.ndarray     # int32, (out,)
    in_width: int
    out_width: int
    scale_num: int = 1
    scale_shift: int = 0

    def __post_init__(self):
        _check_block(self, self.in_width + POSITION_WIDTH)

    def __eq__(self, other):
        return _block_eq(self, other)


@dataclass(eq=False)
class LinearBlock:
    weight: np.ndarray   # int8, (out, in)
    bias: np.ndarray
    in_width: int
    out_width: int
    scale_num: int = 1
    scale_shift: int = 0

    def __post_init__(self):
        _check_block(self, self.in_width)

    def __eq__(self, other):
        return _block_eq(self, other)


@dataclass(eq=False)
class GruBlock:
    """Recurrent head block; ``out_width`` is the hidden size.

    Rows of ``weight`` stack the update, reset and candidate gates; columns
    hold the input weights first, then the recurrent weights.
    """

    weight: np.ndarray   # int8, (3*out, in + out)
    bias: np.ndarray     # int32, (3*out,)
    in_width: int
    out_width: int
    scale_num: int = 1
    scale_shift: int = 0

    def __post_init__(self):
        if self.in_width < 1 or self.out_width < 1:
            raise ValidationError("block widths must be positive")
        _check_weight(self)
        if self.weight.shape != (3 * self.out_width,
                                 self.in_width + self.out_width):
            raise ValidationError(
                f"gru weight shape {self.weight.shape} does not match "
                f"3*{self.out_width} x ({self.in_width}+{self.out_width})")
        bias = np.asarray(self.bias, dtype=np.int64)
        if bias.shape != (3 * self.out_width,):
            raise ValidationError(
                f"gru bias length {bias.shape} does not match 3*out")
        _check_ranges(self, bias)

    def __eq__(self, other):
        return _block_eq(self, other)


def _check_block(block, expected_in: int) -> None:
    if block.in_width < 1 or block.out_width < 1:
        raise ValidationError("block widths must be positive")
    _check_weight(block)
    if block.weight.shape != (block.out_width, expected_in):
        raise ValidationError(
            f"weight shape {block.weight.shape} does not match "
            f"({block.out_width}, {expected_in})")
    bias = np.asarray(block.bias, dtype=np.int64)
    if bias.shape != (block.out_width,):
        raise ValidationError(f"bias length {bias.shape} does not match out")
    _check_ranges(block, bias)


def _check_weight(block) -> None:
    weight = np.asarray(block.weight)
    if weight.dtype != np.int8:
        if (weight < I8_MIN).any() or (weight > I8_MAX).any():
            raise ValidationError("weight values exceed int8 range")
        weight = weight.astype(np.int8)
    object.__setattr__(block, "weight", weight)


def _check_ranges(block, bias: np.ndarray) -> None:
    """Inputs are int8, so a row's accumulator stays within |bias| + 128 *
    sum|w|: below 2**31 it fits int32, and scale_num < 2**31 with shift <=
    62 keeps requantization inside int64."""
    if not 1 <= block.scale_num < ACC_LIMIT:
        raise ValidationError(
            f"scale_num must be an integer in [1, 2**31), got {block.scale_num}")
    if not 0 <= block.scale_shift <= MAX_SHIFT:
        raise ValidationError(
            f"scale_shift must lie in [0, {MAX_SHIFT}], got {block.scale_shift}")
    bound = np.abs(bias) + 128 * np.abs(block.weight.astype(np.int64)).sum(
        axis=1)
    if (bound >= ACC_LIMIT).any():
        row = int(np.argmax(bound >= ACC_LIMIT))
        raise ValidationError(
            f"row {row}: |bias| + 128*sum|w| = {int(bound[row])} reaches "
            "2**31, so the 32-bit accumulator could wrap")
    object.__setattr__(block, "bias", bias.astype(np.int32))


def _block_eq(a, b) -> bool:
    if type(a) is not type(b):
        return NotImplemented
    return (a.in_width == b.in_width and a.out_width == b.out_width
            and a.scale_num == b.scale_num and a.scale_shift == b.scale_shift
            and np.array_equal(a.weight, b.weight)
            and np.array_equal(a.bias, b.bias))


HeadBlock = LinearBlock | GruBlock


@dataclass(eq=False)
class ModelWeights:
    """Full network: conv stack, head blocks in execution order, class count."""

    conv_layers: list[ConvLayer]
    head_blocks: list[HeadBlock]
    class_count: int

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
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
                    f"head block {i} ({_kind_of(block)}) input width "
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
        n = 0
        for block in [*self.conv_layers, *self.head_blocks]:
            n += block.weight.size + int(np.asarray(block.bias).size)
        return n

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelWeights):
            return NotImplemented
        return (self.class_count == other.class_count
                and self.conv_layers == other.conv_layers
                and self.head_blocks == other.head_blocks)


def _kind_of(block) -> str:
    if isinstance(block, ConvLayer):
        return KIND_CONV
    if isinstance(block, LinearBlock):
        return KIND_LINEAR
    return KIND_GRU


def _encode_block(block) -> dict:
    return {
        "kind": _kind_of(block),
        "in": block.in_width,
        "out": block.out_width,
        "scale_num": block.scale_num,
        "scale_shift": block.scale_shift,
        "weight": base64.b64encode(
            np.ascontiguousarray(block.weight).tobytes()).decode("ascii"),
        "bias": [int(b) for b in np.asarray(block.bias)],
    }


def save_weights(weights: ModelWeights, path: str) -> None:
    weights.validate()
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
    if data.size != rows * cols:
        raise ValidationError(
            f"{label}: weight holds {data.size} values, expected "
            f"{rows}*{cols}={rows * cols}")
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
    common = dict(bias=bias, in_width=in_width, out_width=out_width,
                  scale_num=scale_num, scale_shift=scale_shift)
    try:
        if kind == KIND_CONV:
            data = _decode_matrix(entry, label, out_width,
                                  in_width + POSITION_WIDTH)
            return ConvLayer(weight=data, **common)
        if kind == KIND_LINEAR:
            data = _decode_matrix(entry, label, out_width, in_width)
            return LinearBlock(weight=data, **common)
        if kind == KIND_GRU:
            data = _decode_matrix(entry, label, 3 * out_width,
                                  in_width + out_width)
            return GruBlock(weight=data, **common)
    except ValidationError as exc:
        raise ValidationError(f"{label}: {exc}") from None
    raise ValidationError(f"{label}: unknown block kind {kind!r}")


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

    def draw(rows: int, cols: int) -> np.ndarray:
        return rng.integers(-_W_RANGE, _W_RANGE + 1, size=(rows, cols),
                            dtype=np.int64)

    def draw_bias(n: int) -> np.ndarray:
        return rng.integers(-256, 257, size=n, dtype=np.int64)

    conv_layers = []
    in_width = CONV1_IN_WIDTH
    for out_width in arch.conv_widths:
        fan_in = in_width + POSITION_WIDTH
        conv_layers.append(ConvLayer(
            weight=draw(out_width, fan_in), bias=draw_bias(out_width),
            in_width=in_width, out_width=out_width,
            scale_num=1, scale_shift=_auto_shift(fan_in)))
        in_width = out_width

    head_blocks: list[HeadBlock] = []
    for kind, width in arch.head:
        out_width = width if width else arch.class_count + 1
        if kind == KIND_LINEAR:
            head_blocks.append(LinearBlock(
                weight=draw(out_width, in_width), bias=draw_bias(out_width),
                in_width=in_width, out_width=out_width,
                scale_num=1, scale_shift=_auto_shift(in_width)))
        elif kind == KIND_GRU:
            head_blocks.append(GruBlock(
                weight=draw(3 * out_width, in_width + out_width),
                bias=draw_bias(3 * out_width),
                in_width=in_width, out_width=out_width,
                scale_num=1, scale_shift=_auto_shift(in_width + out_width)))
        else:
            raise ValidationError(f"unknown head kind {kind!r}")
        in_width = out_width
    return ModelWeights(conv_layers, head_blocks, arch.class_count)
