"""Run configuration: INI parsing, overrides, validation, sweep expansion.

A config file is flat INI with sections ``sensor``, ``filtration``,
``graph``, ``model``, ``hw`` and ``io``::

    [sensor]
    channels = 64
    topology = cascade

    [filtration]
    div_factor = 8
    weight = 32
    threshold.kind = exponential
    threshold.start = 64
    threshold.end = 32

    [graph]
    r_c = 10
    skip_step = 1
    r_t_low = 0
    r_t_high = 5000

    [model]
    weights = weights.json

    [hw]
    clock_hz = 200000000
    fifo_depth = 1024
    nas_latency_us = 23
    head_latency_us = 2.11

    [io]
    format = binary

Any key may be overridden from the command line as ``section.key=value``.
For sweep expansion a value may hold a comma-separated list; the Cartesian
product over all listed keys yields one resolved config per combination.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from itertools import product
from operator import attrgetter

from .errors import (ConfigError, ValidationError, decimal_float, decimal_int,
                     open_text)
from .events import SensorConfig
from .filtering import FiltrationParams, ThresholdSchedule
from .graph import GraphParams
from .hwmodel import HwParams


@dataclass(frozen=True)
class FiltrationSettings:
    """Filter knobs as configured, before the channel count is known."""

    div_factor: int = 8
    weight: int = 32
    kind: str = "exponential"
    start: int = 64
    end: int = 32

    def schedule(self) -> ThresholdSchedule:
        return ThresholdSchedule(self.kind, self.start, self.end)


@dataclass(frozen=True)
class RunConfig:
    sensor: SensorConfig = field(default_factory=lambda: SensorConfig(64))
    filtration: FiltrationSettings = field(default_factory=FiltrationSettings)
    graph: GraphParams = field(default_factory=lambda: GraphParams(
        r_c=10, skip_step=1, r_t_low=0, r_t_high=5000))
    hw: HwParams = field(default_factory=HwParams)
    weights_path: str | None = None
    io_format: str = "binary"

    def filtration_params(self) -> FiltrationParams:
        f = self.filtration
        return FiltrationParams.from_schedule(f.schedule(), f.div_factor,
                                              f.weight, self.sensor.channels)

    def to_dict(self) -> dict:
        doc: dict[str, dict] = {section: {} for section in SECTIONS}
        for (section, key), attr in KEYS.items():
            doc[section][key] = attrgetter(attr)(self)
        return doc


# INI key -> RunConfig attribute, in the order write_config emits them.
KEYS: dict[tuple[str, str], str] = {
    ("sensor", "channels"): "sensor.channels",
    ("sensor", "topology"): "sensor.topology",
    ("filtration", "div_factor"): "filtration.div_factor",
    ("filtration", "weight"): "filtration.weight",
    ("filtration", "threshold.kind"): "filtration.kind",
    ("filtration", "threshold.start"): "filtration.start",
    ("filtration", "threshold.end"): "filtration.end",
    ("graph", "r_c"): "graph.r_c",
    ("graph", "skip_step"): "graph.skip_step",
    ("graph", "r_t_low"): "graph.r_t_low",
    ("graph", "r_t_high"): "graph.r_t_high",
    ("model", "weights"): "weights_path",
    ("hw", "clock_hz"): "hw.clock_hz",
    ("hw", "cycle_base"): "hw.cycle_base",
    ("hw", "cycle_per_vertex"): "hw.cycle_per_vertex",
    ("hw", "fifo_depth"): "hw.fifo_depth",
    ("hw", "nas_latency_us"): "hw.nas_latency_us",
    ("hw", "head_latency_us"): "hw.head_latency_us",
    ("hw", "window_us"): "hw.window_us",
    ("hw", "flush_timeout_us"): "hw.flush_timeout_us",
    ("hw", "window_latency_bound_us"): "hw.window_latency_bound_us",
    ("io", "format"): "io_format",
}

SECTIONS = tuple(dict.fromkeys(section for section, _ in KEYS))

_DEFAULTS = RunConfig()


def _cast(section: str, key: str, value: str):
    """Parse a raw value with the type of the key's default."""
    attr = KEYS.get((section, key))
    if attr is None:
        raise ConfigError(f"unknown config key [{section}] {key}")
    default = attrgetter(attr)(_DEFAULTS)
    if default is None:
        return value or None  # optional path; empty means unset
    kind = type(default)
    parse = {int: decimal_int, float: decimal_float}.get(kind)
    try:
        return kind(value) if parse is None else parse(value, key)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {value!r} as "
            f"{kind.__name__}") from None


def _build(values: dict[tuple[str, str], object]) -> RunConfig:
    """Apply parsed values over the defaults, validating each group."""
    changes: dict[str, dict[str, object]] = {}
    for ini_key, value in values.items():
        group, _, name = KEYS[ini_key].rpartition(".")
        changes.setdefault(group, {})[name] = value
    top = changes.pop("", {})
    try:
        for group, fields in changes.items():
            top[group] = replace(getattr(_DEFAULTS, group), **fields)
        config = replace(_DEFAULTS, **top)
        config.filtration_params()  # fail fast on bad filter settings
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
    return config


def _read_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)  # "%" literal
    try:
        with open_text(path, ConfigError) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
    return parser


def load_config(path: str | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then the file if given, then ``section.key=value`` overrides."""
    values: dict[tuple[str, str], object] = {}
    if path is not None:
        parser = _read_ini(path)
        for section in parser.sections():
            for key, raw in parser.items(section):
                if raw.strip() == "":
                    continue
                values[(section, key)] = _cast(section, key, raw.strip())
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(
                f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        values[(section, key)] = _cast(section, key, raw.strip())
    return _build(values)


def expand_sweep(path: str) -> list[tuple[dict[str, str], RunConfig]]:
    """Expand comma-separated list values into the Cartesian product.

    Returns (varied-assignment, resolved config) pairs in deterministic
    order; the assignment maps ``section.key`` to the chosen raw value for
    keys that actually varied.
    """
    parser = _read_ini(path)
    fixed: dict[tuple[str, str], object] = {}
    axes: list[tuple[str, str, list[str]]] = []
    for section in parser.sections():
        for key, raw in parser.items(section):
            raw = raw.strip()
            if raw == "":
                continue
            choices = [part.strip() for part in raw.split(",") if part.strip()]
            if not choices:
                raise ConfigError(f"{path}: {section}.{key} = {raw!r} lists "
                                  "no value")
            if len(choices) > 1:
                axes.append((section, key, choices))
            else:
                fixed[(section, key)] = _cast(section, key, choices[0])
    axes.sort(key=lambda a: (SECTIONS.index(a[0]), a[1]))
    combos = []
    for picks in product(*(choices for _, _, choices in axes)):
        values = dict(fixed)
        varied: dict[str, str] = {}
        for (section, key, _), raw in zip(axes, picks):
            values[(section, key)] = _cast(section, key, raw)
            varied[f"{section}.{key}"] = raw
        combos.append((varied, _build(values)))
    return combos


def write_config(config: RunConfig, path: str) -> None:
    """Serialize a resolved config back to INI."""
    parser = configparser.ConfigParser(interpolation=None)
    for section, entries in config.to_dict().items():
        parser[section] = {}
        for key, value in entries.items():
            if value is None:
                continue
            parser[section][key] = str(value)
    with open(path, "w") as fh:
        parser.write(fh)
