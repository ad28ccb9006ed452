"""Streaming event-based keyword spotting.

Event streams from a neuromorphic auditory sensor pass through a
decayed-potential filter, become spectro-temporal graph neighborhoods, and
feed a fully int8 network (graph convolutions, windowed max pooling, a
linear/recurrent head) that emits per-window class logits. Companion modules
score predictions and model the timing of a pipelined hardware
implementation.
"""

from .errors import (ConfigError, EvkwsError, OrderingError, ParseError,
                     ValidationError)
from .events import (DEFAULT_WINDOW_US, EventStream, SensorConfig,
                     StreamStats, compute_stats, read_stream, synth_stream,
                     write_stream)
from .filtering import (FiltrationParams, ThresholdSchedule, filter_stream,
                        make_thresholds)
from .graph import GraphBuilder, GraphParams, NeighborTable, edges_per_event
from .hwmodel import (CycleCalibration, HwParams, SimTrace,
                      calibrate_cycle_model, latency_report, simulate,
                      throughput_envelope)
from .inference import (HeadState, InferenceEngine, Prediction, RunState,
                        WindowPool, first_layer_inputs, gru_step, head_forward,
                        pointnet_conv, summarize_predictions)
from .metrics import (EvalRecord, MetricReport, accuracy, event_rate_report,
                      macro_f1, metric_report, read_records, ts_accuracy)
from .model import (ConvLayer, GruBlock, LinearBlock, ModelArch, ModelWeights,
                    load_weights, random_weights, save_weights)
from .quant import quantize_dt, requantize, rounding_rshift
from .config import RunConfig, expand_sweep, load_config, write_config

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "EvkwsError", "OrderingError", "ParseError",
    "ValidationError",
    "DEFAULT_WINDOW_US", "EventStream", "SensorConfig",
    "StreamStats", "compute_stats", "read_stream", "synth_stream",
    "write_stream",
    "FiltrationParams", "ThresholdSchedule", "filter_stream",
    "make_thresholds",
    "GraphBuilder", "GraphParams", "NeighborTable", "edges_per_event",
    "CycleCalibration", "HwParams", "SimTrace", "calibrate_cycle_model",
    "latency_report", "simulate", "throughput_envelope",
    "HeadState", "InferenceEngine", "Prediction", "RunState", "WindowPool",
    "first_layer_inputs", "gru_step", "head_forward", "pointnet_conv",
    "summarize_predictions",
    "EvalRecord", "MetricReport", "accuracy", "event_rate_report", "macro_f1",
    "metric_report", "read_records", "ts_accuracy",
    "ConvLayer", "GruBlock", "LinearBlock", "ModelArch", "ModelWeights",
    "load_weights", "random_weights", "save_weights",
    "quantize_dt", "requantize", "rounding_rshift",
    "RunConfig", "expand_sweep", "load_config", "write_config",
]
