"""Command-line front end over the library.

Subcommands: ``stats``, ``filter``, ``infer``, ``eval``, ``simulate``,
``ablate``. Global flags: ``--config`` (INI file), ``--set section.key=value``
(repeatable override), ``--seed``, ``--format {json,csv}``.

Reports go to stdout and embed the resolved run configuration, so a rerun
with the same inputs is byte-identical. Failures print one machine-readable
JSON object to stderr and exit with a class-specific code: 2 configuration,
3 file system, 4 validation, 5 parse, 1 anything else.

Event-file format is taken from the file extension (``.csv`` is text, all
else binary) unless the config io.format says otherwise. When no weight file
is configured, ``infer`` and ``eval`` fall back to a random model drawn from
``--seed`` so pipelines can be exercised without trained weights.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .config import RunConfig, expand_sweep, load_config, write_config
from .errors import (ConfigError, EvkwsError, ParseError, ValidationError,
                     csv_fields, csv_rows, decimal_int)
from .events import (FORMAT_CSV, EventStream, compute_stats, read_stream,
                     write_stream)
from .filtering import filter_stream
from .graph import dump_neighbors, edges_per_event
from .hwmodel import latency_report, simulate, throughput_envelope
from .inference import InferenceEngine, summarize_predictions
from .metrics import EvalRecord, metric_report, read_records, reduction_pct
from .model import load_weights, random_weights

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_PARSE = 5


def _stream_format(path: str, config: RunConfig) -> str:
    if str(path).endswith(".csv"):
        return FORMAT_CSV
    return config.io_format


def _load_stream(path: str, config: RunConfig) -> EventStream:
    return read_stream(path, _stream_format(path, config), config.sensor)


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "csv":
        rows = []
        _flatten("", doc, rows)
        writer = csv.writer(sys.stdout)
        writer.writerow(["key", "value"])
        writer.writerows(rows)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _flatten(prefix: str, node, rows: list) -> None:
    if isinstance(node, dict):
        for key in sorted(node):
            _flatten(f"{prefix}{key}.", node[key], rows)
    else:
        key = prefix[:-1] if prefix.endswith(".") else prefix
        if isinstance(node, (list, tuple)):
            rows.append([key, json.dumps(node)])
        else:
            rows.append([key, node])


def _engine(args, config: RunConfig) -> InferenceEngine:
    """The configured engine, with the ``--weights`` file, the configured
    one, or random weights drawn from ``--seed``."""
    path = args.weights or config.weights_path
    weights = load_weights(path) if path else random_weights(args.seed)
    return InferenceEngine(weights, config.graph, config.filtration_params(),
                           config.hw.window_us)


def cmd_stats(args, config: RunConfig) -> int:
    streams = [_load_stream(p, config) for p in args.inputs]
    stats = compute_stats(streams, config.hw.window_us)
    _emit({"config": config.to_dict(), "stats": stats.to_json_dict()},
          args.format)
    return EXIT_OK


def cmd_filter(args, config: RunConfig) -> int:
    stream = _load_stream(args.input, config)
    filtered = filter_stream(stream, config.filtration_params())
    write_stream(filtered, args.output, _stream_format(args.output, config))
    _emit({"config": config.to_dict(),
           "input_events": len(stream),
           "output_events": len(filtered),
           "reduction_pct": reduction_pct(len(stream), len(filtered))},
          args.format)
    return EXIT_OK


def cmd_infer(args, config: RunConfig) -> int:
    stream = _load_stream(args.input, config)
    predictions = _engine(args, config).run(stream)
    sink = open(args.out, "w") if args.out else sys.stdout
    try:
        for pred in predictions:
            sink.write(json.dumps(pred.to_json_dict(), sort_keys=True) + "\n")
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


def _read_manifest(path: str) -> list[tuple[str, int, int | None]]:
    """Rows of ``path,label,end_bin``; paths resolve against the manifest."""
    base = os.path.dirname(os.path.abspath(path))
    rows: list[tuple[str, int, int | None]] = []
    for lineno, line in csv_rows(path, "path,label,end_bin"):
        sample, label, end_bin = csv_fields(path, lineno, line, 3)
        if "\0" in sample:  # open() would raise ValueError
            raise ParseError(f"{path}: NUL byte in sample path", line=lineno)
        try:
            rows.append((os.path.join(base, sample),
                         decimal_int(label, "label"),
                         decimal_int(end_bin, "end_bin") if end_bin else None))
        except ValueError as exc:
            raise ParseError(f"{path}: bad manifest row: {exc}", line=lineno)
    if not rows:
        raise ValidationError(f"{path}: manifest lists no samples")
    return rows


def _eval_one(path: str, label: int, end_bin: int | None,
              config: RunConfig, engine: InferenceEngine) -> EvalRecord:
    stream = _load_stream(path, config)
    summary = summarize_predictions(engine.run(stream))
    if summary is None:
        # No window ever emitted (empty or fully filtered sample): score as
        # an always-wrong placeholder so the sample still counts.
        y_hat, pred_bin = -1, 0
    else:
        y_hat, pred_bin = summary
    return EvalRecord(sample_id=stream.sample_id, y=label, y_hat=y_hat,
                      pred_bin=pred_bin, true_bin=end_bin)


def _natural(text: str, flag: str) -> int:
    """``text`` as a non-negative integer (``decimal_int``); a ConfigError
    naming ``flag`` otherwise."""
    try:
        value = decimal_int(text, flag)
    except ValueError:
        value = -1
    if value < 0:
        raise ConfigError(f"{flag} takes non-negative integers, got {text!r}")
    return value


def cmd_eval(args, config: RunConfig) -> int:
    # checked before any record is read; none when empty
    ks = [_natural(k.strip(), "--tolerances")
          for k in args.tolerances.split(",") if k.strip()]
    if args.records:
        records = read_records(args.records)
    else:
        engine = _engine(args, config)
        records = [_eval_one(path, label, end_bin, config, engine)
                   for path, label, end_bin in _read_manifest(args.manifest)]
    report = metric_report(records, ks=ks)
    _emit({"config": config.to_dict(), "metrics": report.to_json_dict()},
          args.format)
    return EXIT_OK


def cmd_simulate(args, config: RunConfig) -> int:
    stream = _load_stream(args.input, config)
    if args.filtered:
        stream = filter_stream(stream, config.filtration_params())
    edges = edges_per_event(stream, config.graph)
    if args.dump_graph:
        with open(args.dump_graph, "w") as fh:
            dump_neighbors(stream, config.graph, fh)
    trace = simulate(stream, edges, config.hw)
    if args.trace_csv:
        with open(args.trace_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["event_index", "arrival_us", "admit_us",
                             "done_us", "edges"])
            for row in trace.to_rows():
                writer.writerow(["" if v is None else v for v in row])
    best_eps, worst_eps = throughput_envelope(config.hw)
    _emit({"config": config.to_dict(),
           "events": len(stream),
           "throughput_eps": {"max": best_eps, "min": worst_eps},
           "latency": latency_report(trace),
           "processed_rate_eps": trace.processed_rate_eps()},
          args.format)
    return EXIT_OK


def cmd_ablate(args, config: RunConfig) -> int:
    combos = expand_sweep(args.sweep)
    os.makedirs(args.out_dir, exist_ok=True)
    index = []
    for i, (varied, resolved) in enumerate(combos):
        name = f"sweep_{i:04d}.ini"
        write_config(resolved, os.path.join(args.out_dir, name))
        index.append({"config": name, "varied": varied})
    index_path = os.path.join(args.out_dir, "index.json")
    with open(index_path, "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit({"combinations": len(combos), "out_dir": args.out_dir,
           "index": index}, args.format)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evkws",
        description="Streaming event-based keyword spotting toolkit")
    parser.add_argument("--config", help="INI run configuration")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="SECTION.KEY=VALUE",
                        help="override a config key (repeatable)")
    parser.add_argument("--seed", default="0",
                        help="seed for operations that draw randomness")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="aggregate stream statistics")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("filter", help="run decayed-potential filtration")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("infer", help="per-window predictions for one stream")
    p.add_argument("input")
    p.add_argument("--weights", help="weight file (overrides config)")
    p.add_argument("--out", help="write JSON lines here instead of stdout")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score a manifest or a record file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--manifest", help="CSV of path,label,end_bin")
    group.add_argument("--records", help="precomputed records (JSONL or CSV)")
    p.add_argument("--weights", help="weight file (overrides config)")
    p.add_argument("--tolerances", default="1,3",
                   help="comma-separated window tolerances for timing accuracy")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="hardware pipeline timing simulation")
    p.add_argument("input")
    p.add_argument("--filtered", action="store_true",
                   help="apply configured filtration before simulating")
    p.add_argument("--trace-csv", help="write per-event timing rows here")
    p.add_argument("--dump-graph", help="write per-event neighbor JSONL here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ablate", help="expand list-valued config into a sweep")
    p.add_argument("sweep", help="INI file whose values may be comma lists")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed = _natural(args.seed, "--seed")
        config = load_config(args.config, args.overrides)
        return args.func(args, config)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    except ParseError as exc:
        return _fail(exc, EXIT_PARSE)
    except ValidationError as exc:  # an OrderingError too
        return _fail(exc, EXIT_VALIDATION)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    except EvkwsError as exc:
        return _fail(exc, EXIT_OTHER)


def _fail(exc: Exception, code: int) -> int:
    json.dump({"error": {"type": type(exc).__name__, "message": str(exc),
                         "exit_code": code}},
              sys.stderr, sort_keys=True)
    sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
