from __future__ import annotations

import numpy as np
import pytest

from evkws import SensorConfig, EventStream

# Filled by pytest_runtest_logreport, printed by pytest_terminal_summary.
_ACCEPTANCE_RESULTS: dict[str, str] = {}

_CRITERIA = {
    "test_criterion_1_filter_matches_transcription":
        "1 filter_stream matches rule transcription on 1000 random streams",
    "test_criterion_2_worked_filtration_examples":
        "2 worked filtration examples reproduce exactly",
    "test_criterion_3_incremental_graph_matches_brute_force":
        "3 incremental neighbors match brute force, degree bound holds",
    "test_criterion_4_quantized_layers_match_integer_oracle":
        "4 conv and head bit-exact against pure-integer oracle",
    "test_criterion_5_latency_model_reproduces_figures":
        "5 cycle calibration, latencies, and throughput envelope",
    "test_criterion_6_event_driven_sim_is_stable":
        "6 discrete-event sim: no overflow, bounded queue",
    "test_criterion_7_metrics_match_hand_computed":
        "7 metrics vs hand-computed fixtures",
    "test_criterion_8_pretrained_accuracy":
        "8 pretrained accuracy on real dataset (needs env vars)",
}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for name, label in _CRITERIA.items():
        outcome = _ACCEPTANCE_RESULTS.get(name)
        if outcome is None:
            continue
        word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
            outcome, outcome.upper())
        tr.write_line(f"[{word}] criterion {label}")


@pytest.fixture
def cfg64():
    return SensorConfig(channels=64)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def events_of(stream):
    """The stream's records as a list of (t, c, p) int triples."""
    return list(zip(stream.t.tolist(), stream.c.tolist(), stream.p.tolist()))


def make_stream(rng, channels=64, n=200, t_max=50_000, sorted_t=True,
                topology="cascade"):
    """Random well-formed stream for property tests."""
    t = rng.integers(0, t_max, size=n, dtype=np.int64)
    if sorted_t:
        t.sort()
    c = rng.integers(0, channels, size=n, dtype=np.int64)
    p = rng.choice(np.array([-1, 1], dtype=np.int64), size=n)
    return EventStream(config=SensorConfig(channels=channels,
                                           topology=topology),
                       t=t, c=c, p=p)
