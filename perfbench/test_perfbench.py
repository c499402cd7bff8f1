"""Tests of the benchmark itself: checks, failure counting, metric map.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import suite  # noqa: E402
from repro.experiments import service_sweeps  # noqa: E402
from repro.faults.plan import FaultConfig  # noqa: E402
from repro.service.config import ServiceConfig  # noqa: E402
from repro.systems import SystemConfig, build_system  # noqa: E402
from repro.workloads import generate_traces, workload  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny_bundle():
    return generate_traces(workload("gemver"), agents=2, scale=0.005,
                           seed=3)


# -- negative controls: a corrupted result counts as failed -----------
def test_cell_check_rejects_corrupted_result():
    bundle = _tiny_bundle()
    result = build_system("DRAM-less", SystemConfig()).run(bundle)
    assert suite.cell_ok(result, bundle.total_bytes)
    assert not suite.cell_ok(
        dataclasses.replace(result, total_ns=result.total_ns * 1.001),
        bundle.total_bytes)
    assert not suite.cell_ok(result, bundle.total_bytes + 1)


def test_ledger_check_rejects_unbalanced_outcomes():
    plan = ServiceConfig(seed=2, tenants=3, duration_ns=20_000.0,
                         rate_rps=1e6)
    result = service_sweeps.run_service(plan, FaultConfig(seed=2))
    assert result.offered > 0
    assert suite.ledger_ok(result)
    result.tenants[0].ok += 1
    assert not suite.ledger_ok(result)


def test_collect_fails_missing_raised_broken_and_disagreeing_ops():
    calls = [
        suite.Call("a", "f1", 0.0),
        suite.Call("a", "f1", 0.0),   # repeated, agreeing: passes
        suite.Call("b", "f1", 0.0),
        suite.Call("b", "f2", 0.0),   # repeated, disagreeing
        suite.Call("c", None, 0.0),   # raised
        suite.Call("d", "bad", 0.0),  # broke its invariant (see reduce)
    ]
    folded = suite._collect(["a", "b", "c", "d", "e"], calls,
                            lambda record: None if record == "bad"
                            else record)
    assert folded == {"a": "f1", "b": None, "c": None, "d": None,
                      "e": None}


def test_fingerprint_mismatch_between_runs_counts_as_failed():
    untraced = {"operations": {"x": "1", "y": "2"}, "layers": None}
    traced = {"operations": {"x": "1", "y": "3"},
              "layers": {"sim.events": 5.0}}
    assert run.count_failures([untraced, traced], ["sim.events"]) == (4, 1)
    drifted = {"operations": {"x": "1", "y": "2"},
               "layers": {"sim.events": 6.0}}
    assert run.count_failures([untraced, traced, drifted],
                              ["sim.events"]) == (6, 3)


def test_recorder_observes_and_restores():
    original = service_sweeps.run_service
    plan = ServiceConfig(seed=2, tenants=3, duration_ns=20_000.0,
                         rate_rps=1e6)
    recorder = suite.Recorder()
    recorder.wrap("op", service_sweeps, "run_service", key=suite._rate_key,
                  record=lambda args, result: suite.ledger_ok(result))
    try:
        service_sweeps.run_service(plan, FaultConfig(seed=2))
    finally:
        recorder.restore()
    assert service_sweeps.run_service is original
    (call,) = recorder.calls["op"]
    assert call.key == "1e+06rps"
    assert call.record is True


def test_run_s_takes_each_operations_fastest_time():
    runs = [
        {"run_s": 10.0, "op_s": {"a": [2.0, 2.0], "b": [5.0]}},
        {"run_s": 9.0, "op_s": {"a": [1.5, 3.0], "b": [6.5]}},
        {"run_s": 20.0, "op_s": {"a": [4.0, 4.0], "b": [10.0]}},
    ]
    # Two calls of "a" at 1.5 s, one of "b" at 5 s, plus the median of
    # the time outside operations (1, -2 and 2 s).
    assert run.typical_run_s(runs) == 2 * 1.5 + 5.0 + 1.0


# -- the metric map ---------------------------------------------------
def test_benchmark_names_match_the_spec():
    spec = suite.SPEC
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        spec["workloads"])
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(
        spec["per_layer"])
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert {"run_s", "setup_s"} <= names
    for metric in BENCHMARK["end_to_end"]:
        assert 0.0 < metric["bound"] <= 0.25


def test_every_arrow_names_a_metric_and_a_workload():
    metrics = ({m["name"] for m in BENCHMARK["end_to_end"]}
               | {m["name"] for m in BENCHMARK["per_layer"]})
    for entry in suite.SPEC["per_layer"].values():
        for arrow in entry["moves"]:
            metric, _, name = arrow.partition("@")
            assert metric in metrics, arrow
            assert name in suite.SPEC["workloads"], arrow


def test_component_table_maps_each_component_to_one_src_layer():
    packages = {path.name for path in (HERE.parent / "src" / "repro")
                .iterdir() if path.is_dir() and path.name != "__pycache__"}
    seen = set()
    for layer, components in suite.SPEC["components"].items():
        assert layer in packages, layer
        assert not seen & set(components)
        seen |= set(components)
