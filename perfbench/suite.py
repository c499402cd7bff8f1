"""The benchmark's workloads: inputs from a seed, one run, checks, fingerprints.

Each workload drives the program through its public entry points, as a
user invocation does, and observes every operation from outside: a
:class:`Recorder` wraps the public function that performs the operation
for the length of the run and keeps a compact record of each call.
Nothing under ``src/`` is changed.

The parameters of every workload live in ``spec.json`` beside this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import pathlib
import sys
import time
import typing

from repro.controller.request import reset_request_ids
from repro.experiments import (
    cli,
    fig15_bandwidth,
    fig16_exec_time,
    fig17_energy,
    runner,
    service_sweeps,
)
from repro.faults.plan import FaultConfig
from repro.service.arrivals import merged_timeline
from repro.service.config import ServiceConfig
from repro.sim import LatencySketch
from repro.systems import SYSTEM_NAMES, base as systems_base
from repro.workloads import trace as workloads_trace

SPEC: typing.Dict[str, typing.Any] = json.loads(
    pathlib.Path(__file__).with_name("spec.json").read_text())


# ----------------------------------------------------------------------
# Operation checks (pure functions; the negative-control tests feed
# them corrupted results)
# ----------------------------------------------------------------------
def cell_ok(result: typing.Any, expected_bytes: int) -> bool:
    """A matrix cell's phases tile its run and its account is sane.

    Phases are differences of simulated timestamps, so their sum equals
    the run only up to rounding (one cell differs by one ulp).
    """
    return (math.isclose(math.fsum(result.phase_ns.values()),
                         result.total_ns, rel_tol=1e-9, abs_tol=0.0)
            and result.bytes_processed == expected_bytes
            and result.energy.total_mj > 0.0)


def ledger_ok(result: typing.Any) -> bool:
    """Every offered service request lands in exactly one outcome."""
    totals = result.totals()
    return result.offered == sum(totals.get(name, 0.0) for name in (
        "ok", "corrected", "degraded", "shed", "timeout", "failed"))


def fingerprint(value: typing.Any) -> str:
    """Stable digest of a JSON-able value (floats by ``repr``)."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def paper_gap_pp(measured: typing.Dict[str, float],
                 paper: typing.Dict[str, float]) -> float:
    """Mean absolute gap, in percentage points, to the paper's values.

    ``measured`` holds fractions (0.54 for 54%), ``paper`` percents.
    """
    gaps = [abs(100.0 * measured[key] - value)
            for key, value in paper.items()]
    return sum(gaps) / len(gaps)


# ----------------------------------------------------------------------
# Observation from outside
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Call:
    """One observed call: operation key, result record, host seconds.

    ``record`` is None when the call raised.
    """

    key: str
    record: typing.Any
    seconds: float


def _no_key(args: typing.Sequence[typing.Any]) -> str:
    return ""


def _no_record(args: typing.Sequence[typing.Any],
               result: typing.Any) -> typing.Any:
    return True


class Recorder:
    """Wraps the program's public functions for one run and logs calls."""

    def __init__(self) -> None:
        self.calls: typing.Dict[str, typing.List[Call]] = {}
        #: Context entered around each operation the benchmark itself
        #: starts (the traced run gives each its own metrics registry).
        self.op_scope: typing.Callable[
            [], typing.ContextManager[typing.Any]] = contextlib.nullcontext
        self._undo: typing.List[typing.Tuple[typing.Any, str,
                                             typing.Any]] = []

    def wrap(self, label: str, owner: typing.Any, name: str,
             key: typing.Callable[..., str] = _no_key,
             record: typing.Callable[..., typing.Any] = _no_record) -> None:
        """Log every call of ``owner.name`` under ``label``.

        A function is replaced in every ``repro`` module that bound it by
        name, so ``from x import f`` call sites are observed too.
        """
        original = getattr(owner, name)
        calls = self.calls.setdefault(label, [])

        @functools.wraps(original)
        def wrapper(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                calls.append(Call(key(args), None,
                                  time.perf_counter() - start))
                raise
            seconds = time.perf_counter() - start
            calls.append(Call(key(args), record(args, result), seconds))
            return result

        owners = [owner]
        if not isinstance(owner, type):
            owners = [module for module_name, module
                      in sorted(sys.modules.items())
                      if module_name.startswith("repro")
                      and getattr(module, name, None) is original]
        for target in owners:
            self._undo.append((target, name, original))
            setattr(target, name, wrapper)

    def restore(self) -> None:
        """Put every wrapped function back."""
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def seconds(self, label: str) -> float:
        """Host seconds spent in calls logged under ``label``."""
        return sum(call.seconds for call in self.calls.get(label, []))

    def count(self, label: str) -> int:
        """Calls logged under ``label``."""
        return len(self.calls.get(label, []))

    def last(self, label: str) -> typing.Any:
        """Record of the last call logged under ``label``, or None."""
        calls = self.calls.get(label)
        return calls[-1].record if calls else None


def _wrap_common(recorder: Recorder) -> None:
    """Spans every workload records around shared layer calls."""
    recorder.wrap("tracegen", workloads_trace, "generate_traces")
    recorder.wrap("preload", systems_base, "input_pattern")
    recorder.wrap("matrix", runner, "run_matrix")


def _bundles(spec: typing.Dict[str, typing.Any],
             seed: int) -> typing.List[typing.Any]:
    """The 15 kernels' trace bundles at the workload's scale."""
    config = runner.ExperimentConfig(scale=spec["scale"], seed=seed)
    return [config.bundle(name) for name in config.workloads]


def _paper_gap(headline: typing.Dict[str, float],
               paper: typing.Dict[str, float]) -> typing.Dict[str, float]:
    """``experiments.paper_gap_pp`` once every headline value is in."""
    if len(headline) != len(paper):
        return {}
    return {"experiments.paper_gap_pp": paper_gap_pp(headline, paper)}


def _run_cli(argv: typing.Sequence[str]) -> str:
    """One ``python -m repro.experiments`` invocation; its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"repro.experiments {argv} exited {code}")
    return out.getvalue()


@dataclasses.dataclass
class Inputs:
    """A workload's generated inputs and the work they amount to."""

    seed: int
    #: Input work counted from the inputs, never from the program.
    ops: int
    #: Keys of the operations one run must complete.
    operations: typing.List[str]
    payload: typing.Any


@dataclasses.dataclass
class RunOutput:
    """What one run produced, reduced to comparable values."""

    #: Operation key -> fingerprint, or None when it failed.
    operations: typing.Dict[str, typing.Optional[str]]
    #: Digest of every simulated output of the run.
    digest: str
    #: Deterministic simulated metrics (per-layer ``sim`` quantities).
    sim: typing.Dict[str, float]


def _collect(operations: typing.Sequence[str],
             calls: typing.Sequence[Call],
             reduce: typing.Callable[[typing.Any], typing.Optional[str]]
             = lambda record: record,
             ) -> typing.Dict[str, typing.Optional[str]]:
    """Fold observed calls into one fingerprint per operation.

    ``reduce`` turns a call's record into its fingerprint, None when the
    result broke its invariant.  An operation fails if it was never
    observed, if any call of it raised or broke its invariant, or if
    repeated calls of it disagree.
    """
    seen: typing.Dict[str, typing.List[typing.Optional[str]]] = {}
    for call in calls:
        print_ = None if call.record is None else reduce(call.record)
        seen.setdefault(call.key, []).append(print_)
    folded: typing.Dict[str, typing.Optional[str]] = {}
    for key in operations:
        prints = seen.get(key, [])
        ok = bool(prints) and None not in prints and len(set(prints)) == 1
        folded[key] = prints[0] if ok else None
    return folded


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
def _cell_key(args: typing.Sequence[typing.Any]) -> str:
    system, bundle = args[0], args[1]
    return f"{system.name}/{bundle.spec.name}"


def _cell_record(args: typing.Sequence[typing.Any],
                 result: typing.Any) -> typing.Dict[str, typing.Any]:
    bundle = args[1]
    stats = result.accel_stats
    return {
        "fingerprint": fingerprint([
            result.total_ns, sorted(result.phase_ns.items()),
            result.bytes_processed, result.energy.total_mj,
            stats.instructions, stats.l2_misses, stats.mean_aggregate_ipc,
        ]) if cell_ok(result, bundle.total_bytes) else None,
        "system": args[0].name,
        "l2_misses": stats.l2_misses,
        "ipc": stats.mean_aggregate_ipc,
    }


def _headline(keys: typing.Sequence[str]
              ) -> typing.Callable[..., typing.Dict[str, float]]:
    def record(args: typing.Sequence[typing.Any],
               result: typing.Dict[str, typing.Any]
               ) -> typing.Dict[str, float]:
        return {key: result[key] for key in keys if key in result}
    return record


class Figures:
    """Figs. 15-17 as one CLI invocation: three 15 x 11 matrices."""

    name = "figures"
    #: Recorder label of the calls that are this workload's operations.
    op_label = "cell"

    def __init__(self) -> None:
        self.spec = SPEC["workloads"][self.name]

    def setup(self, seed: int) -> Inputs:
        bundles = _bundles(self.spec, seed)
        cells = len(SYSTEM_NAMES) * len(self.spec["figures"])
        return Inputs(
            seed=seed,
            ops=sum(bundle.op_count for bundle in bundles) * cells,
            operations=[f"{system}/{bundle.spec.name}"
                        for bundle in bundles for system in SYSTEM_NAMES],
            payload=None)

    def run(self, inputs: Inputs, recorder: Recorder) -> str:
        _wrap_common(recorder)
        recorder.wrap("cell", systems_base.AcceleratedSystem, "run",
                      key=_cell_key, record=_cell_record)
        paper = self.spec["paper"]
        recorder.wrap("headline15", fig15_bandwidth, "run",
                      record=_headline(paper))
        recorder.wrap("headline17", fig17_energy, "run",
                      record=_headline(paper))
        for module in (fig15_bandwidth, fig16_exec_time, fig17_energy):
            recorder.wrap("report", module, "report")
        return _run_cli([",".join(self.spec["figures"]),
                         "--scale", str(self.spec["scale"]),
                         "--seed", str(inputs.seed)])

    def output(self, inputs: Inputs, recorder: Recorder,
               text: str) -> RunOutput:
        cells = [call.record for call in recorder.calls.get("cell", [])
                 if call.record is not None]
        operations = _collect(inputs.operations,
                              recorder.calls.get("cell", []),
                              lambda record: record["fingerprint"])
        headline = dict(recorder.last("headline15") or {})
        headline.update(recorder.last("headline17") or {})
        sim = _paper_gap(headline, self.spec["paper"])
        ipcs = [cell["ipc"] for cell in cells
                if cell["system"] == "DRAM-less" and cell["ipc"] > 0.0]
        if ipcs:
            sim["accel.ipc"] = math.exp(
                sum(math.log(ipc) for ipc in ipcs) / len(ipcs))
        sim["accel.l2_misses"] = float(sum(cell["l2_misses"]
                                           for cell in cells))
        return RunOutput(operations,
                         fingerprint([operations, headline, text]), sim)


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def _rate_key(args: typing.Sequence[typing.Any]) -> str:
    return f"{args[0].rate_rps:g}rps"


def _service_fingerprint(result: typing.Any) -> typing.Optional[str]:
    if not ledger_ok(result):
        return None
    quantiles = {}
    for name, stats in result.class_stats().items():
        sketch = stats.sketch
        quantiles[name] = ([sketch.percentile(q) for q in (0.5, 0.99, 0.999)]
                           if sketch.count else None)
    return fingerprint([result.totals(), result.elapsed_ns,
                        sorted(result.brownout_ns.items()),
                        [stats.retries for stats in result.tenants],
                        quantiles])


class Service:
    """Open-loop multi-tenant traffic at four fixed offered rates."""

    name = "service"
    op_label = "op"

    def __init__(self) -> None:
        self.spec = SPEC["workloads"][self.name]

    def plans(self, seed: int) -> typing.List[ServiceConfig]:
        spec = self.spec
        plan = ServiceConfig(
            seed=seed, tenants=spec["tenants"], arrival=spec["arrival"],
            rogue_tenants=spec["rogue_tenants"],
            rogue_factor=spec["rogue_factor"],
            burst_ns=spec["burst_ns"],
            request_bytes=spec["request_bytes"],
            read_fraction=spec["read_fraction"])
        return [dataclasses.replace(plan, rate_rps=rate, duration_ns=duration)
                for rate, duration in zip(spec["rates_rps"],
                                          spec["durations_ns"])]

    def setup(self, seed: int) -> Inputs:
        plans = self.plans(seed)
        faults = FaultConfig(seed=seed, **self.spec["fault_plan"])
        return Inputs(
            seed=seed,
            ops=sum(len(merged_timeline(plan)) for plan in plans),
            operations=[_rate_key([plan]) for plan in plans],
            payload=(plans, faults))

    def run(self, inputs: Inputs, recorder: Recorder) -> str:
        _wrap_common(recorder)
        recorder.wrap("op", service_sweeps, "run_service",
                      key=_rate_key, record=lambda args, result: result)
        plans, faults = inputs.payload
        for plan in plans:
            reset_request_ids()
            with recorder.op_scope():
                service_sweeps.run_service(plan, faults)
        return ""

    def output(self, inputs: Inputs, recorder: Recorder,
               text: str) -> RunOutput:
        calls = recorder.calls.get("op", [])
        results = {call.key: call.record for call in calls}
        operations = _collect(inputs.operations, calls,
                              _service_fingerprint)
        sim: typing.Dict[str, float] = {}
        if all(results.get(key) is not None for key in inputs.operations):
            ordered = [results[key] for key in inputs.operations]
            sim.update(service_metrics(ordered,
                                       self.spec["rate_multipliers"]))
        return RunOutput(operations, fingerprint([operations, sim]), sim)


def service_metrics(results: typing.Sequence[typing.Any],
                    multipliers: typing.Sequence[float]
                    ) -> typing.Dict[str, float]:
    """Simulated service figures over the fixed-rate points."""
    by_multiplier = dict(zip(multipliers, results))
    low = by_multiplier[min(multipliers)]
    compliant = LatencySketch("perfbench.compliant")
    for stats in low.tenants:
        if stats.tenant >= low.config.rogue_tenants:
            compliant.merge(stats.sketch)
    plateau = by_multiplier[1.0].goodput_rps
    brownout = sum(ns for result in results
                   for level, ns in result.brownout_ns.items() if level)
    elapsed = sum(ns for result in results
                  for ns in result.brownout_ns.values())
    totals = [result.totals() for result in results]
    metrics = {
        "service.sim_p99_us": compliant.percentile(0.99) / 1e3,
        "service.compliant_samples": float(compliant.count),
        "service.sim_goodput_ratio": (
            by_multiplier[max(multipliers)].goodput_rps / plateau),
        "service.offered": float(sum(r.offered for r in results)),
        "service.goodput": float(sum(r.goodput for r in results)),
        "service.shed": sum(t["shed"] for t in totals),
        "service.timeout": sum(t["timeout"] for t in totals),
        "service.retries": float(sum(s.retries for r in results
                                     for s in r.tenants)),
        "service.brownout_frac": brownout / elapsed if elapsed else 0.0,
        "faults.corrected": sum(t["corrected"] for t in totals),
    }
    return metrics


WORKLOADS: typing.Dict[str, typing.Any] = {
    workload.name: workload for workload in (Figures(), Service())}
