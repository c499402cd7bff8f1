"""Per-layer measurement for the traced run.

The traced run reads the program's existing public instruments and
nothing else: the host profiler (:class:`repro.telemetry.HostProfiler`,
installed with ``use_hostprof``) for host time per component and the
dispatch census, and the :class:`repro.telemetry.Telemetry` metrics
registry for simulated counters.  Host-profiler components are summed
into layers named after ``src/repro/*`` through the ``components`` table
in ``spec.json``; a component missing from it lands in ``other.host_s``.
"""

from __future__ import annotations

import contextlib
import fnmatch
import statistics
import sys
import typing

from repro.sim.hostprof import use_hostprof
from repro.telemetry import HostProfiler, Telemetry

from suite import SPEC, Recorder

#: hostprof component -> layer.
COMPONENT_LAYER: typing.Dict[str, str] = {
    component: layer
    for layer, components in SPEC["components"].items()
    for component in components}

#: Per-layer counter -> metrics-registry paths summed into it.
REGISTRY_SUMS: typing.Dict[str, str] = {
    "controller.chunk_reads": "pram.ch*.read_latency.count",
    "controller.chunk_writes": "pram.ch*.write_latency.count",
    "controller.phase_skips": "pram.ch*.phase_skip.*",
    "controller.overlap_ns": "sched.interleave.overlap_ns",
    "controller.bus_busy_ns": "pram.ch*.bus_busy_ns",
    "pram.rab_hits": "pram.ch*.rab_hits",
    "pram.rdb_hits": "pram.ch*.rdb_hits",
    "faults.retries": "faults.retry.attempts",
}

#: Recorder labels whose host time lies outside the simulator's drains
#: (the only time the host profiler attributes).
SPAN_LAYERS: typing.Dict[str, str] = {
    "tracegen": "workloads.tracegen_s",
    "preload": "systems.preload_s",
    "report": "experiments.report_s",
}


class Instruments:
    """Host profiler and metrics registries, ambient while entered."""

    def __init__(self) -> None:
        self.profiler = HostProfiler()
        self.registries = [Telemetry(record_spans=False)]
        self._stack = contextlib.ExitStack()

    def __enter__(self) -> "Instruments":
        self._stack.enter_context(use_hostprof(self.profiler))
        self._stack.enter_context(self.registries[0].activate())
        return self

    def __exit__(self, *exc: typing.Any) -> None:
        self._stack.close()

    @contextlib.contextmanager
    def op_scope(self) -> typing.Iterator[None]:
        """A fresh metrics registry for one operation.

        Service runs publish fixed metric paths, so a second run into
        the same registry raises; each rate point gets its own.
        """
        telemetry = Telemetry(record_spans=False)
        self.registries.append(telemetry)
        with telemetry.activate():
            yield

    def snapshot(self) -> typing.Dict[str, float]:
        """Every registry's values, summed by path."""
        merged: typing.Dict[str, float] = {}
        for telemetry in self.registries:
            for path, value in telemetry.metrics.snapshot().items():
                merged[path] = merged.get(path, 0.0) + value
        return merged


def layer_metrics(instruments: Instruments,
                  recorder: Recorder) -> typing.Dict[str, float]:
    """Per-layer values of one traced run.

    ``attributed_s`` is the host time assigned to a named layer: mapped
    profiler components plus the benchmark's spans outside the drains.
    """
    metrics: typing.Dict[str, float] = {}
    host: typing.Dict[str, float] = {}
    profiler = instruments.profiler
    for component, ns in profiler.component_totals().items():
        layer = COMPONENT_LAYER.get(component)
        if layer is not None:
            host[layer] = host.get(layer, 0.0) + ns / 1e9
        else:
            print(f"unmapped host-profiler component {component!r}: "
                  f"{ns / 1e9:.4f} s (in other.host_s)", file=sys.stderr)
    for layer in SPEC["components"]:
        metrics[f"{layer}.host_s"] = host.get(layer, 0.0)
    for label, name in SPAN_LAYERS.items():
        metrics[name] = recorder.seconds(label)
    metrics["attributed_s"] = (sum(host.values())
                               + sum(metrics[name]
                                     for name in SPAN_LAYERS.values()))

    census = profiler.census()
    metrics["sim.events"] = float(sum(census["dispatches"].values()))
    metrics["sim.heap_pushes"] = float(sum(census["schedules"].values()))
    metrics["sim.processes"] = float(
        census["dispatches"].get("bootstrap", 0))

    snapshot = instruments.snapshot()
    for name, pattern in REGISTRY_SUMS.items():
        metrics[name] = sum(value for path, value in snapshot.items()
                            if fnmatch.fnmatchcase(path, pattern))

    cells = [call.seconds for call in recorder.calls.get("cell", [])]
    metrics["systems.cells"] = float(len(cells))
    deciles = (statistics.quantiles(cells, n=10) if len(cells) > 1
               else [0.0] * 9)
    metrics["systems.cell_s_p50"] = deciles[4]
    metrics["systems.cell_s_p90"] = deciles[8]
    metrics["experiments.matrix_runs"] = float(recorder.count("matrix"))
    return metrics
