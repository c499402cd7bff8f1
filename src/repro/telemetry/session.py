"""The instrument bundle: tracer, metrics, sampling and host profiler.

The experiments CLI, the parallel runner and the examples use this
instead of wiring the pieces by hand::

    telemetry = Telemetry()
    with telemetry.activate():
        run_experiment()
    telemetry.write_trace("trace.json")     # open in ui.perfetto.dev
    telemetry.write_spanlog("spans.jsonl")  # feed to repro.analysis
    print(telemetry.summary())              # terminal metrics table

A bundle is also the unit the parallel runner ships across processes:
:meth:`Telemetry.spec` names what it records (part of every result-cache
key), :meth:`Telemetry.from_spec` builds a same-shaped fresh bundle for
a worker, and :meth:`Telemetry.capture` / :meth:`Telemetry.merge` move
one cell's record back as each instrument's own ``to_payload`` /
``merge_payload`` pair.
"""

from __future__ import annotations

import contextlib
import typing

from repro.sim.hooks import current_hook_providers, use_hooks
from repro.telemetry.export import write_perfetto, write_spanlog
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    current_metrics,
    use_metrics,
)
from repro.telemetry.timeseries import (
    SamplingConfig,
    export_document,
    write_timeseries,
)
from repro.telemetry.tracer import RecordingTracer, current_tracer, use_tracer

#: One bundle's record: instrument name -> that instrument's payload.
Fragment = typing.Dict[str, typing.Any]


class TelemetrySpec(typing.NamedTuple):
    """What a bundle records; every field off means nothing is."""

    metrics: bool = False
    spans: bool = False
    kernel_events: bool = False
    #: The sampler's window width in ns, or ``None``.
    sampling: typing.Optional[float] = None
    hostprof: bool = False


class Telemetry:
    """A tracer, a metrics registry, a sampling policy and a host
    profiler, activated together."""

    def __init__(self, record_spans: bool = True,
                 timeseries: typing.Optional[SamplingConfig] = None) -> None:
        self.record_spans = record_spans
        self.tracer = RecordingTracer()
        self.metrics = MetricsRegistry()
        self.timeseries = timeseries
        self.hostprof: typing.Optional[HostProfiler] = None

    @classmethod
    def from_spec(cls, spec: TelemetrySpec) -> "Telemetry":
        """A fresh bundle recording exactly what ``spec`` names."""
        bundle = cls(record_spans=spec.spans,
                     timeseries=(SamplingConfig(spec.sampling)
                                 if spec.sampling is not None else None))
        bundle.tracer.record_kernel_events = spec.kernel_events
        if not spec.metrics:
            bundle.metrics = NULL_METRICS
        if spec.hostprof:
            bundle.hostprof = HostProfiler()
        return bundle

    @classmethod
    def ambient(cls) -> "Telemetry":
        """The instruments installed in this context, as a bundle."""
        providers = current_hook_providers()
        tracer = current_tracer()
        bundle = cls(record_spans=isinstance(tracer, RecordingTracer),
                     timeseries=next(
                         (provider for provider in providers
                          if isinstance(provider, SamplingConfig)), None))
        if isinstance(tracer, RecordingTracer):
            bundle.tracer = tracer
        bundle.metrics = current_metrics()
        bundle.hostprof = next((provider for provider in providers
                                if isinstance(provider, HostProfiler)), None)
        return bundle

    def spec(self) -> TelemetrySpec:
        """What this bundle records (hashable; a cache-key component)."""
        return TelemetrySpec(
            metrics=self.metrics.enabled,
            spans=self.record_spans,
            kernel_events=(self.record_spans
                           and self.tracer.record_kernel_events),
            sampling=(self.timeseries.window_ns
                      if self.timeseries is not None else None),
            hostprof=self.hostprof is not None)

    @contextlib.contextmanager
    def activate(self) -> typing.Iterator["Telemetry"]:
        """Install every instrument of the bundle for the body.

        With ``record_spans=False`` the ambient tracer stays untouched,
        so metrics-only runs keep the zero-overhead tracing path.  The
        sampling policy and the host profiler go into the one
        hook-provider slot, where re-activating the same bundle is a
        no-op.
        """
        with contextlib.ExitStack() as stack:
            if self.record_spans:
                stack.enter_context(use_tracer(self.tracer))
            stack.enter_context(use_metrics(self.metrics))
            if self.timeseries is not None:
                stack.enter_context(use_hooks(self.timeseries))
            if self.hostprof is not None:
                stack.enter_context(use_hooks(self.hostprof))
            yield self

    # -- process-parallel merge -----------------------------------------
    def _recording(self) -> typing.Dict[str, typing.Any]:
        instruments: typing.Dict[str, typing.Any] = {}
        if self.metrics.enabled:
            instruments["metrics"] = self.metrics
        if self.record_spans:
            instruments["tracer"] = self.tracer
        if self.hostprof is not None:
            instruments["hostprof"] = self.hostprof
        return instruments

    def capture(self) -> Fragment:
        """Every recording instrument's payload (picklable)."""
        return {name: instrument.to_payload()
                for name, instrument in self._recording().items()}

    def merge(self, fragment: Fragment) -> None:
        """Fold one :meth:`capture` into this bundle (call in cell-key
        order); instruments this bundle does not record skip theirs."""
        for name, instrument in self._recording().items():
            if name in fragment:
                instrument.merge_payload(fragment[name])

    # -- export ---------------------------------------------------------
    def write_trace(self, path: str) -> None:
        """Perfetto/Chrome JSON (load at ui.perfetto.dev)."""
        write_perfetto(self.tracer, path)

    def write_spanlog(self, path: str) -> None:
        """JSON-lines span log (spans, instants, protocol commands)."""
        write_spanlog(self.tracer, path)

    def timeseries_document(self) -> typing.Dict[str, typing.Any]:
        """The registry's series/sketches as an exportable document."""
        config = self.timeseries if self.timeseries is not None \
            else SamplingConfig()
        return export_document(self.metrics, config.window_ns)

    def write_timeseries(self, path: str) -> None:
        """Export sampled series + sketches (JSON, or CSV by suffix)."""
        write_timeseries(path, self.timeseries_document())

    def summary(self, pattern: str = "*") -> str:
        """Terminal metrics table (fnmatch ``pattern`` filters paths)."""
        return self.metrics.summary_table(pattern)
