"""Kernel instruments compose: installed together, each sees what it
sees alone, and none of them moves simulated time."""

import contextlib
import itertools

from repro.analysis.racecheck import RaceSanitizer, format_races
from repro.controller import MemoryRequest, Op, PramSubsystem
from repro.sim import Simulator, current_hook_providers, use_hooks
from repro.telemetry import Telemetry, TelemetrySpec
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.metrics import MetricsRegistry, use_metrics
from repro.telemetry.timeseries import SamplingConfig
from repro.telemetry.tracer import RecordingTracer, use_tracer

#: Requests in the driven stream (alternating reads and writes).
REQUESTS = 24

#: Sampling window: several windows over the stream.
WINDOW_NS = 2000.0

INSTRUMENTS = ("sanitizer", "tracer", "sampler", "hostprof")


def _stub_clock():
    counter = itertools.count(0, 100)
    return lambda: next(counter)


def _drive(installed):
    """One read/write stream under the ``installed`` instruments.

    Returns the simulator and each installed instrument's output.
    Every run has its own enabled metrics registry, so the sampler
    (which declines without one) and the metric-publishing components
    see the same environment whichever instruments are installed.
    """
    sanitizer = RaceSanitizer()
    tracer = RecordingTracer(record_kernel_events=True)
    registry = MetricsRegistry()
    profiler = HostProfiler(clock=_stub_clock())
    with contextlib.ExitStack() as stack:
        stack.enter_context(use_metrics(registry))
        if "sanitizer" in installed:
            stack.enter_context(use_hooks(sanitizer))
        if "tracer" in installed:
            stack.enter_context(use_tracer(tracer))
        if "sampler" in installed:
            stack.enter_context(use_hooks(SamplingConfig(WINDOW_NS)))
        if "hostprof" in installed:
            stack.enter_context(use_hooks(profiler))
        sim = Simulator()
        subsystem = PramSubsystem(sim)
        if "sanitizer" in installed:
            for channel in subsystem.channels:
                sanitizer.watch(channel)

        def driver():
            for index in range(REQUESTS):
                address = (index * 512) % (1 << 20)
                if index % 2:
                    request = MemoryRequest(Op.WRITE, address, 512,
                                            data=b"\x5A" * 512)
                else:
                    request = MemoryRequest(Op.READ, address, 512)
                yield sim.process(subsystem.submit(request))

        sim.process(driver())
        sim.run()
    sanitizer.stop()
    outputs = {}
    if "sanitizer" in installed:
        outputs["sanitizer"] = (format_races(sanitizer.races()),
                                sanitizer.hb_edges)
    if "tracer" in installed:
        outputs["tracer"] = list(tracer.kernel_events)
    if "sampler" in installed:
        outputs["sampler"] = {
            path: (list(registry.get(path).times),
                   list(registry.get(path).values))
            for path in registry.paths("*.window.*")}
    if "hostprof" in installed:
        outputs["hostprof"] = profiler.census()
    return sim, outputs


def test_instruments_installed_together_match_each_alone():
    uninstrumented, _ = _drive(())
    together, combined = _drive(INSTRUMENTS)
    assert together.now == uninstrumented.now
    for name in INSTRUMENTS:
        alone, outputs = _drive((name,))
        assert alone.now == uninstrumented.now, name
        assert combined[name] == outputs[name], name


def test_each_instrument_observes_something():
    _, combined = _drive(INSTRUMENTS)
    races, edges = combined["sanitizer"]
    assert races and edges
    assert combined["tracer"]
    assert any(times for times, _ in combined["sampler"].values())
    census = combined["hostprof"]
    assert sum(census["dispatches"].values()) == len(combined["tracer"])
    assert sum(census["batch_sizes"]) == len(combined["tracer"])


def test_nothing_installed_leaves_the_kernel_unhooked():
    sim = Simulator()
    assert "_schedule" not in vars(sim)
    assert not getattr(sim, "_hooks", ())


def test_nested_activation_does_not_double_a_hook():
    telemetry = Telemetry.from_spec(TelemetrySpec(
        metrics=True, sampling=WINDOW_NS, hostprof=True))
    with telemetry.activate():
        outer = current_hook_providers()
        with telemetry.activate(), use_hooks(telemetry.hostprof):
            assert current_hook_providers() == outer
            sim = Simulator()
    assert outer == (telemetry.timeseries, telemetry.hostprof)
    assert sim._hooks.count(telemetry.hostprof) == 1
    assert len(sim._hooks) == 2


def test_a_provider_shadows_its_own_class_only():
    sanitizer, outer, inner = (RaceSanitizer(), HostProfiler(),
                               HostProfiler())
    with use_hooks(sanitizer, outer):
        with use_hooks(inner):
            assert current_hook_providers() == (sanitizer, inner)
        assert current_hook_providers() == (sanitizer, outer)
    assert current_hook_providers() == ()
