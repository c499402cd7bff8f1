"""Discrete-event simulation kernel used by every DRAM-less subsystem.

The engine is a small, from-scratch, simpy-style coroutine kernel:

* :class:`~repro.sim.engine.Simulator` owns the event heap and simulated
  clock (nanoseconds, floats).
* :class:`~repro.sim.event.Event` / :class:`~repro.sim.event.Timeout` are
  the primitive wait objects.
* :class:`~repro.sim.process.Process` drives a generator; processes
  ``yield`` events, timeouts, other processes, or condition combinators.
* :class:`~repro.sim.resource.Resource`, :class:`~repro.sim.resource.Store`
  and :class:`~repro.sim.resource.Channel` model contended hardware
  (ports, buses, buffers).
* :class:`~repro.sim.hooks.KernelHook` is the one seam every
  instrument (sanitizer, sampler, host profiler, tracer) observes the
  kernel through; :func:`~repro.sim.hooks.use_hooks` is the one slot
  they are installed in.
* :mod:`~repro.sim.stats` collects counters, time-weighted series and
  category breakdowns used to regenerate the paper's figures.
"""

from repro.sim.engine import Simulator
from repro.sim.event import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.hooks import (
    HookProvider,
    KernelHook,
    current_hook_providers,
    use_hooks,
)
from repro.sim.hostprof import use_hostprof
from repro.sim.process import Process
from repro.sim.resource import Channel, Resource, Store
from repro.sim.sanitizer import (
    KernelSanitizer,
    current_tiebreak_seed,
    use_tiebreak,
)
from repro.sim.stats import (
    QUANTILE_TARGETS,
    Breakdown,
    Counter,
    Histogram,
    LatencySketch,
    SketchLayout,
    TimeSeries,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Breakdown",
    "Channel",
    "Counter",
    "Event",
    "Histogram",
    "HookProvider",
    "Interrupt",
    "KernelHook",
    "KernelSanitizer",
    "LatencySketch",
    "Process",
    "QUANTILE_TARGETS",
    "Resource",
    "Simulator",
    "SketchLayout",
    "Store",
    "TimeSeries",
    "Timeout",
    "current_hook_providers",
    "current_tiebreak_seed",
    "use_hooks",
    "use_hostprof",
    "use_tiebreak",
]
