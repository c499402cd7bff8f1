"""Host clock and installer for host wall-clock profiling.

This module is the *engine half* of :mod:`repro.telemetry.hostprof`,
with no dependency on the telemetry package (the telemetry package
imports :mod:`repro.sim`, so the dependency must point this way to
avoid a cycle):

* :data:`host_clock` — the clock the profiler reads around every
  dispatch.  The hook call order (``on_run_start``/``on_run_end``
  bracketing the drain, one ``before_event``/``after_event`` pair per
  dispatch) is what lets its segments tile the drain's wall clock.
* :func:`use_hostprof` — installs a profiler in the one hook-provider
  slot (:func:`repro.sim.hooks.use_hooks`).
"""

from __future__ import annotations

# Host wall-clock attribution is the profiler's entire purpose;
# simulated time stays in the event heap.  This is the one sanctioned
# perf-counter import in the kernel.
import time  # noqa: SIM001
import typing

from repro.sim.hooks import use_hooks

#: A host clock: returns integer nanoseconds, monotonic.
HostClock = typing.Callable[[], int]

#: The profiler's default clock.
host_clock: HostClock = time.perf_counter_ns


#: Install a profiler alone (any hook provider works): the one
#: hook-provider slot's installer under the profiler's name.
use_hostprof = use_hooks
