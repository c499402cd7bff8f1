"""Ambient slot and host clock for host wall-clock profiling.

This module is the *engine half* of :mod:`repro.telemetry.hostprof`:
the ambient installation slot and the host clock, with no dependency
on the telemetry package (the telemetry package imports
:mod:`repro.sim`, so the dependency must point this way to avoid a
cycle) — mirroring :mod:`repro.sim.sampling` and
:mod:`repro.sim.sanitizer`.

* a *provider* (any object with ``create_hostprof()``) is installed
  with :func:`use_hostprof`; :func:`current_hostprof` reads it back.
* each :class:`~repro.sim.engine.Simulator` asks the provider for a
  profiler at construction.  A provider may return ``None``, in which
  case the engine keeps its untouched zero-overhead fast drain.
* the profiler is a :class:`~repro.sim.hooks.KernelHook` that reads
  :data:`host_clock` itself around every dispatch; the hook call order
  (``on_run_start``/``on_run_end`` bracketing the drain, one
  ``before_event``/``after_event`` pair per dispatch) is what lets its
  segments tile the drain's wall clock.
"""

from __future__ import annotations

import contextlib
import contextvars
# Host wall-clock attribution is the profiler's entire purpose;
# simulated time stays in the event heap.  This is the one sanctioned
# perf-counter import in the kernel.
import time  # noqa: SIM001
import typing

from repro.sim.hooks import KernelHook

#: A host clock: returns integer nanoseconds, monotonic.
HostClock = typing.Callable[[], int]

#: The profiler's default clock.
host_clock: HostClock = time.perf_counter_ns


class HostProfilingProvider(typing.Protocol):
    """Anything that can supply per-simulator profiler hooks."""

    def create_hostprof(self) -> typing.Optional[KernelHook]:
        """Return a hook for one simulator, or ``None`` to opt out."""
        ...


_ambient_hostprof: "contextvars.ContextVar[typing.Optional[HostProfilingProvider]]" = (
    contextvars.ContextVar("repro_hostprof", default=None))


def current_hostprof() -> typing.Optional[HostProfilingProvider]:
    """The ambient profiling provider, or ``None`` when profiling is off."""
    return _ambient_hostprof.get()


@contextlib.contextmanager
def use_hostprof(
    provider: typing.Optional[HostProfilingProvider],
) -> typing.Iterator[typing.Optional[HostProfilingProvider]]:
    """Install ``provider`` as the ambient host-profiling provider.

    Simulators constructed inside the ``with`` block ask it for a
    profiler hook; ``None`` restores the disabled default.
    """
    token = _ambient_hostprof.set(provider)
    try:
        yield provider
    finally:
        _ambient_hostprof.reset(token)
