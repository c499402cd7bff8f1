"""Ambient sampling slot for the simulation engine.

This module is the engine-side half of windowed time-series telemetry
(the registry-facing half lives in :mod:`repro.telemetry.timeseries`).
Like :mod:`repro.sim.sanitizer`, it imports nothing from the telemetry
layer, so the engine can import it without creating a cycle.

The contract mirrors the tracer/metrics ambients:

* a *provider* (any object with ``create_sampler()``) is installed with
  :func:`use_sampling`; :func:`current_sampling` reads it back.
* each :class:`~repro.sim.engine.Simulator` asks the provider for a
  fresh sampler at construction.  A provider may return ``None`` (e.g.
  when metrics are disabled), in which case the engine keeps its
  untouched zero-overhead fast drain.
* the sampler is a :class:`~repro.sim.hooks.KernelHook`: it closes
  window boundaries in ``before_instant`` (before the events at that
  instant run) and in ``on_run_end`` (up to the ``until`` time).
"""
from __future__ import annotations

import contextlib
import contextvars
import typing

from repro.sim.hooks import KernelHook


@typing.runtime_checkable
class WindowSampler(typing.Protocol):
    """The hook components register windowed trackers with.

    :attr:`Simulator.sampler <repro.sim.engine.Simulator>` is the first
    bound hook that has a ``track`` method.
    """

    def track(self, path: str) -> typing.Any:
        """A level tracker whose per-window means land at ``path``."""
        ...


class SamplingProvider(typing.Protocol):
    """Anything that can mint per-simulator sampler hooks."""

    def create_sampler(self) -> typing.Optional[KernelHook]:
        """Return a fresh hook for one simulator, or ``None`` to opt out."""
        ...


_ambient_sampling: "contextvars.ContextVar[typing.Optional[SamplingProvider]]" = (
    contextvars.ContextVar("repro_sampling", default=None))


def current_sampling() -> typing.Optional[SamplingProvider]:
    """The ambient sampling provider, or ``None`` when sampling is off."""
    return _ambient_sampling.get()


@contextlib.contextmanager
def use_sampling(
    provider: typing.Optional[SamplingProvider],
) -> typing.Iterator[typing.Optional[SamplingProvider]]:
    """Install ``provider`` as the ambient sampling provider.

    Simulators constructed inside the ``with`` block ask it for a
    sampler hook; ``None`` restores the disabled default.
    """
    token = _ambient_sampling.set(provider)
    try:
        yield provider
    finally:
        _ambient_sampling.reset(token)
