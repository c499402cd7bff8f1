"""The window-sampler role the engine exposes to components.

This module is the engine-side half of windowed time-series telemetry
(the registry-facing half, including the provider installed with
:func:`repro.sim.hooks.use_hooks`, lives in
:mod:`repro.telemetry.timeseries`).  It imports nothing from the
telemetry layer, so the engine can import it without creating a cycle.
"""
from __future__ import annotations

import typing

from repro.sim.stats import TimeSeries


@typing.runtime_checkable
class WindowSampler(typing.Protocol):
    """The hook components hand their levels to.

    :attr:`Simulator.sampler <repro.sim.engine.Simulator>` is the first
    bound hook that has these methods.
    """

    def watch_level(self, path: str, level: TimeSeries) -> None:
        """Record ``level``'s time-weighted mean per window at ``path``."""
        ...

    def watch_gauge(self, path: str,
                    read: typing.Callable[[], float]) -> None:
        """Sample ``read()`` at every window boundary into ``path``."""
        ...
