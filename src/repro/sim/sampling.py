"""The window-sampler role the engine exposes to components.

This module is the engine-side half of windowed time-series telemetry
(the registry-facing half, including the provider installed with
:func:`repro.sim.hooks.use_hooks`, lives in
:mod:`repro.telemetry.timeseries`).  It imports nothing from the
telemetry layer, so the engine can import it without creating a cycle.
"""
from __future__ import annotations

import typing


@typing.runtime_checkable
class WindowSampler(typing.Protocol):
    """The hook components register windowed trackers with.

    :attr:`Simulator.sampler <repro.sim.engine.Simulator>` is the first
    bound hook that has a ``track`` method.
    """

    def track(self, path: str) -> typing.Any:
        """A level tracker whose per-window means land at ``path``."""
        ...
