"""The kernel's one instrumentation seam: :class:`KernelHook`.

Every instrument that observes the event kernel — the race sanitizer
(:mod:`repro.analysis.racecheck`), the window sampler
(:mod:`repro.telemetry.timeseries`), the host profiler
(:mod:`repro.telemetry.hostprof`) and an enabled tracer, through an
adapter that records ``kernel_event`` — implements this one Protocol.  A :class:`~repro.sim.engine.Simulator` resolves its
hooks once, at construction, into a tuple:

* **empty tuple** (every production run): ``run()`` takes the batched
  fast drain and ``_schedule`` is the class method — no hook costs
  anything.
* **non-empty tuple**: ``run()`` takes the one instrumented drain (as
  a tie-break seed alone also does) and ``_schedule`` is swapped for a
  variant that reports every admission.

Call order, per ``run()``::

    on_run_start()
    for each same-timestamp instant (a shuffled batch under a seed):
        before_instant(now)      # the clock still reads the last instant
        for each event, in drain order:
            before_event(event, callbacks)
            ...the event's callbacks run...
            after_event(event, callbacks)
        after_instant(size)      # events dispatched at this instant
    on_run_end(until)

``on_schedule(event)`` fires after each admitted ``_schedule`` call,
inside whichever callback (or outside ``run()``) scheduled it.  Hooks
are called in tuple order.  ``callbacks`` is the pre-dispatch list (the
event's own list is already detached), so bound-method owners stay
discoverable for attribution.

Hooks **observe, never schedule**: a hook must not create, trigger or
cancel events, nor touch simulated state, so an instrumented run
dispatches exactly the events an uninstrumented one does.

The Protocol's methods are no-ops, so an implementation subclasses it
and overrides only what it observes.

Ambient installation
--------------------
Every instrument is installed through one :class:`contextvars.ContextVar`
slot of :class:`HookProvider`\\ s (:func:`use_hooks`).  A simulator
built without explicit ``hooks`` asks each installed provider for a
hook (:func:`ambient_hooks`); a provider may decline with ``None``
(the window sampler does when no metrics registry is active).  The slot
holds at most one provider per class: installing a provider shadows
the one of its class for the ``with`` body, and installing the provider
that is already there is a no-op, so nested activations of one
instrument bundle never double a hook.
"""

from __future__ import annotations

import contextlib
import contextvars
import typing

from repro.sim.process import Process

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.event import Event

#: The callbacks an event held when the kernel popped it.
Callbacks = typing.Sequence[typing.Callable[..., None]]


@typing.runtime_checkable
class KernelHook(typing.Protocol):
    """Observer of the event kernel; see the module docstring."""

    def on_schedule(self, event: "Event") -> None:
        """``event`` was admitted onto the heap."""

    def before_instant(self, now: float) -> None:
        """The events at simulated time ``now`` are about to run."""

    def before_event(self, event: "Event", callbacks: Callbacks) -> None:
        """``event`` was popped; its ``callbacks`` run next."""

    def after_event(self, event: "Event", callbacks: Callbacks) -> None:
        """``event``'s ``callbacks`` finished running."""

    def after_instant(self, size: int) -> None:
        """A batch of ``size`` same-timestamp events finished."""

    def on_run_start(self) -> None:
        """A ``run()`` drain is starting."""

    def on_run_end(self, until: float | None) -> None:
        """The drain stopped (heap empty, or the next event is past
        ``until``); the clock has not yet been advanced to ``until``."""


class HookProvider(typing.Protocol):
    """Anything that can supply a kernel hook per simulator."""

    def create_hook(self) -> typing.Optional[KernelHook]:
        """A hook for one simulator, or ``None`` to opt out."""
        ...


_PROVIDERS: "contextvars.ContextVar[typing.Tuple[HookProvider, ...]]" = (
    contextvars.ContextVar("repro_hook_providers", default=()))


def current_hook_providers() -> typing.Tuple[HookProvider, ...]:
    """The installed providers, in installation order."""
    return _PROVIDERS.get()


@contextlib.contextmanager
def use_hooks(*providers: HookProvider
              ) -> typing.Iterator[typing.Tuple[HookProvider, ...]]:
    """Install ``providers`` ambiently for the ``with`` body.

    Each shadows the installed provider of its own class (keeping that
    one's position) or is appended; re-installing the same object is a
    no-op.  Token-based restoration keeps nested uses independent.
    """
    slot = list(_PROVIDERS.get())
    for provider in providers:
        kinds = [type(installed) for installed in slot]
        if type(provider) in kinds:
            slot[kinds.index(type(provider))] = provider
        else:
            slot.append(provider)
    token = _PROVIDERS.set(tuple(slot))
    try:
        yield tuple(slot)
    finally:
        _PROVIDERS.reset(token)


def ambient_hooks() -> typing.List[KernelHook]:
    """One hook per installed provider that does not decline."""
    hooks: typing.List[KernelHook] = []
    for provider in _PROVIDERS.get():
        hook = provider.create_hook()
        if hook is not None:
            hooks.append(hook)
    return hooks


def event_label(event: "Event", callbacks: Callbacks) -> str:
    """Human-readable label for a dispatched event.

    Named events keep their name.  Anonymous events (timeouts,
    resource grants) are labeled ``ClassName:owner`` where the owner
    is the process waiting on them — without this, traces degrade
    to a wall of bare ``Timeout``/``Event`` entries.
    """
    if event.name:
        return event.name
    label = type(event).__name__
    for callback in callbacks:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process) and owner.name:
            return f"{label}:{owner.name}"
    return label
