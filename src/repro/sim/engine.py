"""The simulation kernel: clock, event heap, and run loop.

Ordering contract
-----------------
The heap orders occurrences by ``(timestamp, tie-break counter)``.  The
counter increments per schedule, so **events that land on the same
simulated instant drain in FIFO schedule order**, and events scheduled
*by a callback at the current instant* sort after everything already
queued for that instant.  This FIFO tie-break is a documented, asserted
invariant (see :meth:`Simulator.run`): the batched same-timestamp drain
and the sharded parallel merge reproduce results byte-for-byte only
because equal-timestamp ordering is deterministic.  :mod:`repro.analysis.racecheck` certifies which
workloads are *independent* of that ordering (and would therefore
survive a kernel that reorders within an instant); the seeded
``tiebreak_seed`` debug mode below is the mechanism it uses.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import typing

from repro.sim.event import AllOf, AnyOf, Event, Timeout
from repro.sim.hooks import Callbacks, KernelHook, ambient_hooks, event_label
from repro.sim.process import Process
from repro.sim.sampling import WindowSampler
from repro.sim.sanitizer import KernelSanitizer, current_tiebreak_seed
from repro.telemetry.tracer import Tracer, combine, current_tracer

GeneratorType = typing.Generator

#: One scheduled occurrence: ``(timestamp, tie-break counter, event)``.
HeapEntry = typing.Tuple[float, int, Event]

#: One entry of a captured event trace: ``(timestamp, event label)``.
TraceEntry = typing.Tuple[float, str]


class Simulator:
    """Heap-ordered discrete-event simulator.

    Simulated time is a float in **nanoseconds**.  All device models in
    this package express their latencies in nanoseconds so event
    timestamps compose without unit conversions.

    Typical usage::

        sim = Simulator()

        def worker():
            yield sim.timeout(10.0)
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert sim.now == 10.0
    """

    def __init__(self, tracer: Tracer | None = None,
                 tiebreak_seed: int | None = None,
                 hooks: typing.Iterable[KernelHook] | None = None) -> None:
        self._now = 0.0
        self._heap: typing.List[HeapEntry] = []
        self._counter = itertools.count()
        self._active: Process | None = None
        # Tie-break shuffle debug mode: with a seed, run() drains each
        # same-timestamp batch in a seeded random permutation instead
        # of FIFO order (the shuffle oracle's lever).  None = FIFO.
        seed = (tiebreak_seed if tiebreak_seed is not None
                else current_tiebreak_seed())
        self._tiebreak_rng = (random.Random(seed) if seed is not None
                              else None)
        # Explicit tracer and the ambient one (use_tracer) both observe
        # this kernel; with neither active this collapses to the null
        # tracer.  Binding happens at construction so harnesses
        # (determinism capture, experiment tracing) observe every
        # simulator built inside their scope.
        self.tracer: Tracer = combine(tracer, current_tracer())
        # Instruments (repro.sim.hooks): explicit hooks replace the
        # ones the ambient providers supply; an enabled tracer joins
        # either set.  With no hook at all, run() keeps the batched
        # fast drain and _schedule its guard-free class body.
        resolved = list(hooks) if hooks is not None else ambient_hooks()
        if self.tracer.enabled:
            resolved.insert(0, _TracerHook(self.tracer))
        self._hooks: typing.Tuple[KernelHook, ...] = tuple(resolved)
        # The sanitizer's causality callbacks (on_trigger, on_actor,
        # Resource grants) sit on the hottest paths in event.py,
        # process.py and resource.py, so they stay one guarded load of
        # this slot rather than a hook loop.
        self._sanitizer: KernelSanitizer | None = next(
            (hook for hook in self._hooks
             if isinstance(hook, KernelSanitizer)), None)
        # The window sampler components hand their levels to.
        self.sampler: WindowSampler | None = next(
            (hook for hook in self._hooks
             if isinstance(hook, WindowSampler)), None)
        if self._hooks:
            self._schedule = (  # type: ignore[method-assign]
                self._schedule_hooked)

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being stepped, if any."""
        return self._active

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered event owned by this simulator."""
        return Event(self, name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def deadline(self, at: float, value: object = None) -> Timeout:
        """Create an event that fires at the absolute instant ``at``.

        The service layer schedules arrival injections and deadline
        sweeps against absolute simulated instants; expressing them as
        relative timeouts at every call site invites drift bugs.  NaN
        and past instants are rejected here (mirroring
        :meth:`_schedule`'s delay validation) so a bad deadline fails
        at creation, not as a negative-delay error deep in the heap.
        """
        if math.isnan(at):
            raise ValueError("cannot schedule a deadline at NaN")
        if at < self._now:
            raise ValueError(
                f"cannot schedule a deadline at {at} ns: clock already "
                f"at {self._now} ns")
        return Timeout(self, at - self._now, value)

    def process(self, generator: GeneratorType, name: str = "") -> Process:
        """Register a generator as a runnable process."""
        return Process(self, generator, name)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Event that triggers once all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """Event that triggers once any of ``events`` has triggered."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and the run loop
    # ------------------------------------------------------------------
    def _schedule(self, delay: float, event: Event) -> None:
        # Fast path: one comparison admits every valid delay (NaN
        # compares false), so the hot path pays no math.isnan call.
        # The clock is never NaN (it only takes values this check has
        # already admitted), so the timestamp needs no separate check.
        if delay >= 0:
            heapq.heappush(self._heap,
                           (self._now + delay, next(self._counter), event))
            return
        if math.isnan(delay):
            raise ValueError(f"cannot schedule {event!r}: delay is NaN")
        raise ValueError(
            f"cannot schedule {event!r}: negative delay {delay}"
        )

    def _schedule_hooked(self, delay: float, event: Event) -> None:
        # Installed over _schedule (instance attribute) only when hooks
        # are bound, so the uninstrumented fast path keeps its
        # guard-free body.  Hooks see only admitted delays.
        Simulator._schedule(self, delay, event)
        for hook in self._hooks:
            hook.on_schedule(event)

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event off the heap.

        Hooks see the dispatch (``before_event``/``after_event``) but
        no instant or run boundary: ``step()`` is outside any drain.
        """
        if not self._heap:
            raise RuntimeError("step() on an empty event heap")
        when, _, event = heapq.heappop(self._heap)
        self._now = when
        self._dispatch_hooked(event)

    def _dispatch_hooked(self, event: Event) -> None:
        callbacks, event.callbacks = event.callbacks, []
        event._processed = True
        hooks = self._hooks
        for hook in hooks:
            hook.before_event(event, callbacks)
        for callback in callbacks:
            callback(event)
        for hook in hooks:
            hook.after_event(event, callbacks)

    def run(self, until: float | None = None) -> None:
        """Drain the event heap, optionally stopping at time ``until``.

        With ``until`` set, the clock is advanced to exactly ``until``
        even if no event lands on that instant, matching the convention
        of mainstream DES kernels.

        Two drains: with no hook bound and no tie-break seed, the
        batched fast drain below; otherwise :meth:`_run_hooked`.

        **FIFO tie-break invariant.**  Within one simulated instant,
        events are processed in schedule (counter) order — both drains
        assert it per batch.  Everything downstream that promises
        byte-identical results (serial-vs-sharded merge, the result
        cache, determinism-marked tests) inherits this invariant;
        ``tiebreak_seed`` is the one sanctioned way to deviate from
        it, and exists precisely so
        :mod:`repro.analysis.racecheck` can measure which workloads
        depend on it.
        """
        if until is not None and math.isnan(until):
            raise ValueError("cannot run until NaN")
        if until is not None and until < self._now:
            raise ValueError(
                f"cannot run until {until} ns: clock already at {self._now} ns"
            )
        if self._hooks or self._tiebreak_rng is not None:
            self._run_hooked(until)
        else:
            # Untraced fast drain: inline step() minus the tracer
            # branch, and batch same-timestamp events so the clock is
            # written (and the stop condition tested) once per instant
            # rather than once per event.  Ordering is unchanged — the
            # heap already yields equal timestamps in schedule
            # (counter) order, and events scheduled by a callback at
            # the current instant sort after everything already queued.
            heap = self._heap
            pop = heapq.heappop
            while heap:
                when = heap[0][0]
                if until is not None and when > until:
                    break
                self._now = when
                last_seq = -1
                while heap and heap[0][0] == when:
                    _, seq, event = pop(heap)
                    # Regression guard for the FIFO tie-break invariant
                    # racecheck certifies against: equal timestamps
                    # must drain in schedule-counter order.
                    assert seq > last_seq, (
                        "same-timestamp drain broke FIFO schedule order")
                    last_seq = seq
                    callbacks, event.callbacks = event.callbacks, []
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
        if until is not None:
            self._now = max(self._now, until)

    def _run_hooked(self, until: float | None) -> None:
        """Instrumented drain: the fast drain's batches, with hooks.

        Calls every hook in the order :mod:`repro.sim.hooks` documents.
        Without a tie-break seed, each instant drains in FIFO schedule
        order under the same assert as the fast drain, so an
        instrumented run dispatches exactly what an uninstrumented one
        does.  With a seed, the events already queued for the instant
        are shuffled as one batch; events a callback schedules *at the
        same instant* form the next batch (shuffled separately), so
        nothing runs before the task that scheduled it.  Each distinct
        seed explores one alternative tie-break order; FIFO is the
        identity the shuffle oracle diffs against.
        """
        hooks = self._hooks
        rng = self._tiebreak_rng
        heap = self._heap
        pop = heapq.heappop
        dispatch = self._dispatch_hooked
        for hook in hooks:
            hook.on_run_start()
        while heap:
            when = heap[0][0]
            if until is not None and when > until:
                break
            for hook in hooks:
                hook.before_instant(when)
            self._now = when
            if rng is None:
                size = 0
                last_seq = -1
                while heap and heap[0][0] == when:
                    _, seq, event = pop(heap)
                    assert seq > last_seq, (
                        "same-timestamp drain broke FIFO schedule order")
                    last_seq = seq
                    size += 1
                    dispatch(event)
            else:
                batch = []
                while heap and heap[0][0] == when:
                    batch.append(pop(heap))
                rng.shuffle(batch)
                size = len(batch)
                for _, _, event in batch:
                    dispatch(event)
            for hook in hooks:
                hook.after_instant(size)
        for hook in hooks:
            hook.on_run_end(until)


class _TracerHook(KernelHook):
    """Adapts an enabled tracer: one ``kernel_event`` per dispatch."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def before_event(self, event: Event, callbacks: Callbacks) -> None:
        self.tracer.kernel_event(event.sim.now, event_label(event, callbacks))
