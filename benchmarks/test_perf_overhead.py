"""Overhead guards: what each always-on mechanism costs a plain run.

Every production run pays for mechanisms it does not use.  Each case
below times a stock drive of the PRAM subsystem against a *reference*
drive with one mechanism taken out, and bounds the ratio:

* ``kernel`` — the kernel with no hook installed against a seed
  replica without the hook seam: ``run()`` without the hook/tie-break
  test or the FIFO assert, and ``succeed``/``fail``/``_step``/
  ``request``/``release`` without the sanitizer loads.  Bound 2%.
* ``sketch`` — the always-on ``LatencySketch.add`` per completed
  request against a no-op.  Bound 5%.
* ``faults`` — a fault plan whose probabilities are all zero against
  no plan at all (the ``faults is not None`` checks on the module and
  channel paths).  Bound 5%.
* ``service`` — the service layer's hooks in ``submit`` (the always
  live in-flight counter, the ``fault_permanent`` flag) against the
  seed ``submit``.  Bound 5%.

Two checks are exact: both sides of a pair finish at the same simulated
time, and with a :class:`~repro.telemetry.hostprof.HostProfiler`
installed they dispatch the same census (events, schedules, callbacks
and batch sizes), so no mechanism adds kernel work.  The wall-clock
ratio is the noisy one: the two sides are timed interleaved,
alternating which goes first so host drift hits both equally, the score
is min-over-samples / min-over-samples, and a failing first pass gets
one retry with more samples.
"""

import dataclasses
import heapq
import math
import time
import typing

import pytest

from repro.controller import MemoryRequest, Op, PramSubsystem
from repro.controller.request import RequestStatus
from repro.faults.plan import FaultConfig
from repro.pram.errors import PramError
from repro.sim import LatencySketch, Simulator, use_hostprof
from repro.sim.event import Event
from repro.sim.process import Process
from repro.sim.resource import Request, Resource
from repro.telemetry.hostprof import HostProfiler

#: Simulated requests per timing sample.
REQUESTS = 192

#: Samples per side on the first pass, and on the one retry.
REPETITIONS = (7, 15)

#: A plan that can never fire a fault of any category.
ZERO_PLAN = FaultConfig(seed=9)


# ----------------------------------------------------------------------
# Kernel seed replica: no hook seam, no sanitizer loads
# ----------------------------------------------------------------------
def _seed_succeed(self, value=None):
    if self._triggered:
        raise RuntimeError(f"{self!r} has already been triggered")
    self._ok = True
    self._value = value
    self._triggered = True
    self.sim._schedule(0.0, self)
    return self


def _seed_fail(self, exception):
    if self._triggered:
        raise RuntimeError(f"{self!r} has already been triggered")
    if not isinstance(exception, BaseException):
        raise TypeError("fail() requires an exception instance")
    self._ok = False
    self._value = exception
    self._triggered = True
    self.sim._schedule(0.0, self)
    return self


def _seed_process_step(self, value, throw):
    previous = self.sim._active
    self.sim._active = self
    try:
        if throw:
            target = self._generator.throw(
                typing.cast(BaseException, value))
        else:
            target = self._generator.send(value)
    except StopIteration as stop:
        self.succeed(stop.value)
        return
    except BaseException as exc:
        self.fail(exc)
        return
    finally:
        self.sim._active = previous
    if not isinstance(target, Event):
        message = TypeError(
            f"process {self.name!r} yielded {target!r}; "
            "processes may only yield Event instances")
        self._step(message, throw=True)
        return
    if target.processed:
        passthrough = Event(self.sim, name=f"{self.name}.passthrough")
        passthrough._ok = target.ok
        passthrough._value = target.value
        passthrough._triggered = True
        passthrough.callbacks.append(self._resume)
        self.sim._schedule(0.0, passthrough)
        self._waiting_on = passthrough
    else:
        target.callbacks.append(self._resume)
        self._waiting_on = target


def _seed_request(self):
    req = Request(self)
    if len(self._users) < self.capacity:
        self._users.add(req)
        req.succeed()
    else:
        self._queue.append(req)
    return req


def _seed_release(self, request):
    if request in self._users:
        self._users.remove(request)
    elif request in self._queue:
        self._queue.remove(request)
        return
    else:
        raise ValueError(f"{request!r} does not hold {self.name}")
    while self._queue and len(self._users) < self.capacity:
        waiter = self._queue.popleft()
        self._users.add(waiter)
        waiter.succeed()


def _seed_run(self, until=None):
    if until is not None and math.isnan(until):
        raise ValueError("cannot run until NaN")
    if until is not None and until < self._now:
        raise ValueError(
            f"cannot run until {until} ns: clock already at {self._now} ns")
    if self._hooks:
        # The seed's instrumented branch; only the census check
        # installs a hook.
        self._run_hooked(until)
    else:
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when = heap[0][0]
            if until is not None and when > until:
                break
            self._now = when
            while heap and heap[0][0] == when:
                _, _, event = pop(heap)
                callbacks, event.callbacks = event.callbacks, []
                event._processed = True
                for callback in callbacks:
                    callback(event)
    if until is not None:
        self._now = max(self._now, until)


# ----------------------------------------------------------------------
# Sketch and service seed replicas
# ----------------------------------------------------------------------
def _seed_add(self, value: float) -> None:
    """The seed's sketch hook: record nothing."""


def _seed_submit(self, request: MemoryRequest) -> typing.Generator:
    """The seed's ``submit``: no backpressure or permanence hooks.

    Byte-for-byte the current
    :meth:`~repro.controller.controller.PramSubsystem.submit` except
    the in-flight counter moves only under ``_metrics_on`` (as before
    the service layer needed it live) and the ``fault_permanent`` flag
    is never set.
    """
    request.submit_time = self.sim.now
    if self._metrics_on:
        self._inflight += 1
        self.queue_depth.record(self.sim.now, float(self._inflight))
    if self.firmware is not None:
        yield self.sim.process(self.firmware.admit())
    by_channel = self.planner.chunks_by_channel(request)
    pending = [
        self.sim.process(self.channels[ch].execute_chunks(chunks))
        for ch, chunks in sorted(by_channel.items())
    ]
    failure: typing.Optional[PramError] = None
    results: typing.Dict[typing.Any, typing.Any] = {}
    try:
        results = yield self.sim.all_of(pending)
    except PramError as exc:
        failure = exc
    request.complete_time = self.sim.now
    if failure is not None:
        request.degrade(RequestStatus.FAILED,
                        f"{type(failure).__name__}: {failure}")
    sketch = self.latency_sketches.get(request.op.value)
    if sketch is not None:
        sketch.add(request.latency)
    if self._metrics_on:
        self._inflight -= 1
        self.queue_depth.record(self.sim.now, float(self._inflight))
        self.request_latency.add(request.latency)
    status = request.status
    if status is not RequestStatus.OK:
        if status is RequestStatus.FAILED:
            self.requests_failed += 1
        elif status is RequestStatus.DEGRADED:
            self.requests_degraded += 1
        if self.faults is not None:
            if status is RequestStatus.FAILED:
                self.faults.requests_failed += 1
            elif status is RequestStatus.DEGRADED:
                self.faults.requests_degraded += 1
            else:
                self.faults.requests_corrected += 1
        if self._metrics_on:
            self._metrics.counter(
                f"{self._metrics_prefix}.requests."
                f"{status.value}").add()
    tracer = self.sim.tracer
    if tracer.enabled:
        span_args: typing.Dict[str, typing.Any] = {
            "address": request.address, "size": request.size,
            "req": request.request_id, "op": request.op.value,
        }
        if status is not RequestStatus.OK:
            span_args["status"] = status.value
        tracer.emit(f"{request.op.value} 0x{request.address:x}",
                    "requests", request.submit_time, self.sim.now,
                    asynchronous=True, **span_args)
    if failure is not None:
        request.result = (bytes(request.size)
                          if request.op is Op.READ else b"")
    else:
        pieces = [piece for proc in pending for piece in results[proc]]
        pieces.sort(key=lambda piece: piece[0])
        request.result = b"".join(data for _, data in pieces)
    self.requests_completed += 1
    if request.done is not None:
        request.done.succeed(request.result)
    return request.result


# The census keys processes by generator name and qualname; the replica
# stands in for the method it copies.
_seed_submit.__name__ = PramSubsystem.submit.__name__
_seed_submit.__qualname__ = PramSubsystem.submit.__qualname__


# ----------------------------------------------------------------------
# The cases
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Case:
    """One stock-versus-reference pair."""

    #: Acceptance bound: stock runtime / reference runtime.
    bound: float
    #: Attribute replacements that turn the stock side into the
    #: reference side.
    patches: typing.Tuple[typing.Tuple[type, str, typing.Any], ...] = ()
    #: The stock side's fault plan (the reference side has none).
    faults: typing.Optional[FaultConfig] = None
    #: Alternate reads and writes instead of reading only.
    writes: bool = False


CASES = {
    "kernel": Case(1.02, patches=(
        (Event, "succeed", _seed_succeed),
        (Event, "fail", _seed_fail),
        (Process, "_step", _seed_process_step),
        (Resource, "request", _seed_request),
        (Resource, "release", _seed_release),
        (Simulator, "run", _seed_run),
    )),
    "sketch": Case(1.05, patches=((LatencySketch, "add", _seed_add),)),
    "faults": Case(1.05, faults=ZERO_PLAN, writes=True),
    "service": Case(1.05, patches=((PramSubsystem, "submit",
                                    _seed_submit),), writes=True),
}


def _drive(case: Case, reference: bool) -> typing.Tuple[float, float]:
    """One request stream on ``case``'s stock or reference side.

    Returns the simulated end time and the host seconds the stream
    took to build and run (patching is outside the timed span).
    """
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            for target, name, replacement in case.patches:
                patch.setattr(target, name, replacement)
        start = time.perf_counter()
        sim = Simulator()
        subsystem = PramSubsystem(
            sim, faults=None if reference else case.faults)

        def driver():
            for index in range(REQUESTS):
                address = (index * 512) % (1 << 20)
                if case.writes and index % 2:
                    request = MemoryRequest(Op.WRITE, address, 512,
                                            data=b"\x5A" * 512)
                else:
                    request = MemoryRequest(Op.READ, address, 512)
                yield sim.process(subsystem.submit(request))

        sim.process(driver())
        sim.run()
        return sim.now, time.perf_counter() - start


def _measure(case: Case, repetitions: int) -> float:
    """Min-of-N interleaved ratio: stock / reference."""
    samples: typing.Dict[bool, typing.List[float]] = {False: [], True: []}
    for index in range(repetitions):
        # Alternate which side goes first, so neither always runs on
        # a cache the other just warmed.
        for reference in ((False, True) if index % 2 else (True, False)):
            samples[reference].append(_drive(case, reference)[1])
    return min(samples[False]) / min(samples[True])


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_matches_stock_results(name):
    case = CASES[name]
    assert _drive(case, reference=True)[0] == _drive(case, reference=False)[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_matches_stock_census(name):
    case = CASES[name]
    censuses = []
    for reference in (False, True):
        profiler = HostProfiler()
        with use_hostprof(profiler):
            _drive(case, reference)
        censuses.append(profiler.census())
    assert censuses[0]["dispatches"]
    assert censuses[0] == censuses[1]


@pytest.mark.parametrize("name", sorted(CASES))
def test_overhead_within_bound(name):
    case = CASES[name]
    _drive(case, reference=False)  # warm caches/allocator before timing
    _drive(case, reference=True)
    ratio = _measure(case, REPETITIONS[0])
    if ratio > case.bound:
        ratio = _measure(case, REPETITIONS[1])
    assert ratio <= case.bound, (
        f"{name}: stock run is {ratio:.3f}x the reference "
        f"(bound {case.bound}x)")
