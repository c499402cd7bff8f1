"""No-service-layer overhead guard.

Adding the service front end put two things on the plain (no front
end) request path: the subsystem's in-flight counter is now maintained
unconditionally so ``backpressure()`` always has a live signal, and a
completed-with-device-error request sets its ``fault_permanent`` flag.
This benchmark pins that cost the same way the null-tracer guard pins
the ``Simulator.step`` hook: a drive through the current ``submit``
must stay within 5% of a seed-replica ``submit`` with no service
hooks at all.

Wall-clock comparisons on shared CI machines are noisy, so the two
variants are timed interleaved (alternating, so drift hits both
equally), the score is the minimum over several repetitions, and a
failing first pass gets one retry with more repetitions.
"""

import time
import types
import typing

from repro.controller import MemoryRequest, Op, PramSubsystem
from repro.controller.request import RequestStatus
from repro.pram.errors import PramError
from repro.sim import Simulator

#: Acceptance bound: current submit / seed-replica submit runtime.
MAX_OVERHEAD = 1.05

#: Simulated requests per timing sample (reads and writes).
REQUESTS = 192


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
        if self._inflight_tracker is not None:
            self._inflight_tracker.adjust(self.sim.now, 1.0)
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
        if self._inflight_tracker is not None:
            self._inflight_tracker.adjust(self.sim.now, -1.0)
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


def _drive(seed_replica: bool) -> float:
    sim = Simulator()
    subsystem = PramSubsystem(sim)
    if seed_replica:
        subsystem.submit = types.MethodType(_seed_submit, subsystem)

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
    return sim.now


def _sample(seed_replica: bool) -> float:
    start = time.perf_counter()
    _drive(seed_replica)
    return time.perf_counter() - start


def _measure(repetitions: int) -> float:
    """Min-of-N interleaved ratio: current submit / seed submit."""
    current: list = []
    seed: list = []
    for _ in range(repetitions):
        current.append(_sample(False))
        seed.append(_sample(True))
    return min(current) / min(seed)


def test_seed_replica_timing_matches_current_submit():
    assert _drive(False) == _drive(True)


def test_no_service_layer_overhead_within_bound():
    _sample(False)  # warm caches/allocator before timing
    ratio = _measure(7)
    if ratio > MAX_OVERHEAD:  # one retry with more repetitions
        ratio = _measure(15)
    assert ratio <= MAX_OVERHEAD, (
        f"plain submit path is {ratio:.3f}x the pre-service seed "
        f"(bound {MAX_OVERHEAD}x)")
