"""Seeded open-loop arrival synthesis for the service layer.

Every arrival instant, operation kind, and address is a pure function
of ``(seed, category, tenant, draw index)`` hashed through BLAKE2b —
the same interleaving-independent idiom as
:meth:`repro.faults.plan.FaultState._draw` — so one tenant's offered
stream never depends on how other tenants, workers, or shards
interleave.  A fixed seed produces the same traffic serially and under
the parallel experiment runner, bit for bit.

Three arrival processes cover the overload scenario family:

* ``poisson`` — memoryless constant-rate arrivals;
* ``mmpp`` — a two-state Markov-modulated Poisson process (quiet /
  burst), synthesized by thinning a peak-rate Poisson stream against a
  seeded state timeline, so bursts are genuinely clustered;
* ``diurnal`` — sinusoidally modulated rate (a compressed day), also
  by thinning, for slow load swings.

Thinning preserves the seeded-determinism property: the candidate
stream and the accept draws are both site-keyed, so the accepted
subsequence is reproducible regardless of evaluation order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import typing

from repro.controller.request import Op
from repro.service.config import ServiceConfig


@dataclasses.dataclass(frozen=True)
class Arrival:
    """One offered request: when, from whom, and what it asks for."""

    time: float
    tenant: int
    op: Op
    address: int


def _draw(seed: int, category: str, tenant: int, index: int) -> float:
    """Uniform [0, 1) draw for one (category, tenant, index) site."""
    payload = repr((seed, index, category, tenant)).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def _exponential(u: float, rate: float) -> float:
    """Inverse-CDF exponential sample with mean ``1 / rate``."""
    return -math.log(1.0 - u) / rate


def _candidate_times(config: ServiceConfig, tenant: int,
                     rate: float) -> typing.Iterator[float]:
    """Poisson arrival instants at ``rate`` over the traffic window."""
    now = 0.0
    index = 0
    while True:
        now += _exponential(
            _draw(config.seed, "arrival", tenant, index), rate)
        index += 1
        if now >= config.duration_ns:
            return
        yield now


def _burst_windows(config: ServiceConfig,
                   tenant: int) -> typing.List[typing.Tuple[float, float]]:
    """Seeded [start, end) burst-state windows of the MMPP timeline.

    Sojourns alternate quiet/burst with exponential lengths whose means
    put the tenant in the burst state ``burst_fraction`` of the time on
    average (quiet mean = ``burst_ns * (1 - f) / f``).
    """
    fraction = config.burst_fraction
    if fraction <= 0.0:
        return []
    if fraction >= 1.0:
        return [(0.0, config.duration_ns)]
    quiet_mean = config.burst_ns * (1.0 - fraction) / fraction
    windows = []
    now = 0.0
    index = 0
    while now < config.duration_ns:
        quiet = _exponential(
            _draw(config.seed, "mmpp_quiet", tenant, index), 1.0 / quiet_mean)
        start = now + quiet
        if start >= config.duration_ns:
            break
        burst = _exponential(
            _draw(config.seed, "mmpp_burst", tenant, index),
            1.0 / config.burst_ns)
        windows.append((start, min(start + burst, config.duration_ns)))
        now = start + burst
        index += 1
    return windows


def tenant_times(config: ServiceConfig,
                 tenant: int) -> typing.List[float]:
    """Arrival instants for one tenant over ``[0, duration_ns)``."""
    rate = config.tenant_rate_per_ns(tenant)
    if config.arrival == "poisson":
        return list(_candidate_times(config, tenant, rate))
    if config.arrival == "mmpp":
        # Mean rate across states must equal the offered rate:
        # rate = (1 - f) * quiet + f * burst_factor * quiet.
        fraction = config.burst_fraction
        factor = config.burst_factor
        quiet_rate = rate / ((1.0 - fraction) + fraction * factor)
        burst_rate = quiet_rate * factor
        windows = _burst_windows(config, tenant)
        accept = quiet_rate / burst_rate
        # Candidates and windows are both in time order, so the first
        # window not yet over only ever moves forward.
        cursor = 0
        times = []
        for index, time in enumerate(
                _candidate_times(config, tenant, burst_rate)):
            while cursor < len(windows) and windows[cursor][1] <= time:
                cursor += 1
            if cursor < len(windows) and windows[cursor][0] <= time:
                times.append(time)
            elif _draw(config.seed, "mmpp_thin", tenant, index) < accept:
                times.append(time)
        return times
    # Diurnal: thin a peak-rate stream against the sinusoidal envelope.
    amplitude = config.diurnal_amplitude
    peak = rate * (1.0 + amplitude)
    period = config.diurnal_period_ns
    times = []
    for index, time in enumerate(_candidate_times(config, tenant, peak)):
        level = 1.0 + amplitude * math.sin(2.0 * math.pi * time / period)
        if (_draw(config.seed, "diurnal_thin", tenant, index)
                < level / (1.0 + amplitude)):
            times.append(time)
    return times


def tenant_arrivals(config: ServiceConfig,
                    tenant: int) -> typing.List[Arrival]:
    """One tenant's full offered stream (instant, op, address)."""
    slots = max(1, config.footprint_bytes // config.request_bytes)
    arrivals = []
    for index, time in enumerate(tenant_times(config, tenant)):
        is_read = (_draw(config.seed, "op", tenant, index)
                   < config.read_fraction)
        slot = min(int(_draw(config.seed, "addr", tenant, index) * slots),
                   slots - 1)
        arrivals.append(Arrival(
            time=time, tenant=tenant,
            op=Op.READ if is_read else Op.WRITE,
            address=slot * config.request_bytes))
    return arrivals


def merged_timeline(config: ServiceConfig) -> typing.List[Arrival]:
    """All tenants' offered streams in deterministic arrival order.

    Sorted by ``(time, tenant)``; two tenants cannot collide at one
    instant *and* tie on tenant id, so the order is total and the
    injector replays it identically on every run.
    """
    merged: typing.List[Arrival] = []
    for tenant in range(config.tenants):
        merged.extend(tenant_arrivals(config, tenant))
    merged.sort(key=lambda arrival: (arrival.time, arrival.tenant))
    return merged
