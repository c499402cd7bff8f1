"""Seeded arrival synthesis: determinism, rates, and burstiness."""

import dataclasses

import pytest

from repro.controller.request import Op
from repro.service import ServiceConfig, merged_timeline, tenant_arrivals
from repro.service import arrivals
from repro.service.arrivals import tenant_times

BASE = ServiceConfig(seed=11, tenants=3, rate_rps=2e6,
                     duration_ns=200_000.0)


class TestDeterminism:
    """Streams are pure functions of (seed, tenant, index)."""

    def test_repeat_synthesis_is_identical(self):
        assert merged_timeline(BASE) == merged_timeline(BASE)

    def test_one_tenant_independent_of_others(self):
        # Adding tenants (at the same per-tenant rate) must not
        # perturb an existing tenant's stream: draws are keyed by
        # (seed, category, tenant, index), never by global state.
        more = dataclasses.replace(BASE, tenants=6,
                                   rate_rps=BASE.rate_rps * 2)
        assert tenant_arrivals(BASE, 1) == tenant_arrivals(more, 1)

    def test_seed_changes_the_stream(self):
        other = dataclasses.replace(BASE, seed=12)
        assert merged_timeline(BASE) != merged_timeline(other)

    @pytest.mark.parametrize("arrival", ["poisson", "mmpp", "diurnal"])
    def test_every_process_is_reproducible(self, arrival):
        config = dataclasses.replace(BASE, arrival=arrival)
        assert merged_timeline(config) == merged_timeline(config)


class TestStreamShape:
    """Sanity of the synthesized traffic."""

    @pytest.mark.parametrize("arrival", ["poisson", "mmpp", "diurnal"])
    def test_times_inside_window_and_sorted(self, arrival):
        config = dataclasses.replace(BASE, arrival=arrival)
        timeline = merged_timeline(config)
        assert timeline
        times = [a.time for a in timeline]
        assert times == sorted(times)
        assert all(0.0 < t < config.duration_ns for t in times)

    @pytest.mark.parametrize("arrival", ["poisson", "mmpp", "diurnal"])
    def test_mean_rate_matches_configuration(self, arrival):
        # Long window so the law of large numbers has room to work.
        config = dataclasses.replace(BASE, arrival=arrival,
                                     duration_ns=2_000_000.0)
        offered = len(merged_timeline(config))
        expected = config.rate_per_ns * config.duration_ns
        assert offered == pytest.approx(expected, rel=0.15)

    def test_rogue_tenant_offers_a_multiple(self):
        config = dataclasses.replace(BASE, rogue_tenants=1,
                                     rogue_factor=10.0,
                                     duration_ns=1_000_000.0)
        rogue = len(tenant_times(config, 0))
        victim = len(tenant_times(config, 1))
        assert rogue > 5 * victim

    def test_mmpp_is_burstier_than_poisson(self):
        # Compare the dispersion (variance/mean of per-window counts):
        # ~1 for Poisson, >1 for the clustered MMPP stream.
        def dispersion(config):
            window = 5_000.0
            bins = int(config.duration_ns / window)
            counts = [0] * bins
            for time in tenant_times(config, 0):
                counts[min(int(time / window), bins - 1)] += 1
            mean = sum(counts) / bins
            var = sum((c - mean) ** 2 for c in counts) / bins
            return var / mean

        long = dataclasses.replace(BASE, duration_ns=2_000_000.0)
        bursty = dataclasses.replace(long, arrival="mmpp")
        assert dispersion(bursty) > 2.0 * dispersion(long)

    def test_addresses_aligned_and_in_footprint(self):
        for arrival in merged_timeline(BASE):
            assert arrival.address % BASE.request_bytes == 0
            assert 0 <= arrival.address < BASE.footprint_bytes
            assert arrival.op in (Op.READ, Op.WRITE)

    def test_read_fraction_respected(self):
        config = dataclasses.replace(BASE, duration_ns=2_000_000.0,
                                     read_fraction=0.75)
        timeline = merged_timeline(config)
        reads = sum(1 for a in timeline if a.op is Op.READ)
        assert reads / len(timeline) == pytest.approx(0.75, abs=0.05)

    def test_merged_order_is_total(self):
        keys = [(a.time, a.tenant) for a in merged_timeline(BASE)]
        assert len(keys) == len(set(keys))


def _scanning_tenant_times(config, tenant):
    """MMPP thinning with a full burst-window scan per candidate.

    The straightforward form of the rule the forward cursor in
    ``tenant_times`` implements; other processes delegate unchanged.
    """
    if config.arrival != "mmpp":
        return tenant_times(config, tenant)
    rate = config.tenant_rate_per_ns(tenant)
    fraction = config.burst_fraction
    quiet_rate = rate / ((1.0 - fraction)
                         + fraction * config.burst_factor)
    burst_rate = quiet_rate * config.burst_factor
    windows = arrivals._burst_windows(config, tenant)
    times = []
    for index, time in enumerate(
            arrivals._candidate_times(config, tenant, burst_rate)):
        if any(start <= time < end for start, end in windows):
            times.append(time)
        elif (arrivals._draw(config.seed, "mmpp_thin", tenant, index)
              < quiet_rate / burst_rate):
            times.append(time)
    return times


class TestBurstCursor:
    """The forward cursor over burst windows changes no arrival."""

    @pytest.mark.parametrize("arrival", ["poisson", "mmpp", "diurnal"])
    @pytest.mark.parametrize("seed", [1, 7, 11, 1009])
    def test_timeline_matches_window_scan(self, arrival, seed,
                                          monkeypatch):
        config = dataclasses.replace(
            BASE, seed=seed, arrival=arrival, tenants=4,
            rogue_tenants=1, burst_ns=5_000.0)
        timeline = merged_timeline(config)
        monkeypatch.setattr(arrivals, "tenant_times",
                            _scanning_tenant_times)
        assert timeline == merged_timeline(config)
        assert timeline
