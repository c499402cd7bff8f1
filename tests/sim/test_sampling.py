"""Engine-driven window sampling: hook wiring and window semantics."""

import pytest

from repro.sim import KernelHook, Simulator, TimeSeries, current_hook_providers
from repro.sim import use_hooks
from repro.sim.sampling import WindowSampler
from repro.telemetry.metrics import MetricsRegistry, use_metrics
from repro.telemetry.session import Telemetry
from repro.telemetry.timeseries import Sampler, SamplingConfig


def _sampler(window_ns=10.0):
    registry = MetricsRegistry()
    return Sampler(registry, window_ns), registry


def _level(sampler, path="q.depth"):
    """A step series watched at ``path``, plus an ``adjust`` helper."""
    level = TimeSeries("level")
    sampler.watch_level(path, level)

    def adjust(now, delta):
        level.record(now, (level.values[-1] if level.values else 0.0)
                     + delta)

    return level, adjust


class TestAmbientProvider:
    def test_default_is_none(self):
        assert current_hook_providers() == ()
        assert Simulator().sampler is None

    def test_scope_installs_and_restores(self):
        config = SamplingConfig(window_ns=50.0)
        with use_hooks(config):
            assert current_hook_providers() == (config,)
        assert current_hook_providers() == ()

    def test_no_registry_means_no_sampler(self):
        # Sampling without metrics costs nothing: the provider declines.
        with use_hooks(SamplingConfig()):
            assert Simulator().sampler is None

    def test_registry_plus_scope_mints_one_sampler_per_simulator(self):
        registry = MetricsRegistry()
        with use_metrics(registry), use_hooks(SamplingConfig()):
            first, second = Simulator(), Simulator()
        assert isinstance(first.sampler, Sampler)
        assert isinstance(second.sampler, Sampler)
        assert first.sampler is not second.sampler

    def test_explicit_sampler_wins_over_ambient(self):
        sampler, _ = _sampler()
        with use_metrics(MetricsRegistry()), use_hooks(SamplingConfig()):
            assert Simulator(hooks=(sampler,)).sampler is sampler

    def test_sampler_is_a_kernel_hook(self):
        sampler, _ = _sampler()
        assert isinstance(sampler, KernelHook)
        assert isinstance(sampler, WindowSampler)
        sampler.after_event(None, ())  # inherited no-op: must not raise

    def test_config_validates_window(self):
        with pytest.raises(ValueError):
            SamplingConfig(window_ns=0.0)
        with pytest.raises(ValueError):
            Sampler(MetricsRegistry(), window_ns=float("inf"))

    def test_config_spec_is_hashable_identity(self):
        # The window width alone names a sampling policy in the bundle
        # spec (and so in every result-cache key).
        spec = Telemetry(timeseries=SamplingConfig(250.0)).spec()
        assert spec.sampling == 250.0
        assert hash(spec)


class TestWindowSemantics:
    def test_duty_cycle_means(self):
        # Level 1 for 7 ns then 0 for 3 ns, each 10 ns window -> 0.7.
        sampler, registry = _sampler(window_ns=10.0)
        sim = Simulator(hooks=(sampler,))
        _, adjust = _level(sampler)

        def duty():
            for _ in range(3):
                adjust(sim.now, 1.0)
                yield sim.timeout(7.0)
                adjust(sim.now, -1.0)
                yield sim.timeout(3.0)

        sim.process(duty())
        sim.run()
        # The run ends exactly on the t=30 boundary, closing all three.
        series = registry.series("q.depth")
        assert series.times == [0.0, 10.0, 20.0]
        assert series.values == pytest.approx([0.7, 0.7, 0.7])

    def test_boundary_instant_update_belongs_to_next_window(self):
        # The engine advances the sampler *before* events at an instant
        # run, so a level change at exactly t=10 cannot leak into the
        # [0, 10) window.
        sampler, registry = _sampler(window_ns=10.0)
        sim = Simulator(hooks=(sampler,))
        level, _ = _level(sampler)

        def jump():
            yield sim.timeout(10.0)
            level.record(sim.now, 5.0)
            yield sim.timeout(10.0)

        sim.process(jump())
        sim.run()
        series = registry.series("q.depth")
        assert series.times == [0.0, 10.0]
        assert series.values == pytest.approx([0.0, 5.0])

    def test_partial_final_window_is_dropped(self):
        sampler, registry = _sampler(window_ns=10.0)
        sim = Simulator(hooks=(sampler,))
        level, _ = _level(sampler)

        def run():
            level.record(sim.now, 1.0)
            yield sim.timeout(25.0)  # ends mid-window

        sim.process(run())
        sim.run()
        # [0,10) and [10,20) close; [20,25) would skew the plot.
        assert registry.series("q.depth").times == [0.0, 10.0]

    def test_run_until_flushes_trailing_windows(self):
        sampler, registry = _sampler(window_ns=10.0)
        sim = Simulator(hooks=(sampler,))
        level, _ = _level(sampler)

        def run():
            level.record(sim.now, 2.0)
            yield sim.timeout(5.0)  # last event at t=5

        sim.process(run())
        sim.run(until=30.0)
        series = registry.series("q.depth")
        assert series.times == [0.0, 10.0, 20.0]
        assert series.values == pytest.approx([2.0, 2.0, 2.0])

    def test_watch_gauge_samples_at_boundaries(self):
        sampler, registry = _sampler(window_ns=10.0)
        sim = Simulator(hooks=(sampler,))
        depth = {"value": 0.0}
        sampler.watch_gauge("hints", lambda: depth["value"])

        def run():
            yield sim.timeout(15.0)
            depth["value"] = 4.0
            yield sim.timeout(15.0)

        sim.process(run())
        sim.run()
        series = registry.series("hints")
        # Boundary at 10 reads 0.0 (set happens at 15); 20 and 30, 4.0.
        assert series.times == [0.0, 10.0, 20.0]
        assert series.values == [0.0, 4.0, 4.0]

    def test_no_drift_over_many_windows(self):
        # Boundaries come from an integer index, not repeated addition:
        # after 10k windows of 0.1 ns the boundary is still exact.
        sampler, registry = _sampler(window_ns=0.1)
        sim = Simulator(hooks=(sampler,))
        _level(sampler)

        def run():
            yield sim.timeout(1000.0)

        sim.process(run())
        sim.run()
        series = registry.series("q.depth")
        assert series.times[-1] == pytest.approx(9999 * 0.1)

    def test_shuffled_drain_samples_identically(self):
        def trace(tiebreak_seed):
            sampler, registry = _sampler(window_ns=10.0)
            sim = Simulator(hooks=(sampler,),
                            tiebreak_seed=tiebreak_seed)
            _, adjust = _level(sampler)

            def agent(delay):
                yield sim.timeout(delay)
                adjust(sim.now, 1.0)
                yield sim.timeout(12.0)
                adjust(sim.now, -1.0)

            for _ in range(4):  # four agents, same timestamps
                sim.process(agent(4.0))
            sim.run()
            series = registry.series("q.depth")
            return (list(series.times), list(series.values))

        fifo = trace(None)
        assert trace(7) == fifo
        assert trace(1234) == fifo


class TestWatchLevel:
    """A window sample is the level's time-weighted mean over it."""

    def _means(self, samples, windows, window_ns=10.0):
        sampler, registry = _sampler(window_ns)
        level, _ = _level(sampler)
        for time, value in samples:
            level.record(time, value)
        sampler.before_instant(windows * window_ns)
        return registry.series("q.depth").values

    def test_constant_level(self):
        assert self._means([(0.0, 3.0)], 1) == [3.0]

    def test_mid_window_change(self):
        # [0,5): 2, [5,10): 4 -> mean 3.
        assert self._means([(0.0, 2.0), (5.0, 4.0)], 1) == [3.0]

    def test_level_carries_across_windows(self):
        # No samples in the second window: the level persists.
        assert self._means([(0.0, 6.0)], 2) == [6.0, 6.0]

    def test_same_instant_changes_keep_the_last(self):
        # Two changes at t=0 and two at t=5: the later of each pair
        # holds.  [0,5): 4, [5,10): 1 -> mean 2.5.
        assert self._means([(0.0, 2.0), (0.0, 4.0),
                            (5.0, 3.0), (5.0, 1.0)], 1) == [2.5]

    def test_idle_windows_between_changes(self):
        # A change in window 0 and one in window 3; windows 1-2 idle.
        means = self._means([(5.0, 2.0), (35.0, 0.0)], 4)
        assert means == [1.0, 2.0, 2.0, 1.0]

    def test_matches_time_weighted_mean_exactly(self):
        samples = [(0.3, 1.0), (1.7, 3.0), (1.7, 2.0), (9.9, 5.0),
                   (10.0, 0.0), (14.2, 7.0), (31.1, 1.0)]
        level = TimeSeries()
        for time, value in samples:
            level.record(time, value)
        means = self._means(samples, 4)
        assert means == [level.time_weighted_mean(k * 10.0, (k + 1) * 10.0)
                         for k in range(4)]
