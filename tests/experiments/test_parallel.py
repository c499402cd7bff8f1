"""Tests for the process-parallel experiment runner and result cache."""

import dataclasses
import json

import pytest

from repro.experiments import parallel, runner
from repro.experiments.cli import main
from repro.telemetry import SamplingConfig, Telemetry, TelemetrySpec
from repro.telemetry.tracer import RecordingTracer, use_tracer

#: Two workloads x two systems: enough cells for a jobs=4 sharding.
SYSTEMS = ("Hetero", "DRAM-less")

#: One cache-key capture per instrument turned on (and "none").
CAPTURES = {
    "none": TelemetrySpec(),
    "metrics": TelemetrySpec(metrics=True),
    "spans": TelemetrySpec(spans=True),
    "kernel_events": TelemetrySpec(spans=True, kernel_events=True),
    "sampling": TelemetrySpec(metrics=True, sampling=500.0),
    "rewindowed": TelemetrySpec(metrics=True, sampling=250.0),
    "hostprof": TelemetrySpec(hostprof=True),
}


def _canon(obj):
    """Content view of an ExecutionResult tree (cross-process objects
    never compare equal by identity)."""
    if hasattr(obj, "as_dict"):
        return _canon(obj.as_dict())
    if hasattr(obj, "times") and hasattr(obj, "values"):
        return (list(obj.times), list(obj.values))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _canon(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _canon(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(value) for value in obj]
    if hasattr(obj, "__dict__"):
        return {key: _canon(value) for key, value in vars(obj).items()}
    return obj


class TestParallelEquivalence:
    @pytest.mark.determinism
    def test_matrix_results_metrics_and_spans_match_serial(self):
        def snapshot(jobs):
            telemetry = Telemetry(record_spans=True)
            with telemetry.activate():
                matrix = runner.run_matrix(runner.QUICK, SYSTEMS, jobs=jobs)
            spans = [dataclasses.astuple(span)
                     for span in telemetry.tracer.spans]
            return matrix, telemetry.summary(), spans

        serial_matrix, serial_summary, serial_spans = snapshot(1)
        sharded_matrix, sharded_summary, sharded_spans = snapshot(4)
        assert sharded_summary == serial_summary
        assert sharded_spans == serial_spans
        for workload in serial_matrix:
            for system in serial_matrix[workload]:
                assert (_canon(sharded_matrix[workload][system])
                        == _canon(serial_matrix[workload][system]))

    @pytest.mark.determinism
    def test_sampled_timeseries_match_serial_byte_for_byte(self):
        # Windowed samples land in ordinary registry series, so the
        # fragments merge reassembles a sharded run's timeseries —
        # and its sketches — bit-for-bit.
        def document(jobs):
            telemetry = Telemetry(
                record_spans=False,
                timeseries=SamplingConfig(window_ns=500.0))
            with telemetry.activate():
                runner.run_matrix(runner.QUICK, SYSTEMS, jobs=jobs)
            return json.dumps(telemetry.timeseries_document(),
                              sort_keys=True)

        serial = document(1)
        assert document(2) == serial
        assert '"sketches"' in serial

    @pytest.mark.determinism
    def test_sharded_cells_keep_kernel_events(self):
        # Workers mirror the parent's tracer, kernel-event flag included.
        def events(jobs):
            tracer = RecordingTracer(record_kernel_events=True)
            with use_tracer(tracer):
                runner.run_matrix(runner.QUICK, ("Hetero",),
                                  workloads=("gemver",), jobs=jobs)
            return tracer.kernel_events

        serial = events(1)
        assert serial
        assert events(2) == serial

    def test_cli_sharded_telemetry_matches_serial(self, tmp_path, capsys):
        def run(label, *extra):
            spans = tmp_path / f"{label}.jsonl"
            flame = tmp_path / f"{label}.collapsed"
            assert main(["tables,fig12,fig15", "--quick", "--metrics",
                         "--profile", "--spans", str(spans),
                         "--hostprof", str(flame), *extra]) == 0
            # Output paths and host times legitimately differ; of the
            # host-profile summary only the census line must match.
            body, _, host = capsys.readouterr().out.partition(
                "\nhost profile:")
            stdout = [line for line in body.splitlines()
                      if str(tmp_path) not in line]
            census = [line for line in host.splitlines()
                      if line.startswith("  census:")]
            return spans.read_bytes(), stdout, census

        serial = run("serial")
        sharded = run("sharded", "--jobs", "2")
        assert sharded[0] == serial[0]
        assert sharded[1] == serial[1]
        assert len(serial[2]) == 1 and " 0 dispatches" not in serial[2][0]
        assert sharded[2] == serial[2]

    @pytest.mark.determinism
    def test_cli_results_are_byte_identical(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("REPRO_GIT_SHA", "0000test")
        monkeypatch.setenv("REPRO_TIMESTAMP", "2026-01-01T00:00:00")
        serial_dir = tmp_path / "serial"
        sharded_dir = tmp_path / "sharded"
        assert main(["tables,fig12", "--quick",
                     "--results", str(serial_dir)]) == 0
        assert main(["tables,fig12", "--quick", "--jobs", "4",
                     "--results", str(sharded_dir)]) == 0
        capsys.readouterr()
        serial_files = sorted(path.name
                              for path in serial_dir.iterdir())
        assert serial_files == ["fig12_interleaving.txt", "table1.txt"]
        for name in serial_files:
            assert ((sharded_dir / name).read_bytes()
                    == (serial_dir / name).read_bytes())


class TestResultCache:
    def test_second_run_performs_zero_simulations(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = parallel.run_matrix_parallel(
            runner.QUICK, SYSTEMS, jobs=1, cache_dir=cache_dir)
        assert first.stats.simulated == len(runner.QUICK.workloads) * len(
            SYSTEMS)
        assert first.stats.cached == 0
        second = parallel.run_matrix_parallel(
            runner.QUICK, SYSTEMS, jobs=1, cache_dir=cache_dir)
        assert second.stats.simulated == 0
        assert second.stats.cached == first.stats.simulated
        for workload in first.matrix:
            for system in first.matrix[workload]:
                assert (_canon(second.matrix[workload][system])
                        == _canon(first.matrix[workload][system]))

    def test_key_depends_on_config(self):
        tree = "t" * 64
        none = TelemetrySpec()
        quick = parallel.cell_key("matrix/gemver/Hetero", runner.QUICK,
                                  none, tree)
        other = dataclasses.replace(runner.QUICK, seed=2)
        assert parallel.cell_key("matrix/gemver/Hetero", other,
                                 none, tree) != quick
        assert parallel.cell_key("matrix/gemver/DRAM-less", runner.QUICK,
                                 none, tree) != quick

    @pytest.mark.parametrize("instrument",
                             [name for name in CAPTURES if name != "none"])
    def test_key_depends_on_instrument(self, instrument):
        # A rerun under other instruments must never replay a cell
        # whose fragment lacks (or carries) some instrument's payload.
        tree = "t" * 64
        keys = {name: parallel.cell_key("matrix/gemver/Hetero",
                                        runner.QUICK, capture, tree)
                for name, capture in CAPTURES.items()}
        assert list(keys.values()).count(keys[instrument]) == 1

    def test_key_depends_on_source_tree(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        before = parallel.source_tree_digest(tmp_path)
        assert parallel.source_tree_digest(tmp_path) == before  # memoized
        parallel._TREE_DIGESTS.clear()
        (tmp_path / "a.py").write_text("x = 2\n")
        after = parallel.source_tree_digest(tmp_path)
        parallel._TREE_DIGESTS.clear()
        assert after != before

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        cache = parallel.ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_cached_telemetry_replays(self, tmp_path):
        def summary(cache_dir):
            telemetry = Telemetry()
            with telemetry.activate():
                run = parallel.run_matrix_parallel(
                    runner.QUICK, SYSTEMS[:1], workloads=("gemver",),
                    jobs=1, cache_dir=cache_dir)
            return telemetry.summary(), run.stats
        first_summary, first_stats = summary(tmp_path / "cache")
        second_summary, second_stats = summary(tmp_path / "cache")
        assert first_stats.simulated == 1
        assert second_stats.cached == 1
        assert second_summary == first_summary


class TestValidation:
    def test_empty_workloads_names_matrix_key(self):
        with pytest.raises(ValueError, match="matrix key 'workloads'"):
            runner.run_matrix(runner.QUICK, SYSTEMS, workloads=())

    def test_empty_systems_names_matrix_key(self):
        with pytest.raises(ValueError, match="matrix key 'systems'"):
            runner.run_matrix(runner.QUICK, ())

    def test_geometric_mean_empty_names_key(self):
        with pytest.raises(ValueError, match="'speedup.gemver'"):
            runner.geometric_mean([], key="speedup.gemver")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            runner.run_matrix(runner.QUICK, SYSTEMS, jobs=0)

    def test_cli_rejects_bad_jobs(self, capsys):
        assert main(["fig12", "--quick", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
