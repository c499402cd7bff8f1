"""One invocation simulates each execution-matrix cell once.

Figs. 15-17 (and fig01's Hetero column) read one matrix; the CLI's
cell memo hands every experiment the cells an earlier one simulated.
"""

import pytest

from repro.experiments import cli, parallel, runner
from repro.systems import SYSTEM_NAMES
from repro.systems.base import AcceleratedSystem

FIGURES = ["fig15", "fig16", "fig17"]
#: Cells in one --quick matrix: 2 workloads x 11 systems.
QUICK_CELLS = len(runner.QUICK.workloads) * len(SYSTEM_NAMES)


@pytest.fixture
def cell_runs(monkeypatch):
    """Count in-process ``AcceleratedSystem.run`` calls."""
    calls = []
    original = AcceleratedSystem.run

    def counted(self, bundle):
        calls.append((self.name, bundle.spec.name))
        return original(self, bundle)

    monkeypatch.setattr(AcceleratedSystem, "run", counted)
    return calls


def _stdout(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


class TestSerialInvocation:
    def test_each_cell_simulated_once(self, cell_runs, capsys):
        _stdout(capsys, [",".join(FIGURES), "--quick"])
        assert len(cell_runs) == QUICK_CELLS
        assert len(set(cell_runs)) == QUICK_CELLS

    def test_reports_match_separate_invocations(self, capsys):
        together = _stdout(capsys, [",".join(FIGURES), "--quick"])
        alone = "".join(_stdout(capsys, [name, "--quick"])
                        for name in FIGURES)
        assert together == alone

    def test_memo_does_not_outlive_the_invocation(self, cell_runs,
                                                  capsys):
        for argv in (["fig15,fig16", "--quick"],
                     ["fig16", "--quick"],
                     ["fig16", "--quick", "--seed", "2"]):
            cell_runs.clear()
            _stdout(capsys, argv)
            assert len(cell_runs) == QUICK_CELLS, argv

    def test_partial_overlap_simulates_only_missing_cells(
            self, cell_runs, capsys):
        # fig01 reads Ideal-resident and Hetero; after fig15 only the
        # Ideal-resident column is new.
        together = _stdout(capsys, ["fig15,fig01", "--quick"])
        workloads = len(runner.QUICK.workloads)
        assert len(cell_runs) == QUICK_CELLS + workloads
        assert together == "".join(
            _stdout(capsys, [name, "--quick"])
            for name in ("fig15", "fig01"))

    def test_profile_names_the_experiment_that_simulated(self, capsys):
        out = _stdout(capsys, ["fig15,fig16,fig01", "--quick",
                               "--profile"])
        assert "profile: fig15\n" in out
        assert (f"profile: fig16: all {QUICK_CELLS} matrix cells "
                f"reused from fig15 (profiled there)") in out
        # fig01 simulated its Ideal-resident column itself.
        assert "profile: fig01\n" in out
        assert (f"{len(runner.QUICK.workloads)} matrix cell(s) reused "
                f"from fig15 (profiled there)") in out

    def test_report_shows_the_reuse_line_not_empty_tables(self, tmp_path,
                                                          capsys):
        report = tmp_path / "profile.html"
        _stdout(capsys, ["fig15,fig16,fig01", "--quick",
                         "--report", str(report)])
        page = report.read_text(encoding="utf-8")
        fig16 = page[page.index("<h2>fig16</h2>"):page.index("<h2>fig01</h2>")]
        assert (f"all {QUICK_CELLS} matrix cells reused from fig15 "
                f"(profiled there)") in fig16
        assert "<table" not in fig16
        assert "0 requests" not in fig16
        fig01 = page[page.index("<h2>fig01</h2>"):]
        assert (f"{len(runner.QUICK.workloads)} matrix cell(s) reused "
                f"from fig15 (profiled there)") in fig01
        assert "<table" in fig01


class TestOutsideAnInvocation:
    def test_run_matrix_simulates_every_call(self, cell_runs):
        systems = ("Hetero", "DRAM-less")
        runner.run_matrix(runner.QUICK, systems)
        runner.run_matrix(runner.QUICK, systems)
        assert len(cell_runs) == 2 * len(runner.QUICK.workloads) * 2

    def test_memo_keys_on_config(self, cell_runs):
        systems = ("Hetero",)
        other = runner.ExperimentConfig(
            scale=runner.QUICK.scale, seed=2, agents=runner.QUICK.agents,
            workloads=runner.QUICK.workloads)
        with runner.shared_cells() as memo:
            memo.experiment = "a"
            first = runner.run_matrix(runner.QUICK, systems)
            memo.experiment = "b"
            again = runner.run_matrix(runner.QUICK, systems)
            runner.run_matrix(other, systems)
        workloads = len(runner.QUICK.workloads)
        assert len(cell_runs) == 2 * workloads
        assert again == first
        assert memo.filled == {"a": workloads, "b": workloads}
        assert memo.reused == {"b": {"a": workloads}}


class TestShardedInvocation:
    @pytest.fixture
    def cell_stats(self, monkeypatch):
        """RunStats of every sharded batch the invocation executes."""
        stats = []
        original = parallel._execute_cells

        def recorded(*args, **kwargs):
            outcomes, run_stats = original(*args, **kwargs)
            stats.append(run_stats)
            return outcomes, run_stats

        monkeypatch.setattr(parallel, "_execute_cells", recorded)
        return stats

    def test_cold_then_warm_cache(self, tmp_path, cell_stats, capsys,
                                  monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "0000test")
        monkeypatch.setenv("REPRO_TIMESTAMP", "2026-01-01T00:00:00")
        argv = [",".join(FIGURES), "--quick"]
        serial = _stdout(capsys, argv + ["--results",
                                         str(tmp_path / "serial")])
        cache = ["--jobs", "2", "--cache", str(tmp_path / "cache")]
        runs = {}
        for label in ("cold", "warm"):
            cell_stats.clear()
            out = _stdout(capsys, argv + cache + [
                "--results", str(tmp_path / label)])
            assert out.replace(f"{tmp_path}/{label}",
                               f"{tmp_path}/serial") == serial
            runs[label] = (sum(s.simulated for s in cell_stats),
                           sum(s.cached for s in cell_stats))
        assert runs == {"cold": (QUICK_CELLS, 0),
                        "warm": (0, QUICK_CELLS)}
        for name in ("fig15_bandwidth", "fig16_exec_time",
                     "fig17_energy"):
            expected = (tmp_path / "serial" / f"{name}.txt").read_bytes()
            for label in ("cold", "warm"):
                assert (tmp_path / label / f"{name}.txt").read_bytes() \
                    == expected
