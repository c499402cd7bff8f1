"""The determinism/tie-break markers run each execution with fresh fixtures."""

import pytest

_CONFTEST = 'pytest_plugins = ("repro.analysis.pytest_plugin",)\n'


@pytest.fixture
def inner(pytester):
    pytester.makeconftest(_CONFTEST)
    return pytester


def _run(pytester):
    return pytester.runpytest_inprocess("-p", "no:cacheprovider",
                                        "-W", "error")


def test_rerun_gets_its_own_capsys(inner):
    inner.makepyfile("""
        import pytest

        @pytest.mark.determinism
        def test_prints(capsys):
            print("hello")
            assert capsys.readouterr().out == "hello\\n"
        """)
    _run(inner).assert_outcomes(passed=1)


def test_rerun_gets_its_own_tmp_path(inner):
    inner.makepyfile("""
        import pytest

        @pytest.mark.determinism
        def test_writes(tmp_path):
            assert not (tmp_path / "x").exists()
            (tmp_path / "x").write_text("x")
        """)
    _run(inner).assert_outcomes(passed=1)


def test_every_execution_sets_up_and_tears_down(inner):
    inner.makepyfile("""
        import pytest

        LOG = []

        @pytest.fixture
        def probe():
            LOG.append("setup")
            yield
            LOG.append("teardown")

        @pytest.mark.determinism
        @pytest.mark.tiebreak_shuffle(runs=2)
        def test_marked(probe):
            pass

        def test_log():
            assert LOG == ["setup", "teardown"] * 4
        """)
    _run(inner).assert_outcomes(passed=2)


def test_divergent_traces_still_fail(inner):
    inner.makepyfile("""
        import pytest
        from repro.sim import Simulator

        RUNS = []

        @pytest.mark.determinism
        def test_drifts():
            RUNS.append(None)
            sim = Simulator()

            def body():
                yield sim.timeout(float(len(RUNS)))

            sim.process(body())
            sim.run()
        """)
    result = _run(inner)
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*test_drifts is nondeterministic*"])
    result.stdout.no_fnmatch_line("*PluggyTeardownRaisedWarning*")


def test_shuffle_failure_names_the_seed(inner):
    inner.makepyfile("""
        import pytest
        from repro.sim.sanitizer import current_tiebreak_seed

        @pytest.mark.tiebreak_shuffle(runs=1, seed=4)
        def test_order_dependent():
            assert current_tiebreak_seed() is None
        """)
    result = _run(inner)
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*shuffle seed 5*"])
