"""Pytest integration for the analysis subsystem.

Registered from the repository-root ``conftest.py``.  Provides:

* ``@pytest.mark.determinism`` — the marked test is executed twice;
  the event traces the DES kernel emitted during each execution are
  compared and any divergence fails the test with the first differing
  event.  The test body must be self-contained (build its own
  :class:`~repro.sim.engine.Simulator`), which every kernel-driving
  test in this suite already is.
* ``@pytest.mark.tiebreak_shuffle`` — the marked test is executed
  again under seeded random permutations of every same-timestamp event
  batch (``tiebreak_shuffle(runs=N, seed=S)``; default 3 runs).  A
  test that passes under FIFO order but fails under a shuffle depends
  on the kernel tie-break — exactly the dependence the sharded
  parallel runner is not allowed to see.  Like ``determinism``,
  the body must build its own simulator.

  Each execution of a marked test is a full setup/call/teardown cycle,
  so every run gets fresh function-scoped fixtures (an empty
  ``capsys``, a new ``tmp_path``).  The first execution that fails (or
  skips) is the one reported; otherwise the last one is.
* ``protocol_monitor`` fixture — a recording
  :class:`~repro.analysis.conformance.ProtocolChecker` that fails the
  test at teardown if any observed command violated the three-phase
  addressing protocol.  Pass it as the ``monitor`` of a
  :class:`~repro.controller.PramSubsystem`.
* ``race_sanitizer`` fixture — an ambient
  :class:`~repro.analysis.racecheck.RaceSanitizer`; ``watch()`` the
  shared objects inside the test and the test fails at teardown if any
  same-timestamp W/W or R/W race was observed.
"""

from __future__ import annotations

import contextlib
import functools
import typing

import pytest
from _pytest.runner import runtestprotocol

from repro.analysis.conformance import ProtocolChecker
from repro.analysis.determinism import DeterminismError, capture_trace, diff_traces
from repro.analysis.racecheck import RaceSanitizer, format_races
from repro.sim.hooks import use_hooks
from repro.sim.sanitizer import use_tiebreak


def pytest_configure(config: typing.Any) -> None:
    config.addinivalue_line(
        "markers",
        "determinism: run the test twice and fail on any divergence "
        "between the two kernel event traces",
    )
    config.addinivalue_line(
        "markers",
        "tiebreak_shuffle(runs=3, seed=0): re-run the test under seeded "
        "permutations of every same-timestamp event batch; a failure "
        "means the test depends on the kernel's FIFO tie-break order",
    )


#: What one execution of a marked test calls its body in.
_Context = typing.Callable[[], typing.ContextManager[None]]

#: The context of the execution under way.
_EXECUTION = pytest.StashKey[_Context]()


def _executions(item: typing.Any) -> typing.List[_Context]:
    """One call context per execution of ``item`` (none if unmarked)."""
    determinism = item.get_closest_marker("determinism")
    shuffle = item.get_closest_marker("tiebreak_shuffle")
    executions: typing.List[_Context] = []
    if determinism is not None:
        traces: typing.List[typing.Any] = []

        @contextlib.contextmanager
        def traced() -> typing.Iterator[None]:
            with capture_trace() as trace:
                yield
            traces.append(trace)
            if len(traces) == 2:
                problem = diff_traces(*traces)
                if problem is not None:
                    raise DeterminismError(
                        f"{item.nodeid} is nondeterministic: {problem}")

        executions += [traced, traced]
    elif shuffle is not None:
        executions.append(contextlib.nullcontext)  # the FIFO-order run
    if shuffle is not None:
        runs = int(shuffle.kwargs.get("runs", 3))
        base_seed = int(shuffle.kwargs.get("seed", 0))
        executions += [functools.partial(_shuffled, item, base_seed + offset + 1)
                       for offset in range(runs)]
    return executions


@contextlib.contextmanager
def _shuffled(item: typing.Any, seed: int) -> typing.Iterator[None]:
    try:
        with use_tiebreak(seed):
            yield
    except Exception as exc:
        raise AssertionError(
            f"{item.nodeid} passes under FIFO tie-break order but "
            f"fails under same-timestamp shuffle seed {seed}: the "
            "test (or the code it drives) depends on the kernel "
            f"tie-break — {exc!r}") from exc


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_protocol(item: typing.Any,
                            nextitem: typing.Any) -> typing.Optional[bool]:
    executions = _executions(item)
    if not executions:
        return None
    item.ihook.pytest_runtest_logstart(nodeid=item.nodeid,
                                       location=item.location)
    reports: typing.List[typing.Any] = []
    try:
        for execution in executions:
            item.stash[_EXECUTION] = execution
            reports = runtestprotocol(item, log=False, nextitem=nextitem)
            if not all(report.passed for report in reports):
                break  # failed or skipped: report this execution
    finally:
        del item.stash[_EXECUTION]
    for report in reports:
        item.ihook.pytest_runtest_logreport(report=report)
    item.ihook.pytest_runtest_logfinish(nodeid=item.nodeid,
                                        location=item.location)
    return True


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item: typing.Any
                        ) -> typing.Generator[None, None, None]:
    with item.stash.get(_EXECUTION, contextlib.nullcontext)():
        return (yield)


@pytest.fixture
def protocol_monitor() -> typing.Iterator[ProtocolChecker]:
    """Recording conformance checker that fails the test on violations."""
    checker = ProtocolChecker(strict=False, record=True)
    yield checker
    if not checker.ok:
        details = "\n".join(str(v) for v in checker.violations)
        pytest.fail(
            f"LPDDR2-NVM protocol violations observed:\n{details}")


@pytest.fixture
def race_sanitizer() -> typing.Iterator[RaceSanitizer]:
    """Ambient happens-before sanitizer; fails the test on races."""
    sanitizer = RaceSanitizer()
    with use_hooks(sanitizer):
        yield sanitizer
    sanitizer.stop()
    races = sanitizer.races()
    if races:
        pytest.fail(
            "same-timestamp races observed:\n" + format_races(races))
