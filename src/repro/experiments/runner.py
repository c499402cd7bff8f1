"""Shared experiment configuration and execution matrix.

Telemetry is ambient: run any of this (``run_matrix`` included) inside
``Telemetry().activate()`` — or pass ``--trace``/``--metrics`` to the
CLI — and every simulator, channel, PE and link built during the runs
records into the active tracer/registry; no extra plumbing here.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import dataclasses
import os
import typing

from repro.accel import AcceleratorConfig
from repro.controller.request import reset_request_ids
from repro.systems import SystemConfig, build_system
from repro.systems.base import ExecutionResult
from repro.workloads import all_workloads, generate_traces, workload
from repro.workloads.trace import TraceBundle

if typing.TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.faults.plan import FaultConfig
    from repro.service.config import ServiceConfig

#: The 15 evaluated workloads in the figures' plotting order.
EVAL_WORKLOADS: typing.Tuple[str, ...] = tuple(
    spec.name for spec in all_workloads())


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Evaluation knobs shared by every experiment.

    The default scale (0.25 of the reference footprints) with shrunken
    caches keeps footprint >> cache — the regime the paper's >10x
    inflated volumes created — while keeping simulation minutes-scale.
    """

    scale: float = 0.25
    seed: int = 1
    agents: int = 7
    dram_fraction: float = 0.4
    l1_bytes: int = 2 * 1024
    l2_bytes: int = 16 * 1024
    workloads: typing.Tuple[str, ...] = EVAL_WORKLOADS
    #: Optional ``--faults`` plan spec (``key=value,...``); None runs
    #: fault-free.  Kept as the raw string so the config stays
    #: trivially hashable for the parallel runner's cache key.
    faults: typing.Optional[str] = None
    #: Optional ``--service`` plan spec (``key=value,...``); None lets
    #: the service experiments use their built-in default plan.  Kept
    #: as the raw string (like ``faults``) so the config stays
    #: trivially hashable — and, because the parallel runner keys its
    #: cache on ``dataclasses.asdict(config)``, two runs with
    #: different service plans (or seeds) can never replay each
    #: other's cached cells.
    service: typing.Optional[str] = None

    def system_config(self) -> SystemConfig:
        """SystemConfig this experiment runs under."""
        return SystemConfig(
            accelerator=AcceleratorConfig(l1_bytes=self.l1_bytes,
                                          l2_bytes=self.l2_bytes),
            dram_fraction=self.dram_fraction,
            faults=self.fault_config())

    def fault_config(self) -> typing.Optional["FaultConfig"]:
        """Parsed fault plan, or None when running fault-free."""
        if self.faults is None:
            return None
        from repro.faults.plan import FaultConfig
        return FaultConfig.parse(self.faults)

    def service_config(self) -> typing.Optional["ServiceConfig"]:
        """Parsed service plan, or None when no ``--service`` given."""
        if self.service is None:
            return None
        from repro.service.config import ServiceConfig
        return ServiceConfig.parse(self.service)

    def bundle(self, name: str,
               rounds: int | None = None) -> TraceBundle:
        """Deterministic trace bundle for one workload."""
        return generate_traces(workload(name), agents=self.agents,
                               scale=self.scale, seed=self.seed,
                               rounds=rounds)


#: Fast configuration for unit tests of the experiment modules.
QUICK = ExperimentConfig(scale=0.05, agents=3,
                         workloads=("gemver", "doitg"))


def require_cells(workloads: typing.Sequence[str],
                  systems: typing.Sequence[str]) -> None:
    """Reject an empty execution matrix, naming the offending axis.

    An empty axis would silently produce an empty matrix (and empty
    figures downstream); fail loudly with the matrix key instead.
    """
    if not workloads:
        raise ValueError(
            "run_matrix: empty cell list on matrix key 'workloads' — "
            "nothing to run")
    if not systems:
        raise ValueError(
            "run_matrix: empty cell list on matrix key 'systems' — "
            "nothing to run")


#: ``matrix[workload][system] -> ExecutionResult``.
Matrix = typing.Dict[str, typing.Dict[str, ExecutionResult]]


def run_matrix(config: ExperimentConfig,
               systems: typing.Sequence[str],
               workloads: typing.Sequence[str] | None = None,
               *,
               jobs: int = 1,
               cache_dir: typing.Union[str, "os.PathLike[str]", None] = None,
               ) -> Matrix:
    """Run every (workload, system) pair.

    Returns ``matrix[workload][system] -> ExecutionResult``.

    ``jobs`` > 1 shards the cells across a process pool and merges the
    per-cell results and telemetry deterministically (cell-key order,
    so the output is identical to a serial run); ``cache_dir`` enables
    the content-addressed result cache so unchanged cells are replayed
    instead of re-simulated.  Both paths live in
    :mod:`repro.experiments.parallel`.

    Inside :func:`shared_cells` (one CLI invocation) cells already
    simulated are reused, and the misses are filled with the memo's
    ``jobs``/``cache_dir`` instead of the arguments.
    """
    chosen = tuple(workloads) if workloads is not None else config.workloads
    require_cells(chosen, systems)
    cells = [(workload_name, system_name)
             for workload_name in chosen for system_name in systems]
    memo = _MEMO.get()
    if memo is not None:
        return memo.matrix(config, cells)
    return simulate_cells(config, cells, jobs=jobs, cache_dir=cache_dir)


def simulate_cells(config: ExperimentConfig,
                   cells: typing.Sequence[typing.Tuple[str, str]],
                   *,
                   jobs: int = 1,
                   cache_dir: typing.Union[str, "os.PathLike[str]",
                                           None] = None,
                   ) -> Matrix:
    """Simulate (workload, system) ``cells`` in order; no memo.

    Returns the same nested mapping as :func:`run_matrix`, holding just
    these cells.  A trace bundle is generated once per run of
    consecutive cells of one workload.
    """
    if jobs != 1 or cache_dir is not None:
        from repro.experiments import parallel
        return parallel.run_cells_parallel(
            config, cells, jobs=jobs, cache_dir=cache_dir).matrix
    system_config = config.system_config()
    matrix: Matrix = {}
    bundle_name = None
    for workload_name, system_name in cells:
        if workload_name != bundle_name:
            bundle = config.bundle(workload_name)
            bundle_name = workload_name
        # Cell-local request numbering: parallel workers reset at the
        # same boundary, so span ``req`` tags match exactly.
        reset_request_ids()
        system = build_system(system_name, system_config)
        matrix.setdefault(workload_name, {})[system_name] = (
            system.run(bundle))
    return matrix


#: One execution-matrix cell: (config, workload, system).
CellKey = typing.Tuple[ExperimentConfig, str, str]


class CellMemo:
    """The matrix cells one CLI invocation has simulated so far.

    Figs. 15-17 (and fig01's Hetero column) are views of one execution
    matrix.  While a memo is open, :func:`run_matrix` simulates each
    (config, workload, system) cell once and hands the same
    :class:`ExecutionResult` to every later experiment, so a reused
    cell records no second set of spans or metrics.  Misses are filled
    by :func:`simulate_cells` with the invocation's ``jobs`` and
    ``cache_dir``.
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: typing.Union[str, "os.PathLike[str]",
                                         None] = None) -> None:
        self.jobs = jobs
        self.cache_dir = cache_dir
        #: Experiment now running; the cells it fills are credited to it.
        self.experiment = ""
        #: experiment -> cells it filled.
        self.filled: typing.Counter[str] = collections.Counter()
        #: experiment -> {experiment that filled them: cells reused}.
        self.reused: typing.Dict[str, typing.Counter[str]] = {}
        self._cells: typing.Dict[CellKey,
                                 typing.Tuple[ExecutionResult, str]] = {}

    def matrix(self, config: ExperimentConfig,
               cells: typing.Sequence[typing.Tuple[str, str]]) -> Matrix:
        """``cells`` as a matrix, simulating only the ones not seen yet."""
        missing = [cell for cell in dict.fromkeys(cells)
                   if (config, *cell) not in self._cells]
        if missing:
            filled = simulate_cells(config, missing, jobs=self.jobs,
                                    cache_dir=self.cache_dir)
            for workload_name, system_name in missing:
                self._cells[(config, workload_name, system_name)] = (
                    filled[workload_name][system_name], self.experiment)
            self.filled[self.experiment] += len(missing)
        fresh = set(missing)
        matrix: Matrix = {}
        for workload_name, system_name in cells:
            result, source = self._cells[(config, workload_name,
                                          system_name)]
            if (workload_name, system_name) not in fresh:
                self.reused.setdefault(
                    self.experiment, collections.Counter())[source] += 1
            matrix.setdefault(workload_name, {})[system_name] = result
        return matrix


_MEMO: contextvars.ContextVar[typing.Optional[CellMemo]] = (
    contextvars.ContextVar("repro_cell_memo", default=None))


@contextlib.contextmanager
def shared_cells(jobs: int = 1,
                 cache_dir: typing.Union[str, "os.PathLike[str]",
                                         None] = None,
                 ) -> typing.Iterator[CellMemo]:
    """Open a :class:`CellMemo` for the extent of one invocation."""
    memo = CellMemo(jobs, cache_dir)
    token = _MEMO.set(memo)
    try:
        yield memo
    finally:
        _MEMO.reset(token)


def format_table(headers: typing.Sequence[str],
                 rows: typing.Sequence[typing.Sequence[object]]) -> str:
    """Render an aligned text table."""
    table = [list(map(_cell, headers))] + [
        list(map(_cell, row)) for row in rows
    ]
    widths = [max(len(row[col]) for row in table)
              for col in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def geometric_mean(values: typing.Sequence[float],
                   key: str = "") -> float:
    """Geometric mean (the figures' "on average" aggregations).

    ``key`` names the matrix row/column being aggregated so an empty
    cell list fails with the offending key, not a bare message.
    """
    if not values:
        raise ValueError(
            f"geometric mean of an empty cell list"
            f"{f' for matrix key {key!r}' if key else ''}")
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean requires positive values")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
