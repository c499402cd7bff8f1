"""Process-parallel experiment execution with content-addressed caching.

The paper's evaluation is a wide sweep — Figs. 12-21 and Table 1
across schedulers, backends, and fifteen polybench workloads — and the
serial ``run_matrix`` pays for every cell on every run.  This module
shards that work:

* :func:`run_matrix_parallel` — executes each (workload, system) cell
  of the execution matrix in a ``ProcessPoolExecutor`` worker and
  merges results **deterministically**: cells are merged in cell-key
  order (workload-major, the serial iteration order), never completion
  order, so the merged matrix, metrics registry, and span stream are
  identical to a serial run's.
* :func:`run_experiments_parallel` — same sharding at experiment
  granularity for ``python -m repro.experiments all --jobs N``.
* :class:`ResultCache` — a content-addressed cache under
  ``.repro-cache/`` keyed by (experiment id, config hash, source-tree
  hash of ``src/repro``).  A cell whose inputs have not changed is
  replayed from the cache — zero simulations — and any source edit
  invalidates everything, so the cache can never serve stale physics.

Telemetry crosses the process boundary as one
:class:`~repro.telemetry.Telemetry` bundle per cell: each worker runs
under a fresh bundle shaped like the parent's ambient instruments
(:meth:`~repro.telemetry.Telemetry.from_spec`), captures each
instrument's payload, and the parent merges the fragments into its
ambient bundle in cell-key order — reproducing the serial run's ``#N``
prefix assignments, span ids, shared-counter totals and host-profile
census exactly.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import platform
import typing

from repro.controller.request import reset_request_ids
from repro.experiments import runner
from repro.systems import build_system
from repro.systems.base import ExecutionResult
from repro.telemetry.bench import collect_provenance
from repro.telemetry.session import Fragment, Telemetry, TelemetrySpec

#: Bumped whenever the cached payload layout changes; part of every key.
#: 2: capture tuple gained the time-series sampling spec.
#: 3: capture tuple + CellOutcome gained the host-profiling fragment.
#: 4: the capture is a TelemetrySpec (kernel events included) and
#:    CellOutcome is ``(payload, fragment)``.
#: 5: the capture's sampling spec is the window width alone.
CACHE_SCHEMA = 5

#: Default cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Canonical ``results/*.txt`` stem for each experiment id.
RESULT_NAMES: typing.Dict[str, str] = {
    "tables": "table1",
    "fig01": "fig01_motivation",
    "fig07": "fig07_firmware",
    "fig12": "fig12_interleaving",
    "fig13": "fig13_schedulers",
    "fig15": "fig15_bandwidth",
    "fig16": "fig16_exec_time",
    "fig17": "fig17_energy",
    "fig18": "fig18_ipc_gemver",
    "fig19": "fig19_ipc_doitg",
    "fig20": "fig20_power_gemver",
    "fig21": "fig21_power_doitg",
    "endurance": "endurance_reliability",
    "overload": "service_overload",
    "burst_absorption": "service_burst_absorption",
    "tenant_isolation": "service_tenant_isolation",
}


# ----------------------------------------------------------------------
# Cache keying
# ----------------------------------------------------------------------
_TREE_DIGESTS: typing.Dict[str, str] = {}


def source_tree_digest(root: typing.Union[str, os.PathLike[str], None]
                       = None) -> str:
    """Content hash of every ``*.py`` under ``src/repro``.

    Any source change — a latency constant, a scheduler tweak —
    produces a new digest and therefore a cold cache: cached results
    can never outlive the code that produced them.  Hashed once per
    process per root.
    """
    if root is None:
        root = pathlib.Path(__file__).resolve().parents[1]
    root = pathlib.Path(root).resolve()
    cached = _TREE_DIGESTS.get(str(root))
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    value = digest.hexdigest()
    _TREE_DIGESTS[str(root)] = value
    return value


def _config_payload(config: runner.ExperimentConfig
                    ) -> typing.Dict[str, typing.Any]:
    payload = dataclasses.asdict(config)
    payload["workloads"] = list(payload["workloads"])
    return payload


def cell_key(experiment: str, config: runner.ExperimentConfig,
             capture: TelemetrySpec,
             tree_digest: typing.Union[str, None] = None) -> str:
    """Content-addressed key for one experiment cell.

    ``experiment`` is the cell id (``"matrix/<workload>/<system>"`` or
    a figure id); ``capture`` names the instruments the cell records,
    so a rerun under different instrumentation never replays an entry
    that lacks (or carries) some instrument's payload.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "experiment": experiment,
        "config": _config_payload(config),
        "capture": capture._asdict(),
        "tree": tree_digest if tree_digest is not None
        else source_tree_digest(),
        "python": platform.python_version(),
    }
    encoded = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode()).hexdigest()


class ResultCache:
    """Pickle store of cell outcomes under ``<root>/<key[:2]>/<key>``."""

    def __init__(self, root: typing.Union[str, os.PathLike[str]]) -> None:
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> typing.Union["CellOutcome", None]:
        """The cached outcome for ``key``, or None (counts hit/miss)."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                outcome = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            # Unreadable or stale-format entries are misses, never
            # errors: the cache must always be safe to delete.
            self.misses += 1
            return None
        self.hits += 1
        return typing.cast("CellOutcome", outcome)

    def put(self, key: str, outcome: "CellOutcome") -> None:
        """Persist ``outcome``; atomic via rename so readers never see
        a torn write."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(temp, "wb") as handle:
            pickle.dump(outcome, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp, path)


# ----------------------------------------------------------------------
# Cell execution (worker side)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CellOutcome:
    """Everything one cell produced, picklable across processes."""

    payload: typing.Any  # ExecutionResult (matrix) or report str
    fragment: Fragment   # Telemetry.capture() of the cell's bundle


def _run_matrix_cell(config: runner.ExperimentConfig, workload: str,
                     system: str, spec: TelemetrySpec) -> CellOutcome:
    """Worker: one (workload, system) cell under a fresh bundle."""
    telemetry = Telemetry.from_spec(spec)
    with telemetry.activate():
        reset_request_ids()
        bundle = config.bundle(workload)
        result = build_system(system, config.system_config()).run(bundle)
    return CellOutcome(result, telemetry.capture())


def _run_experiment_cell(name: str, config: runner.ExperimentConfig,
                         spec: TelemetrySpec) -> CellOutcome:
    """Worker: one whole experiment under a fresh bundle.

    The experiment registry lives in the CLI module; importing it here
    (not at module scope) keeps the worker picklable and avoids an
    import cycle.
    """
    from repro.experiments.cli import EXPERIMENTS
    _, run_fn = EXPERIMENTS[name]
    telemetry = Telemetry.from_spec(spec)
    with contextlib.ExitStack() as stack:
        stack.enter_context(telemetry.activate())
        if telemetry.record_spans:
            stack.enter_context(telemetry.tracer.scope(name))
        reset_request_ids()
        report = run_fn(config)
    return CellOutcome(report, telemetry.capture())


# ----------------------------------------------------------------------
# Sharded execution (parent side)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RunStats:
    """How a sharded run's cells were satisfied."""

    simulated: int = 0
    cached: int = 0

    @property
    def total(self) -> int:
        """All cells the run covered."""
        return self.simulated + self.cached


@dataclasses.dataclass
class MatrixRun:
    """A merged matrix plus the stats of the run that produced it."""

    matrix: typing.Dict[str, typing.Dict[str, ExecutionResult]]
    stats: RunStats


@dataclasses.dataclass
class ExperimentRun:
    """Per-experiment outcomes, in experiment order, plus run stats."""

    outcomes: "typing.Dict[str, CellOutcome]"
    stats: RunStats


def _execute_cells(
        cells: typing.Sequence[typing.Tuple[str, typing.Any]],
        worker: typing.Callable[..., CellOutcome],
        config: runner.ExperimentConfig,
        capture: TelemetrySpec,
        jobs: int,
        cache_dir: typing.Union[str, os.PathLike[str], None],
) -> typing.Tuple[typing.List[CellOutcome], RunStats]:
    """Run ``cells`` (id, worker-args) and return outcomes **in cell
    order** regardless of completion order; cache when ``cache_dir``.

    This is the determinism pivot: submission fans out, but merging
    walks ``cells`` front to back, so telemetry replay and result
    assembly see the serial order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    keys = ([cell_key(cell_id, config, capture, source_tree_digest())
             for cell_id, _ in cells] if cache is not None else [])
    stats = RunStats()
    outcomes: typing.List[typing.Union[CellOutcome, None]] = [None] * len(
        cells)
    pending: typing.List[int] = []
    for index in range(len(cells)):
        cached = cache.get(keys[index]) if cache is not None else None
        if cached is not None:
            outcomes[index] = cached
            stats.cached += 1
        else:
            pending.append(index)
    if pending:
        stats.simulated += len(pending)
        if jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending))) as pool:
                futures = {
                    index: pool.submit(worker, *cells[index][1],
                                       capture)
                    for index in pending
                }
                for index, future in futures.items():
                    outcomes[index] = future.result()
        else:
            for index in pending:
                outcomes[index] = worker(*cells[index][1], capture)
        if cache is not None:
            for index in pending:
                cache.put(keys[index],
                          typing.cast(CellOutcome, outcomes[index]))
    return [typing.cast(CellOutcome, outcome)
            for outcome in outcomes], stats


def run_matrix_parallel(
        config: runner.ExperimentConfig,
        systems: typing.Sequence[str],
        workloads: typing.Sequence[str] | None = None,
        *,
        jobs: int = 1,
        cache_dir: typing.Union[str, os.PathLike[str], None] = None,
) -> MatrixRun:
    """Sharded, cached equivalent of :func:`repro.experiments.runner.
    run_matrix`.

    Returns the same ``matrix[workload][system]`` mapping (inside a
    :class:`MatrixRun` carrying cache stats).  The merged matrix,
    ambient metrics registry, and ambient span stream are identical to
    a serial run's: cells merge in workload-major cell-key order.
    """
    chosen = tuple(workloads) if workloads is not None else config.workloads
    runner.require_cells(chosen, systems)
    return run_cells_parallel(
        config, [(workload, system)
                 for workload in chosen for system in systems],
        jobs=jobs, cache_dir=cache_dir)


def run_cells_parallel(
        config: runner.ExperimentConfig,
        cells: typing.Sequence[typing.Tuple[str, str]],
        *,
        jobs: int = 1,
        cache_dir: typing.Union[str, os.PathLike[str], None] = None,
) -> MatrixRun:
    """Shard an explicit list of (workload, system) cells.

    The invocation's cell memo fills its misses here, so a sharded or
    cached run simulates (or replays) each matrix cell once however
    many figures read it.  Cells merge in list order.
    """
    telemetry = Telemetry.ambient()
    shards = [(f"matrix/{workload}/{system}", (config, workload, system))
              for workload, system in cells]
    outcomes, stats = _execute_cells(shards, _run_matrix_cell, config,
                                     telemetry.spec(), jobs, cache_dir)
    matrix: typing.Dict[str, typing.Dict[str, ExecutionResult]] = {}
    for (workload, system), outcome in zip(cells, outcomes):
        telemetry.merge(outcome.fragment)
        matrix.setdefault(workload, {})[system] = typing.cast(
            ExecutionResult, outcome.payload)
    return MatrixRun(matrix=matrix, stats=stats)


def run_experiments_parallel(
        names: typing.Sequence[str],
        config: runner.ExperimentConfig,
        *,
        jobs: int = 1,
        cache_dir: typing.Union[str, os.PathLike[str], None] = None,
) -> ExperimentRun:
    """Run whole experiments as shards (the CLI's ``all --jobs N``).

    Outcomes (report text + telemetry fragment) come back keyed by
    experiment id in the order given.  Each fragment records what the
    ambient bundle records; the caller merges them
    (``Telemetry.merge``) in experiment order, so ``--metrics``/
    ``--trace`` output matches a serial run.
    """
    if not names:
        raise ValueError("run_experiments_parallel: empty experiment list")
    cells = [(f"experiment/{name}", (name, config)) for name in names]
    outcomes, stats = _execute_cells(cells, _run_experiment_cell, config,
                                     Telemetry.ambient().spec(), jobs,
                                     cache_dir)
    return ExperimentRun(outcomes=dict(zip(names, outcomes)), stats=stats)


# ----------------------------------------------------------------------
# Result files
# ----------------------------------------------------------------------
def write_result(results_dir: typing.Union[str, os.PathLike[str]],
                 stem: str, text: str,
                 config: runner.ExperimentConfig) -> pathlib.Path:
    """Persist one report under the provenance header the benchmark
    suite uses, so CLI- and pytest-produced ``results/*.txt`` are
    interchangeable."""
    directory = pathlib.Path(results_dir)
    directory.mkdir(parents=True, exist_ok=True)
    provenance = collect_provenance(scale=config.scale, seed=config.seed,
                                    agents=config.agents)
    header = "\n".join(
        f"# {key}: {provenance[key]}"
        for key in ("git_sha", "scale", "seed", "agents", "timestamp"))
    path = directory / f"{stem}.txt"
    path.write_text(header + "\n\n" + text + "\n")
    return path
