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

Telemetry crosses the process boundary as *fragments*
(:mod:`repro.telemetry.fragments`): each worker runs under a fresh
tracer/registry, captures the record, and the parent replays the
fragments into its ambient telemetry in cell-key order — reproducing
the serial run's ``#N`` prefix assignments and shared-counter totals
exactly.
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
from repro.sim.hostprof import current_hostprof, use_hostprof
from repro.sim.sampling import current_sampling, use_sampling
from repro.systems import build_system
from repro.systems.base import ExecutionResult
from repro.telemetry.bench import collect_provenance
from repro.telemetry.fragments import (
    HostProfFragment,
    MetricsFragment,
    TracerFragment,
    capture_hostprof,
    capture_metrics,
    capture_tracer,
    merge_hostprof,
    merge_metrics,
    merge_tracer,
)
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.metrics import (
    MetricsRegistry,
    current_metrics,
    use_metrics,
)
from repro.telemetry.timeseries import SamplingConfig
from repro.telemetry.tracer import (
    RecordingTracer,
    current_tracer,
    use_tracer,
)

#: Bumped whenever the cached payload layout changes; part of every key.
#: 2: capture tuple gained the time-series sampling spec.
#: 3: capture tuple + CellOutcome gained the host-profiling fragment.
CACHE_SCHEMA = 3

#: What telemetry a cell must capture: ``(metrics, spans, sampling,
#: hostprof)`` where sampling is ``None`` or ``(window_ns, retention)``.
#: Part of the cache key — a sampled (or host-profiled) rerun never
#: reuses an entry captured under different instrumentation.
CaptureSpec = typing.Tuple[
    bool, bool,
    typing.Optional[typing.Tuple[float, typing.Optional[int]]],
    bool]

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
             capture: CaptureSpec,
             tree_digest: typing.Union[str, None] = None) -> str:
    """Content-addressed key for one experiment cell.

    ``experiment`` is the cell id (``"matrix/<workload>/<system>"`` or
    a figure id); ``capture`` records whether metrics/span fragments
    were requested plus the time-series sampling spec, so a
    telemetry-bearing (or sampled) rerun never reuses an entry captured
    under different instrumentation.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "experiment": experiment,
        "config": _config_payload(config),
        "capture": list(capture),
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
    metrics: typing.Union[MetricsFragment, None]
    tracer: typing.Union[TracerFragment, None]
    hostprof: typing.Union[HostProfFragment, None] = None


@contextlib.contextmanager
def _fresh_telemetry(capture: CaptureSpec) -> typing.Iterator[
        typing.Tuple[typing.Union[MetricsRegistry, None],
                     typing.Union[RecordingTracer, None],
                     typing.Union[HostProfiler, None]]]:
    """Fresh ambient registry/tracer/host profiler for one cell."""
    want_metrics, want_spans, sampling, want_hostprof = capture
    registry = MetricsRegistry() if want_metrics else None
    tracer = RecordingTracer() if want_spans else None
    profiler = HostProfiler() if want_hostprof else None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        if registry is not None:
            stack.enter_context(use_metrics(registry))
            if sampling is not None:
                # Same window/retention the parent sampled with, so the
                # worker's windowed series merge byte-identically.
                stack.enter_context(use_sampling(SamplingConfig(*sampling)))
        if profiler is not None:
            stack.enter_context(use_hostprof(profiler))
        yield registry, tracer, profiler


def _finish_cell(payload: typing.Any,
                 registry: typing.Union[MetricsRegistry, None],
                 tracer: typing.Union[RecordingTracer, None],
                 profiler: typing.Union[HostProfiler, None] = None
                 ) -> CellOutcome:
    return CellOutcome(
        payload=payload,
        metrics=capture_metrics(registry) if registry is not None else None,
        tracer=capture_tracer(tracer) if tracer is not None else None,
        hostprof=(capture_hostprof(profiler)
                  if profiler is not None else None))


def _run_matrix_cell(config: runner.ExperimentConfig, workload: str,
                     system: str,
                     capture: CaptureSpec) -> CellOutcome:
    """Worker: one (workload, system) cell under fresh telemetry."""
    with _fresh_telemetry(capture) as (registry, tracer, profiler):
        reset_request_ids()
        bundle = config.bundle(workload)
        result = build_system(system, config.system_config()).run(bundle)
    return _finish_cell(result, registry, tracer, profiler)


def _run_experiment_cell(name: str, config: runner.ExperimentConfig,
                         capture: CaptureSpec) -> CellOutcome:
    """Worker: one whole experiment under fresh telemetry.

    The experiment registry lives in the CLI module; importing it here
    (not at module scope) keeps the worker picklable and avoids an
    import cycle.
    """
    from repro.experiments.cli import EXPERIMENTS
    _, run_fn = EXPERIMENTS[name]
    with _fresh_telemetry(capture) as (registry, tracer, profiler):
        reset_request_ids()
        if tracer is not None:
            with tracer.scope(name):
                report = run_fn(config)
        else:
            report = run_fn(config)
    return _finish_cell(report, registry, tracer, profiler)


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
    """Ordered experiment reports plus run stats."""

    reports: "typing.Dict[str, str]"  # experiment id -> report text
    stats: RunStats
    #: Per-experiment raw outcomes (reports + telemetry fragments), in
    #: experiment order — for callers doing their own staged merge.
    outcomes: "typing.Dict[str, CellOutcome]" = dataclasses.field(
        default_factory=dict)


def _execute_cells(
        cells: typing.Sequence[typing.Tuple[str, typing.Any]],
        worker: typing.Callable[..., CellOutcome],
        jobs: int,
        cache: typing.Union[ResultCache, None],
        keys: typing.Union[typing.Sequence[str], None],
        capture: CaptureSpec,
) -> typing.Tuple[typing.List[CellOutcome], RunStats]:
    """Run ``cells`` (id, worker-args) and return outcomes **in cell
    order** regardless of completion order; cache when enabled.

    This is the determinism pivot: submission fans out, but merging
    walks ``cells`` front to back, so telemetry replay and result
    assembly see the serial order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    stats = RunStats()
    outcomes: typing.List[typing.Union[CellOutcome, None]] = [None] * len(
        cells)
    pending: typing.List[int] = []
    for index in range(len(cells)):
        cached = (cache.get(keys[index])
                  if cache is not None and keys is not None else None)
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
        if cache is not None and keys is not None:
            for index in pending:
                cache.put(keys[index],
                          typing.cast(CellOutcome, outcomes[index]))
    return [typing.cast(CellOutcome, outcome)
            for outcome in outcomes], stats


def merge_outcome(outcome: CellOutcome,
                  registry: MetricsRegistry,
                  tracer: "typing.Any") -> None:
    """Replay one cell's telemetry fragments into the ambient sinks."""
    if outcome.metrics is not None and registry.enabled:
        merge_metrics(registry, outcome.metrics)
    if outcome.tracer is not None and getattr(tracer, "enabled", False):
        if isinstance(tracer, RecordingTracer):
            merge_tracer(tracer, outcome.tracer)
    if outcome.hostprof is not None:
        ambient = current_hostprof()
        if isinstance(ambient, HostProfiler):
            merge_hostprof(ambient, outcome.hostprof)


def _ambient_capture() -> CaptureSpec:
    provider = current_sampling()
    sampling = (provider.spec()
                if isinstance(provider, SamplingConfig) else None)
    return (current_metrics().enabled,
            isinstance(current_tracer(), RecordingTracer),
            sampling,
            current_hostprof() is not None)


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
    capture = _ambient_capture()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    shards = [(f"matrix/{workload}/{system}", (config, workload, system))
              for workload, system in cells]
    keys = None
    if cache is not None:
        tree = source_tree_digest()
        keys = [cell_key(cell_id, config, capture, tree)
                for cell_id, _ in shards]
    outcomes, stats = _execute_cells(
        shards, _run_matrix_cell, jobs, cache, keys, capture)
    registry = current_metrics()
    tracer = current_tracer()
    matrix: typing.Dict[str, typing.Dict[str, ExecutionResult]] = {}
    for (workload, system), outcome in zip(cells, outcomes):
        merge_outcome(outcome, registry, tracer)
        matrix.setdefault(workload, {})[system] = typing.cast(
            ExecutionResult, outcome.payload)
    return MatrixRun(matrix=matrix, stats=stats)


def run_experiments_parallel(
        names: typing.Sequence[str],
        config: runner.ExperimentConfig,
        *,
        jobs: int = 1,
        cache_dir: typing.Union[str, os.PathLike[str], None] = None,
        merge_into_ambient: bool = True,
) -> ExperimentRun:
    """Run whole experiments as shards (the CLI's ``all --jobs N``).

    Reports come back keyed by experiment id in the order given;
    telemetry fragments merge into the ambient tracer/registry per
    experiment, in experiment order, so ``--metrics``/``--trace``
    output matches a serial ``all`` run.
    """
    if not names:
        raise ValueError("run_experiments_parallel: empty experiment list")
    capture = _ambient_capture()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    cells = [(f"experiment/{name}", (name, config)) for name in names]
    keys = None
    if cache is not None:
        tree = source_tree_digest()
        keys = [cell_key(cell_id, config, capture, tree)
                for cell_id, _ in cells]
    outcomes, stats = _execute_cells(
        cells, _run_experiment_cell, jobs, cache, keys, capture)
    registry = current_metrics()
    tracer = current_tracer()
    reports: typing.Dict[str, str] = {}
    raw: typing.Dict[str, CellOutcome] = {}
    for (_, (name, _)), outcome in zip(cells, outcomes):
        if merge_into_ambient:
            merge_outcome(outcome, registry, tracer)
        reports[name] = typing.cast(str, outcome.payload)
        raw[name] = outcome
    return ExperimentRun(reports=reports, stats=stats, outcomes=raw)


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
