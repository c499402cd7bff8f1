"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig15 [--scale 0.25] [--quick]
    python -m repro.experiments run all --quick
    python -m repro.experiments all --jobs 4 --cache --results results
    python -m repro.experiments fig12 --trace /tmp/fig12.json --metrics

The ``run`` keyword may be omitted: a first argument that is not a
subcommand is treated as an experiment id (or a comma-separated list,
``fig12,fig13``).  Each experiment prints the same text report the
benchmarks write to ``results/``; ``--results DIR`` also writes the
reports there under the benchmarks' provenance header.

Figures 15-17 (and fig01's Hetero column) read one execution matrix:
within one invocation each matrix cell is simulated once and shared by
every experiment that reads it.

``--jobs N`` shards the chosen experiments across worker processes
(matrix experiments per cell) and merges reports and telemetry back in
experiment order, so the output is identical to a serial run.
``--cache [DIR]`` replays unchanged experiments and matrix cells from
the content-addressed result cache (default ``.repro-cache/``) instead
of re-simulating them.

Telemetry flags (``--trace``, ``--spans``, ``--metrics``) install an
ambient tracer/metrics registry around the chosen experiments and
export the capture afterwards: a Perfetto/Chrome JSON trace (load it
at https://ui.perfetto.dev), a JSON-lines span log consumable by the
``repro.analysis`` conformance checker, and a metrics summary table.
``--timeseries OUT [--window NS]`` additionally samples queue depths
and occupancies into fixed windows of simulated time and exports them
(view with ``python -m repro.telemetry watch OUT``).
``--hostprof OUT`` attributes *host* wall-clock to (component, process,
phase, event-kind) buckets at event-dispatch granularity and exports a
flamegraph: speedscope JSON by default (load at https://speedscope.app
or view with ``python -m repro.telemetry flame OUT``), collapsed-stack
text when OUT ends in ``.collapsed``/``.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import typing

from repro.controller.request import reset_request_ids
from repro.experiments import parallel, runner
from repro.telemetry import (
    DEFAULT_WINDOW_NS,
    Telemetry,
    TelemetrySpec,
    build_profile,
    render_html,
    render_summary,
    render_text,
    write_hostprof,
)
from repro.experiments import (
    fig01_motivation,
    fig07_firmware,
    fig12_interleaving_timing,
    fig13_schedulers,
    fig15_bandwidth,
    fig16_exec_time,
    fig17_energy,
    fig18_19_ipc,
    fig20_21_power,
    reliability,
    service_sweeps,
    tables,
)

#: name -> (description, callable(config) -> report string)
EXPERIMENTS: typing.Dict[str, typing.Tuple[str, typing.Callable]] = {
    "tables": ("Tables I-III: configuration parameters",
               lambda config: tables.report()),
    "fig01": ("Figure 1: conventional vs ideal (perf/energy)",
              lambda config: fig01_motivation.report(
                  fig01_motivation.run(config))),
    "fig07": ("Figure 7: firmware vs oracle controller",
              lambda config: fig07_firmware.report(
                  fig07_firmware.run(config))),
    "fig12": ("Figure 12: interleaving timing overlap",
              lambda config: fig12_interleaving_timing.report(
                  fig12_interleaving_timing.run())),
    "fig13": ("Figure 13: the four subsystem schedulers",
              lambda config: fig13_schedulers.report(
                  fig13_schedulers.run(config))),
    "fig15": ("Figure 15: normalized throughput, ten systems",
              lambda config: fig15_bandwidth.report(
                  fig15_bandwidth.run(config))),
    "fig16": ("Figure 16: execution-time decomposition",
              lambda config: fig16_exec_time.report(
                  fig16_exec_time.run(config))),
    "fig17": ("Figure 17: energy decomposition",
              lambda config: fig17_energy.report(
                  fig17_energy.run(config))),
    "fig18": ("Figure 18: IPC time series, gemver",
              lambda config: fig18_19_ipc.report(
                  fig18_19_ipc.run_figure18(config))),
    "fig19": ("Figure 19: IPC time series, doitg",
              lambda config: fig18_19_ipc.report(
                  fig18_19_ipc.run_figure19(config))),
    "fig20": ("Figure 20: power/energy capture, gemver",
              lambda config: fig20_21_power.report(
                  fig20_21_power.run_figure20(config))),
    "fig21": ("Figure 21: power/energy capture, doitg",
              lambda config: fig20_21_power.report(
                  fig20_21_power.run_figure21(config))),
    "endurance": ("Reliability: bandwidth + error rate vs wear "
                  "(endurance sweep)",
                  lambda config: reliability.report(
                      reliability.run(config))),
    "overload": ("Service: goodput under 0.5x-10x offered load "
                 "(graceful degradation)",
                 lambda config: service_sweeps.report_overload(
                     service_sweeps.run_overload(config))),
    "burst_absorption": ("Service: arrival processes x queue depths "
                         "(burst absorption)",
                         lambda config: service_sweeps.report_burst(
                             service_sweeps.run_burst(config))),
    "tenant_isolation": ("Service: rogue tenant vs per-tenant "
                         "admission queues (SLO isolation)",
                         lambda config: service_sweeps.report_isolation(
                             service_sweeps.run_isolation(config))),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the DRAM-less paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment",
                            help="experiment id (see 'list') or 'all'")
    run_parser.add_argument("--scale", type=float, default=0.25,
                            help="footprint scale factor (default 0.25)")
    run_parser.add_argument("--seed", type=int, default=1,
                            help="trace seed (default 1)")
    run_parser.add_argument("--quick", action="store_true",
                            help="tiny two-workload configuration")
    run_parser.add_argument("--faults", metavar="PLAN", default=None,
                            help="seeded fault-injection plan as "
                                 "key=value,... (e.g. 'seed=7,"
                                 "read_flip=0.001,program_fail=0.01,"
                                 "endurance=64'); default: fault-free")
    run_parser.add_argument("--service", metavar="PLAN", default=None,
                            help="service-layer traffic plan for the "
                                 "overload/burst_absorption/"
                                 "tenant_isolation experiments as "
                                 "key=value,... (e.g. 'seed=3,"
                                 "tenants=12,arrival=mmpp,rate=5e6,"
                                 "deadline=40000'); default: built-in "
                                 "plan")
    run_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="shard the chosen experiments across N "
                                 "worker processes (default 1: serial)")
    run_parser.add_argument("--cache", nargs="?", metavar="DIR",
                            default=None, const=parallel.DEFAULT_CACHE_DIR,
                            help="replay unchanged experiments from the "
                                 "content-addressed result cache "
                                 f"(default dir {parallel.DEFAULT_CACHE_DIR})")
    run_parser.add_argument("--results", metavar="DIR", default=None,
                            help="also write each report to DIR/<name>.txt "
                                 "under a provenance header")
    run_parser.add_argument("--trace", metavar="OUT.json", default=None,
                            help="write a Perfetto/Chrome trace of the "
                                 "run to this file")
    run_parser.add_argument("--spans", metavar="OUT.jsonl", default=None,
                            help="write a JSON-lines span log of the run "
                                 "to this file")
    run_parser.add_argument("--metrics", action="store_true",
                            help="print the metrics summary table after "
                                 "the reports")
    run_parser.add_argument("--timeseries", metavar="OUT", default=None,
                            help="sample windowed time series during the "
                                 "run and export them to OUT (.json, or "
                                 ".csv for long-format rows); view with "
                                 "'python -m repro.telemetry watch OUT'")
    run_parser.add_argument("--window", type=float, metavar="NS",
                            default=DEFAULT_WINDOW_NS,
                            help="sampling window width in simulated ns "
                                 f"(default {DEFAULT_WINDOW_NS:g})")
    run_parser.add_argument("--profile", action="store_true",
                            help="print a latency-attribution and "
                                 "utilization profile per experiment")
    run_parser.add_argument("--report", metavar="OUT.html", default=None,
                            help="write a self-contained HTML profile "
                                 "dashboard to this file")
    run_parser.add_argument("--hostprof", metavar="OUT", default=None,
                            help="profile host wall-clock per (component, "
                                 "process, phase, event-kind) bucket and "
                                 "export a flamegraph to OUT (speedscope "
                                 "JSON; .collapsed/.txt for collapsed "
                                 "stacks); view with 'python -m "
                                 "repro.telemetry flame OUT'")
    return parser


#: argv[0] values that are real subcommands; anything else is treated
#: as an experiment id with an implicit leading "run".
_SUBCOMMANDS = frozenset({"list", "run"})


def normalize_argv(
        argv: typing.Sequence[str]) -> typing.List[str]:
    """Insert the implicit ``run`` subcommand when it was omitted."""
    argv = list(argv)
    if argv and not argv[0].startswith("-") and argv[0] not in _SUBCOMMANDS:
        argv.insert(0, "run")
    return argv


def config_from_args(args: argparse.Namespace) -> runner.ExperimentConfig:
    """Translate CLI flags into an ExperimentConfig."""
    service = getattr(args, "service", None)
    if args.quick:
        return runner.ExperimentConfig(
            scale=0.05, seed=args.seed, agents=3,
            workloads=("gemver", "doitg"), faults=args.faults,
            service=service)
    return runner.ExperimentConfig(scale=args.scale, seed=args.seed,
                                   faults=args.faults, service=service)


#: Experiments whose simulation work is execution-matrix cells
#: (``runner.run_matrix``).  A sharded invocation runs them in this
#: process and shards their cells instead, so the invocation's cell
#: memo and the per-cell result cache serve all of them.
MATRIX_EXPERIMENTS = frozenset({"fig01", "fig15", "fig16", "fig17"})


@contextlib.contextmanager
def _profiled(name: str, telemetry: typing.Optional[Telemetry],
              want_spans: bool,
              profiles: typing.List[typing.Any]) -> typing.Iterator[None]:
    """Profile the spans one experiment adds to the session telemetry."""
    if telemetry is None:
        yield
        return
    mark = len(telemetry.tracer.spans)
    overlap_counter = telemetry.metrics.counter(
        "sched.interleave.overlap_ns")
    overlap_before = overlap_counter.value
    yield
    if want_spans:
        # The counter is cumulative across experiments; the profile
        # wants this experiment's contribution only.
        profiles.append(build_profile(
            name, telemetry.tracer.spans[mark:],
            overlap_total_ns=overlap_counter.value - overlap_before))


def _run_here(name: str, config: runner.ExperimentConfig,
              telemetry: typing.Optional[Telemetry],
              memo: runner.CellMemo) -> str:
    """Run one experiment in this process under the session telemetry."""
    _, run_fn = EXPERIMENTS[name]
    memo.experiment = name
    # Same cell boundary as the sharded workers: request ids restart
    # per experiment (and per matrix cell within it).
    reset_request_ids()
    with contextlib.ExitStack() as stack:
        if telemetry is not None:
            stack.enter_context(telemetry.activate())
            stack.enter_context(telemetry.tracer.scope(name))
        return typing.cast(str, run_fn(config))


def _run_sharded(chosen: typing.List[str],
                 config: runner.ExperimentConfig,
                 args: argparse.Namespace,
                 telemetry: typing.Optional[Telemetry],
                 want_spans: bool,
                 profiles: typing.List[typing.Any],
                 memo: runner.CellMemo) -> typing.Dict[str, str]:
    """The ``--jobs``/``--cache`` path: shard experiments, merge back.

    Matrix experiments run here and shard per cell through ``memo``;
    the rest run as whole-experiment shards.  Fragments merge into the
    session telemetry one experiment at a time, in experiment order,
    so per-experiment profiles and the merged trace match a serial run.
    """
    shards = [name for name in chosen if name not in MATRIX_EXPERIMENTS]
    reports: typing.Dict[str, str] = {}
    with (telemetry.activate() if telemetry is not None
          else contextlib.nullcontext()):
        outcomes = (parallel.run_experiments_parallel(
            shards, config, jobs=args.jobs,
            cache_dir=args.cache).outcomes if shards else {})
        for name in chosen:
            with _profiled(name, telemetry, want_spans, profiles):
                if name in MATRIX_EXPERIMENTS:
                    reports[name] = _run_here(name, config, telemetry,
                                              memo)
                    continue
                if telemetry is not None:
                    telemetry.merge(outcomes[name].fragment)
                reports[name] = typing.cast(str, outcomes[name].payload)
    return reports


def _reuse_note(name: str, memo: runner.CellMemo) -> str:
    """The line naming the matrix cells ``name`` reused, or ``""``.

    Reused cells recorded their spans in the experiment that simulated
    them, so the profile points there instead of attributing them.
    """
    reused = memo.reused.get(name)
    if not reused:
        return ""
    count = sum(reused.values())
    sources = ", ".join(reused)
    if not memo.filled[name]:
        return (f"all {count} matrix cells reused from {sources} "
                f"(profiled there)")
    return f"{count} matrix cell(s) reused from {sources} (profiled there)"


def main(argv: typing.Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(normalize_argv(argv))
    if args.command == "list":
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:8s} {description}")
        return 0
    chosen = (list(EXPERIMENTS) if args.experiment == "all"
              else [name for name in args.experiment.split(",") if name])
    unknown = [name for name in chosen if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"try 'list'", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    config = config_from_args(args)
    if config.faults is not None:
        # Validate the plan up front so a typo fails in milliseconds,
        # not after the first experiment has simulated for minutes.
        try:
            config.fault_config()
        except ValueError as exc:
            print(f"invalid --faults plan: {exc}", file=sys.stderr)
            return 2
    if config.service is not None:
        # Same up-front validation as --faults: a bad arrival rate or
        # deadline names its field now, not minutes into a sweep.
        try:
            config.service_config()
        except ValueError as exc:
            print(f"invalid --service plan: {exc}", file=sys.stderr)
            return 2
    if args.timeseries is not None and not args.window > 0:
        print(f"--window must be > 0, got {args.window}", file=sys.stderr)
        return 2
    # --metrics alone keeps the null-tracer fast path (record_spans
    # False leaves the ambient tracer null); any span consumer turns
    # recording on.  --timeseries needs the metrics registry (samples
    # land in registry series), so it implies metrics too.  With no
    # telemetry flag nothing is installed and the kernel keeps its
    # no-hook fast drain.
    want_spans = bool(args.trace or args.spans or args.profile
                      or args.report)
    spec = TelemetrySpec(
        metrics=bool(want_spans or args.metrics
                     or args.timeseries is not None),
        spans=want_spans,
        sampling=args.window if args.timeseries is not None else None,
        hostprof=args.hostprof is not None)
    # One bundle for every instrument: serial runs feed it through the
    # hooks; sharded runs merge each worker's fragment into it.
    telemetry = Telemetry.from_spec(spec) if any(spec) else None
    profiles: typing.List[typing.Any] = []
    reports: typing.Dict[str, str] = {}
    with contextlib.ExitStack() as stack:
        # One cell memo per invocation: figures reading the same
        # execution matrix simulate each cell once between them.
        memo = stack.enter_context(runner.shared_cells(
            jobs=args.jobs, cache_dir=args.cache))
        if args.jobs != 1 or args.cache is not None:
            reports = _run_sharded(chosen, config, args, telemetry,
                                   want_spans, profiles, memo)
            for name in chosen:
                print(reports[name])
                print()
        else:
            for name in chosen:
                with _profiled(name, telemetry, want_spans, profiles):
                    report = _run_here(name, config, telemetry, memo)
                reports[name] = report
                print(report)
                print()
    if args.results is not None:
        for name in chosen:
            parallel.write_result(
                args.results, parallel.RESULT_NAMES.get(name, name),
                reports[name], config)
        print(f"reports written to {args.results}")
    if telemetry is not None:
        if args.trace:
            telemetry.write_trace(args.trace)
            print(f"perfetto trace written to {args.trace}")
        if args.spans:
            telemetry.write_spanlog(args.spans)
            print(f"span log written to {args.spans}")
        if args.timeseries:
            telemetry.write_timeseries(args.timeseries)
            print(f"time series written to {args.timeseries}")
        for profile in profiles:
            profile.reuse_note = _reuse_note(profile.name, memo)
        if args.profile:
            for profile in profiles:
                print(render_text(profile))
                print()
        if args.report:
            timeseries_doc = (telemetry.timeseries_document()
                              if spec.sampling is not None else None)
            hostprof_doc = (telemetry.hostprof.to_payload()
                            if telemetry.hostprof is not None else None)
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(render_html(profiles,
                                         timeseries=timeseries_doc,
                                         hostprof=hostprof_doc))
            print(f"profile dashboard written to {args.report}")
        if args.metrics:
            print("metrics summary")
            print(telemetry.summary())
        if telemetry.hostprof is not None:
            kind = write_hostprof(telemetry.hostprof, args.hostprof)
            print(f"host profile ({kind}) written to {args.hostprof}")
            print(render_summary(telemetry.hostprof))
    return 0


if __name__ == "__main__":
    sys.exit(main())
