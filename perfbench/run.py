"""The repository benchmark: run one workload, print its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 60 --trace 0

Workloads (parameters in ``spec.json``): ``figures`` (Figs. 15-17) and
``service`` (open-loop multi-tenant traffic at fixed rates).  Each
measured run is a fresh worker process (``worker.py``) that imports the
program, generates its inputs from the seed and runs the workload once;
runs repeat while another fits in ``--seconds``.  ``setup_s`` and
``peak_rss_mb`` are medians over runs; ``run_s`` is the least host time
of each operation over the runs, summed over one run's operations, plus
the median time outside them.  Contention from other tenants of a
shared host only adds time, and it comes in spells of seconds to
minutes that slow whole runs, so a median over a handful of runs
reports the host's state more than the program's; the fastest
observation of each operation does not.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics; the traced
runs read the program's host profiler and metrics registry.

Every operation is checked (see ``suite.py``), and its simulated output
fingerprinted: an operation fails if it raises, breaks its invariant,
or its fingerprint differs from the first run's, traced or not.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import pathlib
import statistics
import subprocess
import sys
import time
import typing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
BENCHMARK = ROOT / "BENCHMARK.json"

#: No single worker may run longer than this (the whole run must end
#: within 180 s).
WORKER_TIMEOUT_S = 150.0

#: Set-ups per untraced run, the median of which is ``setup_s``; runs
#: too long to repeat within ``--seconds`` add set-up-only workers.
MIN_SETUPS = 3


class BenchError(RuntimeError):
    """The benchmark could not measure (not a failed operation)."""


def invoke(workload: str, seed: int, mode: str) -> typing.Dict:
    """Run one worker to completion and parse its result line.

    ``mode`` is ``0`` (untraced), ``1`` (traced) or ``setup``.
    """
    command = [sys.executable, str(HERE / "worker.py"), workload,
               str(seed), mode]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {command}") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker exited {proc.returncode}: {' '.join(command)}")
    return json.loads(lines[-1])


def count_failures(runs: typing.Sequence[typing.Dict],
                   exact: typing.Sequence[str]) -> typing.Tuple[int, int]:
    """(attempted, failed) over every operation of every run.

    The first run is the reference: an operation fails in a run where
    it failed outright or where its fingerprint differs from the
    reference's.  A traced run whose exact per-layer counts differ from
    the first traced run's fails all of its operations.
    """
    reference = runs[0]["operations"]
    layer_reference = next((run["layers"] for run in runs
                            if run["layers"] is not None), None)
    attempted = failed = 0
    for run in runs:
        operations = run["operations"]
        attempted += len(reference)
        layers = run["layers"]
        if layers is not None and any(
                layers.get(name) != layer_reference.get(name)
                for name in exact):
            failed += len(reference)
            continue
        failed += sum(1 for key, value in reference.items()
                      if value is None or operations.get(key) != value)
    return attempted, failed


def typical_run_s(runs: typing.Sequence[typing.Dict]) -> float:
    """Host seconds of a run, robust to spells of host contention.

    Each operation's least time over the runs, summed over the
    operations of one run, plus the median of the time spent outside
    operations.
    """
    samples: typing.Dict[str, typing.List[float]] = {}
    for run in runs:
        for key, seconds in run["op_s"].items():
            samples.setdefault(key, []).extend(seconds)
    in_ops = sum(len(seconds) * min(samples[key])
                 for key, seconds in runs[0]["op_s"].items())
    outside = statistics.median(
        run["run_s"] - sum(map(sum, run["op_s"].values())) for run in runs)
    return in_ops + outside


def end_to_end(runs: typing.Sequence[typing.Dict],
               setups: typing.Sequence[float]) -> typing.Dict[str, float]:
    """End-to-end metrics over untraced runs and every set-up."""
    run_s = typical_run_s(runs)
    return {
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "ops_per_s": runs[0]["ops"] / run_s,
        "peak_rss_mb": statistics.median(run["peak_rss_mb"]
                                         for run in runs),
    }


def per_layer(untraced: typing.Sequence[typing.Dict],
              traced: typing.Sequence[typing.Dict],
              names: typing.Sequence[str]) -> typing.Dict[str, float]:
    """Per-layer values: counts from the traced runs, times as medians."""
    def median_of(key: str) -> float:
        return statistics.median(run["layers"][key] for run in traced)

    plain_run_s = statistics.median(run["run_s"] for run in untraced)
    traced_run_s = statistics.median(run["run_s"] for run in traced)
    values: typing.Dict[str, float] = {}
    values.update(traced[0]["sim"])
    for key in traced[0]["layers"]:
        values[key] = median_of(key)
    values["trace.overhead"] = traced_run_s / plain_run_s
    values["trace.attributed_frac"] = statistics.median(
        run["layers"]["attributed_s"] / run["run_s"] for run in traced)
    values["other.host_s"] = statistics.median(
        run["run_s"] - run["layers"]["attributed_s"] for run in traced)
    events = values.get("sim.events", 0.0)
    values["sim.ns_per_event"] = (plain_run_s * 1e9 / events
                                  if events else 0.0)
    values["workloads.ops"] = float(traced[0]["ops"])
    return {name: float(values.get(name, 0.0)) for name in names}


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark = json.loads(BENCHMARK.read_text())
    src = ROOT / "src" / "repro"
    if not src.is_dir():
        print(f"no program source at {src}", file=sys.stderr)
        return 2
    # Byte-compile once, as installing the package would: users do not
    # pay compilation on every invocation.
    compileall.compile_dir(str(src), quiet=1)

    traced_mode = bool(args.trace)
    untraced: typing.List[typing.Dict] = []
    traced: typing.List[typing.Dict] = []
    deadline = time.monotonic() + args.seconds
    longest = 0.0
    try:
        # Warm-up: the first import after a build reads cold files.
        setup_s = invoke(args.workload, args.seed, "setup")["setup_s"]
        while True:
            begun = time.monotonic()
            untraced.append(invoke(args.workload, args.seed, "0"))
            if traced_mode:
                traced.append(invoke(args.workload, args.seed, "1"))
            now = time.monotonic()
            longest = max(longest, now - begun)
            # Two untraced runs at least, so no median is one sample; a
            # traced pair suffices for the per-layer split.  Another
            # round starts only if it and the set-ups still owed fit,
            # were it as slow as the slowest round so far.
            owed = 0 if traced_mode else max(
                0, MIN_SETUPS - len(untraced) - 1) * setup_s
            if (traced_mode or len(untraced) >= 2) and (
                    now + longest + owed > deadline):
                break
        setups = [run["setup_s"] for run in untraced]
        while not traced_mode and len(setups) < MIN_SETUPS:
            setups.append(invoke(args.workload, args.seed,
                                 "setup")["setup_s"])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    runs = untraced + traced
    for index, run in enumerate(runs):
        kind = "traced" if run["layers"] is not None else "untraced"
        print(f"run {index} ({kind}): setup_s={run['setup_s']:.4f} "
              f"run_s={run['run_s']:.4f} "
              f"peak_rss_mb={run['peak_rss_mb']:.2f} "
              f"digest={run['digest']}")
    exact = [name for name, entry in SPEC["per_layer"].items()
             if entry["exact"]]
    attempted, failed = count_failures(runs, exact)
    fail_frac = failed / attempted
    for key, value in sorted(untraced[0]["sim"].items()):
        print(f"sim {key} = {value!r}")
    print(f"digest {args.workload} seed={args.seed}: "
          f"{untraced[0]['digest']}")

    if traced_mode:
        wanted = benchmark["per_layer"]
        values = per_layer(untraced, traced,
                           [metric["name"] for metric in wanted])
        values["fail_frac"] = fail_frac
    else:
        wanted = benchmark["end_to_end"]
        values = end_to_end(untraced, setups)
        values["ok_frac"] = 1.0 - fail_frac
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
