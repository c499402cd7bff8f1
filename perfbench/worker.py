"""One fresh invocation of a benchmark workload: set up, run, check.

    python perfbench/worker.py WORKLOAD SEED MODE

MODE is ``0`` for an untraced run, ``1`` for a traced one and ``setup``
to stop after set-up.

``run.py`` starts one worker per measured run, so every run pays import
and input generation as a user's invocation does, and no state carries
from one run to the next.  Set-up time counts from the first line of
this file to the end of input generation.  The last line of standard
output is one JSON object with the run's measurements.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def main(argv: list) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    traced = mode == "1"
    sys.path.insert(0, str(SRC))
    import suite

    workload = suite.WORKLOADS[name]
    inputs = workload.setup(seed)
    setup_s = time.perf_counter() - T0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = suite.Recorder()
    layer_values = None
    text = ""
    with contextlib.ExitStack() as stack:
        if traced:
            import layers
            instruments = stack.enter_context(layers.Instruments())
            recorder.op_scope = instruments.op_scope
        start = time.perf_counter()
        try:
            text = workload.run(inputs, recorder)
        except Exception:
            # The operations it left unfinished count as failed.
            traceback.print_exc()
        run_s = time.perf_counter() - start
        recorder.restore()
    if traced:
        layer_values = layers.layer_metrics(instruments, recorder)
    output = workload.output(inputs, recorder, text)
    op_s: dict = {}
    for call in recorder.calls.get(workload.op_label, []):
        op_s.setdefault(call.key, []).append(call.seconds)
    print(json.dumps({
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": inputs.ops,
        "op_s": op_s,
        "operations": output.operations,
        "digest": output.digest,
        "sim": output.sim,
        "layers": layer_values,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
