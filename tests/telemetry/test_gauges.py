"""The profile dashboard's span-derived gauges: track busy% and L = λ·W."""

import pytest

from repro.sim import Simulator
from repro.telemetry.dashboard import (
    _merged_length,
    _request_depth_series,
    build_profile,
)
from repro.telemetry.tracer import RecordingTracer, use_tracer


def _record(tracer, name, track, start, end, asynchronous=False, **args):
    tracer.emit(name, track, start, end, asynchronous=asynchronous, **args)


def _rows(tracer):
    """``{track: row}`` of the busiest-tracks table."""
    return {row.track: row
            for row in build_profile("t", tracer.spans).utilization}


# ----------------------------------------------------------------------
# Union length
# ----------------------------------------------------------------------
def test_merged_length_unions_overlaps():
    assert _merged_length([(0.0, 10.0), (5.0, 15.0)]) == 15.0


def test_merged_length_disjoint():
    assert _merged_length([(0.0, 2.0), (5.0, 6.0)]) == 3.0


def test_merged_length_empty_and_degenerate():
    assert _merged_length([]) == 0.0
    assert _merged_length([(3.0, 3.0)]) == 0.0


# ----------------------------------------------------------------------
# Busiest tracks
# ----------------------------------------------------------------------
def test_utilization_is_over_the_capture_window():
    # The window runs from t=0 to the latest span end of any track, so
    # a lane busy for the middle half of the run reads 50%.
    tracer = RecordingTracer()
    _record(tracer, "read_burst", "ch0.bus", 25.0, 75.0)
    _record(tracer, "read 0x0", "requests", 0.0, 100.0, asynchronous=True)
    profile = build_profile("t", tracer.spans)
    assert profile.window_ns == 100.0
    (row,) = profile.utilization
    assert (row.track, row.busy_ns, row.utilization) == ("ch0.bus", 50.0,
                                                         0.5)


def test_nested_holds_count_once():
    tracer = RecordingTracer()
    _record(tracer, "activate", "ch0.m0.p0", 0.0, 10.0)
    _record(tracer, "activate", "ch0.m0.p0", 2.0, 8.0)
    row = _rows(tracer)["ch0.m0.p0"]
    assert row.busy_ns == 10.0
    assert row.utilization == 1.0
    assert row.span_count == 2


def test_zero_length_interval_is_dropped():
    tracer = RecordingTracer()
    _record(tracer, "cmd", "ch0.bus", 0.0, 10.0)
    _record(tracer, "cmd", "ch0.bus", 4.0, 4.0)
    row = _rows(tracer)["ch0.bus"]
    assert row.busy_ns == 10.0
    assert row.span_count == 2


def test_zero_duration_window_never_divides_by_zero():
    tracer = RecordingTracer()
    _record(tracer, "cmd", "ch0.bus", 0.0, 0.0)
    profile = build_profile("t", tracer.spans)
    assert profile.window_ns == 0.0
    (row,) = profile.utilization
    assert row.busy_ns == 0.0
    assert row.utilization == 0.0


def test_backwards_interval_raises():
    tracer = RecordingTracer()
    _record(tracer, "cmd", "ch0.bus", 10.0, 5.0)
    with pytest.raises(ValueError, match="runs backwards"):
        build_profile("t", tracer.spans)


def test_nan_rejected():
    tracer = RecordingTracer()
    _record(tracer, "cmd", "ch0.bus", float("nan"), 1.0)
    with pytest.raises(ValueError, match="runs backwards"):
        build_profile("t", tracer.spans)


def test_track_gauges_excludes_queue_tracks():
    tracer = RecordingTracer()
    _record(tracer, "read_burst", "ch0.bus", 0.0, 10.0)
    _record(tracer, "read_chunk", "ch0.inflight", 0.0, 50.0,
            asynchronous=True)
    _record(tracer, "read 0x0", "requests", 0.0, 60.0, asynchronous=True)
    _record(tracer, "wake", "psc", 0.0, 60.0)
    rows = _rows(tracer)
    assert set(rows) == {"ch0.bus"}
    assert rows["ch0.bus"].busy_ns == 10.0


def test_capture_window_empty_run():
    profile = build_profile("empty", [])
    assert profile.window_ns == 0.0
    assert profile.utilization == []
    assert profile.littles is None
    assert profile.empty


def test_utilization_table_sorted_busiest_first():
    tracer = RecordingTracer()
    _record(tracer, "cmd", "ch0.bus", 0.0, 90.0)
    _record(tracer, "activate", "ch0.m0.p0", 0.0, 30.0)
    table = build_profile("t", tracer.spans).utilization
    assert [row.track for row in table] == ["ch0.bus", "ch0.m0.p0"]
    assert table[0].utilization == pytest.approx(1.0)
    assert table[1].utilization == pytest.approx(30.0 / 90.0)


# ----------------------------------------------------------------------
# Request depth and Little's law
# ----------------------------------------------------------------------
def test_request_depth_series_handoff_no_phantom_spike():
    tracer = RecordingTracer()
    # One request completes at t=10 exactly as the next begins: depth
    # must go 1 -> 1, never 2.
    _record(tracer, "read 0x0", "requests", 0.0, 10.0, asynchronous=True)
    _record(tracer, "read 0x1", "requests", 10.0, 20.0,
            asynchronous=True)
    series = _request_depth_series(tracer.spans)
    assert max(series.values) == 1.0
    assert series.time_weighted_mean(0.0, 20.0) == 1.0


def test_littles_law_exact_on_full_capture():
    tracer = RecordingTracer()
    _record(tracer, "read 0x0", "requests", 0.0, 30.0, asynchronous=True)
    _record(tracer, "read 0x1", "requests", 10.0, 40.0,
            asynchronous=True)
    _record(tracer, "read 0x2", "requests", 20.0, 50.0,
            asynchronous=True)
    check = build_profile("t", tracer.spans).littles
    assert check is not None
    # 3 requests of 30 ns each over a 50 ns window: lambda*W = 1.8.
    assert check.predicted_depth == pytest.approx(1.8)
    assert check.mean_depth == pytest.approx(1.8)
    # For a fully captured run the law is exact: the area under the
    # depth series IS the summed residence time.
    assert check.consistent(1e-9)
    assert check.ratio == pytest.approx(1.0)


def test_littles_law_none_for_zero_duration():
    tracer = RecordingTracer()
    _record(tracer, "read 0x0", "requests", 5.0, 5.0, asynchronous=True)
    assert build_profile("t", tracer.spans).littles is None


def test_gauges_from_live_simulation():
    # End to end: a simulated device busy on one lane for 40 of its
    # 100 ns and on another for the last 10.
    tracer = RecordingTracer()
    with use_tracer(tracer):
        sim = Simulator()

        def worker():
            start = sim.now
            yield sim.timeout(40.0)
            sim.tracer.emit("work", "dev.lane", start, sim.now)
            yield sim.timeout(50.0)
            start = sim.now
            yield sim.timeout(10.0)
            sim.tracer.emit("flush", "dev.bus", start, sim.now)

        sim.process(worker())
        sim.run()
    profile = build_profile("live", tracer.spans)
    assert profile.window_ns == sim.now == 100.0
    assert [(row.track, row.utilization) for row in profile.utilization] \
        == [("dev.lane", 0.4), ("dev.bus", 0.1)]
