"""Unit tests for telemetry fragments: each instrument's ``to_payload``
capture and its deterministic ``merge_payload``."""

import pickle

import pytest

from repro.telemetry.bench import BenchMetric, BenchReport, merge_reports
from repro.sim import LatencySketch
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import RecordingTracer


def _worker_registry():
    """A registry shaped like one matrix cell's worker capture."""
    registry = MetricsRegistry()
    prefix = registry.component_prefix("subsys")
    registry.counter(f"{prefix}.requests").add(3)
    registry.histogram(f"{prefix}.latency_ns").add(10.0)
    registry.histogram(f"{prefix}.latency_ns").add(30.0)
    registry.sketch(f"{prefix}.sketch.read").add(10.0)
    registry.sketch(f"{prefix}.sketch.read").add(30.0)
    registry.counter("sched.interleave.overlap_ns").add(5)
    registry.gauge("pe.0.sleep_ns", 100.0)
    registry.gauge_max("sched.hints.depth_peak", 7.0)
    return registry


class TestMetricsFragment:
    def test_roundtrip_is_picklable(self):
        payload = _worker_registry().to_payload()
        clone = pickle.loads(pickle.dumps(payload))
        assert clone["prefixes"] == payload["prefixes"]
        assert clone["containers"] == payload["containers"]
        assert clone["gauges"] == payload["gauges"]

    def test_prefix_replay_reproduces_serial_suffixes(self):
        # Two cells each reserved "subsys" locally; merged in cell
        # order they must land as subsys / subsys#2, like a serial run.
        target = MetricsRegistry()
        target.merge_payload(_worker_registry().to_payload())
        target.merge_payload(_worker_registry().to_payload())
        snap = target.snapshot()
        assert snap["subsys.requests"] == 3
        assert snap["subsys#2.requests"] == 3

    def test_shared_counters_accumulate(self):
        target = MetricsRegistry()
        target.merge_payload(_worker_registry().to_payload())
        target.merge_payload(_worker_registry().to_payload())
        assert target.snapshot()["sched.interleave.overlap_ns"] == 10

    def test_plain_gauges_overwrite_and_peaks_fold(self):
        first = MetricsRegistry()
        first.gauge("plain", 1.0)
        first.gauge_max("peak", 9.0)
        second = MetricsRegistry()
        second.gauge("plain", 2.0)
        second.gauge_max("peak", 4.0)
        target = MetricsRegistry()
        target.merge_payload(first.to_payload())
        target.merge_payload(second.to_payload())
        snap = target.snapshot()
        assert snap["plain"] == 2.0  # last cell wins, as in serial
        assert snap["peak"] == 9.0   # max across cells

    def test_histogram_samples_pool(self):
        target = MetricsRegistry()
        target.merge_payload(_worker_registry().to_payload())
        target.merge_payload(_worker_registry().to_payload())
        snap = target.snapshot()
        assert snap["subsys.latency_ns.count"] == 2
        assert snap["subsys#2.latency_ns.count"] == 2

    def test_merge_into_disabled_registry_is_a_noop(self):
        target = MetricsRegistry(enabled=False)
        target.merge_payload(_worker_registry().to_payload())
        assert target.snapshot() == {}

    def test_sketches_fold_bucket_wise(self):
        # Two cells' sketches merge by bucket addition; the merged
        # payload is byte-identical to sketching all samples serially.
        target = MetricsRegistry()
        target.merge_payload(_worker_registry().to_payload())
        target.merge_payload(_worker_registry().to_payload())
        serial = LatencySketch()
        for value in (10.0, 30.0):
            serial.add(value)
        merged = target.sketch("subsys.sketch.read")
        assert merged.count == 2
        assert merged.to_payload() == serial.to_payload()
        # The second cell's prefix replay kept its sketch distinct.
        assert target.sketch("subsys#2.sketch.read").count == 2

    def test_sketch_merge_order_is_irrelevant(self):
        heavy = MetricsRegistry()
        heavy.sketch("lat").add(1000.0)
        light = MetricsRegistry()
        light.sketch("lat").add(2.0)
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge_payload(heavy.to_payload())
        ab.merge_payload(light.to_payload())
        ba.merge_payload(light.to_payload())
        ba.merge_payload(heavy.to_payload())
        assert (ab.sketch("lat").to_payload()
                == ba.sketch("lat").to_payload())


class TestLatestPrefix:
    def test_unreserved_base_maps_to_itself(self):
        assert MetricsRegistry().latest_prefix("pe.0") == "pe.0"

    def test_most_recent_reservation_wins(self):
        registry = MetricsRegistry()
        assert registry.component_prefix("pe.0") == "pe.0"
        assert registry.latest_prefix("pe.0") == "pe.0"
        assert registry.component_prefix("pe.0") == "pe.0#2"
        assert registry.latest_prefix("pe.0") == "pe.0#2"


class TestTracerFragment:
    def _worker_tracer(self):
        tracer = RecordingTracer()
        with tracer.scope("cell"):
            tracer.emit("compute", "pe0", 0.0, 10.0)
            tracer.instant("wake", "psc", 5.0)
            tracer.emit("transfer", "bus", 10.0, 20.0)
        tracer.command("cmd")
        return tracer

    def test_merge_preserves_span_instant_id_interleave(self):
        # Worker ids: compute=1, wake=2, transfer=3.  A serial run
        # interleaves spans and instants on one counter; the merge must
        # reproduce that, not renumber spans and instants separately.
        target = RecordingTracer()
        target.emit("warmup", "t", 0.0, 1.0)  # consumes id 1
        target.merge_payload(self._worker_tracer().to_payload())
        assert [s.span_id for s in target.spans] == [1, 2, 4]
        assert [s.span_id for s in target.instants] == [3]
        # The target's counter continues past the claimed ids.
        target.emit("after", "t", 2.0, 3.0)
        assert target.spans[-1].span_id == 5

    def test_merge_appends_commands_and_scopes(self):
        target = RecordingTracer()
        target.merge_payload(self._worker_tracer().to_payload())
        assert target.commands == ["cmd"]
        assert all(s.scope == "cell" for s in target.spans)

    def test_fragment_is_picklable(self):
        payload = self._worker_tracer().to_payload()
        clone = pickle.loads(pickle.dumps(payload))
        assert clone["spans"] == payload["spans"]
        assert clone["instants"] == payload["instants"]


class TestMergeReports:
    def _report(self, name, value):
        return BenchReport(
            provenance={"git_sha": "abc", "scale": "0.25"},
            metrics={name: BenchMetric(value=value, better="higher")})

    def test_merges_disjoint_fragments_sorted(self):
        merged = merge_reports([self._report("b.metric", 2.0),
                                self._report("a.metric", 1.0)])
        assert list(merged.metrics) == ["a.metric", "b.metric"]
        assert merged.provenance["merged_fragments"] == 2

    def test_identical_duplicates_collapse(self):
        merged = merge_reports([self._report("m", 1.0),
                                self._report("m", 1.0)])
        assert merged.metrics["m"].value == 1.0

    def test_conflicting_duplicate_raises(self):
        with pytest.raises(ValueError, match="m"):
            merge_reports([self._report("m", 1.0),
                           self._report("m", 2.0)])

    def test_empty_fragment_list_raises(self):
        with pytest.raises(ValueError):
            merge_reports([])
