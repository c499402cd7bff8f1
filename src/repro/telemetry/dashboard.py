"""Per-experiment profile reports: terminal tables and standalone HTML.

:func:`build_profile` folds one experiment's span capture through the
attribution pass (:mod:`repro.telemetry.profile`), a busy-time table of
the hardware tracks and a Little's-law check of the request queue into
a single :class:`ExperimentProfile`; :func:`render_text` prints it for
``repro-experiments --profile`` and :func:`render_html` writes the
``--report`` dashboard — a single self-contained file (inline CSS, no
external assets) that CI can upload as an artifact.
"""

from __future__ import annotations

import dataclasses
import html
import math
import typing

from repro.sim.stats import Histogram, TimeSeries
from repro.telemetry import profile as profile_mod
from repro.telemetry.tracer import Span

#: Tracks of overlapping in-flight work, not an exclusive resource
#: (with every ``*.inflight`` track); busy% is meaningless for them.
_QUEUE_TRACKS = frozenset({"requests", "psc"})


@dataclasses.dataclass
class TrackUtilization:
    """One hardware lane's occupancy over the capture window."""

    track: str
    busy_ns: float
    utilization: float
    span_count: int


@dataclasses.dataclass
class LittlesLawCheck:
    """L = λ·W cross-check between queue depth and measured latency."""

    mean_depth: float           # L: time-weighted in-flight requests
    predicted_depth: float      # λ·W: completions per ns x mean latency

    @property
    def ratio(self) -> float:
        """L / (λ·W); 1.0 when the telemetry is self-consistent."""
        if self.predicted_depth == 0.0:
            return 1.0 if self.mean_depth == 0.0 else math.inf
        return self.mean_depth / self.predicted_depth

    def consistent(self, tolerance: float = 1e-6) -> bool:
        """Does Little's law hold within ``tolerance``?"""
        return abs(self.ratio - 1.0) <= tolerance


@dataclasses.dataclass
class ExperimentProfile:
    """Everything the dashboard shows for one experiment."""

    name: str
    window_ns: float
    attributions: typing.List[profile_mod.RequestAttribution]
    summary: profile_mod.AttributionSummary
    utilization: typing.List[TrackUtilization]
    littles: LittlesLawCheck | None
    invariant_problems: typing.List[str]
    latency_quantiles: typing.Dict[str, float] = \
        dataclasses.field(default_factory=dict)
    #: Names the execution-matrix cells this experiment reused from an
    #: earlier one in the same invocation; their spans were recorded
    #: there, so an experiment that captured nothing of its own renders
    #: as this one line instead of empty tables.
    reuse_note: str = ""

    @property
    def empty(self) -> bool:
        """True when the capture holds no requests and no busy tracks."""
        return not self.summary.request_count and not self.utilization

    @property
    def hidden_fraction(self) -> float:
        """Interleave-hidden time as a share of summed latency (Fig 12)."""
        if self.summary.total_latency_ns <= 0:
            return 0.0
        return (self.summary.overlap_total_ns
                / self.summary.total_latency_ns)


def _merged_length(
        intervals: typing.Iterable[typing.Tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    ordered = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    if not ordered:
        return 0.0
    pieces: typing.List[float] = []
    merged_lo, merged_hi = ordered[0]
    for lo, hi in ordered[1:]:
        if lo > merged_hi:
            pieces.append(merged_hi - merged_lo)
            merged_lo, merged_hi = lo, hi
        else:
            merged_hi = max(merged_hi, hi)
    pieces.append(merged_hi - merged_lo)
    return math.fsum(pieces)


def _busiest_tracks(spans: typing.Sequence[Span],
                    window_ns: float) -> typing.List[TrackUtilization]:
    """Per-track union busy time over ``[0, window_ns]``, busiest first
    (queue-like tracks are left out: their spans overlap by design)."""
    intervals: typing.Dict[str, typing.List[typing.Tuple[float, float]]] = {}
    for span in spans:
        if (span.asynchronous or span.track in _QUEUE_TRACKS
                or span.track.endswith(".inflight")):
            continue
        if not span.start_ns <= span.end_ns:  # NaN fails this too
            raise ValueError(f"span {span.name!r} on {span.track!r} runs "
                             f"backwards: {span.start_ns} -> {span.end_ns}")
        intervals.setdefault(span.track, []).append(
            (span.start_ns, span.end_ns))
    table = []
    for track, busy_spans in intervals.items():
        busy = _merged_length(busy_spans)
        table.append(TrackUtilization(
            track=track, busy_ns=busy,
            utilization=busy / window_ns if window_ns > 0 else 0.0,
            span_count=len(busy_spans)))
    table.sort(key=lambda row: (-row.utilization, row.track))
    return table


def _request_depth_series(requests: typing.Sequence[Span]) -> TimeSeries:
    """In-flight request depth as a step series (completions sort
    before submissions at one instant: a handoff shows no spike)."""
    deltas = sorted([(span.start_ns, 1) for span in requests]
                    + [(span.end_ns, -1) for span in requests])
    series = TimeSeries("requests.depth")
    depth = 0
    for time, delta in deltas:
        depth += delta
        series.record(time, float(depth))
    return series


def _littles_law(spans: typing.Sequence[Span]) -> LittlesLawCheck | None:
    """L = λ·W over the request spans; ``None`` when there are none or
    they span no time (a zero-duration run has nothing to check)."""
    requests = [span for span in spans
                if span.track == "requests" and span.asynchronous]
    if not requests:
        return None
    start = min(span.start_ns for span in requests)
    end = max(span.end_ns for span in requests)
    if end <= start:
        return None
    latencies = [span.end_ns - span.start_ns for span in requests]
    mean_latency = math.fsum(latencies) / len(latencies)
    throughput = len(latencies) / (end - start)
    return LittlesLawCheck(
        mean_depth=_request_depth_series(requests).time_weighted_mean(
            start, end),
        predicted_depth=throughput * mean_latency)


def build_profile(name: str, spans: typing.Sequence[Span],
                  overlap_total_ns: float | None = None
                  ) -> ExperimentProfile:
    """Attribute, gauge, and invariant-check one experiment's capture.

    The capture window is ``[0, latest span end]``: simulations start
    at t=0, so a track's utilization is its share of the run.
    """
    attributions = profile_mod.attribute_requests(spans)
    summary = profile_mod.summarize(attributions)
    window_ns = max((span.end_ns for span in spans), default=0.0)
    latencies = Histogram("profile.latency")
    for attribution in attributions:
        latencies.add(attribution.latency_ns)
    return ExperimentProfile(
        name=name,
        window_ns=window_ns,
        attributions=attributions,
        summary=summary,
        utilization=_busiest_tracks(spans, window_ns),
        littles=_littles_law(spans),
        invariant_problems=profile_mod.verify_attribution(
            attributions, overlap_total_ns),
        latency_quantiles=latencies.quantiles(),
    )


def _fmt_ns(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.3f} ms"
    if value >= 1e3:
        return f"{value / 1e3:.3f} us"
    return f"{value:.1f} ns"


def render_text(profile: ExperimentProfile,
                max_tracks: int = 12) -> str:
    """Terminal rendering of one experiment profile."""
    count = profile.summary.request_count
    if profile.reuse_note and profile.empty:
        return f"profile: {profile.name}: {profile.reuse_note}"
    mean_latency = (_fmt_ns(profile.summary.total_latency_ns / count)
                    if count else "-")
    lines = [f"profile: {profile.name}",
             f"  window {_fmt_ns(profile.window_ns)}, {count} requests, "
             f"mean latency {mean_latency}"]
    if profile.latency_quantiles:
        tail = "  ".join(
            f"{label} {_fmt_ns(value)}"
            for label, value in profile.latency_quantiles.items())
        lines.append(f"  latency quantiles: {tail}")
    lines.append("  latency attribution (mean per request / share of "
                 "end-to-end):")
    means = profile.summary.segment_means()
    fractions = profile.summary.segment_fractions()
    for segment in profile_mod.SEGMENTS:
        mean = means.get(segment, 0.0)
        if mean == 0.0:
            continue
        tag = " (hidden by interleaving)" \
            if segment == "interleave_hidden" else ""
        lines.append(f"    {segment:<18} {_fmt_ns(mean):>12}  "
                     f"{fractions.get(segment, 0.0):6.1%}{tag}")
    if profile.utilization:
        lines.append("  busiest tracks:")
        for row in profile.utilization[:max_tracks]:
            lines.append(f"    {row.track:<18} {row.utilization:6.1%} "
                         f"busy  ({row.span_count} spans, "
                         f"{_fmt_ns(row.busy_ns)})")
        dropped = len(profile.utilization) - max_tracks
        if dropped > 0:
            lines.append(f"    ... {dropped} more track(s)")
    if profile.littles is not None:
        check = profile.littles
        lines.append(
            f"  little's law: L={check.mean_depth:.4f} vs "
            f"lambda*W={check.predicted_depth:.4f} "
            f"(ratio {check.ratio:.6f}, "
            f"{'consistent' if check.consistent(1e-6) else 'INCONSISTENT'})")
    if profile.invariant_problems:
        lines.append(f"  ATTRIBUTION INVARIANT VIOLATED "
                     f"({len(profile.invariant_problems)} problem(s)):")
        for problem in profile.invariant_problems[:10]:
            lines.append(f"    - {problem}")
    else:
        lines.append("  attribution invariant: holds "
                     f"(overlap credited "
                     f"{_fmt_ns(profile.summary.overlap_total_ns)}, "
                     f"{profile.hidden_fraction:.1%} of latency hidden)")
    if profile.reuse_note:
        lines.append(f"  {profile.reuse_note}")
    return "\n".join(lines)


_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { padding: 0.25rem 0.8rem; text-align: right;
         border-bottom: 1px solid #ddd; font-size: 0.9rem; }
th:first-child, td:first-child { text-align: left; }
.bar { display: inline-block; height: 0.7rem; background: #4361ee;
       vertical-align: middle; }
.bar.hidden { background: #2ec4b6; }
.ok { color: #2a9d2a; } .bad { color: #c1121f; font-weight: bold; }
.meta { color: #666; font-size: 0.85rem; }
svg.spark { vertical-align: middle; }
"""


def _segment_rows(profile: ExperimentProfile) -> str:
    means = profile.summary.segment_means()
    fractions = profile.summary.segment_fractions()
    rows = []
    for segment in profile_mod.SEGMENTS:
        mean = means.get(segment, 0.0)
        if mean == 0.0:
            continue
        share = fractions.get(segment, 0.0)
        bar_class = "bar hidden" if segment == "interleave_hidden" \
            else "bar"
        rows.append(
            f"<tr><td>{html.escape(segment)}</td>"
            f"<td>{_fmt_ns(mean)}</td><td>{share:.1%}</td>"
            f"<td style='text-align:left'>"
            f"<span class='{bar_class}' "
            f"style='width:{min(share, 1.0) * 20:.2f}rem'></span>"
            f"</td></tr>")
    return "".join(rows)


def _utilization_rows(profile: ExperimentProfile) -> str:
    rows = []
    for row in profile.utilization:
        rows.append(
            f"<tr><td>{html.escape(row.track)}</td>"
            f"<td>{row.utilization:.1%}</td>"
            f"<td>{_fmt_ns(row.busy_ns)}</td>"
            f"<td>{row.span_count}</td>"
            f"<td style='text-align:left'>"
            f"<span class='bar' "
            f"style='width:{min(row.utilization, 1.0) * 20:.2f}rem'>"
            f"</span></td></tr>")
    return "".join(rows)


def _quantile_meta(profile: ExperimentProfile) -> str:
    if not profile.latency_quantiles:
        return ""
    return " · " + " · ".join(
        f"{html.escape(label)} {_fmt_ns(value)}"
        for label, value in profile.latency_quantiles.items())


def _svg_sparkline(values: typing.Sequence[float],
                   width: int = 240, height: int = 32) -> str:
    """Inline SVG polyline over a series (self-contained, no JS)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = width / max(1, len(values) - 1)
    points = " ".join(
        f"{i * step:.1f},{height - 2 - (v - lo) / span * (height - 4):.1f}"
        for i, v in enumerate(values))
    return (f"<svg width='{width}' height='{height}' class='spark'>"
            f"<polyline points='{points}' fill='none' "
            f"stroke='#4361ee' stroke-width='1.5'/></svg>")


def _timeseries_section(document: typing.Mapping[str, typing.Any]) -> str:
    """Windowed-series sparklines and latency-sketch quantile tables."""
    window_ns = float(document.get("window_ns", 0.0))
    parts = [f"<h2>timeseries</h2><p class='meta'>sampling window "
             f"{_fmt_ns(window_ns)} · schema "
             f"{html.escape(str(document.get('schema', '?')))}</p>"]
    series = document.get("series", {})
    if series:
        rows = []
        for path in sorted(series):
            values = [float(v) for v in series[path].get("v", [])]
            stat = (f"min {min(values):.3g} · mean "
                    f"{sum(values) / len(values):.3g} · max "
                    f"{max(values):.3g}") if values else "empty"
            rows.append(
                f"<tr><td>{html.escape(path)}</td>"
                f"<td>{len(values)}</td>"
                f"<td style='text-align:left'>{_svg_sparkline(values)}"
                f"</td><td style='text-align:left' class='meta'>{stat}"
                f"</td></tr>")
        parts.append("<table><tr><th>series</th><th>windows</th>"
                     "<th>trend</th><th></th></tr>"
                     + "".join(rows) + "</table>")
    sketches = document.get("sketches", {})
    if sketches:
        rows = []
        for path in sorted(sketches):
            sketch = sketches[path]
            quantiles = sketch.get("quantiles", {})
            cells = "".join(
                f"<td>{_fmt_ns(float(quantiles[label]))}</td>"
                if label in quantiles else "<td>-</td>"
                for label in ("p50", "p95", "p99", "p999"))
            rows.append(
                f"<tr><td>{html.escape(path)}</td>"
                f"<td>{sketch.get('count', 0)}</td>{cells}"
                f"<td>{sketch.get('clamped', 0)}</td></tr>")
        parts.append("<h3>latency sketches</h3>"
                     "<table><tr><th>sketch</th><th>samples</th>"
                     "<th>p50</th><th>p95</th><th>p99</th><th>p999</th>"
                     "<th>clamped</th></tr>"
                     + "".join(rows) + "</table>")
    return "".join(parts)


def _hostprof_section(payload: typing.Mapping[str, typing.Any]) -> str:
    """Host wall-clock buckets from a ``HostProfiler.to_payload()``."""
    buckets = payload.get("buckets", [])
    total = sum(int(entry[1]) for entry in buckets) or 1
    counts = {tuple(raw): int(count)
              for raw, count in payload.get("bucket_counts", [])}
    dispatches = sum(int(v)
                     for v in payload.get("dispatches", {}).values())
    schedules = sum(int(v)
                    for v in payload.get("schedules", {}).values())
    parts = [f"<h2>host profile</h2><p class='meta'>"
             f"{dispatches} dispatches · {schedules} schedules · "
             f"{payload.get('runs', 0)} run(s) · "
             f"{_fmt_ns(float(total))} attributed host time</p>"]
    rows = []
    ranked = sorted(buckets, key=lambda entry: (-int(entry[1]), entry[0]))
    for raw_key, host_ns in ranked[:24]:
        share = int(host_ns) / total
        rows.append(
            f"<tr><td>{html.escape(' / '.join(raw_key))}</td>"
            f"<td>{_fmt_ns(float(host_ns))}</td>"
            f"<td>{share:.1%}</td>"
            f"<td>{counts.get(tuple(raw_key), 0)}</td>"
            f"<td style='text-align:left'>"
            f"<span class='bar' "
            f"style='width:{min(share, 1.0) * 20:.2f}rem'></span>"
            f"</td></tr>")
    parts.append("<table><tr><th>bucket</th><th>host time</th>"
                 "<th>share</th><th>dispatches</th><th></th></tr>"
                 + "".join(rows) + "</table>")
    dropped = len(ranked) - 24
    if dropped > 0:
        parts.append(f"<p class='meta'>... {dropped} more bucket(s)</p>")
    return "".join(parts)


def render_html(profiles: typing.Sequence[ExperimentProfile],
                title: str = "repro experiment profiles",
                timeseries: typing.Optional[
                    typing.Mapping[str, typing.Any]] = None,
                hostprof: typing.Optional[
                    typing.Mapping[str, typing.Any]] = None) -> str:
    """Self-contained HTML dashboard for one or more experiments.

    ``timeseries`` takes an exported timeseries document (the dict
    shape written by :func:`repro.telemetry.timeseries.write_timeseries`)
    and appends a windowed-series + latency-sketch section;
    ``hostprof`` takes a :meth:`HostProfiler.to_payload` dict and
    appends a host wall-clock bucket table.
    """
    sections = []
    for profile in profiles:
        summary = profile.summary
        note = (f"<p class='meta'>{html.escape(profile.reuse_note)}</p>"
                if profile.reuse_note else "")
        if note and profile.empty:
            sections.append(f"\n<h2>{html.escape(profile.name)}</h2>\n"
                            f"{note}\n")
            continue
        mean_latency = (summary.total_latency_ns / summary.request_count
                        if summary.request_count else 0.0)
        if profile.invariant_problems:
            problems = "".join(
                f"<li>{html.escape(p)}</li>"
                for p in profile.invariant_problems[:20])
            invariant = (f"<p class='bad'>attribution invariant violated"
                         f"</p><ul>{problems}</ul>")
        else:
            invariant = (f"<p class='ok'>attribution invariant holds — "
                         f"{_fmt_ns(summary.overlap_total_ns)} "
                         f"({profile.hidden_fraction:.1%} of latency) "
                         f"hidden by interleaving</p>")
        littles = ""
        if profile.littles is not None:
            check = profile.littles
            state = ("<span class='ok'>consistent</span>"
                     if check.consistent(1e-6)
                     else "<span class='bad'>INCONSISTENT</span>")
            littles = (f"<p class='meta'>Little's law: "
                       f"L = {check.mean_depth:.4f}, "
                       f"&lambda;&middot;W = {check.predicted_depth:.4f}, "
                       f"ratio {check.ratio:.6f} — {state}</p>")
        sections.append(f"""
<h2>{html.escape(profile.name)}</h2>
<p class='meta'>window {_fmt_ns(profile.window_ns)} ·
{summary.request_count} requests · mean latency
{_fmt_ns(mean_latency)}{_quantile_meta(profile)}</p>
{note}{invariant}
<h3>latency attribution</h3>
<table><tr><th>segment</th><th>mean/request</th><th>share</th>
<th></th></tr>{_segment_rows(profile)}</table>
<h3>track utilization</h3>
<table><tr><th>track</th><th>busy</th><th>busy time</th>
<th>spans</th><th></th></tr>{_utilization_rows(profile)}</table>
{littles}
""")
    if timeseries is not None:
        sections.append(_timeseries_section(timeseries))
    if hostprof is not None:
        sections.append(_hostprof_section(hostprof))
    body = "".join(sections) if sections else "<p>no captures</p>"
    return (f"<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{html.escape(title)}</title>"
            f"<style>{_CSS}</style></head><body>"
            f"<h1>{html.escape(title)}</h1>{body}</body></html>\n")
