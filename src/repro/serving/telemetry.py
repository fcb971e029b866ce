"""SLO telemetry for serving runs: percentiles, misses, energy, exits.

:func:`run_summary` builds the run-level fields that the single-device
:class:`ServingReport` and the fleet's ``FleetReport`` share from one
latency array; :func:`latency_summary`, which also serves each fleet device
and SLO class, partitions its input in place.

:class:`ServingReport` is deliberately plain (floats, lists, string-keyed
dicts) so it survives ``to_jsonable`` round-trips — serving cells are cached
in the persistent :class:`~repro.engine.cache.ResultCache` as JSON and
rebuilt with ``from_jsonable``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serving.workload import SLO_CLASSES, Trace

_LATENCY_FIELDS = (
    "latency_ms_mean", "latency_ms_p50", "latency_ms_p95", "latency_ms_p99", "deadline_miss_rate"
)


def latency_summary(latencies_s: np.ndarray, slo_s: float) -> dict[str, float]:
    """Mean, p50/p95/p99 (ms) and deadline-miss rate of served latencies,
    keyed by their report field names (all 0 when nothing was served).
    The percentiles partition ``latencies_s`` in place after the mean and
    miss rate are taken: the input comes back reordered."""
    if not len(latencies_s):
        return dict.fromkeys(_LATENCY_FIELDS, 0.0)
    mean = float(latencies_s.mean() * 1e3)
    miss_rate = float((latencies_s > slo_s).mean())
    percentiles = np.percentile(latencies_s, (50, 95, 99), overwrite_input=True) * 1e3
    return dict(zip(_LATENCY_FIELDS, [mean, *percentiles.tolist(), miss_rate]))


def class_latency_stats(
    slo_classes: np.ndarray,
    class_names: tuple[str, ...],
    latencies_s: np.ndarray,
    slo_s: float,
) -> dict[str, dict]:
    """Per-SLO-class latency/miss/drop statistics over served requests.

    ``latencies_s`` is each request's completion minus arrival, NaN for
    never-served (dropped) requests; every latency statistic is computed
    over the served subset only, so admission drops can never manufacture
    negative latencies.  Keys are stable (one entry per class name) so
    reports keep a uniform schema whether or not the trace carries
    latency-critical traffic.  Each class selects its served latencies
    from the whole-trace array, which is only read.
    """
    served = ~np.isnan(latencies_s)
    stats: dict[str, dict] = {}
    for code, name in enumerate(class_names):
        mask = slo_classes == code
        total = int(mask.sum())
        mask &= served
        latencies = latencies_s[mask]
        num_served = len(latencies)
        stats[name] = {
            "num_requests": total,
            "num_served": num_served,
            "num_dropped": total - num_served,
            **latency_summary(latencies, slo_s),
        }
    return stats


def run_summary(
    trace: Trace,
    completion_s: np.ndarray,
    correct: np.ndarray,
    exit_counts: np.ndarray,
    total_energy_j: float,
    slo_s: float,
) -> tuple[dict, float]:
    """The run-level report fields both serving engines share, and the
    makespan (the trace's duration or the last completion, if later).

    ``completion_s`` holds NaN for requests never served; every field
    covers served requests only.  The latencies are computed once: the
    class statistics read them, then the run-level summary reorders them
    (a served subset of them, when some request was dropped).
    """
    served = ~np.isnan(completion_s)
    num_served = int(served.sum())
    makespan = max(float(np.nanmax(completion_s)) if num_served else 0.0, trace.duration_s)
    latencies = completion_s - trace.arrival_s  # NaN where never served
    class_stats = class_latency_stats(trace.slo_class, SLO_CLASSES, latencies, slo_s)
    if num_served < len(latencies):
        latencies = latencies[served]
    fields = {
        "num_served": num_served,
        "throughput_rps": num_served / makespan if makespan > 0 else 0.0,
        **latency_summary(latencies, slo_s),
        "energy_per_request_j": total_energy_j / num_served if num_served else 0.0,
        "accuracy": float(correct[served].mean()) if num_served else 0.0,
        "exit_usage": [float(c) / num_served if num_served else 0.0 for c in exit_counts],
        "class_stats": class_stats,
    }
    return fields, makespan


@dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one serving run (one trace × one policy)."""

    # Identity
    pattern: str
    scenario: str
    policy: str
    platform: str
    model: str
    seed: int
    slo_ms: float
    # Traffic
    num_requests: int
    duration_s: float
    offered_rate_rps: float
    throughput_rps: float
    num_batches: int
    mean_batch_size: float
    # Latency / SLO
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    deadline_miss_rate: float
    # Energy / accuracy
    energy_per_request_j: float
    total_energy_j: float
    switching_energy_j: float
    accuracy: float
    exit_usage: list[float] = field(default_factory=list)
    # Governor / environment
    config_usage: dict[str, int] = field(default_factory=dict)  # batches per config
    governor_decisions: int = 0
    throttled_batches: int = 0
    peak_temperature_c: float = 0.0
    battery_budget_j: float = 0.0  # 0 when the scenario has no battery
    battery_spent_j: float = 0.0
    battery_exhausted: bool = False
    # Admission control / SLO classes (PR 8). num_served + num_dropped ==
    # num_requests; latency stats above cover served requests only.
    num_served: int = 0
    num_dropped: int = 0
    num_deferred: int = 0  # parked by a defer-mode admission gate at least once
    drop_rate: float = 0.0
    class_stats: dict[str, dict] = field(default_factory=dict)  # per SLO class


def _run_lines(report, header: str, energy_note: str = "") -> list[str]:
    """The run-level lines both renderers print under their header."""
    lines = [
        header,
        f"  requests        {report.num_requests} over {report.duration_s:.1f}s "
        f"(offered {report.offered_rate_rps:.1f} rps, served {report.throughput_rps:.1f} rps)",
        f"  latency ms      mean {report.latency_ms_mean:.1f}  p50 {report.latency_ms_p50:.1f}  "
        f"p95 {report.latency_ms_p95:.1f}  p99 {report.latency_ms_p99:.1f}",
        f"  SLO {report.slo_ms:.0f}ms       miss rate {report.deadline_miss_rate * 100:.1f}%",
    ]
    if report.num_dropped or report.num_deferred:
        lines.append(
            f"  admission       {report.num_served} served, "
            f"{report.num_dropped} dropped ({report.drop_rate * 100:.1f}%), "
            f"{report.num_deferred} deferred"
        )
    stats = report.class_stats
    critical = stats.get("latency_critical")
    if critical and critical["num_requests"]:
        for name, cls in stats.items():
            lines.append(
                f"  {name:<15s} {cls['num_served']}/{cls['num_requests']} served  "
                f"p95 {cls['latency_ms_p95']:.1f}ms  "
                f"miss {cls['deadline_miss_rate'] * 100:.1f}%"
            )
    return lines + [
        f"  energy          {report.energy_per_request_j * 1e3:.1f} mJ/request "
        f"({report.total_energy_j:.2f} J total{energy_note})",
        f"  accuracy        {report.accuracy * 100:.1f}%",
        f"  exits           " + " ".join(f"{u * 100:.0f}%" for u in report.exit_usage),
    ]


def _battery_lines(report) -> list[str]:
    if not report.battery_budget_j:
        return []
    return [
        f"  battery         spent {report.battery_spent_j:.2f} / "
        f"{report.battery_budget_j:.2f} J"
        + ("  EXHAUSTED" if report.battery_exhausted else "")
    ]


def render_report(report: ServingReport) -> str:
    """One run as a human-readable block."""
    lines = _run_lines(
        report,
        f"{report.pattern} x {report.scenario} x {report.policy} "
        f"({report.model} on {report.platform}, seed {report.seed})",
        f", switch {report.switching_energy_j * 1e3:.1f} mJ",
    )
    lines.append(f"  batches         {report.num_batches} (mean size {report.mean_batch_size:.1f})")
    if report.config_usage:
        top = sorted(report.config_usage.items(), key=lambda kv: -kv[1])[:4]
        lines.append(
            "  configs         "
            + "  ".join(f"{name}:{count}" for name, count in top)
            + f"  ({report.governor_decisions} decisions)"
        )
    if report.throttled_batches:
        lines.append(
            f"  thermal         {report.throttled_batches} throttled batches, "
            f"peak {report.peak_temperature_c:.1f}C"
        )
    elif report.peak_temperature_c:
        lines.append(f"  thermal         peak {report.peak_temperature_c:.1f}C")
    return "\n".join(lines + _battery_lines(report))


def render_fleet_report(report) -> str:
    """One fleet run (:class:`~repro.serving.fleet.FleetReport`) as text."""
    lines = _run_lines(
        report,
        f"{report.pattern} x {report.scenario} x {report.router} router "
        f"({report.model} on [{', '.join(report.platforms)}], "
        f"{report.policy} governors, seed {report.seed})",
    )
    for device in report.devices:
        lines.append(
            f"  - {device.platform:<12s} {device.requests:>5d} reqs "
            f"({device.share * 100:4.1f}%)  util {device.utilization * 100:5.1f}%  "
            f"p95 {device.latency_ms_p95:7.1f}ms  "
            f"{device.energy_per_request_j * 1e3:6.1f} mJ/req"
            + (f"  {device.throttled_batches} throttled" if device.throttled_batches else "")
        )
    return "\n".join(lines + _battery_lines(report))


def render_router_comparison(baseline, candidate) -> str:
    """Candidate-vs-baseline router summary for one fleet cell."""
    if baseline.total_energy_j > 0:
        energy_delta = (1.0 - candidate.total_energy_j / baseline.total_energy_j) * 100
    else:
        energy_delta = 0.0
    p95_delta = baseline.latency_ms_p95 - candidate.latency_ms_p95
    return (
        f"{candidate.router} vs {baseline.router} [{baseline.pattern} x "
        f"{baseline.scenario}]: p95 {candidate.latency_ms_p95:.1f} vs "
        f"{baseline.latency_ms_p95:.1f} ms ({p95_delta:+.1f} ms), "
        f"fleet energy {candidate.total_energy_j:.2f} vs "
        f"{baseline.total_energy_j:.2f} J ({energy_delta:+.1f}% saved), "
        f"miss rate {candidate.deadline_miss_rate * 100:.1f}% vs "
        f"{baseline.deadline_miss_rate * 100:.1f}%"
    )


def render_comparison(static: ServingReport, adaptive: ServingReport) -> str:
    """Adaptive vs static summary line for one (pattern, scenario) cell."""
    miss_delta = (static.deadline_miss_rate - adaptive.deadline_miss_rate) * 100
    if static.energy_per_request_j > 0:
        energy_delta = (
            1.0 - adaptive.energy_per_request_j / static.energy_per_request_j
        ) * 100
    else:
        energy_delta = 0.0
    return (
        f"adaptive vs static [{static.pattern} x {static.scenario}]: "
        f"deadline misses {adaptive.deadline_miss_rate * 100:.1f}% vs "
        f"{static.deadline_miss_rate * 100:.1f}% ({miss_delta:+.1f} pts), "
        f"energy/request {adaptive.energy_per_request_j * 1e3:.1f} vs "
        f"{static.energy_per_request_j * 1e3:.1f} mJ ({energy_delta:+.1f}% saved)"
    )
