"""The discrete-event edge-serving simulator.

Feeds a timestamped request :class:`~repro.serving.workload.Trace` through a
micro-batcher onto a single simulated edge device.  Per decision window the
serving policy picks a :class:`~repro.serving.governor.RuntimeConfig`
(entropy thresholds + DVFS); per batch the *real* entropy controller decides
each request's exit and the hardware model prices the batch (busy time
serialises, dispatch overhead is shared —
:func:`repro.hardware.energy.batched_execution`).  Thermal and battery
state evolve alongside and feed back into the governor's observation.

The event core is vectorized: an
:class:`~repro.serving.batcher.ArrayBatcher` forms batches as index
arithmetic over the arrival array; :func:`compile_stream` reduces the
stream's logits, regenerated block by block and never held whole, to
per-head entropy and correctness; and a per-config compiled executor
(:class:`_CompiledConfig`) precomputes full-stream exit decisions,
correctness and per-path cost tables once, so the per-batch work is a few
table gathers.  Reports are bit-identical to the original per-request loop
over :class:`~repro.serving.workload.Request` objects, which lives on as
the executable spec in ``tests/spec/serving.py`` and shares this module's
per-run set-up (:meth:`ServingSimulator._setup`).

The core also supports admission control
(:class:`~repro.serving.batcher.AdmissionPolicy`) and latency-critical /
best-effort SLO classes; dropped requests never complete (NaN completion)
and latency statistics are computed over *served* requests only.

Everything is deterministic: the trace, the logits stream and every policy
decision are pure functions of the seed and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import ExitPlacement
from repro.hardware.energy import PathProfile
from repro.nn.functional import entropy_np
from repro.obs import trace as tracing
from repro.serving.batcher import AdmissionPolicy, ArrayBatcher, BatchPolicy
from repro.serving.governor import (
    GovernorObservation,
    RuntimeConfig,
    ServingPolicy,
    _profiles_for,
)
from repro.serving.scenarios import Scenario, ThermalState
from repro.serving.stream import ServingStream
from repro.serving.telemetry import ServingReport, class_latency_stats, percentile_ms
from repro.serving.workload import SLO_CLASSES, Trace
from repro.utils.validation import check_positive

@dataclass(frozen=True)
class CompiledStream:
    """Per-request quantities of a :class:`ServingStream`, precomputed once.

    The entropy controller and the correctness check are row-independent
    (softmax/entropy/argmax act per request), so evaluating them over the
    full stream up front yields bit-identical values to evaluating them
    batch by batch — which is what lets the event core replace the
    per-batch controller with table lookups.
    """

    num_exits: int
    entropy: np.ndarray  # (num_exits, n) normalized entropy per exit head
    head_correct: np.ndarray  # (num_exits + 1, n) argmax == label per head


def compile_stream(stream: ServingStream) -> CompiledStream:
    """Precompute per-head entropies and correctness for the whole stream,
    one regenerated logits block at a time."""
    num_exits = stream.num_exits
    labels = stream.labels
    n = len(labels)
    entropy = np.empty((num_exits, n))
    head_correct = np.empty((num_exits + 1, n), dtype=bool)
    for head, lo, hi, logits in stream.blocks():
        if head < num_exits:
            entropy[head, lo:hi] = entropy_np(logits, axis=-1)
        np.equal(logits.argmax(axis=-1), labels[lo:hi], out=head_correct[head, lo:hi])
    return CompiledStream(num_exits=num_exits, entropy=entropy, head_correct=head_correct)


class _CompiledConfig:
    """One ladder rung compiled against a stream: decisions + cost tables.

    ``decisions`` replicates :meth:`EntropyThresholdController.decide` over
    the full stream (first exit whose entropy clears its threshold);
    :meth:`price_span` and :meth:`price_indices` replicate
    :func:`~repro.hardware.energy.batched_execution` for a batch of those
    decisions.
    Sums run as sequential Python float sums (NOT ``np.sum``, whose
    pairwise reduction associates differently) and the shared-overhead
    path is the *first* maximum, exactly like ``max(..., key=...)`` — this
    is what keeps the compiled executor bit-identical to pricing each batch
    directly (``tests/spec/serving.py`` keeps that pricing as ``price``).

    Batches average a handful of requests, so pricing works off one
    ``bytes`` of per-request exit decisions (a placement has far fewer than
    255 exits, so a byte holds each, and indexing ``bytes`` yields Python
    ints) plus per-exit Python float tables.  ``_lat_one`` and
    ``_energy_one`` pre-fold the single-request batch: ``busy + over`` and
    ``unit + passive * over`` associate identically to the batch formulas at
    size one.
    """

    __slots__ = (
        "decisions",
        "correct",
        "_dec_req",
        "_busy_l",
        "_over_l",
        "_passive_l",
        "_unit_l",
        "_lat_one",
        "_energy_one",
    )

    def __init__(
        self,
        config: RuntimeConfig,
        profiles: list[PathProfile],
        cstream: CompiledStream,
    ):
        n = cstream.head_correct.shape[1]
        decisions = np.full(n, cstream.num_exits, dtype=np.uint8)
        undecided = np.ones(n, dtype=bool)
        for i, threshold in enumerate(config.thresholds):
            takes = undecided & (cstream.entropy[i] <= threshold)
            decisions[takes] = i
            undecided &= ~takes
        self.decisions = decisions
        self.correct = cstream.head_correct[decisions, np.arange(n)]
        self._busy_l = [float(p.busy_s) for p in profiles]
        self._over_l = [float(p.overhead_s) for p in profiles]
        self._passive_l = [float(p.passive_power_w) for p in profiles]
        self._unit_l = [
            float(p.dynamic_energy_j + p.passive_power_w * p.busy_s) for p in profiles
        ]
        self._dec_req = decisions.tobytes()
        self._lat_one = [b + o for b, o in zip(self._busy_l, self._over_l)]
        self._energy_one = [
            u + p * o for u, p, o in zip(self._unit_l, self._passive_l, self._over_l)
        ]

    def price_span(self, lo: int, hi: int) -> tuple[float, float]:
        """(latency_s, energy_j) of the contiguous batch ``[lo, hi)`` (the
        span-mode batcher's batches)."""
        dec = self._dec_req
        if hi - lo == 1:
            d = dec[lo]
            return self._lat_one[d], self._energy_one[d]
        busy = self._busy_l
        over = self._over_l
        unit = self._unit_l
        busy_sum = 0.0
        energy = 0.0
        peak = -1.0
        longest = lo
        for j in range(lo, hi):
            d = dec[j]
            busy_sum += busy[d]
            energy += unit[d]
            o = over[d]
            if o > peak:  # strict: keeps the first maximum, like argmax
                peak = o
                longest = j
        latency = busy_sum + peak
        energy += self._passive_l[dec[longest]] * peak
        return latency, energy

    def price_indices(
        self, indices: list[int], counts: list[int] | np.ndarray
    ) -> tuple[float, float]:
        """:meth:`price_span` for an explicit request-index batch.

        Fleet lanes and the single-device queue mode dispatch
        non-contiguous index batches; same tables, same sequential sums and
        strict first maximum.  ``counts`` tallies the per-exit decisions in
        the same pass (the exit usage meters).
        """
        dec = self._dec_req
        if len(indices) == 1:
            d = dec[indices[0]]
            counts[d] += 1
            return self._lat_one[d], self._energy_one[d]
        busy = self._busy_l
        over = self._over_l
        unit = self._unit_l
        busy_sum = 0.0
        energy = 0.0
        peak = -1.0
        longest = indices[0]
        for t in indices:
            d = dec[t]
            counts[d] += 1
            busy_sum += busy[d]
            energy += unit[d]
            o = over[d]
            if o > peak:  # strict: keeps the first maximum, like argmax
                peak = o
                longest = t
        latency = busy_sum + peak
        energy += self._passive_l[dec[longest]] * peak
        return latency, energy


@dataclass
class _RunState:
    """Accumulated telemetry of one serving loop (and of its spec)."""

    completion: np.ndarray  # NaN = never served (dropped at admission)
    correct: np.ndarray
    exit_counts: np.ndarray
    total_energy: float = 0.0
    battery_spent: float = 0.0
    battery_exhausted: bool = False
    num_batches: int = 0
    throttled: int = 0
    governor_decisions: int = 0
    num_dropped: int = 0
    num_deferred: int = 0
    config_usage: dict[str, int] = field(default_factory=dict)
    peak_temperature_c: float = 0.0


class ServingSimulator:
    """Replays one trace through one policy on one simulated device.

    Parameters
    ----------
    evaluator, placement:
        The deployed DyNN (supplies per-path hardware profiles).
    policy:
        Static or adaptive serving policy.
    ladder:
        The full config menu — used for scenario scaling (hottest config
        anchors the thermal model) and as the throttle fallback, even when
        the policy itself is static.
    scenario:
        Environment (thermal cap / battery budget).
    slo_s:
        Per-request completion deadline.
    window_s:
        Governor decision period.  Backlog spikes (more than two full
        batches in the system, counting the batch being formed) trigger an immediate re-decision instead of
        waiting out the window — burst onsets are reacted to at batch
        granularity.
    battery_budget_j:
        Absolute energy allowance (None = unconstrained); the harness
        derives it from the scenario's ``battery_scale``.
    admission:
        Optional queue-depth admission policy.
    """

    def __init__(
        self,
        evaluator: DynamicEvaluator,
        placement: ExitPlacement,
        policy: ServingPolicy,
        ladder: list[RuntimeConfig],
        scenario: Scenario,
        slo_s: float,
        batch_policy: BatchPolicy | None = None,
        window_s: float = 0.5,
        battery_budget_j: float | None = None,
        admission: AdmissionPolicy | None = None,
    ):
        check_positive("slo_s", slo_s)
        check_positive("window_s", window_s)
        self.evaluator = evaluator
        self.placement = placement
        self.policy = policy
        self.ladder = list(ladder)
        self.scenario = scenario
        self.slo_s = slo_s
        self.batch_policy = batch_policy or BatchPolicy()
        self.window_s = window_s
        self.battery_budget_j = battery_budget_j
        self.admission = admission
        self.emergency_backlog = 2.0 * self.batch_policy.max_batch
        self._max_power_w = max(c.expected_power_w for c in self.ladder)
        self._coolest = min(self.ladder, key=lambda c: c.expected_power_w)
        self._profiles: dict[str, list[PathProfile]] = {}

    # ------------------------------------------------------------- internals
    def _profiles_of(self, config: RuntimeConfig) -> list[PathProfile]:
        if config.name not in self._profiles:
            self._profiles[config.name] = _profiles_for(
                self.evaluator, self.placement, config.dvfs_governor()
            )
        return self._profiles[config.name]

    def _observe(
        self,
        now_s: float,
        trace: Trace,
        arrivals: np.ndarray,
        batcher,
        thermal: ThermalState | None,
        battery_spent_j: float,
    ) -> GovernorObservation:
        window_start = max(0.0, now_s - self.window_s)
        lo = int(np.searchsorted(arrivals, window_start, side="left"))
        hi = int(np.searchsorted(arrivals, now_s, side="right"))
        span = max(now_s - window_start, 1e-9)
        rate = (hi - lo) / span if now_s > 0 else trace.mean_rate_hz
        power_cap = thermal.power_cap_w(self._max_power_w) if thermal else None
        energy_cap = None
        if self.battery_budget_j is not None:
            remaining_j = max(self.battery_budget_j - battery_spent_j, 0.0)
            remaining_requests = max(
                trace.mean_rate_hz * max(trace.duration_s - now_s, 0.0), 1.0
            )
            energy_cap = remaining_j / remaining_requests
        return GovernorObservation(
            now_s=now_s,
            window_s=self.window_s,
            arrival_rate_hz=rate,
            backlog=batcher.backlog_at(now_s),
            slo_s=self.slo_s,
            temperature_c=thermal.temperature_c if thermal else 0.0,
            power_cap_w=power_cap,
            energy_cap_j=energy_cap,
            critical_backlog=batcher.critical_backlog_at(now_s),
        )

    def _initial_config(self, trace: Trace) -> RuntimeConfig:
        return self.policy.select(
            GovernorObservation(
                now_s=0.0,
                window_s=self.window_s,
                arrival_rate_hz=trace.mean_rate_hz,
                backlog=0,
                slo_s=self.slo_s,
            )
        )

    # -------------------------------------------------------------- main loop
    def run(
        self,
        trace: Trace,
        stream: ServingStream,
        platform: str = "?",
        model: str = "?",
        seed: int = 0,
    ) -> ServingReport:
        """Serve the whole trace and aggregate telemetry."""
        with tracing.span(
            "serving.run",
            pattern=trace.pattern,
            scenario=self.scenario.name,
            policy=self.policy.name,
            requests=trace.num_requests,
        ):
            return self._run(trace, stream, platform, model, seed)

    def _run(
        self,
        trace: Trace,
        stream: ServingStream,
        platform: str,
        model: str,
        seed: int,
    ) -> ServingReport:
        thermal, config, state = self._setup(trace, stream)
        self._serve(trace, stream, thermal, config, state)
        return self._build_report(trace, thermal, state, platform, model, seed)

    def _setup(
        self, trace: Trace, stream: ServingStream
    ) -> tuple[ThermalState | None, RuntimeConfig, _RunState]:
        """Check the inputs and build one run's starting state.

        Returns the device's thermal state (``None`` without a thermal
        scenario), the policy's t=0 config — already counted as the run's
        first governor decision — and empty telemetry.  The event loop and
        its executable spec both start here.
        """
        n = trace.num_requests
        if stream.num_requests != n:
            raise ValueError(f"stream carries {stream.num_requests} requests, trace has {n}")
        if stream.num_exits != self.placement.num_exits:
            raise ValueError(
                f"stream carries {stream.num_exits} exit heads but the deployed "
                f"placement expects {self.placement.num_exits}; the mounted "
                "logits stream and exit placement must describe the same DyNN"
            )
        thermal = (
            ThermalState(self.scenario.thermal, self._max_power_w)
            if self.scenario.thermal is not None
            else None
        )
        state = _RunState(
            completion=np.full(n, np.nan),
            correct=np.zeros(n, dtype=bool),
            exit_counts=np.zeros(self.placement.num_exits + 1, dtype=np.int64),
            governor_decisions=1,
        )
        tracing.count("serving.governor_decisions")
        return thermal, self._initial_config(trace), state

    def _serve(
        self,
        trace: Trace,
        stream: ServingStream,
        thermal: ThermalState | None,
        config: RuntimeConfig,
        state: _RunState,
    ) -> None:
        """The vectorized event core: ArrayBatcher + compiled executor.

        Serves the whole trace from ``config`` onwards, filling ``state``.
        """
        arrivals = trace.arrival_s
        batcher = ArrayBatcher(trace, self.batch_policy, self.admission)
        cstream = compile_stream(stream)
        compiled: dict[str, _CompiledConfig] = {}

        def compiled_of(config: RuntimeConfig) -> _CompiledConfig:
            cc = compiled.get(config.name)
            if cc is None:
                cc = _CompiledConfig(config, self._profiles_of(config), cstream)
                compiled[config.name] = cc
            return cc

        completion = state.completion
        correct = state.correct
        exit_counts = state.exit_counts
        use_span = batcher.contiguous
        clock = 0.0
        t_free = 0.0
        next_decision = self.window_s

        # Hot-loop locals: at 10⁶ requests the attribute chases and no-op
        # tracing shims are real costs, so the loop binds everything once
        # (the recorder cannot change mid-run — it is thread-scoped and this
        # loop is synchronous) and writes the meters back at the end.
        recorder = tracing.active()
        policy_select = self.policy.select
        window_s = self.window_s
        emergency_backlog = self.emergency_backlog
        battery_budget = self.battery_budget_j
        config_usage = state.config_usage
        backlog_at = batcher.backlog_at
        num_batches = 0
        total_energy = 0.0
        battery_spent = 0.0
        # Span-mode writes of `correct`/`exit_counts` are flushed per *run*
        # of consecutive batches priced by the same compiled config — one
        # slice copy and one bincount per config stretch instead of per
        # batch (a static nominal run flushes exactly once).
        run_cc: _CompiledConfig | None = None
        run_lo = run_hi = 0

        def flush_run() -> None:
            if run_cc is not None and run_hi > run_lo:
                correct[run_lo:run_hi] = run_cc.correct[run_lo:run_hi]
                counts = np.bincount(
                    run_cc.decisions[run_lo:run_hi], minlength=len(exit_counts)
                )
                np.add(exit_counts, counts, out=exit_counts)

        while True:
            if use_span:
                formed = batcher.next_span(t_free)
            else:
                formed = batcher.next_batch(t_free)
            if formed is None:
                break
            if use_span:
                start, lo, hi = formed
                size = hi - lo
            else:
                start, indices = formed
                size = len(indices)
            if thermal is not None and start > clock:
                thermal.advance(0.0, start - clock)  # idle: device cools
            # Spike check counts the in-flight batch: the batcher already
            # popped it off the queue, but it is still unserved work.
            spike = backlog_at(start) + size > emergency_backlog
            if start >= next_decision or spike:
                state.battery_spent = battery_spent
                obs = self._observe(
                    start, trace, arrivals, batcher, thermal, battery_spent
                )
                config = policy_select(obs)
                state.governor_decisions += 1
                if recorder is not None:
                    recorder.count("serving.governor_decisions", 1)
                next_decision = start + window_s

            active = config
            if thermal is not None and thermal.throttled:
                active = self._coolest
                state.throttled += 1
                if recorder is not None:
                    recorder.count("serving.throttled_batches", 1)
            name = active.name
            config_usage[name] = config_usage.get(name, 0) + 1
            if recorder is not None:
                recorder.count("serving.batches", 1)
                recorder.observe("serving.batch_size", size)

            cc = compiled_of(active)
            if use_span:
                latency, energy = cc.price_span(lo, hi)
                if cc is run_cc and lo == run_hi:
                    run_hi = hi
                else:
                    flush_run()
                    run_cc, run_lo, run_hi = cc, lo, hi
                completion[lo:hi] = start + latency
            else:
                latency, energy = cc.price_indices(indices, exit_counts)
                completion[indices] = start + latency
                correct[indices] = cc.correct[indices]

            end = start + latency
            total_energy += energy
            battery_spent += energy
            if battery_budget is not None and battery_spent > battery_budget:
                state.battery_exhausted = True
            if thermal is not None and latency > 0:
                thermal.advance(energy / latency, latency)
            clock = end
            t_free = end
            num_batches += 1

        flush_run()
        state.num_batches = num_batches
        state.total_energy = total_energy
        state.battery_spent = battery_spent
        state.num_dropped = batcher.num_dropped
        state.num_deferred = batcher.num_deferred

    def _build_report(
        self,
        trace: Trace,
        thermal: ThermalState | None,
        state: _RunState,
        platform: str,
        model: str,
        seed: int,
    ) -> ServingReport:
        n = trace.num_requests
        arrivals = trace.arrival_s
        completion = state.completion
        served = ~np.isnan(completion)
        num_served = int(served.sum())
        latencies = completion[served] - arrivals[served]
        makespan = max(
            float(np.max(completion[served])) if num_served else 0.0, trace.duration_s
        )
        num_batches = state.num_batches
        return ServingReport(
            pattern=trace.pattern,
            scenario=self.scenario.name,
            policy=self.policy.name,
            platform=platform,
            model=model,
            seed=seed,
            slo_ms=self.slo_s * 1e3,
            num_requests=n,
            duration_s=trace.duration_s,
            offered_rate_rps=trace.mean_rate_hz,
            throughput_rps=num_served / makespan if makespan > 0 else 0.0,
            num_batches=num_batches,
            mean_batch_size=num_served / num_batches if num_batches else 0.0,
            latency_ms_mean=float(latencies.mean() * 1e3) if num_served else 0.0,
            latency_ms_p50=percentile_ms(latencies, 50),
            latency_ms_p95=percentile_ms(latencies, 95),
            latency_ms_p99=percentile_ms(latencies, 99),
            deadline_miss_rate=float((latencies > self.slo_s).mean())
            if num_served
            else 0.0,
            energy_per_request_j=state.total_energy / num_served if num_served else 0.0,
            total_energy_j=state.total_energy,
            switching_energy_j=0.0,
            accuracy=float(state.correct[served].mean()) if num_served else 0.0,
            exit_usage=[
                float(c) / num_served if num_served else 0.0 for c in state.exit_counts
            ],
            config_usage=state.config_usage,
            governor_decisions=state.governor_decisions,
            throttled_batches=state.throttled,
            peak_temperature_c=thermal.peak_c if thermal is not None else 0.0,
            battery_budget_j=self.battery_budget_j or 0.0,
            battery_spent_j=state.battery_spent
            if self.battery_budget_j is not None
            else 0.0,
            battery_exhausted=state.battery_exhausted,
            num_served=num_served,
            num_dropped=state.num_dropped,
            num_deferred=state.num_deferred,
            drop_rate=state.num_dropped / n if n else 0.0,
            class_stats=class_latency_stats(
                trace.slo_class, SLO_CLASSES, arrivals, completion, self.slo_s
            ),
        )
