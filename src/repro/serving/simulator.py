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
correctness and per-path cost tables once, so pricing a batch
(:meth:`_CompiledConfig.price`) is a few table lookups; a
:class:`_ServedLog` settles completion, correctness and exit counts once
per run.  The fleet's lanes serve through the same rungs, pricing and log.
Reports are bit-identical to the original per-request loop over
:class:`~repro.serving.workload.Request` objects, which lives on as the
executable spec in ``tests/spec/serving.py`` and shares this module's
per-run set-up (:meth:`ServingSimulator._setup`).

The core also supports admission control
(:class:`~repro.serving.batcher.AdmissionPolicy`) and latency-critical /
best-effort SLO classes; dropped requests never complete (NaN completion)
and latency statistics are computed over *served* requests only.

Everything is deterministic: the trace, the logits stream and every policy
decision are pure functions of the seed and configuration.
"""

from __future__ import annotations

from array import array
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
from repro.serving.telemetry import ServingReport, run_summary
from repro.serving.workload import Trace
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
    :meth:`price` replicates :func:`~repro.hardware.energy.batched_execution`
    for a batch of those decisions.
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

    def price(self, requests: range | list[int]) -> tuple[float, float]:
        """(latency_s, energy_j) of one batch: a ``range`` of request indices
        (span mode) or a list of them (queue mode, fleet lanes)."""
        dec = self._dec_req
        if len(requests) == 1:
            d = dec[requests[0]]
            return self._lat_one[d], self._energy_one[d]
        busy = self._busy_l
        over = self._over_l
        unit = self._unit_l
        busy_sum = 0.0
        energy = 0.0
        peak = -1.0
        longest = 0
        for t in requests:
            d = dec[t]
            busy_sum += busy[d]
            energy += unit[d]
            o = over[d]
            if o > peak:  # strict: keeps the first maximum, like argmax
                peak = o
                longest = d
        latency = busy_sum + peak
        energy += self._passive_l[longest] * peak
        return latency, energy


class _RungMemo:
    """One device's rungs for one run (the simulator's or a fleet lane's):
    each config compiled against the run's stream once, by name.  Every
    run builds its own, so no rung outlives the stream it was compiled
    against."""

    def __init__(
        self, evaluator: DynamicEvaluator, placement: ExitPlacement, cstream: CompiledStream
    ):
        self.evaluator = evaluator
        self.placement = placement
        self.cstream = cstream
        self._compiled: dict[str, _CompiledConfig] = {}

    def compiled_of(self, config: RuntimeConfig) -> _CompiledConfig:
        compiled = self._compiled.get(config.name)
        if compiled is None:
            profiles = _profiles_for(self.evaluator, self.placement, config.dvfs_governor())
            compiled = self._compiled[config.name] = _CompiledConfig(
                config, profiles, self.cstream
            )
        return compiled


class _ServedLog:
    """Every batch one engine serves in a run, settled into telemetry once.

    :meth:`add` appends each priced batch to typed buffers: the slot of the
    rung that priced it, its size and its completion instant.  While the
    batches are ranges that tile ``[0, hi)`` in order (the span-mode
    batcher's), the request order stays implicit; from the first other
    batch on, the log keeps every served request index, in order, in one
    ``array('q')``.  :meth:`settle` walks the runs of consecutive batches
    priced by one rung: per run, one completion write, one correctness copy
    and one ``bincount``.  No Python object is kept per batch or per
    request.
    """

    __slots__ = ("_rungs", "_slot_of", "_slots", "_sizes", "_ends", "_requests", "_tiled")

    def __init__(self):
        self._rungs: list[_CompiledConfig] = []
        self._slot_of: dict[_CompiledConfig, int] = {}
        self._slots = array("H")
        self._sizes = array("I")
        self._ends = array("d")
        self._requests: array | None = None  # None while the batches tile [0, _tiled)
        self._tiled = 0

    def add(self, rung: _CompiledConfig, requests: range | list[int], end: float) -> None:
        slot = self._slot_of.get(rung)
        if slot is None:
            slot = self._slot_of[rung] = len(self._rungs)
            self._rungs.append(rung)
        self._slots.append(slot)
        self._sizes.append(len(requests))
        self._ends.append(end)
        if self._requests is None:
            if type(requests) is range and requests.start == self._tiled:
                self._tiled = requests.stop
                return
            self._requests = array("q", range(self._tiled))
        self._requests.extend(requests)

    def settle(self, completion: np.ndarray, correct: np.ndarray, heads: int) -> np.ndarray:
        """Write each logged request's completion instant and correctness;
        return the per-exit counts (``heads`` = exits + 1)."""
        counts = np.zeros(heads, dtype=np.int64)
        if not self._slots:
            return counts
        slots = np.frombuffer(self._slots, dtype=np.uint16)
        sizes = np.frombuffer(self._sizes, dtype=np.uint32)
        ends = np.frombuffer(self._ends)
        requests = None if self._requests is None else np.frombuffer(self._requests, np.int64)
        # Runs of one rung: their first batches, and their first requests.
        firsts = np.concatenate(([0], np.flatnonzero(slots[1:] != slots[:-1]) + 1))
        run_sizes = np.add.reduceat(sizes, firsts, dtype=np.int64)
        batch_edges = [*firsts.tolist(), len(slots)]
        edges = [0, *np.cumsum(run_sizes).tolist()]
        for i, slot in enumerate(slots[firsts].tolist()):
            lo, hi = edges[i], edges[i + 1]
            seg = slice(lo, hi) if requests is None else requests[lo:hi]
            batches = slice(batch_edges[i], batch_edges[i + 1])
            rung = self._rungs[slot]
            completion[seg] = np.repeat(ends[batches], sizes[batches])
            correct[seg] = rung.correct[seg]
            counts += np.bincount(rung.decisions[seg], minlength=heads)
        return counts


def _check_stream(stream: ServingStream, trace: Trace, placement: ExitPlacement) -> None:
    """Refuse a stream that does not describe the trace and the deployed DyNN."""
    n = trace.num_requests
    if stream.num_requests != n:
        raise ValueError(f"stream carries {stream.num_requests} requests, trace has {n}")
    if stream.num_exits != placement.num_exits:
        raise ValueError(
            f"stream carries {stream.num_exits} exit heads but the deployed "
            f"placement expects {placement.num_exits}; the mounted logits "
            "stream and exit placement must describe the same DyNN"
        )


def _first_observation(window_s: float, rate_hz: float, slo_s: float) -> GovernorObservation:
    """A device's t=0 observation: the expected rate, no backlog, no caps."""
    return GovernorObservation(
        now_s=0.0, window_s=window_s, arrival_rate_hz=rate_hz, backlog=0, slo_s=slo_s
    )


def _energy_cap_j(budget_j: float | None, spent_j: float, trace: Trace, now_s: float):
    """Per-request energy the battery still allows: what is left of the
    budget over the requests the trace still expects (None: no battery)."""
    if budget_j is None:
        return None
    remaining_j = max(budget_j - spent_j, 0.0)
    remaining_requests = max(trace.mean_rate_hz * max(trace.duration_s - now_s, 0.0), 1.0)
    return remaining_j / remaining_requests


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

    # ------------------------------------------------------------- internals
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
        return GovernorObservation(
            now_s=now_s,
            window_s=self.window_s,
            arrival_rate_hz=rate,
            backlog=batcher.backlog_at(now_s),
            slo_s=self.slo_s,
            temperature_c=thermal.temperature_c if thermal else 0.0,
            power_cap_w=power_cap,
            energy_cap_j=_energy_cap_j(self.battery_budget_j, battery_spent_j, trace, now_s),
            critical_backlog=batcher.critical_backlog_at(now_s),
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
        _check_stream(stream, trace, self.placement)
        n = trace.num_requests
        state = _RunState(
            completion=np.full(n, np.nan),
            correct=np.zeros(n, dtype=bool),
            exit_counts=np.zeros(self.placement.num_exits + 1, dtype=np.int64),
            governor_decisions=1,
        )
        tracing.count("serving.governor_decisions")
        config = self.policy.select(
            _first_observation(self.window_s, trace.mean_rate_hz, self.slo_s)
        )
        return self.scenario.thermal_state(self._max_power_w), config, state

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
        Span-mode batches are ``range`` objects, queue-mode batches lists;
        pricing and the log take either.
        """
        arrivals = trace.arrival_s
        batcher = ArrayBatcher(trace, self.batch_policy, self.admission)
        rungs = _RungMemo(self.evaluator, self.placement, compile_stream(stream))
        log = _ServedLog()
        next_batch = batcher.next_span if batcher.contiguous else batcher.next_batch
        clock = 0.0
        t_free = 0.0
        next_decision = self.window_s

        # Hot-loop locals: at 10⁶ requests the attribute chases and no-op
        # tracing shims are real costs, so the loop binds everything once
        # (the recorder cannot change mid-run — it is thread-scoped and this
        # loop is synchronous) and writes the meters back at the end.
        recorder = tracing.active()
        policy_select = self.policy.select
        compiled_of = rungs.compiled_of
        log_add = log.add
        window_s = self.window_s
        emergency_backlog = self.emergency_backlog
        battery_budget = self.battery_budget_j
        config_usage = state.config_usage
        backlog_at = batcher.backlog_at
        num_batches = 0
        total_energy = 0.0
        battery_spent = 0.0
        # The active config changes only at governor decisions and throttle
        # edges, so its compiled rung is looked up only then.
        last_active: RuntimeConfig | None = None
        cc: _CompiledConfig | None = None

        while (formed := next_batch(t_free)) is not None:
            start, requests = formed
            size = len(requests)
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

            if active is not last_active:
                last_active = active
                cc = compiled_of(active)
            latency, energy = cc.price(requests)
            end = start + latency
            log_add(cc, requests, end)
            total_energy += energy
            battery_spent += energy
            if battery_budget is not None and battery_spent > battery_budget:
                state.battery_exhausted = True
            if thermal is not None and latency > 0:
                thermal.advance(energy / latency, latency)
            clock = end
            t_free = end
            num_batches += 1

        state.exit_counts = log.settle(
            state.completion, state.correct, len(state.exit_counts)
        )
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
        summary, _ = run_summary(
            trace, state.completion, state.correct, state.exit_counts,
            state.total_energy, self.slo_s,
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
            num_batches=num_batches,
            mean_batch_size=summary["num_served"] / num_batches if num_batches else 0.0,
            total_energy_j=state.total_energy,
            switching_energy_j=0.0,
            config_usage=state.config_usage,
            governor_decisions=state.governor_decisions,
            throttled_batches=state.throttled,
            peak_temperature_c=thermal.peak_c if thermal is not None else 0.0,
            battery_budget_j=self.battery_budget_j or 0.0,
            battery_spent_j=state.battery_spent
            if self.battery_budget_j is not None
            else 0.0,
            battery_exhausted=state.battery_exhausted,
            num_dropped=state.num_dropped,
            num_deferred=state.num_deferred,
            drop_rate=state.num_dropped / n if n else 0.0,
            **summary,
        )
