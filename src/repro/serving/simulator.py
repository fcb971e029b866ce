"""The discrete-event edge-serving simulator, and the device both serving
engines share.

Feeds a timestamped request :class:`~repro.serving.workload.Trace` through a
micro-batcher onto a single simulated edge device.  Per decision window the
serving policy picks a :class:`~repro.serving.governor.RuntimeConfig`
(entropy thresholds + DVFS); per batch the *real* entropy controller decides
each request's exit and the hardware model prices the batch (busy time
serialises, dispatch overhead is shared —
:func:`repro.hardware.energy.batched_execution`).  Thermal and battery
state evolve alongside and feed back into the governor's observation.

:class:`ServingDevice` is everything one device does to a batch, and both
engines serve every batch through it: :class:`ServingSimulator` is an
:class:`~repro.serving.batcher.ArrayBatcher`'s loop over one device, and
each fleet lane (:class:`~repro.serving.fleet.DeviceLane`) is a device
plus its request books.  The core is vectorized: the batcher forms batches
as index arithmetic over the arrival array; :func:`compile_stream` walks
the stream's logits once, regenerated block by block and never held whole,
writing an exit byte and a correctness flag per request for each ladder
threshold tuple; each compiled rung (:class:`_CompiledConfig`) shares its
tuple's decisions and precomputes per-path cost tables, so pricing a batch
is a few table lookups; and a :class:`_ServedLog` settles completion,
correctness and exit counts once per run.  Reports are bit-identical to
the original per-request loop over :class:`~repro.serving.workload.Request`
objects, the executable spec in ``tests/spec/serving.py``, which shares
:meth:`ServingSimulator._setup` and :meth:`ServingDevice.observe`.

The core also supports admission control
(:class:`~repro.serving.batcher.AdmissionPolicy`) and latency-critical /
best-effort SLO classes; dropped requests never complete (NaN completion)
and latency statistics are computed over *served* requests only.

Everything is deterministic: the trace, the logits stream and every policy
decision are pure functions of the seed and configuration.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

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
from repro.serving.scenarios import Scenario
from repro.serving.stream import ServingStream
from repro.serving.telemetry import ServingReport, run_summary
from repro.serving.workload import Trace
from repro.utils.validation import check_positive

@dataclass(frozen=True)
class CompiledStream:
    """Each threshold tuple's exit decisions over a :class:`ServingStream`.

    The entropy controller and the correctness check are row-independent
    (softmax/entropy/argmax act per request), so deciding the full stream
    up front yields bit-identical decisions to deciding it batch by batch —
    which is what lets the event core replace the per-batch controller with
    table lookups.  DVFS tiers and fleet lanes share one table per tuple.
    """

    tables: dict  # thresholds -> (exit bytes, correctness)

    def decide(self, thresholds: tuple[float, ...]) -> tuple[bytes, np.ndarray]:
        """Each request's exit (a byte: the first exit whose entropy clears
        its threshold, else the final head) and whether it is correct."""
        table = self.tables.get(thresholds)
        if table is None:
            raise ValueError(
                f"stream not compiled for thresholds {thresholds}; "
                f"compiled for {list(self.tables)}"
            )
        return table


def compile_stream(stream: ServingStream, thresholds: list[tuple[float, ...]]) -> CompiledStream:
    """Decide every request under each distinct tuple in ``thresholds`` in
    one walk over the stream's regenerated logits blocks, building no
    per-head × per-request array.

    Per tuple, each request's exit byte starts at the final head, and the
    request is undecided while it stays there.  On an exit head's block the
    undecided requests whose entropy is at most the head's threshold take
    that exit and the head's correctness; the final head's correctness fills
    the rest."""
    num_exits, labels, n = stream.num_exits, stream.labels, stream.num_requests
    tables = {t: (np.full(n, num_exits, dtype=np.uint8), np.zeros(n, bool)) for t in thresholds}
    for head, lo, hi, logits in stream.blocks():
        head_correct = logits.argmax(axis=-1) == labels[lo:hi]
        entropy = entropy_np(logits, axis=-1) if head < num_exits else None
        for t, (exits, correct) in tables.items():
            block_exits, block_correct = exits[lo:hi], correct[lo:hi]
            undecided = block_exits == num_exits
            if entropy is None:
                np.copyto(block_correct, head_correct, where=undecided)
            else:
                takes = undecided & (entropy <= t[head])
                block_exits[takes] = head
                np.copyto(block_correct, head_correct, where=takes)
    return CompiledStream({t: (exits.tobytes(), correct) for t, (exits, correct) in tables.items()})


class _CompiledConfig:
    """One ladder rung compiled against a stream: decisions + cost tables.

    ``decisions`` replicates :meth:`EntropyThresholdController.decide` over
    the full stream (a view of :meth:`CompiledStream.decide`'s bytes);
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
        self._dec_req, self.correct = cstream.decide(config.thresholds)
        self.decisions = np.frombuffer(self._dec_req, dtype=np.uint8)
        self._busy_l = [float(p.busy_s) for p in profiles]
        self._over_l = [float(p.overhead_s) for p in profiles]
        self._passive_l = [float(p.passive_power_w) for p in profiles]
        self._unit_l = [
            float(p.dynamic_energy_j + p.passive_power_w * p.busy_s) for p in profiles
        ]
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
    """One device's rungs for one run: each config compiled against the
    run's stream once, by name.  Every run builds its own and
    :meth:`ServingDevice.settle` drops it, so no rung outlives its run."""

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
    rung that priced it, its size and its completion instant.  A fleet lane
    hands over its book, whose dispatched prefix is the served order.
    Otherwise, while the batches are ranges that tile ``[0, hi)`` in order
    (the span-mode batcher's), the request order stays implicit; from the
    first other batch on, the log keeps every served request index, in
    order, in one ``array('q')``.  :meth:`settle` walks the runs of
    consecutive batches priced by one rung: per run, one completion write,
    one correctness copy and one ``bincount``.  No Python object is kept
    per batch or per request.
    """

    __slots__ = ("_rungs", "_slot_of", "_slots", "_sizes", "_ends", "_requests", "_kept", "_tiled")

    def __init__(self, served_order: array | None = None):
        self._rungs: list[_CompiledConfig] = []
        self._slot_of: dict[_CompiledConfig, int] = {}
        self._slots = array("H")
        self._sizes = array("I")
        self._ends = array("d")
        # None while the batches tile [0, _tiled); a handed-over book is only read.
        self._requests: array | None = served_order
        self._kept = served_order is not None
        self._tiled = 0

    def add(self, rung: _CompiledConfig, requests: range | list[int], end: float) -> None:
        slot = self._slot_of.get(rung)
        if slot is None:
            slot = self._slot_of[rung] = len(self._rungs)
            self._rungs.append(rung)
        self._slots.append(slot)
        self._sizes.append(len(requests))
        self._ends.append(end)
        if self._kept:
            return
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
        # Summed in the buffer's own dtype; only the per-run sums widen.
        run_sizes = np.add.reduceat(sizes, firsts, dtype=np.uint32).astype(np.int64)
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


class Battery:
    """One run's energy allowance: a single device's, or a whole fleet's,
    whose lanes all draw on it.  ``budget_j`` is ``None`` without a
    battery; the meter runs either way."""

    def __init__(self, budget_j: float | None):
        self.budget_j = budget_j
        self.spent_j = 0.0
        self.exhausted = False

    def cap_j(self, trace: Trace, now_s: float) -> float | None:
        """Per-request energy the battery still allows: what is left of the
        budget over the requests the trace still expects (None: no battery)."""
        if self.budget_j is None:
            return None
        remaining_j = max(self.budget_j - self.spent_j, 0.0)
        remaining_requests = max(trace.mean_rate_hz * max(trace.duration_s - now_s, 0.0), 1.0)
        return remaining_j / remaining_requests

    def summary(self) -> dict:
        """The battery fields of a run report."""
        has_battery = self.budget_j is not None
        return {
            "battery_budget_j": self.budget_j if has_battery else 0.0,
            "battery_spent_j": self.spent_j if has_battery else 0.0,
            "battery_exhausted": self.exhausted,
        }


class ServingDevice:
    """One simulated edge device: everything it does to a batch.

    A run is :meth:`start` (rungs for the compiled stream, the thermal
    state, the t=0 governor decision), :meth:`serve` per batch, then
    :meth:`settle`, which writes completion, correctness and exit counts and
    lets go of the run's rungs, compiled stream, log and queue.  The queue
    is what :meth:`observe` reads (``arrival_rate_hz``, ``backlog_at``,
    ``critical_backlog_at``): the batcher, or a fleet lane's own books.
    ``on_decision(device, now_s)``, when set, runs right after each
    re-decision, before the batch is priced (the fleet's work stealing).
    Tracing counters go under ``counters`` (``serving`` or ``fleet``).
    """

    request_indices: array | None = None  # a lane's book of the requests it was handed

    def __init__(
        self, evaluator: DynamicEvaluator, placement: ExitPlacement, policy: ServingPolicy,
        ladder: list[RuntimeConfig], slo_s: float, window_s: float, max_batch: int,
        counters: str = "serving",
    ):
        self.evaluator = evaluator
        self.placement = placement
        self.policy = policy
        # The hottest rung anchors the thermal model; the coolest is the
        # throttle fallback, even under a static policy.
        self.max_power_w = max(c.expected_power_w for c in ladder)
        self.coolest = min(ladder, key=lambda c: c.expected_power_w)
        self.slo_s = slo_s
        self.window_s = window_s
        # The governor re-decides early once more than two full batches are
        # in the system, counting the batch being served.
        self.emergency_backlog = 2.0 * max_batch
        self.on_decision = None
        self._decision_counter = f"{counters}.governor_decisions"
        self._throttle_counter = f"{counters}.throttled_batches"
        self._batch_counters = (f"{counters}.batches",)
        self._size_histogram = f"{counters}.batch_size"
        # One run's state, set by start() and released by settle().
        self.queue = self.trace = self.battery = self.thermal = self.rungs = self.log = None
        self.config = self._recorder = self._last_active = self._rung = None
        self.rate_hz = 0.0
        # Clocks and meters.
        self.clock = self.t_free = 0.0
        self.next_decision = window_s
        self.energy_j = self.busy_s = 0.0
        self.num_batches = self.throttled = self.governor_decisions = 0
        self.config_usage: dict[str, int] = {}
        self.exit_counts = np.zeros(placement.num_exits + 1, dtype=np.int64)

    def start(
        self, cstream: CompiledStream, trace: Trace, queue, battery: Battery, rate_hz: float,
        scenario: Scenario,
    ) -> None:
        """Set the device up for one run and take its t=0 governor decision.

        ``rate_hz`` is the arrival rate the device expects: its t=0
        observation's, and the trailing-window fallback at t ≤ 0.
        """
        self.queue = queue
        self.trace = trace
        self.battery = battery
        self.rate_hz = rate_hz
        self.rungs = _RungMemo(self.evaluator, self.placement, cstream)
        self.log = _ServedLog(self.request_indices)
        self.thermal = scenario.thermal_state(self.max_power_w)
        self._recorder = tracing.active()  # thread-scoped: fixed for the run
        # The t=0 observation: the expected rate, no backlog, no caps.
        self.config = self.policy.select(
            GovernorObservation(
                now_s=0.0, window_s=self.window_s, arrival_rate_hz=rate_hz, backlog=0,
                slo_s=self.slo_s,
            )
        )
        self._decided()

    def _decided(self) -> None:
        self.governor_decisions += 1
        if self._recorder is not None:
            self._recorder.count(self._decision_counter, 1)

    def observe(self, now_s: float) -> GovernorObservation:
        """What the governor sees at ``now_s``."""
        queue = self.queue
        thermal = self.thermal
        return GovernorObservation(
            now_s=now_s,
            window_s=self.window_s,
            arrival_rate_hz=queue.arrival_rate_hz(now_s, self.window_s, self.rate_hz),
            backlog=queue.backlog_at(now_s),
            slo_s=self.slo_s,
            temperature_c=thermal.temperature_c if thermal is not None else 0.0,
            power_cap_w=thermal.power_cap_w(self.max_power_w) if thermal is not None else None,
            energy_cap_j=self.battery.cap_j(self.trace, now_s),
            critical_backlog=queue.critical_backlog_at(now_s),
        )

    def serve(self, start: float, requests: range | list[int]) -> float:
        """Serve one batch (a ``range`` of request indices or a list of
        them) dispatched at ``start``: idle cooling, the spike check, the
        governor decision, the throttle, config usage, the rung lookup,
        pricing, the log, energy and battery, the thermal step and the
        clocks.  Returns the completion instant, the device's free time."""
        thermal = self.thermal
        if thermal is not None and start > self.clock:
            thermal.advance(0.0, start - self.clock)  # idle: device cools
        size = len(requests)
        recorder = self._recorder
        # The spike check counts the batch being served: it has left the
        # queue, but it is still unserved work.
        if (
            start >= self.next_decision
            or self.queue.backlog_at(start) + size > self.emergency_backlog
        ):
            self.config = self.policy.select(self.observe(start))
            self._decided()
            self.next_decision = start + self.window_s
            if self.on_decision is not None:
                self.on_decision(self, start)
        active = self.config
        if thermal is not None and thermal.throttled:
            active = self.coolest  # the hardware throttle overrides the policy
            self.throttled += 1
            if recorder is not None:
                recorder.count(self._throttle_counter, 1)
        usage = self.config_usage
        usage[active.name] = usage.get(active.name, 0) + 1
        if recorder is not None:
            for counter in self._batch_counters:
                recorder.count(counter, 1)
            recorder.observe(self._size_histogram, size)
        # The active config changes only at governor decisions and throttle
        # edges, so its rung is looked up only then.
        if active is not self._last_active:
            self._last_active = active
            self._rung = self.rungs.compiled_of(active)
        rung = self._rung
        latency, energy = rung.price(requests)
        end = start + latency
        self.log.add(rung, requests, end)
        self.energy_j += energy
        self.busy_s += latency
        battery = self.battery
        battery.spent_j += energy
        if battery.budget_j is not None and battery.spent_j > battery.budget_j:
            battery.exhausted = True
        if thermal is not None and latency > 0:
            thermal.advance(energy / latency, latency)
        self.clock = self.t_free = end
        self.num_batches += 1
        return end

    def settle(self, completion: np.ndarray, correct: np.ndarray) -> None:
        """Write each served request's completion instant and correctness,
        count the exits taken, and let go of the run's rungs, compiled
        stream, log, queue and decision hook (a lane is its own queue, so
        holding it would keep the lane in a reference cycle)."""
        self.exit_counts = self.log.settle(completion, correct, len(self.exit_counts))
        self.rungs = self.log = self.queue = self.on_decision = None
        self._rung = self._last_active = None


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
        batches in the system, counting the batch being formed) trigger an
        immediate re-decision instead of waiting out the window — burst
        onsets are reacted to at batch granularity.
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

    def run(
        self, trace: Trace, stream: ServingStream, platform: str = "?", model: str = "?",
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
            batcher, device = self._setup(trace, stream)
            completion, correct = self._serve(trace, stream, batcher, device)
            return self._build_report(
                trace, batcher, device, completion, correct, platform, model, seed
            )

    def _setup(self, trace: Trace, stream: ServingStream) -> tuple[ArrayBatcher, ServingDevice]:
        """Check the inputs and build one run's batcher and device, the
        device started on the compiled stream (its t=0 decision taken).
        The event loop and its executable spec both start here."""
        _check_stream(stream, trace, self.placement)
        batcher = ArrayBatcher(trace, self.batch_policy, self.admission)
        device = ServingDevice(
            self.evaluator, self.placement, self.policy, self.ladder, self.slo_s, self.window_s,
            self.batch_policy.max_batch,
        )
        device.start(
            compile_stream(stream, [config.thresholds for config in self.ladder]), trace,
            batcher, Battery(self.battery_budget_j), trace.mean_rate_hz, self.scenario,
        )
        return batcher, device

    def _serve(
        self, trace: Trace, stream: ServingStream, batcher: ArrayBatcher, device: ServingDevice
    ) -> tuple[np.ndarray, np.ndarray]:
        """The event loop: the batcher forms each batch (a ``range`` in
        span mode, a list in queue mode) and the device serves it.  Returns
        every request's completion instant (NaN: never served, dropped at
        admission) and correctness."""
        next_batch = batcher.next_span if batcher.contiguous else batcher.next_batch
        serve = device.serve
        t_free = 0.0
        while (formed := next_batch(t_free)) is not None:
            t_free = serve(*formed)
        n = trace.num_requests
        completion, correct = np.full(n, np.nan), np.zeros(n, dtype=bool)
        device.settle(completion, correct)
        return completion, correct

    def _build_report(
        self, trace: Trace, batcher: ArrayBatcher, device: ServingDevice,
        completion: np.ndarray, correct: np.ndarray, platform: str, model: str, seed: int,
    ) -> ServingReport:
        n = trace.num_requests
        summary, _ = run_summary(
            trace, completion, correct, device.exit_counts, device.energy_j, self.slo_s
        )
        num_batches = device.num_batches
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
            total_energy_j=device.energy_j,
            switching_energy_j=0.0,
            config_usage=device.config_usage,
            governor_decisions=device.governor_decisions,
            throttled_batches=device.throttled,
            peak_temperature_c=device.thermal.peak_c if device.thermal is not None else 0.0,
            **device.battery.summary(),
            num_dropped=batcher.num_dropped,
            num_deferred=batcher.num_deferred,
            drop_rate=batcher.num_dropped / n if n else 0.0,
            **summary,
        )
