"""Spec of the single-device serving loop: requests as objects, one batch
at a time.

:func:`synthesize_logits` draws a stream's logits whole, in one normal
draw, :func:`compile_logits` reduces them to per-head entropy and
correctness matrices, and :func:`decide` applies the exit rule to those
matrices, one threshold tuple at a time — what
:class:`~repro.serving.stream.ServingStream` and
:func:`~repro.serving.simulator.compile_stream` do block by block without
holding the logits or any per-head matrix.  :class:`MicroBatcher` is the
deque batcher that :class:`~repro.serving.batcher.ArrayBatcher` reproduces
with index arithmetic; :func:`execute_batch` prices a batch by running the
real entropy controller and :func:`~repro.hardware.energy.batched_execution`,
which the compiled per-config executor replaces with table gathers;
:func:`price` is that executor's pricing as numpy gathers over a batch's
decisions; and :class:`ReferenceSimulator` swaps the simulator's event
core for the per-request loop over the batcher and ``execute_batch``.
Reports must be equal field for field.

The loop predates admission control and SLO classes, so it refuses both.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.hardware.energy import batched_execution
from repro.nn.functional import entropy_np
from repro.obs import trace as tracing
from repro.serving.batcher import BatchPolicy
from repro.serving.governor import _profiles_for
from repro.serving.simulator import ServingSimulator
from repro.serving.workload import Request, Trace
from repro.utils.rng import child_rng


def synthesize_logits(synthesizer, difficulties, branch: str = "trace"):
    """``(logits, labels)`` of
    :meth:`~repro.serving.stream.LogitsSynthesizer.synthesize`, the
    ``(num_exits + 1, n, classes)`` logits drawn whole: the labels, one
    normal draw for every head's noise, the per-request perturbation, then
    the true-class margins scattered on."""
    difficulties = np.asarray(difficulties, dtype=float)
    n = len(difficulties)
    num_exits = synthesizer.placement.num_exits
    rng = child_rng(synthesizer.seed, "serving", "logits", branch, synthesizer.placement.key)
    labels = rng.integers(0, synthesizer.num_classes, size=n)
    depths = np.concatenate([synthesizer.placement.relative_depths(), [1.0]])
    model, accuracy = synthesizer.model, synthesizer.backbone_accuracy
    capabilities = [float(model.capability(accuracy, u)) for u in depths]
    logits = rng.normal(0.0, 1.0, size=(num_exits + 1, n, synthesizer.num_classes))
    perturbation = rng.normal(0.0, synthesizer.margin_noise, size=n)
    for head, cap in enumerate(capabilities):
        margin = np.clip(cap - difficulties + perturbation, 0.0, None)
        logits[head, np.arange(n), labels] += synthesizer.margin_gain * margin
    return logits, labels


def compile_logits(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-head ``(num_exits, n)`` normalized entropy and
    ``(num_exits + 1, n)`` correctness of materialised
    ``(num_exits + 1, n, classes)`` logits, one head at a time."""
    entropy = np.stack([entropy_np(head, axis=-1) for head in logits[:-1]])
    head_correct = np.stack([head.argmax(axis=-1) == labels for head in logits])
    return entropy, head_correct


def decide(entropy, head_correct, thresholds) -> tuple[bytes, np.ndarray]:
    """Each request's exit byte (the first exit whose entropy is at most its
    threshold, else the final head) and whether it is correct, over whole
    per-head matrices: :meth:`~repro.serving.simulator.CompiledStream.decide`
    of a stream compiled for ``thresholds``."""
    num_exits = len(entropy)
    n = head_correct.shape[1]
    decisions = np.full(n, num_exits, dtype=np.uint8)
    correct = head_correct[num_exits].copy()
    undecided = np.ones(n, dtype=bool)
    for i, threshold in enumerate(thresholds):
        takes = undecided & (entropy[i] <= threshold)
        decisions[takes] = i
        np.copyto(correct, head_correct[i], where=takes)
        undecided &= ~takes
    return decisions.tobytes(), correct


class MicroBatcher:
    """Deterministically forms micro-batches from a timestamped trace.

    Drive it with the device's next-free time: each :meth:`next_batch` call
    returns ``(start_s, batch)`` — the dispatch timestamp and the requests in
    it — or ``None`` when the trace is exhausted.
    """

    def __init__(self, trace: Trace, policy: BatchPolicy):
        self.policy = policy
        self._arrivals: tuple[Request, ...] = trace.requests
        self._times: list[float] = trace.arrival_s.tolist()
        self._next = 0  # index of the next not-yet-queued arrival
        self._queue: deque[Request] = deque()

    def backlog_at(self, now_s: float) -> int:
        """Requests that have *arrived* but not been dispatched by ``now_s``."""
        arrived = bisect_right(self._times, now_s)
        return len(self._queue) + max(arrived - self._next, 0)

    def critical_backlog_at(self, now_s: float) -> int:
        """The loop is class-agnostic: no critical accounting."""
        return 0

    def arrival_rate_hz(self, now_s: float, window_s: float, fallback: float) -> float:
        """Arrivals/second over the trailing window; ``fallback`` at t ≤ 0."""
        if now_s <= 0:
            return fallback
        window_start = max(0.0, now_s - window_s)
        lo = bisect_left(self._times, window_start)
        hi = bisect_right(self._times, now_s)
        return (hi - lo) / max(now_s - window_start, 1e-9)

    def _admit_until(self, cutoff_s: float) -> None:
        while (
            len(self._queue) < self.policy.max_batch
            and self._next < len(self._arrivals)
            and self._arrivals[self._next].arrival_s <= cutoff_s
        ):
            self._queue.append(self._arrivals[self._next])
            self._next += 1

    def next_batch(self, device_free_s: float) -> tuple[float, list[Request]] | None:
        """Form the next batch given when the device frees up.

        Dispatch time is ``max(device_free_s, trigger)`` where the trigger is
        either the arrival of the batch-filling request or the head-of-line
        timeout expiry.  Requests arriving while the batch waits for the
        device join it up to ``max_batch``.
        """
        if not self._queue:
            if self._next >= len(self._arrivals):
                return None
            self._queue.append(self._arrivals[self._next])
            self._next += 1
        head = self._queue[0]
        expiry = head.arrival_s + self.policy.timeout_s
        self._admit_until(expiry)
        if len(self._queue) >= self.policy.max_batch:
            trigger = self._queue[self.policy.max_batch - 1].arrival_s
        else:
            trigger = expiry
        start = max(device_free_s, trigger)
        self._admit_until(start)  # opportunistic fill while waiting for the device
        size = min(self.policy.max_batch, len(self._queue))
        batch = [self._queue.popleft() for _ in range(size)]
        return start, batch


@dataclass(frozen=True)
class BatchOutcome:
    """Result of pricing one micro-batch through the deployed DyNN."""

    decisions: object  # per-request exit index (num_exits = full network)
    latency_s: float
    energy_j: float
    correct: np.ndarray  # per-request correctness flags


def execute_batch(controller, profiles, logits, labels, indices) -> BatchOutcome:
    """Run one micro-batch: real exit decisions + physical batch pricing.

    ``logits`` is the stream's materialised ``(num_exits + 1, n, classes)``
    logits and ``labels`` its labels; the batch is their slice at ``indices``.
    """
    heads, labels = logits[:, indices], labels[indices]
    exit_logits, final_logits = heads[:-1], heads[-1]
    decisions = controller.decide(exit_logits)
    latency, energy = batched_execution([profiles[d] for d in decisions])
    num_exits = len(exit_logits)
    correct = np.empty(len(indices), dtype=bool)
    for j, d in enumerate(decisions):
        if d < num_exits:
            correct[j] = exit_logits[d, j].argmax() == labels[j]
        else:
            correct[j] = final_logits[j].argmax() == labels[j]
    return BatchOutcome(
        decisions=decisions, latency_s=latency, energy_j=energy, correct=correct
    )


def price(compiled, decisions: np.ndarray) -> tuple[float, float]:
    """(latency_s, energy_j) of one batch.

    ``compiled`` is a :class:`~repro.serving.simulator._CompiledConfig` and
    ``decisions`` the batch's exit decisions, gathered from its tables.
    """
    busy_sum = sum(np.asarray(compiled._busy_l)[decisions].tolist())
    over = np.asarray(compiled._over_l)[decisions]
    longest = int(np.argmax(over))  # first occurrence, like max(key=...)
    latency = busy_sum + float(over[longest])
    energy = sum(np.asarray(compiled._unit_l)[decisions].tolist()) + float(
        np.asarray(compiled._passive_l)[decisions[longest]] * over[longest]
    )
    return latency, energy


class ReferenceSimulator(ServingSimulator):
    """:class:`~repro.serving.simulator.ServingSimulator` serving through
    the per-request loop: :class:`MicroBatcher` plus one controller call and
    one :func:`execute_batch` per batch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.admission is not None:
            raise ValueError("the reference loop predates admission control")
        self._controllers: dict[str, object] = {}

    def _controller_of(self, config):
        if config.name not in self._controllers:
            self._controllers[config.name] = config.controller()
        return self._controllers[config.name]

    def _serve(self, trace, stream, batcher, device):
        # The device observes this loop's own batcher.  The array batcher
        # stays undriven: the loop admits everything, so its drop and defer
        # counts of zero are the report's.
        if trace.num_critical:
            raise ValueError("the reference loop is class-agnostic")
        batcher = device.queue = MicroBatcher(trace, self.batch_policy)
        logits = stream.logits()
        n = trace.num_requests
        completion = np.full(n, np.nan)
        correct = np.zeros(n, dtype=bool)
        thermal = device.thermal
        battery = device.battery
        clock = 0.0  # last simulated instant (for thermal integration)
        t_free = 0.0
        next_decision = self.window_s

        while (formed := batcher.next_batch(t_free)) is not None:
            start, batch = formed
            if thermal is not None and start > clock:
                thermal.advance(0.0, start - clock)  # idle: device cools
            # Spike check counts the in-flight batch: next_batch already
            # popped it off the queue, but it is still unserved work.
            spike = batcher.backlog_at(start) + len(batch) > device.emergency_backlog
            if start >= next_decision or spike:
                device.config = self.policy.select(device.observe(start))
                device.governor_decisions += 1
                tracing.count("serving.governor_decisions")
                next_decision = start + self.window_s

            active = device.config
            if thermal is not None and thermal.throttled:
                active = device.coolest  # hardware throttle overrides the policy
                device.throttled += 1
                tracing.count("serving.throttled_batches")
            device.config_usage[active.name] = device.config_usage.get(active.name, 0) + 1
            tracing.count("serving.batches")
            tracing.observe("serving.batch_size", len(batch))

            indices = np.asarray([r.index for r in batch], dtype=np.int64)
            outcome = execute_batch(
                self._controller_of(active),
                _profiles_for(self.evaluator, self.placement, active.dvfs_governor()),
                logits,
                stream.labels,
                indices,
            )

            end = start + outcome.latency_s
            completion[indices] = end
            correct[indices] = outcome.correct
            for d in outcome.decisions:
                device.exit_counts[d] += 1

            device.energy_j += outcome.energy_j
            battery.spent_j += outcome.energy_j
            if battery.budget_j is not None and battery.spent_j > battery.budget_j:
                battery.exhausted = True
            if thermal is not None and outcome.latency_s > 0:
                thermal.advance(outcome.energy_j / outcome.latency_s, outcome.latency_s)
            clock = end
            t_free = end
            device.num_batches += 1
        return completion, correct
