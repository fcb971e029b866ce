"""Spec of fleet serving: one request routed, admitted and drained at a
time.

The fleet simulator routes each arrival through its router's
``route_block`` kernel, pushes it onto its lane and drains through a lazy
heap of pending batch starts.  This module keeps the plain version of each
step — :func:`route` for the routers, :func:`pending_start_s` /
:func:`next_ready_batch` for the lanes' batch rule — and
:class:`ReferenceFleetSimulator` runs the same loop over them with a scan
over the lanes for the drain, admitting through the lanes' own ``push`` /
``reject``.  Reports must be equal field for field (with work stealing off:
the loop takes no extensions).
"""

from __future__ import annotations

import numpy as np

from repro.obs import trace as tracing
from repro.serving.fleet import (
    DeviceLane,
    FleetReport,
    FleetSimulator,
    FleetSpec,
    build_fleet_stacks,
    build_fleet_trace_and_stream,
)
from repro.serving.router import (
    DifficultyAwareRouter,
    FleetRouter,
    LeastBacklogRouter,
    RoundRobinRouter,
)
from repro.serving.workload import LATENCY_CRITICAL
from spec.serving import price


# ------------------------------------------------------------------ routing
def _least_wait(lanes, now_s: float) -> int:
    return min(lanes, key=lambda lane: (lane.estimated_wait_s(now_s), lane.index)).index


def route(router: FleetRouter, difficulty: float, slo_class: int, now_s: float, lanes) -> int:
    """The lane one arriving request joins, decided on its own.

    ``lanes`` expose the :class:`~repro.serving.router.LaneState` surface;
    ties break on lane index.
    """
    if isinstance(router, RoundRobinRouter):
        index = router._next % len(lanes)
        router._next += 1
        return index
    if isinstance(router, LeastBacklogRouter):
        return _least_wait(lanes, now_s)
    if isinstance(router, DifficultyAwareRouter):
        chosen = router.banded_lane(difficulty)
        threshold = router.spill_fraction * router.slo_s
        if slo_class == LATENCY_CRITICAL:
            threshold *= 0.5  # criticals abandon a backlogged band early
        if lanes[chosen].estimated_wait_s(now_s) > threshold:
            return _least_wait(lanes, now_s)
        return chosen
    raise TypeError(f"no per-request rule for {type(router).__name__}")


# -------------------------------------------------------------------- lanes
def pending_start_s(lane: DeviceLane) -> float | None:
    """Dispatch instant of the lane's next batch, were it formed now.

    Full-batch fill or head-of-line timeout, whichever comes first, floored
    by the device-free time; ``None`` when the queue (the arrival book past
    the dispatched prefix) is empty.
    """
    times = lane._admitted_times
    head = lane._popped
    if head == len(times):
        return None
    policy = lane.stack.batch_policy
    expiry = times[head] + policy.timeout_s
    last = head + policy.max_batch - 1
    if last < len(times) and times[last] <= expiry:
        trigger = times[last]
    else:
        trigger = expiry
    return max(lane.t_free, trigger)


def next_ready_batch(lane: DeviceLane, until_s: float) -> tuple[float, list[int]] | None:
    """Form the lane's next batch, but only once the fleet clock reaches it.

    A batch is returned only when it dispatches before the next fleet
    arrival (``until_s``), so no future arrival could still join it and the
    governor observations made at dispatch see every arrival up to the
    dispatch instant.
    """
    start = pending_start_s(lane)
    if start is None or start >= until_s:
        return None
    policy = lane.stack.batch_policy
    times = lane._admitted_times
    head = end = lane._popped
    while end < len(times) and end - head < policy.max_batch and times[end] <= start:
        end += 1
    lane._popped = end
    return start, lane.request_indices[head:end]


# --------------------------------------------------------------------- loop
class ReferenceFleetSimulator(FleetSimulator):
    """:class:`~repro.serving.fleet.FleetSimulator` serving one request at a
    time: route, admit, then dispatch every batch that is ready before the
    next arrival, lanes in ascending start order (ties on lane index)."""

    def __init__(self, spec: FleetSpec, stacks):
        if spec.steal:
            raise ValueError("the reference loop takes no work stealing")
        super().__init__(spec, stacks)

    def run(self, trace, stream) -> FleetReport:
        # Same set-up as the production loop.
        router, battery = self._setup(trace, stream)
        n = trace.num_requests
        completion = np.full(n, np.nan)
        correct = np.zeros(n, dtype=bool)

        def dispatch(lane: DeviceLane, start: float, batch: list[int]) -> None:
            if lane.thermal is not None and start > lane.clock:
                lane.thermal.advance(0.0, start - lane.clock)  # idle: device cools
            # Spike check counts the in-flight batch: next_ready_batch
            # already popped it, but it is still unserved work.
            spike = lane.backlog_at(start) + len(batch) > lane.emergency_backlog
            if start >= lane.next_decision or spike:
                lane.config = lane.policy.select(lane.observe(start))
                lane.governor_decisions += 1
                tracing.count("fleet.governor_decisions")
                lane.next_decision = start + lane.window_s
            active = lane.config
            if lane.thermal is not None and lane.thermal.throttled:
                active = lane.coolest  # hardware throttle overrides the policy
                lane.throttled += 1
                tracing.count("fleet.throttled_batches")
            lane.config_usage[active.name] = lane.config_usage.get(active.name, 0) + 1
            tracing.count("fleet.batches")
            tracing.count(f"fleet.lane.{lane.stack.spec.platform}.batches")
            tracing.observe("fleet.batch_size", len(batch))

            indices = np.asarray(batch, dtype=np.int64)
            compiled = lane.rungs.compiled_of(active)
            decisions = compiled.decisions[indices]
            latency, energy = price(compiled, decisions)

            end = start + latency
            completion[indices] = end
            correct[indices] = compiled.correct[indices]
            for d in decisions.tolist():
                lane.exit_counts[d] += 1

            lane.energy_j += energy
            lane.busy_s += latency
            battery.spent_j += energy
            if battery.budget_j is not None and battery.spent_j > battery.budget_j:
                battery.exhausted = True
            if lane.thermal is not None and latency > 0:
                lane.thermal.advance(energy / latency, latency)
            lane.clock = end
            lane.t_free = end
            lane.num_batches += 1

        def drain(until: float) -> None:
            # Governors observing shared fleet state (the battery meter)
            # always see it as of an instant no later than their decision.
            while True:
                best: DeviceLane | None = None
                best_start = float("inf")
                for lane in self.lanes:
                    start = pending_start_s(lane)
                    if start is not None and start < until and start < best_start:
                        best, best_start = lane, start
                if best is None:
                    break
                dispatch(best, *next_ready_batch(best, until))

        admission = self.admission
        lanes = self.lanes
        times = trace.arrival_s.tolist()
        difficulties = trace.difficulty.tolist()
        classes = trace.slo_class.tolist()
        for i in range(n):
            arrival = times[i]
            slo_class = classes[i]
            lane = lanes[route(router, difficulties[i], slo_class, arrival, lanes)]
            critical = slo_class == LATENCY_CRITICAL
            if (
                admission is not None
                and lane.queue_depth >= admission.max_queue
                and not (critical and admission.critical_bypass)
            ):
                lane.reject(arrival)
            else:
                lane.push(i, arrival, critical)
            drain(times[i + 1] if i + 1 < n else float("inf"))
        drain(float("inf"))

        return self._report(trace, completion, correct, battery)


def run_reference_cell(spec: FleetSpec) -> FleetReport:
    """:func:`repro.serving.fleet.run_fleet_cell` through the reference loop."""
    stacks = build_fleet_stacks(spec)
    trace, stream = build_fleet_trace_and_stream(spec, stacks)
    return ReferenceFleetSimulator(spec, stacks).run(trace, stream)
