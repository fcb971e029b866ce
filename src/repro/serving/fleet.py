"""Heterogeneous multi-device fleet serving behind one shared queue.

A fleet is N simulated edge devices from the platform registry — a TX2
GPU next to an AGX Xavier next to a Denver CPU — all mounting the *same*
dynamic network (default spread or a searched
:class:`~repro.serving.deploy.DeployedDesign`), each with its own runtime
config ladder, micro-batcher, governor and thermal state (all reused from
the single-device stack).  One trace arrives at a shared front door; a
pluggable :class:`~repro.serving.router.FleetRouter` assigns every request
to a device lane at arrival time (latency-critical requests spill off
backlogged lanes earlier than best-effort ones), and each lane then
batches and serves its share exactly like the single-device simulator
would.  A :class:`DeviceLane` is the single-device engine's
:class:`~repro.serving.simulator.ServingDevice` — governor, throttle,
rungs, pricing, served-batch log, meters and clocks — plus its queue of
request *indices*; every batch is served through the device's
:meth:`~repro.serving.simulator.ServingDevice.serve`, and the lanes draw
on one shared :class:`~repro.serving.simulator.Battery`.

With an :class:`~repro.serving.batcher.AdmissionPolicy` the fleet applies
queue-depth admission at the lane door: a request routed to a full lane is
dropped (fleet admission is drop-only — "defer" would amount to
re-routing, which the router spill guard already does at arrival time).
Dropped requests never complete (NaN completion); latency statistics cover
served requests only.

Dispatch is deterministic: requests are routed one at a time in arrival
order, and a lane only forms a batch once no future arrival could still
join it (the same two-trigger + opportunistic-fill semantics as the
single-device batcher, re-derived for a queue that grows one routed
request at a time: :meth:`DeviceLane.pending_start` and
:meth:`DeviceLane.pop_batch`).  The loop finds due batches through a heap
of pending starts instead of scanning the lanes; the scanning loop lives
on as the executable spec in ``tests/spec/fleet.py``, and both start from
:meth:`FleetSimulator._setup`.

:func:`run_fleet_cell` is the pure cell function; :func:`fleet_sweep` fans
grids through the :class:`~repro.engine.service.EvaluationService` (the
harness's sweep, as fleet tasks) with results persisted under the ``fleet``
cache namespace.
"""

from __future__ import annotations

import dataclasses
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from math import inf

import numpy as np

from repro.engine.cache import ResultCache
from repro.engine.service import EvaluationService
from repro.hardware.platform import resolve_platform_keys
from repro.obs import trace as tracing
from repro.serving.batcher import AdmissionPolicy
from repro.serving.deploy import DeployedDesign
from repro.serving.governor import ServingPolicy, static_config_for
from repro.serving import workload
from repro.serving.harness import (
    ServingSpec,
    ServingStack,
    _sweep_cells,
    build_serving_stack,
    reference_config,
)
from repro.serving.router import (
    ROUTER_NAMES,
    BlockLaneState,
    FleetRouter,
    make_router,
)
from repro.serving.scenarios import Scenario, get_scenario
from repro.serving.simulator import Battery, ServingDevice, _check_stream, compile_stream
from repro.serving.stream import ServingStream
from repro.serving.telemetry import latency_summary, run_summary
from repro.serving.workload import LATENCY_CRITICAL, Trace
from repro.utils.validation import check_positive

#: Bump when fleet-cell semantics change; orphans persisted fleet entries.
FLEET_CELL_VERSION = "4"


@dataclass(frozen=True)
class FleetSpec:
    """Everything one fleet serving run depends on, as plain data.

    ``platforms`` accepts registry keys or aliases ("tx2", "xavier"); they
    are canonicalised at construction so cache keys do not fork on
    spelling.  The same model (named AttentiveNAS mount or searched
    ``design``) is deployed on every device — the paper's premise is one
    dynamic network scaling across heterogeneous hardware.
    """

    platforms: tuple[str, ...] = ("tx2-gpu", "agx-gpu")
    model: str = "a3"
    pattern: str = "poisson"
    scenario: str = "nominal"
    policy: str = "adaptive"
    router: str = "difficulty_aware"
    slo_ms: float = 75.0
    utilization: float = 0.7  # offered load relative to fleet reference capacity
    rate_hz: float | None = None  # explicit fleet arrival rate overrides utilization
    duration_s: float = 20.0
    num_exits: int = 3
    seed: int = 7
    max_batch: int = 6
    batch_timeout_ms: float = 4.0
    window_ms: float = 400.0
    num_classes: int = 10
    calibration_samples: int = 512
    design: DeployedDesign | None = None
    critical_fraction: float = 0.0  # share of latency-critical arrivals
    admission_max_queue: int | None = None  # per-lane cap; None = unbounded
    admission_critical_bypass: bool = True
    steal: bool = False  # work-stealing re-routing at governor horizons

    def __post_init__(self):
        if not self.platforms:
            raise ValueError("a fleet needs at least one platform")
        object.__setattr__(
            self, "platforms", tuple(resolve_platform_keys(self.platforms))
        )
        if self.router not in ROUTER_NAMES:
            raise ValueError(f"unknown router {self.router!r}; valid: {ROUTER_NAMES}")
        # Every member is built from a device spec, so it runs every check
        # the two specs share (model, pattern, scenario, policy, budgets).
        self.device_spec(self.platforms[0])
        if self.rate_hz is not None:
            check_positive("rate_hz", self.rate_hz)
        if not 0.0 <= self.critical_fraction <= 1.0:
            raise ValueError("critical_fraction must lie in [0, 1]")
        if self.admission_max_queue is not None:
            check_positive("admission_max_queue", self.admission_max_queue)

    def device_spec(self, platform: str, rate_hz: float | None = None) -> ServingSpec:
        """The single-device spec a fleet member is built from."""
        return ServingSpec(
            platform=platform,
            model=self.model,
            pattern=self.pattern,
            scenario=self.scenario,
            policy=self.policy,
            slo_ms=self.slo_ms,
            utilization=self.utilization,
            rate_hz=rate_hz,
            duration_s=self.duration_s,
            num_exits=self.num_exits,
            seed=self.seed,
            max_batch=self.max_batch,
            batch_timeout_ms=self.batch_timeout_ms,
            window_ms=self.window_ms,
            num_classes=self.num_classes,
            calibration_samples=self.calibration_samples,
            design=self.design,
        )

    def admission_policy(self) -> AdmissionPolicy | None:
        if self.admission_max_queue is None:
            return None
        return AdmissionPolicy(
            max_queue=self.admission_max_queue,
            mode="drop",
            critical_bypass=self.admission_critical_bypass,
        )

    @property
    def model_label(self) -> str:
        if self.design is not None:
            return f"{self.design.label}:{self.design.backbone.key}"
        return self.model


@dataclass(frozen=True)
class DeviceTelemetry:
    """Per-device slice of a fleet run (plain data, cache-safe)."""

    platform: str
    requests: int
    share: float  # fraction of fleet requests routed here
    batches: int
    mean_batch_size: float
    utilization: float  # busy seconds / fleet makespan
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    deadline_miss_rate: float
    energy_j: float
    energy_per_request_j: float
    switching_energy_j: float
    accuracy: float
    exit_usage: list[float] = field(default_factory=list)
    config_usage: dict[str, int] = field(default_factory=dict)
    governor_decisions: int = 0
    throttled_batches: int = 0
    peak_temperature_c: float = 0.0
    critical_requests: int = 0  # latency-critical requests served here
    num_dropped: int = 0  # admission drops at this lane's door
    stolen_in: int = 0  # queued requests migrated onto this lane (steal)
    stolen_out: int = 0  # queued requests migrated off this lane (steal)


@dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of one fleet run (one trace × one router)."""

    # Identity
    pattern: str
    scenario: str
    policy: str
    router: str
    model: str
    seed: int
    slo_ms: float
    platforms: list[str] = field(default_factory=list)
    # Traffic
    num_requests: int = 0
    duration_s: float = 0.0
    offered_rate_rps: float = 0.0
    throughput_rps: float = 0.0
    # Latency / SLO (cross-device, served requests only)
    latency_ms_mean: float = 0.0
    latency_ms_p50: float = 0.0
    latency_ms_p95: float = 0.0
    latency_ms_p99: float = 0.0
    deadline_miss_rate: float = 0.0
    # Energy / accuracy (fleet totals)
    energy_per_request_j: float = 0.0
    total_energy_j: float = 0.0
    switching_energy_j: float = 0.0
    accuracy: float = 0.0
    exit_usage: list[float] = field(default_factory=list)
    governor_decisions: int = 0
    peak_temperature_c: float = 0.0
    battery_budget_j: float = 0.0
    battery_spent_j: float = 0.0
    battery_exhausted: bool = False
    # Per-device split
    devices: list[DeviceTelemetry] = field(default_factory=list)
    # Admission control / SLO classes (PR 8)
    num_served: int = 0
    num_dropped: int = 0
    num_deferred: int = 0  # always 0: fleet admission is drop-only
    drop_rate: float = 0.0
    class_stats: dict[str, dict] = field(default_factory=dict)  # per SLO class
    num_stolen: int = 0  # queued requests migrated between lanes (steal)


class DeviceLane(ServingDevice):
    """One fleet member: a :class:`~repro.serving.simulator.ServingDevice`
    that is its own queue, plus the read-only
    :class:`~repro.serving.router.LaneState` surface routers observe (queue
    depth, estimated wait, reference capacity).

    The queue is not a container of its own.  Every admitted request is
    appended to three parallel typed books, ``request_indices``,
    ``_admitted_times`` (sorted: requests route in arrival order, and
    migrations are re-stamped at the current instant) and ``_critical``
    (its class flag), and dispatch only advances the ``_popped`` prefix
    counter — so the queue is the undispatched suffix ``[_popped:]`` of
    those books, :meth:`backlog_at` is a bisect over it, and the dispatched
    prefix is the served order the device's log reads.  A lane serves one
    run, and no numpy view of a book outlives it (an exported array cannot
    grow).

    The simulator works the queue through four methods: :meth:`push` admits
    a request, :meth:`reject` records an admission drop (which still counts
    toward the lane's rate window, because demand the lane sheds is still
    demand it saw), :meth:`pending_start` is the batcher's two-trigger rule
    and :meth:`pop_batch` forms a batch at its dispatch instant.
    """

    def __init__(self, index: int, stack: ServingStack, policy: ServingPolicy):
        spec = stack.spec
        super().__init__(
            stack.evaluator, stack.placement, policy, stack.ladder,
            spec.slo_ms / 1e3, spec.window_ms / 1e3, stack.batch_policy.max_batch,
            counters="fleet",
        )
        self._batch_counters += (f"fleet.lane.{spec.platform}.batches",)
        self.index = index
        self.stack = stack
        self.max_batch = stack.batch_policy.max_batch
        self.timeout_s = stack.batch_policy.timeout_s
        # The reference capacity is a pure function of the (frozen) reference
        # config and batch policy; routers read it per decision, so it is
        # computed once instead of chasing the config property chain per call.
        self.reference_capacity_rps = reference_config(stack.ladder).capacity_rps(
            stack.batch_policy
        )
        # Append-only books; the queue is their suffix past ``_popped``.
        self.request_indices = array("q")  # admitted request indices
        self._admitted_times = array("d")  # their arrival instants
        self._critical = bytearray()  # their latency-critical flags (0/1)
        self._popped = 0  # dispatched prefix of the three books
        self._routed_times = array("d")  # every routed arrival (rate window)
        self._rate_cursor = 0  # left bisect bound for the trailing rate window
        self.pending_s = inf  # pending_start(), as last pushed to the loop's heap
        # Meters of the lane's door and of work stealing.
        self.critical_requests = 0
        self.num_dropped = 0
        self.stolen_in = 0
        self.stolen_out = 0

    # -------------------------------------------------------- router surface
    @property
    def queue_depth(self) -> int:
        return len(self.request_indices) - self._popped

    def estimated_wait_s(self, now_s: float) -> float:
        """Residual busy time plus queued work at reference capacity."""
        residual = max(self.t_free - now_s, 0.0)
        return residual + self.queue_depth / self.reference_capacity_rps

    # ------------------------------------------------------------- the queue
    def push(self, index: int, arrival_s: float, critical: bool) -> bool:
        """Admit request ``index`` onto the queue.

        Returns True for a *trigger push*, one whose entry becomes the
        queue's first or its ``max_batch``-th: :meth:`pending_start` reads
        only those two entries, so no other push can move it.
        """
        position = len(self.request_indices) - self._popped
        self.request_indices.append(index)
        self._admitted_times.append(arrival_s)
        self._critical.append(1 if critical else 0)
        self._routed_times.append(arrival_s)
        if critical:
            self.critical_requests += 1
        return position == 0 or position == self.max_batch - 1

    def reject(self, arrival_s: float) -> None:
        """Record an admission drop at the lane's door."""
        self._routed_times.append(arrival_s)
        self.num_dropped += 1

    def pending_start(self) -> float:
        """Dispatch instant of the next batch, were it formed now.

        Full-batch fill or head-of-line timeout, whichever comes first,
        floored by the device-free time; ``inf`` on an empty queue.
        """
        times = self._admitted_times
        head = self._popped
        n = len(times)
        if head == n:
            return inf
        trigger = times[head] + self.timeout_s
        last = head + self.max_batch - 1
        if last < n:
            fill = times[last]
            if fill < trigger:
                trigger = fill
        t_free = self.t_free
        return t_free if t_free > trigger else trigger

    def pop_batch(self, start_s: float) -> array:
        """Dispatch the batch that starts at ``start_s``.

        Pops the arrival-ordered prefix that has arrived by ``start_s``, at
        most ``max_batch`` long (the opportunistic fill while the device
        was busy), and advances the dispatched-prefix counter.
        """
        times = self._admitted_times
        head = self._popped
        cap = head + self.max_batch
        end = bisect_right(times, start_s, head, cap if cap < len(times) else len(times))
        self._popped = end
        return self.request_indices[head:end]

    def backlog_at(self, now_s: float) -> int:
        """Routed requests that have arrived but not dispatched by ``now_s``.

        Dispatch pops arrival-ordered prefixes and only pops arrivals ≤ the
        dispatch instant, so at any observation time the simulator uses
        (a batch start or later) the count is exactly (admitted arrivals ≤
        now) − (popped); querying an earlier instant clamps at zero.
        """
        # The bisect starts at the popped prefix: exact on sorted input, and
        # confined to the (short) backlog instead of the whole book.
        popped = self._popped
        return max(bisect_right(self._admitted_times, now_s, popped) - popped, 0)

    def critical_backlog_at(self, now_s: float) -> int:
        """Latency-critical share of :meth:`backlog_at`."""
        popped = self._popped
        arrived = bisect_right(self._admitted_times, now_s, popped)
        return self._critical.count(1, popped, arrived)

    def arrival_rate_hz(self, now_s: float, window_s: float, fallback: float) -> float:
        """Routed arrivals/second (admitted or dropped) over the trailing window."""
        if now_s <= 0:
            return fallback
        window_start = max(0.0, now_s - window_s)
        routed = self._routed_times
        # The book only grows and per-lane observation instants never
        # decrease, so the window's left edge only moves right: resume the
        # bisect at the last cursor.
        lo = self._rate_cursor = bisect_left(routed, window_start, self._rate_cursor)
        return (bisect_right(routed, now_s, lo) - lo) / max(now_s - window_start, 1e-9)

    # ------------------------------------------------------- work stealing
    def steal_tail(self, limit: int, slo_class) -> list[int]:
        """Pop up to ``limit`` best-effort requests off the queue tail.

        The queue is the undispatched suffix of the books, so tail pops
        keep them aligned and sorted and leave the dispatched-prefix
        counter untouched.  Stops at the first latency-critical entry from
        the tail — criticals stay where admission placed them.  Returns the
        stolen request indices in their original FIFO order.
        """
        stolen: list[int] = []
        indices = self.request_indices
        times = self._admitted_times
        while len(stolen) < limit and len(indices) > self._popped:
            index = indices[-1]
            if slo_class is not None and slo_class[index] == LATENCY_CRITICAL:
                break
            indices.pop()
            times.pop()
            self._critical.pop()
            stolen.append(index)
        stolen.reverse()
        self.stolen_out += len(stolen)
        return stolen

    def receive_stolen(self, indices: list[int], now_s: float) -> None:
        """Adopt stolen requests, re-stamped as arriving at the steal instant.

        Re-stamping keeps every arrival book sorted (``now_s`` is the
        current simulated time, ≥ every recorded arrival) and makes the
        batcher treat migrations like fresh arrivals; latency telemetry
        still measures from the original trace arrival.
        """
        self.request_indices.extend(indices)
        self._admitted_times.extend([now_s] * len(indices))
        self._critical.extend(bytes(len(indices)))
        self.stolen_in += len(indices)


def build_fleet_stacks(spec: FleetSpec) -> list[ServingStack]:
    """One serving stack per platform, provisioned for its share of load.

    With ``rate_hz`` unset every device is loaded at ``utilization`` × its
    own reference capacity (the fleet rate is the sum); with an explicit
    fleet rate, load splits proportionally to reference capacity and each
    static config is re-provisioned for its share.
    """
    stacks = [build_serving_stack(spec.device_spec(p)) for p in spec.platforms]
    if spec.rate_hz is not None:
        capacities = [reference_config(s.ladder).capacity_rps(s.batch_policy) for s in stacks]
        total = sum(capacities)
        for stack, capacity in zip(stacks, capacities):
            share = spec.rate_hz * capacity / total
            stack.rate_hz = share
            stack.static_config = static_config_for(
                stack.ladder, share, spec.slo_ms / 1e3, stack.batch_policy
            )
    return stacks


def build_fleet_trace_and_stream(
    spec: FleetSpec, stacks: list[ServingStack]
) -> tuple[Trace, ServingStream]:
    """The shared (trace, logits) inputs every router is compared on.

    Every stack mounts the same model, so the synthesizers are identical;
    the stream comes from the first and is valid for all lanes.
    """
    fleet_rate = sum(stack.rate_hz for stack in stacks)
    trace = workload.make_trace(
        spec.pattern,
        fleet_rate,
        spec.duration_s,
        seed=spec.seed,
        critical_fraction=spec.critical_fraction,
    )
    stream = stacks[0].synthesizer.synthesize(trace.difficulties())
    return trace, stream


class FleetSimulator:
    """Replays one trace through a router onto N heterogeneous lanes."""

    def __init__(self, spec: FleetSpec, stacks: list[ServingStack]):
        self.spec = spec
        self.stacks = stacks
        self.scenario: Scenario = get_scenario(spec.scenario)
        self.slo_s = spec.slo_ms / 1e3
        self.admission = spec.admission_policy()
        self.lanes: list[DeviceLane] = []  # the latest run's, built by _setup

    # -------------------------------------------------------------- main loop
    def run(self, trace: Trace, stream: ServingStream) -> FleetReport:
        router, battery = self._setup(trace, stream)
        return self._serve(trace, router, battery)

    def _setup(self, trace: Trace, stream: ServingStream) -> tuple[FleetRouter, Battery]:
        """Check the inputs and build one run's lanes (fresh per run, so a
        simulator runs again from scratch) and starting state.

        Returns the router and the battery every lane draws on (the
        scenario's scale × the capacity-weighted static spend), after
        starting each lane on the stream compiled for every lane's ladder
        tuples: its rungs, its thermal state and its t=0 governor decision,
        at its capacity share of the mean rate (a fleet of one stays
        bit-identical to ServingSimulator in *every* scenario).  The fleet
        loop and its executable spec both start here.
        """
        _check_stream(stream, trace, self.stacks[0].placement)
        lanes = self.lanes = [
            DeviceLane(i, stack, stack.make_policy()) for i, stack in enumerate(self.stacks)
        ]
        router = make_router(self.spec.router, lanes, self.slo_s)
        tuples = [config.thresholds for lane in lanes for config in lane.stack.ladder]
        cstream = compile_stream(stream, tuples)
        total = sum(lane.reference_capacity_rps for lane in lanes)
        scale = self.scenario.battery_scale
        battery = Battery(None if scale is None else scale * sum(
            lane.stack.static_config.expected_energy_j * lane.reference_capacity_rps / total
            for lane in lanes
        ) * max(trace.num_requests, 1))
        for lane in lanes:
            rate_hz = trace.mean_rate_hz * lane.reference_capacity_rps / total
            lane.start(cstream, trace, lane, battery, rate_hz, self.scenario)
        return router, battery

    def _serve(self, trace: Trace, router: FleetRouter, battery: Battery) -> FleetReport:
        """Fleet loop: route each arrival once, then dispatch what is due.

        For each arrival, in trace order, the loop routes it (a one-arrival
        :meth:`~repro.serving.router.FleetRouter.route_block` call, which
        also applies admission), pushes it onto its lane or records the
        drop, and then dispatches every batch that starts before the next
        arrival.  That is the executable spec's loop, with a **lazy
        min-heap** of (pending start, lane) entries in place of its scan
        over the lanes: every change of a pending start pushes an entry — a
        trigger push (see :meth:`DeviceLane.push`), a dispatch or a steal —
        and records it as the lane's ``pending_s``; an entry that no longer
        matches it is stale and skipped.  The heap's tuple order (ascending
        start, ties on lane index) is the spec's dispatch order.

        A dispatch pops its batch (:meth:`DeviceLane.pop_batch`), serves it
        on the lane, updates the router's view of the lane and queues the
        lane's next batch.  With ``spec.steal`` set, governor decisions on
        an unloaded lane may migrate queued best-effort requests off a
        stalled lane — the one intentional (opt-in) departure from the
        per-request loop.
        """
        n = trace.num_requests
        lanes = self.lanes
        admission = self.admission
        state = BlockLaneState(
            lanes,
            max_queue=admission.max_queue if admission is not None else None,
            critical_bypass=admission.critical_bypass if admission is not None else True,
        )
        # The routers read device-free times and depths off these lists;
        # dispatches and steals keep them in step with the lanes.
        t_free = state.t_free
        depth = state.depth
        route_block = router.route_block

        times_np = trace.arrival_s
        difficulty_np = trace.difficulty
        any_crit = trace.num_critical > 0
        slo_class_arr = trace.slo_class if any_crit else None

        recorder = tracing.active()
        heap: list[tuple[float, int]] = []
        if self.spec.steal:
            # A steal runs right after the thief's re-decision, while the
            # thief's heap entry still stands on its pre-batch free time.
            steal = partial(self._try_steal, state, heap, slo_class_arr, recorder)
            for lane in lanes:
                lane.on_decision = steal

        # Arrivals are read as Python floats a chunk at a time, each chunk
        # with one look-ahead arrival (``inf`` after the last): the drain
        # bound for its final request.
        chunk = 65536
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            a_chunk = times_np[lo:hi + 1].tolist()
            if hi == n:
                a_chunk.append(inf)
            d_chunk = difficulty_np[lo:hi].tolist()
            c_chunk = slo_class_arr[lo:hi].tolist() if any_crit else None
            for m in range(hi - lo):
                arrival = a_chunk[m]
                cls = (c_chunk[m],) if any_crit else None
                assignments, admitted = route_block((d_chunk[m],), cls, (arrival,), state)
                li = assignments[0]
                lane = lanes[li]
                if admitted[0]:
                    if lane.push(lo + m, arrival, any_crit and cls[0] == LATENCY_CRITICAL):
                        lane.pending_s = pending = lane.pending_start()
                        heappush(heap, (pending, li))
                else:
                    lane.reject(arrival)
                if recorder is not None:
                    recorder.count("fleet.routed")
                # Dispatch every batch that starts before the next arrival.
                until = a_chunk[m + 1]
                while heap and heap[0][0] < until:
                    start, li = heappop(heap)
                    lane = lanes[li]
                    if lane.pending_s == start:
                        t_free[li] = lane.serve(start, lane.pop_batch(start))
                        depth[li] = lane.queue_depth
                        lane.pending_s = pending = lane.pending_start()
                        if pending < inf:
                            heappush(heap, (pending, li))
        a_chunk = d_chunk = c_chunk = None  # the last chunk is not needed past the loop

        completion = np.full(n, np.nan)
        correct = np.zeros(n, dtype=bool)
        for lane in lanes:
            lane.settle(completion, correct)
        return self._report(trace, completion, correct, battery)

    def _try_steal(
        self,
        state: BlockLaneState,
        heap: list[tuple[float, int]],
        slo_class,
        recorder,
        thief: DeviceLane,
        now_s: float,
    ) -> None:
        """Opportunistic work stealing at a governor horizon.

        When the lane that just re-decided has comfortable headroom
        (estimated wait under half the SLO) and some other lane is stalled
        past the SLO, up to one batch of queued *best-effort* requests
        migrates from the stalled lane's queue tail to the thief,
        re-stamped as arriving now (counted in the lanes' ``stolen_in`` /
        ``stolen_out``).
        """
        depth = state.depth

        def wait(i: int) -> float:  # the routers' view of lane i's backlog
            residual = state.t_free[i] - now_s
            return (residual if residual > 0.0 else 0.0) + depth[i] / state.capacity[i]

        if wait(thief.index) > 0.5 * self.slo_s:
            return
        victim = None
        worst = self.slo_s  # a lane must be stalled *past* the SLO to rob
        for lane in self.lanes:
            if lane is not thief and (lane_wait := wait(lane.index)) > worst:
                worst, victim = lane_wait, lane
        if victim is None:
            return
        limit = min(victim.queue_depth // 2, thief.max_batch)
        if limit <= 0:
            return
        stolen = victim.steal_tail(limit, slo_class)
        if not stolen:
            return
        thief.receive_stolen(stolen, now_s)
        for lane in (victim, thief):
            depth[lane.index] = lane.queue_depth
            lane.pending_s = pending = lane.pending_start()
            heappush(heap, (pending, lane.index))
        if recorder is not None:
            recorder.count("fleet.steals", len(stolen))

    # -------------------------------------------------------------- telemetry
    def _report(
        self, trace: Trace, completion: np.ndarray, correct: np.ndarray, battery: Battery
    ) -> FleetReport:
        n = trace.num_requests
        arrivals = trace.arrival_s
        lanes = self.lanes
        total_energy = sum(lane.energy_j for lane in lanes)
        summary, makespan = run_summary(
            trace, completion, correct, np.sum([lane.exit_counts for lane in lanes], axis=0),
            total_energy, self.slo_s,
        )
        num_dropped = n - summary["num_served"]

        devices = []
        for lane in lanes:
            idx = np.frombuffer(lane.request_indices, np.int64)
            lane_served = len(idx)
            latency = latency_summary(completion[idx] - arrivals[idx], self.slo_s)
            del latency["latency_ms_mean"]  # devices report no mean
            devices.append(
                DeviceTelemetry(
                    platform=lane.stack.spec.platform,
                    requests=lane_served,
                    share=lane_served / n if n else 0.0,
                    batches=lane.num_batches,
                    mean_batch_size=lane_served / lane.num_batches if lane.num_batches else 0.0,
                    utilization=lane.busy_s / makespan if makespan > 0 else 0.0,
                    **latency,
                    energy_j=lane.energy_j,
                    energy_per_request_j=lane.energy_j / lane_served if lane_served else 0.0,
                    switching_energy_j=0.0,
                    accuracy=float(correct[idx].mean()) if lane_served else 0.0,
                    exit_usage=[float(c) / lane_served if lane_served else 0.0 for c in lane.exit_counts],
                    config_usage=dict(lane.config_usage),
                    governor_decisions=lane.governor_decisions,
                    throttled_batches=lane.throttled,
                    peak_temperature_c=lane.thermal.peak_c if lane.thermal is not None else 0.0,
                    critical_requests=lane.critical_requests,
                    num_dropped=lane.num_dropped,
                    stolen_in=lane.stolen_in,
                    stolen_out=lane.stolen_out,
                )
            )

        return FleetReport(
            pattern=trace.pattern,
            scenario=self.scenario.name,
            policy=self.spec.policy,
            router=self.spec.router,
            model=self.spec.model_label,
            seed=self.spec.seed,
            slo_ms=self.slo_s * 1e3,
            platforms=list(self.spec.platforms),
            num_requests=n,
            duration_s=trace.duration_s,
            offered_rate_rps=trace.mean_rate_hz,
            total_energy_j=total_energy,
            switching_energy_j=0.0,
            governor_decisions=sum(lane.governor_decisions for lane in lanes),
            peak_temperature_c=max(
                (lane.thermal.peak_c for lane in lanes if lane.thermal is not None),
                default=0.0,
            ),
            **battery.summary(),
            devices=devices,
            num_dropped=num_dropped,
            num_deferred=0,
            drop_rate=num_dropped / n if n else 0.0,
            num_stolen=sum(lane.stolen_in for lane in lanes),
            **summary,
        )


def run_fleet_cell(spec: FleetSpec) -> FleetReport:
    """Evaluate one fleet grid cell: pure function of the spec (cache-safe)."""
    stacks = build_fleet_stacks(spec)
    trace, stream = build_fleet_trace_and_stream(spec, stacks)
    return FleetSimulator(spec, stacks).run(trace, stream)


def fleet_cache_key(cache: ResultCache, spec: FleetSpec):
    """Content address of one fleet cell in the persistent cache."""
    return cache.key(
        "fleet",
        version=FLEET_CELL_VERSION,
        spec=dataclasses.asdict(spec),
    )


def fleet_sweep(
    specs: list[FleetSpec],
    service: EvaluationService | None = None,
    workers: int = 1,
    executor: str = "auto",
    cache_dir: str | None = None,
) -> list[FleetReport]:
    """Run a grid of fleet cells concurrently through the engine.

    Results come back in submission order; cells sharing a spec are
    deduplicated within the batch and, with ``cache_dir`` set, persist
    across runs under the ``fleet`` cache namespace.
    """
    return _sweep_cells(
        "fleet-cell", fleet_cache_key, FleetReport, specs, service, workers, executor, cache_dir
    )
