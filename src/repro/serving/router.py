"""Request routers for the heterogeneous serving fleet.

A :class:`FleetRouter` picks, for each arriving request, which device lane
the request joins.  Routers see a read-only :class:`LaneState` per device —
queue depth, device-free time and the lane's reference capacity —
and the request's scalar features: ``difficulty`` (standing in for a cheap
upstream difficulty predictor; HADAS's premise is exactly that easy inputs
early-exit, so difficulty is observable-enough to estimate) and its SLO
class (``latency_critical`` or ``best_effort``).

Three policies:

* ``round_robin`` — cyclic assignment, the classic oblivious baseline;
* ``least_backlog`` — join the lane with the shortest *estimated drain
  time* (queued work divided by the lane's capacity, plus residual device
  busy time), i.e. join-the-shortest-queue corrected for heterogeneity;
* ``difficulty_aware`` — lanes are ordered by capacity and each takes the
  difficulty band matching its share of fleet capacity: cheap, weak
  devices absorb easy requests (which early-exit and are fast anywhere),
  hard requests go to high-headroom devices whose deep paths still meet
  the SLO.  A spill guard reroutes to the least-loaded lane whenever the
  banded choice's estimated wait would blow the deadline — bursty arrivals
  degrade into least-backlog instead of queueing behind a weak device.
  Latency-critical requests spill at *half* the wait threshold: best-effort
  traffic rides out moderate backlog in its band while criticals move to
  the least-loaded lane early enough to keep their deadline headroom.

Routers decide through :meth:`FleetRouter.route_block`: given a run of
consecutive arrivals over which no lane's queue drains, it returns the lane
assignments and admissions a per-request router would make, one request at
a time, against a :class:`BlockLaneState` that tracks the live queue
depths.  The fleet loop hands it one arrival at a time.  Round-robin is
arithmetic modulo cycling; least-backlog and difficulty-aware step through
the arrivals off the state's lists (the wait estimate changes with every
admitted push), the latter looking each request up in difficulty bands
built once per router.  Admission (queue-depth cap + critical bypass) is
folded into the same pass because later routing decisions depend on which
earlier requests were actually admitted.  The per-request decision rule
itself lives on as the executable spec ``route`` in
``tests/spec/fleet.py``.

Everything is deterministic: ties break on lane index.
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf
from typing import Protocol, Sequence

from repro.serving.workload import LATENCY_CRITICAL

#: Router names accepted by :func:`make_router` (CLI/bench vocabulary).
ROUTER_NAMES = ("round_robin", "least_backlog", "difficulty_aware")


class LaneState(Protocol):
    """What a router may observe about one device lane."""

    index: int
    t_free: float

    @property
    def queue_depth(self) -> int: ...

    @property
    def reference_capacity_rps(self) -> float: ...

    def estimated_wait_s(self, now_s: float) -> float: ...


class BlockLaneState:
    """Mutable per-lane state the routers route against.

    One instance lives for a whole fleet run, built from the lanes the
    router was built with: ``t_free`` and ``depth`` are the live per-lane
    device-free times and queue depths (routing counts every admitted
    request into ``depth``; the owning simulator keeps both in sync with
    dispatches and steals), ``capacity`` the per-lane reference capacity in
    requests/second.  The wait estimate the kernels compute off these
    lists — ``max(t_free - now, 0) + depth / capacity`` — is float-for-float
    :meth:`LaneState.estimated_wait_s`.

    Admission reads the live depth: a request is admitted iff its lane's
    depth is below ``max_queue`` (``inf`` when unbounded), or it is
    latency-critical under ``critical_bypass``.
    """

    __slots__ = ("t_free", "depth", "capacity", "max_queue", "critical_bypass")

    def __init__(
        self,
        lanes: Sequence[LaneState],
        max_queue: int | None = None,
        critical_bypass: bool = True,
    ):
        self.t_free = [lane.t_free for lane in lanes]
        self.depth = [lane.queue_depth for lane in lanes]
        self.capacity = [lane.reference_capacity_rps for lane in lanes]
        self.max_queue = inf if max_queue is None else max_queue
        self.critical_bypass = critical_bypass

    def admit(self, lane_indices: list[int], slo_class) -> list[bool]:
        """Apply the admission rule to precomputed assignments.

        Counts admitted requests into ``depth`` (the queue growth later
        decisions must observe).  ``slo_class`` may be ``None`` when no
        routed request is latency-critical (every class check would be
        false).
        """
        depth = self.depth
        max_queue = self.max_queue
        check_crit = self.critical_bypass and slo_class is not None
        out = []
        for m, l in enumerate(lane_indices):
            ok = depth[l] < max_queue or (check_crit and slo_class[m] == LATENCY_CRITICAL)
            if ok:
                depth[l] += 1
            out.append(ok)
        return out


class FleetRouter:
    """Base: maps arriving requests' (difficulty, class) to lane indices."""

    name = "router"

    def route_block(
        self,
        difficulty: Sequence[float],
        slo_class: Sequence[int],
        arrival: Sequence[float],
        state: BlockLaneState,
    ) -> tuple[list[int], list[bool]]:
        """Route consecutive arrivals: (lane index, admitted) per request.

        Must be decision-for-decision identical to stepping the per-request
        rule plus the admission check over the arrivals while updating lane
        depths for every admitted push (the property tests assert exactly
        that against the spec).  Mutates ``state`` (depths) and any router
        cursor.
        """
        raise NotImplementedError


class RoundRobinRouter(FleetRouter):
    """Cyclic assignment, blind to state, difficulty and class."""

    name = "round_robin"

    def __init__(self):
        self._next = 0

    def route_block(self, difficulty, slo_class, arrival, state):
        start = self._next
        num = len(state.depth)
        self._next = start + len(arrival)
        assignments = [(start + k) % num for k in range(len(arrival))]
        return assignments, state.admit(assignments, slo_class)


class LeastBacklogRouter(FleetRouter):
    """Join the lane that will drain its queued work soonest."""

    name = "least_backlog"

    def route_block(self, difficulty, slo_class, arrival, state):
        t_free = state.t_free
        depth = state.depth
        capacity = state.capacity
        num = len(depth)
        max_queue = state.max_queue
        check_crit = state.critical_bypass and slo_class is not None
        assignments: list[int] = []
        admitted: list[bool] = []
        for m, now in enumerate(arrival):
            # argmin of (wait, lane index): strict < keeps the first minimum,
            # which is the lowest-index lane on ties.
            r = t_free[0] - now
            best_w = (r if r > 0.0 else 0.0) + depth[0] / capacity[0]
            best = 0
            for l in range(1, num):
                r = t_free[l] - now
                w = (r if r > 0.0 else 0.0) + depth[l] / capacity[l]
                if w < best_w:
                    best_w = w
                    best = l
            assignments.append(best)
            ok = depth[best] < max_queue or (check_crit and slo_class[m] == LATENCY_CRITICAL)
            if ok:
                depth[best] += 1
            admitted.append(ok)
        return assignments, admitted


class DifficultyAwareRouter(FleetRouter):
    """Difficulty-banded assignment with a class-aware SLO spill guard.

    Lanes sorted by reference capacity partition the difficulty axis into
    bands proportional to their capacity share — the weakest (and usually
    cheapest) lane owns the easiest band.  When the banded lane's estimated
    wait exceeds ``spill_fraction``·SLO, the request spills to the lane
    with the least estimated wait instead; latency-critical requests use
    half that threshold, so they leave a backlogged band before best-effort
    traffic does.

    The bands are built once, here, from the lanes the router serves:
    building them sorts the lanes by capacity (and reads the — potentially
    expensive — capacity figures), so a routed request only pays a bisect
    over the band lower edges.
    """

    name = "difficulty_aware"

    def __init__(self, lanes: Sequence[LaneState], slo_s: float, spill_fraction: float = 0.5):
        if not lanes:
            raise ValueError("difficulty-aware router needs at least one lane")
        self.slo_s = slo_s
        self.spill_fraction = spill_fraction
        ordered = sorted(
            lanes, key=lambda lane: (lane.reference_capacity_rps, lane.index)
        )
        capacities = [lane.reference_capacity_rps for lane in ordered]
        total = sum(capacities)
        # Band lower edges and the lane owning each band; a difficulty at or
        # past the last edge (1.0 included) lands in the last band.
        self._edges: list[float] = []
        self._band_lanes = [lane.index for lane in ordered]
        lo = 0.0
        for capacity in capacities:
            self._edges.append(lo)
            lo += capacity / total if total > 0 else 1.0 / len(ordered)

    def banded_lane(self, difficulty: float) -> int:
        """The lane whose band contains ``difficulty`` (no spill logic)."""
        # Index -1 (difficulty below 0) falls back to the last band.
        return self._band_lanes[bisect_right(self._edges, difficulty) - 1]

    def route_block(self, difficulty, slo_class, arrival, state):
        edges = self._edges
        band_lanes = self._band_lanes
        t_free = state.t_free
        depth = state.depth
        capacity = state.capacity
        num = len(depth)
        threshold_be = self.spill_fraction * self.slo_s
        has_critical = slo_class is not None
        max_queue = state.max_queue
        bypass = state.critical_bypass
        assignments: list[int] = []
        admitted: list[bool] = []
        for m, now in enumerate(arrival):
            chosen = band_lanes[bisect_right(edges, difficulty[m]) - 1]
            critical = has_critical and slo_class[m] == LATENCY_CRITICAL
            threshold = threshold_be * 0.5 if critical else threshold_be
            r = t_free[chosen] - now
            w = (r if r > 0.0 else 0.0) + depth[chosen] / capacity[chosen]
            if w > threshold:
                # Spill: argmin of (wait, lane index), as in least-backlog.
                r = t_free[0] - now
                best_w = (r if r > 0.0 else 0.0) + depth[0] / capacity[0]
                best = 0
                for l in range(1, num):
                    r = t_free[l] - now
                    w = (r if r > 0.0 else 0.0) + depth[l] / capacity[l]
                    if w < best_w:
                        best_w = w
                        best = l
                chosen = best
            assignments.append(chosen)
            ok = depth[chosen] < max_queue or (bypass and critical)
            if ok:
                depth[chosen] += 1
            admitted.append(ok)
        return assignments, admitted


def make_router(name: str, lanes: Sequence[LaneState], slo_s: float) -> FleetRouter:
    """Build a router by name (the CLI/bench entry point)."""
    if name == "round_robin":
        return RoundRobinRouter()
    if name == "least_backlog":
        return LeastBacklogRouter()
    if name == "difficulty_aware":
        return DifficultyAwareRouter(lanes, slo_s)
    raise ValueError(f"unknown router {name!r}; expected one of {ROUTER_NAMES}")
