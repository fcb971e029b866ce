"""Cross-cutting property-based tests on the physical models.

These pin down the *laws* the search depends on — monotonicities, bounds
and consistency relations that must hold over the whole input space, not
just at hand-picked points.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cost import estimate_cost
from repro.arch.space import BackboneSpace
from repro.accuracy.exit_model import BackboneExitOracle, ExitCapabilityModel
from repro.accuracy.surrogate import AccuracySurrogate
from repro.exits.placement import MIN_EXIT_POSITION, ExitPlacement
from repro.hardware.dvfs import DvfsSpace
from repro.hardware.energy import EnergyModel
from repro.hardware.platform import get_platform

SPACE = BackboneSpace()
SURROGATE = AccuracySurrogate(SPACE, seed=0)
PLATFORM = get_platform("tx2-gpu")
DVFS = DvfsSpace(PLATFORM)
ENERGY = EnergyModel(PLATFORM)


@st.composite
def space_genomes(draw):
    bounds = SPACE.gene_bounds()
    return np.asarray([draw(st.integers(0, int(b) - 1)) for b in bounds], dtype=np.int64)


class TestCostLaws:
    @settings(max_examples=25, deadline=None)
    @given(space_genomes())
    def test_costs_positive_and_finite(self, genome):
        cost = estimate_cost(SPACE.decode(genome))
        assert np.isfinite(cost.total_macs) and cost.total_macs > 0
        assert np.isfinite(cost.total_params) and cost.total_params > 0
        assert cost.total_traffic > 0

    @settings(max_examples=20, deadline=None)
    @given(space_genomes())
    def test_deeper_variant_costs_more(self, genome):
        """Raising any stage's depth index strictly raises MACs."""
        depth_gene = 3  # stage 0 depth gene
        bounds = SPACE.gene_bounds()
        if genome[depth_gene] + 1 >= bounds[depth_gene]:
            genome = genome.copy()
            genome[depth_gene] = 0
        deeper = genome.copy()
        deeper[depth_gene] += 1
        base = estimate_cost(SPACE.decode(genome)).total_macs
        more = estimate_cost(SPACE.decode(deeper)).total_macs
        assert more > base

    @settings(max_examples=20, deadline=None)
    @given(space_genomes())
    def test_prefix_macs_bounded_by_total(self, genome):
        config = SPACE.decode(genome)
        cost = estimate_cost(config)
        last = config.total_mbconv_layers
        assert cost.prefix_macs(last) < cost.total_macs


class TestHardwareLaws:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 10), space_genomes())
    def test_energy_latency_positive_everywhere(self, core, emc, genome):
        cost = estimate_cost(SPACE.decode(genome))
        report = ENERGY.network_report(cost, DVFS.decode(core, emc))
        assert report.energy_j > 0 and report.latency_s > 0
        assert report.average_power_w > 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 11), st.integers(0, 10))
    def test_latency_monotone_in_core_freq(self, core, emc):
        """At fixed EMC, raising the core clock never slows the network."""
        cost = estimate_cost(SPACE.decode(SPACE.min_genome()))
        slow = ENERGY.latency.network_latency_s(cost, DVFS.decode(core, emc))
        fast = ENERGY.latency.network_latency_s(cost, DVFS.decode(core + 1, emc))
        assert fast <= slow + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 9))
    def test_latency_monotone_in_emc_freq(self, core, emc):
        cost = estimate_cost(SPACE.decode(SPACE.min_genome()))
        slow = ENERGY.latency.network_latency_s(cost, DVFS.decode(core, emc))
        fast = ENERGY.latency.network_latency_s(cost, DVFS.decode(core, emc + 1))
        assert fast <= slow + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 10))
    def test_power_within_device_envelope(self, core, emc):
        cost = estimate_cost(SPACE.decode(SPACE.max_genome()))
        report = ENERGY.network_report(cost, DVFS.decode(core, emc))
        assert 0.5 < report.average_power_w < 25.0  # Jetson-physical band


class TestSurrogateLaws:
    @settings(max_examples=25, deadline=None)
    @given(space_genomes())
    def test_accuracy_in_plausible_band(self, genome):
        acc = SURROGATE.accuracy(SPACE.decode(genome))
        assert 75.0 < acc < 95.0

    @settings(max_examples=20, deadline=None)
    @given(space_genomes())
    def test_capacity_monotone_under_gene_increase(self, genome):
        """Raising the resolution gene never lowers the capacity score."""
        bounds = SPACE.gene_bounds()
        if genome[0] + 1 >= bounds[0]:
            genome = genome.copy()
            genome[0] = 0
        bigger = genome.copy()
        bigger[0] += 1
        assert SURROGATE.capacity_score(SPACE.decode(bigger)) >= SURROGATE.capacity_score(
            SPACE.decode(genome)
        )


class TestOracleLaws:
    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(0.55, 0.95),
        st.integers(12, 36),
        st.integers(0, 1000),
    )
    def test_capability_ordering_preserved(self, acc, layers, seed):
        """Deeper exits never have lower N_i, for any backbone/seed."""
        oracle = BackboneExitOracle(f"p{seed}", layers, acc, seed=seed, n_samples=512)
        values = [oracle.n_i(p) for p in range(MIN_EXIT_POSITION, layers, 3)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 500))
    def test_adding_an_exit_never_lowers_union(self, seed):
        oracle = BackboneExitOracle(f"u{seed}", 20, 0.85, seed=seed, n_samples=512)
        small = oracle.evaluate_placement(ExitPlacement(20, (8, 14)))
        large = oracle.evaluate_placement(ExitPlacement(20, (8, 11, 14)))
        assert large.dynamic_accuracy >= small.dynamic_accuracy - 1e-12

    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.05, 0.3), st.floats(0.05, 0.5))
    def test_correlation_length_controls_redundancy(self, short, long_extra):
        """A longer correlation length makes adjacent exits more redundant
        (their union adds less)."""
        long = short + long_extra
        def union_gain(length):
            model = ExitCapabilityModel(correlation_length=length)
            oracle = BackboneExitOracle("corr", 20, 0.85, model=model,
                                        seed=3, n_samples=2048)
            stats = oracle.evaluate_placement(ExitPlacement(20, (9, 10, 11)))
            return stats.dynamic_accuracy - stats.final_accuracy

        assert union_gain(long) <= union_gain(short) + 0.02


class TestEndToEndConsistency:
    def test_static_vs_dynamic_energy_normalisation(self, static_evaluator, surrogate):
        """The eq. 6 normaliser E_b equals the static evaluation's energy."""
        from repro.baselines.attentivenas import attentivenas_model
        from repro.search.ioe import InnerEngine
        from repro.search.nsga2 import Nsga2Config

        backbone = attentivenas_model("a2")
        static = static_evaluator.evaluate(backbone)
        engine = InnerEngine(
            backbone, static_evaluator, surrogate.accuracy_fraction(backbone),
            nsga=Nsga2Config(population=4, generations=2), seed=0,
        )
        assert engine.evaluator.baseline_energy_j == pytest.approx(static.energy_j)
        assert engine.evaluator.baseline_latency_s == pytest.approx(static.latency_s)


# --------------------------------------------------------------- serving laws
class TestTraceGeneratorLaws:
    """Laws every load generator must satisfy over its whole input space."""

    PATTERNS = ("poisson", "bursty", "diurnal", "replay")

    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from(PATTERNS),
        st.floats(20.0, 200.0),
        st.floats(5.0, 30.0),
        st.integers(0, 2**31 - 1),
    )
    def test_sorted_and_bounded(self, pattern, rate_hz, duration_s, seed):
        from repro.serving.workload import make_trace

        trace = make_trace(pattern, rate_hz, duration_s, seed=seed)
        times = trace.arrival_s
        assert np.all(np.diff(times) >= 0)
        assert len(times) == 0 or (times[0] >= 0.0 and times[-1] < duration_s)
        assert trace.duration_s == duration_s
        assert np.all((trace.difficulty >= 0.0) & (trace.difficulty <= 1.0))

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from(("poisson", "diurnal", "replay")), st.integers(0, 2**31 - 1))
    def test_mean_rate_near_nominal(self, pattern, seed):
        from repro.serving.workload import make_trace

        rate_hz, duration_s = 100.0, 120.0
        trace = make_trace(pattern, rate_hz, duration_s, seed=seed)
        # Poisson counting noise is ~1% here and diurnal/replay stay within
        # ~3%; ±25% leaves room for cycle-level variance.
        assert trace.num_requests == pytest.approx(rate_hz * duration_s, rel=0.25)

    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 2**31 - 33))
    def test_bursty_mean_rate_near_nominal_over_seeds(self, first_seed):
        """Bursty dwell times spread one 120 s trace's count by ~10 %, and
        about 1 seed in 130 lands outside ±25 %; the law holds for the mean
        over 32 consecutive seeds (measured 0.96-1.04 of nominal)."""
        from repro.serving.workload import make_trace

        rate_hz, duration_s = 100.0, 120.0
        counts = [
            make_trace("bursty", rate_hz, duration_s, seed=first_seed + i).num_requests
            for i in range(32)
        ]
        assert np.mean(counts) == pytest.approx(rate_hz * duration_s, rel=0.08)

    @settings(max_examples=8, deadline=None)
    @given(
        st.sampled_from(PATTERNS),
        st.integers(0, 2**31 - 1),
        st.floats(0.0, 1.0),
    )
    def test_per_seed_determinism(self, pattern, seed, critical_fraction):
        from repro.serving.workload import make_trace

        a = make_trace(pattern, 60.0, 8.0, seed=seed, critical_fraction=critical_fraction)
        b = make_trace(pattern, 60.0, 8.0, seed=seed, critical_fraction=critical_fraction)
        assert np.array_equal(a.arrival_s, b.arrival_s)
        assert np.array_equal(a.difficulty, b.difficulty)
        assert np.array_equal(a.slo_class, b.slo_class)

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from(PATTERNS), st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
    def test_critical_fraction_tags_about_that_share(self, pattern, fraction, seed):
        from repro.serving.workload import LATENCY_CRITICAL, make_trace

        trace = make_trace(pattern, 80.0, 20.0, seed=seed, critical_fraction=fraction)
        if trace.num_requests == 0:
            return
        share = float(np.mean(trace.slo_class == LATENCY_CRITICAL))
        assert share == pytest.approx(fraction, abs=0.08)


class TestBatcherLaws:
    """The array batcher agrees with the deque spec and satisfies dispatch
    laws."""

    @staticmethod
    def _drain_array(trace, policy, service_s):
        from repro.serving.batcher import ArrayBatcher

        batcher = ArrayBatcher(trace, policy)
        t_free, out = 0.0, []
        while (formed := batcher.next_batch(t_free)) is not None:
            start, indices = formed
            out.append((start, list(indices)))
            t_free = start + service_s
        return out

    @staticmethod
    def _drain_micro(trace, policy, service_s):
        from spec.serving import MicroBatcher

        batcher = MicroBatcher(trace, policy)
        t_free, out = 0.0, []
        while (formed := batcher.next_batch(t_free)) is not None:
            start, batch = formed
            out.append((start, [r.index for r in batch]))
            t_free = start + service_s
        return out

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 8),
        st.floats(0.001, 0.05),
        st.floats(0.001, 0.05),
    )
    def test_array_batcher_matches_micro_batcher(
        self, seed, max_batch, timeout_s, service_s
    ):
        from repro.serving.batcher import BatchPolicy
        from repro.serving.workload import make_trace

        trace = make_trace("bursty", 80.0, 6.0, seed=seed)
        policy = BatchPolicy(max_batch=max_batch, timeout_s=timeout_s)
        assert self._drain_array(trace, policy, service_s) == self._drain_micro(
            trace, policy, service_s
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.floats(0.001, 0.05))
    def test_fifo_each_request_dispatched_once_after_arrival(
        self, seed, max_batch, timeout_s
    ):
        from repro.serving.batcher import BatchPolicy
        from repro.serving.workload import make_trace

        trace = make_trace("poisson", 60.0, 6.0, seed=seed)
        policy = BatchPolicy(max_batch=max_batch, timeout_s=timeout_s)
        batches = self._drain_array(trace, policy, service_s=0.01)
        dispatched = [i for _, indices in batches for i in indices]
        # FIFO and exactly-once: the concatenation is 0..n-1 in order.
        assert dispatched == list(range(trace.num_requests))
        for start, indices in batches:
            assert len(indices) <= max_batch
            # no batch starts before its last member arrives
            assert start >= trace.arrival_s[indices[-1]]


class TestBacklogLaws:
    """The array batcher counts its backlog by galloping forward from the
    queue head (span mode) or the admission cursor (queue mode), and the
    counts equal a bisect over the whole arrival array: with tied
    arrivals, probes before the head and past the last arrival, and an
    empty tail."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_gallop_matches_whole_array_bisect(self, data):
        from bisect import bisect_right

        from repro.serving.batcher import ADMISSION_MODES, AdmissionPolicy, ArrayBatcher, BatchPolicy
        from repro.serving.workload import replay_trace

        grain = data.draw(st.sampled_from([0.001, 0.004, 0.05]))  # coarse grains tie arrivals
        gaps = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=80))
        times = (np.cumsum(gaps) * grain).tolist()
        queue_mode = data.draw(st.booleans())
        trace = replay_trace(
            np.asarray(times),
            seed=data.draw(st.integers(0, 2**16)),
            critical_fraction=data.draw(st.sampled_from([0.0, 0.3])) if queue_mode else 0.0,
        )
        admission = None
        if queue_mode:
            admission = AdmissionPolicy(
                max_queue=data.draw(st.integers(1, 8)),
                mode=data.draw(st.sampled_from(ADMISSION_MODES)),
            )
        batcher = ArrayBatcher(
            trace, BatchPolicy(max_batch=data.draw(st.integers(1, 6)), timeout_s=grain), admission
        )
        assert batcher.contiguous is not queue_mode
        probe = st.one_of(st.sampled_from(times), st.floats(-1.0, times[-1] + 1.0))
        service = st.floats(0.0, 5 * grain)

        def check():
            n = len(times)
            lo = data.draw(st.integers(0, n))
            now = data.draw(probe)
            assert batcher._arrived_from(lo, now) == max(lo, bisect_right(times, now))
            arrived = bisect_right(times, now)
            if batcher.contiguous:
                assert batcher.backlog_at(now) == max(arrived - batcher._head, 0)
                return
            cursor = batcher._cursor
            queued = len(batcher._crit) + len(batcher._be)
            assert batcher.backlog_at(now) == (
                queued + len(batcher._deferred) + max(arrived - cursor, 0)
            )
            critical = 0
            if batcher._crit_cum is not None:
                cum = batcher._crit_cum
                critical = len(batcher._crit) + int(cum[max(arrived, cursor)] - cum[cursor])
            assert batcher.critical_backlog_at(now) == critical

        t_free = 0.0
        check()
        while (formed := batcher.next_batch(t_free)) is not None:
            t_free = formed[0] + data.draw(service)
            for _ in range(data.draw(st.integers(0, 3))):
                check()
        check()


class TestRouterBlockLaws:
    """The route_block kernels reproduce the per-request rule.

    The scalar side steps request-by-request exactly like the reference
    fleet loop (``spec.fleet``): route, then the live queue-depth admission
    check, then the depth increment later routing decisions observe.  The block side
    routes the whole arrival block through one route_block call against a
    BlockLaneState.  Assignments, admissions, and final depths must agree
    float-for-float — including single-lane fleets, equal-backlog ties,
    all-critical blocks, and blocks of up to 64 requests on idle lanes fast
    enough (~2,000 requests/s) that no request can spill.
    """

    class _Lane:
        def __init__(self, index, capacity, t_free, depth):
            self.index = index
            self.reference_capacity_rps = capacity
            self.t_free = t_free
            self.queue_depth = depth

        def estimated_wait_s(self, now_s):
            residual = self.t_free - now_s
            return (residual if residual > 0.0 else 0.0) + (
                self.queue_depth / self.reference_capacity_rps
            )

    @staticmethod
    def _scalar(router, lanes, difficulty, slo_class, arrival, max_queue, bypass):
        from repro.serving.workload import LATENCY_CRITICAL
        from spec.fleet import route

        assignments, admitted = [], []
        for m, now in enumerate(arrival):
            chosen = route(router, difficulty[m], slo_class[m], now, lanes)
            critical = slo_class[m] == LATENCY_CRITICAL
            lane = lanes[chosen]
            ok = (
                max_queue is None
                or lane.queue_depth < max_queue
                or (bypass and critical)
            )
            if ok:
                lane.queue_depth += 1
            assignments.append(chosen)
            admitted.append(ok)
        return assignments, admitted

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_route_block_matches_scalar_loop(self, data):
        from repro.serving.router import BlockLaneState, ROUTER_NAMES, make_router
        from repro.serving.workload import BEST_EFFORT, LATENCY_CRITICAL

        name = data.draw(st.sampled_from(ROUTER_NAMES))
        num_lanes = data.draw(st.integers(1, 4))
        # A fast lane is idle at the first arrival (depth 0, t_free 0): a
        # fleet of them bounds every wait under the spill threshold.
        fleet = data.draw(st.sampled_from(("slow", "fast", "mixed")))
        fast = [
            fleet == "fast" or (fleet == "mixed" and data.draw(st.booleans()))
            for _ in range(num_lanes)
        ]
        # 80 and 160 requests/s put single-request waits right at the spill
        # thresholds (3/80 s and 3/160 s are the best-effort and critical ones).
        slow_caps = (5.0, 10.0, 25.0, 80.0, 160.0)
        caps = [
            data.draw(st.sampled_from((1800.0, 2000.0, 2400.0) if f else slow_caps))
            for f in fast
        ]
        frees = [0.0 if f else data.draw(st.floats(0.0, 0.05)) for f in fast]
        depths = [0 if f else data.draw(st.integers(0, 10)) for f in fast]
        size = data.draw(st.one_of(st.integers(1, 16), st.integers(17, 64)))
        gaps = data.draw(st.lists(st.floats(0.0, 0.02), min_size=size, max_size=size))
        arrival = []
        now = 0.0
        for gap in gaps:
            now += gap
            arrival.append(now)
        difficulty = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)
        )
        mix = data.draw(st.sampled_from(("best_effort", "mixed", "critical")))
        crit = [
            mix == "critical" or (mix == "mixed" and data.draw(st.booleans()))
            for _ in range(size)
        ]
        slo_class = [LATENCY_CRITICAL if c else BEST_EFFORT for c in crit]
        max_queue = data.draw(st.one_of(st.none(), st.integers(0, 12)))
        bypass = data.draw(st.booleans())

        def build():
            return [
                self._Lane(i, caps[i], frees[i], depths[i]) for i in range(num_lanes)
            ]

        scalar_lanes = build()
        block_lanes = build()
        scalar_router = make_router(name, scalar_lanes, slo_s=0.075)
        block_router = make_router(name, block_lanes, slo_s=0.075)

        expected = self._scalar(
            scalar_router, scalar_lanes, difficulty, slo_class, arrival,
            max_queue, bypass,
        )
        state = BlockLaneState(
            block_lanes, max_queue=max_queue, critical_bypass=bypass
        )
        # The fleet loop hands the kernels None when the block carries no
        # latency-critical request; exercise that contract too.
        slo_arg = slo_class
        if not any(crit) and data.draw(st.booleans()):
            slo_arg = None
        assignments, admitted = block_router.route_block(
            difficulty, slo_arg, arrival, state
        )
        assert (list(assignments), list(admitted)) == expected
        assert state.depth == [lane.queue_depth for lane in scalar_lanes]


@pytest.fixture(scope="module")
def serving_stack():
    from repro.serving.harness import ServingSpec, build_serving_stack

    return build_serving_stack(ServingSpec(duration_s=2.0))


class TestLaneBatchLaws:
    """A fleet lane's batch rule agrees with the per-request spec
    (``spec.fleet.pending_start_s`` / ``next_ready_batch``) on random
    queues, batch policies and device-free times, with pushes, rejects,
    dispatches and work steals (``steal_tail`` / ``receive_stolen``)
    interleaved.  A push that ``push`` does not flag as a batch trigger
    leaves the pending start where it was.  The backlog and its critical
    share match a count over the arrived queue, and the trailing arrival
    rate, read at non-decreasing instants as the governor does, matches a
    count over every routed arrival."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pending_start_and_pop_batch_match_spec(self, serving_stack, data):
        import dataclasses

        from repro.serving.batcher import BatchPolicy
        from repro.serving.fleet import DeviceLane
        from repro.serving.governor import StaticPolicy
        from repro.serving.workload import BEST_EFFORT, LATENCY_CRITICAL
        from spec.fleet import next_ready_batch, pending_start_s

        policy = BatchPolicy(
            max_batch=data.draw(st.integers(1, 6)),
            timeout_s=data.draw(st.floats(0.0, 0.01)),
        )
        stack = dataclasses.replace(serving_stack, batch_policy=policy)
        lane, spec_lane = (
            DeviceLane(0, stack, StaticPolicy(stack.static_config)) for _ in range(2)
        )
        classes: list[int] = []
        stamps: list[float] = []  # per request: its arrival on this lane
        routed: list[float] = []
        window_s = data.draw(st.floats(0.001, 0.03))

        def check(now_s):
            queue = lane.request_indices[lane._popped:]
            assert lane.queue_depth == len(queue)
            assert queue == spec_lane.request_indices[spec_lane._popped:]
            expected = pending_start_s(spec_lane)
            assert lane.pending_start() == (float("inf") if expected is None else expected)
            probe = data.draw(st.floats(0.0, now_s + 0.01))
            arrived = [i for i in queue if stamps[i] <= probe]
            assert lane.backlog_at(probe) == spec_lane.backlog_at(probe) == len(arrived)
            assert lane.critical_backlog_at(probe) == sum(
                classes[i] == LATENCY_CRITICAL for i in arrived
            )
            if now_s > 0:
                start = max(0.0, now_s - window_s)
                seen = sum(start <= t <= now_s for t in routed)
                rate = lane.arrival_rate_hz(now_s, window_s, fallback=-1.0)
                assert rate == seen / max(now_s - start, 1e-9)

        def dispatch_once(now_s):
            t_free = data.draw(st.floats(0.0, now_s + 0.02))
            lane.t_free = spec_lane.t_free = t_free
            expected = pending_start_s(spec_lane)
            start = lane.pending_start()
            if expected is None:
                assert start == float("inf")
                return False
            assert start == expected
            assert lane.pop_batch(start) == next_ready_batch(spec_lane, float("inf"))[1]
            assert lane._popped == spec_lane._popped
            return True

        def steal(limit):
            # Best-effort entries off the tail, stopping at the first critical.
            queue = spec_lane.request_indices[spec_lane._popped:]
            kept = len(queue)
            while (
                kept > 0
                and len(queue) - kept < limit
                and classes[queue[kept - 1]] != LATENCY_CRITICAL
            ):
                kept -= 1
            stolen = lane.steal_tail(limit, classes)
            assert stolen == spec_lane.steal_tail(limit, classes) == queue[kept:].tolist()

        def receive(count, now_s):
            fresh = list(range(len(classes), len(classes) + count))
            classes.extend([BEST_EFFORT] * count)
            stamps.extend([now_s] * count)
            lane.receive_stolen(fresh, now_s)
            spec_lane.receive_stolen(fresh, now_s)

        now = 0.0
        steps = ("push", "push", "reject", "dispatch", "steal", "receive")
        for _ in range(data.draw(st.integers(0, 32))):
            step = data.draw(st.sampled_from(steps))
            if step in ("push", "reject"):
                # Zero gaps are frequent: tied arrivals across a batch cut
                # are where the critical pop counter can go wrong.
                now += data.draw(st.one_of(st.just(0.0), st.floats(0.0, 0.005)))
                routed.append(now)
            if step == "push":
                critical = data.draw(st.booleans())
                classes.append(LATENCY_CRITICAL if critical else BEST_EFFORT)
                stamps.append(now)
                before = lane.pending_start()
                if not lane.push(len(classes) - 1, now, critical):
                    assert lane.pending_start() == before
                spec_lane.push(len(classes) - 1, now, critical)
            elif step == "reject":
                lane.reject(now)
                spec_lane.reject(now)
            elif step == "dispatch":
                dispatch_once(now)
            elif step == "steal":
                steal(data.draw(st.integers(0, 4)))
            else:
                receive(data.draw(st.integers(1, 3)), now)
            check(now)
        while dispatch_once(now):
            check(now)


class TestPricingLaws:
    """The compiled executor prices both batch shapes — a ``range`` of
    request indices and a list of them — bit for bit like the spec's numpy
    pricing.  The ladder rungs run one DVFS setting (the identity tests
    cover those), so random per-exit settings give every exit path its own
    costs."""

    @pytest.fixture(scope="class")
    def compiled_stream(self, serving_stack):
        from repro.serving.harness import build_trace_and_stream
        from repro.serving.simulator import compile_stream

        _, stream = build_trace_and_stream(serving_stack)
        return compile_stream(stream, [config.thresholds for config in serving_stack.ladder])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_span_and_index_pricing_match_spec(self, serving_stack, compiled_stream, data):
        import dataclasses

        from repro.serving.governor import _profiles_for
        from repro.serving.simulator import _CompiledConfig
        from spec.serving import price

        stack = serving_stack
        choices = DVFS.all_settings()[:2]
        config = dataclasses.replace(
            data.draw(st.sampled_from(stack.ladder)),
            per_exit=tuple(
                (exit_index, data.draw(st.sampled_from(choices)))
                for exit_index in range(stack.placement.num_exits)
            ),
        )
        profiles = _profiles_for(stack.evaluator, stack.placement, config.dvfs_governor())
        compiled = _CompiledConfig(config, profiles, compiled_stream)
        n = len(compiled.decisions)

        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, min(n, lo + 12)))
        assert compiled.price(range(lo, hi)) == price(compiled, compiled.decisions[lo:hi])

        indices = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
        assert compiled.price(indices) == price(compiled, compiled.decisions[indices])


class TestServedLogLaws:
    """A served-batch log settles to exactly what per-batch writes give:
    each request's completion instant and correctness under the rung that
    priced it, and the exits counted with ``np.bincount`` batch by batch.
    Sequences mix ranges that tile from request 0, ranges that skip ahead,
    unordered index lists, and repeated and switching rungs; every request
    is served at most once, as in both engines."""

    N = 400

    @pytest.fixture(scope="class")
    def rungs(self, serving_stack):
        from repro.serving.simulator import _RungMemo, compile_stream

        difficulties = np.random.default_rng(0).uniform(0.0, 1.0, self.N)
        cstream = compile_stream(
            serving_stack.synthesizer.synthesize(difficulties),
            [config.thresholds for config in serving_stack.ladder],
        )
        memo = _RungMemo(serving_stack.evaluator, serving_stack.placement, cstream)
        return [memo.compiled_of(config) for config in serving_stack.ladder[::4]]

    @staticmethod
    def _settle_both(rungs, batches, heads):
        from repro.serving.simulator import _ServedLog

        n = len(rungs[0].decisions)
        expected = (np.full(n, np.nan), np.zeros(n, dtype=bool), np.zeros(heads, np.int64))
        log = _ServedLog()
        for slot, requests, end in batches:
            rung = rungs[slot]
            log.add(rung, requests, end)
            index = np.asarray(list(requests), dtype=np.int64)
            expected[0][index] = end
            expected[1][index] = rung.correct[index]
            expected[2][:] += np.bincount(rung.decisions[index], minlength=heads)
        completion, correct = np.full(n, np.nan), np.zeros(n, dtype=bool)
        counts = log.settle(completion, correct, heads)
        return (completion, correct, counts), expected

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_settle_matches_per_batch_writes(self, serving_stack, rungs, data):
        batches, cursor = [], 0
        slot = st.integers(0, len(rungs) - 1)
        end = st.floats(0.0, 1e3, allow_nan=False)
        for _ in range(data.draw(st.integers(0, 8))):  # ranges tiling [0, cursor)
            size = data.draw(st.integers(1, 6))
            batches.append((data.draw(slot), range(cursor, cursor + size), data.draw(end)))
            cursor += size
        for _ in range(data.draw(st.integers(0, 12))):
            size = data.draw(st.integers(1, 6))
            if data.draw(st.booleans()):  # a range that may skip ahead
                start = cursor + data.draw(st.integers(0, 3))
                requests, cursor = range(start, start + size), start + size
            else:  # an unordered list drawn from the next 2 * size requests
                pool = data.draw(st.permutations(range(cursor, cursor + 2 * size)))
                requests, cursor = list(pool[:size]), cursor + 2 * size
            batches.append((data.draw(slot), requests, data.draw(end)))
        assert cursor <= self.N
        heads = serving_stack.placement.num_exits + 1
        got, expected = self._settle_both(rungs, batches, heads)
        for settled, written in zip(got, expected):
            assert settled.dtype == written.dtype
            assert settled.tobytes() == written.tobytes()

    def test_empty_log_settles_to_nothing(self, serving_stack, rungs):
        got, expected = self._settle_both(rungs, [], serving_stack.placement.num_exits + 1)
        assert not np.any(got[2]) and np.isnan(got[0]).all() and not got[1].any()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


class TestPercentileLaws:
    """Serving reports take p50/p95/p99 from one ``np.percentile`` call
    with three quantiles; the reports' golden digests were recorded from
    three single-quantile calls.  The two agree bit for bit: on one
    sample, on ties, and on long-tailed latencies.  The call partitions its
    input in place, after the mean and miss rate are taken, and the run
    summary computes the latencies once; both agree bit for bit with the
    copying summaries the digests were recorded from."""

    QUANTILES = (50, 95, 99)

    @staticmethod
    def _latencies(data) -> np.ndarray:
        shape = data.draw(st.sampled_from(("floats", "ties", "long-tail")))
        if shape == "floats":
            values = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
            return np.array(data.draw(st.lists(values, min_size=1, max_size=64)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.sampled_from((1, 2, 3, 20, 101, 1000, 4099)))
        if shape == "ties":
            step = data.draw(st.sampled_from((1e-3, 0.004, 0.1)))
            return rng.integers(0, data.draw(st.integers(1, 5)), n) * step
        sigma = data.draw(st.floats(0.1, 4.0))
        return rng.lognormal(np.log(0.02), sigma, n)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_call_matches_single_quantile_calls(self, data):
        from repro.serving.telemetry import latency_summary

        latencies = self._latencies(data)
        joint = np.percentile(latencies, self.QUANTILES)
        single = np.array([np.percentile(latencies, q) for q in self.QUANTILES])
        assert joint.tobytes() == single.tobytes()
        summary = latency_summary(latencies, slo_s=0.075)
        for q, value in zip(self.QUANTILES, single):
            assert summary[f"latency_ms_p{q}"] == float(value * 1e3)

    @staticmethod
    def _copying_summary(latencies: np.ndarray, slo_s: float) -> dict[str, float]:
        from repro.serving.telemetry import _LATENCY_FIELDS

        if not len(latencies):
            return dict.fromkeys(_LATENCY_FIELDS, 0.0)
        percentiles = (np.percentile(latencies, (50, 95, 99)) * 1e3).tolist()
        values = [float(latencies.mean() * 1e3), *percentiles, float((latencies > slo_s).mean())]
        return dict(zip(_LATENCY_FIELDS, values))

    @classmethod
    def _copying_run_summary(cls, trace, completion_s, correct, exit_counts, energy_j, slo_s):
        """``run_summary`` as it was: per-class and served copies of the
        latencies, each summarised without reordering."""
        from repro.serving.workload import SLO_CLASSES

        served = ~np.isnan(completion_s)
        num_served = int(served.sum())
        makespan = max(float(np.nanmax(completion_s)) if num_served else 0.0, trace.duration_s)
        delays = completion_s - trace.arrival_s
        class_stats = {}
        for code, name in enumerate(SLO_CLASSES):
            mask = trace.slo_class == code
            total = int(mask.sum())
            latencies = delays[mask & served]
            class_stats[name] = {
                "num_requests": total,
                "num_served": len(latencies),
                "num_dropped": total - len(latencies),
                **cls._copying_summary(latencies, slo_s),
            }
        fields = {
            "num_served": num_served,
            "throughput_rps": num_served / makespan if makespan > 0 else 0.0,
            **cls._copying_summary(delays[served], slo_s),
            "energy_per_request_j": energy_j / num_served if num_served else 0.0,
            "accuracy": float(correct[served].mean()) if num_served else 0.0,
            "exit_usage": [float(c) / num_served if num_served else 0.0 for c in exit_counts],
            "class_stats": class_stats,
        }
        return fields, makespan

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_in_place_summary_matches_the_copying_one(self, data):
        from repro.serving.telemetry import latency_summary

        latencies = self._latencies(data)
        slo_s = data.draw(st.sampled_from((0.0, 0.004, 0.075, 1e4)))
        expected = self._copying_summary(latencies, slo_s)
        got = latency_summary(latencies.copy(), slo_s)
        assert repr(got) == repr(expected)  # float reprs round-trip: bit for bit

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_run_summary_matches_a_copying_reference(self, data):
        """Traces with drops (NaN completions, none to all of them) and
        latency-critical traffic (none to all of it); the caller's
        completion array is only read."""
        from repro.serving.telemetry import run_summary
        from repro.serving.workload import BEST_EFFORT, LATENCY_CRITICAL, Trace

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.sampled_from((1, 2, 3, 20, 101, 1000)))
        arrivals = np.sort(rng.uniform(0.0, 10.0, n))
        critical = rng.random(n) < data.draw(st.sampled_from((0.0, 0.3, 1.0)))
        slo_class = np.where(critical, LATENCY_CRITICAL, BEST_EFFORT).astype(np.uint8)
        trace = Trace("replay", arrivals, rng.random(n), slo_class, duration_s=10.0)
        if data.draw(st.booleans()):  # ties
            delays = rng.integers(0, 4, n) * 0.004
        else:
            delays = rng.lognormal(np.log(0.02), data.draw(st.floats(0.1, 3.0)), n)
        completion = arrivals + delays
        completion[rng.random(n) < data.draw(st.sampled_from((0.0, 0.2, 1.0)))] = np.nan
        correct = rng.random(n) < 0.8
        exit_counts = rng.integers(0, 100, 4)
        before = completion.tobytes()
        args = (trace, completion, correct, exit_counts, 3.5, 0.075)
        got = run_summary(*args)
        assert completion.tobytes() == before
        assert repr(got) == repr(self._copying_run_summary(*args))
