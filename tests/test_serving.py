"""The online serving subsystem: workload, batcher, governor, simulator, CLI."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.engine.cache import ResultCache
from repro.hardware.energy import PathProfile, batched_execution
from repro.serving import (
    AdaptiveGovernor,
    BatchPolicy,
    GovernorObservation,
    ServingSpec,
    StaticPolicy,
    bursty_trace,
    diurnal_trace,
    flash_crowd_trace,
    get_scenario,
    make_trace,
    poisson_trace,
    replay_trace,
    run_serving_cell,
    static_config_for,
    sweep,
)
from repro.serving.harness import (
    build_serving_stack,
    build_trace_and_stream,
    cell_cache_key,
)
from repro.serving.scenarios import ThermalParams, ThermalState
from repro.serving.simulator import ServingSimulator
from repro.serving.telemetry import ServingReport
from repro.serving.workload import Request, Trace
from spec import evaluation as spec_evaluation
from spec import hardware as spec_hardware
from spec.serving import MicroBatcher, ReferenceSimulator


def _bursty_whole_buffer(
    rate_hz, duration_s, seed, burst_factor, mean_quiet_s=4.0, mean_burst_s=1.5
):
    """Executable spec of ``bursty_trace``: every dwell segment cumsums the
    whole remaining exponential buffer (quadratic in the trace length)."""
    from repro.serving.workload import _assemble, _ExponentialStream
    from repro.utils.rng import child_rng

    rng = child_rng(seed, "serving", "bursty")
    rate_hz = rate_hz * (mean_quiet_s + mean_burst_s) / (
        mean_quiet_s + burst_factor * mean_burst_s
    )
    expo = _ExponentialStream(rng, int(rate_hz * burst_factor * duration_s * 1.2) + 64)
    parts = []
    t = 0.0
    bursting = False
    while t < duration_s:
        dwell = (mean_burst_s if bursting else mean_quiet_s) * expo.draw()
        end = min(t + dwell, duration_s)
        scale = 1.0 / (rate_hz * (burst_factor if bursting else 1.0))
        cursor = t
        while True:
            gaps = expo.remaining() * scale
            walk = np.cumsum(np.concatenate(([cursor], gaps)))
            within = int(np.searchsorted(walk[1:], end, side="left"))
            if within == len(gaps):
                parts.append(walk[1:])
                expo.advance(len(gaps))
                cursor = float(walk[-1])
                continue
            parts.append(walk[1 : within + 1])
            expo.advance(within + 1)
            break
        t = end
        bursting = not bursting
    times = np.concatenate(parts) if parts else np.empty(0)
    return _assemble("bursty", times, duration_s, seed, None, 0.0)


@pytest.fixture(scope="module")
def stack():
    """One shared serving stack (the expensive build, ~1s)."""
    return build_serving_stack(ServingSpec(duration_s=6.0))


# --------------------------------------------------------------------- loads
class TestWorkload:
    def test_poisson_deterministic_and_sorted(self):
        a = poisson_trace(50.0, 5.0, seed=3)
        b = poisson_trace(50.0, 5.0, seed=3)
        assert a == b
        times = a.arrival_times()
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 0 and times.max() < 5.0

    def test_poisson_seed_changes_trace(self):
        assert poisson_trace(50.0, 5.0, seed=3) != poisson_trace(50.0, 5.0, seed=4)

    @pytest.mark.parametrize("pattern", ["poisson", "bursty", "diurnal", "replay"])
    def test_mean_rate_near_nominal(self, pattern):
        trace = make_trace(pattern, rate_hz=80.0, duration_s=20.0, seed=5)
        assert trace.mean_rate_hz == pytest.approx(80.0, rel=0.25)

    def test_difficulties_in_unit_interval(self):
        trace = bursty_trace(40.0, 8.0, seed=1)
        difficulties = trace.difficulties()
        assert ((difficulties >= 0) & (difficulties <= 1)).all()

    def test_diurnal_rate_varies(self):
        trace = diurnal_trace(60.0, 20.0, seed=2, peak_to_trough=4.0, cycles=2.0)
        times = trace.arrival_times()
        counts = np.histogram(times, bins=10, range=(0, 20.0))[0]
        assert counts.max() > 1.8 * max(counts.min(), 1)

    def test_bursty_has_bursts(self):
        trace = bursty_trace(40.0, 20.0, seed=6)
        counts = np.histogram(trace.arrival_times(), bins=20, range=(0, 20.0))[0]
        assert counts.max() > 2 * max(counts.min(), 1)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("rate_hz", [5.0, 40.0, 300.0])
    @pytest.mark.parametrize("burst_factor", [1.0, 4.0, 9.0])
    def test_bursty_matches_whole_buffer_walk(self, seed, rate_hz, burst_factor):
        """The windowed walk reproduces the whole-buffer walk bit for bit."""
        got = bursty_trace(rate_hz, 60.0, seed=seed, burst_factor=burst_factor)
        want = _bursty_whole_buffer(rate_hz, 60.0, seed, burst_factor)
        assert got == want

    def test_bursty_memory_stays_linear(self):
        """10^5 requests at 40 req/s: each segment walks a window sized to
        its own arrivals and keeps a copy, not a view of a whole-trace
        walk (which peaked at ~1.5 GiB here)."""
        import tracemalloc

        tracemalloc.start()
        try:
            trace = bursty_trace(40.0, 2500.0, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.requests) > 90_000
        assert peak < 64 * 2**20

    def test_replay_round_trip(self):
        source = flash_crowd_trace(50.0, 6.0, seed=9)
        replayed = replay_trace(source.arrival_times(), duration_s=6.0, seed=9)
        np.testing.assert_allclose(replayed.arrival_times(), source.arrival_times())

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown load pattern"):
            make_trace("sawtooth", 10.0, 1.0)


# ------------------------------------------------------------------- batcher
def _trace_from_times(times, duration):
    requests = tuple(
        Request(index=i, arrival_s=float(t), difficulty=0.5)
        for i, t in enumerate(times)
    )
    return Trace.from_requests("replay", requests, duration_s=duration)


class TestMicroBatcher:
    def test_full_batch_dispatches_at_fill_time(self):
        trace = _trace_from_times([0.0, 0.001, 0.002, 0.003], 1.0)
        batcher = MicroBatcher(trace, BatchPolicy(max_batch=4, timeout_s=0.1))
        start, batch = batcher.next_batch(0.0)
        assert len(batch) == 4
        assert start == pytest.approx(0.003)

    def test_timeout_dispatches_partial_batch(self):
        trace = _trace_from_times([0.0, 0.5], 1.0)
        batcher = MicroBatcher(trace, BatchPolicy(max_batch=4, timeout_s=0.01))
        start, batch = batcher.next_batch(0.0)
        assert [r.index for r in batch] == [0]
        assert start == pytest.approx(0.01)

    def test_opportunistic_fill_while_device_busy(self):
        trace = _trace_from_times([0.0, 0.2, 0.4], 1.0)
        batcher = MicroBatcher(trace, BatchPolicy(max_batch=4, timeout_s=0.01))
        start, batch = batcher.next_batch(0.5)  # device busy until 0.5
        assert [r.index for r in batch] == [0, 1, 2]
        assert start == pytest.approx(0.5)

    def test_fifo_order_and_exhaustion(self):
        trace = _trace_from_times(np.linspace(0, 0.9, 10), 1.0)
        batcher = MicroBatcher(trace, BatchPolicy(max_batch=3, timeout_s=0.05))
        seen = []
        t_free = 0.0
        while (formed := batcher.next_batch(t_free)) is not None:
            start, batch = formed
            seen.extend(r.index for r in batch)
            assert len(batch) <= 3
            t_free = start + 0.01
        assert seen == list(range(10))
        assert batcher.next_batch(t_free) is None

    def test_backlog_counts_undispatched_arrivals(self):
        trace = _trace_from_times([0.0, 0.1, 0.2, 5.0], 6.0)
        batcher = MicroBatcher(trace, BatchPolicy(max_batch=8, timeout_s=0.01))
        assert batcher.backlog_at(0.25) == 3
        assert batcher.backlog_at(5.5) == 4


# -------------------------------------------------------------- batch pricing
class TestBatchedExecution:
    def test_batch_of_one_matches_standalone(self):
        profile = PathProfile(0.01, 0.005, 0.2, 3.0)
        latency, energy = batched_execution([profile])
        assert latency == pytest.approx(profile.latency_s)
        assert energy == pytest.approx(profile.energy_j)

    def test_batching_amortizes_overhead(self):
        profile = PathProfile(0.01, 0.005, 0.2, 3.0)
        latency, energy = batched_execution([profile] * 4)
        assert latency == pytest.approx(4 * 0.01 + 0.005)
        assert latency < 4 * profile.latency_s
        assert energy < 4 * profile.energy_j

    def test_deepest_path_overhead_paid(self):
        shallow = PathProfile(0.01, 0.002, 0.1, 3.0)
        deep = PathProfile(0.03, 0.008, 0.5, 3.0)
        latency, _ = batched_execution([shallow, deep])
        assert latency == pytest.approx(0.01 + 0.03 + 0.008)

    def test_empty_batch(self):
        assert batched_execution([]) == (0.0, 0.0)

    def test_profile_consistent_with_composite_report(self, stack):
        from repro.hardware.dvfs import DvfsSpace

        evaluator = stack.evaluator
        dvfs = DvfsSpace(evaluator.energy_model.platform)
        for s in (dvfs.default_setting(), dvfs.decode(0, 0)):
            layers = list(evaluator.cost.layers)
            profile = spec_hardware.path_profile(evaluator.energy_model, layers, s)
            report = evaluator.energy_model.composite_report(layers, s)
            assert profile.latency_s == pytest.approx(report.latency_s)
            assert profile.energy_j == pytest.approx(report.energy_j)


# ------------------------------------------------------------------- streams
class TestLogitsStream:
    def test_shapes_and_determinism(self, stack):
        difficulties = np.linspace(0, 1, 32)
        a = stack.synthesizer.synthesize(difficulties)
        b = stack.synthesizer.synthesize(difficulties)
        assert a.exit_logits.shape == (stack.placement.num_exits, 32, 10)
        assert a.final_logits.shape == (32, 10)
        np.testing.assert_array_equal(a.exit_logits, b.exit_logits)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_easy_requests_exit_earlier(self, stack):
        easy = stack.synthesizer.synthesize(np.full(200, 0.05))
        hard = stack.synthesizer.synthesize(np.full(200, 0.95))
        config = stack.ladder[0]
        controller = config.controller()
        easy_exits = controller.decide(easy.exit_logits)
        hard_exits = controller.decide(hard.exit_logits)
        assert easy_exits.mean() < hard_exits.mean()

    def test_calibration_differs_from_trace_stream(self, stack):
        calibration = stack.synthesizer.calibration_stream(64)
        trace_stream = stack.synthesizer.synthesize(np.full(64, 0.3))
        assert not np.array_equal(calibration.labels, trace_stream.labels)


# -------------------------------------------------------------------- ladder
class TestConfigLadder:
    def test_expectations_monotone_in_exit_rate(self, stack):
        perf = sorted(
            (c for c in stack.ladder if c.name.endswith("-perf")),
            key=lambda c: c.exit_rate,
        )
        energies = [c.expected_energy_j for c in perf]
        accuracies = [c.expected_accuracy for c in perf]
        capacities = [c.capacity_rps(stack.batch_policy) for c in perf]
        assert energies == sorted(energies, reverse=True)
        assert accuracies == sorted(accuracies, reverse=True)
        assert capacities == sorted(capacities)

    def test_perf_tier_fastest(self, stack):
        by_rate: dict[float, dict[str, float]] = {}
        for config in stack.ladder:
            tier = config.name.split("-", 1)[1]
            by_rate.setdefault(config.exit_rate, {})[tier] = config.expected_latency_s
        for tiers in by_rate.values():
            assert tiers["perf"] <= tiers["balanced"] <= tiers["eco"]

    def test_balanced_tier_matches_per_setting_planning(self, stack):
        """The ladder's one-gather planning picks the balanced setting the
        per-setting loop and the per-candidate minimum pick."""
        from repro.hardware.dvfs import DvfsSpace

        dvfs = DvfsSpace(stack.evaluator.energy_model.platform)
        plan = spec_evaluation.plan_per_exit_dvfs(stack.evaluator, stack.placement, dvfs)
        balanced = spec_evaluation.balanced_setting(stack.evaluator, stack.placement, plan)
        tiers = [c for c in stack.ladder if c.name.endswith(("-balanced", "-eco"))]
        assert tiers and all(c.setting == balanced for c in tiers)

    def test_usage_sums_to_one(self, stack):
        for config in stack.ladder:
            assert sum(config.expected_usage) == pytest.approx(1.0)

    def test_static_choice_sustains_mean_rate(self, stack):
        config = static_config_for(
            stack.ladder, stack.rate_hz, 0.075, stack.batch_policy
        )
        assert config.capacity_rps(stack.batch_policy) >= stack.rate_hz

    def test_equilibrium_batch_grows_with_demand(self, stack):
        config = stack.static_config
        low = config.equilibrium_batch(1.0, stack.batch_policy)
        high = config.equilibrium_batch(1e6, stack.batch_policy)
        assert low <= high
        assert high == stack.batch_policy.max_batch


# ------------------------------------------------------------------ governor
def _obs(**overrides):
    base = dict(
        now_s=1.0,
        window_s=0.4,
        arrival_rate_hz=20.0,
        backlog=0,
        slo_s=0.075,
    )
    base.update(overrides)
    return GovernorObservation(**base)


class TestAdaptiveGovernor:
    def test_static_policy_is_constant(self, stack):
        policy = StaticPolicy(stack.static_config)
        assert policy.select(_obs()) is stack.static_config
        assert policy.select(_obs(arrival_rate_hz=1e6)) is stack.static_config

    def test_overload_escalates_capacity(self, stack):
        governor = AdaptiveGovernor(stack.ladder, stack.batch_policy)
        quiet = governor.select(_obs(arrival_rate_hz=5.0))
        rush = governor.select(_obs(arrival_rate_hz=1e5, backlog=500))
        capacity = {c.name: c.capacity_rps(stack.batch_policy) for c in stack.ladder}
        assert capacity[rush.name] == max(capacity.values())
        assert quiet.expected_accuracy >= rush.expected_accuracy

    def test_power_cap_restricts_selection(self, stack):
        governor = AdaptiveGovernor(stack.ladder, stack.batch_policy)
        cap = min(c.expected_power_w for c in stack.ladder) * 1.05
        chosen = governor.select(_obs(power_cap_w=cap))
        assert chosen.expected_power_w <= cap

    def test_energy_cap_restricts_selection(self, stack):
        governor = AdaptiveGovernor(stack.ladder, stack.batch_policy)
        cap = sorted(c.expected_energy_j for c in stack.ladder)[2]
        chosen = governor.select(_obs(energy_cap_j=cap))
        assert chosen.expected_energy_j <= cap

    def test_impossible_caps_fall_back_to_cheapest(self, stack):
        governor = AdaptiveGovernor(stack.ladder, stack.batch_policy)
        chosen = governor.select(_obs(power_cap_w=1e-6, energy_cap_j=1e-9))
        assert chosen.expected_energy_j == min(
            c.expected_energy_j for c in stack.ladder
        )

    def test_spike_registers_immediately(self, stack):
        governor = AdaptiveGovernor(stack.ladder, stack.batch_policy)
        governor.select(_obs(arrival_rate_hz=5.0))
        spike = governor.select(_obs(arrival_rate_hz=1e5))
        capacity = {c.name: c.capacity_rps(stack.batch_policy) for c in stack.ladder}
        assert capacity[spike.name] == max(capacity.values())


# ----------------------------------------------------------------- scenarios
class TestScenarios:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("underwater")

    def test_thermal_steady_state_overshoots_cap(self):
        params = ThermalParams()
        state = ThermalState(params, max_power_w=10.0)
        for _ in range(400):
            state.advance(10.0, 0.5)
        assert state.temperature_c > params.cap_c
        assert state.throttled

    def test_idle_cools_to_ambient(self):
        params = ThermalParams()
        state = ThermalState(params, max_power_w=10.0)
        state.advance(10.0, 30.0)
        state.advance(0.0, 120.0)
        assert state.temperature_c == pytest.approx(params.ambient_c, abs=0.5)

    def test_sustainable_power_holds_cap(self):
        params = ThermalParams()
        state = ThermalState(params, max_power_w=10.0)
        sustainable = params.sustainable_power_w(10.0)
        for _ in range(400):
            state.advance(sustainable, 0.5)
        assert state.temperature_c == pytest.approx(params.cap_c, abs=0.1)
        assert not state.throttled  # asymptotic from below


# ----------------------------------------------------------------- simulator
class TestServingSimulator:
    @pytest.fixture(scope="class")
    def run_pair(self, stack):
        trace, stream = build_trace_and_stream(stack)
        reports = {}
        for name, policy in (
            ("static", StaticPolicy(stack.static_config)),
            ("adaptive", AdaptiveGovernor(stack.ladder, stack.batch_policy)),
        ):
            simulator = ServingSimulator(
                evaluator=stack.evaluator,
                placement=stack.placement,
                policy=policy,
                ladder=stack.ladder,
                scenario=stack.scenario,
                slo_s=stack.spec.slo_ms / 1e3,
                batch_policy=stack.batch_policy,
            )
            reports[name] = simulator.run(trace, stream)
        return trace, reports

    def test_report_consistency(self, run_pair):
        trace, reports = run_pair
        for report in reports.values():
            assert report.num_requests == trace.num_requests
            assert sum(report.exit_usage) == pytest.approx(1.0)
            assert 0 <= report.deadline_miss_rate <= 1
            assert 0 <= report.accuracy <= 1
            assert report.latency_ms_p50 <= report.latency_ms_p95 <= report.latency_ms_p99
            assert report.energy_per_request_j > 0
            assert report.mean_batch_size >= 1.0
            assert report.num_batches * report.mean_batch_size == pytest.approx(
                report.num_requests
            )

    def test_deterministic_at_fixed_seed(self, stack):
        a = run_serving_cell(ServingSpec(pattern="diurnal", duration_s=4.0))
        b = run_serving_cell(ServingSpec(pattern="diurnal", duration_s=4.0))
        assert a == b

    def test_stream_trace_mismatch_raises(self, stack):
        trace, _ = build_trace_and_stream(stack)
        short_stream = stack.synthesizer.synthesize(np.full(3, 0.5))
        simulator = ServingSimulator(
            evaluator=stack.evaluator,
            placement=stack.placement,
            policy=StaticPolicy(stack.static_config),
            ladder=stack.ladder,
            scenario=stack.scenario,
            slo_s=0.075,
        )
        with pytest.raises(ValueError, match="requests"):
            simulator.run(trace, short_stream)

    def test_thermal_cap_limits_peak_temperature(self):
        throttling = run_serving_cell(
            ServingSpec(pattern="poisson", scenario="thermal-cap", policy="adaptive",
                        duration_s=6.0)
        )
        assert throttling.peak_temperature_c > 0
        params = ThermalParams()
        assert throttling.peak_temperature_c < params.cap_c + 10

    def test_battery_budget_reported(self):
        report = run_serving_cell(
            ServingSpec(pattern="poisson", scenario="battery-budget",
                        policy="adaptive", duration_s=6.0)
        )
        assert report.battery_budget_j > 0
        assert report.battery_spent_j > 0

    def test_adaptive_beats_static_in_bursty_scenario(self):
        """The PR acceptance contract, at test scale."""
        wins = []
        for scenario in ("nominal", "battery-budget"):
            reports = {}
            for policy in ("static", "adaptive"):
                reports[policy] = run_serving_cell(
                    ServingSpec(pattern="bursty", scenario=scenario,
                                policy=policy, duration_s=12.0)
                )
            static, adaptive = reports["static"], reports["adaptive"]
            wins.append(
                adaptive.deadline_miss_rate < static.deadline_miss_rate
                and adaptive.energy_per_request_j <= static.energy_per_request_j
            )
        assert any(wins)


# ------------------------------------------------------------------- harness
class TestHarness:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown platform"):
            ServingSpec(platform="gamecube")
        with pytest.raises(ValueError, match="unknown model"):
            ServingSpec(model="a99")
        with pytest.raises(ValueError, match="unknown load pattern"):
            ServingSpec(pattern="sawtooth")
        with pytest.raises(ValueError, match="unknown scenario"):
            ServingSpec(scenario="underwater")
        with pytest.raises(ValueError, match="unknown policy"):
            ServingSpec(policy="vibes")

    @pytest.mark.parametrize(
        "field,value",
        [("max_batch", 0), ("batch_timeout_ms", -1.0), ("window_ms", 0.0),
         ("window_ms", -5.0)],
    )
    def test_rejects_bad_batch_and_window(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServingSpec(**{field: value})

    def test_report_json_round_trip(self, tmp_path, entry_codec):
        cache = ResultCache(tmp_path)
        spec = ServingSpec(duration_s=3.0)
        report = run_serving_cell(spec)
        key = cell_cache_key(cache, spec)
        cache.put(key, report)
        assert entry_codec(cache, key) == "json"  # plain-data report, human-readable
        rebuilt = cache.get(key, cls=ServingReport)
        assert rebuilt == report

    def test_sweep_concurrent_caches_and_dedupes(self, tmp_path):
        specs = [
            ServingSpec(pattern="poisson", policy="static", duration_s=3.0),
            ServingSpec(pattern="poisson", policy="adaptive", duration_s=3.0),
            ServingSpec(pattern="poisson", policy="static", duration_s=3.0),  # dupe
        ]
        first = sweep(specs, workers=2, executor="thread", cache_dir=str(tmp_path))
        assert first[0] == first[2]
        second = sweep(specs, cache_dir=str(tmp_path))
        assert second == first
        cache = ResultCache(tmp_path)
        assert cache.stats("serving").misses == 0
        assert len(cache) == 2  # deduped cells stored once

    def test_sweep_without_cache(self):
        reports = sweep([ServingSpec(duration_s=3.0, policy="static")])
        assert len(reports) == 1 and reports[0].num_requests > 0


# ----------------------------------------------------------------------- CLI
class TestCli:
    def test_serve_cli_prints_comparison(self, capsys):
        from repro.__main__ import main

        assert main(["serve", "--trace", "poisson", "--duration-s", "3"]) == 0
        out = capsys.readouterr().out
        assert "adaptive vs static" in out
        assert "miss rate" in out

    def test_serve_cli_writes_json(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "report.json"
        assert main([
            "serve", "--trace", "bursty", "--duration-s", "3",
            "--policy", "adaptive", "--json", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["specs"][0]["pattern"] == "bursty"
        assert payload["reports"][0]["num_requests"] > 0

    @pytest.mark.parametrize(
        "flags",
        [["--max-batch", "0"], ["--batch-timeout-ms", "-1"], ["--window-ms", "0"],
         ["--window-ms", "-5"]],
    )
    def test_serve_cli_rejects_bad_batch_and_window(self, flags, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--duration-s", "1", *flags])
        assert exit_info.value.code == 2
        assert "repro serve: error:" in capsys.readouterr().err

    def test_serve_cli_rejects_unknown_platform(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["serve", "--platform", "gamecube", "--duration-s", "1"])
        assert "valid platforms" in capsys.readouterr().err

    def test_artifact_cli_rejects_unknown_platform(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="valid platforms"):
            main(["fig5", "--platforms", "tx2-gpu", "bogus"])

    def test_cache_cli_stats_prune_clear(self, tmp_path, capsys):
        from repro.__main__ import main

        old = ResultCache(tmp_path, version="0")
        old.put(old.key("static", x=1), {"v": 1})
        cur = ResultCache(tmp_path)
        cur.put(cur.key("static", x=1), {"v": 2})

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out and "namespace" in out

        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        assert "pruned 1" in capsys.readouterr().out
        assert len(ResultCache(tmp_path)) == 1

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed" in capsys.readouterr().out
        assert len(ResultCache(tmp_path)) == 0


# ------------------------------------------------- engines & latent-bug pins
class TestEngineEquivalence:
    """The event core must be bit-identical to the per-request loop
    (``spec.serving.ReferenceSimulator``)."""

    @staticmethod
    def _reports(stack, trace, policy_name, **kwargs):
        stream = stack.synthesizer.synthesize(trace.difficulties())
        reports = {}
        for name, cls in (("reference", ReferenceSimulator), ("indexed", ServingSimulator)):
            policy = (
                StaticPolicy(stack.static_config)
                if policy_name == "static"
                else AdaptiveGovernor(stack.ladder, stack.batch_policy)
            )
            simulator = cls(
                evaluator=stack.evaluator,
                placement=stack.placement,
                policy=policy,
                ladder=stack.ladder,
                slo_s=stack.spec.slo_ms / 1e3,
                batch_policy=stack.batch_policy,
                **kwargs,
            )
            reports[name] = simulator.run(trace, stream)
        return reports

    @pytest.mark.parametrize("policy_name", ["static", "adaptive"])
    @pytest.mark.parametrize("pattern", ["poisson", "bursty"])
    def test_engines_bit_identical(self, stack, policy_name, pattern):
        trace = make_trace(pattern, stack.rate_hz, 5.0, seed=3)
        reports = self._reports(stack, trace, policy_name, scenario=stack.scenario)
        assert reports["reference"] == reports["indexed"]

    @pytest.mark.parametrize("scenario", ["thermal-cap", "battery-budget"])
    def test_engines_bit_identical_when_constrained(self, stack, scenario):
        """The throttle and battery branches of both loops agree: a Poisson
        day that throttles under the thermal cap, and one that exhausts a
        battery at half the scenario's budget."""
        trace = make_trace("poisson", stack.rate_hz, 8.0, seed=3)
        constrained = dataclasses.replace(stack, scenario=get_scenario(scenario))
        budget = constrained.battery_budget_j(trace.num_requests)
        reports = self._reports(
            stack,
            trace,
            "static",
            scenario=constrained.scenario,
            battery_budget_j=None if budget is None else 0.5 * budget,
        )
        assert reports["reference"] == reports["indexed"]
        if scenario == "thermal-cap":
            assert reports["indexed"].throttled_batches > 0
        else:
            assert reports["indexed"].battery_exhausted

    @pytest.mark.parametrize(
        "simulator_cls", [ReferenceSimulator, ServingSimulator], ids=["reference", "indexed"]
    )
    def test_exit_head_mismatch_raises(self, stack, simulator_cls):
        """Regression: a stream with the wrong number of exit heads used to
        crash deep inside the controller; now both loops refuse upfront."""
        trace, _ = build_trace_and_stream(stack)
        from repro.serving.stream import ServingStream

        stream = stack.synthesizer.synthesize(trace.difficulties())
        wrong = ServingStream(
            exit_logits=stream.exit_logits[:-1],
            final_logits=stream.final_logits,
            labels=stream.labels,
        )
        simulator = simulator_cls(
            evaluator=stack.evaluator,
            placement=stack.placement,
            policy=StaticPolicy(stack.static_config),
            ladder=stack.ladder,
            scenario=stack.scenario,
            slo_s=0.075,
        )
        with pytest.raises(ValueError, match="exit heads"):
            simulator.run(trace, wrong)

    @pytest.mark.parametrize(
        "simulator_cls", [ReferenceSimulator, ServingSimulator], ids=["reference", "indexed"]
    )
    def test_spike_check_counts_inflight_batch(self, stack, simulator_cls):
        """Regression: the backlog-spike check ignored the batch that
        ``next_batch`` had just popped, so a burst exactly one batch over the
        emergency threshold never triggered a governor re-decision."""
        trace = replay_trace(np.zeros(9))
        stream = stack.synthesizer.synthesize(trace.difficulties())
        simulator = simulator_cls(
            evaluator=stack.evaluator,
            placement=stack.placement,
            policy=StaticPolicy(stack.static_config),
            ladder=stack.ladder,
            scenario=stack.scenario,
            slo_s=0.075,
            batch_policy=BatchPolicy(max_batch=4, timeout_s=0.004),
            window_s=100.0,
        )
        report = simulator.run(trace, stream)
        # The first batch of 4 leaves a backlog of 5: 5 queued + 4 in
        # flight > 8 (two full batches) is a spike, while 5 queued alone is
        # not, so the governor decides twice (initial + emergency), never on
        # the (100 s) window.
        assert report.governor_decisions == 2

    def test_replay_day_scale_keeps_final_arrival(self):
        """Regression: the implicit replay horizon was ``max + 1e-9``, which
        float rounding absorbs beyond ~10⁴ s — the strict ``< duration``
        filter then silently dropped the day's last request."""
        times = np.array([0.0, 3600.0, 86_399.5, 86_400.0])
        trace = replay_trace(times)
        assert trace.num_requests == len(times)
        assert trace.arrival_s[-1] == 86_400.0


class TestAdmissionAndSloClasses:
    """Admission control and latency-class serving on the indexed engine."""

    def _overloaded(self, **extra):
        return ServingSpec(
            pattern="bursty",
            policy="static",
            duration_s=8.0,
            utilization=1.2,
            **extra,
        )

    def test_drop_accounting_and_no_negative_latencies(self):
        report = run_serving_cell(self._overloaded(admission_max_queue=4))
        assert report.num_dropped > 0
        assert report.num_served + report.num_dropped == report.num_requests
        assert report.drop_rate == pytest.approx(
            report.num_dropped / report.num_requests
        )
        # Regression: dropped requests once entered the latency pool with
        # completion 0, manufacturing negative latencies.
        assert report.latency_ms_p50 > 0
        assert report.latency_ms_mean > 0

    def test_critical_bypass_protects_criticals(self):
        report = run_serving_cell(
            self._overloaded(admission_max_queue=4, critical_fraction=0.25)
        )
        crit = report.class_stats["latency_critical"]
        best = report.class_stats["best_effort"]
        assert crit["num_dropped"] == 0
        assert best["num_dropped"] > 0
        assert crit["num_requests"] + best["num_requests"] == report.num_requests

    def test_defer_mode_serves_everything(self):
        report = run_serving_cell(
            self._overloaded(admission_max_queue=6, admission_mode="defer")
        )
        assert report.num_dropped == 0
        assert report.num_deferred > 0
        assert report.num_served == report.num_requests

    def test_critical_p95_beats_best_effort_under_contention(self):
        report = run_serving_cell(self._overloaded(critical_fraction=0.2))
        crit = report.class_stats["latency_critical"]
        best = report.class_stats["best_effort"]
        assert crit["num_served"] > 20 and best["num_served"] > 20
        assert crit["latency_ms_p95"] <= best["latency_ms_p95"]
