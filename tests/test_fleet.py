"""Fleet serving: routers, the multi-device simulator, deployed designs,
the search → serve round trip, and the determinism guarantees."""

from __future__ import annotations

import dataclasses
import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cache import ResultCache
from repro.search.hadas import HadasConfig, HadasSearch
from repro.serving import fleet
from repro.serving.deploy import (
    DeployedDesign,
    design_from_individual,
    load_design,
    save_design,
)
from repro.serving.fleet import (
    DeviceLane,
    FleetReport,
    FleetSimulator,
    FleetSpec,
    build_fleet_stacks,
    build_fleet_trace_and_stream,
    fleet_cache_key,
    fleet_sweep,
    run_fleet_cell,
)
from repro.serving.harness import ServingSpec, build_serving_stack, run_serving_cell
from repro.serving.router import (
    BlockLaneState,
    DifficultyAwareRouter,
    LeastBacklogRouter,
    RoundRobinRouter,
    make_router,
)
from repro.serving.telemetry import (
    ServingReport,
    render_fleet_report,
    render_router_comparison,
)
from repro.serving.workload import (
    BEST_EFFORT,
    LATENCY_CRITICAL,
    poisson_trace,
    replay_trace,
)
from spec import fleet as spec_fleet


@pytest.fixture(scope="module")
def tiny_search_result():
    """One shared tiny-budget HADAS run (the search side of the loop)."""
    config = HadasConfig(
        platform="tx2-gpu", seed=5,
        outer_population=6, outer_generations=2,
        inner_population=6, inner_generations=3,
        ioe_candidates=1, oracle_samples=256,
    )
    return HadasSearch(config).run()


@pytest.fixture(scope="module")
def searched_design(tiny_search_result):
    return tiny_search_result.deployed_design()


# -------------------------------------------------------------------- routers
class _FakeLane:
    def __init__(self, index, capacity, wait):
        self.index = index
        self.reference_capacity_rps = capacity
        self._wait = wait
        self.queue_depth = 0

    def estimated_wait_s(self, now_s):
        return self._wait


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        lanes = [_FakeLane(i, 10.0, 0.0) for i in range(3)]
        assert [
            spec_fleet.route(router, 0.5, BEST_EFFORT, 0.0, lanes) for _ in range(6)
        ] == [0, 1, 2, 0, 1, 2]

    def test_least_backlog_picks_least_wait(self):
        router = LeastBacklogRouter()
        lanes = [
            _FakeLane(0, 10.0, 0.5),
            _FakeLane(1, 10.0, 0.1),
            _FakeLane(2, 10.0, 0.9),
        ]
        assert spec_fleet.route(router, 0.5, BEST_EFFORT, 0.0, lanes) == 1

    def test_least_backlog_ties_break_on_index(self):
        router = LeastBacklogRouter()
        lanes = [_FakeLane(i, 10.0, 0.3) for i in range(3)]
        assert spec_fleet.route(router, 0.5, BEST_EFFORT, 0.0, lanes) == 0

    def test_difficulty_bands_follow_capacity_order(self):
        # Lane 1 is the weak device: it owns the easy band despite its index.
        lanes = [_FakeLane(0, 30.0, 0.0), _FakeLane(1, 10.0, 0.0)]
        router = DifficultyAwareRouter(lanes, slo_s=0.075)
        assert router.banded_lane(0.01) == 1  # easy -> weak lane (share 0.25)
        assert router.banded_lane(0.3) == 0  # past the weak lane's share
        assert router.banded_lane(0.9) == 0  # hard -> strong lane
        assert router.banded_lane(1.0) == 0  # boundary difficulty still routed

    def test_difficulty_spills_on_backlog(self):
        busy_weak = _FakeLane(0, 10.0, 10.0)  # banded choice, swamped
        idle_strong = _FakeLane(1, 30.0, 0.0)
        router = DifficultyAwareRouter([busy_weak, idle_strong], slo_s=0.075)
        assert router.banded_lane(0.01) == 0
        assert spec_fleet.route(router, 0.01, BEST_EFFORT, 0.0, [busy_weak, idle_strong]) == 1

    def test_critical_spills_at_half_threshold(self):
        # Wait of 0.03 s sits between the critical threshold (0.5·0.5·SLO ≈
        # 0.019 s) and the best-effort one (0.5·SLO ≈ 0.038 s): best-effort
        # traffic stays in its band, criticals move to the idle lane.
        moderately_busy = _FakeLane(0, 10.0, 0.03)
        idle_strong = _FakeLane(1, 30.0, 0.0)
        lanes = [moderately_busy, idle_strong]
        router = DifficultyAwareRouter(lanes, slo_s=0.075)
        assert spec_fleet.route(router, 0.01, BEST_EFFORT, 0.0, lanes) == 0
        assert spec_fleet.route(router, 0.01, LATENCY_CRITICAL, 0.0, lanes) == 1
        # The block kernel keeps both thresholds; its wait here is the 0.03 s
        # of residual busy time.
        moderately_busy.t_free, idle_strong.t_free = 0.03, 0.0
        assert router.route_block(
            [0.01, 0.01], [LATENCY_CRITICAL, BEST_EFFORT], [0.0, 0.0], BlockLaneState(lanes)
        ) == ([1, 0], [True, True])

    def test_make_router_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("telepathic", [], 0.075)


# ------------------------------------------------------------------ fleet spec
class TestFleetSpec:
    def test_aliases_canonicalised(self):
        spec = FleetSpec(platforms=("tx2", "xavier"))
        assert spec.platforms == ("tx2-gpu", "agx-gpu")

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one platform"):
            FleetSpec(platforms=())
        with pytest.raises(ValueError, match="unknown platform"):
            FleetSpec(platforms=("gamecube",))
        with pytest.raises(ValueError, match="unknown router"):
            FleetSpec(router="telepathic")
        with pytest.raises(ValueError, match="unknown policy"):
            FleetSpec(policy="vibes")
        with pytest.raises(ValueError, match="unknown load pattern"):
            FleetSpec(pattern="sawtooth")
        with pytest.raises(ValueError, match="unknown scenario"):
            FleetSpec(scenario="underwater")

    @pytest.mark.parametrize(
        "field,value",
        [("max_batch", 0), ("batch_timeout_ms", -1.0), ("window_ms", 0.0),
         ("window_ms", -5.0)],
    )
    def test_rejects_bad_batch_and_window(self, field, value):
        with pytest.raises(ValueError, match=field):
            FleetSpec(**{field: value})

    @pytest.mark.parametrize(
        "field,value,message",
        [("num_exits", 0, "num_exits"), ("model", "zz", "unknown model")],
    )
    def test_rejects_what_a_device_spec_rejects(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            FleetSpec(**{field: value})

    def test_alias_spelling_shares_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = fleet_cache_key(cache, FleetSpec(platforms=("tx2", "xavier")))
        b = fleet_cache_key(cache, FleetSpec(platforms=("tx2-gpu", "agx-gpu")))
        assert a == b


# -------------------------------------------------------------- lane batching
def _drain(lane):
    """Dispatch every queued batch, each at its pending start."""
    while lane.pending_start() < float("inf"):
        lane.pop_batch(lane.pending_start())


class TestDeviceLane:
    @pytest.fixture(scope="class")
    def stack(self):
        return build_serving_stack(ServingSpec(duration_s=4.0, max_batch=4))

    def _lane(self, stack, times):
        from repro.serving.governor import StaticPolicy

        lane = DeviceLane(0, stack, StaticPolicy(stack.static_config))
        for i, t in enumerate(times):
            lane.push(i, float(t), critical=False)
        return lane

    def test_waits_for_fleet_clock(self, stack):
        lane = self._lane(stack, [0.0, 0.001])
        # Head expiry is 4 ms: at a fleet clock of 1 ms the batch is not due.
        start = lane.pending_start()
        assert start == pytest.approx(0.004)
        assert not start < 0.001
        assert lane.pop_batch(start).tolist() == [0, 1]
        assert lane.pending_start() == float("inf")

    def test_full_batch_dispatches_at_fill_time(self, stack):
        lane = self._lane(stack, [0.0, 0.001, 0.002, 0.003, 0.0035])
        start = lane.pending_start()
        assert start == pytest.approx(0.003)  # 4th arrival fills max_batch=4
        assert lane.pop_batch(start).tolist() == [0, 1, 2, 3]
        assert lane.queue_depth == 1

    def test_opportunistic_fill_while_device_busy(self, stack):
        lane = self._lane(stack, [0.0, 0.2, 0.4])
        lane.t_free = 0.5
        start = lane.pending_start()
        assert start == pytest.approx(0.5)
        assert lane.pop_batch(start).tolist() == [0, 1, 2]

    def test_backlog_counts_admitted_minus_dispatched(self, stack):
        lane = self._lane(stack, [0.0, 0.1, 0.2, 5.0])
        assert lane.backlog_at(0.25) == 3
        assert lane.pop_batch(lane.pending_start()).tolist() == [0]  # head timeout batch
        assert lane.backlog_at(0.25) == 2  # dispatched work no longer counted
        _drain(lane)
        assert lane.backlog_at(0.25) == 0
        assert lane.backlog_at(5.5) == 0

    def test_critical_backlog_tracks_class(self, stack):
        from repro.serving.governor import StaticPolicy

        lane = DeviceLane(0, stack, StaticPolicy(stack.static_config))
        lane.push(0, 0.0, critical=True)
        lane.push(1, 0.1, critical=False)
        lane.push(2, 0.2, critical=True)
        assert lane.critical_backlog_at(0.15) == 1
        assert lane.critical_backlog_at(0.25) == 2
        assert lane.pop_batch(lane.pending_start()).tolist() == [0]  # head timeout batch
        assert lane.critical_backlog_at(0.25) == 1  # critical 2 still queued
        _drain(lane)
        assert lane.critical_backlog_at(0.25) == 0

    def test_critical_backlog_exact_under_tied_arrivals(self, stack):
        """A dispatch that pops best-effort entries tied with a queued
        critical leaves the critical counted."""
        from repro.serving.governor import StaticPolicy

        lane = DeviceLane(0, stack, StaticPolicy(stack.static_config))
        for i in range(4):
            lane.push(i, 1.0, critical=False)
        lane.push(4, 1.0, critical=True)
        assert lane.pop_batch(lane.pending_start()).tolist() == [0, 1, 2, 3]  # max_batch 4
        assert lane.critical_backlog_at(1.0) == 1

    def test_steal_tail_stops_at_critical_and_keeps_books_aligned(self, stack):
        from repro.serving.governor import StaticPolicy

        lane = DeviceLane(0, stack, StaticPolicy(stack.static_config))
        classes = np.array([BEST_EFFORT, LATENCY_CRITICAL] + [BEST_EFFORT] * 4)
        for i, cls in enumerate(classes):
            lane.push(i, 0.1 * i, critical=cls == LATENCY_CRITICAL)
        assert lane.pop_batch(0.0).tolist() == [0]  # the books must stay aligned past it
        assert lane.steal_tail(1, classes) == [5]
        assert lane.steal_tail(10, classes) == [2, 3, 4]  # FIFO, stops at 1
        assert lane.steal_tail(10, classes) == []  # a critical heads the tail
        assert lane.request_indices[lane._popped:].tolist() == [1]
        assert lane._admitted_times[lane._popped:].tolist() == [0.1]
        assert lane.request_indices.tolist() == [0, 1]
        assert lane.queue_depth == 1
        assert lane.stolen_out == 4
        assert lane.backlog_at(1.0) == 1
        assert lane.critical_backlog_at(1.0) == 1

        thief = DeviceLane(1, stack, StaticPolicy(stack.static_config))
        thief.receive_stolen([2, 3, 4], now_s=0.6)
        assert thief.request_indices[thief._popped:].tolist() == [2, 3, 4]
        assert thief._admitted_times.tolist() == [0.6] * 3  # re-stamped at the steal
        assert thief.queue_depth == 3
        assert thief.backlog_at(0.6) == 3
        assert thief.stolen_in == 3


# ---------------------------------------------------------------- fleet cells
class TestFleetCell:
    @pytest.fixture(scope="class")
    def report(self):
        return run_fleet_cell(
            FleetSpec(platforms=("tx2-gpu", "agx-gpu"), pattern="bursty", duration_s=5.0)
        )

    def test_report_consistency(self, report):
        assert report.num_requests > 0
        assert len(report.devices) == 2
        assert sum(d.requests for d in report.devices) == report.num_requests
        assert sum(d.share for d in report.devices) == pytest.approx(1.0)
        assert sum(report.exit_usage) == pytest.approx(1.0)
        assert report.latency_ms_p50 <= report.latency_ms_p95 <= report.latency_ms_p99
        assert report.total_energy_j == pytest.approx(
            sum(d.energy_j for d in report.devices)
        )
        assert 0 <= report.deadline_miss_rate <= 1
        assert 0 < report.accuracy <= 1
        for device in report.devices:
            assert 0 <= device.utilization <= 1
            assert sum(device.exit_usage) == pytest.approx(1.0 if device.requests else 0.0)

    def test_render_fleet_report(self, report):
        text = render_fleet_report(report)
        assert "tx2-gpu" in text and "agx-gpu" in text
        assert "p95" in text

    @pytest.mark.parametrize("scenario", ["nominal", "thermal-cap", "battery-budget"])
    def test_fleet_of_one_matches_single_device(self, scenario):
        """A one-lane fleet reproduces the single-device simulator exactly —
        in every scenario, including the capped ones: every field the two
        reports share, and the device's batches, config usage and throttling."""
        fleet = run_fleet_cell(
            FleetSpec(platforms=("tx2-gpu",), pattern="bursty", scenario=scenario,
                      router="round_robin", duration_s=5.0)
        )
        single = run_serving_cell(ServingSpec(platform="tx2-gpu", pattern="bursty",
                                              scenario=scenario, duration_s=5.0))
        shared = {f.name for f in dataclasses.fields(FleetReport)} & {
            f.name for f in dataclasses.fields(ServingReport)
        }
        assert {name: getattr(fleet, name) for name in shared} == {
            name: getattr(single, name) for name in shared
        }
        (device,) = fleet.devices
        assert device.batches == single.num_batches
        assert device.config_usage == single.config_usage
        assert device.throttled_batches == single.throttled_batches

    def test_difficulty_aware_beats_round_robin_bursty(self):
        """The PR acceptance contract, at test scale."""
        base = dict(platforms=("tx2-gpu", "agx-gpu"), pattern="bursty", duration_s=8.0)
        rr = run_fleet_cell(FleetSpec(router="round_robin", **base))
        da = run_fleet_cell(FleetSpec(router="difficulty_aware", **base))
        assert da.latency_ms_p95 <= rr.latency_ms_p95
        assert da.total_energy_j <= rr.total_energy_j
        assert "vs" in render_router_comparison(rr, da)

    def test_thermal_and_battery_scenarios(self):
        thermal = run_fleet_cell(
            FleetSpec(platforms=("tx2-gpu", "agx-gpu"), scenario="thermal-cap",
                      duration_s=4.0)
        )
        assert thermal.peak_temperature_c > 0
        battery = run_fleet_cell(
            FleetSpec(platforms=("tx2-gpu", "agx-gpu"), scenario="battery-budget",
                      duration_s=4.0)
        )
        assert battery.battery_budget_j > 0
        assert battery.battery_spent_j > 0


# -------------------------------------------------------------- determinism
class TestDeterminism:
    """Same seed ⇒ bit-identical telemetry, however the cells are executed."""

    SPECS = [
        FleetSpec(platforms=("tx2-gpu", "agx-gpu"), pattern="bursty",
                  router=router, duration_s=4.0)
        for router in ("round_robin", "difficulty_aware")
    ]

    def test_rerun_is_bit_identical(self):
        assert run_fleet_cell(self.SPECS[0]) == run_fleet_cell(self.SPECS[0])

    def test_simulator_runs_twice_to_the_same_report(self):
        """Each run builds its own lanes: no book, meter or governor state
        carries over into a second run of one simulator."""
        spec = FleetSpec(platforms=("tx2-gpu", "agx-gpu"), duration_s=2.0)
        stacks = build_fleet_stacks(spec)
        trace, stream = build_fleet_trace_and_stream(spec, stacks)
        sim = FleetSimulator(spec, stacks)
        first = sim.run(trace, stream)
        assert sim.run(trace, stream) == first
        assert first == FleetSimulator(spec, stacks).run(trace, stream)

    def test_thread_executor_matches_serial(self):
        serial = fleet_sweep(self.SPECS, executor="serial")
        threaded = fleet_sweep(self.SPECS, workers=2, executor="thread")
        assert serial == threaded

    def test_warm_cache_matches_cold(self, tmp_path):
        cold = fleet_sweep(self.SPECS, cache_dir=str(tmp_path))
        warm = fleet_sweep(self.SPECS, cache_dir=str(tmp_path))
        assert cold == warm
        cache = ResultCache(tmp_path)
        assert cache.stats("fleet").misses == 0  # second sweep fully warm
        assert len(cache) == 2

    def test_single_device_sweep_matches_across_executors(self, tmp_path):
        specs = [
            ServingSpec(pattern="bursty", policy=policy, duration_s=4.0)
            for policy in ("static", "adaptive")
        ]
        from repro.serving.harness import sweep

        serial = sweep(specs, executor="serial")
        threaded = sweep(specs, workers=2, executor="thread")
        assert serial == threaded
        cold = sweep(specs, cache_dir=str(tmp_path))
        warm = sweep(specs, cache_dir=str(tmp_path))
        assert cold == warm == serial


# ---------------------------------------------------------- deployed designs
class TestDeployedDesign:
    def test_design_from_search_result(self, tiny_search_result, searched_design):
        best = tiny_search_result.selected_model()
        assert searched_design.backbone == best.payload["config"]
        assert searched_design.positions == best.payload["evaluation"].placement.positions
        assert searched_design.core_ghz == best.payload["evaluation"].setting.core_ghz
        assert 0 < searched_design.backbone_accuracy <= 1
        assert searched_design.platform == "tx2-gpu"

    def test_design_round_trips_through_json(self, tmp_path, searched_design):
        path = save_design(searched_design, tmp_path / "design.json", extra={"note": "x"})
        assert load_design(path) == searched_design
        # A bare design payload (no wrapper) also loads.
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(json.loads(path.read_text())["design"]))
        assert load_design(bare) == searched_design

    def test_design_validates_positions(self):
        from repro.baselines.attentivenas import attentivenas_model

        backbone = attentivenas_model("a0")
        with pytest.raises(ValueError):
            DeployedDesign(
                backbone=backbone,
                positions=(1,),  # below MIN_EXIT_POSITION
                core_ghz=1.0, emc_ghz=1.0, backbone_accuracy=0.8,
            )
        with pytest.raises(ValueError, match="backbone_accuracy"):
            DeployedDesign(
                backbone=backbone,
                positions=(6,),
                core_ghz=1.0, emc_ghz=1.0, backbone_accuracy=80.0,  # percent, not fraction
            )

    def test_design_from_individual_requires_payload(self):
        from repro.search.individual import Individual

        bare = Individual(genome=np.zeros(3, dtype=np.int64))
        with pytest.raises(KeyError):
            design_from_individual(bare)


# --------------------------------------------------- search → serve round trip
class TestSearchToServe:
    """End-to-end regression: the *searched* design is what gets served."""

    def test_serving_stack_mounts_searched_design(self, searched_design):
        spec = ServingSpec(duration_s=3.0, design=searched_design)
        stack = build_serving_stack(spec)
        assert stack.placement.positions == searched_design.positions
        assert stack.evaluator.config == searched_design.backbone
        assert stack.synthesizer.backbone_accuracy == pytest.approx(
            searched_design.backbone_accuracy
        )

    def test_single_device_serves_searched_design(self, searched_design):
        report = run_serving_cell(ServingSpec(duration_s=3.0, design=searched_design))
        # The report names the searched design, not the default mount ...
        assert report.model.startswith("searched:")
        assert searched_design.backbone.key in report.model
        # ... and its exit histogram matches the searched placement.
        assert len(report.exit_usage) == searched_design.num_exits + 1
        assert sum(report.exit_usage) == pytest.approx(1.0)
        assert report.num_requests > 0
        assert report.latency_ms_p50 <= report.latency_ms_p95 <= report.latency_ms_p99
        assert report.energy_per_request_j > 0

    def test_fleet_serves_searched_design(self, searched_design):
        report = run_fleet_cell(
            FleetSpec(platforms=("tx2-gpu", "agx-gpu"), duration_s=3.0,
                      design=searched_design)
        )
        assert report.model.startswith("searched:")
        assert len(report.exit_usage) == searched_design.num_exits + 1
        assert sum(d.requests for d in report.devices) == report.num_requests

    def test_design_changes_cache_key(self, tmp_path, searched_design):
        from repro.serving.harness import cell_cache_key

        cache = ResultCache(tmp_path)
        default = cell_cache_key(cache, ServingSpec(duration_s=3.0))
        mounted = cell_cache_key(cache, ServingSpec(duration_s=3.0, design=searched_design))
        assert default != mounted

    def test_cli_round_trip(self, tmp_path, capsys):
        """`repro search --out` → `repro serve --from-result --fleet`."""
        from repro.__main__ import main

        out = tmp_path / "design.json"
        assert main([
            "search", "--budget", "tiny", "--seed", "3", "--out", str(out),
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main([
            "serve", "--from-result", str(out), "--fleet", "tx2,xavier",
            "--router", "difficulty_aware", "--trace", "bursty",
            "--duration-s", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "mounting searched:" in output
        assert "difficulty_aware router" in output
        assert "tx2-gpu" in output and "agx-gpu" in output

    def test_cli_rejects_bad_design_file(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a design\"}")
        with pytest.raises(SystemExit):
            main(["serve", "--from-result", str(bad), "--duration-s", "1"])
        assert "cannot load design" in capsys.readouterr().err


# ----------------------------------------------------------------------- CLI
class TestFleetCli:
    def test_serve_fleet_compares_routers(self, capsys):
        from repro.__main__ import main

        assert main([
            "serve", "--fleet", "tx2,xavier", "--router", "all",
            "--duration-s", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "difficulty_aware vs round_robin" in out
        assert "least_backlog vs round_robin" in out

    def test_serve_fleet_writes_json(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "fleet.json"
        assert main([
            "serve", "--fleet", "tx2-gpu,agx-gpu", "--router", "difficulty_aware",
            "--trace", "bursty", "--duration-s", "2", "--json", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["specs"][0]["router"] == "difficulty_aware"
        assert payload["specs"][0]["platforms"] == ["tx2-gpu", "agx-gpu"]
        assert payload["reports"][0]["num_requests"] > 0
        assert len(payload["reports"][0]["devices"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--max-batch", "0"], ["--batch-timeout-ms", "-1"], ["--window-ms", "0"],
         ["--window-ms", "-5"]],
    )
    def test_serve_fleet_rejects_bad_batch_and_window(self, flags, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--fleet", "tx2,xavier", "--duration-s", "1", *flags])
        assert exit_info.value.code == 2
        assert "repro serve: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--num-exits", "0"], ["--model", "zz"]])
    def test_serve_fleet_rejects_bad_model_and_exits(self, flags, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--fleet", "tx2", "--duration-s", "1", *flags])
        assert exit_info.value.code == 2
        assert "repro serve: error:" in capsys.readouterr().err

    def test_serve_fleet_rejects_unknown_platform(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["serve", "--fleet", "tx2,gamecube", "--duration-s", "1"])
        assert "valid platforms" in capsys.readouterr().err


# ------------------------------------------------------------- cache codec
class TestFleetCache:
    def test_fleet_report_json_round_trip(self, tmp_path, entry_codec):
        cache = ResultCache(tmp_path)
        spec = FleetSpec(platforms=("tx2-gpu", "agx-gpu"), duration_s=3.0)
        report = run_fleet_cell(spec)
        key = fleet_cache_key(cache, spec)
        cache.put(key, report)
        assert entry_codec(cache, key) == "json"  # plain-data report, human-readable
        rebuilt = cache.get(key, cls=FleetReport)
        assert rebuilt == report
        assert rebuilt.devices[0] == report.devices[0]

    def test_sweep_dedupes_identical_specs(self, tmp_path):
        spec = FleetSpec(platforms=("tx2-gpu",), duration_s=3.0)
        reports = fleet_sweep([spec, spec], cache_dir=str(tmp_path))
        assert reports[0] == reports[1]
        assert len(ResultCache(tmp_path)) == 1


# ----------------------------------------------------- load split / stacks
class TestFleetStacks:
    def test_explicit_rate_splits_by_capacity(self):
        spec = FleetSpec(platforms=("tx2-gpu", "agx-gpu"), rate_hz=60.0)
        stacks = build_fleet_stacks(spec)
        assert sum(s.rate_hz for s in stacks) == pytest.approx(60.0)
        assert stacks[1].rate_hz > stacks[0].rate_hz  # agx is the stronger device

    def test_stream_covers_whole_trace(self):
        spec = FleetSpec(platforms=("tx2-gpu", "agx-gpu"), duration_s=3.0)
        stacks = build_fleet_stacks(spec)
        trace, stream = build_fleet_trace_and_stream(spec, stacks)
        assert stream.num_requests == trace.num_requests
        # Identical mounts ⇒ identical placements on every lane.
        assert len({s.placement.positions for s in stacks}) == 1

    def test_trace_is_built_through_the_workload_module(self, monkeypatch):
        """Tracing wrappers replace ``repro.serving.workload.make_trace``, so
        ``build_fleet_trace_and_stream`` must call that attribute, not a name bound at import."""
        from repro.serving import workload

        calls = []
        make_trace = workload.make_trace
        monkeypatch.setattr(
            workload, "make_trace", lambda *a, **k: calls.append(a) or make_trace(*a, **k)
        )
        spec = FleetSpec(platforms=("tx2-gpu", "agx-gpu"), duration_s=2.0)
        build_fleet_trace_and_stream(spec, build_fleet_stacks(spec))
        assert len(calls) == 1


# ----------------------------------------------------------- latent-bug pins
class TestFleetRegressions:
    def test_exit_head_mismatch_raises(self):
        """Regression: a stream with the wrong number of exit heads used to
        crash deep inside a lane's compiled executor; the fleet now refuses
        upfront, same as the single-device simulator."""
        from repro.serving.fleet import FleetSimulator

        spec = FleetSpec(platforms=("tx2-gpu", "agx-gpu"), duration_s=3.0)
        stacks = build_fleet_stacks(spec)
        trace, stream = build_fleet_trace_and_stream(spec, stacks)
        wrong = dataclasses.replace(stream, capabilities=stream.capabilities[:-1])
        with pytest.raises(ValueError, match="exit heads"):
            FleetSimulator(spec, stacks).run(trace, wrong)


class TestLaneBooks:
    """A lane keeps each request's index and instants once, as machine
    words in typed books, and no numpy view of a book outlives the run."""

    #: The fleet loop reads arrivals in chunks of this many requests.
    _CHUNK = 65536

    @staticmethod
    def _assert_books_released(lanes):
        # An exported ``array`` refuses to grow (BufferError).
        for lane in lanes:
            lane.request_indices.append(0)
            lane._admitted_times.append(0.0)
            lane._routed_times.append(0.0)

    def _held_at_summary(self, monkeypatch, lengths) -> list[int]:
        """Traced bytes a quad-fleet run holds when it enters the run
        summary, for a Poisson trace cut at each of ``lengths`` requests."""
        spec = FleetSpec(platforms=_QUAD, router="difficulty_aware", seed=1)
        stacks = build_fleet_stacks(spec)
        rate_hz = sum(stack.rate_hz for stack in stacks)
        arrivals = poisson_trace(rate_hz, 1.1 * max(lengths) / rate_hz, seed=1).arrival_s
        assert len(arrivals) > max(lengths)
        held = []
        run_summary = fleet.run_summary

        def measure(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return run_summary(*args, **kwargs)

        monkeypatch.setattr(fleet, "run_summary", measure)
        for n in lengths:
            trace = replay_trace(arrivals[:n], seed=spec.seed)
            stream = stacks[0].synthesizer.synthesize(trace.difficulties())
            sim = FleetSimulator(spec, stacks)
            gc.collect()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                sim.run(trace, stream)
            finally:
                tracemalloc.stop()
            held[-1] -= start
            assert trace.num_requests == n
            self._assert_books_released(sim.lanes)
        return held

    def test_settled_fleet_holds_a_few_words_per_request(self, monkeypatch):
        """Once every lane has settled, a quad-fleet run holds, per routed
        request, three book words (index, admitted and routed instants), a
        class flag, a completion instant and a correctness byte: 34 B plus
        the books' growth slack.  The marginal over two trace lengths
        cancels fixed costs."""
        remainder = 1000
        lengths = (remainder, self._CHUNK + remainder)
        held = self._held_at_summary(monkeypatch, lengths)
        per_request = (held[1] - held[0]) / (lengths[1] - lengths[0])
        assert per_request < 40.0, per_request

    def test_last_arrival_chunk_is_released_before_the_summary(self, monkeypatch):
        """The loop reads arrivals a chunk at a time as Python lists, about
        64 B per request; none of them is alive at the run summary.  A
        trace whose last chunk is full therefore holds no more than a
        longer one whose last chunk has 1,000 arrivals (with the chunk
        still alive: 6.58 MB against 2.45 MB)."""
        full, longer = self._held_at_summary(monkeypatch, (self._CHUNK, self._CHUNK + 1000))
        assert full <= longer, (full, longer)

    def test_lane_that_serves_nothing(self):
        """An empty book reports zeros, like the spec's loop."""
        spec = FleetSpec(platforms=("tx2-gpu", "agx-gpu"), router="round_robin")
        stacks = build_fleet_stacks(spec)
        trace = replay_trace(np.array([0.01]), duration_s=1.0, seed=spec.seed)
        stream = stacks[0].synthesizer.synthesize(trace.difficulties())
        sim = FleetSimulator(spec, stacks)
        report = sim.run(trace, stream)
        assert [device.requests for device in report.devices] == [1, 0]
        idle = report.devices[1]
        assert idle.batches == 0 and idle.latency_ms_p95 == 0.0 and idle.accuracy == 0.0
        assert report == spec_fleet.ReferenceFleetSimulator(spec, stacks).run(trace, stream)
        self._assert_books_released(sim.lanes)


# ---------------------------------------------------------- engine identity
_DUO = ("tx2-gpu", "agx-gpu")
_QUAD = ("agx-gpu", "carmel-cpu", "tx2-gpu", "denver-cpu")  # the bench fleet


def _identity_case(router, max_queue, bypass, crit, platforms=_DUO, prefix=""):
    case = (router, max_queue, bypass, crit)
    return pytest.param(*case, platforms, id=prefix + "-".join(map(str, case)))


class TestEngineIdentity:
    """The heap-drained loop reproduces the lane-scanning loop
    (``spec.fleet``) field-for-field across fleets, routers, admission
    settings, SLO mixes, tied arrivals and throttling."""

    @pytest.mark.parametrize(
        "router,max_queue,bypass,crit,platforms",
        [
            _identity_case("round_robin", None, True, 0.0),
            _identity_case("round_robin", 2, False, 1.0),
            _identity_case("least_backlog", 6, True, 0.3),
            _identity_case("least_backlog", None, True, 1.0),
            _identity_case("difficulty_aware", None, True, 0.0),
            _identity_case("difficulty_aware", 6, True, 0.3),
            _identity_case("difficulty_aware", 2, False, 1.0),
            _identity_case("difficulty_aware", None, True, 0.0, _QUAD, "quad-"),
            _identity_case("least_backlog", 3, True, 0.3, ("tx2-gpu",), "one-lane-"),
        ],
    )
    def test_indexed_matches_reference(self, router, max_queue, bypass, crit, platforms):
        base = dict(
            platforms=platforms,
            pattern="bursty",
            router=router,
            duration_s=3.0,
            critical_fraction=crit,
            admission_max_queue=max_queue,
            admission_critical_bypass=bypass,
        )
        ref = spec_fleet.run_reference_cell(FleetSpec(**base))
        idx = run_fleet_cell(FleetSpec(**base))
        assert idx == ref

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        pattern=st.sampled_from(("poisson", "bursty")),
        router=st.sampled_from(
            ("round_robin", "least_backlog", "difficulty_aware")
        ),
        crit=st.sampled_from((0.0, 0.25, 1.0)),
        max_queue=st.sampled_from((None, 3, 8)),
    )
    def test_random_cells_identical(self, seed, pattern, router, crit, max_queue):
        base = dict(
            platforms=("tx2-gpu", "agx-gpu"),
            pattern=pattern,
            router=router,
            seed=seed,
            duration_s=2.0,
            critical_fraction=crit,
            admission_max_queue=max_queue,
        )
        ref = spec_fleet.run_reference_cell(FleetSpec(**base))
        idx = run_fleet_cell(FleetSpec(**base))
        assert idx == ref


    @pytest.mark.parametrize("router", ("round_robin", "least_backlog", "difficulty_aware"))
    @pytest.mark.parametrize("platforms", [("tx2-gpu",), _QUAD], ids=["one-lane", "quad"])
    @pytest.mark.parametrize("grain_s", (0.01, 0.05))
    def test_tied_arrivals_match_reference(self, router, platforms, grain_s):
        """Arrivals rounded to a grain tie in groups, which no built-in
        pattern produces: a tied push can be a batch trigger (at 50 ms a
        whole batch lands at once), and a batch starting at the next
        arrival's instant must wait for it."""
        from repro.serving.fleet import FleetSimulator
        from repro.serving.workload import replay_trace

        spec = FleetSpec(
            platforms=platforms,
            router=router,
            utilization=1.0,
            duration_s=3.0,
            critical_fraction=0.3,
            admission_max_queue=4,
        )
        stacks = build_fleet_stacks(spec)
        base, _ = build_fleet_trace_and_stream(spec, stacks)
        trace = replay_trace(
            np.round(base.arrival_s / grain_s) * grain_s,
            seed=spec.seed,
            critical_fraction=0.3,
        )
        assert np.any(np.diff(trace.arrival_s) == 0.0)
        stream = stacks[0].synthesizer.synthesize(trace.difficulties())
        idx = FleetSimulator(spec, stacks).run(trace, stream)
        ref = spec_fleet.ReferenceFleetSimulator(spec, stacks).run(trace, stream)
        assert idx == ref

    def test_each_arrival_routed_once(self):
        """One route per arrival, served or dropped: nothing is routed twice."""
        from repro.obs.trace import Recorder, recording

        spec = FleetSpec(
            platforms=_DUO,
            router="round_robin",
            pattern="bursty",
            duration_s=2.0,
            critical_fraction=0.3,
            admission_max_queue=3,
        )
        with recording(Recorder()) as recorder:
            report = run_fleet_cell(spec)
        assert report.num_dropped > 0
        assert report.num_served + report.num_dropped == report.num_requests
        assert recorder.counters["fleet.routed"] == report.num_requests

    def test_throttled_cell_matches_reference(self):
        """Both lanes throttle under the thermal cap, in both loops alike."""
        spec = FleetSpec(
            platforms=("tx2-gpu", "agx-gpu"),
            scenario="thermal-cap",
            policy="static",
            pattern="poisson",
            router="least_backlog",
            utilization=0.7,
            duration_s=8.0,
            seed=3,
        )
        idx = run_fleet_cell(spec)
        assert idx == spec_fleet.run_reference_cell(spec)
        assert all(device.throttled_batches > 0 for device in idx.devices)


# ------------------------------------------------------------ band caching
class TestBandCache:
    def test_route_does_not_rebuild_bands_per_call(self):
        """Band edges are built once, with the router: routing calls never
        re-read lane capacities (the sort key), so there is no per-call
        sorting."""

        class _CountingLane:
            def __init__(self, index, capacity):
                self.index = index
                self._capacity = capacity
                self.capacity_reads = 0
                self.queue_depth = 0
                self.t_free = 0.0

            @property
            def reference_capacity_rps(self):
                self.capacity_reads += 1
                return self._capacity

            def estimated_wait_s(self, now_s):
                return 0.0

        lanes = [_CountingLane(0, 10.0), _CountingLane(1, 30.0)]
        router = DifficultyAwareRouter(lanes, slo_s=0.075)
        state = BlockLaneState(lanes)
        baseline = [lane.capacity_reads for lane in lanes]
        for k in range(64):
            spec_fleet.route(router, k / 64.0, BEST_EFFORT, 0.0, lanes)
        router.route_block([k / 64.0 for k in range(64)], None, [0.0] * 64, state)
        assert [lane.capacity_reads for lane in lanes] == baseline


# ------------------------------------------------------------ work stealing
class TestWorkStealing:
    def test_steal_cell_stays_consistent(self):
        # Round-robin under bursty load stalls a lane while another idles:
        # the cell where stealing fires (backlog-aware routers self-balance).
        report = run_fleet_cell(
            FleetSpec(
                platforms=("tx2-gpu", "agx-gpu"),
                router="round_robin",
                pattern="bursty",
                duration_s=5.0,
                utilization=0.95,
                seed=7,
                steal=True,
            )
        )
        assert report.num_stolen > 0
        assert sum(d.stolen_in for d in report.devices) == report.num_stolen
        assert sum(d.stolen_out for d in report.devices) == report.num_stolen
        assert sum(d.requests for d in report.devices) == report.num_requests
        assert report.latency_ms_p50 <= report.latency_ms_p95 <= report.latency_ms_p99
