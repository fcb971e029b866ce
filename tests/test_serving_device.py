"""The device core both serving engines share
(:class:`repro.serving.simulator.ServingDevice`): every batch goes through
its ``serve``, its counters match the reports, rungs with equal thresholds
share one decision table, the compiled stream is gone before the report is
built, and the fleet's shared battery agrees with the executable spec."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.obs.trace import Recorder, recording
from repro.serving import fleet, simulator
from repro.serving.fleet import (
    FleetSimulator,
    FleetSpec,
    build_fleet_stacks,
    build_fleet_trace_and_stream,
    run_fleet_cell,
)
from repro.serving.harness import ServingSpec, run_serving_cell
from repro.serving.simulator import ServingDevice
from spec import fleet as spec_fleet

# Cells that throttle under the thermal cap (the static policy ignores it).
_SPAN_CELL = ServingSpec(pattern="poisson", scenario="thermal-cap", policy="static", duration_s=6.0)
_QUEUE_CELL = dataclasses.replace(
    _SPAN_CELL, pattern="bursty", critical_fraction=0.2, admission_max_queue=8
)
_TRIO_CELL = FleetSpec(
    platforms=("tx2-gpu", "agx-gpu", "carmel-cpu"),
    pattern="bursty",
    scenario="thermal-cap",
    policy="static",
    router="round_robin",
    utilization=1.1,
    duration_s=6.0,
    steal=True,
)


def _count_serves(monkeypatch) -> list[int]:
    calls = [0]
    serve = ServingDevice.serve

    def counting(self, start, requests):
        calls[0] += 1
        return serve(self, start, requests)

    monkeypatch.setattr(ServingDevice, "serve", counting)
    return calls


class TestOneStep:
    @pytest.mark.parametrize("spec", [_SPAN_CELL, _QUEUE_CELL], ids=["span", "queue"])
    def test_simulator_serves_every_batch_through_the_device(self, monkeypatch, spec):
        calls = _count_serves(monkeypatch)
        report = run_serving_cell(spec)
        assert report.num_batches > 0
        assert calls[0] == report.num_batches

    def test_fleet_serves_every_batch_through_the_device(self, monkeypatch):
        calls = _count_serves(monkeypatch)
        report = run_fleet_cell(_TRIO_CELL)
        assert report.num_stolen > 0  # the decision hook ran inside serve
        assert calls[0] == sum(device.batches for device in report.devices) > 0


class TestCounters:
    def test_simulator_counters_match_the_report(self):
        with recording(Recorder()) as recorder:
            report = run_serving_cell(_SPAN_CELL)
        counters = recorder.counters
        assert report.throttled_batches > 0
        assert counters["serving.governor_decisions"] == report.governor_decisions
        assert counters["serving.throttled_batches"] == report.throttled_batches
        assert counters["serving.batches"] == report.num_batches

    def test_fleet_counters_match_the_report(self):
        """Each lane's t=0 decision is counted, as the report counts it."""
        with recording(Recorder()) as recorder:
            report = run_fleet_cell(_TRIO_CELL)
        counters = recorder.counters
        devices = report.devices
        assert sum(device.throttled_batches for device in devices) > 0
        assert counters["fleet.governor_decisions"] == report.governor_decisions
        assert counters["fleet.throttled_batches"] == sum(d.throttled_batches for d in devices)
        assert counters["fleet.batches"] == sum(d.batches for d in devices)
        for device in devices:
            assert counters[f"fleet.lane.{device.platform}.batches"] == device.batches


class TestSharedDecisions:
    def test_rungs_with_equal_thresholds_share_one_decision_pass(self, monkeypatch):
        """On the bench quad fleet's stacks (``fleet-quad-1m``: stack seed 7,
        traffic seed 1, here 10,000 requests), the four lanes' ladders hold
        48 rungs over 4 threshold tuples: the stream is compiled once, into
        one decision table per tuple, and the 8 rungs the run uses share one
        ``decisions`` buffer and ``correct`` array per tuple."""
        compiles, rungs = [], []
        compile_stream = fleet.compile_stream
        compiled_of = simulator._RungMemo.compiled_of

        def counting_compile(stream, thresholds):
            thresholds = list(thresholds)
            cstream = compile_stream(stream, thresholds)
            compiles.append((thresholds, cstream))
            return cstream

        def recording(memo, config):
            rung = compiled_of(memo, config)
            rungs.append((config.thresholds, rung))
            return rung

        monkeypatch.setattr(fleet, "compile_stream", counting_compile)
        monkeypatch.setattr(simulator._RungMemo, "compiled_of", recording)
        spec = FleetSpec(
            platforms=("agx-gpu", "carmel-cpu", "tx2-gpu", "denver-cpu"),
            router="difficulty_aware",
            policy="adaptive",
            pattern="poisson",
            seed=7,
        )
        stacks = build_fleet_stacks(spec)
        spec = dataclasses.replace(
            spec, seed=1, duration_s=10_000 / sum(stack.rate_hz for stack in stacks)
        )
        trace, stream = build_fleet_trace_and_stream(spec, stacks)
        FleetSimulator(spec, stacks).run(trace, stream)

        [(offered, cstream)] = compiles
        assert (len(offered), len(set(offered)), len(cstream.tables)) == (48, 4, 4)
        compiled = {id(rung): (thresholds, rung) for thresholds, rung in rungs}
        distinct = {thresholds for thresholds, _ in compiled.values()}
        assert (len(compiled), len(distinct)) == (8, 4)
        assert distinct == set(cstream.tables)
        for thresholds in distinct:
            group = [rung for key, rung in compiled.values() if key == thresholds]
            first = group[0]
            assert not first.decisions.flags.writeable
            for rung in group[1:]:
                assert np.shares_memory(rung.decisions, first.decisions)
                assert rung.correct is first.correct


class TestRelease:
    @pytest.mark.parametrize("engine", ["single", "fleet"])
    def test_compiled_stream_is_freed_before_the_report(self, monkeypatch, engine):
        """``settle`` drops the rungs, so the compiled stream is unreachable
        by the time the run summary allocates the report's arrays."""
        module = simulator if engine == "single" else fleet
        compiled, alive = [], []
        compile_stream, run_summary = module.compile_stream, module.run_summary

        def compile_and_watch(stream, thresholds):
            cstream = compile_stream(stream, thresholds)
            compiled.append(weakref.ref(cstream))
            return cstream

        def summarise_after_release(*args, **kwargs):
            gc.collect()
            alive.append([ref() is not None for ref in compiled])
            return run_summary(*args, **kwargs)

        monkeypatch.setattr(module, "compile_stream", compile_and_watch)
        monkeypatch.setattr(module, "run_summary", summarise_after_release)
        if engine == "single":
            run_serving_cell(_SPAN_CELL)
        else:
            run_fleet_cell(dataclasses.replace(_TRIO_CELL, steal=False))
        assert alive == [[False]]


class TestFleetBattery:
    def test_engines_bit_identical_when_the_battery_runs_out(self):
        """The shared battery of both fleet loops, at half the scenario's
        budget: the lanes exhaust it together, in both loops alike."""
        spec = FleetSpec(
            platforms=("agx-gpu", "tx2-gpu", "denver-cpu"),
            pattern="bursty",
            scenario="battery-budget",
            duration_s=3.0,
        )
        stacks = build_fleet_stacks(spec)
        trace, stream = build_fleet_trace_and_stream(spec, stacks)
        reports = []
        for cls in (FleetSimulator, spec_fleet.ReferenceFleetSimulator):
            sim = cls(spec, stacks)
            sim.scenario = dataclasses.replace(
                sim.scenario, battery_scale=0.5 * sim.scenario.battery_scale
            )
            reports.append(sim.run(trace, stream))
        indexed, reference = reports
        assert indexed == reference
        assert indexed.battery_exhausted
        assert indexed.battery_spent_j > indexed.battery_budget_j
