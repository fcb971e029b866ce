"""Traced pass: per-layer calls, busy time and self time, measured from outside.

The traced pass never edits the program.  It replaces public functions
where their callers look them up (a module attribute or a class attribute)
with timing wrappers, and restores them afterwards.  Each wrapper belongs to
a *layer*; a layer's busy time is the time spent in its outermost entries,
and its self time is busy time minus the time its callees in *other* layers
took.  The wall time of the traced region minus the summed self times is
``unattributed_s``.

Work inside pool worker processes cannot be wrapped from the parent.  The
program already ships each worker's ``repro.obs`` spans and counters home
in its executor envelopes; the pass installs a recorder and keeps a copy of
every envelope payload, so worker-side counts and span times are added to
the layers they belong to.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

#: (module, attribute path, layer, call counter, row argument) for every
#: wrapped entry point.  The row argument is the index, after ``self``, of
#: the argument whose length is summed as rows (``None``: no rows).
ENTRY_POINTS = (
    # engine
    ("repro.engine.service", "EvaluationService.evaluate_batch", "engine.service", "service_batches", None),
    ("repro.engine.cache", "ResultCache.get", "engine.cache.get", "cache_gets", None),
    ("repro.engine.cache", "ResultCache.put", "engine.cache.put", "cache_puts", None),
    # search
    ("repro.search.ooe", "OuterEngine.run", "search.ooe", "ooe_runs", None),
    ("repro.search.ioe", "InnerEngine.run", "search.ioe", "ioe_runs", None),
    ("repro.search.nsga2", "NSGA2.run", "search.nsga2", "nsga_runs", None),
    ("repro.search.nsga2", "non_dominated_sort", "search.nsga2.sort", "sorts", None),
    ("repro.search.operators", "uniform_crossover", "search.operators", "operator_calls", None),
    ("repro.search.operators", "two_point_crossover", "search.operators", "operator_calls", None),
    ("repro.search.operators", "reset_mutation", "search.operators", "operator_calls", None),
    ("repro.search.operators", "creep_mutation", "search.operators", "operator_calls", None),
    ("repro.search.operators", "bitflip_mutation", "search.operators", "operator_calls", None),
    # eval
    ("repro.eval.static", "StaticEvaluator.evaluate", "eval.static", "static_calls", None),
    ("repro.eval.dynamic", "DynamicEvaluator.evaluate_generation", "eval.dynamic", "generation_calls", None),
    ("repro.eval.dynamic", "DynamicEvaluator.evaluate_population", "eval.dynamic", "population_calls", 0),
    # accuracy
    ("repro.accuracy.exit_model", "BackboneExitOracle.evaluate_placements", "accuracy.exit_model", "oracle_batch_calls", 0),
    # hardware
    ("repro.hardware.population_kernel", "PopulationKernel.fused_batch", "hardware.population_kernel", "kernel_calls", None),
    ("repro.hardware.population_kernel", "PopulationKernel.path_costs", "hardware.population_kernel", "kernel_calls", None),
    ("repro.hardware.cost_table", "CostTableBank.table", "hardware.cost_table", "table_lookups", None),
    # serving: setup
    ("repro.serving.harness", "build_serving_stack", "serving.harness", "stack_builds", None),
    ("repro.serving.fleet", "build_serving_stack", "serving.harness", "stack_builds", None),
    ("repro.serving.fleet", "build_fleet_stacks", "serving.harness", "stack_builds", None),
    ("repro.serving.harness", "plan_config_ladder", "serving.governor.ladder", "ladders", None),
    # serving: inputs
    ("repro.serving.workload", "make_trace", "serving.workload", "traces", None),
    ("repro.serving.stream", "LogitsSynthesizer.synthesize", "serving.stream", "syntheses", None),
    # serving: core
    ("repro.serving.simulator", "compile_stream", "serving.simulator.compile", "compiles", None),
    ("repro.serving.fleet", "compile_stream", "serving.simulator.compile", "compiles", None),
    ("repro.serving.simulator", "ServingSimulator.run", "serving.simulator", "simulator_runs", None),
    ("repro.serving.batcher", "ArrayBatcher.next_span", "serving.batcher", "batcher_calls", None),
    ("repro.serving.governor", "AdaptiveGovernor.select", "serving.governor.select", "select_calls", None),
    ("repro.serving.governor", "StaticPolicy.select", "serving.governor.select", "select_calls", None),
    # serving: fleet
    ("repro.serving.fleet", "FleetSimulator.run", "serving.fleet", "fleet_runs", None),
    ("repro.serving.router", "RoundRobinRouter.route_block", "serving.router", "router_calls", 2),
    ("repro.serving.router", "LeastBacklogRouter.route_block", "serving.router", "router_calls", 2),
    ("repro.serving.router", "DifficultyAwareRouter.route_block", "serving.router", "router_calls", 2),
)

#: Program span names whose worker-side self time belongs to a layer.
WORKER_SPAN_LAYERS = {
    "ooe.generation": "search.ooe",
    "ioe.run": "search.ioe",
    "nsga.generation": "search.nsga2",
    "cost_table.build": "hardware.cost_table",
}


class LayerClock:
    """Calls, busy and self time per layer, over wrapped entry points."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.rows: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        # Worker-process totals, from executor envelope payloads.
        self.worker_counters: dict[str, float] = defaultdict(float)
        self.worker_histograms: dict[str, float] = defaultdict(float)
        self.worker_busy: dict[str, float] = defaultdict(float)
        self.worker_self: dict[str, float] = defaultdict(float)
        self.worker_spans: dict[str, int] = defaultdict(int)
        self._frames: list[list] = []  # [layer, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, counter: str, row_arg: int | None, fn):
        frames = self._frames
        calls, rows, busy, self_time = self.calls, self.rows, self.busy, self.self_time
        clock = time.perf_counter

        def timed(*args, **kwargs):
            calls[counter] += 1
            if row_arg is not None:
                # +1: args[0] is ``self`` for methods, and every row-counted
                # entry point is a method.
                rows[counter] += len(args[row_arg + 1])
            if frames and frames[-1][0] == layer:
                return fn(*args, **kwargs)  # re-entry: the outer entry times it
            frame = [layer, 0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                busy[layer] += elapsed
                self_time[layer] += elapsed - frame[1]
                if frames:
                    frames[-1][1] += elapsed

        return timed

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for module_name, path, layer, counter, row_arg in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[name]
            self._restore.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, counter, row_arg, original))
        self._wrap_service_extras()

    def _wrap_service_extras(self) -> None:
        """Service task ledger, cost-table builds and worker envelopes."""
        from repro.engine import service as service_module
        from repro.hardware.cost_table import CostTableBank

        extra = self.extra
        batch = service_module.EvaluationService.evaluate_batch

        def ledger(service, tasks):
            before = (service.stats.submitted, service.stats.cache_hits, service.stats.tasks)
            try:
                return batch(service, tasks)
            finally:
                extra["service_submitted"] += service.stats.submitted - before[0]
                extra["service_cache_hits"] += service.stats.cache_hits - before[1]
                extra["service_tasks"] += service.stats.tasks - before[2]

        table = CostTableBank.table

        def counted_table(bank, setting):
            size = len(bank)
            try:
                return table(bank, setting)
            finally:
                extra["cost_table_builds"] += len(bank) - size

        absorb = service_module.absorb

        def keep_payload(output, cache=None):
            payload = getattr(output, "payload", None)
            if payload is not None:
                self.add_worker_payload(payload)
            return absorb(output, cache)

        for owner, name, replacement in (
            (service_module.EvaluationService, "evaluate_batch", ledger),
            (CostTableBank, "table", counted_table),
            (service_module, "absorb", keep_payload),
        ):
            self._restore.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, replacement)

    def add_worker_payload(self, payload: dict) -> None:
        """Fold one worker task's recorder payload into the worker totals.

        Span ids are unique only within one payload (each worker task
        records under a fresh recorder), so span trees are resolved here,
        payload by payload.
        """
        for name, value in payload.get("counters", {}).items():
            self.worker_counters[name] += value
        for name, data in payload.get("histograms", {}).items():
            self.worker_histograms[name] += data.get("total", 0.0)
        busy, own, count = span_times(payload.get("events", ()))
        for layer, value in busy.items():
            self.worker_busy[layer] += value
        for layer, value in own.items():
            self.worker_self[layer] += value
        for name, value in count.items():
            self.worker_spans[name] += value

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()


def span_times(events) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """(busy per layer, self per layer, count per span name) of span trees."""
    child_wall: dict[tuple[int, int], float] = defaultdict(float)
    for event in events:
        if event.get("parent") is not None:
            child_wall[(event["pid"], event["parent"])] += event["wall_s"]
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for event in events:
        layer = WORKER_SPAN_LAYERS.get(event["name"])
        if event["name"] == "worker.execute":
            layer = "engine.worker"
        if layer is None:
            continue
        count[event["name"]] += 1
        busy[layer] += event["wall_s"]
        own[layer] += event["wall_s"] - child_wall[(event["pid"], event["id"])]
    return busy, own, count


def _total(source: dict[str, float], prefix: str = "", suffix: str = "") -> float:
    return sum(
        value
        for name, value in source.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def layer_metrics(clock: LayerClock, recorder, traced_s: float) -> dict[str, float]:
    """The per-layer split of one traced child run.

    Parent-process numbers come from the wrappers; worker-process numbers
    from the envelope payloads (``clock.worker_*``).  ``recorder`` is the
    ``repro.obs`` recorder installed for the run, holding parent and merged
    worker events; ``traced_s`` is the traced region's wall time, from which
    ``unattributed_s`` is derived.
    """
    payload = recorder.export_payload()
    counters = payload["counters"]
    queue_wait = payload["histograms"].get("engine.queue_wait_s", {}).get("total", 0.0)
    _, _, spans = span_times(payload["events"])
    calls, rows, busy, own, extra = (
        clock.calls, clock.rows, clock.busy, clock.self_time, clock.extra
    )
    w_counters, w_busy, w_self = clock.worker_counters, clock.worker_busy, clock.worker_self

    population_calls = calls["population_calls"] + w_counters["dyneval.population_calls"]
    population_rows = rows["population_calls"] + w_counters["dyneval.population_rows"]
    router_calls = calls["router_calls"]
    metrics = {
        # engine
        "engine.service.tasks": extra["service_submitted"] + w_counters["engine.tasks_submitted"],
        "engine.service.busy_s": busy["engine.service"],
        "engine.service.cache_hit_rate": (
            extra["service_cache_hits"] / extra["service_tasks"] if extra["service_tasks"] else 0.0
        ),
        "engine.cache.get_s": busy["engine.cache.get"] + _total(clock.worker_histograms, suffix=".get_s"),
        "engine.cache.put_s": busy["engine.cache.put"] + _total(clock.worker_histograms, suffix=".put_s"),
        "engine.cache.hits": _total(counters, "cache.", ".hits"),
        "engine.cache.misses": _total(counters, "cache.", ".misses"),
        "engine.worker_busy_s": w_busy["engine.worker"],
        "engine.queue_wait_s": queue_wait,
        # search
        "search.ooe.generations": spans["ooe.generation"],
        "search.ooe.self_s": own["search.ooe"] + w_self["search.ooe"],
        "search.ioe.runs": calls["ioe_runs"] + clock.worker_spans["ioe.run"],
        "search.ioe.self_s": own["search.ioe"] + w_self["search.ioe"],
        "search.nsga2.generations": spans["nsga.generation"],
        "search.nsga2.self_s": own["search.nsga2"] + w_self["search.nsga2"],
        "search.nsga2.sort_s": busy["search.nsga2.sort"],
        "search.operators.busy_s": busy["search.operators"],
        # eval: in workers, static evaluations show as static-cache lookups
        "eval.static.calls": calls["static_calls"] + _total(w_counters, "cache.static."),
        "eval.static.busy_s": busy["eval.static"],
        "eval.dynamic.generation_calls": calls["generation_calls"]
        + w_counters["dyneval.generation_calls"],
        "eval.dynamic.population_calls": population_calls,
        "eval.dynamic.rows": population_rows,
        "eval.dynamic.rows_per_call": population_rows / population_calls if population_calls else 0.0,
        "eval.dynamic.self_s": own["eval.dynamic"],
        # accuracy
        "accuracy.exit_model.batch_calls": calls["oracle_batch_calls"] + w_counters["oracle.batch_calls"],
        "accuracy.exit_model.rows": rows["oracle_batch_calls"] + w_counters["oracle.batch_rows"],
        "accuracy.exit_model.busy_s": busy["accuracy.exit_model"],
        # hardware
        "hardware.population_kernel.calls": calls["kernel_calls"],
        "hardware.population_kernel.busy_s": busy["hardware.population_kernel"],
        "hardware.cost_table.builds": extra["cost_table_builds"] + w_counters["cost_table.builds"],
        "hardware.cost_table.busy_s": busy["hardware.cost_table"] + w_busy["hardware.cost_table"],
        # serving
        "serving.harness.stack_s": busy["serving.harness"],
        "serving.governor.ladder_s": busy["serving.governor.ladder"],
        "serving.workload.trace_s": busy["serving.workload"],
        "serving.stream.synthesize_s": busy["serving.stream"],
        "serving.simulator.compile_s": busy["serving.simulator.compile"],
        "serving.simulator.self_s": own["serving.simulator"],
        "serving.batcher.calls": calls["batcher_calls"],
        "serving.batcher.busy_s": busy["serving.batcher"],
        "serving.governor.select_calls": calls["select_calls"],
        "serving.governor.select_s": busy["serving.governor.select"],
        "serving.router.calls": router_calls,
        "serving.router.busy_s": busy["serving.router"],
        "serving.router.requests_per_call": rows["router_calls"] / router_calls if router_calls else 0.0,
        "serving.fleet.self_s": own["serving.fleet"],
        # whole run
        "unattributed_s": traced_s - sum(own.values()),
    }
    return {name: float(value) for name, value in metrics.items()}
