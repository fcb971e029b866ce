"""Observability layer: recorder semantics, collectors, and the invariants.

The two load-bearing guarantees are asserted here directly:

* **Bit-identity** — recording a trace never changes a result (fig5 report
  bytes and serving reports are equal with tracing on and off).
* **Near-zero disabled cost** — every instrumentation point runs
  unconditionally, so the disabled fast path must be negligible next to a
  single dynamic evaluation (the hottest instrumented call).

Plus the cross-process plumbing: worker spans/counters and per-worker cache
hit/miss deltas ride home through the executor result channel, so the
parent's trace and ``cache.stats()`` stay truthful under ``--executor
process``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time

import pytest

from repro.engine.cache import ResultCache
from repro.engine.service import EvalTask, EvaluationService
from repro.engine.tasks import run_spec, task_spec
from repro.obs import trace
from repro.obs.cli import main as trace_cli
from repro.obs.cli import traced_run
from repro.obs.collect import Envelope, TracedCall, absorb
from repro.obs.export import (
    counter_rollup,
    load_jsonl,
    render_summary,
    span_tree,
    to_chrome_trace,
    write_jsonl,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    validate_manifest,
)
from repro.obs.trace import HISTOGRAM_SAMPLE_CAP, Histogram, Recorder


@pytest.fixture(autouse=True)
def clean_tracing_state():
    """Tracing must be off on entry and is force-disabled on exit."""
    assert trace.active() is None
    yield
    trace.uninstall()


def _boom():
    raise RuntimeError("task failed on purpose")


def _worker_cache_traffic(directory: str, n: int) -> int:
    """Pure task: drive a worker-local ResultCache (misses, puts, then hits)."""
    cache = ResultCache(directory)
    for i in range(n):
        key = cache.key("workerns", item=i)
        if cache.get(key, default=None) is None:
            cache.put(key, {"item": i})
        cache.get(key, default=None)  # guaranteed hit
    return n


def _worker_cache_traffic_with_flush(directory: str, n: int) -> int:
    """Like :func:`_worker_cache_traffic`, but the worker also tears down a
    flushing owner — the in-worker service-close path a sharded sweep takes."""
    cache = ResultCache(directory)
    for i in range(n):
        key = cache.key("flushns", item=i)
        if cache.get(key, default=None) is None:
            cache.put(key, {"item": i})
    cache.flush_session_stats()  # must be muted: the envelope owns the delta
    return n


class TestHistogram:
    def test_moments_and_percentiles(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.add(value)
        assert hist.count == 4
        assert hist.mean == pytest.approx(2.5)
        assert hist.min == 1.0 and hist.max == 4.0
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(1.0) == 4.0

    def test_sample_cap_keeps_exact_moments(self):
        hist = Histogram()
        n = HISTOGRAM_SAMPLE_CAP + 500
        for i in range(n):
            hist.add(float(i))
        assert len(hist.samples) == HISTOGRAM_SAMPLE_CAP
        assert hist.count == n  # moments never saturate
        assert hist.max == float(n - 1)

    def test_merge_payload(self):
        a, b = Histogram(), Histogram()
        a.add(1.0)
        b.add(3.0)
        a.merge_payload(b.as_payload())
        assert a.count == 2 and a.mean == pytest.approx(2.0) and a.max == 3.0
        a.merge_payload(Histogram().as_payload())  # empty merge is a no-op
        assert a.count == 2


class TestRecorder:
    def test_span_nesting_links_parents(self):
        recorder = Recorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        inner, outer = recorder.events  # inner closes first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert inner["wall_s"] <= outer["wall_s"]

    def test_span_stacks_are_thread_local(self):
        recorder = Recorder()
        seen = {}

        def worker():
            with recorder.span("in-thread"):
                pass
            seen["done"] = True

        with recorder.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["done"]
        by_name = {event["name"]: event for event in recorder.events}
        # the other thread's span must NOT be parented under "main"
        assert by_name["in-thread"]["parent"] is None
        assert by_name["in-thread"]["tid"] != by_name["main"]["tid"]

    def test_error_is_flagged_and_propagates(self):
        recorder = Recorder()
        with pytest.raises(ValueError):
            with recorder.span("doomed"):
                raise ValueError("nope")
        (event,) = recorder.events
        assert event["error"] == "ValueError"

    def test_attrs_and_set(self):
        recorder = Recorder()
        with recorder.span("job", size=3) as span:
            span.set(extra="yes")
        (event,) = recorder.events
        assert event["attrs"] == {"size": 3, "extra": "yes"}

    def test_counters_and_histograms(self):
        recorder = Recorder()
        recorder.count("evals")
        recorder.count("evals", 4)
        recorder.observe("wait_s", 0.5)
        assert recorder.counters["evals"] == 5
        assert recorder.histograms["wait_s"].count == 1

    def test_merge_folds_payload(self):
        parent, worker = Recorder(), Recorder()
        with worker.span("remote"):
            pass
        worker.count("evals", 2)
        worker.observe("wait_s", 0.1)
        parent.count("evals", 1)
        parent.merge(worker.export_payload())
        assert parent.counters["evals"] == 3
        assert parent.histograms["wait_s"].count == 1
        assert [event["name"] for event in parent.events] == ["remote"]


class TestActivation:
    def test_module_api_noop_when_off(self):
        assert trace.span("x") is trace.span("y")  # shared no-op singleton
        trace.count("x")  # must not raise
        trace.observe("x", 1.0)
        with trace.span("x") as span:
            span.set(a=1)

    def test_install_routes_module_calls(self):
        recorder = Recorder()
        trace.install(recorder)
        try:
            with trace.span("global"):
                trace.count("hits")
        finally:
            trace.uninstall()
        assert recorder.counters["hits"] == 1
        assert recorder.events[0]["name"] == "global"
        assert trace.active() is None

    def test_recording_overrides_global_per_thread(self):
        global_rec, local_rec = Recorder(), Recorder()
        trace.install(global_rec)
        try:
            with trace.recording(local_rec):
                trace.count("seen")
                assert trace.active() is local_rec
            assert trace.active() is global_rec
        finally:
            trace.uninstall()
        assert local_rec.counters == {"seen": 1}
        assert global_rec.counters == {}


class TestDisabledOverhead:
    def test_noop_path_is_under_two_percent_of_a_dynamic_eval(
        self, static_evaluator, surrogate
    ):
        from repro.accuracy.exit_model import BackboneExitOracle
        from repro.baselines.attentivenas import attentivenas_model
        from repro.eval.dynamic import DynamicEvaluator
        from repro.exits.placement import ExitPlacement
        from repro.hardware.dvfs import DvfsSpace
        from repro.hardware.energy import EnergyModel

        a3 = attentivenas_model("a3")
        static = static_evaluator.evaluate(a3)
        oracle = BackboneExitOracle(
            a3.key, a3.total_mbconv_layers, surrogate.accuracy_fraction(a3), seed=0
        )
        evaluator = DynamicEvaluator(
            config=a3,
            cost=static_evaluator.cost(a3),
            oracle=oracle,
            energy_model=EnergyModel(static_evaluator.platform),
            baseline_energy_j=static.energy_j,
            baseline_latency_s=static.latency_s,
        )
        setting = DvfsSpace(static_evaluator.platform).default_setting()
        layers = a3.total_mbconv_layers

        # Fresh (placement, setting) keys so every timed call is a real
        # evaluation, not a memo hit.
        placements = [
            ExitPlacement(layers, (5 + i, layers - 1)) for i in range(layers - 7)
        ]
        evaluator.evaluate(placements[0], setting)  # warm tables/oracle once
        eval_cost = min(
            _timed(lambda p=p: evaluator.evaluate(p, setting))
            for p in placements[1:]
        )

        # Disabled instrumentation: per-call cost of count(), net of the
        # timing loop itself (what the evaluate() miss path actually pays:
        # one count() call and zero spans).
        n = 50_000

        def count_loop():
            for _ in range(n):
                trace.count("bench.counter")

        def bare_loop():
            for _ in range(n):
                pass

        loop_cost = min(_timed(bare_loop) for _ in range(3))
        count_cost = min(_timed(count_loop) for _ in range(3))
        per_call = max(count_cost - loop_cost, 0.0) / n
        # Budgeted at two count() calls per evaluation (one more than the
        # miss path makes), with 2x headroom for CI jitter.
        assert 2 * 2 * per_call < 0.02 * eval_cost, (
            f"disabled count() {per_call * 1e9:.0f} ns/call vs "
            f"evaluate {eval_cost * 1e6:.1f} us"
        )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TestJsonlRoundTrip:
    def _recorded(self) -> Recorder:
        recorder = Recorder()
        with recorder.span("root", phase="demo"):
            with recorder.span("child"):
                recorder.count("evals", 3)
                recorder.observe("wait_s", 0.25)
        return recorder

    def test_parent_child_reconstruction(self, tmp_path):
        recorder = self._recorded()
        path = write_jsonl(recorder, tmp_path / "t.jsonl", meta={"command": "demo"})
        payload = load_jsonl(path)
        assert payload["meta"]["command"] == "demo"
        assert payload["counters"] == {"evals": 3}
        assert payload["histograms"]["wait_s"]["count"] == 1

        tree = span_tree(payload["events"])
        (root,) = tree[(recorder.pid, None)]
        assert root["name"] == "root" and root["attrs"] == {"phase": "demo"}
        (child,) = tree[(recorder.pid, root["id"])]
        assert child["name"] == "child"

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = write_jsonl(self._recorded(), tmp_path / "t.jsonl")
        text = path.read_text()
        path.write_text(text + "{truncated garbage\n")
        payload = load_jsonl(path)
        assert len(payload["events"]) == 2

    def test_chrome_trace_shape(self, tmp_path):
        payload = load_jsonl(write_jsonl(self._recorded(), tmp_path / "t.jsonl"))
        chrome = to_chrome_trace(payload)
        assert set(chrome) == {"traceEvents", "displayTimeUnit"}
        assert len(chrome["traceEvents"]) == 2
        base = min(entry["ts"] for entry in chrome["traceEvents"])
        assert base == 0.0  # rebased to the earliest span
        for entry in chrome["traceEvents"]:
            assert entry["ph"] == "X"
            assert entry["dur"] >= 0.0

    def test_render_summary_mentions_everything(self, tmp_path):
        payload = load_jsonl(write_jsonl(self._recorded(), tmp_path / "t.jsonl"))
        text = render_summary(payload)
        for needle in ("root", "child", "evals", "wait_s"):
            assert needle in text
        assert render_summary({"events": [], "counters": {}}) == "empty trace"

    def test_counter_rollup_derives_hit_rates(self):
        recorder = Recorder()
        recorder.count("cache.spec.hits", 3)
        recorder.count("cache.spec.misses", 1)
        recorder.count("cache.oracle.puts", 2)
        rollup = counter_rollup(recorder)
        assert rollup["cache_hit_rates"]["spec"] == pytest.approx(0.75)
        assert rollup["cache_hit_rates"]["oracle"] == 0.0
        assert rollup["counters"]["cache.spec.hits"] == 3


class TestManifest:
    def _manifest_payload(self) -> dict:
        recorder = Recorder()
        with recorder.span("work"):
            recorder.count("cache.spec.hits", 2)
        manifest = build_manifest(
            recorder,
            command="repro test",
            config={"budget": "tiny"},
            seed=3,
            platforms=["tx2-gpu"],
            started_at=123.0,
            wall_s=1.5,
        )
        return manifest.to_json()

    def test_build_and_validate(self):
        payload = self._manifest_payload()
        validate_manifest(payload)  # must not raise
        assert payload["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert payload["cache_namespaces"] == ["spec"]
        assert payload["platforms"] == ["tx2-gpu"]
        assert payload["counters"]["cache.spec.hits"] == 2
        assert "work" in payload["spans"]
        assert len(payload["config_fingerprint"]) == 32

    def test_fingerprint_is_stable_and_discriminating(self):
        from repro.obs.manifest import config_fingerprint

        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_validation_rejects_bad_payloads(self):
        payload = self._manifest_payload()
        del payload["command"]
        payload["seed"] = "seven"
        with pytest.raises(ValueError) as excinfo:
            validate_manifest(payload)
        message = str(excinfo.value)
        assert "command" in message and "seed" in message

        newer = self._manifest_payload()
        newer["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer than supported"):
            validate_manifest(newer)

        with pytest.raises(ValueError, match="JSON object"):
            validate_manifest([1, 2])


class TestTracedRunCli:
    def test_traced_run_writes_trace_and_valid_manifest(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        with traced_run(str(out), command="repro demo", seed=9) as recorder:
            with trace.span("unit"):
                trace.count("cache.spec.hits")
        assert recorder is not None
        assert trace.active() is None  # uninstalled on exit

        payload = load_jsonl(out)
        assert payload["meta"]["seed"] == 9
        assert [event["name"] for event in payload["events"]] == ["unit"]

        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        validate_manifest(manifest)
        assert manifest["command"] == "repro demo"
        assert manifest["cache_namespaces"] == ["spec"]
        assert "trace written" in capsys.readouterr().out

    def test_traced_run_none_is_a_noop(self):
        with traced_run(None, command="whatever") as recorder:
            assert recorder is None
            assert trace.active() is None

    def test_traced_run_rejects_nesting(self, tmp_path):
        with traced_run(str(tmp_path / "a.jsonl"), command="outer"):
            with pytest.raises(RuntimeError, match="already active"):
                with traced_run(str(tmp_path / "b.jsonl"), command="inner"):
                    pass

    def test_cli_summary_top_and_export(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        with traced_run(str(out), command="repro demo"):
            with trace.span("heavy"):
                pass
        capsys.readouterr()

        assert trace_cli(["summary", str(out)]) == 0
        assert "heavy" in capsys.readouterr().out
        assert trace_cli(["top", str(out), "--limit", "1"]) == 0
        capsys.readouterr()

        chrome = tmp_path / "chrome.json"
        assert trace_cli(["export", str(out), "--chrome", str(chrome)]) == 0
        assert json.loads(chrome.read_text())["traceEvents"]

        with pytest.raises(SystemExit):
            trace_cli(["summary", str(tmp_path / "missing.jsonl")])


class TestCollector:
    def test_traced_call_mirrors_codec_flag(self):
        task = task_spec("table2-dvfs", platform="tx2-gpu")
        wrapped = TracedCall(run_spec, record=True)
        assert wrapped.is_task_codec == bool(getattr(run_spec, "is_task_codec", False))

        from repro.engine.tasks import spec_task

        codec_fn = spec_task(task).fn
        assert TracedCall(codec_fn, record=False).is_task_codec == bool(
            getattr(codec_fn, "is_task_codec", False)
        )

    def test_unrecorded_in_parent_is_passthrough(self):
        wrapped = TracedCall(len, record=False)
        assert wrapped((1, 2, 3)) == 3  # raw result, no Envelope

    def test_recorded_call_ships_an_envelope(self):
        wrapped = TracedCall(len, record=True)
        output = wrapped((1, 2, 3))
        assert isinstance(output, Envelope)
        assert output.result == 3
        assert output.pid == os.getpid()
        names = [event["name"] for event in output.payload["events"]]
        assert names == ["worker.execute"]
        assert output.payload["events"][0]["attrs"]["task"] == "len"

    def test_absorb_merges_into_active_recorder(self):
        output = TracedCall(len, record=True)((1,))
        recorder = Recorder()
        with trace.recording(recorder):
            assert absorb(output) == 1
        assert [event["name"] for event in recorder.events] == ["worker.execute"]
        assert recorder.histograms["engine.queue_wait_s"].count == 1

    def test_absorb_passthrough_and_foreign_deltas(self, tmp_path):
        assert absorb("bare") == "bare"
        cache = ResultCache(tmp_path / "cache")
        same_pid = Envelope(
            result=1, cache_deltas={"ns": {"hits": 5}}, pid=os.getpid()
        )
        absorb(same_pid, cache)
        assert cache.stats("ns").hits == 0  # own-process deltas already counted
        foreign = Envelope(
            result=1,
            cache_deltas={"ns": {"hits": 5, "misses": 2, "puts": 2}},
            pid=os.getpid() + 1,
        )
        absorb(foreign, cache)
        assert cache.stats("ns").hits == 5
        assert cache.stats("ns").misses == 2
        assert cache.stats("ns").puts == 2


class TestProcessRoundTrip:
    def test_worker_events_and_counters_merge_home(self):
        from repro.serving.harness import ServingSpec

        specs = [
            task_spec(
                "serving-cell",
                spec=ServingSpec(pattern="poisson", duration_s=1.0, seed=seed),
            )
            for seed in (3, 4)
        ]
        inline = [run_spec(spec) for spec in specs]

        recorder = Recorder()
        trace.install(recorder)
        try:
            with EvaluationService(executor="process", workers=2) as service:
                pooled = service.evaluate_batch(
                    [EvalTask(fn=run_spec, args=(spec,)) for spec in specs]
                )
        finally:
            trace.uninstall()

        assert pooled == inline  # tracing must not perturb results
        workers = [e for e in recorder.events if e["name"] == "worker.execute"]
        assert len(workers) == 2
        assert all(event["pid"] != os.getpid() for event in workers)
        assert all(event["attrs"]["task"] == "serving-cell" for event in workers)
        # spans and counters produced inside the workers merged back home
        runs = [e for e in recorder.events if e["name"] == "serving.run"]
        assert len(runs) == 2 and all(e["pid"] != os.getpid() for e in runs)
        assert recorder.counters["serving.batches"] > 0
        assert recorder.histograms["engine.queue_wait_s"].count == 2
        assert recorder.counters["engine.tasks_submitted"] == 2
        assert recorder.counters["engine.tasks_completed"] == 2

    def test_worker_cache_deltas_merge_into_parent_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "shared")
        with EvaluationService(executor="process", workers=2, cache=cache) as service:
            results = service.evaluate_batch(
                [
                    EvalTask(fn=_worker_cache_traffic, args=(str(cache.directory), 4)),
                    EvalTask(fn=_worker_cache_traffic, args=(str(cache.directory), 4)),
                ]
            )
        assert results == [4, 4]
        # Two workers raced the same 4 keys: every lookup and write that
        # happened in *their* cache instances is visible here.
        stats = cache.stats("workerns")
        assert stats.hits + stats.misses == 16  # 2 tasks x 4 keys x 2 gets
        assert stats.puts == stats.misses  # each miss was followed by a put
        assert 4 <= stats.misses <= 8  # >= once per key, <= cold in both workers

        # ... and the session sidecar records them for `repro cache stats`.
        session = cache.session_stats()
        assert session["workerns"].hits == stats.hits
        assert session["workerns"].puts == stats.puts

    def test_worker_side_flush_does_not_double_count(self, tmp_path):
        cache = ResultCache(tmp_path / "shared")
        with EvaluationService(executor="process", workers=2, cache=cache) as service:
            results = service.evaluate_batch(
                [
                    EvalTask(
                        fn=_worker_cache_traffic_with_flush,
                        args=(str(cache.directory), 3),
                    ),
                    EvalTask(
                        fn=_worker_cache_traffic_with_flush,
                        args=(str(cache.directory), 3),
                    ),
                ]
            )
        assert results == [3, 3]
        # The workers flushed their own session stats mid-task, but the
        # envelope already owns that traffic: the sidecar must show each
        # lookup exactly once, matching what the parent cache merged.
        stats = cache.stats("flushns")
        assert stats.hits + stats.misses == 6  # 2 tasks x 3 keys x 1 get
        assert stats.puts == stats.misses
        session = cache.session_stats()
        assert session["flushns"].hits == stats.hits
        assert session["flushns"].misses == stats.misses
        assert session["flushns"].puts == stats.puts


class TestServiceLedger:
    def test_submitted_completed_counts(self, tmp_path):
        with EvaluationService() as service:
            service.evaluate_batch(
                [EvalTask(fn=len, args=((1, 2),)), EvalTask(fn=len, args=((),))]
            )
        ledger = service.stats.as_dict()
        assert ledger["submitted"] == 2
        assert ledger["completed"] == 2
        assert ledger["failed"] == 0 and ledger["cancelled"] == 0
        assert service.stats.submitted == (
            service.stats.completed + service.stats.failed + service.stats.cancelled
        )

    def test_failed_batch_is_charged(self):
        service = EvaluationService()
        with pytest.raises(RuntimeError, match="on purpose"):
            service.evaluate_batch([EvalTask(fn=_boom)])
        assert service.stats.submitted == 1
        assert service.stats.failed == 1
        assert service.stats.completed == 0
        service.close()

    def test_cache_hits_skip_the_ledger(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        from repro.engine.tasks import spec_task

        def keyed_task():
            return spec_task(task_spec("table2-dvfs", platform="tx2-gpu"), cache=cache)

        with EvaluationService(cache=cache) as service:
            service.evaluate_batch([keyed_task()])
            service.evaluate_batch([keyed_task()])  # pure cache read
        assert service.stats.submitted == 1
        assert service.stats.completed == 1
        assert service.stats.cache_hits == 1


class TestSessionStatsSidecar:
    def test_flush_is_idempotent_and_aggregates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key("ns", item=1)
        cache.get(key, default=None)  # miss
        cache.put(key, {"item": 1})
        cache.get(key, default=None)  # hit

        first = cache.flush_session_stats()
        assert first == {"ns": {"hits": 1, "misses": 1, "puts": 1}}
        assert cache.flush_session_stats() == {}  # nothing new

        cache.get(key, default=None)
        assert cache.flush_session_stats() == {"ns": {"hits": 1, "misses": 0, "puts": 0}}

        totals = cache.session_stats()
        assert totals["ns"].hits == 2
        assert totals["ns"].misses == 1
        assert totals["ns"].puts == 1

    def test_cache_stats_cli_shows_sessions(self, tmp_path, capsys):
        from repro.engine.cli import main as cache_cli

        cache = ResultCache(tmp_path / "cache")
        key = cache.key("ns", item=1)
        cache.get(key, default=None)
        cache.put(key, {"item": 1})
        cache.flush_session_stats()

        assert cache_cli(["stats", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "recorded sessions" in out
        assert "1 misses" in out and "1 puts" in out

    def test_clear_removes_the_sidecar(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(cache.key("ns", item=1), {"item": 1})
        cache.flush_session_stats()
        cache.clear()
        assert cache.session_stats() == {}


class TestBitIdentityAndCacheTruth:
    """The acceptance pair: tracing changes no bits; merged cache counters
    reconcile with the on-disk index after a process-executor fig5 run."""

    PLATFORMS = ("tx2-gpu", "agx-gpu")

    @pytest.fixture(scope="class")
    def nano_profile(self):
        from repro.experiments.config import Profile

        return Profile(
            name="nano-obs",
            outer_population=6,
            outer_generations=2,
            inner_population=6,
            inner_generations=2,
            ioe_candidates=1,
            oracle_samples=256,
            seed=11,
        )

    def test_fig5_process_run_traced_vs_untraced(self, nano_profile, tmp_path):
        from repro.experiments import fig5
        from repro.experiments.runner import clear_memo

        profile = dataclasses.replace(
            nano_profile,
            workers=2,
            executor="process",
            cache_dir=str(tmp_path / "cache"),
        )

        clear_memo()
        bare_text = fig5.render(fig5.run(profile, platforms=self.PLATFORMS))

        clear_memo()
        recorder = Recorder()
        trace.install(recorder)
        try:
            # Second run against the warm cache: results must be byte-equal
            # to the cold untraced run, proving both cache-replay fidelity
            # and that tracing changes no bits.
            traced_text = fig5.render(fig5.run(profile, platforms=self.PLATFORMS))
        finally:
            trace.uninstall()
        assert traced_text == bare_text

        # The warm run resolves both platform shards from the cache.
        counters = recorder.counters
        assert counters.get("cache.spec.hits", 0) == len(self.PLATFORMS)
        assert counters.get("cache.spec.misses", 0) == 0

        # Cold traced run into a fresh cache directory: every on-disk index
        # entry must be accounted for by a counted put — exactly for the
        # deterministic 'spec' namespace, and at least once for namespaces
        # where concurrent cold shards may race the same digest.
        clear_memo()
        cold_profile = dataclasses.replace(
            profile, cache_dir=str(tmp_path / "cold-cache")
        )
        cold = Recorder()
        trace.install(cold)
        try:
            cold_text = fig5.render(fig5.run(cold_profile, platforms=self.PLATFORMS))
        finally:
            trace.uninstall()
        assert cold_text == bare_text

        index = ResultCache(cold_profile.cache_dir).disk_stats()["namespaces"]
        assert set(index), "cold run wrote nothing to the cache"
        for namespace, row in index.items():
            puts = cold.counters.get(f"cache.{namespace}.puts", 0)
            misses = cold.counters.get(f"cache.{namespace}.misses", 0)
            if namespace == "spec":
                assert puts == row["entries"] == len(self.PLATFORMS)
            else:
                assert puts >= row["entries"]
            assert misses >= puts  # every write followed a recorded miss
        clear_memo()

    def test_serving_cell_traced_vs_untraced(self):
        from repro.serving.harness import ServingSpec, run_serving_cell

        spec = ServingSpec(pattern="poisson", duration_s=2.0, seed=3)
        bare = run_serving_cell(spec)

        recorder = Recorder()
        trace.install(recorder)
        try:
            traced = run_serving_cell(spec)
        finally:
            trace.uninstall()
        assert traced == bare  # dataclass equality: exact floats
        assert recorder.counters["serving.batches"] > 0
        assert recorder.counters["serving.governor_decisions"] > 0
        assert recorder.histograms["serving.batch_size"].count == (
            recorder.counters["serving.batches"]
        )
        spans = [event["name"] for event in recorder.events]
        assert spans.count("serving.run") == 1
