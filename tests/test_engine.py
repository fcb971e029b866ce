"""EvaluationService, executors and the persistent result cache."""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine.cache import ResultCache
from repro.engine.executors import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.engine.service import EvalTask, EvaluationService
from repro.eval.static import StaticEvaluation
from repro.search.hadas import HadasConfig, HadasResult, HadasSearch
from repro.search.ooe import OuterResult
from repro.search.archive import ParetoArchive


def _square(x):
    return x * x


def _tiny_config(**overrides) -> HadasConfig:
    base = dict(
        platform="tx2-gpu",
        seed=5,
        outer_population=6,
        outer_generations=2,
        inner_population=6,
        inner_generations=2,
        ioe_candidates=2,
        oracle_samples=256,
    )
    base.update(overrides)
    return HadasConfig(**base)


def _pareto_bytes(result) -> bytes:
    members = sorted(result.dynn_pareto(), key=lambda ind: ind.key())
    return np.stack([ind.objectives for ind in members]).tobytes()


# --------------------------------------------------------------------- cache
def _set_payload(cache: ResultCache, key, codec: str, payload: bytes) -> None:
    """Overwrite an entry's row in place, as a corrupt or stale write would."""
    import sqlite3
    from contextlib import closing

    with closing(sqlite3.connect(cache.database)) as connection:
        connection.execute(
            "UPDATE entries SET codec = ?, payload = ? WHERE digest = ?",
            (codec, payload, key.digest),
        )
        connection.commit()


class TestResultCache:
    def test_json_roundtrip_dataclass(self, tmp_path, entry_codec):
        cache = ResultCache(tmp_path)
        key = cache.key("static", backbone="b1", platform="tx2")
        evaluation = StaticEvaluation(accuracy=71.5, latency_s=0.02, energy_j=0.4)
        assert cache.put(key, evaluation) is None
        assert entry_codec(cache, key) == "json"
        assert cache.get(key, cls=StaticEvaluation) == evaluation

    def test_pickle_fallback_for_rich_objects(self, tmp_path, entry_codec):
        cache = ResultCache(tmp_path)
        key = cache.key("inner", backbone="b1")
        value = {"archive": ParetoArchive(), "arr": np.arange(3)}
        cache.put(key, value)
        assert entry_codec(cache, key) == "pickle"
        loaded = cache.get(key)
        assert isinstance(loaded["archive"], ParetoArchive)
        np.testing.assert_array_equal(loaded["arr"], np.arange(3))

    def test_key_is_order_insensitive_and_content_addressed(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = cache.key("static", backbone="b", seed=1)
        b = cache.key("static", seed=1, backbone="b")
        c = cache.key("static", seed=2, backbone="b")
        assert a == b
        assert a != c

    def test_hit_miss_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("static", backbone="b")
        assert cache.get(key) is None
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}
        stats = cache.stats("static")
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_version_bump_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, version="1")
        old.put(old.key("static", backbone="b"), {"x": 1})
        bumped = ResultCache(tmp_path, version="2")
        assert bumped.get(bumped.key("static", backbone="b")) is None
        assert bumped.stats("static").misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("static", backbone="b")
        cache.put(key, {"x": 1})
        _set_payload(cache, key, "json", b"{not json")
        assert cache.get(key, default="fallback") == "fallback"
        _set_payload(cache, key, "pickle", b"not a pickle")
        assert cache.get(key, default="fallback") == "fallback"
        assert cache.stats("static").misses == 2
        cache.put(key, {"x": 2})  # re-evaluation overwrites the row
        assert cache.get(key) == {"x": 2}

    def test_json_that_does_not_fit_cls_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("static", backbone="b")
        cache.put(key, {})  # parses, but lacks StaticEvaluation's fields
        assert cache.get(key, cls=StaticEvaluation, default="miss") == "miss"
        assert cache.stats("static").misses == 1
        evaluation = StaticEvaluation(accuracy=71.5, latency_s=0.02, energy_j=0.4)
        cache.put(key, evaluation)
        assert cache.get(key, cls=StaticEvaluation) == evaluation

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache.key("a", i=1), {"x": 1})
        cache.put(cache.key("b", i=2), {"arr": ParetoArchive()})
        (tmp_path / "deadbeef.tmp").write_bytes(b"torn write")  # file-store remnant
        assert len(cache) == 2
        assert cache.clear() == 3
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.tmp"))

    def test_stale_pickle_is_a_miss(self, tmp_path):
        import pickle

        cache = ResultCache(tmp_path)
        key = cache.key("inner", backbone="b")
        cache.put(key, ParetoArchive())
        # A pickle referencing a module that no longer exists (same-length
        # rename keeps the pickle structurally valid).
        payload = pickle.dumps(ParetoArchive()).replace(
            b"repro.search.archive", b"repro.search.gonecls"
        )
        _set_payload(cache, key, "pickle", payload)
        assert cache.get(key, default="recompute") == "recompute"
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}


# ----------------------------------------------------------------- executors
class TestExecutors:
    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), ThreadExecutor(4), ProcessExecutor(2)],
        ids=["serial", "thread", "process"],
    )
    def test_order_preserved(self, executor):
        calls = [(_square, (i,)) for i in range(10)]
        try:
            assert executor.run(calls) == [i * i for i in range(10)]
        finally:
            executor.close()

    def test_make_executor_auto(self):
        # One worker: serial.  Above one worker: the AutoExecutor, which
        # picks its pool per batch — process for codec-backed (task-spec)
        # batches, threads for closure batches.
        assert make_executor("auto", 1).kind == "serial"
        auto = make_executor("auto", 4)
        assert auto.kind == "auto"
        try:
            assert auto.run([(_square, (i,)) for i in range(4)]) == [0, 1, 4, 9]
            assert auto._thread._pool is not None  # closures went to threads
            assert auto._process._pool is None
        finally:
            auto.close()

    def test_auto_executor_routes_codec_batches_to_process(self):
        from repro.engine.tasks import run_spec, task_spec

        auto = make_executor("auto", 2)
        specs = [task_spec("table2-dvfs", platform=p) for p in ("tx2-gpu", "agx-gpu")]
        try:
            results = auto.run([(run_spec, (spec,)) for spec in specs])
            assert auto._process._pool is not None  # specs went to processes
            assert auto._thread._pool is None
        finally:
            auto.close()
        assert [run_spec(spec) for spec in specs] == results

    def test_make_executor_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_executor("gpu-cluster")

    def test_pool_survives_pickling_without_live_pool(self):
        import pickle

        executor = ThreadExecutor(2)
        executor.run([(_square, (i,)) for i in range(4)])
        clone = pickle.loads(pickle.dumps(executor))
        try:
            assert clone.run([(_square, (3,))]) == [9]
        finally:
            clone.close()
            executor.close()


# ------------------------------------------------------------------- service
class TestEvaluationService:
    def test_unkeyed_batch(self):
        with EvaluationService(executor="thread", workers=4) as service:
            results = service.map(_square, [(i,) for i in range(8)])
        assert results == [i * i for i in range(8)]
        assert service.stats.executed == 8

    def test_keyed_tasks_hit_cache_across_batches(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def expensive(x):
            calls.append(x)
            return x * x

        with EvaluationService(cache=cache) as service:
            key = cache.key("toy", x=3)
            first = service.evaluate(EvalTask(expensive, (3,), key=key))
            second = service.evaluate(EvalTask(expensive, (3,), key=key))
        assert first == second == 9
        assert calls == [3]
        assert service.stats.cache_hits == 1

    def test_context_manager_tears_down_pools_on_error(self):
        service = EvaluationService(executor="thread", workers=2)
        with pytest.raises(RuntimeError, match="boom"):
            with service:
                service.map(_square, [(i,) for i in range(4)])
                assert service.executor._pool is not None
                raise RuntimeError("boom")
        assert service.executor._pool is None  # cancelled + shut down

    def test_within_batch_deduplication(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def expensive(x):
            calls.append(x)
            return x + 1

        key = cache.key("toy", x=7)
        with EvaluationService(cache=cache) as service:
            results = service.evaluate_batch(
                [EvalTask(expensive, (7,), key=key), EvalTask(expensive, (7,), key=key)]
            )
        assert results == [8, 8]
        assert calls == [7]
        assert service.stats.deduplicated == 1


# --------------------------------------------------------- engine-in-the-loop
class TestSearchDeterminism:
    def test_parallel_workers_bit_identical_pareto(self):
        serial = HadasSearch(_tiny_config()).run()
        search = HadasSearch(_tiny_config(workers=4, executor="thread"))
        parallel = search.run()
        search.close()
        assert _pareto_bytes(serial) == _pareto_bytes(parallel)

    def test_process_executor_bit_identical_pareto(self):
        serial = HadasSearch(_tiny_config()).run()
        search = HadasSearch(_tiny_config(workers=4, executor="process"))
        parallel = search.run()
        search.close()
        assert _pareto_bytes(serial) == _pareto_bytes(parallel)

    def test_auto_executor_bit_identical_pareto(self):
        # auto above one worker runs the codec-backed batches on processes.
        serial = HadasSearch(_tiny_config()).run()
        search = HadasSearch(_tiny_config(workers=2, executor="auto"))
        parallel = search.run()
        search.close()
        assert _pareto_bytes(serial) == _pareto_bytes(parallel)


class TestPersistentCacheInSearch:
    def test_warm_rerun_does_zero_static_measurements(self, tmp_path):
        cold = HadasSearch(_tiny_config(cache_dir=str(tmp_path)))
        cold_result = cold.run()
        assert cold.static_evaluator.num_measurements > 0

        warm = HadasSearch(_tiny_config(cache_dir=str(tmp_path)))
        warm_result = warm.run()
        assert warm.static_evaluator.num_measurements == 0
        assert warm.cache.stats("static").misses == 0
        assert warm.cache.stats("inner").misses == 0
        assert _pareto_bytes(cold_result) == _pareto_bytes(warm_result)

    def test_warm_serial_rerun_resolves_inner_runs_in_the_service(self, tmp_path):
        """Serial closure tasks carry the ``inner`` key, so the service's
        ledger counts a warm rerun's inner runs as cache hits."""
        config = _tiny_config(seed=3, cache_dir=str(tmp_path))
        HadasSearch(config).run()
        warm = HadasSearch(config)
        warm.run()
        stats = warm.service.stats
        assert (stats.executed, stats.cache_hits) == (0, 2)
        inner = warm.cache.stats("inner")
        assert (inner.hits, inner.misses) == (2, 0)

    def test_cached_results_match_uncached(self, tmp_path):
        uncached = HadasSearch(_tiny_config()).run()
        cached = HadasSearch(_tiny_config(cache_dir=str(tmp_path))).run()
        assert _pareto_bytes(uncached) == _pareto_bytes(cached)

    def test_static_evaluator_version_bump_remeasures(self, tmp_path, monkeypatch):
        cold = HadasSearch(_tiny_config(cache_dir=str(tmp_path)))
        cold.run()

        import repro.eval.static as static_mod

        monkeypatch.setattr(static_mod, "STATIC_EVALUATOR_VERSION", "999-test")
        bumped = HadasSearch(_tiny_config(cache_dir=str(tmp_path)))
        bumped.run()
        assert bumped.static_evaluator.num_measurements > 0
        assert bumped.cache.stats("static").misses > 0

    def test_inner_engine_version_bump_reruns_ioe(self, tmp_path, monkeypatch):
        """Inner runs cached under another engine version are never served —
        here "1", whose runs followed the per-child variation's trajectories."""
        import repro.search.hadas as hadas_mod

        assert hadas_mod.INNER_ENGINE_VERSION != "1"
        with monkeypatch.context() as patch:
            patch.setattr(hadas_mod, "INNER_ENGINE_VERSION", "1")
            HadasSearch(_tiny_config(cache_dir=str(tmp_path))).run()
        current = HadasSearch(_tiny_config(cache_dir=str(tmp_path)))
        current.run()
        stats = current.cache.stats("inner")
        assert stats.misses > 0 and stats.hits == 0

    def test_distinct_seeds_do_not_share_entries(self, tmp_path):
        first = HadasSearch(_tiny_config(cache_dir=str(tmp_path)))
        first.run()
        other = HadasSearch(_tiny_config(seed=6, cache_dir=str(tmp_path)))
        other.run()
        assert other.static_evaluator.num_measurements > 0

    def test_distinct_spaces_or_anchors_do_not_share_entries(
        self, mini_space, tmp_path
    ):
        # Surrogate accuracy is calibrated against the space's bounds and
        # anchors, so the cache keys must diverge for an identical config
        # object when either differs.
        import dataclasses

        from repro.accuracy.surrogate import DEFAULT_ANCHORS, AccuracySurrogate
        from repro.arch.space import BackboneSpace
        from repro.eval.static import StaticEvaluator
        from repro.hardware.platform import get_platform

        assert BackboneSpace().fingerprint() == BackboneSpace().fingerprint()
        assert BackboneSpace().fingerprint() != mini_space.fingerprint()

        platform = get_platform("tx2-gpu")
        cache = ResultCache(tmp_path)
        space = BackboneSpace()
        default_eval = StaticEvaluator(
            platform, AccuracySurrogate(space, seed=0), seed=0, cache=cache
        )
        shifted_anchors = dataclasses.replace(
            DEFAULT_ANCHORS, a0_accuracy=DEFAULT_ANCHORS.a0_accuracy - 1.0
        )
        shifted_eval = StaticEvaluator(
            platform,
            AccuracySurrogate(space, anchors=shifted_anchors, seed=0),
            seed=0,
            cache=cache,
        )
        config = space.sample(np.random.default_rng(0))
        assert default_eval._cache_key(config) != shifted_eval._cache_key(config)

    def test_key_digests_are_pinned(self, tmp_path):
        """Persisted ``static`` and ``inner`` entries stay addressable: the
        digests are literals from an earlier release, so a change to the
        key fields that silently orphans existing entries fails here."""
        from repro.baselines.attentivenas import attentivenas_model

        search = HadasSearch(HadasConfig(seed=5, cache_dir=str(tmp_path)))
        a0 = attentivenas_model("a0")
        assert (
            search.static_evaluator._cache_key(a0).digest
            == "86c747289b6849df590db87a5dfbcc7a0fa5d54e"
        )
        assert (
            search._inner_cache_key(a0).digest
            == "186b8ee8bdf0bdb23510f3e983a5d5e5c3ef5c19"
        )

    def test_distinct_num_classes_do_not_share_entries(self, tmp_path):
        # config.key omits the classifier width, but head cost depends on it;
        # the persistent key must separate the two.
        first = HadasSearch(_tiny_config(cache_dir=str(tmp_path)))
        first.run()
        other = HadasSearch(_tiny_config(num_classes=10, cache_dir=str(tmp_path)))
        other.run()
        assert other.static_evaluator.num_measurements > 0


class TestOracleColumnsStayInMemory:
    """Exit-oracle columns are rebuilt in memory, never persisted."""

    def test_search_persists_only_static_and_inner(self, tmp_path):
        search = HadasSearch(_tiny_config(cache_dir=str(tmp_path)))
        cached = search.run()
        assert set(search.cache.disk_stats()["namespaces"]) == {"static", "inner"}
        uncached = HadasSearch(_tiny_config()).run()
        assert _pareto_bytes(cached) == _pareto_bytes(uncached)
        assert cached.num_evaluations == uncached.num_evaluations


class TestCacheNamespaceFiltering:
    """`repro cache --namespace`: scoped stats/clear/prune."""

    def _seeded(self, tmp_path) -> ResultCache:
        cache = ResultCache(tmp_path)
        cache.put(cache.key("static", b=1), {"x": 1})
        cache.put(cache.key("static", b=2), {"x": 2})
        cache.put(cache.key("serving", cell=1), {"y": 1})
        return cache

    def test_clear_namespace_leaves_others(self, tmp_path):
        cache = self._seeded(tmp_path)
        assert cache.clear(namespace="serving") == 1
        stats = cache.disk_stats()
        assert "serving" not in stats["namespaces"]
        assert stats["namespaces"]["static"]["entries"] == 2
        assert cache.get(cache.key("static", b=1)) == {"x": 1}
        # Index rewritten to survivors only.
        assert len(cache.index_entries()) == 2

    def test_clear_unknown_namespace_is_a_noop(self, tmp_path):
        cache = self._seeded(tmp_path)
        assert cache.clear(namespace="fleet") == 0
        assert cache.disk_stats()["entries"] == 3

    def test_prune_scoped_to_namespace(self, tmp_path):
        old = ResultCache(tmp_path, version="0")
        old.put(old.key("static", b=1), {"x": "old"})
        old.put(old.key("serving", cell=1), {"y": "old"})
        cache = self._seeded(tmp_path)
        # Only the stale *serving* entry goes; the stale static one stays.
        assert cache.prune(namespace="serving") == 1
        entries = cache.index_entries()
        versions = {
            (record["namespace"], record["version"]) for record in entries.values()
        }
        assert ("static", "0") in versions
        assert ("serving", "0") not in versions
        assert ("serving", str(cache.version)) in versions

    def test_prune_namespace_skips_orphan_sweep(self, tmp_path):
        cache = self._seeded(tmp_path)
        orphan = tmp_path / "deadbeef.json"
        orphan.write_text("{}")
        assert cache.prune(namespace="static", orphans=True) == 0
        assert orphan.exists()  # unindexed files carry no namespace to match

    def test_cli_namespace_stats_and_clear(self, tmp_path, capsys):
        from repro.engine.cli import main as cache_main

        self._seeded(tmp_path)
        assert cache_main(["stats", "--cache-dir", str(tmp_path), "--namespace", "static"]) == 0
        out = capsys.readouterr().out
        assert "namespace static" in out and "2 entries" in out
        assert cache_main(["clear", "--cache-dir", str(tmp_path), "--namespace", "static"]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert set(ResultCache(tmp_path).disk_stats()["namespaces"]) == {"serving"}


class TestConfigValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            HadasConfig(workers=0)

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            HadasConfig(executor="quantum")

    def test_injected_service_adopts_its_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        with EvaluationService(cache=cache) as service:
            search = HadasSearch(_tiny_config(), service=service)
            assert search.cache is cache
            matching = HadasSearch(
                _tiny_config(cache_dir=str(tmp_path)), service=service
            )
            assert matching.cache is cache

    def test_injected_service_engine_knob_conflict_raises(self, tmp_path):
        with EvaluationService(executor="thread", workers=4) as service:
            with pytest.raises(ValueError, match="workers"):
                HadasSearch(_tiny_config(workers=4), service=service)

    def test_injected_service_cache_conflict_raises(self, tmp_path):
        with EvaluationService(cache=ResultCache(tmp_path / "a")) as service:
            with pytest.raises(ValueError, match="conflicts"):
                HadasSearch(_tiny_config(cache_dir=str(tmp_path / "b")), service=service)
        with EvaluationService() as bare:
            with pytest.raises(ValueError, match="conflicts"):
                HadasSearch(_tiny_config(cache_dir=str(tmp_path / "c")), service=bare)


class TestRandomSearchBudget:
    def test_repeated_run_is_a_noop(self, static_evaluator):
        from repro.arch.space import BackboneSpace
        from repro.search.ooe import _BackboneProblem
        from repro.search.random_search import RandomSearch

        problem = _BackboneProblem(BackboneSpace(), static_evaluator)
        search = RandomSearch(problem, budget=8, rng=3)
        first = search.run()
        second = search.run()
        assert len(first) == len(second) == 8
        assert search.num_evaluations == 8


class TestEmptyArchiveGuidance:
    def test_selected_model_raises_runtime_error(self, space, surrogate):
        result = HadasResult(
            config=HadasConfig(),
            outer=OuterResult(
                static_archive=ParetoArchive(), dynamic_archive=ParetoArchive()
            ),
            space=space,
            surrogate=surrogate,
        )
        assert result.top_models(2) == []
        with pytest.raises(RuntimeError, match="dynamic archive is empty"):
            result.selected_model()


class TestCacheIndexAndPrune:
    """The entry table behind `repro cache` stats/prune."""

    def test_put_indexes_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("static", backbone="b1")
        cache.put(key, {"x": 1})
        entries = cache.index_entries()
        assert entries[key.digest]["namespace"] == "static"
        assert entries[key.digest]["version"] == str(cache.version)

    def test_disk_stats_breakdown(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache.key("static", b=1), {"x": 1})
        cache.put(cache.key("inner", b=2), {"y": 2})
        stats = cache.disk_stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert stats["namespaces"]["static"]["entries"] == 1
        assert stats["namespaces"]["inner"]["entries"] == 1
        assert stats["versions"][str(cache.version)] == 2
        assert stats["unindexed"] == 0

    def test_prune_removes_only_stale_versions(self, tmp_path):
        old = ResultCache(tmp_path, version="0")
        old_key = old.key("static", b=1)
        old.put(old_key, {"x": "old"})
        cur = ResultCache(tmp_path)
        cur_key = cur.key("static", b=1)
        cur.put(cur_key, {"x": "new"})
        assert old_key.digest != cur_key.digest  # version is in the address
        removed = cur.prune()
        assert removed == 1
        assert cur.get(cur_key) == {"x": "new"}
        assert not cur.contains(old_key)
        assert set(cur.index_entries()) == {cur_key.digest}

    def test_prune_keep_version_scoped_by_namespace(self, tmp_path):
        old = ResultCache(tmp_path, version="0")
        old.put(old.key("static", b=1), {"x": "old"})
        cur = ResultCache(tmp_path)
        cur.put(cur.key("static", b=1), {"x": "new"})
        cur.put(cur.key("serving", cell=1), {"y": "new"})
        # Keeping version "0" drops the current entries, here only `serving`'s.
        assert cur.prune(keep_version="0", namespace="serving") == 1
        assert cur.disk_stats()["versions"] == {"0": 1, str(cur.version): 1}
        assert cur.prune(keep_version="0") == 1
        assert cur.disk_stats()["versions"] == {"0": 1}
        assert old.get(old.key("static", b=1)) == {"x": "old"}

    def test_prune_keeps_unindexed_unless_asked(self, tmp_path):
        """Files of the file-per-entry store are counted, never read, and
        removed only by an orphan prune."""
        cache = ResultCache(tmp_path)
        key = cache.key("static", b=1)
        (tmp_path / f"{key.digest}.json").write_text('{"x": 1}')
        (tmp_path / "deadbeef.pkl").write_bytes(b"\x80\x04N.")
        assert cache.get(key, default="miss") == "miss"
        assert not cache.contains(key)
        assert cache.disk_stats()["unindexed"] == 2
        assert cache.prune() == 0
        assert cache.disk_stats()["unindexed"] == 2
        assert cache.prune(orphans=True) == 2
        assert not list(tmp_path.glob("*.json")) and not list(tmp_path.glob("*.pkl"))

    def test_clear_removes_index(self, tmp_path):
        """clear() empties the table and removes the file store's index."""
        cache = ResultCache(tmp_path)
        cache.put(cache.key("static", b=1), {"x": 1})
        (tmp_path / "index.jsonl").write_text('{"digest": "deadbeef"}\n')
        (tmp_path / "deadbeef.json").write_text("{}")
        assert cache.clear() == 2
        assert not (tmp_path / "index.jsonl").exists()
        assert not (tmp_path / "deadbeef.json").exists()
        assert cache.index_entries() == {}
        assert cache.disk_stats()["unindexed"] == 0

    def test_stats_on_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = cache.disk_stats()
        assert stats["entries"] == 0
        assert stats["bytes"] == 0
        assert stats["unindexed"] == 0
        assert stats["namespaces"] == {}
        assert stats["versions"] == {}
        assert len(cache) == 0
        assert cache.prune() == 0
        assert cache.stats().hit_rate == 0.0

    def test_reads_create_no_database(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("static", b=1)
        assert cache.get(key) is None
        assert not cache.contains(key)
        assert len(cache) == 0
        assert cache.index_entries() == {}
        cache.disk_stats()
        assert cache.prune(orphans=True) == 0
        assert cache.clear(namespace="static") == 0
        assert cache.clear() == 0
        assert not cache.database.exists()
        assert list(tmp_path.iterdir()) == []

    def test_index_last_record_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("static", b=1)
        cache.put(key, {"x": 1})
        cache.put(key, {"x": 2})  # an idempotent overwrite replaces the row
        entries = cache.index_entries()
        assert entries[key.digest]["version"] == str(cache.version)
        assert len(entries) == 1
        assert cache.get(key) == {"x": 2}


class TestCacheGivesSpaceBack:
    """A ``clear`` or ``prune`` that removes entries compacts the database:
    neither ``cache.sqlite3`` nor its WAL keeps the deleted payloads."""

    @staticmethod
    def _fill(cache: ResultCache, count: int) -> None:
        rng = np.random.default_rng(0)
        for i in range(count):
            cache.put(cache.key("spec", i=i), rng.bytes(1 << 20))

    @staticmethod
    def _sizes(cache: ResultCache) -> tuple[int, int]:
        wal = cache.database.with_name(cache.database.name + "-wal")
        return cache.database.stat().st_size, wal.stat().st_size if wal.exists() else 0

    def test_clear_shrinks_database_and_wal(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 20)
        assert cache.clear() == 20
        database, wal = self._sizes(cache)
        assert database < 1 << 20 and wal < 1 << 20

    def test_prune_shrinks_to_what_is_left(self, tmp_path):
        self._fill(ResultCache(tmp_path, version="0"), 10)
        cache = ResultCache(tmp_path)
        kept = cache.key("spec", i=0)
        cache.put(kept, b"kept")
        assert cache.prune() == 10
        database, wal = self._sizes(cache)
        assert database < 1 << 20 and wal < 1 << 20
        assert cache.get(kept) == b"kept" and len(cache) == 1


def _put_range(cache: ResultCache, tag: str, n: int, barrier=None) -> None:
    if barrier is not None:
        barrier.wait()
    for i in range(n):
        cache.put(cache.key("static", tag=tag, i=i), {"tag": tag, "i": i})


def _put_range_and_exit(directory: str, n: int) -> None:
    _put_range(ResultCache(directory), "child", n)
    os._exit(0)  # no close, no interpreter teardown: a killed worker


class TestCacheConcurrency:
    """Each (process, thread) writes through its own connection."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_writers_beside_an_open_parent_connection(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        cache = ResultCache(tmp_path)
        cache.put(cache.key("spec", tag="parent"), {"tag": "parent"})  # opens it
        n = 60
        barrier = ctx.Barrier(2, timeout=60)
        # The children write through the cache they inherit, as pool workers
        # forked after the parent's first read do.
        children = [
            ctx.Process(target=_put_range, args=(cache, tag, n, barrier))
            for tag in ("a", "b")
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120)
            assert not child.is_alive()
            assert child.exitcode == 0
        fresh = ResultCache(tmp_path)
        for reader in (cache, fresh):
            for tag in ("a", "b"):
                for i in range(n):
                    key = reader.key("static", tag=tag, i=i)
                    assert reader.get(key) == {"tag": tag, "i": i}
        stats = fresh.disk_stats()
        assert stats["entries"] == 2 * n + 1
        assert stats["namespaces"]["static"]["entries"] == 2 * n
        assert stats["namespaces"]["spec"]["entries"] == 1

    def test_threads_keep_exact_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        threads, n = 8, 25
        errors: list[BaseException] = []

        def work(tag):
            try:
                for i in range(n):
                    key = cache.key("static", tag=tag, i=i)
                    assert cache.get(key) is None
                    cache.put(key, {"i": i})
                    assert cache.get(key) == {"i": i}
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=work, args=(tag,)) for tag in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        stats = cache.stats("static")
        assert (stats.hits, stats.misses, stats.puts) == (threads * n,) * 3
        assert len(cache) == threads * n

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_entries_survive_a_writer_that_exits_without_closing(self, tmp_path):
        import subprocess

        n = 40
        child = multiprocessing.get_context("fork").Process(
            target=_put_range_and_exit, args=(str(tmp_path), n)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 0
        # The commits sit in the WAL, not yet checkpointed into the database.
        assert (tmp_path / "cache.sqlite3-wal").stat().st_size > 0
        code = (
            "import sys; from repro.engine.cache import ResultCache\n"
            "cache = ResultCache(sys.argv[1])\n"
            "print(sum(cache.get(cache.key('static', tag='child', i=i)) =="
            " {'tag': 'child', 'i': i} for i in range(int(sys.argv[2]))))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path), str(n)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        ).stdout
        assert int(out) == n
