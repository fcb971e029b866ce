"""The EvaluationService: batched, cached, order-preserving evaluation.

The search stack hands the service *batches* of tasks (a whole NSGA-II
population, a generation's worth of inner-engine runs) instead of evaluating
point-by-point.  The service resolves each task against the persistent
:class:`~repro.engine.cache.ResultCache` (when the task carries a key),
de-duplicates identical keys within the batch, runs the remaining misses on
the configured executor and returns results in submission order; misses
that share a ``group`` runner (lockstep inner runs) run as group calls.

Tasks must be pure: same ``(fn, args)`` ⇒ same result.  Every evaluator in
this repo derives its noise streams from content-keyed ``child_rng`` seeds,
so this holds by construction and parallel schedules cannot change results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Sequence

from repro.engine.cache import CacheKey, ResultCache
from repro.engine.executors import make_executor
from repro.obs import trace
from repro.obs.collect import TracedCall, absorb

_MISS = object()


@dataclass(frozen=True)
class EvalTask:
    """One unit of evaluation work.

    Attributes
    ----------
    fn, args:
        The pure callable and its positional arguments.
    key:
        Optional content address; when set (and the service has a cache) the
        result is looked up before executing and persisted after.
    cls:
        Optional dataclass type for rebuilding JSON-stored cache entries.
    group:
        Optional runner of several such tasks: a batch's misses that share
        it (``==``) run as ``group([args, ...])``, results in order.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    key: CacheKey | None = None
    cls: type | None = None
    group: Callable[[list[tuple]], list] | None = None


@dataclass
class ServiceStats:
    """What the service did on behalf of the search.

    ``executed`` counts tasks handed to the executor (the historical field);
    the submitted/completed/failed/cancelled quartet gives the full task
    ledger: ``submitted == completed + failed + cancelled`` once a batch
    settles; group calls count their tasks.  Failures are counted per-batch
    — executors raise on the first failing task, so the whole dispatched
    batch is charged to ``failed`` (or ``cancelled`` for interrupt/exit
    teardowns) and the error propagates.
    """

    batches: int = 0
    tasks: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class EvaluationService:
    """Runs evaluation batches on a pluggable executor with shared caching.

    Parameters
    ----------
    executor:
        ``"serial"``, ``"thread"``, ``"process"`` or ``"auto"`` (serial for
        one worker, threads otherwise).
    workers:
        Degree of parallelism for pool executors.
    cache:
        Optional persistent :class:`ResultCache` consulted for keyed tasks.
    """

    def __init__(
        self,
        executor: str = "serial",
        workers: int = 1,
        cache: ResultCache | None = None,
    ):
        self.cache = cache
        self.executor = make_executor(executor, workers)
        self.stats = ServiceStats()

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Error-path teardown cancels queued work so an interrupted sweep
        # (KeyboardInterrupt mid-batch) does not block on — or leak — workers.
        self.close(cancel=exc_type is not None)

    def close(self, cancel: bool = False) -> None:
        """Tear down executor pools (idempotent); ``cancel`` drops queued work.

        Also flushes the cache's session-stats sidecar so ``repro cache
        stats`` reports this run's hit/miss traffic (including merged
        worker-process deltas).
        """
        self.executor.close(cancel=cancel)
        if self.cache is not None:
            try:
                self.cache.flush_session_stats()
            except OSError:
                pass  # stats persistence must never mask the real teardown path

    @property
    def workers(self) -> int:
        return self.executor.workers

    @property
    def prefers_specs(self) -> bool:
        """True when submitters should lower tasks to codec specs.

        Spec payloads only pay off where tasks cross a process boundary:
        the process executor always, and the multi-worker ``auto`` executor
        (which routes codec-backed batches to its process pool).  Serial and
        thread executors share the submitter's memory, where closures over
        live evaluators are both cheaper and warmer (shared in-memory
        caches), so spec lowering is skipped.
        """
        kind = self.executor.kind
        return kind == "process" or (kind == "auto" and self.workers > 1)

    # ------------------------------------------------------------ evaluation
    def evaluate(self, task: EvalTask) -> Any:
        """Evaluate a single task (batch of one)."""
        return self.evaluate_batch([task])[0]

    def evaluate_batch(self, tasks: Sequence[EvalTask]) -> list[Any]:
        """Evaluate ``tasks``, returning results in submission order.

        Keyed tasks are resolved against the cache first; within the batch,
        tasks sharing a key are computed once.  Cache misses run on the
        executor in submission order (see :meth:`_execute` for groups), so
        results are independent of worker count and scheduling.
        """
        self.stats.batches += 1
        self.stats.tasks += len(tasks)
        results: list[Any] = [_MISS] * len(tasks)

        pending: list[int] = []  # indices that must actually execute
        owner_of_digest: dict[str, int] = {}  # first pending index per key
        duplicates: list[tuple[int, int]] = []  # (index, owner index)
        for index, task in enumerate(tasks):
            if task.key is not None:
                if task.key.digest in owner_of_digest:
                    duplicates.append((index, owner_of_digest[task.key.digest]))
                    self.stats.deduplicated += 1
                    continue
                if self.cache is not None:
                    cached = self.cache.get(task.key, cls=task.cls, default=_MISS)
                    if cached is not _MISS:
                        results[index] = cached
                        self.stats.cache_hits += 1
                        continue
                owner_of_digest[task.key.digest] = index
            pending.append(index)

        if pending:
            outputs = self._execute([tasks[i] for i in pending])
            self.stats.executed += len(pending)
            for index, output in zip(pending, outputs):
                results[index] = output
                task = tasks[index]
                if task.key is not None and self.cache is not None:
                    self.cache.put(task.key, output)
        for index, owner in duplicates:
            results[index] = results[owner]
        return results

    def _execute(self, tasks: list[EvalTask]) -> list[Any]:
        """Dispatch cache misses to the executor, collecting observability.

        Tasks sharing a ``group`` runner are dealt round-robin into at most
        ``workers`` calls of it; any other task is one ``fn(*args)`` call.
        Pooled calls are wrapped in :class:`~repro.obs.collect.TracedCall`
        when tracing is on (to capture worker-side spans/counters and
        queue-wait) or when the executor may cross a process boundary while
        a cache is attached (to ship worker cache-stat deltas home).  The
        wrapper preserves ``is_task_codec``, so ``auto`` routing and results
        are unchanged — envelopes are unwrapped before anything downstream
        (cache puts, callers) sees them.
        """
        calls, covered, groups = [], [], {}  # covered: a task, or a group call's tasks
        for index, task in enumerate(tasks):
            if task.group is None:
                calls.append((task.fn, task.args))
                covered.append(index)
            else:
                groups.setdefault(task.group, []).append(index)
        for runner, members in groups.items():
            parts = min(self.workers, len(members))
            chunks = [members[part::parts] for part in range(parts)]
            calls += [(runner, ([tasks[i].args for i in chunk],)) for chunk in chunks]
            covered += chunks

        recording = trace.active() is not None
        kind = self.executor.kind
        wrap = kind != "serial" and (
            recording or (self.cache is not None and kind in ("process", "auto"))
        )
        if wrap:
            calls = [(TracedCall(fn, recording), args) for fn, args in calls]
        count = len(tasks)
        self.stats.submitted += count
        trace.count("engine.tasks_submitted", count)
        trace.observe("engine.batch_pending", count)
        try:
            with trace.span("engine.execute", pending=count, executor=kind):
                returned = self.executor.run(calls)
        except BaseException as error:
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                self.stats.cancelled += count
                trace.count("engine.tasks_cancelled", count)
            else:
                self.stats.failed += count
                trace.count("engine.tasks_failed", count)
            raise
        self.stats.completed += count
        trace.count("engine.tasks_completed", count)
        outputs: list[Any] = [None] * count
        for cover, output in zip(covered, returned):
            output = absorb(output, self.cache) if wrap else output
            pairs = zip(cover, output) if isinstance(cover, list) else [(cover, output)]
            for index, result in pairs:
                outputs[index] = result
        return outputs

    def map(self, fn: Callable[..., Any], args_list: Sequence[tuple]) -> list[Any]:
        """Convenience: evaluate ``fn`` over many argument tuples, unkeyed."""
        return self.evaluate_batch([EvalTask(fn, args) for args in args_list])
