"""Request queues and the micro-batcher of the serving simulator.

The batcher implements the standard two-trigger policy used by serving
systems: dispatch a batch when it is *full* (``max_batch`` requests) or when
the oldest queued request has waited ``timeout_s`` — whichever comes first.
While the device is busy, arrivals keep accumulating and may top the next
batch up to ``max_batch`` ("opportunistic fill"), which is what makes
micro-batching pay off exactly when the system is under pressure.

:class:`ArrayBatcher` implements that policy as index arithmetic over the
sorted arrival array.  On the default path (no admission control, one SLO
class) batches are contiguous index ranges, handed out as ``range``
objects, so forming one is one bounded bisection and a pointer bump —
bit-identical dispatch decisions to the original object/deque batcher,
which lives on as the executable spec in ``tests/spec/serving.py``.  With
an :class:`AdmissionPolicy` or latency-critical requests present it
switches to explicit per-class integer queues: critical-first dispatch,
and arrivals beyond the queue cap are dropped (or deferred) instead of
ballooning the backlog.

The batcher is also the queue a single device's governor observes: the
trailing arrival rate, and the backlog, counted by galloping forward from
the queue head because it is usually a few requests long.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.serving.workload import LATENCY_CRITICAL, Trace
from repro.utils.validation import check_nonneg, check_positive

#: Admission modes: ``drop`` rejects over-cap arrivals outright, ``defer``
#: parks them and re-admits (FIFO) as soon as dispatches free queue space.
ADMISSION_MODES = ("drop", "defer")


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batching knobs: size cap and head-of-line timeout."""

    max_batch: int = 8
    timeout_s: float = 0.004

    def __post_init__(self):
        check_positive("max_batch", self.max_batch)
        check_nonneg("timeout_s", self.timeout_s)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue-depth admission control: backpressure for the serving queue.

    ``max_queue`` caps the number of admitted-but-undispatched requests.
    Arrivals beyond it are *dropped* (never served, tracked first-class in
    telemetry) or *deferred* (parked in a side queue and re-admitted FIFO as
    dispatches free space — they serve late rather than never).  With
    ``critical_bypass`` latency-critical requests are always admitted; the
    cap sheds best-effort traffic first.
    """

    max_queue: int
    mode: str = "drop"
    critical_bypass: bool = True

    def __post_init__(self):
        check_positive("max_queue", self.max_queue)
        if self.mode not in ADMISSION_MODES:
            raise ValueError(
                f"unknown admission mode {self.mode!r}; valid: {ADMISSION_MODES}"
            )


class ArrayBatcher:
    """Index-arithmetic micro-batcher over a trace's arrival array.

    Two modes, chosen at construction:

    * **span mode** (``contiguous`` is True; no admission policy and no
      latency-critical requests): the queue is implicit — a head pointer
      into the sorted arrival array.  A FIFO deque batcher provably drains
      its queue completely on every dispatch (admission is capped at
      ``max_batch`` and every pop takes ``min(max_batch, len)``), so batches
      are always contiguous index ranges; :meth:`next_batch` reduces to one
      bisection.  Bit-identical to the deque batcher.
    * **queue mode** (admission control and/or SLO classes): explicit
      per-class integer deques.  Latency-critical requests dispatch first
      within each batch window; arrivals beyond the admission cap are
      dropped or deferred at their (lazily evaluated) arrival instants.

    ``next_batch`` returns ``(start_s, requests)`` in both modes:
    ``requests`` is a ``range`` of request indices in span mode (what
    :meth:`next_span` returns) and a list of them in queue mode.
    """

    def __init__(self, trace: Trace, policy: BatchPolicy, admission: AdmissionPolicy | None = None):
        self.policy = policy
        self.admission = admission
        self._times = np.ascontiguousarray(trace.arrival_s, dtype=float)
        # Zero-copy view for the per-batch lookups (``next_span``,
        # ``backlog_at``), which read a few elements each: ``bisect_right``
        # over it skips an ndarray ``searchsorted`` call's fixed overhead,
        # and indexing yields the same doubles as Python floats.
        self._times_view = memoryview(self._times)
        self._classes = trace.slo_class
        self._n = len(self._times)
        self._has_critical = bool(np.any(self._classes == LATENCY_CRITICAL))
        self.contiguous = admission is None and not self._has_critical
        # Span mode: head pointer over the arrival array.
        self._head = 0
        # Queue mode: gate cursor + per-class admitted queues + reject books.
        self._cursor = 0  # next arrival not yet gated through admission
        self._crit: deque[int] = deque()
        self._be: deque[int] = deque()
        self._deferred: deque[int] = deque()
        self._dropped = 0
        self._ever_deferred = 0
        if self._has_critical:
            flags = (np.asarray(self._classes) == LATENCY_CRITICAL).astype(np.int64)
            self._crit_cum = np.concatenate([[0], np.cumsum(flags)])
        else:
            self._crit_cum = None

    # ------------------------------------------------------------ telemetry
    @property
    def num_dropped(self) -> int:
        return self._dropped

    @property
    def num_deferred(self) -> int:
        """Requests that were parked in the deferred queue at least once."""
        return self._ever_deferred

    def _arrived_from(self, lo: int, now_s: float) -> int:
        """``max(lo, arrivals ≤ now_s)``: gallop forward from ``lo`` in
        doubling steps, then bisect within the last one."""
        times = self._times_view
        n = self._n
        if lo >= n or times[lo] > now_s:
            return lo
        step = 1
        hi = lo + 1
        while hi < n and times[hi] <= now_s:  # invariant: times[lo] <= now_s
            lo = hi
            step += step
            hi = lo + step
        return bisect_right(times, now_s, lo + 1, hi if hi < n else n)

    def backlog_at(self, now_s: float) -> int:
        """Arrived-but-undispatched (and not dropped) requests at ``now_s``."""
        if self.contiguous:
            head = self._head
            return self._arrived_from(head, now_s) - head
        cursor = self._cursor
        ungated = self._arrived_from(cursor, now_s) - cursor
        return len(self._crit) + len(self._be) + len(self._deferred) + ungated

    def critical_backlog_at(self, now_s: float) -> int:
        """Latency-critical share of :meth:`backlog_at` (0 when untagged)."""
        if not self._has_critical:
            return 0
        cursor = self._cursor
        hi = self._arrived_from(cursor, now_s)
        return len(self._crit) + int(self._crit_cum[hi] - self._crit_cum[cursor])

    def arrival_rate_hz(self, now_s: float, window_s: float, fallback: float) -> float:
        """Arrivals/second (admitted or not) over the trailing window;
        ``fallback`` at t ≤ 0."""
        if now_s <= 0:
            return fallback
        window_start = max(0.0, now_s - window_s)
        lo = bisect_left(self._times_view, window_start)
        hi = bisect_right(self._times_view, now_s)
        return (hi - lo) / max(now_s - window_start, 1e-9)

    # ------------------------------------------------------------ span mode
    def next_span(self, device_free_s: float) -> tuple[float, range] | None:
        """Form the next batch as a contiguous ``range(lo, hi)`` of indices.

        Only valid in span mode.  The two-trigger policy collapses to index
        arithmetic over the sorted arrival array: the trigger is
        ``min(times[head] + timeout_s, times[head + max_batch - 1])``
        floored by the device-free time, and the batch is every arrival by
        then, at most ``max_batch`` of them.
        """
        head = self._head
        if head >= self._n:
            return None
        times = self._times_view
        cap = head + self.policy.max_batch
        trigger = times[head] + self.policy.timeout_s
        if cap <= self._n:
            fill = times[cap - 1]
            if fill < trigger:
                trigger = fill
        else:
            cap = self._n
        start = device_free_s if device_free_s > trigger else trigger
        # Bounded to [head, head + max_batch): a couple of comparisons.
        hi = bisect_right(times, start, head, cap)
        self._head = hi
        return float(start), range(head, hi)

    # ----------------------------------------------------------- queue mode
    def _gate(self, cutoff_s: float) -> None:
        """Admit arrivals with ``arrival <= cutoff`` through the policy.

        Backlog only grows between dispatches, so evaluating the cap lazily
        at gate time is equivalent to evaluating it at each arrival instant:
        within one gate the queue never shrinks, which makes admission a
        prefix rule — best-effort newcomers are admitted while
        ``depth + position < max_queue`` and rejected from then on
        (criticals bypass the cap when ``critical_bypass`` is set, but still
        occupy queue space).  Deferred requests re-enter first, FIFO.
        """
        admission = self.admission
        if admission is not None and self._deferred:
            space = admission.max_queue - len(self._crit) - len(self._be)
            while space > 0 and self._deferred:
                index = self._deferred.popleft()
                if self._classes[index] == LATENCY_CRITICAL:
                    self._crit.append(index)
                else:
                    self._be.append(index)
                space -= 1
        k = int(np.searchsorted(self._times, cutoff_s, side="right"))
        if k <= self._cursor:
            return
        new = np.arange(self._cursor, k)
        self._cursor = k
        critical = np.asarray(self._classes[new]) == LATENCY_CRITICAL
        if admission is None:
            admit = np.ones(len(new), dtype=bool)
        else:
            space = admission.max_queue - len(self._crit) - len(self._be)
            admit = np.arange(len(new)) < space
            if admission.critical_bypass:
                admit |= critical
        for index, crit, ok in zip(new.tolist(), critical.tolist(), admit.tolist()):
            if ok:
                (self._crit if crit else self._be).append(index)
            elif admission.mode == "defer":
                self._deferred.append(index)
                self._ever_deferred += 1
            else:
                self._dropped += 1

    def _head_arrival(self) -> float:
        times = self._times
        if self._crit and self._be:
            a, b = times[self._crit[0]], times[self._be[0]]
            return float(a if a <= b else b)
        if self._crit:
            return float(times[self._crit[0]])
        return float(times[self._be[0]])

    def _fill_arrival(self) -> float:
        """Arrival instant of the batch-completing request.

        The ``max_batch``-th smallest arrival among the first ``max_batch``
        entries of each class queue (exact when queues are arrival-sorted,
        which holds in every mode except after defer re-admission).
        """
        mb = self.policy.max_batch
        times = self._times
        arrivals = [times[i] for _, i in zip(range(mb), self._crit)]
        arrivals += [times[i] for _, i in zip(range(mb), self._be)]
        arrivals.sort()
        return float(arrivals[mb - 1])

    def _select(self, start: float) -> list[int]:
        """Pop up to ``max_batch`` dispatchable members, critical first.

        Within each class, requests leave in admission order; a member must
        have arrived by ``start``.  Arrival-sorted queues make this a prefix
        scan per class.
        """
        times = self._times
        mb = self.policy.max_batch
        batch: list[int] = []
        for queue in (self._crit, self._be):
            while queue and len(batch) < mb and times[queue[0]] <= start:
                batch.append(queue.popleft())
        return batch

    def _next_batch_queued(self, device_free_s: float) -> tuple[float, list[int]] | None:
        while not (self._crit or self._be):
            if self._deferred:
                index = self._deferred.popleft()
                if self._classes[index] == LATENCY_CRITICAL:
                    self._crit.append(index)
                else:
                    self._be.append(index)
            elif self._cursor < self._n:
                # Seed the queue by gating at the next arrival instant
                # (ties gate together, subject to the admission cap).
                self._gate(float(self._times[self._cursor]))
            else:
                return None
        expiry = self._head_arrival() + self.policy.timeout_s
        self._gate(expiry)
        if len(self._crit) + len(self._be) >= self.policy.max_batch:
            trigger = self._fill_arrival()
            if trigger < self._head_arrival():
                trigger = self._head_arrival()
        else:
            trigger = expiry
        start = max(device_free_s, trigger)
        self._gate(start)  # opportunistic fill + admission of interval arrivals
        return start, self._select(start)

    def next_batch(self, device_free_s: float) -> tuple[float, range | list[int]] | None:
        """Form the next batch; ``(start_s, request indices)`` or ``None``."""
        if self.contiguous:
            return self.next_span(device_free_s)
        return self._next_batch_queued(device_free_s)
