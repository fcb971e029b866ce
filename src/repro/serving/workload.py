"""Trace-driven load generation for the online serving simulator.

A :class:`Trace` is a timestamped request stream with per-request difficulty
(the same Beta-distributed scalar the exit oracle uses) and an SLO class
(latency-critical vs best-effort), produced by one of four generators:

* ``poisson`` — stationary Poisson arrivals (the classic open-loop model);
* ``bursty`` — a two-state Markov-modulated Poisson process (MMPP) switching
  between a quiet base rate and a burst rate, the regime where static
  provisioning fails;
* ``diurnal`` — an inhomogeneous Poisson process whose rate follows a
  sinusoidal day/night profile (generated by thinning);
* ``replay`` — replays recorded arrival timestamps; ``flash_crowd_trace``
  ships a canned flash-crowd profile (quiet → steep ramp → spike → decay) as
  the built-in trace to replay.

Traces are stored as *parallel numpy arrays* (``arrival_s``, ``difficulty``,
``slo_class``), so million-request streams are a few dozen megabytes instead
of millions of objects, and the indexed event core in the simulator can run
pure index arithmetic over them.  A lazy ``requests`` view reconstructs the
per-request :class:`Request` objects for code that still wants them.

Everything is seeded through :func:`repro.utils.rng.child_rng`, so a trace
is a pure function of ``(pattern, parameters, seed)``.  The bursty generator
is block-sampled but consumes the *same* underlying standard-exponential
stream as the original scalar loop, so its output is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.difficulty import DifficultyDistribution
from repro.utils.rng import child_rng
from repro.utils.validation import check_positive

#: Generator names accepted by :func:`make_trace` (CLI/bench vocabulary).
LOAD_PATTERNS = ("poisson", "bursty", "diurnal", "replay")

#: SLO class codes: the batcher dispatches latency-critical requests first,
#: the fleet router spills them to the least-loaded lane, and the governor
#: weighs their backlog double.  Best-effort is the default everywhere.
LATENCY_CRITICAL = 0
BEST_EFFORT = 1
SLO_CLASSES = ("latency_critical", "best_effort")


@dataclass(frozen=True)
class Request:
    """One inference request: arrival time, difficulty and SLO class."""

    index: int
    arrival_s: float
    difficulty: float
    slo_class: int = BEST_EFFORT


@dataclass(frozen=True, eq=False)
class Trace:
    """A finite request stream for one serving run, stored as arrays.

    ``arrival_s`` is sorted ascending; ``difficulty`` and ``slo_class`` are
    parallel to it.  Equality compares contents (numpy arrays make the
    default dataclass ``__eq__`` ambiguous).
    """

    pattern: str
    arrival_s: np.ndarray
    difficulty: np.ndarray
    slo_class: np.ndarray = field(default=None)  # type: ignore[assignment]
    duration_s: float = 0.0

    def __post_init__(self):
        arrivals = np.asarray(self.arrival_s, dtype=float)
        difficulty = np.asarray(self.difficulty, dtype=float)
        slo = self.slo_class
        if slo is None:
            slo = np.full(len(arrivals), BEST_EFFORT, dtype=np.uint8)
        slo = np.asarray(slo, dtype=np.uint8)
        if not (len(arrivals) == len(difficulty) == len(slo)):
            raise ValueError(
                f"trace arrays disagree on length: {len(arrivals)} arrivals, "
                f"{len(difficulty)} difficulties, {len(slo)} slo classes"
            )
        object.__setattr__(self, "arrival_s", arrivals)
        object.__setattr__(self, "difficulty", difficulty)
        object.__setattr__(self, "slo_class", slo)
        object.__setattr__(self, "duration_s", float(self.duration_s))

    # ------------------------------------------------------------- equality
    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.pattern == other.pattern
            and self.duration_s == other.duration_s
            and np.array_equal(self.arrival_s, other.arrival_s)
            and np.array_equal(self.difficulty, other.difficulty)
            and np.array_equal(self.slo_class, other.slo_class)
        )

    # ----------------------------------------------------------- properties
    @property
    def num_requests(self) -> int:
        return len(self.arrival_s)

    @property
    def num_critical(self) -> int:
        """Latency-critical requests in the trace."""
        return int(np.count_nonzero(self.slo_class == LATENCY_CRITICAL))

    @property
    def mean_rate_hz(self) -> float:
        """Average arrival rate over the trace window."""
        if self.duration_s <= 0:
            return 0.0
        return self.num_requests / self.duration_s

    @property
    def requests(self) -> tuple[Request, ...]:
        """Per-request object view (built on demand; the arrays are primary)."""
        return tuple(
            Request(index=i, arrival_s=float(t), difficulty=float(d), slo_class=int(c))
            for i, (t, d, c) in enumerate(
                zip(self.arrival_s, self.difficulty, self.slo_class)
            )
        )

    def arrival_times(self) -> np.ndarray:
        return self.arrival_s

    def difficulties(self) -> np.ndarray:
        return self.difficulty

    @classmethod
    def from_requests(
        cls, pattern: str, requests: tuple[Request, ...] | list[Request], duration_s: float
    ) -> "Trace":
        """Build a trace from Request objects (tests, hand-rolled streams)."""
        return cls(
            pattern=pattern,
            arrival_s=np.asarray([r.arrival_s for r in requests], dtype=float),
            difficulty=np.asarray([r.difficulty for r in requests], dtype=float),
            slo_class=np.asarray([r.slo_class for r in requests], dtype=np.uint8),
            duration_s=float(duration_s),
        )


def _homogeneous_arrivals(
    rng: np.random.Generator, rate_hz: float, duration_s: float
) -> np.ndarray:
    """Homogeneous-Poisson arrival times covering [0, duration) at ``rate_hz``.

    Draws exponential gaps in blocks and extends until the window is
    overshot; callers clip/thin.  Shared by every generator built on a
    (possibly thinned) Poisson process.
    """
    n = max(int(rate_hz * duration_s * 1.5) + 16, 16)
    times = np.cumsum(rng.exponential(1.0 / rate_hz, size=n))
    while times[-1] < duration_s:
        times = np.concatenate(
            [times, times[-1] + np.cumsum(rng.exponential(1.0 / rate_hz, size=n))]
        )
    return times[times < duration_s]


def _sample_slo_classes(
    pattern: str, n: int, seed: int, critical_fraction: float
) -> np.ndarray:
    """Bernoulli latency-critical tags from an independent seed branch.

    A separate :func:`child_rng` branch keeps arrival and difficulty streams
    byte-identical whether or not classes are requested — tagging a trace
    never perturbs its timing.
    """
    if not 0.0 <= critical_fraction <= 1.0:
        raise ValueError(
            f"critical_fraction must be in [0, 1], got {critical_fraction}"
        )
    if critical_fraction == 0.0:
        return np.full(n, BEST_EFFORT, dtype=np.uint8)
    rng = child_rng(seed, "serving", "slo-class", pattern)
    critical = rng.random(n) < critical_fraction
    return np.where(critical, LATENCY_CRITICAL, BEST_EFFORT).astype(np.uint8)


def _assemble(
    pattern: str,
    times: np.ndarray,
    duration_s: float,
    seed: int,
    difficulty: DifficultyDistribution | None,
    critical_fraction: float = 0.0,
) -> Trace:
    times = np.sort(np.asarray(times, dtype=float))
    times = times[(times >= 0.0) & (times < duration_s)]
    dist = difficulty or DifficultyDistribution()
    rng = child_rng(seed, "serving", "difficulty", pattern)
    difficulties = np.asarray(dist.sample(len(times), rng), dtype=float)
    classes = _sample_slo_classes(pattern, len(times), seed, critical_fraction)
    return Trace(
        pattern=pattern,
        arrival_s=times,
        difficulty=difficulties,
        slo_class=classes,
        duration_s=float(duration_s),
    )


def poisson_trace(
    rate_hz: float,
    duration_s: float,
    seed: int = 0,
    difficulty: DifficultyDistribution | None = None,
    critical_fraction: float = 0.0,
) -> Trace:
    """Stationary Poisson arrivals at ``rate_hz`` over ``duration_s``."""
    check_positive("rate_hz", rate_hz)
    check_positive("duration_s", duration_s)
    rng = child_rng(seed, "serving", "poisson")
    times = _homogeneous_arrivals(rng, rate_hz, duration_s)
    return _assemble("poisson", times, duration_s, seed, difficulty, critical_fraction)


class _ExponentialStream:
    """Block-buffered standard-exponential draws.

    Consumes the generator's underlying stream in exactly the order repeated
    scalar ``rng.exponential(scale)`` calls would (``exponential`` is
    ``scale · standard_exponential`` on the same ziggurat stream), which is
    what keeps the vectorized MMPP below bit-identical to the original
    per-draw loop.  Over-buffered draws are simply never consumed.
    """

    def __init__(self, rng: np.random.Generator, block: int):
        self._rng = rng
        self._block = max(int(block), 64)
        self._buf = rng.standard_exponential(self._block)
        self._pos = 0

    def refill(self) -> None:
        self._buf = self._rng.standard_exponential(self._block)
        self._pos = 0

    def draw(self) -> float:
        if self._pos >= len(self._buf):
            self.refill()
        value = self._buf[self._pos]
        self._pos += 1
        return float(value)

    def remaining(self) -> np.ndarray:
        if self._pos >= len(self._buf):
            self.refill()
        return self._buf[self._pos :]

    def advance(self, count: int) -> None:
        self._pos += count


def bursty_trace(
    rate_hz: float,
    duration_s: float,
    seed: int = 0,
    burst_factor: float = 4.0,
    mean_quiet_s: float = 4.0,
    mean_burst_s: float = 1.5,
    difficulty: DifficultyDistribution | None = None,
    critical_fraction: float = 0.0,
) -> Trace:
    """Two-state MMPP: quiet base rate with exponential-dwell bursts.

    ``rate_hz`` is the *mean* rate; the quiet rate is scaled down so that
    quiet dwell at 1× and burst dwell at ``burst_factor``× average out to it.

    Arrivals within each dwell segment are block-sampled: one shared
    standard-exponential buffer is walked with ``cumsum`` (seeded with the
    segment start, so the sequential float rounding matches the scalar
    ``cursor += gap`` walk exactly) and cut at the segment end with
    ``searchsorted``.  Each walk covers a window sized to the arrivals the
    segment still expects, continuing from its last value when the window
    runs out, so the work stays linear in the trace length.  Bit-identical
    to the original per-draw loop.
    """
    check_positive("rate_hz", rate_hz)
    check_positive("duration_s", duration_s)
    if burst_factor < 1.0:
        raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
    rng = child_rng(seed, "serving", "bursty")
    # E[rate] = quiet · (T_q + f·T_b) / (T_q + T_b)  ⇒  solve for quiet.
    rate_hz = rate_hz * (mean_quiet_s + mean_burst_s) / (
        mean_quiet_s + burst_factor * mean_burst_s
    )
    expo = _ExponentialStream(rng, int(rate_hz * burst_factor * duration_s * 1.2) + 64)
    parts: list[np.ndarray] = []
    t = 0.0
    bursting = False
    while t < duration_s:
        dwell = (mean_burst_s if bursting else mean_quiet_s) * expo.draw()
        end = min(t + dwell, duration_s)
        scale = 1.0 / (rate_hz * (burst_factor if bursting else 1.0))
        cursor = t
        while True:
            window = int((end - cursor) / scale * 1.25) + 16
            gaps = expo.remaining()[:window] * scale
            # walk[k] = cursor + g_1 + ... + g_k with cumsum's sequential
            # accumulation — the same additions, in the same order, as the
            # scalar loop's ``cursor += gap``.
            walk = np.cumsum(np.concatenate(([cursor], gaps)))
            within = int(np.searchsorted(walk[1:], end, side="left"))
            if within == len(gaps):
                # The whole window lands inside the segment: keep walking.
                parts.append(walk[1:])
                expo.advance(len(gaps))
                cursor = float(walk[-1])
                continue
            parts.append(walk[1 : within + 1].copy())
            expo.advance(within + 1)  # the overshooting gap is consumed too
            break
        t = end
        bursting = not bursting
    times = np.concatenate(parts) if parts else np.empty(0)
    return _assemble(
        "bursty", times, duration_s, seed, difficulty, critical_fraction
    )


def diurnal_trace(
    rate_hz: float,
    duration_s: float,
    seed: int = 0,
    peak_to_trough: float = 4.0,
    cycles: float = 2.0,
    difficulty: DifficultyDistribution | None = None,
    critical_fraction: float = 0.0,
) -> Trace:
    """Inhomogeneous Poisson arrivals with a sinusoidal day/night profile.

    ``rate_hz`` is the *mean* rate; the instantaneous rate oscillates between
    ``2·mean / (1 + 1/ptt)`` (peak) and ``peak / ptt`` (trough), generated by
    thinning a homogeneous process at the peak rate.
    """
    check_positive("rate_hz", rate_hz)
    check_positive("duration_s", duration_s)
    if peak_to_trough < 1.0:
        raise ValueError(f"peak_to_trough must be >= 1, got {peak_to_trough}")
    rng = child_rng(seed, "serving", "diurnal")
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    peak_rate = rate_hz * (1.0 + amplitude)

    def rate_at(t: np.ndarray) -> np.ndarray:
        phase = 2.0 * np.pi * cycles * t / duration_s
        return rate_hz * (1.0 + amplitude * np.sin(phase))

    candidates = _homogeneous_arrivals(rng, peak_rate, duration_s)
    keep = rng.random(len(candidates)) < rate_at(candidates) / peak_rate
    return _assemble(
        "diurnal", candidates[keep], duration_s, seed, difficulty, critical_fraction
    )


def replay_trace(
    arrival_times: np.ndarray,
    duration_s: float | None = None,
    seed: int = 0,
    difficulty: DifficultyDistribution | None = None,
    critical_fraction: float = 0.0,
) -> Trace:
    """Replay recorded arrival timestamps (seconds, any order)."""
    times = np.asarray(arrival_times, dtype=float)
    if len(times) == 0:
        raise ValueError("replay_trace needs at least one arrival timestamp")
    if duration_s is None:
        # nextafter, not "+ 1e-9": a fixed epsilon is absorbed by float
        # rounding once max() ≳ 1e4 s (day-scale traces), and the strict
        # ``times < duration_s`` filter would silently drop the last arrival.
        duration_s = float(np.nextafter(times.max(), np.inf))
    return _assemble("replay", times, duration_s, seed, difficulty, critical_fraction)


def flash_crowd_trace(
    rate_hz: float,
    duration_s: float,
    seed: int = 0,
    spike_factor: float = 6.0,
    difficulty: DifficultyDistribution | None = None,
    critical_fraction: float = 0.0,
) -> Trace:
    """The built-in replayed trace: a flash-crowd profile.

    Quiet first third at half the nominal rate, a steep ramp to
    ``spike_factor`` × nominal over the middle third, then exponential decay
    — the shape of a link going viral, replayed through :func:`replay_trace`.
    """
    check_positive("rate_hz", rate_hz)
    check_positive("duration_s", duration_s)
    rng = child_rng(seed, "serving", "flash-crowd")
    grid = np.linspace(0.0, duration_s, 241)
    third = duration_s / 3.0
    rate = np.where(
        grid < third,
        0.5 * rate_hz,
        np.where(
            grid < 2 * third,
            0.5 * rate_hz + (spike_factor - 0.5) * rate_hz * (grid - third) / third,
            spike_factor * rate_hz * np.exp(-3.0 * (grid - 2 * third) / third),
        ),
    )
    rate *= rate_hz / max(float(rate.mean()), 1e-12)  # normalise to mean rate_hz
    peak = float(rate.max())
    candidates = _homogeneous_arrivals(rng, peak, duration_s)
    keep = rng.random(len(candidates)) < np.interp(candidates, grid, rate) / peak
    return _assemble(
        "replay", candidates[keep], duration_s, seed, difficulty, critical_fraction
    )


def make_trace(
    pattern: str,
    rate_hz: float,
    duration_s: float,
    seed: int = 0,
    difficulty: DifficultyDistribution | None = None,
    critical_fraction: float = 0.0,
) -> Trace:
    """Build a trace by pattern name (the CLI/bench entry point)."""
    if pattern == "poisson":
        return poisson_trace(
            rate_hz, duration_s, seed, difficulty, critical_fraction
        )
    if pattern == "bursty":
        return bursty_trace(
            rate_hz, duration_s, seed,
            difficulty=difficulty, critical_fraction=critical_fraction,
        )
    if pattern == "diurnal":
        return diurnal_trace(
            rate_hz, duration_s, seed,
            difficulty=difficulty, critical_fraction=critical_fraction,
        )
    if pattern == "replay":
        return flash_crowd_trace(
            rate_hz, duration_s, seed,
            difficulty=difficulty, critical_fraction=critical_fraction,
        )
    raise ValueError(f"unknown load pattern {pattern!r}; expected one of {LOAD_PATTERNS}")
