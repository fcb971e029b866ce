"""Runtime configuration ladder and the adaptive serving governor.

A :class:`RuntimeConfig` is one deployable dynamic configuration — entropy
thresholds at a target exit rate (via :func:`repro.runtime.controller.
tune_thresholds`) plus a DVFS assignment (a single operating point, or the
per-exit table planned by :func:`repro.runtime.planner.plan_per_exit_dvfs`)
— annotated with its expected per-request latency / energy / power under the
calibration stream's exit-usage mix.

:func:`plan_config_ladder` enumerates the grid of exit rates × DVFS tiers
("perf" = max clocks, "balanced" = the planner's best single setting, "eco"
= the planner's per-exit table) — the menu the runtime can switch between.

Two policies consume the ladder:

* :class:`StaticPolicy` — one fixed config for the whole run, chosen by
  :func:`static_config_for` to be the cheapest config that sustains the
  trace's *mean* arrival rate (how a static deployment is provisioned);
* :class:`AdaptiveGovernor` — per decision window, observes arrival rate,
  backlog and the scenario's power/energy caps, and picks the cheapest
  config whose service capacity covers current demand, escalating to the
  highest-capacity config when overloaded (load shedding via early exits
  and clocks, EdgeBERT/Predictive-Exit style).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.eval.dynamic import DynamicEvaluator
from repro.exits.placement import ExitPlacement
from repro.hardware.dvfs import DvfsSetting, DvfsSpace
from repro.hardware.energy import PathProfile
from repro.runtime.controller import EntropyThresholdController, tune_thresholds
from repro.runtime.governor import DvfsGovernor
from repro.runtime.planner import plan_per_exit_dvfs
from repro.serving.batcher import BatchPolicy
from repro.serving.stream import ServingStream

#: Exit-rate rungs of the default ladder (per-exit take rates).
DEFAULT_EXIT_RATES = (0.15, 0.35, 0.55, 0.8)


@dataclass(frozen=True)
class RuntimeConfig:
    """One deployable (thresholds, DVFS) configuration with expectations."""

    name: str
    exit_rate: float
    thresholds: tuple[float, ...]
    setting: DvfsSetting
    per_exit: tuple[tuple[int, DvfsSetting], ...] | None
    expected_usage: tuple[float, ...]  # per exit, last = full network
    expected_accuracy: float  # calibration-stream accuracy under the thresholds
    expected_busy_s: float  # usage-weighted roofline time per request
    expected_latency_s: float  # batch-of-one latency per request
    expected_energy_j: float  # batch-of-one energy per request
    path_overheads_s: tuple[float, ...]  # dispatch overhead per path
    path_latencies_s: tuple[float, ...]  # stand-alone latency per path

    @property
    def expected_power_w(self) -> float:
        if self.expected_latency_s <= 0:
            return 0.0
        return self.expected_energy_j / self.expected_latency_s

    def controller(self) -> EntropyThresholdController:
        return EntropyThresholdController(
            np.asarray(self.thresholds), num_exits=len(self.thresholds)
        )

    def dvfs_governor(self) -> DvfsGovernor:
        per_exit = dict(self.per_exit) if self.per_exit is not None else None
        return DvfsGovernor(self.setting, per_exit=per_exit)

    def expected_shared_overhead_s(self, batch_size: int) -> float:
        """Expected dispatch overhead paid once by a batch of ``batch_size``.

        The batch pays the overhead of its deepest path; under independent
        exit draws, P(deepest = k) follows from the usage CDF.  Pure in
        ``(self, batch_size)`` and called per governor decision, so the
        result is memoized on the instance (frozen dataclass, hence the
        ``object.__setattr__`` for the lazily created cache dict).
        """
        cache = getattr(self, "_shared_overhead_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_shared_overhead_cache", cache)
        value = cache.get(batch_size)
        if value is None:
            usage = np.asarray(self.expected_usage)
            overheads = np.asarray(self.path_overheads_s)
            cdf = np.cumsum(usage)
            cdf = cdf / max(cdf[-1], 1e-12)
            p_all_leq = cdf**batch_size
            p_max = np.diff(np.concatenate([[0.0], p_all_leq]))
            value = float(p_max @ overheads)
            cache[batch_size] = value
        return value

    def _batch_times(self, max_batch: int) -> tuple[float, ...]:
        """``batch_time(b)`` for b = 1..``max_batch``, memoized.

        ``b * expected_busy_s + expected_shared_overhead_s(b)`` is pure in
        ``(self, b)``; the governor evaluates it for every candidate config
        on every window decision, so precomputing the ladder once turns the
        per-decision cost into float comparisons.
        """
        cache = getattr(self, "_batch_time_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_batch_time_cache", cache)
        times = cache.get(max_batch)
        if times is None:
            times = tuple(
                b * self.expected_busy_s + self.expected_shared_overhead_s(b)
                for b in range(1, max_batch + 1)
            )
            cache[max_batch] = times
        return times

    def capacity_rps(self, batch_policy: BatchPolicy) -> float:
        """Sustainable throughput at full micro-batches (requests/second)."""
        b = batch_policy.max_batch
        batch_time = self._batch_times(b)[b - 1]
        if batch_time <= 0:
            return float("inf")
        return b / batch_time

    def equilibrium_batch(self, demand_rps: float, batch_policy: BatchPolicy) -> int:
        """Smallest batch size whose throughput covers ``demand_rps``.

        Under steady load the backlog grows until batches are big enough to
        keep up — this is the batch size the system settles at (``max_batch``
        when even full batches cannot keep up).
        """
        times = self._batch_times(batch_policy.max_batch)
        for b, batch_time in enumerate(times, start=1):
            if batch_time <= 0 or b / batch_time >= demand_rps:
                return b
        return batch_policy.max_batch

    def expected_sojourn_s(self, demand_rps: float, batch_policy: BatchPolicy) -> float:
        """Per-request latency estimate at the operating point.

        Batch service time at the equilibrium batch size, plus half a batch
        period of queueing/formation wait — the cost that saturation
        capacity alone hides: a config can be stable yet sojourn-miserable.
        """
        b = self.equilibrium_batch(demand_rps, batch_policy)
        return 1.5 * self._batch_times(batch_policy.max_batch)[b - 1]

    def slo_miss_floor(self, slo_s: float, queue_margin: float = 0.7) -> float:
        """Structural deadline-miss fraction: requests routed to paths whose
        *stand-alone* latency already exceeds ``queue_margin``·SLO cannot
        make the deadline once queueing and batch wait are added — no
        capacity fixes that, only a different config.

        Pure in ``(self, slo_s, queue_margin)`` and probed for every
        candidate on every governor decision, so memoized per instance.
        """
        cache = getattr(self, "_miss_floor_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_miss_floor_cache", cache)
        key = (slo_s, queue_margin)
        value = cache.get(key)
        if value is None:
            usage = np.asarray(self.expected_usage)
            latencies = np.asarray(self.path_latencies_s)
            value = float(usage[latencies > slo_s * queue_margin].sum())
            cache[key] = value
        return value


def _profiles_for(
    evaluator: DynamicEvaluator,
    placement: ExitPlacement,
    governor: DvfsGovernor,
) -> list[PathProfile]:
    """Per-path execution profiles under a (possibly per-exit) DVFS map.

    The profiles come straight from the evaluator's
    :class:`~repro.hardware.cost_table.CostTableBank` — ladder construction
    never re-walks layers through the timing kernel (a per-exit map reuses
    one table per distinct setting).
    """
    positions = placement.positions
    return [
        evaluator.bank.table(governor.setting_for(index)).path_profile(positions, index)
        for index in range(len(positions) + 1)
    ]


def _expected_usage(
    logits: np.ndarray, labels: np.ndarray, thresholds: np.ndarray
) -> tuple[np.ndarray, float]:
    """(exit-usage fractions, accuracy) of thresholds on the calibration mix."""
    num_exits = len(logits) - 1
    decisions = EntropyThresholdController(thresholds, num_exits).decide(logits[:-1])
    counts = np.bincount(decisions, minlength=num_exits + 1)
    n = max(len(decisions), 1)
    predicted = logits[decisions, np.arange(len(decisions))].argmax(axis=-1)
    return counts / n, np.count_nonzero(predicted == labels) / n


def build_config(
    name: str,
    exit_rate: float,
    evaluator: DynamicEvaluator,
    placement: ExitPlacement,
    logits: np.ndarray,
    labels: np.ndarray,
    setting: DvfsSetting,
    per_exit: dict[int, DvfsSetting] | None = None,
) -> RuntimeConfig:
    """Materialise one ladder rung and annotate its expectations on the
    calibration stream's ``(num_exits + 1, n, classes)`` logits and labels."""
    thresholds = tune_thresholds(logits[:-1], exit_rate, kind="entropy")
    usage, accuracy = _expected_usage(logits, labels, thresholds)
    governor = DvfsGovernor(setting, per_exit=per_exit)
    profiles = _profiles_for(evaluator, placement, governor)
    busy = float(usage @ np.asarray([p.busy_s for p in profiles]))
    latency = float(usage @ np.asarray([p.latency_s for p in profiles]))
    energy = float(usage @ np.asarray([p.energy_j for p in profiles]))
    return RuntimeConfig(
        name=name,
        exit_rate=float(exit_rate),
        thresholds=tuple(float(t) for t in thresholds),
        setting=setting,
        per_exit=tuple(sorted(per_exit.items())) if per_exit else None,
        expected_usage=tuple(float(u) for u in usage),
        expected_accuracy=float(accuracy),
        expected_busy_s=busy,
        expected_latency_s=latency,
        expected_energy_j=energy,
        path_overheads_s=tuple(p.overhead_s for p in profiles),
        path_latencies_s=tuple(p.latency_s for p in profiles),
    )


def plan_config_ladder(
    evaluator: DynamicEvaluator,
    placement: ExitPlacement,
    dvfs_space: DvfsSpace,
    calibration: ServingStream,
    exit_rates: tuple[float, ...] = DEFAULT_EXIT_RATES,
    latency_slack: float = 1.5,
    eco_slack: float = 3.0,
) -> list[RuntimeConfig]:
    """The runtime's switchable configuration menu.

    Three DVFS tiers per exit rate: maximum clocks ("perf"), the planner's
    energy-best single setting under ``latency_slack`` ("balanced"), and the
    planner's per-exit table under the deeper ``eco_slack`` ("eco") —
    post-exit frequency scaling trading more latency for energy.
    """
    plan = plan_per_exit_dvfs(evaluator, placement, dvfs_space, latency_slack=latency_slack)
    eco_plan = plan_per_exit_dvfs(evaluator, placement, dvfs_space, latency_slack=eco_slack)
    perf = dvfs_space.default_setting()
    # The balanced tier is the plan's setting with the cheapest full path,
    # costed in one population gather; argmin keeps the first minimum.
    candidates = list(plan.settings.values())
    full_energy = evaluator.population.path_costs(
        [placement.positions] * len(candidates), candidates
    ).full_energy_j
    balanced = candidates[int(np.argmin(full_energy))]
    tiers: list[tuple[str, DvfsSetting, dict[int, DvfsSetting] | None]] = [
        ("perf", perf, None),
        ("balanced", balanced, None),
        ("eco", balanced, dict(eco_plan.settings)),
    ]
    logits = calibration.logits()
    ladder = []
    for rate in exit_rates:
        for tier, setting, per_exit in tiers:
            ladder.append(
                build_config(
                    f"x{rate:.2f}-{tier}",
                    rate,
                    evaluator,
                    placement,
                    logits,
                    calibration.labels,
                    setting,
                    per_exit,
                )
            )
    return ladder


@dataclass(frozen=True)
class GovernorObservation:
    """What the runtime can see at a decision point."""

    now_s: float
    window_s: float
    arrival_rate_hz: float  # arrivals/second over the last window
    backlog: int  # requests arrived but not yet dispatched
    slo_s: float
    temperature_c: float = 0.0
    power_cap_w: float | None = None  # thermal constraint, None = unconstrained
    energy_cap_j: float | None = None  # battery allowance per request
    critical_backlog: int = 0  # latency-critical share of ``backlog``


class ServingPolicy:
    """Base: maps an observation to the config for the next window."""

    name = "policy"

    def select(self, obs: GovernorObservation) -> RuntimeConfig:
        raise NotImplementedError


class StaticPolicy(ServingPolicy):
    """The baseline: one fixed configuration, whatever the weather."""

    name = "static"

    def __init__(self, config: RuntimeConfig):
        self.config = config

    def select(self, obs: GovernorObservation) -> RuntimeConfig:
        return self.config


#: Structural-miss fraction a config may carry and still count as SLO-capable.
SLO_MISS_TOLERANCE = 0.05


def _best_sustaining(
    candidates: list[RuntimeConfig],
    capacity_rps: dict[str, float],
    demand_rps: float,
    slo_s: float,
    batch_policy: BatchPolicy,
) -> RuntimeConfig:
    """Quality-first selection under throughput and deadline feasibility.

    1. Among configs that sustain ``demand_rps``, route ≤ 5 % of requests
       onto paths too slow for the SLO, *and* whose expected sojourn at the
       operating point fits the SLO: the most accurate, breaking ties on
       energy.
    2. No SLO-capable sustaining config: the sustaining config with the
       smallest (miss floor, sojourn) — degrade deadlines gracefully.
    3. Nothing sustains the demand: the highest-capacity candidate — shed
       compute to survive the rush.
    """
    sustaining = [c for c in candidates if capacity_rps[c.name] >= demand_rps]
    if sustaining:
        capable = [
            c
            for c in sustaining
            if c.slo_miss_floor(slo_s) <= SLO_MISS_TOLERANCE
            and c.expected_sojourn_s(demand_rps, batch_policy) <= slo_s
        ]
        if capable:
            return max(
                capable, key=lambda c: (c.expected_accuracy, -c.expected_energy_j)
            )
        return min(
            sustaining,
            key=lambda c: (
                c.slo_miss_floor(slo_s),
                c.expected_sojourn_s(demand_rps, batch_policy),
                -c.expected_accuracy,
            ),
        )
    return max(candidates, key=lambda c: capacity_rps[c.name])


class AdaptiveGovernor(ServingPolicy):
    """Per-window config selection under load, thermal and battery state.

    Selection rule (quality-first, EdgeBERT-style): among configs satisfying
    the scenario's power/energy caps, run the *most accurate* one whose
    full-batch capacity covers current demand (recent arrival rate ×
    ``safety`` plus backlog drain), breaking ties on energy; when nothing
    sustains the demand, shed compute with the highest-capacity capped
    config — early exits and clocks absorb the burst.
    """

    name = "adaptive"

    def __init__(
        self,
        ladder: list[RuntimeConfig],
        batch_policy: BatchPolicy,
        safety: float = 1.25,
        rate_smoothing: float = 0.35,
    ):
        if not ladder:
            raise ValueError("adaptive governor needs a non-empty config ladder")
        self.ladder = list(ladder)
        self.batch_policy = batch_policy
        self.safety = safety
        self.rate_smoothing = rate_smoothing
        self._capacity = {c.name: c.capacity_rps(batch_policy) for c in self.ladder}
        self._rate_ewma: float | None = None
        self._demand_tables: dict[float, tuple[list[float], list[RuntimeConfig]]] = {}

    def _allowed(self, obs: GovernorObservation) -> list[RuntimeConfig]:
        allowed = [
            c
            for c in self.ladder
            if (obs.power_cap_w is None or c.expected_power_w <= obs.power_cap_w)
            and (obs.energy_cap_j is None or c.expected_energy_j <= obs.energy_cap_j)
        ]
        if allowed:
            return allowed
        # Nothing satisfies every cap: fall back to the frugal extreme.
        return [min(self.ladder, key=lambda c: c.expected_energy_j)]

    def select(self, obs: GovernorObservation) -> RuntimeConfig:
        # Spikes register immediately (max with the instantaneous rate);
        # dips only lower the estimate through the EWMA, so one quiet window
        # cannot bait the governor into a config the steady load overwhelms.
        if self._rate_ewma is None:
            self._rate_ewma = obs.arrival_rate_hz
        else:
            self._rate_ewma += self.rate_smoothing * (
                obs.arrival_rate_hz - self._rate_ewma
            )
        demand = max(obs.arrival_rate_hz, self._rate_ewma) * self.safety
        if obs.window_s > 0:
            demand += obs.backlog / obs.window_s
            # Latency-critical backlog counts double: it must drain early in
            # the window to leave queueing headroom under the SLO, so the
            # governor provisions as if each critical request were two.
            demand += obs.critical_backlog / obs.window_s
        if obs.power_cap_w is None and obs.energy_cap_j is None:
            # No caps: every ladder config is allowed, and the selection is a
            # piecewise-constant function of demand — one bisect replaces the
            # full feasibility scan (see _demand_table).
            breakpoints, configs = self._demand_table(obs.slo_s)
            return configs[bisect_left(breakpoints, demand)]
        return _best_sustaining(
            self._allowed(obs), self._capacity, demand, obs.slo_s, self.batch_policy
        )

    def _demand_table(self, slo_s: float) -> tuple[list[float], list[RuntimeConfig]]:
        """Uncapped selection as a lookup table over demand intervals.

        With no power/energy caps, ``_best_sustaining`` depends on demand
        only through ``>=`` comparisons against a fixed set of thresholds:
        each config's full-batch capacity (the sustaining test) and each
        ``b / batch_time(b)`` throughput rung (the equilibrium-batch scan
        behind the sojourn estimate).  Between consecutive thresholds every
        comparison is constant, so the selected config is too.  The table
        evaluates the exact ``_best_sustaining`` once per interval — at the
        interval's inclusive right endpoint, since ``thr >= demand`` flips
        as demand crosses *above* a threshold, making intervals
        ``(prev, thr]`` — and ``select`` reduces to one ``bisect_left``.
        Bit-identical to the scan by construction.
        """
        table = self._demand_tables.get(slo_s)
        if table is None:
            inf = float("inf")
            thresholds: set[float] = set()
            for c in self.ladder:
                cap = self._capacity[c.name]
                if cap != inf:
                    thresholds.add(cap)
                for b, bt in enumerate(
                    c._batch_times(self.batch_policy.max_batch), start=1
                ):
                    if bt > 0:
                        rung = b / bt
                        if rung != inf:
                            thresholds.add(rung)
            breakpoints = sorted(thresholds)
            probes = breakpoints + [
                (breakpoints[-1] * 2.0 + 1.0) if breakpoints else 1.0
            ]
            configs = [
                _best_sustaining(
                    self.ladder, self._capacity, demand, slo_s, self.batch_policy
                )
                for demand in probes
            ]
            table = (breakpoints, configs)
            self._demand_tables[slo_s] = table
        return table


def static_config_for(
    ladder: list[RuntimeConfig],
    mean_rate_hz: float,
    slo_s: float,
    batch_policy: BatchPolicy,
    safety: float = 1.25,
) -> RuntimeConfig:
    """Provision a fixed config for the mean arrival rate.

    The same quality-first rule the adaptive governor applies per window,
    evaluated once against the trace mean — a fair static baseline (and
    how a real deployment without runtime adaptation would be sized).
    """
    capacity = {c.name: c.capacity_rps(batch_policy) for c in ladder}
    return _best_sustaining(
        list(ladder), capacity, mean_rate_hz * safety, slo_s, batch_policy
    )
