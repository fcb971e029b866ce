"""Deployment scenarios: thermal caps and battery budgets.

A :class:`Scenario` describes the *environment* a serving run executes in.
``nominal`` is unconstrained; ``thermal-cap`` adds a first-order thermal
model (temperature relaxes toward ambient + P·R with a time constant) and a
junction cap the governor must respect — sustained high-power configs
overshoot it and get throttled; ``battery-budget`` gives the run a finite
energy allowance relative to how the static baseline would spend, forcing
the governor to ration.

Thermal resistance is expressed *relative to the config ladder* (the cap is
reachable by the hottest config but not the coolest), so scenarios transfer
across platforms with very different absolute wattage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_positive

#: Scenario names accepted by :func:`get_scenario` (CLI/bench vocabulary).
SCENARIO_NAMES = ("nominal", "thermal-cap", "battery-budget")


@dataclass(frozen=True)
class ThermalParams:
    """First-order thermal model: dT/dt = ((ambient + P·R) − T) / τ.

    ``overshoot_fraction`` positions the hottest ladder config's steady
    state *above* the cap: R = (cap − ambient)·(1 + overshoot) / P_max.
    """

    ambient_c: float = 35.0
    cap_c: float = 70.0
    time_constant_s: float = 5.0
    soft_margin_c: float = 8.0
    overshoot_fraction: float = 0.35

    def __post_init__(self):
        check_positive("time_constant_s", self.time_constant_s)
        if self.cap_c <= self.ambient_c:
            raise ValueError("thermal cap must exceed ambient temperature")

    def resistance_c_per_w(self, max_power_w: float) -> float:
        """Thermal resistance making the hottest config overshoot the cap."""
        check_positive("max_power_w", max_power_w)
        return (self.cap_c - self.ambient_c) * (1.0 + self.overshoot_fraction) / max_power_w

    def sustainable_power_w(self, max_power_w: float) -> float:
        """Power whose steady-state temperature sits exactly at the cap."""
        return (self.cap_c - self.ambient_c) / self.resistance_c_per_w(max_power_w)


class ThermalState:
    """Integrates the first-order thermal model over a serving run."""

    def __init__(self, params: ThermalParams, max_power_w: float):
        self.params = params
        self.resistance = params.resistance_c_per_w(max_power_w)
        self.temperature_c = params.ambient_c
        self.peak_c = params.ambient_c

    def advance(self, power_w: float, dt_s: float) -> float:
        """Step the temperature under ``power_w`` for ``dt_s`` seconds."""
        if dt_s <= 0:
            return self.temperature_c
        target = self.params.ambient_c + power_w * self.resistance
        decay = 1.0 - math.exp(-dt_s / self.params.time_constant_s)
        self.temperature_c += (target - self.temperature_c) * decay
        self.peak_c = max(self.peak_c, self.temperature_c)
        return self.temperature_c

    @property
    def throttled(self) -> bool:
        """Hard-throttle condition: at or above the cap."""
        return self.temperature_c >= self.params.cap_c

    def power_cap_w(self, max_power_w: float) -> float | None:
        """Soft constraint handed to the governor inside the margin zone."""
        if self.temperature_c >= self.params.cap_c - self.params.soft_margin_c:
            return self.params.sustainable_power_w(max_power_w)
        return None


@dataclass(frozen=True)
class Scenario:
    """One deployment environment for a serving run."""

    name: str
    thermal: ThermalParams | None = None
    battery_scale: float | None = None  # budget / static-baseline total energy

    def __post_init__(self):
        if self.battery_scale is not None:
            check_positive("battery_scale", self.battery_scale)

    def thermal_state(self, max_power_w: float) -> ThermalState | None:
        """A device's thermal state at the start of a run (None: no thermal model)."""
        return ThermalState(self.thermal, max_power_w) if self.thermal is not None else None


SCENARIOS: dict[str, Scenario] = {
    "nominal": Scenario(name="nominal"),
    "thermal-cap": Scenario(name="thermal-cap", thermal=ThermalParams()),
    "battery-budget": Scenario(name="battery-budget", battery_scale=0.85),
}


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name with a helpful failure."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {tuple(SCENARIOS)}"
        )
    return SCENARIOS[name]
