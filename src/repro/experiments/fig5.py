"""Fig. 5: OOE static Paretos (top) and IOE dynamic Paretos (bottom).

Top row — static (accuracy, energy) of every backbone the OOE explored,
against the a0..a6 baselines, one panel per platform.  Paper anchors on the
AGX Volta GPU: a backbone dominates a6 with ~33 % less energy at the same
accuracy, and another dominates a1 with +2.34 % accuracy at the same energy.

Bottom row — dynamic (energy gain, mean N_i) of the (b, x, f) combinations
explored by the IOE, HADAS vs the optimized baselines, with the ratio of
dominance annotated (paper: 51.9 / 37.5 / 82.4 / 62.1 % across the four
platforms, mean 58.4 %).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import Profile
from repro.experiments.runner import PlatformExperiment, run_platform_experiments
from repro.hardware.platform import PAPER_PLATFORM_ORDER
from repro.metrics.pareto import pareto_front, pareto_rows
from repro.utils.ascii_plot import scatter

#: Paper's bottom-row RoD annotations, in platform order.
PAPER_ROD = {"agx-gpu": 0.519, "carmel-cpu": 0.375, "tx2-gpu": 0.824, "denver-cpu": 0.621}


@dataclass
class Fig5Panel:
    """One platform's panel pair."""

    platform: str
    experiment: PlatformExperiment

    # ------------------------------------------------------------ top panel
    def static_series(self) -> dict[str, np.ndarray]:
        """Explored backbones, their Pareto front, and the baselines."""
        explored = self.experiment.hadas.outer.static_points()
        front = explored[pareto_rows(_acc_energy_to_max(explored))]
        baselines = np.asarray(
            [
                (ev.accuracy, ev.energy_j)
                for ev in self.experiment.baseline_static.values()
            ]
        )
        return {"explored": explored, "front": front, "baselines": baselines}

    def baseline_domination(self) -> dict[str, dict[str, float]]:
        """Per-baseline: best energy reduction at >= accuracy, best accuracy
        gain at <= energy, over HADAS's explored backbones."""
        explored = self.experiment.hadas.outer.static_points()
        report = {}
        for name, ev in self.experiment.baseline_static.items():
            at_least_as_accurate = explored[explored[:, 0] >= ev.accuracy]
            energy_reduction = (
                1.0 - at_least_as_accurate[:, 1].min() / ev.energy_j
                if len(at_least_as_accurate)
                else float("-inf")
            )
            no_more_energy = explored[explored[:, 1] <= ev.energy_j]
            accuracy_gain = (
                no_more_energy[:, 0].max() - ev.accuracy
                if len(no_more_energy)
                else float("-inf")
            )
            report[name] = {
                "energy_reduction": energy_reduction,
                "accuracy_gain": accuracy_gain,
            }
        return report

    # --------------------------------------------------------- bottom panel
    def dynamic_series(self) -> dict[str, np.ndarray]:
        ours = self.experiment.hadas_dynamic_points()
        theirs = self.experiment.baseline_dynamic_points(pareto_only=False)
        return {
            "Hadas": ours,
            "Optimized baselines": pareto_front(theirs),
            "baseline explored": theirs,
        }

    def rod(self) -> float:
        """RoD of HADAS over the optimized baselines on this platform."""
        return self.experiment.dominance().rod_a_over_b


@dataclass
class Fig5Result:
    """All four platform panels."""

    panels: dict[str, Fig5Panel]

    def mean_rod(self) -> float:
        """Across-platform mean RoD (paper: 58.4 %)."""
        return float(np.mean([panel.rod() for panel in self.panels.values()]))


def _acc_energy_to_max(points: np.ndarray) -> np.ndarray:
    """(acc, energy) -> maximisation convention (acc, -energy)."""
    flipped = points.copy()
    flipped[:, 1] = -flipped[:, 1]
    return flipped


def run(
    profile: Profile | None = None,
    platforms: tuple[str, ...] = PAPER_PLATFORM_ORDER,
) -> Fig5Result:
    """Regenerate both rows of Fig. 5.

    All platforms are submitted as one sharded batch: a multi-worker
    profile runs them concurrently (one process shard each) with results
    bit-identical to the serial loop.
    """
    experiments = run_platform_experiments(platforms, profile)
    panels = {
        platform: Fig5Panel(platform, experiments[platform]) for platform in platforms
    }
    return Fig5Result(panels=panels)


def render(result: Fig5Result) -> str:
    """ASCII panels with the paper's RoD values alongside."""
    blocks = []
    for platform, panel in result.panels.items():
        static = panel.static_series()
        top = scatter(
            {
                "explored": [tuple(p) for p in static["explored"]],
                "baselines": [tuple(p) for p in static["baselines"]],
                "front": [tuple(p) for p in static["front"]],
            },
            title=f"Fig.5 top - {platform}: static accuracy vs energy",
            xlabel="accuracy %",
            ylabel="energy J",
            width=60,
            height=12,
        )
        dynamic = panel.dynamic_series()
        bottom = scatter(
            {
                "baseline explored": [tuple(p) for p in dynamic["baseline explored"]],
                "Optimized baselines": [tuple(p) for p in dynamic["Optimized baselines"]],
                "Hadas": [tuple(p) for p in dynamic["Hadas"]],
            },
            title=f"Fig.5 bottom - {platform}: energy gain vs mean N_i",
            xlabel="energy gain",
            ylabel="mean N_i",
            width=60,
            height=12,
        )
        rod = panel.rod()
        paper_rod = PAPER_ROD.get(platform)
        note = f"RoD(HADAS over baselines) = {rod * 100:.1f}%"
        if paper_rod is not None:
            note += f" (paper: {paper_rod * 100:.1f}%)"
        blocks.extend([top, bottom, note])
    blocks.append(
        f"mean RoD across platforms = {result.mean_rod() * 100:.1f}% (paper: 58.4%)"
    )
    return "\n\n".join(blocks)
