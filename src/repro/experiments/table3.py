"""Table III: DyNN comparison on the TX2 Pascal GPU.

Paper rows (CIFAR-100):

=================  =========  =======  ============  ========  ============
model              base acc   EEx acc  base Ergy mJ  EEx Ergy  EEx+DVFS Ergy
=================  =========  =======  ============  ========  ============
AttentiveNAS a0    86.33      89.95    173.78        119.83    116.14
AttentiveNAS a6    88.23      93.02    335.48        256.80    218.34
HADAS b1           87.34      93.16    212.44        119.84    93.78
HADAS b2           88.06      91.83    341.30        187.92    126.06
HADAS b3           86.54      88.31    205.48        130.20    86.84
HADAS b4           88.40      89.24    358.01        232.77    201.01
=================  =========  =======  ============  ========  ============

Headline: b1 is 57 % / 19 % more energy-efficient (EEx+DVFS) than a6 / a0
while matching a6's accuracy.  We regenerate the same six rows: the two
baselines with their optimized-baseline exits, and HADAS's four best
distinct-backbone DyNNs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.config import BackboneConfig
from repro.exits.placement import ExitPlacement
from repro.experiments.config import Profile
from repro.experiments.runner import PlatformExperiment, run_platform_experiment
from repro.hardware.dvfs import DvfsSetting
from repro.search.hadas import HadasSearch
from repro.utils.tables import format_table

#: Published values for side-by-side rendering.
PAPER_ROWS = {
    "AttentiveNAS-a0": (86.33, 89.95, 173.78, 119.83, 116.14),
    "AttentiveNAS-a6": (88.23, 93.02, 335.48, 256.80, 218.34),
    "HADAS-b1": (87.34, 93.16, 212.44, 119.84, 93.78),
    "HADAS-b2": (88.06, 91.83, 341.30, 187.92, 126.06),
    "HADAS-b3": (86.54, 88.31, 205.48, 130.20, 86.84),
    "HADAS-b4": (88.40, 89.24, 358.01, 232.77, 201.01),
}


@dataclass(frozen=True)
class DynnRow:
    """One comparison row (accuracy in %, energy in mJ)."""

    name: str
    baseline_acc: float
    eex_acc: float
    baseline_energy_mj: float
    eex_energy_mj: float
    eex_dvfs_energy_mj: float


@dataclass
class Table3Result:
    """All regenerated rows plus the experiment handle.

    ``grids`` holds each model's exhaustive core × EMC sweep (the artifact
    the EEx+DVFS column is read from), keyed by row name.
    """

    rows: list[DynnRow]
    experiment: PlatformExperiment
    grids: dict = field(default_factory=dict)

    def row(self, name: str) -> DynnRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def headline_gains(self) -> tuple[float, float]:
        """(vs a6, vs a0) EEx+DVFS energy gains of the best HADAS model."""
        b1 = self.row("HADAS-b1")
        a6 = self.row("AttentiveNAS-a6")
        a0 = self.row("AttentiveNAS-a0")
        return (
            1.0 - b1.eex_dvfs_energy_mj / a6.eex_dvfs_energy_mj,
            1.0 - b1.eex_dvfs_energy_mj / a0.eex_dvfs_energy_mj,
        )


def _model_row(
    search: HadasSearch,
    name: str,
    config: BackboneConfig,
    placement: ExitPlacement,
    searched_setting: DvfsSetting,
) -> tuple[DynnRow, "DvfsGridArtifact"]:
    """Evaluate one (backbone, exits) pair at the three paper stages.

    The EEx+DVFS column re-optimises the operating point for the chosen
    placement over the *exhaustive* core × EMC grid, computed as a
    first-class :class:`~repro.experiments.dvfs_grid.DvfsGridArtifact`
    (one population-kernel call over every grid setting).  The searched and
    default settings are still compared explicitly — a deployment never
    keeps a setting worse than default — but both lie on the grid, so the
    minimum is bit-identical to the old per-candidate loop.
    """
    from repro.experiments.dvfs_grid import compute_grid

    static = search.static_evaluator.evaluate(config)
    evaluator = search.make_inner_engine(config).evaluator
    default = search.static_evaluator.default_setting
    eex = evaluator.evaluate(placement, default)
    grid = compute_grid(
        evaluator, search.static_evaluator.dvfs_space, [placement]
    )
    eex_dvfs_energy = min(
        evaluator.evaluate(placement, searched_setting).dynamic_energy_j,
        eex.dynamic_energy_j,
        grid.min_energy_j(),
    )
    row = DynnRow(
        name=name,
        baseline_acc=static.accuracy,
        eex_acc=eex.dynamic_accuracy * 100.0,
        baseline_energy_mj=static.energy_j * 1e3,
        eex_energy_mj=eex.dynamic_energy_j * 1e3,
        eex_dvfs_energy_mj=eex_dvfs_energy * 1e3,
    )
    return row, grid


def run(profile: Profile | None = None, platform: str = "tx2-gpu") -> Table3Result:
    """Regenerate Table III.

    The rows are costed by one :class:`HadasSearch` built from the run's
    config (the experiment keeps no live search), closed afterwards.
    """
    experiment = run_platform_experiment(platform, profile)
    search = HadasSearch(experiment.hadas.config)
    try:
        rows, grids = _rows(experiment, search)
    finally:
        search.close()
    return Table3Result(rows=rows, experiment=experiment, grids=grids)


def _rows(
    experiment: PlatformExperiment, search: HadasSearch
) -> tuple[list[DynnRow], dict]:
    """The six rows and their DVFS grids, each costed by ``search``."""
    rows: list[DynnRow] = []
    grids: dict = {}

    from repro.baselines.attentivenas import attentivenas_model

    for name in ("a0", "a6"):
        inner = experiment.baseline_inner[name]
        best = _utopia_pick(
            [member.payload["evaluation"] for member in inner.pareto]
        )
        row, grid = _model_row(
            search,
            f"AttentiveNAS-{name}",
            attentivenas_model(name),
            best.placement,
            best.setting,
        )
        rows.append(row)
        grids[row.name] = grid

    # HADAS b1: the paper's showcase — accuracy on par with the most
    # accurate baseline (a6) at the lowest dynamic energy.  b2..b4: the
    # utopia-ranked alternatives on other backbones.
    a6_row = rows[1]
    members = experiment.hadas.dynn_pareto()
    eligible = [
        m
        for m in members
        if m.payload["evaluation"].dynamic_accuracy * 100.0 >= a6_row.eex_acc
    ]
    pool = eligible or members
    b1 = min(pool, key=lambda m: m.payload["evaluation"].dynamic_energy_j)
    picked = [b1]
    seen = {b1.payload["config"].key}
    for member in experiment.hadas.top_models(8):
        key = member.payload["config"].key
        if key in seen:
            continue
        seen.add(key)
        picked.append(member)
        if len(picked) == 4:
            break
    for rank, member in enumerate(picked, start=1):
        evaluation = member.payload["evaluation"]
        row, grid = _model_row(
            search,
            f"HADAS-b{rank}",
            member.payload["config"],
            evaluation.placement,
            evaluation.setting,
        )
        rows.append(row)
        grids[row.name] = grid
    return rows, grids


def _utopia_pick(evaluations):
    """Evaluation closest to the utopia point of (dyn acc, abs dyn energy)."""
    import numpy as np

    accs = np.asarray([e.dynamic_accuracy for e in evaluations])
    energies = np.asarray([e.dynamic_energy_j for e in evaluations])
    acc_span = max(accs.max() - accs.min(), 1e-9)
    erg_span = max(energies.max() - energies.min(), 1e-9)
    distance = ((accs.max() - accs) / acc_span) ** 2 + (
        (energies - energies.min()) / erg_span
    ) ** 2
    return evaluations[int(np.argmin(distance))]


def render(result: Table3Result) -> str:
    """Paper-style table with published values alongside."""
    headers = [
        "Model", "Base Acc(%)", "EEx Acc(%)", "Base Ergy(mJ)",
        "EEx Ergy(mJ)", "EExDVFS Ergy(mJ)", "paper EExDVFS",
    ]
    body = []
    for row in result.rows:
        paper = PAPER_ROWS.get(row.name)
        body.append(
            [
                row.name,
                row.baseline_acc,
                row.eex_acc,
                row.baseline_energy_mj,
                row.eex_energy_mj,
                row.eex_dvfs_energy_mj,
                paper[4] if paper else "-",
            ]
        )
    table = format_table(headers, body, title="Table III - DyNNs comparison (TX2 Pascal GPU)")
    try:
        gain_a6, gain_a0 = result.headline_gains()
        table += (
            f"\nHeadline: best HADAS model is {gain_a6 * 100:.0f}% / {gain_a0 * 100:.0f}% "
            "more energy-efficient than a6 / a0 (paper: 57% / 19%)"
        )
    except KeyError:
        pass
    return table
