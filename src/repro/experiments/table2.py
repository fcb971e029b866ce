"""Table II: the joint search spaces and their cardinalities.

All numbers are *derived from the live space objects*, not hard-coded:
backbone decision variables and their value sets, the exit-space bounds for
a reference backbone, and the DVFS grids of the four platforms.  The paper
quotes "more than 2.94e11" backbones; our Table-II-faithful space encodes
~4.4e11 (the bench asserts the bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.space import BackboneSpace
from repro.baselines.attentivenas import attentivenas_model
from repro.engine.cache import ResultCache
from repro.engine.service import EvaluationService
from repro.engine.tasks import spec_task, task_spec
from repro.exits.placement import MIN_EXIT_POSITION, ExitSpace
from repro.hardware.platform import PAPER_PLATFORM_ORDER, get_platform
from repro.utils.tables import format_table

#: The paper's lower bound on the backbone-space size.
PAPER_BACKBONE_CARDINALITY = 2.94e11


@dataclass
class Table2Result:
    """Derived search-space rows (plus optional exhaustive-grid artifacts)."""

    backbone_rows: list[list] = field(default_factory=list)
    exit_rows: list[list] = field(default_factory=list)
    dvfs_rows: list[list] = field(default_factory=list)
    backbone_cardinality: int = 0
    #: Per-platform exhaustive core × EMC sweep summaries (``dvfs_grid=True``).
    grid_rows: list[list] = field(default_factory=list)
    #: The underlying artifacts, keyed by platform (``dvfs_grid=True``).
    grids: dict = field(default_factory=dict)


def platform_dvfs_rows(platform_key: str) -> list[list]:
    """One platform's Table II DVFS rows (the ``table2-dvfs`` task body)."""
    platform = get_platform(platform_key)
    core = platform.core_freqs_ghz
    emc = platform.emc_freqs_ghz
    unit = "GPU" if platform.kind == "gpu" else "CPU"
    return [
        [
            f"{unit} frequency ({platform.name})",
            f"[{core[0]:.1f}GHz, {core[-1]:.1f}GHz]",
            len(core),
        ],
        [
            f"EMC frequency ({platform.name})",
            f"[{emc[0]:.1f}GHz, {emc[-1]:.1f}GHz]",
            len(emc),
        ],
    ]


def reference_placement(total_layers: int) -> "ExitPlacement":
    """Canonical probe placement: four exits at layer-range quartiles.

    Deterministic and backbone-conditioned — the DyNN every platform's
    exhaustive grid evaluates, so grid summaries are comparable across
    platforms.
    """
    from repro.exits.placement import ExitPlacement

    lo, hi = MIN_EXIT_POSITION, total_layers - 1
    positions = sorted({lo + round(q * (hi - lo) / 4) for q in range(1, 4)} | {lo})
    return ExitPlacement(total_layers, tuple(positions))


def run(
    space: BackboneSpace | None = None,
    workers: int = 1,
    executor: str = "auto",
    cache_dir: str | None = None,
    dvfs_grid: bool = False,
) -> Table2Result:
    """Derive every Table II row from the space definitions.

    The per-platform DVFS rows are derived as one codec-backed batch; with
    ``workers > 1`` they shard across the service like every other
    multi-platform sweep (identical rows either way).  ``cache_dir``
    persists each platform's rows under its spec fingerprint (the
    ``table2-dvfs`` kind has no richer domain key), so repeat derivations
    are cache reads.

    ``dvfs_grid=True`` additionally sweeps every platform's *entire*
    core × EMC grid for the canonical reference DyNN (a6 +
    :func:`reference_placement`), inline through
    :func:`~repro.experiments.dvfs_grid.compute_grid` — one population call
    per platform, on the evaluator table3 would build for a6 — and records
    per-platform summaries in ``grid_rows`` plus the full
    :class:`~repro.experiments.dvfs_grid.DvfsGridArtifact` objects in
    ``grids``.  ``cache_dir`` warm-starts the evaluators' static costs and
    oracle columns.
    """
    space = space or BackboneSpace()
    result = Table2Result(backbone_cardinality=space.cardinality())

    widths = space.distinct_widths()
    depths = space.depth_values()
    kernels = sorted({k for s in space.stages for k in s.kernels})
    expands = sorted({e for s in space.stages for e in s.expands})
    result.backbone_rows = [
        ["Number of blocks (nblock)", str(len(space.stages)), 1],
        ["Input resolution (res)", str(set(space.resolutions)), len(space.resolutions)],
        ["Block depth (l)", str(set(depths)), len(depths)],
        ["Block width (w)", f"[{min(widths)}, {max(widths)}]", len(widths)],
        ["Block kernel size (k)", str(set(kernels)), len(kernels)],
        ["Block expand ratio (er)", str(set(expands)), len(expands)],
    ]

    # Exit space conditioned on a reference backbone (a6: deepest baseline).
    reference = attentivenas_model("a6")
    exit_space = ExitSpace(reference.total_mbconv_layers)
    total = reference.total_mbconv_layers
    result.exit_rows = [
        [
            "Number of exits (nX)",
            f"[1, {exit_space.max_exits}]",
            exit_space.max_exits,
        ],
        [
            "Exit positions (posX)",
            f"[{MIN_EXIT_POSITION}, {total})",
            exit_space.cardinality(),
        ],
    ]

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    with EvaluationService(executor=executor, workers=workers, cache=cache) as service:
        per_platform = service.evaluate_batch(
            [
                spec_task(task_spec("table2-dvfs", platform=key), cache=cache)
                for key in PAPER_PLATFORM_ORDER
            ]
        )
    for rows in per_platform:
        result.dvfs_rows.extend(rows)
    if dvfs_grid:
        from repro.experiments.dvfs_grid import compute_grid
        from repro.search.hadas import HadasConfig, HadasSearch

        placement = reference_placement(reference.total_mbconv_layers)
        for key in PAPER_PLATFORM_ORDER:
            search = HadasSearch(HadasConfig(platform=key, cache_dir=cache_dir))
            try:
                grid = compute_grid(
                    search.make_inner_engine(reference).evaluator,
                    search.static_evaluator.dvfs_space,
                    [placement],
                )
            finally:
                search.close()
            result.grids[key] = grid
            best = grid.best_energy_setting()
            default_mj = grid.dynamic_energy_j[0, -1, -1] * 1e3
            result.grid_rows.append(
                [
                    get_platform(key).name,
                    grid.num_settings,
                    f"{grid.min_energy_j() * 1e3:.2f}",
                    f"{default_mj:.2f}",
                    str(best),
                ]
            )
    return result


def render(result: Table2Result) -> str:
    headers = ["Decision variables", "Values", "Cardinality"]
    blocks = [
        format_table(headers, result.backbone_rows,
                     title="Table II - Backbone Search Space (B)"),
        format_table(headers, result.exit_rows,
                     title="Exits Search Space (X), conditioned on a6"),
        format_table(headers, result.dvfs_rows, title="DVFS Search Space (F)"),
    ]
    if result.grid_rows:
        blocks.append(
            format_table(
                ["Platform", "|grid|", "min Ergy(mJ)", "default Ergy(mJ)", "best setting"],
                result.grid_rows,
                title="Exhaustive DVFS grids (reference DyNN on a6)",
            )
        )
    blocks += [
        (
            f"backbone cardinality = {result.backbone_cardinality:.3e} "
            f"(paper: > {PAPER_BACKBONE_CARDINALITY:.2e})"
        ),
    ]
    return "\n\n".join(blocks)
