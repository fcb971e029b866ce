"""Command-line entry point: paper artifacts, online serving, cache admin.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro table3 --profile fast --platform tx2-gpu
    python -m repro fig5 --platforms tx2-gpu agx-gpu
    python -m repro fig5 --workers 4 --cache-dir .cache/engine
    python -m repro all --profile fast
    python -m repro search --budget tiny --out design.json
    python -m repro serve --trace diurnal --slo-ms 20
    python -m repro serve --from-result design.json --fleet tx2,xavier
    python -m repro cache stats --cache-dir .cache/engine
    python -m repro fig5 --trace fig5.jsonl
    python -m repro trace summary fig5.jsonl

Artifacts print the paper-style rows/series (the same renderers the
benchmark suite uses); ``search`` runs the bi-level HADAS search and
exports the selected design (``repro search --help``); ``serve`` runs the
online serving simulator — single device or a heterogeneous fleet
(``repro serve --help``); ``cache`` administers the persistent result
cache (``repro cache --help``).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import fig1, fig5, fig6, fig7, table1, table2, table3
from repro.experiments.config import Profile
from repro.hardware.platform import PAPER_PLATFORM_ORDER, validate_platform_keys

_ARTIFACTS = ("table1", "table2", "fig1", "fig5", "fig6", "fig7", "table3")


def _profile(name: str, seed: int) -> Profile:
    if name == "fast":
        return Profile.fast(seed)
    if name == "paper":
        return Profile.paper(seed)
    raise SystemExit(f"unknown profile {name!r}; expected fast or paper")


def _engine_profile(args: "argparse.Namespace") -> Profile:
    if args.workers is not None and args.workers <= 0:
        raise SystemExit(f"--workers must be > 0, got {args.workers}")
    profile = _profile(args.profile, args.seed)
    return profile.with_engine(
        workers=args.workers, executor=args.executor, cache_dir=args.cache_dir
    )


def _run_artifact(
    name: str,
    profile: Profile,
    platform: str,
    platforms: tuple[str, ...],
    dvfs_grid: bool = False,
) -> str:
    if name == "table1":
        return table1.render(table1.run())
    if name == "table2":
        return table2.render(
            table2.run(
                workers=profile.workers,
                executor=profile.executor,
                cache_dir=profile.cache_dir,
                dvfs_grid=dvfs_grid,
            )
        )
    if name == "fig1":
        return fig1.render(fig1.run(profile, platform))
    if name == "fig5":
        return fig5.render(fig5.run(profile, platforms))
    if name == "fig6":
        return fig6.render(fig6.run(profile, platforms))
    if name == "fig7":
        return fig7.render(fig7.run(profile, platform))
    if name == "table3":
        return table3.render(table3.run(profile, platform))
    raise SystemExit(f"unknown artifact {name!r}; see `python -m repro list`")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Subcommands with their own parsers; everything else is an artifact.
    if argv and argv[0] == "serve":
        from repro.serving.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "search":
        from repro.search.cli import main as search_main

        return search_main(argv[1:])
    if argv and argv[0] == "cache":
        from repro.engine.cli import main as cache_main

        return cache_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.obs.cli import main as trace_main

        return trace_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "artifact",
        help="one of: list, all, " + ", ".join(_ARTIFACTS) + ", search, serve, cache",
    )
    parser.add_argument("--profile", default="fast", help="fast (default) or paper")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--platform", default="tx2-gpu",
                        help="platform for single-platform artifacts")
    parser.add_argument("--platforms", nargs="+", default=list(PAPER_PLATFORM_ORDER),
                        help="platforms for fig5/fig6")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel evaluation workers (default: serial)")
    parser.add_argument("--executor", default=None,
                        choices=["auto", "serial", "thread", "process"],
                        help="evaluation executor (default: auto)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent evaluation-result cache directory")
    parser.add_argument("--dvfs-grid", action="store_true",
                        help="table2: sweep the exhaustive core x EMC grid per "
                             "platform (one population call per platform)")
    parser.add_argument("--trace", default=None, metavar="OUT.jsonl",
                        help="record a trace of the run (spans/counters from "
                             "all workers) plus a run manifest; inspect with "
                             "`python -m repro trace summary OUT.jsonl`")
    args = parser.parse_args(argv)

    if args.artifact == "list":
        print("available artifacts:", ", ".join(_ARTIFACTS), "or 'all'")
        print("other subcommands: search (bi-level search), serve (online serving), "
              "cache (cache admin), trace (trace inspection)")
        return 0

    try:
        validate_platform_keys([args.platform, *args.platforms])
    except ValueError as error:
        raise SystemExit(str(error)) from None
    profile = _engine_profile(args)
    names = list(_ARTIFACTS) if args.artifact == "all" else [args.artifact]
    from repro.obs.cli import traced_run

    with traced_run(
        args.trace,
        command="repro " + " ".join(argv),
        config=profile,
        seed=args.seed,
        platforms=args.platforms,
    ):
        for name in names:
            start = time.time()
            output = _run_artifact(
                name, profile, args.platform, tuple(args.platforms),
                dvfs_grid=args.dvfs_grid,
            )
            print(f"\n===== {name} ({time.time() - start:.1f}s) =====")
            print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
