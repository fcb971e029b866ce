"""``repro cache`` — inspect and maintain the persistent result cache.

Subcommands::

    repro cache stats --cache-dir .cache/engine [--namespace serving]
    repro cache clear --cache-dir .cache/engine [--namespace serving]
    repro cache prune --cache-dir .cache/engine [--keep-version 1] [--orphans]
                      [--namespace inner]

Every entry is one row of the ``cache.sqlite3`` database in the cache
directory.  ``stats`` reports entry and payload-byte totals with
per-namespace and per-version breakdowns; ``prune`` removes entries written
under superseded cache versions (unreachable since the version is folded
into every digest), and with ``--orphans`` also the ``<digest>.json``/
``.pkl`` files an older file-per-entry release left in the directory, which
are never read; ``clear`` deletes every entry and those files.
``--namespace`` scopes any action to one namespace (``static``, ``inner``,
``spec``, ``serving``, ``fleet``) so a single grid can be dropped or audited
without touching warm entries of the others.  Entries that older releases
wrote under ``oracle`` are never read any more; ``clear --namespace
oracle`` removes them.  Removed entries free pages that later puts reuse;
the database file does not shrink.
"""

from __future__ import annotations

import argparse

from repro.engine.cache import ENGINE_CACHE_VERSION, ResultCache


def _format_bytes(num: int) -> str:
    size = float(num)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{int(size)} B"  # pragma: no cover - unreachable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("action", choices=["stats", "clear", "prune"])
    parser.add_argument(
        "--cache-dir", required=True, help="persistent evaluation-result cache directory"
    )
    parser.add_argument(
        "--namespace",
        default=None,
        help="restrict the action to one namespace (static, inner, spec, "
        "serving, fleet)",
    )
    parser.add_argument(
        "--keep-version",
        default=None,
        help=f"prune: version to keep (default: current, {ENGINE_CACHE_VERSION!r})",
    )
    parser.add_argument(
        "--orphans",
        action="store_true",
        help="prune: also remove entry files of the older file-per-entry store "
        "(ignored with --namespace, which cannot attribute them)",
    )
    args = parser.parse_args(argv)

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.disk_stats()
        namespaces = stats["namespaces"]
        if args.namespace is not None:
            row = namespaces.get(args.namespace, {"entries": 0, "bytes": 0})
            print(f"cache {stats['directory']} (namespace {args.namespace})")
            print(
                f"  {row['entries']} entries, {_format_bytes(row['bytes'])} "
                f"(of {stats['entries']} total)"
            )
            return 0
        print(f"cache {stats['directory']}")
        print(
            f"  {stats['entries']} entries, {_format_bytes(stats['bytes'])}"
            + (f" ({stats['unindexed']} unindexed)" if stats["unindexed"] else "")
        )
        for namespace, row in sorted(namespaces.items()):
            print(
                f"  namespace {namespace:>10s}: {row['entries']} entries, "
                f"{_format_bytes(row['bytes'])}"
            )
        for version, count in sorted(stats["versions"].items()):
            marker = " (current)" if version == str(cache.version) else ""
            print(f"  version {version:>12s}: {count} entries{marker}")
        session = cache.session_stats()
        if session:
            print("recorded sessions (hit/miss/put over all runs, all processes):")
            for namespace, row in sorted(session.items()):
                total = row.hits + row.misses
                rate = f"{row.hits / total:.1%}" if total else "n/a"
                print(
                    f"  namespace {namespace:>10s}: {row.hits} hits / "
                    f"{row.misses} misses ({rate}), {row.puts} puts"
                )
        return 0
    if args.action == "clear":
        removed = cache.clear(namespace=args.namespace)
        scope = f" (namespace {args.namespace})" if args.namespace else ""
        print(f"removed {removed} entries from {cache.directory}{scope}")
        return 0
    removed = cache.prune(
        keep_version=args.keep_version,
        orphans=args.orphans,
        namespace=args.namespace,
    )
    keep = args.keep_version if args.keep_version is not None else cache.version
    scope = f", namespace {args.namespace}" if args.namespace else ""
    print(
        f"pruned {removed} entries (kept version {keep!r}{scope}) in {cache.directory}"
    )
    return 0
