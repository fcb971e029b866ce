"""One workload run in a fresh process (spawned by ``run.py``).

Modes:

* ``full`` — import, build, the timed call, checks; writes a JSON result;
* ``setup`` — import and build only, then exit (an extra ``setup_s`` sample);
* ``imports`` — import the workload's modules only (run under
  ``python -X importtime`` for the ``import.*`` metrics).

With ``--trace 1`` a ``repro.obs`` recorder and the layer wrappers of
``layers.py`` are installed before the build and removed after the timed
call, so the output checks never show in the split.

``setup_cpu_s`` is the CPU time from interpreter start until the workload
is built and ``cpu_s`` the CPU time of the timed call, pool workers
included; ``wall_s`` and ``stolen_s`` are the timed call's wall time and
the hypervisor's share of it (steal).  ``probe_cpu_s`` holds the CPU
times of a fixed reference computation run right after the build and
right after the timed call, a measure of how fast the host is running
this process at the time.  ``ready_at`` is ``time.monotonic()`` when the
workload is built; the parent reads the same system-wide clock just before
spawning, so the wall-clock set-up time (recorded, not reported) runs from
spawn to ready.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402  (perfbench/ is on sys.path as the script dir)

#: Runs of the reference computation per host-speed probe (median taken).
PROBES = 5


def cpu_s() -> float:
    """CPU seconds (user + system) of this process and its reaped children.

    Time measures use CPU time, not wall time: on a shared virtual host the
    hypervisor can take a large, changing share of wall time (steal), which
    CPU time leaves out.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child (pool workers), MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def reference_cpu_s() -> float:
    """CPU seconds of one fixed computation: interpreter work, then numpy sorts."""
    import numpy as np

    start = time.process_time()
    total, table = 0, {}
    for i in range(150_000):
        total += i * i % 7
        table[i & 1023] = total
    values = np.arange(1 << 17, dtype=np.float64)
    for _ in range(12):
        values = np.sort(values * -1.0)
    return time.process_time() - start


def host_speed_probe() -> float:
    """Median CPU time of :data:`PROBES` runs of :func:`reference_cpu_s`."""
    return statistics.median(reference_cpu_s() for _ in range(PROBES))


def stolen_s() -> float:
    """Wall seconds the hypervisor took from each virtual CPU so far (mean).

    ``/proc/stat`` counts steal summed over all CPUs; dividing by the CPU
    count assumes the steal fell evenly on the CPUs, which is exact when
    every CPU is busy and undercounts a single busy CPU's share.
    """
    try:
        lines = Path("/proc/stat").read_text().splitlines()
    except OSError:
        return 0.0
    cpus = sum(1 for line in lines if line.startswith("cpu") and line[3].isdigit())
    steal_ticks = int(lines[0].split()[8])
    return steal_ticks / os.sysconf("SC_CLK_TCK") / max(cpus, 1)


def manifest(args, outcome, recorder, started_at: float, wall_s: float) -> dict:
    """The run's :class:`repro.obs.manifest.RunManifest`, validated."""
    import numpy
    import scipy

    from repro.obs.export import summarize
    from repro.obs.manifest import (
        RunManifest,
        config_fingerprint,
        git_describe,
        validate_manifest,
    )

    summary = summarize(recorder.export_payload()) if recorder is not None else {}
    record = RunManifest(
        command=f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
        f"--trace {args.trace}" + (" --smoke" if args.smoke else ""),
        config_fingerprint=config_fingerprint(outcome.config),
        seed=args.seed,
        platforms=list(WORKLOADS[args.workload].platforms),
        cache_namespaces=[],
        git_describe=git_describe(),
        python_version=sys.version.split()[0],
        numpy_version=numpy.__version__,
        hostname=None,
        started_at=started_at,
        wall_s=wall_s,
        counters=summary.get("counters", {}),
        spans=summary.get("spans", {}),
    ).to_json()
    validate_manifest(record)
    record["host"] = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "scipy_version": scipy.__version__,
    }
    return record


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run(args) -> dict:
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    if args.mode == "imports":
        workload.import_modules()
        return {}
    started_at = time.time()
    start = time.perf_counter()
    workload.import_modules()
    import_s = time.perf_counter() - start

    clock = recorder = None
    if args.trace:
        from layers import LayerClock

        from repro.obs import trace as obs

        recorder = obs.Recorder()
        obs.install(recorder)
        clock = LayerClock()
        clock.install()
    try:
        start = time.perf_counter()
        workload.build(args.seed, ROOT)
        build_s = time.perf_counter() - start
        ready_at = time.monotonic()
        setup_cpu_s = cpu_s()  # since the interpreter started
        probes = [host_speed_probe()]
        if args.mode == "setup":
            return {
                "ready_at": ready_at, "setup_cpu_s": setup_cpu_s, "probe_cpu_s": probes,
                "import_s": import_s, "build_s": build_s,
            }
        start, cpu_start, steal_start = time.perf_counter(), cpu_s(), stolen_s()
        workload.run()
        wall_s = time.perf_counter() - start
        run_cpu_s = cpu_s() - cpu_start
        run_stolen_s = stolen_s() - steal_start
        probes.append(host_speed_probe())
        rss_mb = peak_rss_mb()
        if clock is not None:
            from layers import layer_metrics

            from repro.obs import trace as obs

            clock.uninstall()
            obs.uninstall()
            layers = layer_metrics(clock, recorder, build_s + wall_s)
        else:
            layers = {}
        outcome = workload.finish()
    finally:
        if clock is not None:
            clock.uninstall()
        workload.close()
    return {
        "ready_at": ready_at,
        "setup_cpu_s": setup_cpu_s,
        "cpu_s": run_cpu_s,
        "import_s": import_s,
        "build_s": build_s,
        "wall_s": wall_s,
        "stolen_s": run_stolen_s,
        "probe_cpu_s": probes,
        "workers": workload.workers,
        "peak_rss_mb": rss_mb,
        "outcome": {
            key: value for key, value in dataclasses.asdict(outcome).items() if key != "config"
        },
        "layers": layers,
        "manifest": manifest(args, outcome, recorder, started_at, wall_s),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("full", "setup", "imports"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None, help="write the JSON result here")
    args = parser.parse_args()
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
