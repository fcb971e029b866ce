"""Executable specifications: the reference implementations of the kernels.

Each module holds, for one layer of the system, the straightforward loop
that a production kernel in ``src/repro`` must reproduce bit for bit:

* :mod:`spec.hardware` — the per-layer energy accumulation and path
  profiles the cost tables replace;
* :mod:`spec.static` — S(b) one backbone at a time: the ``config.layers()``
  cost walk, one measurement and one surrogate feature vector per backbone;
* :mod:`spec.evaluation` — the per-layer, per-placement dynamic evaluation
  and oracle statistics, the unfused objectives, and the per-setting DVFS
  planner;
* :mod:`spec.pareto` — Deb's pairwise non-dominated sort and mask;
* :mod:`spec.search` — the NSGA-II loop over one ``Individual`` per genome,
  with its per-genome memo and full-population selection;
* :mod:`spec.serving` — the per-request single-device serving loop and
  the numpy batch pricing the compiled executor reproduces;
* :mod:`spec.fleet` — the per-request fleet loop, scalar routing and the
  lane batch rule.

Where a spec only swaps one step of a production class it subclasses that
class and overrides the hook, so everything else is shared.  The identity
tests compare production against these modules, and the two benchmarks
with live speedup ratios build their "before" sides from them.

Production code never imports this package.
"""
