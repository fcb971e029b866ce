"""The sub-second share of the golden digests: every serving and fleet cell,
every ``repro serve`` command line and every fast-profile paper artifact's
printed output in ``tests/golden/digests.json`` (``benchmarks/golden.py``;
the perfbench entries take about half a minute and run in the CI job
``golden``)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_serving_and_fleet_digests_unchanged():
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "golden.py"), "--check",
         "--only", "serving/", "--only", "fleet/", "--only", "cli/"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "33 golden digests unchanged" in result.stdout
