"""The executable specs in ``tests/spec/`` are test code: no module under
``src/repro`` may import them, so the product never runs a reference path."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"


def _spec_imports(source: str) -> list[str]:
    """The ``spec`` / ``spec.*`` modules that ``source`` imports."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name == "spec" or name.startswith("spec.")]


def test_src_never_imports_the_specs():
    assert _spec_imports(
        "import spec\nimport spec.fleet as f\nfrom spec import hardware\n"
        "def g():\n    from spec.evaluation import path_costs\n"
        "from .spec import x\nimport specs\nfrom repro.spec import y\n"
    ) == ["spec", "spec.fleet", "spec", "spec.evaluation"]
    modules = sorted(SOURCE.rglob("*.py"))
    assert SOURCE / "hardware" / "cost_table.py" in modules
    offenders = {
        str(path.relative_to(SOURCE)): found
        for path in modules
        if (found := _spec_imports(path.read_text()))
    }
    assert offenders == {}
