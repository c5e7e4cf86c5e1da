"""The documented public surface must match ``repro.__all__`` exactly.

README.md carries the canonical export list between ``<!-- public-api -->``
markers; an export added to ``repro/__init__.py`` without a doc update (or
documented but never exported) fails here — the check CI relies on to keep
the API surface deliberate.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

README = Path(__file__).resolve().parent.parent / "README.md"
_MARKER = re.compile(r"<!-- public-api -->(.*?)<!-- /public-api -->",
                     re.DOTALL)


def documented_names() -> set[str]:
    text = README.read_text(encoding="utf-8")
    match = _MARKER.search(text)
    assert match, "README.md lost its <!-- public-api --> section"
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", match.group(1)))


def test_all_matches_documented_surface():
    documented = documented_names()
    exported = set(repro.__all__)
    undocumented = exported - documented
    stale = documented - exported
    assert not undocumented, (
        "exports missing from README's public-api section: "
        f"{sorted(undocumented)}")
    assert not stale, (
        f"README documents names repro no longer exports: {sorted(stale)}")


def test_every_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, (
            f"repro.__all__ lists {name!r} but the attribute is missing")


def test_all_is_sorted_and_unique():
    assert len(set(repro.__all__)) == len(repro.__all__)
    assert repro.__all__ == sorted(repro.__all__), \
        "keep repro.__all__ sorted so diffs stay reviewable"


def test_one_way_in_surface_is_pinned():
    """`Session` is the only stateful entry point and its knobs are
    counted: growing either signature is a deliberate, reviewed change."""
    import dataclasses
    import inspect as pyinspect
    params = list(pyinspect.signature(repro.Session.__init__).parameters)
    assert params[1:] == ["store_path", "db", "db_path",
                          "extractor", "config", "scheduler"]
    fields = [f.name for f in dataclasses.fields(repro.InspectConfig)]
    assert len(fields) == 10
    assert not {"store", "prefetch", "sweep_gate"} & set(fields)
    assert len(repro.__all__) == 20


def test_bench_and_example_imports_resolve():
    """Every ``repro`` name a benchmark or example imports must exist.

    CI runs only a few of these files, so a deletion under ``src/`` that
    breaks one of the others would otherwise go unnoticed.  The files are
    parsed, not run: each ``from repro… import name`` must resolve to an
    attribute or a submodule of the named module.
    """
    import ast
    import importlib

    root = README.parent
    files = sorted([*(root / "benchmarks").rglob("*.py"),
                    *(root / "examples").rglob("*.py")])
    checked, missing = 0, []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                pairs = [(alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "repro"]
            elif (isinstance(node, ast.ImportFrom) and not node.level
                  and (node.module or "").split(".")[0] == "repro"):
                pairs = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module_name, name in pairs:
                checked += 1
                where = f"{path.relative_to(root)}:{node.lineno}"
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    missing.append(f"{where} {module_name}")
                    continue
                if name is None or hasattr(module, name):
                    continue
                try:
                    importlib.import_module(f"{module_name}.{name}")
                except ImportError:
                    missing.append(f"{where} {module_name}.{name}")
    assert checked > 0
    assert not missing, f"unresolved repro imports: {missing}"
