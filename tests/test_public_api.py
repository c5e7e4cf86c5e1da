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
    assert params[1:] == ["store_path", "store", "db", "db_path",
                          "extractor", "config", "scheduler"]
    fields = [f.name for f in dataclasses.fields(repro.InspectConfig)]
    assert len(fields) == 11
    assert not {"store", "prefetch", "sweep_gate"} & set(fields)
    assert len(repro.__all__) == 20
