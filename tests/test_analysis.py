"""Tests for the repro.analysis checker framework.

Each checker has a good/bad fixture pair under ``analysis_fixtures/``;
bad fixtures mark every line that must be flagged with a trailing
``# expect[REPnnn]`` comment, so the assertions stay line-number-agnostic
under fixture edits.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (analyze_paths, apply_baseline, checker_classes,
                            load_baseline, write_baseline)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
CHECKER_IDS = [cls.id for cls in checker_classes()]

_EXPECT_RE = re.compile(r"#\s*expect\[(REP\d+)\]")


def expected_findings(path: Path) -> list[tuple[int, str]]:
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for match in _EXPECT_RE.finditer(line):
            out.append((lineno, match.group(1)))
    return sorted(out)


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd or REPO_ROOT, env=env, capture_output=True, text=True)


class TestRegistry:
    def test_all_ten_checkers_registered(self):
        assert CHECKER_IDS == [f"REP{i:03d}" for i in range(1, 11)]

    def test_documented_tables_list_exactly_the_registry(self):
        """The README's "Correctness tooling" table and the package
        docstring's are hand-kept: a checker added to one place only
        fails here, not in a reader's head."""
        import repro.analysis
        readme = (REPO_ROOT / "README.md").read_text()
        section = readme.split("## Correctness tooling")[1].split("\n## ")[0]
        assert re.findall(r"^\| `(REP\d+)` \|", section, re.M) == CHECKER_IDS
        assert re.findall(r"^(REP\d+) +(\S+)", repro.analysis.__doc__,
                          re.M) == [(cls.id, cls.name)
                                    for cls in checker_classes()]

    def test_unknown_select_rejected(self):
        with pytest.raises(ValueError, match="REP999"):
            analyze_paths([FIXTURES / "rep001_good.py"], select=["REP999"])


class TestFixtures:
    @pytest.mark.parametrize("checker_id", CHECKER_IDS)
    def test_bad_fixture_flagged_at_marked_lines(self, checker_id):
        bad = FIXTURES / f"{checker_id.lower()}_bad.py"
        findings = analyze_paths([bad])
        got = sorted((f.line, f.checker) for f in findings)
        expected = expected_findings(bad)
        assert expected, f"{bad} has no # expect markers"
        assert got == expected

    @pytest.mark.parametrize("checker_id", CHECKER_IDS)
    def test_good_fixture_clean(self, checker_id):
        good = FIXTURES / f"{checker_id.lower()}_good.py"
        assert analyze_paths([good]) == []

    def test_fixture_dir_excluded_from_directory_walks(self):
        findings = analyze_paths([FIXTURES.parent / "analysis_fixtures"])
        assert findings == []


class TestSuppression:
    def test_allow_comment_suppresses_on_its_line(self, tmp_path):
        src = ("def cache_key(obj):\n"
               "    return f'{id(obj):x}'  # repro: allow[REP003]\n")
        path = tmp_path / "allowed.py"
        path.write_text(src)
        assert analyze_paths([path]) == []

    def test_allow_comment_is_per_checker(self, tmp_path):
        src = ("def cache_key(obj):\n"
               "    return f'{id(obj):x}'  # repro: allow[REP001]\n")
        path = tmp_path / "not_allowed.py"
        path.write_text(src)
        findings = analyze_paths([path])
        assert [f.checker for f in findings] == ["REP003"]

    def test_scoped_checker_needs_opt_in(self, tmp_path):
        body = ("import os\n"
                "\n"
                "def publish(path):\n"
                "    os.replace(path + '.tmp', path)\n")
        unscoped = tmp_path / "helper.py"
        unscoped.write_text(body)
        assert analyze_paths([unscoped]) == []
        scoped = tmp_path / "scoped.py"
        scoped.write_text("# analysis-scope: store\n" + body)
        assert [f.checker for f in analyze_paths([scoped])] == ["REP001"]

    def test_unparsable_file_reports_rep000(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        findings = analyze_paths([path])
        assert [f.checker for f in findings] == ["REP000"]


class TestBaseline:
    def test_roundtrip_absorbs_exactly_counted_findings(self, tmp_path):
        bad = FIXTURES / "rep005_bad.py"
        findings = analyze_paths([bad])
        assert len(findings) == 2
        baseline_path = tmp_path / "baseline.json"
        write_baseline(findings, baseline_path)
        fresh, absorbed = apply_baseline(findings,
                                         load_baseline(baseline_path))
        assert fresh == [] and absorbed == 2

    def test_second_occurrence_not_grandfathered(self, tmp_path):
        findings = analyze_paths([FIXTURES / "rep005_bad.py"])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(findings[:1], baseline_path)
        fresh, absorbed = apply_baseline(findings,
                                         load_baseline(baseline_path))
        assert absorbed == 1
        assert len(fresh) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)

    def test_matching_ignores_line_numbers(self, tmp_path):
        bad = FIXTURES / "rep005_bad.py"
        baseline_path = tmp_path / "baseline.json"
        write_baseline(analyze_paths([bad]), baseline_path)
        # the same defects, shifted down the file, still match
        shifted = tmp_path / (bad.name)
        shifted.write_text("\n\n\n" + bad.read_text())
        reanalyzed = analyze_paths([shifted])
        baseline = load_baseline(baseline_path)
        # re-key to the shifted copy's path: only (path, checker, message)
        # identify an entry, so line movement alone cannot resurface it
        rekeyed = {(str(shifted), checker, message): count
                   for (_, checker, message), count in baseline.items()}
        fresh, absorbed = apply_baseline(reanalyzed, rekeyed)
        assert fresh == [] and absorbed == 2


class TestCli:
    def test_clean_run_exits_zero(self):
        proc = run_cli(str(FIXTURES / "rep001_good.py"), "--no-baseline")
        assert proc.returncode == 0
        assert "clean" in proc.stdout

    def test_findings_exit_one(self):
        proc = run_cli(str(FIXTURES / "rep001_bad.py"), "--no-baseline")
        assert proc.returncode == 1
        assert "REP001" in proc.stdout

    def test_bad_path_exits_two(self):
        proc = run_cli("no/such/path.txt")
        assert proc.returncode == 2

    def test_unknown_checker_exits_two(self):
        proc = run_cli(str(FIXTURES / "rep001_good.py"),
                       "--select", "REP999")
        assert proc.returncode == 2

    def test_json_report(self, tmp_path):
        report = tmp_path / "report.json"
        proc = run_cli(str(FIXTURES / "rep003_bad.py"), "--no-baseline",
                       "--json", str(report))
        assert proc.returncode == 1
        payload = json.loads(report.read_text())
        assert payload["files_analyzed"] == 1
        assert {f["checker"] for f in payload["findings"]} == {"REP003"}
        assert all(f["line"] and f["hint"] for f in payload["findings"])

    def test_write_then_use_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        bad = str(FIXTURES / "rep004_bad.py")
        assert run_cli(bad, "--write-baseline", "--baseline",
                       str(baseline)).returncode == 0
        proc = run_cli(bad, "--baseline", str(baseline))
        assert proc.returncode == 0
        assert "grandfathered" in proc.stdout

    def test_list_checkers(self):
        proc = run_cli("--list")
        assert proc.returncode == 0
        for checker_id in CHECKER_IDS:
            assert checker_id in proc.stdout


class TestSelfRun:
    def test_src_has_zero_non_baselined_findings(self):
        findings = analyze_paths([REPO_ROOT / "src" / "repro"])
        baseline = load_baseline(REPO_ROOT / "analysis-baseline.json")
        fresh, _ = apply_baseline(findings, baseline)
        assert fresh == [], "\n".join(f.format() for f in fresh)

    def test_committed_baseline_only_grandfathers_rep009_allocs(self):
        # the only reviewed findings are pre-kernel dtype-less allocations
        # (parameter inits and conv backward scratch); anything else is new
        baseline = load_baseline(REPO_ROOT / "analysis-baseline.json")
        assert all(key[1] == "REP009" for key in baseline)

    def test_removing_an_fsync_guard_fails(self, tmp_path):
        # the one publish site both durable stores commit through
        segment = REPO_ROOT / "src" / "repro" / "store" / "segment.py"
        mutated_dir = tmp_path / "store"
        mutated_dir.mkdir()
        source = segment.read_text()
        assert source.count("os.fsync(f.fileno())") == 1
        mutated = mutated_dir / "segment.py"
        mutated.write_text(
            source.replace("os.fsync(f.fileno())", "pass"))
        findings = analyze_paths([mutated])
        assert any(f.checker == "REP001" for f in findings)
