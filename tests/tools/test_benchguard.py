"""Benchmark regression gate (repro.obs.benchguard / `repro bench`)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.benchguard import (
    DEFAULT_TOLERANCE,
    Finding,
    Headline,
    check_artifact,
    check_paths,
    compare_docs,
    default_artifacts,
    format_findings,
    known_schemas,
)
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _msbfs_doc(ecc_speedup=3.0, rows_speedup=3.0):
    return {
        "schema": "bench_msbfs_engine/v1",
        "mode": "smoke",
        "target_speedup": 2.0,
        "rows_target_speedup": 1.5,
        "bit_identical": True,
        "graphs": [
            {
                "name": "powerlaw-4k",
                "speedup_ecc_vs_loop": ecc_speedup,
                "speedup_rows_vs_loop": rows_speedup,
            }
        ],
        "aggregate": {
            "powerlaw_speedup_ecc_vs_loop": ecc_speedup,
            "powerlaw_speedup_rows_vs_loop": rows_speedup,
        },
    }


class TestCheckCommittedArtifacts:
    """The gate must pass on the repository's own scorecards."""

    def test_default_artifacts_discovers_committed_scorecards(self):
        paths = default_artifacts(str(REPO_ROOT))
        names = {Path(p).name for p in paths}
        assert "BENCH_bfs_engine.json" in names
        assert "BENCH_msbfs_engine.json" in names
        assert "BENCH_obs_overhead.json" in names

    def test_committed_artifacts_all_pass(self):
        findings = check_paths(default_artifacts(str(REPO_ROOT)))
        failures = [f for f in findings if f.level == "fail"]
        assert findings and not failures, failures

    def test_cli_check_exits_zero_on_repo(self, capsys):
        assert cli_main(["bench", "check", "--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out


class TestCheckEdgeCases:
    def test_unknown_schema_fails_listing_known(self, tmp_path):
        path = _write(tmp_path, "BENCH_x.json", {"schema": "nope/v9"})
        findings = check_artifact(path)
        assert findings[0].level == "fail"
        assert "nope/v9" in findings[0].message
        for schema in known_schemas():
            assert schema in findings[0].message

    def test_unreadable_artifact_fails(self, tmp_path):
        path = tmp_path / "BENCH_broken.json"
        path.write_text("{not json")
        findings = check_artifact(str(path))
        assert findings[0].level == "fail"
        assert "unreadable" in findings[0].message

    def test_missed_target_fails(self, tmp_path):
        doc = _msbfs_doc(ecc_speedup=1.2)  # below the recorded 2.0 target
        path = _write(tmp_path, "BENCH_msbfs_engine.json", doc)
        findings = check_artifact(path)
        assert any(f.level == "fail" for f in findings)

    def test_obs_overhead_budget_claim(self, tmp_path):
        doc = {
            "schema": "bench_obs_overhead/v1",
            "mode": "smoke",
            "overhead_fraction": 0.09,
            "budget_fraction": 0.03,
        }
        path = _write(tmp_path, "BENCH_obs_overhead.json", doc)
        findings = check_artifact(path)
        assert any(f.level == "fail" for f in findings)


class TestCompare:
    def test_same_document_passes(self, tmp_path):
        path = _write(tmp_path, "fresh.json", _msbfs_doc())
        base = _write(tmp_path, "base.json", _msbfs_doc())
        findings = compare_docs(path, base, tolerance=0.1)
        assert all(f.level == "ok" for f in findings)

    def test_injected_regression_fails(self, tmp_path):
        # Baseline claims 3.0x; the fresh run collapsed to 1.0x — far
        # below the 50% tolerance floor of 1.5x.
        fresh = _write(
            tmp_path, "fresh.json", _msbfs_doc(ecc_speedup=1.0)
        )
        base = _write(tmp_path, "base.json", _msbfs_doc(ecc_speedup=3.0))
        findings = compare_docs(fresh, base, tolerance=DEFAULT_TOLERANCE)
        failed = [f for f in findings if f.level == "fail"]
        assert failed
        assert any("speedup_ecc_vs_loop" in f.message for f in failed)

    def test_within_tolerance_passes(self, tmp_path):
        fresh = _write(
            tmp_path, "fresh.json", _msbfs_doc(ecc_speedup=2.0)
        )
        base = _write(tmp_path, "base.json", _msbfs_doc(ecc_speedup=3.0))
        findings = compare_docs(fresh, base, tolerance=0.5)
        assert all(f.level == "ok" for f in findings)

    def test_schema_mismatch_fails(self, tmp_path):
        fresh = _write(tmp_path, "fresh.json", _msbfs_doc())
        base = _write(
            tmp_path,
            "base.json",
            {"schema": "bench_obs_overhead/v1", "overhead_fraction": 0.01,
             "budget_fraction": 0.03},
        )
        findings = compare_docs(fresh, base, tolerance=0.1)
        assert any(f.level == "fail" for f in findings)

    def test_zero_shared_metrics_fails(self, tmp_path):
        doc_a = _msbfs_doc()
        doc_b = _msbfs_doc()
        doc_b["graphs"][0]["name"] = "other-graph"
        doc_b["aggregate"] = {}
        fresh = _write(tmp_path, "fresh.json", doc_a)
        base = _write(tmp_path, "base.json", doc_b)
        findings = compare_docs(fresh, base, tolerance=0.1)
        assert any(
            f.level == "fail" and "shared" in f.message for f in findings
        )

    def test_tolerance_validation(self, tmp_path):
        fresh = _write(tmp_path, "fresh.json", _msbfs_doc())
        with pytest.raises(ValueError):
            compare_docs(fresh, fresh, tolerance=1.0)
        with pytest.raises(ValueError):
            compare_docs(fresh, fresh, tolerance=-0.1)

    def test_cli_compare_regression_exits_one(self, tmp_path, capsys):
        fresh = _write(
            tmp_path, "fresh.json", _msbfs_doc(ecc_speedup=1.0)
        )
        base = _write(tmp_path, "base.json", _msbfs_doc(ecc_speedup=3.0))
        assert cli_main(["bench", "compare", fresh, base]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestFormatting:
    def _findings(self):
        return [
            Finding("ok", "BENCH_a.json", "all good"),
            Finding("fail", "BENCH_b.json", "regressed"),
        ]

    def test_text_format(self):
        text = format_findings(self._findings(), "text")
        assert "[  ok] BENCH_a.json: all good" in text
        assert "[FAIL] BENCH_b.json: regressed" in text
        assert "2 finding(s), 1 failure(s)" in text

    def test_github_format_annotations(self):
        text = format_findings(self._findings(), "github")
        assert "::notice title=benchguard BENCH_a.json::all good" in text
        assert "::error title=benchguard BENCH_b.json::regressed" in text
