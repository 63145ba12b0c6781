"""Benchmark regression gate over the committed ``BENCH_*.json`` pile.

Every perf PR in this repo leaves a machine-readable artifact at the
repo root — ``BENCH_bfs_engine.json``, ``BENCH_parallel_backend.json``,
``BENCH_msbfs_engine.json``, ``BENCH_graph_store.json``,
``BENCH_obs_overhead.json`` — each with a ``schema`` tag and the
headline speedups its prose in EXPERIMENTS.md cites.  Until now nothing
*watched* those files; this module turns them into an enforced
invariant, in two modes:

``check``
    A static gate: parse every artifact, reject unknown schemas, and
    re-verify each artifact's own recorded claims (bit-identity flags,
    target-speedup aggregates, the tracing-overhead budget).  Fully
    deterministic — CI-safe on any host, because it reruns nothing.
``compare``
    A regression diff: extract the headline metrics from a *fresh*
    ``--smoke`` artifact and a recorded baseline of the same schema,
    intersect them by name, and fail when a fresh speedup falls below
    ``baseline * (1 - tolerance)`` (overhead-style lower-is-better
    metrics gate in the opposite direction).  Metrics present on only
    one side are reported, not silently dropped.

Exposed as ``repro bench check|compare`` on the CLI (``python -m
repro.cli bench`` from a checkout) and as these functions for CI
scripting.  ``--format github``
emits workflow-command annotations so failures land on the PR diff.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "Headline",
    "check_artifact",
    "check_paths",
    "compare_docs",
    "default_artifacts",
    "extractor_for",
    "format_findings",
    "known_schemas",
]

#: Default tolerance for ``compare``: smoke-scale timings are noisy, so
#: a fresh headline may undershoot its baseline by up to this fraction
#: before the gate calls it a regression.
DEFAULT_TOLERANCE = 0.5


@dataclass(frozen=True)
class Headline:
    """One comparable headline metric extracted from an artifact."""

    metric: str
    value: float
    higher_is_better: bool = True


@dataclass(frozen=True)
class Finding:
    """One gate verdict: ``level`` is ``"ok"`` or ``"fail"``."""

    level: str
    artifact: str
    message: str

    @property
    def failed(self) -> bool:
        return self.level == "fail"


def _claim(artifact: str, ok: bool, message: str) -> Finding:
    return Finding("ok" if ok else "fail", artifact, message)


Extractor = Callable[[str, Dict[str, Any]], Tuple[List[Headline], List[Finding]]]


def _extract_bfs_engine(
    artifact: str, doc: Dict[str, Any]
) -> Tuple[List[Headline], List[Finding]]:
    headlines = [
        Headline(
            f"{g['name']}:speedup_hybrid_vs_seed",
            float(g["speedup_hybrid_vs_seed"]),
        )
        for g in doc.get("graphs", [])
        if "speedup_hybrid_vs_seed" in g
    ]
    findings: List[Finding] = []
    target = float(doc.get("target_speedup", 0.0))
    speedup = doc.get("aggregate", {}).get("powerlaw_speedup_hybrid_vs_seed")
    if speedup is not None and target > 0:
        findings.append(
            _claim(
                artifact,
                float(speedup) >= target,
                f"hybrid engine {float(speedup):.2f}x vs seed on the "
                f"power-law graph (target {target:g}x)",
            )
        )
    return headlines, findings


def _extract_parallel_backend(
    artifact: str, doc: Dict[str, Any]
) -> Tuple[List[Headline], List[Finding]]:
    headlines: List[Headline] = []
    findings: List[Finding] = []
    for cfg in doc.get("configs", []):
        if "speedup_vs_hybrid" in cfg:
            headlines.append(
                Headline(
                    f"{cfg['config']}:speedup_vs_hybrid",
                    float(cfg["speedup_vs_hybrid"]),
                )
            )
        findings.append(
            _claim(
                artifact,
                bool(cfg.get("bit_identical", False)),
                f"config {cfg.get('config')!r} bit-identical to the "
                f"in-process engine",
            )
        )
    best = doc.get("best_speedup_vs_hybrid")
    if best is not None:
        headlines.append(Headline("best_speedup_vs_hybrid", float(best)))
    findings.append(
        _claim(
            artifact,
            bool(doc.get("bit_identical", False)),
            "parallel shootout bit-identical overall",
        )
    )
    return headlines, findings


def _extract_msbfs_engine(
    artifact: str, doc: Dict[str, Any]
) -> Tuple[List[Headline], List[Finding]]:
    headlines: List[Headline] = []
    for g in doc.get("graphs", []):
        for key in ("speedup_ecc_vs_loop", "speedup_rows_vs_loop"):
            if key in g:
                headlines.append(
                    Headline(f"{g['name']}:{key}", float(g[key]))
                )
    findings = [
        _claim(
            artifact,
            bool(doc.get("bit_identical", False)),
            "lane engine bit-identical to the looped hybrid",
        )
    ]
    aggregate = doc.get("aggregate", {})
    for agg_key, target_key, label in (
        ("powerlaw_speedup_ecc_vs_loop", "target_speedup", "ecc batch"),
        (
            "powerlaw_speedup_rows_vs_loop",
            "rows_target_speedup",
            "distance rows",
        ),
    ):
        speedup = aggregate.get(agg_key)
        target = float(doc.get(target_key, 0.0))
        if speedup is not None and target > 0:
            findings.append(
                _claim(
                    artifact,
                    float(speedup) >= target,
                    f"lane {label} {float(speedup):.2f}x vs loop on the "
                    f"power-law graph (target {target:g}x)",
                )
            )
    return headlines, findings


def _extract_graph_store(
    artifact: str, doc: Dict[str, Any]
) -> Tuple[List[Headline], List[Finding]]:
    headlines = [
        Headline(
            f"{d['name']}:speedup_store_vs_parse",
            float(d["speedup_store_vs_parse"]),
        )
        for d in doc.get("datasets", [])
        if "speedup_store_vs_parse" in d
    ]
    target = float(doc.get("target_speedup", 0.0))
    findings = [
        _claim(
            artifact,
            bool(doc.get("aggregate", {}).get("claim_met", False)),
            f"store open >= {target:g}x faster than parse on every "
            f"dataset (recorded claim_met)",
        )
    ]
    return headlines, findings


def _extract_obs_overhead(
    artifact: str, doc: Dict[str, Any]
) -> Tuple[List[Headline], List[Finding]]:
    overhead = float(doc.get("overhead_fraction", 0.0))
    budget = float(doc.get("budget_fraction", 0.0))
    headlines = [
        Headline("overhead_fraction", overhead, higher_is_better=False)
    ]
    findings = [
        _claim(
            artifact,
            overhead <= budget,
            f"tracing overhead {overhead:+.2%} within the "
            f"{budget:.0%} budget",
        )
    ]
    return headlines, findings


#: Schema tag -> headline/claim extractor.  reprolint R10: read-only
#: registry, accessed only through ``extractor_for``/``known_schemas``.
SCHEMAS: Dict[str, Extractor] = {
    "bench_bfs_engine/v1": _extract_bfs_engine,
    "bench_parallel_backend/v1": _extract_parallel_backend,
    "bench_msbfs_engine/v1": _extract_msbfs_engine,
    "bench_graph_store/v1": _extract_graph_store,
    "bench_obs_overhead/v1": _extract_obs_overhead,
}


def known_schemas() -> Tuple[str, ...]:
    """Every schema tag the gate can parse, sorted."""
    return tuple(sorted(SCHEMAS))


def extractor_for(schema: Optional[str]) -> Optional[Extractor]:
    """The extractor registered for ``schema``, or ``None``."""
    if schema is None:
        return None
    return SCHEMAS.get(schema)


# ---------------------------------------------------------------- check
def _load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("artifact root is not a JSON object")
    return doc


def check_artifact(path: str) -> List[Finding]:
    """Parse one artifact and re-verify its recorded claims."""
    artifact = os.path.basename(path)
    try:
        doc = _load(path)
    except (OSError, ValueError) as exc:
        return [Finding("fail", artifact, f"unreadable artifact: {exc}")]
    schema = doc.get("schema")
    extractor = extractor_for(schema)
    if extractor is None:
        return [
            Finding(
                "fail",
                artifact,
                f"unknown schema {schema!r} (known: "
                f"{', '.join(known_schemas())})",
            )
        ]
    headlines, findings = extractor(artifact, doc)
    mode = doc.get("mode", "?")
    return [
        Finding(
            "ok",
            artifact,
            f"schema {schema} (mode={mode}): "
            f"{len(headlines)} headline metric(s)",
        )
    ] + findings


def default_artifacts(root: str = ".") -> List[str]:
    """Every ``BENCH_*.json`` at ``root``, sorted by name."""
    return sorted(glob.glob(os.path.join(root, "BENCH_*.json")))


def check_paths(paths: Sequence[str]) -> List[Finding]:
    """:func:`check_artifact` over ``paths`` (order preserved)."""
    findings: List[Finding] = []
    for path in paths:
        findings.extend(check_artifact(path))
    return findings


# -------------------------------------------------------------- compare
def _headlines_of(path: str) -> Tuple[str, Dict[str, Headline]]:
    doc = _load(path)
    schema = doc.get("schema")
    extractor = extractor_for(schema)
    if extractor is None:
        raise ValueError(f"{path}: unknown schema {schema!r}")
    headlines, _findings = extractor(os.path.basename(path), doc)
    return str(schema), {h.metric: h for h in headlines}


def compare_docs(
    fresh_path: str,
    baseline_path: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Finding]:
    """Gate ``fresh_path``'s headlines against ``baseline_path``'s.

    Only metrics present on *both* sides gate (smoke and full runs
    cover different graph ladders); one-sided metrics are listed in an
    ``ok`` finding so coverage gaps stay visible.
    """
    artifact = os.path.basename(fresh_path)
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    try:
        fresh_schema, fresh = _headlines_of(fresh_path)
        base_schema, base = _headlines_of(baseline_path)
    except (OSError, ValueError) as exc:
        return [Finding("fail", artifact, f"cannot compare: {exc}")]
    if fresh_schema != base_schema:
        return [
            Finding(
                "fail",
                artifact,
                f"schema mismatch: fresh {fresh_schema!r} vs baseline "
                f"{base_schema!r}",
            )
        ]
    shared = sorted(set(fresh) & set(base))
    skipped = sorted(set(fresh) ^ set(base))
    findings: List[Finding] = [
        Finding(
            "ok",
            artifact,
            f"comparing {len(shared)} shared headline metric(s) at "
            f"tolerance {tolerance:g}"
            + (f"; one-sided (not gated): {', '.join(skipped)}"
               if skipped else ""),
        )
    ]
    if not shared:
        findings.append(
            Finding(
                "fail",
                artifact,
                "no shared headline metrics between fresh run and "
                "baseline — nothing was gated",
            )
        )
        return findings
    for metric in shared:
        fresh_value = fresh[metric].value
        base_value = base[metric].value
        if fresh[metric].higher_is_better:
            floor = base_value * (1.0 - tolerance)
            ok = fresh_value >= floor
            bound = f"floor {floor:.2f}"
        else:
            ceiling = base_value * (1.0 + tolerance)
            ok = fresh_value <= ceiling
            bound = f"ceiling {ceiling:.2f}"
        findings.append(
            _claim(
                artifact,
                ok,
                f"{metric}: fresh {fresh_value:.2f} vs baseline "
                f"{base_value:.2f} ({bound})",
            )
        )
    return findings


# ------------------------------------------------------------ reporting
def format_findings(findings: Sequence[Finding], fmt: str = "text") -> str:
    """Render findings as plain text or GitHub workflow annotations."""
    if fmt not in ("text", "github"):
        raise ValueError(f"unknown format {fmt!r}")
    lines: List[str] = []
    for finding in findings:
        if fmt == "github":
            if finding.failed:
                lines.append(
                    f"::error title=benchguard {finding.artifact}::"
                    f"{finding.message}"
                )
            else:
                lines.append(
                    f"::notice title=benchguard {finding.artifact}::"
                    f"{finding.message}"
                )
        else:
            mark = "FAIL" if finding.failed else "ok"
            lines.append(f"[{mark:>4}] {finding.artifact}: {finding.message}")
    failed = sum(1 for f in findings if f.failed)
    if fmt == "text":
        lines.append(
            f"benchguard: {len(findings)} finding(s), {failed} failure(s)"
        )
    return "\n".join(lines)


def run_check(
    paths: Sequence[str], root: str = ".", fmt: str = "text"
) -> int:
    """``check`` driver: returns the process exit code."""
    targets = list(paths) if paths else default_artifacts(root)
    if not targets:
        print(f"benchguard: no BENCH_*.json artifacts under {root!r}")
        return 1
    findings = check_paths(targets)
    print(format_findings(findings, fmt))
    return 1 if any(f.failed for f in findings) else 0


def run_compare(
    fresh: str,
    baseline: str,
    tolerance: float = DEFAULT_TOLERANCE,
    fmt: str = "text",
) -> int:
    """``compare`` driver: returns the process exit code."""
    findings = compare_docs(fresh, baseline, tolerance=tolerance)
    print(format_findings(findings, fmt))
    return 1 if any(f.failed for f in findings) else 0
