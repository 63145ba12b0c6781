"""Correctness oracle and operation tally for the end-to-end benchmark.

Every operation the benchmark times (one graph solve or one CLI command)
must reproduce the exact eccentricity distribution (ED) recorded in
``expected_ed.json``.  The record was derived once from
``naive_eccentricities`` -- one traversal per vertex, a path independent
of IFECC's bound algebra -- by ``record_expected.py``.

A digest holds the ED histogram, the radius, the diameter and a SHA-256
of the per-vertex eccentricity array, so a wrong value at any single
vertex fails the check even when the histogram happens to match.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

EXPECTED_PATH = Path(__file__).with_name("expected_ed.json")

Digest = Dict[str, Any]


def ed_digest(ecc: Any) -> Digest:
    """The comparable fingerprint of one eccentricity array."""
    arr = np.ascontiguousarray(np.asarray(ecc), dtype="<i4")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a non-empty 1-D array, got {arr.shape}")
    values, counts = np.unique(arr, return_counts=True)
    return {
        "n": int(arr.size),
        "radius": int(values[0]),
        "diameter": int(values[-1]),
        "histogram": {str(int(v)): int(c) for v, c in zip(values, counts)},
        "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
    }


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Digest]:
    """The recorded digests, keyed by dataset name."""
    with open(path) as fh:
        return json.load(fh)["digests"]


class Tally:
    """Counts operations attempted and failed, checking each one's ED.

    An operation fails when it raises, when it yields an ED whose digest
    differs from the recorded one, or when decoding its output raises
    (a CLI command exiting non-zero raises in its operation).  Failures
    are reported on stderr and never abort the run.
    """

    def __init__(self, expected: Dict[str, Digest]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def attempt(
        self,
        name: str,
        op: Callable[[], Any],
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Tuple[float, bool]:
        """Run ``op`` once, timing only ``op``; check the ED of its result.

        ``decode`` turns the operation's result into the eccentricity
        array outside the timed region (for example, reading a CLI
        command's output file).  Returns ``(seconds, ok)``.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op()
            seconds = time.perf_counter() - start
            ecc = decode(result) if decode is not None else result
            ok = ed_digest(ecc) == self.expected[name]
            reason = "ED digest differs from the recorded one"
        except Exception as exc:  # any failure of the program counts
            seconds = time.perf_counter() - start
            ok = False
            reason = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            message = f"{name}: {reason}"
            self.failures.append(message)
            print(f"FAILED {message}", file=sys.stderr)
        return seconds, ok
