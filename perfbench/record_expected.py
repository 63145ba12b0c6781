"""Regenerate ``expected_ed.json``, the benchmark's correctness oracle.

Run from the repository root::

    python3 perfbench/record_expected.py

Materialises all 20 Table-3 stand-ins into a scratch store, derives each
exact ED with ``naive_eccentricities`` (one traversal per vertex, no
bounds), checks that IFECC (r = 1) reproduces it on every graph, and
writes the digests.  Re-record only when the stand-in generators change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from checker import EXPECTED_PATH, ed_digest  # noqa: E402
from repro.baselines.naive import naive_eccentricities  # noqa: E402
from repro.core.ifecc import IFECC  # noqa: E402
from repro.datasets.collection import GraphCollection  # noqa: E402
from repro.datasets.registry import dataset_names  # noqa: E402

WORK_DIR = Path(".perfbench_work") / "record"


def main() -> int:
    collection = GraphCollection(WORK_DIR)
    digests = {}
    try:
        for name in dataset_names("all"):
            graph = collection.open(name)
            naive = naive_eccentricities(graph).eccentricities
            ifecc = IFECC(graph).run().eccentricities
            if ed_digest(ifecc) != ed_digest(naive):
                print(f"{name}: IFECC disagrees with naive", file=sys.stderr)
                return 1
            digests[name] = ed_digest(naive)
            print(f"{name}: n={graph.num_vertices} "
                  f"radius={digests[name]['radius']} "
                  f"diameter={digests[name]['diameter']}", flush=True)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    payload = {
        "derived_from": "naive_eccentricities (numpy backend), "
                        "checked against IFECC r=1",
        "digests": digests,
    }
    EXPECTED_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
