"""Tests of the benchmark's own checker.

Run from the repository root::

    python3 -m pytest perfbench/test_checker.py -q

A corrupted ED, a CLI command exiting non-zero and a raised exception
must each count as a failed operation, never as a passed one.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checker import Tally, ed_digest, load_expected  # noqa: E402
from workloads import CommandFailed, cold_command  # noqa: E402

ECC = np.array([3, 2, 2, 3, 4], dtype=np.int32)


@pytest.fixture
def tally() -> Tally:
    return Tally({"G": ed_digest(ECC)})


def test_matching_ed_passes(tally: Tally) -> None:
    _seconds, ok = tally.attempt("G", lambda: ECC.astype(np.int64))
    assert ok
    assert (tally.attempted, tally.failed) == (1, 0)


def test_corrupted_ed_fails_even_with_equal_histogram(tally: Tally) -> None:
    swapped = ECC.copy()
    swapped[[0, 1]] = swapped[[1, 0]]  # same histogram, radius, diameter
    _seconds, ok = tally.attempt("G", lambda: swapped)
    assert not ok
    assert (tally.attempted, tally.failed) == (1, 1)


def test_wrong_value_fails(tally: Tally) -> None:
    _seconds, ok = tally.attempt("G", lambda: ECC + 1)
    assert not ok and tally.failed == 1


def test_raised_exception_fails(tally: Tally) -> None:
    def boom() -> np.ndarray:
        raise RuntimeError("solver crashed")

    _seconds, ok = tally.attempt("G", boom)
    assert not ok
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "solver crashed" in tally.failures[0]


def test_failing_decode_fails(tally: Tally) -> None:
    _seconds, ok = tally.attempt("G", lambda: None, lambda _: np.array([]))
    assert not ok and tally.failed == 1


def test_nonzero_cli_exit_fails(tally: Tally, tmp_path: Path) -> None:
    argv = [sys.executable, "-c",
            "import sys; print('bad input', file=sys.stderr); sys.exit(3)"]
    log = tmp_path / "err.log"
    with pytest.raises(CommandFailed, match="exit code 3: bad input"):
        cold_command(argv, {}, log)
    _seconds, ok = tally.attempt(
        "G", lambda: cold_command(argv, {}, log), lambda _: ECC
    )
    assert not ok
    assert (tally.attempted, tally.failed) == (1, 1)


def test_zero_cli_exit_reports_child_rss(tmp_path: Path) -> None:
    rss_kb = cold_command([sys.executable, "-c", "pass"], {},
                          tmp_path / "err.log")
    assert rss_kb > 0


def test_recorded_digests_cover_all_stand_ins() -> None:
    from repro.datasets.registry import dataset_names

    expected = load_expected()
    assert sorted(expected) == sorted(dataset_names("all"))
    for digest in expected.values():
        assert digest["radius"] <= digest["diameter"] <= 2 * digest["radius"]
        assert sum(digest["histogram"].values()) == digest["n"]
