"""Hard failures around the process backend: dead workers, dead publishers.

A SIGKILLed worker must surface as a typed error on the next batch and
leave ``pool_for`` able to start over; a SIGKILLed publisher must leak
no shared-memory segment.  Neither test depends on the host's core
count, and the only timing bounds are generous deadlines.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines.naive import naive_eccentricities
from repro.errors import ParallelBackendError
from repro.graph.generators import barabasi_albert
from repro.parallel.pool import _POLL_SECONDS, pool_for, shutdown_pools
from repro.parallel.shm import shared_memory_available
from repro.store.format import save_store

pytestmark = [
    pytest.mark.skipif(
        not shared_memory_available(),
        reason="multiprocessing.shared_memory unavailable on this platform",
    ),
    pytest.mark.skipif(
        not hasattr(signal, "SIGKILL"), reason="needs POSIX signals"
    ),
]

#: Upper bound on noticing a dead worker and tearing the pool down.
#: Noticing takes one liveness poll (``_POLL_SECONDS``).  Teardown joins
#: each surviving worker for up to 5 s before terminating it, and a
#: survivor stranded on the task-queue lock the dead worker held needs
#: that whole wait.  80 polls (20 s) covers both on a loaded host.
DETECTION_BOUND_S = 80 * _POLL_SECONDS

#: Deadline for the resource tracker to unlink a dead publisher's
#: segment after the publisher is gone.
CLEANUP_DEADLINE_S = 30.0


def _task_reader(processes):
    """The idle worker parked reading the task pipe, when Linux says so.

    Idle workers queue on the task queue's read lock, and exactly one
    of them holds it while blocked in ``read``.  Killing that one is the
    harsher case — it dies holding the lock and strands its sibling —
    so prefer it; without ``/proc`` any worker will do.
    """
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        for proc in processes:
            try:
                with open(f"/proc/{proc.pid}/wchan") as handle:
                    where = handle.read()
            except OSError:
                return processes[0]
            if where in ("", "0"):  # kernel hides wait channels
                return processes[0]
            if "pipe" in where:
                return proc
        time.sleep(0.01)
    return processes[0]


class TestWorkerDeath:
    def test_sigkilled_worker_fails_next_batch_then_pool_restarts(self):
        graph = barabasi_albert(300, 3, seed=31)
        want = naive_eccentricities(graph).eccentricities
        pool = pool_for(graph, workers=2)
        try:
            victim = _task_reader(pool._resources.processes)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert victim.exitcode == -signal.SIGKILL

            started = time.monotonic()
            with pytest.raises(ParallelBackendError, match="died"):
                pool.eccentricities()
            assert time.monotonic() - started < DETECTION_BOUND_S
            assert pool.closed

            fresh = pool_for(graph, workers=2)
            assert fresh is not pool
            got = fresh.eccentricities()
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        finally:
            shutdown_pools()


_PUBLISHER = textwrap.dedent(
    """
    import sys

    from repro.graph.generators import barabasi_albert
    from repro.parallel.shm import publish_graph
    from repro.store.format import open_store

    if len(sys.argv) > 1:
        graph = open_store(sys.argv[1])
    else:
        graph = barabasi_albert(300, 3, seed=5)
    share = publish_graph(graph)
    print(share.spec.segment or "-", share.spec.path or "-", flush=True)
    sys.stdin.read()  # hold the publication until killed
    """
)


def _publish_then_sigkill(tmp_path, *args):
    """Run a publisher subprocess; SIGKILL it once it reports its spec.

    Returns the reported ``(segment, path)``, with ``"-"`` for unset,
    and whether the segment existed just before the kill.
    """
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    with open(tmp_path / "publisher.err", "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-c", _PUBLISHER, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
        )
        try:
            line = proc.stdout.readline().decode()
            segment, path = line.split() if line else ("-", "-")
            existed = segment != "-" and _segment_exists(segment)
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdin.close()
            proc.stdout.close()
    assert proc.returncode == -signal.SIGKILL
    assert line, (tmp_path / "publisher.err").read_text()
    return segment, path, existed


def _segment_exists(name):
    from multiprocessing import resource_tracker, shared_memory

    try:
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    # Attaching registered the name with this process's tracker
    # (bpo-38119); take it back so the probe itself owns nothing.
    resource_tracker.unregister(probe._name, "shared_memory")
    return True


class TestCrashCleanup:
    def test_sigkilled_publisher_leaks_no_segment(self, tmp_path):
        segment, path, existed = _publish_then_sigkill(tmp_path)
        assert path == "-" and existed
        deadline = time.monotonic() + CLEANUP_DEADLINE_S
        while _segment_exists(segment):
            assert time.monotonic() < deadline, f"{segment} leaked"
            time.sleep(0.05)

    def test_store_backed_publication_creates_no_segment(self, tmp_path):
        store = tmp_path / "g.rcsr"
        save_store(barabasi_albert(300, 3, seed=5), store)
        before = store.read_bytes()
        segment, path, existed = _publish_then_sigkill(tmp_path, str(store))
        assert (segment, path, existed) == ("-", str(store), False)
        assert store.read_bytes() == before
