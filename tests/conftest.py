"""Shared fixtures for the test suite.

Also puts the ``tests/`` directory on ``sys.path`` so test modules can
``from helpers import random_connected_graph`` regardless of which
subdirectory they live in.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro import sanitize
from repro.graph import native
from repro.graph.components import largest_connected_component
from repro.graph.csr import Graph
from repro.graph.generators import (
    attach_handles,
    barabasi_albert,
    copying_model,
    paper_example_graph,
    watts_strogatz,
)
from repro.graph.properties import exact_eccentricities


#: Test files that run once per traversal kernel.  Each test keeps its
#: id and runs on the native kernel (skipped when it could not be
#: built); a twin whose id ends in ``numpy]`` runs the same body on the
#: numpy fallback.  Both kernels must pass every test unchanged.
KERNEL_PAIRED = (
    "tests/graph/test_engine.py",
    "tests/graph/test_msengine.py",
    "tests/obs/test_determinism.py",
    "tests/property/",
)

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _kernel_paired(item: pytest.Item) -> bool:
    path = os.path.relpath(str(item.path), _ROOT).replace(os.sep, "/")
    return path.startswith(KERNEL_PAIRED)


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "numpy_kernel: run on the numpy fallback kernel"
    )


def _numpy_twin(item: pytest.Function) -> pytest.Function:
    callspec = getattr(item, "callspec", None)
    suffix = f"{callspec.id}-numpy" if callspec is not None else "numpy"
    twin = pytest.Function.from_parent(
        item.parent,
        name=f"{item.originalname}[{suffix}]",
        callspec=callspec,
        callobj=item.obj,
        fixtureinfo=item._fixtureinfo,
        keywords=dict(item.keywords),
        originalname=item.originalname,
    )
    twin.add_marker("numpy_kernel")
    return twin


@pytest.hookimpl(hookwrapper=True)
def pytest_pycollect_makeitem(collector, name, obj):
    """Give every test in :data:`KERNEL_PAIRED` a numpy-kernel twin."""
    outcome = yield
    made = outcome.get_result()
    if made is None:
        return
    items = made if isinstance(made, list) else [made]
    paired = []
    for item in items:
        paired.append(item)
        if isinstance(item, pytest.Function) and _kernel_paired(item):
            paired.append(_numpy_twin(item))
    outcome.force_result(paired)


@pytest.fixture(autouse=True)
def traversal_kernel(request: pytest.FixtureRequest):
    """Pin the traversal kernel for a :data:`KERNEL_PAIRED` test.

    Swaps the loaded library in :mod:`repro.graph.native`, which every
    engine consults per run; yields the kernel name, or ``None`` for
    tests outside the paired files (they run whatever loaded).
    """
    if not _kernel_paired(request.node):
        yield None
        return
    if request.node.get_closest_marker("numpy_kernel") is not None:
        info = native.KernelInfo("numpy", "pinned by the test suite")
        with native.pinned(None, info):
            yield "numpy"
        return
    if native.kernels() is None:
        reason = native.kernel_info().detail
        pytest.skip(f"native kernel unavailable: {reason}")
    yield "native"


@pytest.fixture
def sanitizer():
    """Arm the runtime workspace sanitizer for one test.

    Workspaces (engines, lane bitmaps, CSR arrays) must be constructed
    *inside* the test for the guards to attach — pooled objects cached
    before arming stay unguarded.  Equivalent to running the whole
    session with ``REPRO_SANITIZE=1``.
    """
    with sanitize.sanitized():
        yield


@pytest.fixture(scope="session")
def example_graph() -> Graph:
    """The paper's 13-node running example (Figure 1)."""
    return paper_example_graph()


@pytest.fixture(scope="session")
def example_eccentricities(example_graph) -> np.ndarray:
    return exact_eccentricities(example_graph)


@pytest.fixture(scope="session")
def social_graph() -> Graph:
    """A small-world social-network stand-in with a periphery."""
    core = barabasi_albert(250, 3, seed=42)
    graph = attach_handles(core, 8, 14, seed=43)
    graph, _ids = largest_connected_component(graph)
    return graph


@pytest.fixture(scope="session")
def social_truth(social_graph) -> np.ndarray:
    return exact_eccentricities(social_graph)


@pytest.fixture(scope="session")
def web_graph() -> Graph:
    """A web-crawl stand-in (copying model + tendrils)."""
    core = copying_model(220, out_degree=3, copy_probability=0.6, seed=7)
    graph = attach_handles(core, 6, 12, seed=8)
    graph, _ids = largest_connected_component(graph)
    return graph


@pytest.fixture(scope="session")
def web_truth(web_graph) -> np.ndarray:
    return exact_eccentricities(web_graph)


@pytest.fixture(scope="session")
def lattice_graph() -> Graph:
    """A rewired lattice (contact-network stand-in)."""
    graph = watts_strogatz(150, 4, 0.05, seed=11)
    graph, _ids = largest_connected_component(graph)
    return graph


@pytest.fixture(scope="session")
def lattice_truth(lattice_graph) -> np.ndarray:
    return exact_eccentricities(lattice_graph)
