"""Unit tests for the buffer-ownership dataflow analysis.

Exercises ``tools/reprolint/dataflow.py`` directly: the ``:mutates``
grammar, provenance tracking through views/copies/branches, and the
cross-module summary propagation that rules R9/R11 are built on.
"""

import ast
import os
import textwrap
from contextlib import contextmanager
from pathlib import Path

import pytest

from reprolint.dataflow import (
    FunctionAnalyzer,
    ProjectIndex,
    annotation_names,
    module_qualname,
    parse_mutates,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@contextmanager
def repo_cwd():
    """The index resolves ``repro.*`` modules relative to the repo root."""
    previous = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        yield
    finally:
        os.chdir(previous)


def summarize(source, qualname, path="src/repro/graph/engine.py"):
    """Summary of one function in a synthetic module at ``path``."""
    index = ProjectIndex()
    tree = ast.parse(textwrap.dedent(source))
    module = index.module_for_source(path, tree)
    summary = index.summary(module, qualname)
    assert summary is not None, f"no summary for {qualname}"
    return summary


def has_workspace(prov_sets):
    return any(
        token[0] == "workspace" for prov in prov_sets for token in prov
    )


class TestMutatesGrammar:
    def test_single_name(self):
        out = parse_mutates("Doc.\n\n:mutates work: bitmaps\n")
        assert set(out) == {"work"}

    def test_comma_list(self):
        out = parse_mutates(":mutates a, b: both change\n")
        assert set(out) == {"a", "b"}

    def test_absent(self):
        assert parse_mutates("Plain docstring, no contracts.") == {}

    def test_dtype_lines_are_not_mutates(self):
        assert parse_mutates(":dtype dist: int32\n") == {}


class TestNames:
    def test_module_qualname_strips_src_root(self):
        assert module_qualname("src/repro/graph/engine.py") == (
            "repro.graph.engine"
        )

    def test_module_qualname_package_init(self):
        assert module_qualname("src/repro/obs/__init__.py") == "repro.obs"

    def test_module_qualname_tools(self):
        assert module_qualname("tools/reprolint/cli.py") == (
            "tools.reprolint.cli"
        )

    def test_annotation_names_optional_string(self):
        node = ast.parse("x: Optional['BFSEngine']").body[0].annotation
        assert set(annotation_names(node)) >= {"Optional", "BFSEngine"}

    def test_annotation_names_attribute(self):
        node = ast.parse("x: np.ndarray").body[0].annotation
        assert "ndarray" in annotation_names(node)


# A synthetic BFSEngine whose class qualname matches the pooled-buffer
# registry entry ``repro.graph.engine.BFSEngine``.
ENGINE_MODULE = '''
"""Fixture engine."""
import numpy as np

class BFSEngine:
    def __init__(self, n: int) -> None:
        self._dist = np.empty(n, dtype=np.int32)

    def peek(self) -> np.ndarray:
        return self._dist

    def peek_copy(self) -> np.ndarray:
        return self._dist.copy()

    def peek_slice(self) -> np.ndarray:
        return self._dist[1:]
'''


class TestProvenance:
    def test_returned_pooled_attr_is_workspace(self):
        summary = summarize(ENGINE_MODULE, "BFSEngine.peek")
        assert has_workspace(summary.returns)

    def test_copy_severs_provenance(self):
        summary = summarize(ENGINE_MODULE, "BFSEngine.peek_copy")
        assert not has_workspace(summary.returns)

    def test_slice_view_keeps_provenance(self):
        summary = summarize(ENGINE_MODULE, "BFSEngine.peek_slice")
        assert has_workspace(summary.returns)

    def test_mutation_of_ndarray_param_detected(self):
        summary = summarize(
            """
            import numpy as np

            def f(a: np.ndarray) -> None:
                a[0] = 1
            """,
            "f",
            path="src/repro/example.py",
        )
        assert "a" in summary.mutates

    def test_branch_join_keeps_both_arms(self):
        # One arm rebinds to a copy; the other keeps the parameter
        # alias.  The join must keep the alias, so the write is still a
        # parameter mutation.
        summary = summarize(
            """
            import numpy as np

            def f(a: np.ndarray, flag: bool) -> None:
                x = a
                if flag:
                    x = a.copy()
                x[0] = 1
            """,
            "f",
            path="src/repro/example.py",
        )
        assert "a" in summary.mutates

    def test_tuple_packing_keeps_provenance(self):
        summary = summarize(
            ENGINE_MODULE
            + textwrap.dedent(
                """
                def relay(e: BFSEngine):
                    return (0, e.peek())
                """
            ),
            "relay",
        )
        assert has_workspace(summary.returns)

    def test_augassign_is_mutation(self):
        summary = summarize(
            """
            import numpy as np

            def f(a: np.ndarray) -> None:
                a += 1
            """,
            "f",
            path="src/repro/example.py",
        )
        assert "a" in summary.mutates

    def test_out_kwarg_is_mutation(self):
        summary = summarize(
            """
            import numpy as np

            def f(a: np.ndarray, b: np.ndarray) -> None:
                np.minimum(a, 3, out=b)
            """,
            "f",
            path="src/repro/example.py",
        )
        assert "b" in summary.mutates


class TestCrossModule:
    """Summaries propagated through the real ``src/`` tree."""

    def test_compute_ffo_mutates_engine(self):
        with repo_cwd():
            index = ProjectIndex()
            module = index.module("repro.core.ffo")
            assert module is not None
            summary = index.summary(module, "compute_ffo")
        assert summary is not None
        assert "engine" in summary.mutates

    def test_engine_run_returns_workspace(self):
        with repo_cwd():
            index = ProjectIndex()
            summary = index.summary_for_method(
                "repro.graph.engine.BFSEngine", "run"
            )
        assert summary is not None
        assert has_workspace(summary.returns)

    def test_sweep_probes_returns_owned_rows(self):
        # The pooled BFS vector is gathered into fresh rows before return.
        with repo_cwd():
            index = ProjectIndex()
            summary = index.summary_for_method(
                "repro.core.oracles.BFSOracle", "sweep_probes"
            )
        assert summary is not None
        assert not has_workspace(summary.returns)

    def test_source_probe_copies_before_returning(self):
        with repo_cwd():
            index = ProjectIndex()
            summary = index.summary_for_method(
                "repro.core.oracles.BFSOracle", "source_probe"
            )
        assert summary is not None
        assert not has_workspace(summary.returns)

    def test_recursion_terminates(self):
        source = """
        def f(x):
            return g(x)

        def g(x):
            return f(x)
        """
        index = ProjectIndex()
        tree = ast.parse(textwrap.dedent(source))
        module = index.module_for_source("src/repro/example.py", tree)
        summary = index.summary(module, "f")
        assert summary is not None  # cycle guard, no RecursionError


class TestAnalyzerDirect:
    def test_plain_function_without_events(self):
        tree = ast.parse("def f(x):\n    return x + 1\n")
        func = tree.body[0]
        index = ProjectIndex()
        module = index.module_for_source("src/repro/example.py", tree)
        summary = FunctionAnalyzer(func, None, module).analyze()
        assert summary.mutates == set()
        assert not has_workspace(summary.returns)
