"""Unit tests for :class:`~repro.analysis.dataflow.ProjectIndex`.

RL010's fixture tests live in ``test_rules.py``; this module pins how
the index records nested functions.
"""

import ast
from pathlib import Path

from repro.analysis.dataflow import ProjectIndex
from repro.analysis.lint import FileContext


def _index(src: str, path: str = "federated/mod.py") -> ProjectIndex:
    return ProjectIndex([FileContext(Path(path), path, src, ast.parse(src))])


class TestIndexer:
    def test_sibling_nested_functions_index_cleanly(self):
        # The nested-def dedup used to walk a FunctionInfo instead of its
        # AST node and crashed on the second sibling closure (the shape
        # of the fused spmm's per-branch backward closures).
        src = (
            "def outer(flag):\n"
            "    if flag:\n"
            "        def backward(g):\n"
            "            return g\n"
            "    else:\n"
            "        def backward(g):\n"
            "            return -g\n"
            "    return backward\n"
        )
        outer = _index(src).functions["federated.mod.outer"]
        assert set(outer.nested) == {"backward"}
        assert outer.nested["backward"].qualname == "federated.mod.outer.<backward>"

    def test_doubly_nested_functions_index_cleanly(self):
        src = (
            "def outer():\n"
            "    def mid():\n"
            "        def inner():\n"
            "            return 1\n"
            "        return inner\n"
            "    def other():\n"
            "        return 2\n"
            "    return mid, other\n"
        )
        outer = _index(src).functions["federated.mod.outer"]
        # inner belongs to mid only: the dedup keeps deeper nests out.
        assert set(outer.nested) == {"mid", "other"}
        assert set(outer.nested["mid"].nested) == {"inner"}
