"""Unit tests for the interprocedural dataflow engine itself.

The rule-level behavior (fixture projects, pinned lines, suppressions)
lives in ``test_rules.py``; this module pins the engine semantics the
rule rests on: how taint moves through sanitizers, containers,
subscripts, and instance attributes, and how the shared
:class:`~repro.analysis.dataflow.ProjectIndex` records nested functions.
"""

import ast
from pathlib import Path

from repro.analysis import Linter
from repro.analysis.dataflow import ProjectIndex
from repro.analysis.lint import FileContext


def _rl007(src: str, path: str = "federated/mod.py"):
    return Linter(rules=["RL007"]).lint_source(src, path=path)


def _index(src: str, path: str = "federated/mod.py") -> ProjectIndex:
    return ProjectIndex([FileContext(Path(path), path, src, ast.parse(src))])


class TestTaintSemantics:
    def test_sanitizer_call_stops_taint(self):
        src = (
            "def f(comm, graph):\n"
            "    return comm.send_to_server(0, graph.x.mean(axis=0))\n"
        )
        assert _rl007(src).ok

    def test_raw_source_reaches_sink(self):
        src = "def f(comm, graph):\n    return comm.send_to_server(0, graph.x)\n"
        assert not _rl007(src).ok

    def test_cached_dense_features_are_a_source(self):
        src = "def f(comm, graph):\n    return comm.send_to_server(0, graph.x_dense)\n"
        (v,) = _rl007(src).violations
        assert "graph.x_dense" in v.message

    def test_container_mutation_carries_taint(self):
        src = (
            "def f(comm, graph):\n"
            "    out = []\n"
            "    out.append(graph.x)\n"
            "    return comm.send_to_server(0, out)\n"
        )
        assert not _rl007(src).ok

    def test_metadata_attributes_are_clean(self):
        src = (
            "def f(comm, graph):\n"
            "    return comm.send_to_server(0, graph.x.shape)\n"
        )
        assert _rl007(src).ok

    def test_subscript_of_tainted_base_stays_tainted(self):
        src = "def f(comm, graph):\n    return comm.send_to_server(0, graph.x[0])\n"
        assert not _rl007(src).ok

    def test_derived_per_node_rows_stay_tainted(self):
        # Projections and shifts of the raw rows keep no buffer, dtype or
        # row support the runtime tripwire could match; only taint sees them.
        for expr in ("graph.x_dense @ w", "graph.x_dense + 1", "graph.x_dense[:, :5]"):
            src = f"def f(comm, graph, w):\n    return comm.send_to_server(0, {expr})\n"
            assert not _rl007(src).ok, expr

    def test_tainted_index_does_not_taint_element(self):
        src = (
            "def f(comm, graph, table):\n"
            "    return comm.send_to_server(0, table[graph.y[0]])\n"
        )
        assert _rl007(src).ok

    def test_gather_payload_is_the_sink(self):
        src = "def f(comm, graph):\n    return comm.gather([graph.x])\n"
        assert not _rl007(src).ok

    def test_taint_flows_through_instance_attribute(self):
        src = (
            "class T:\n"
            "    def stash(self, graph):\n"
            "        self.raw = graph.x\n"
            "    def upload(self, comm):\n"
            "        return comm.send_to_server(0, self.raw)\n"
        )
        assert not _rl007(src).ok

    def test_trace_names_source_and_sink(self):
        src = "def f(comm, graph):\n    return comm.send_to_server(0, graph.adj)\n"
        report = _rl007(src)
        (v,) = report.violations
        assert "graph.adj" in v.message and "send_to_server" in v.message


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
