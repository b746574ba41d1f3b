"""Unit tests for the static happens-before model behind RL010.

Fixture-level behavior (pinned lines, suppressions, CLI) lives in
``test_rules.py``; this module pins the analysis semantics that fixture
rests on: thread-root discovery, the three-state ownership model,
lock/guard classification, and the join edge.
"""

import ast
from pathlib import Path

from repro.analysis import Linter
from repro.analysis.concurrency import HappensBeforeAnalysis
from repro.analysis.dataflow import ProjectIndex
from repro.analysis.lint import FileContext


def index_of(**modules: str) -> ProjectIndex:
    ctxs = [
        FileContext(Path(f"{name}.py"), f"{name}.py", src, ast.parse(src))
        for name, src in modules.items()
    ]
    return ProjectIndex(ctxs)


def _rl010(src: str):
    return Linter(rules=["RL010"]).lint_source(src, path="federated/mod.py")


ENGINE = """
import threading

class Pool:
    def map(self, fn, items):
        return [fn(i) for i in items]

class Engine:
    def __init__(self):
        self.pool = Pool()
        self.lock = threading.Lock()
        self.progress = 0

    def launch(self, items):
        def task(item: Item):
            item.step()
            self.progress += 1
        return self.pool.map(task, items)

    def report(self):
        return self.progress

class Item:
    def __init__(self):
        self.calls = 0

    def step(self):
        self.calls += 1
"""


class TestThreadRoots:
    def test_mapped_closure_is_a_shared_item_root(self):
        hb = HappensBeforeAnalysis(index_of(engine=ENGINE))
        contexts = hb.compute_contexts()
        root = "engine.Engine.launch.<task>"
        assert root in hb.worker_roots
        assert hb.worker_roots[root] == "engine.Engine.launch"
        assert contexts[root] == {"shared+item"}

    def test_owned_item_method_runs_in_owned_context(self):
        hb = HappensBeforeAnalysis(index_of(engine=ENGINE))
        contexts = hb.compute_contexts()
        # task's first param is the mapped item; item.step() is owned.
        assert contexts["engine.Item.step"] == {"owned"}

    def test_closure_self_call_leaves_the_ownership_bubble(self):
        src = ENGINE + (
            "\n"
            "class Caller(Engine):\n"
            "    def go(self, items):\n"
            "        def task(item):\n"
            "            self.helper()\n"
            "        return self.pool.map(task, items)\n"
            "    def helper(self):\n"
            "        return self.progress\n"
        )
        hb = HappensBeforeAnalysis(index_of(engine=src))
        contexts = hb.compute_contexts()
        # helper is reached through the closure-captured self: shared.
        assert contexts["engine.Caller.helper"] == {"shared"}

    def test_thread_target_is_a_shared_root(self):
        src = (
            "import threading\n"
            "class Monitor:\n"
            "    def run(self):\n"
            "        t = threading.Thread(target=self.poll)\n"
            "        t.start()\n"
            "    def poll(self):\n"
            "        return 1\n"
        )
        hb = HappensBeforeAnalysis(index_of(mod=src))
        contexts = hb.compute_contexts()
        assert "mod.Monitor.poll" in hb.worker_roots
        assert contexts["mod.Monitor.poll"] == {"shared"}

    def test_lambda_item_rooted_call_never_degrades_to_shared(self):
        # `lambda c: c.step()` touches only the owned item; mapping it
        # must not reclassify Item.step into shared context (the ENGINE
        # prelude already reaches it as "owned" through `task`).
        src = ENGINE + (
            "\n"
            "class Evaluator(Engine):\n"
            "    def evaluate(self, items):\n"
            "        return self.pool.map(lambda c: c.step(), items)\n"
        )
        hb = HappensBeforeAnalysis(index_of(engine=src))
        contexts = hb.compute_contexts()
        assert "shared" not in contexts.get("engine.Item.step", set())

    def test_lambda_closure_call_is_shared(self):
        src = ENGINE + (
            "\n"
            "class Evaluator(Engine):\n"
            "    def evaluate(self, items):\n"
            "        return self.pool.map(lambda c: self.tally(c), items)\n"
            "    def tally(self, c):\n"
            "        self.progress += 1\n"
        )
        hb = HappensBeforeAnalysis(index_of(engine=src))
        contexts = hb.compute_contexts()
        assert "shared" in contexts["engine.Evaluator.tally"]

    def test_monitor_hook_methods_are_shared_roots(self):
        src = (
            "class Probe:\n"
            "    def __init__(self):\n"
            "        self.events = []\n"
            "    def on_event(self, ev):\n"
            "        self.events.append(ev)\n"
            "class Comm:\n"
            "    def __init__(self):\n"
            "        self._monitor = None\n"
            "class Session:\n"
            "    def attach(self, comm):\n"
            "        probe = Probe()\n"
            "        comm._monitor = probe\n"
        )
        hb = HappensBeforeAnalysis(index_of(mod=src))
        contexts = hb.compute_contexts()
        assert contexts.get("mod.Probe.on_event") == {"shared"}

    def test_non_executor_receiver_is_not_a_spawn(self):
        src = (
            "class C:\n"
            "    def go(self, items):\n"
            "        def task(item):\n"
            "            return item\n"
            "        return self.registry.map(task, items)\n"
        )
        hb = HappensBeforeAnalysis(index_of(mod=src))
        hb.compute_contexts()
        assert hb.worker_roots == {}


class TestRacePairing:
    def test_unsynchronized_worker_write_vs_main_read_fires(self):
        report = _rl010(ENGINE)
        assert [v.line for v in report.violations] == [17]
        (v,) = report.violations
        assert "Engine.progress" in v.message and "guarded-by" in v.message

    def test_common_lock_synchronizes(self):
        src = ENGINE.replace(
            "            self.progress += 1",
            "            with self.lock:\n                self.progress += 1",
        ).replace(
            "        return self.progress",
            "        with self.lock:\n            return self.progress",
        )
        assert _rl010(src).ok

    def test_guarded_by_annotation_on_either_side_accepted(self):
        src = ENGINE.replace(
            "            self.progress += 1",
            "            # guarded-by(round-barrier)\n            self.progress += 1",
        )
        assert _rl010(src).ok

    def test_spawning_function_access_is_join_ordered(self):
        # The engine-side read lives in launch() itself — ordered by the
        # blocking map — and report() is deleted: no race pair remains.
        src = ENGINE.replace(
            "    def report(self):\n        return self.progress\n",
            "",
        ).replace(
            "        return self.pool.map(task, items)",
            "        out = self.pool.map(task, items)\n"
            "        return out, self.progress",
        )
        assert _rl010(src).ok

    def test_owned_item_fields_never_pair(self):
        # Item.calls is mutated in owned context only: task-private.
        report = _rl010(ENGINE)
        assert all("Item.calls" not in v.message for v in report.violations)

    def test_constructor_writes_exempt(self):
        hb = HappensBeforeAnalysis(index_of(engine=ENGINE))
        assert all(a.func.split(".")[-1] != "__init__" for a in hb.field_accesses())

    def test_lock_attribute_accesses_not_recorded(self):
        hb = HappensBeforeAnalysis(index_of(engine=ENGINE))
        assert all("lock" not in a.attr for a in hb.field_accesses())

    def test_real_tree_has_no_races(self):
        root = Path(__file__).resolve().parents[2]
        report = Linter(rules=["RL010"], root=root).lint_paths([str(root / "src")])
        assert report.ok, [v.message for v in report.violations]


class TestSanitizeAnnotationHonored:
    def test_protocol_monitor_guard_annotation_present(self):
        # The one benign cross-thread read the pass found is declared,
        # not silenced: the annotation documents the caller-held lock.
        src_file = (
            Path(__file__).resolve().parents[2]
            / "src" / "repro" / "analysis" / "sanitize.py"
        )
        assert "guarded-by(self._lock, held by caller)" in src_file.read_text()
