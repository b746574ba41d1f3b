"""Concurrency rule RL010, built on :mod:`repro.analysis.concurrency`.

RL010 is the linter's whole-project rule (thread roots and their
reachable callees cross files), so it runs in :meth:`Rule.finish` over
a :class:`~repro.analysis.dataflow.ProjectIndex` of every linted file.

Reporting scope: RL010 fires only under ``federated/`` (that is where
the executor/engine thread split lives — the analysis itself spans the
whole tree so roots and callees resolve).  Clock monotonicity is held
at runtime by ``VirtualClock.advance_to``, and order-insensitive
aggregation by the ``fold_arrivals`` permutation property and a
straggler-reordered async run (``tests/federated/test_async_engine.py``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.analysis.concurrency import HappensBeforeAnalysis
from repro.analysis.dataflow import ProjectIndex
from repro.analysis.lint import ProjectContext, Rule, Violation, register_rule


def _in_federated(display: str) -> bool:
    return "federated" in Path(display).parts


@register_rule
class UnsynchronizedSharedField(Rule):
    id = "RL010"
    name = "no-unsynchronized-shared-field"
    rationale = (
        "Fields written on executor worker threads and read on the "
        "engine thread race unless both sides hold a common lock or the "
        "access declares its discipline with `# guarded-by(...)`. The "
        "happens-before model knows spawn (`executor.map`/`submit`/"
        "`threading.Thread`), the join barrier a blocking map implies, "
        "constructor ordering, and per-task ownership of the mapped item "
        "— everything else shared between thread contexts must be "
        "synchronized explicitly."
    )

    def finish(self, project: ProjectContext) -> Iterable[Violation]:
        analysis = HappensBeforeAnalysis(ProjectIndex(list(project.files.values())))
        for f in analysis.races():
            if not _in_federated(f.path):
                continue
            w_kind = "written" if f.worker.is_write else "read"
            m_kind = "written" if f.main.is_write else "read"
            yield self.violation(
                f.path,
                f.line,
                f"`{f.cls}.{f.attr}` is {w_kind} on an executor thread "
                f"(in `{f.worker.func}`) and {m_kind} on the engine "
                f"thread at {f.main.path}:{f.main.line} (in "
                f"`{f.main.func}`) with no common lock; hold one lock on "
                "both sides or declare the discipline with "
                "`# guarded-by(<lock or barrier>)`",
            )
