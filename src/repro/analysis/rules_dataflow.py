"""Interprocedural rule RL007, built on :mod:`repro.analysis.dataflow`.

The privacy-escape rule needs the whole project parsed (taint crosses
files: the sources live in ``graphs/`` and ``gnn/`` forwards, the sinks
in ``federated/``), so it does its work in :meth:`Rule.finish` over the
shared :class:`~repro.analysis.dataflow.ProjectIndex` — one index is
built per run and reused by RL007 and RL010
(:mod:`repro.analysis.rules_concurrency`).

Reporting scope mirrors RL006: findings are only *emitted* for files
under the aggregation/communication directories (``federated/``,
``core/``, ``baselines/``, ``extensions/``) — analysis still spans every
file so taint and call chains resolve.  Algorithm 1's phase order is
checked at runtime by :class:`~repro.analysis.sanitize.ProtocolMonitor`
and lock order by :class:`~repro.analysis.sanitize.LockOrderRecorder`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List

from repro.analysis.dataflow import ProjectIndex, TaintAnalysis
from repro.analysis.lint import ProjectContext, Rule, Violation, register_rule

#: Where RL007 findings are reported (same scope as RL006).
SCOPE_DIRS = {"federated", "core", "baselines", "extensions"}


def _in_scope(display: str) -> bool:
    return bool(SCOPE_DIRS.intersection(Path(display).parts))


# [project, index] of the most recent run.  The project is held by
# strong reference and compared by identity — an id()-keyed dict would
# hand a recycled id a stale index after the old project is collected.
_INDEX_CACHE: List[object] = []


def _index_for(project: ProjectContext) -> ProjectIndex:
    """One ProjectIndex per linter run, shared by RL007 and RL010."""
    if _INDEX_CACHE and _INDEX_CACHE[0] is project:
        return _INDEX_CACHE[1]  # type: ignore[return-value]
    index = ProjectIndex(list(project.files.values()))
    _INDEX_CACHE[:] = [project, index]
    return index


@register_rule
class PrivacyEscape(Rule):
    id = "RL007"
    name = "no-raw-party-data-uplink"
    rationale = (
        "FedOMD's privacy claim (§4.4) is that only statistics cross the "
        "Communicator: raw party tensors (graph.x/.y/.edge_index/.adj "
        "and the cached views graph.x_dense/.s_op) "
        "reaching an uplink without a sanitizing aggregate "
        "(mean/sum/state_dict/moment helpers) is a privacy escape. "
        "Legitimate aggregate uploads carry `# privacy-ok(<reason>)`."
    )

    def finish(self, project: ProjectContext) -> Iterable[Violation]:
        analysis = TaintAnalysis(_index_for(project))
        for f in analysis.run():
            if not _in_scope(f.path):
                continue
            yield self.violation(
                f.path,
                f.line,
                f"raw party data reaches uplink `{f.sink}` without a "
                f"sanitizer: {f.render_trace()} "
                "(aggregate uploads declare `# privacy-ok(<reason>)`)",
            )
