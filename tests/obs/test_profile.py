"""Profiler tests: folded stacks, memory high-water, ProfileSession.

The load-bearing assertion is zero perturbation: a fully profiled
federated run (cost model + memory profiler + tracing) produces a
training history ``metrics_equal`` to an unprofiled one.
"""

import numpy as np
import pytest

from repro.core import FedOMDConfig, FedOMDTrainer
from repro.graphs import load_dataset, louvain_partition
from repro.obs import (
    MemoryProfiler,
    ProfileSession,
    folded_stacks,
    get_collector,
    read_jsonl,
    top_frames,
    validate_events,
    write_folded,
)
from repro.obs import profile as profile_mod
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def span(name, sid, parent, t0, t1, **attrs):
    return {
        "type": "span",
        "name": name,
        "span_id": sid,
        "parent_id": parent,
        "t_start": t0,
        "t_end": t1,
        "dur": t1 - t0,
        "thread": "t",
        "attrs": attrs,
    }


class TestFoldedStacks:
    def test_self_time_subtracts_children(self):
        events = [
            span("round", 1, None, 0.0, 1.0),
            span("train", 2, 1, 0.1, 0.7),
            span("eval", 3, 1, 0.7, 0.9),
        ]
        folded = folded_stacks(events)
        assert folded["round;train"] == pytest.approx(0.6)
        assert folded["round;eval"] == pytest.approx(0.2)
        # round's self time: 1.0 − (0.6 + 0.2).
        assert folded["round"] == pytest.approx(0.2)

    def test_identical_paths_merge(self):
        events = [
            span("round", 1, None, 0.0, 1.0),
            span("round", 2, None, 1.0, 3.0),
        ]
        assert folded_stacks(events) == {"round": pytest.approx(3.0)}

    def test_orphan_parent_roots_the_stack(self):
        events = [span("task", 5, 99, 0.0, 0.5)]
        assert folded_stacks(events) == {"task": pytest.approx(0.5)}

    def test_self_time_clamped_nonnegative(self):
        # Child outlives parent (worker task past the submitting span).
        events = [
            span("train", 1, None, 0.0, 0.1),
            span("task", 2, 1, 0.0, 0.5),
        ]
        folded = folded_stacks(events)
        assert folded["train"] == 0.0
        assert folded["train;task"] == pytest.approx(0.5)

    def test_non_span_and_open_partial_events_handled(self):
        events = [
            {"type": "metric", "name": "x"},
            span("a", 1, None, 0.0, 1.0),
            # open span: dur present (elapsed), t_end null — still folded.
            {
                "type": "span",
                "name": "b",
                "span_id": 2,
                "parent_id": 1,
                "t_start": 0.2,
                "t_end": None,
                "dur": 0.3,
                "open": True,
                "attrs": {},
            },
        ]
        folded = folded_stacks(events)
        assert folded["a;b"] == pytest.approx(0.3)

    def test_write_folded_integer_microseconds(self, tmp_path):
        events = [
            span("round", 1, None, 0.0, 1.0),
            span("train", 2, 1, 0.25, 1.0),
        ]
        path = str(tmp_path / "out" / "profile.folded")
        assert write_folded(path, events) == 2
        lines = open(path).read().splitlines()
        assert lines == ["round 250000", "round;train 750000"]

    def test_top_frames_ordering(self):
        events = [
            span("slow", 1, None, 0.0, 2.0),
            span("fast", 2, None, 2.0, 2.5),
        ]
        frames = top_frames(events, k=1)
        assert frames == [("slow", pytest.approx(2.0))]


def vm_rss_bytes():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS line")


class TestMemoryProfiler:
    def test_phase_peaks_harvested(self):
        tracer = Tracer()
        prof = MemoryProfiler()
        tracer.add_listener(prof)
        try:
            with tracer.span("train"):
                np.zeros(200_000)  # ~1.6 MB transient
            with tracer.span("not_a_phase"):
                np.zeros(200_000)
        finally:
            tracer.remove_listener(prof)
        assert prof.peaks.get("train", 0) > 1_000_000
        assert "not_a_phase" not in prof.peaks

    def test_peak_is_rss_high_water(self):
        # A touched 32 MB array raises the RSS high-water by about 32 MB
        # over the RSS before the span, however little of the Python
        # heap it uses; np.ones, because untouched calloc pages never
        # become resident.
        tracer = Tracer()
        prof = MemoryProfiler()
        tracer.add_listener(prof)
        try:
            rss_before = vm_rss_bytes()
            with tracer.span("train"):
                block = np.ones(32 * 2**20 // 8)
                del block
        finally:
            tracer.remove_listener(prof)
        assert prof.unavailable is None
        assert prof.peaks["train"] >= rss_before + 30 * 2**20

    def test_max_across_rounds_kept(self):
        tracer = Tracer()
        prof = MemoryProfiler()
        tracer.add_listener(prof)
        try:
            with tracer.span("eval"):
                np.zeros(400_000)
            big = prof.peaks["eval"]
            with tracer.span("eval"):
                pass  # tiny round must not shrink the high-water mark
        finally:
            tracer.remove_listener(prof)
        assert prof.peaks["eval"] >= big

    def test_flush_gauges(self):
        reg = MetricsRegistry()
        prof = MemoryProfiler()
        prof.peaks = {"train": 123, "eval": 456}
        prof.flush_gauges(reg)
        assert reg.get("profile.mem_peak_bytes", phase="train").value == 123
        assert reg.get("profile.mem_peak_bytes", phase="eval").value == 456

    def test_unwritable_clear_refs_reports_unavailable(self, monkeypatch, tmp_path):
        monkeypatch.setattr(profile_mod, "CLEAR_REFS", str(tmp_path / "no" / "clear_refs"))
        session = ProfileSession()
        with session:
            with session.tracer.span("train"):
                np.ones(1000)
        assert "No such file" in session.memory.unavailable
        events = session.events()
        assert not [
            e for e in events if e.get("name") == "profile.mem_peak_bytes"
        ]
        validate_events(events)
        assert "memory high-water: unavailable (cannot write" in session.report()


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.12)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


CFG = dict(max_rounds=3, patience=50, hidden=16)


def run_fedomd(parts):
    trainer = FedOMDTrainer(parts, FedOMDConfig(**CFG), seed=0)
    return trainer, trainer.run()


class TestProfileSessionEndToEnd:
    @pytest.fixture(scope="class")
    def profiled(self, parts, tmp_path_factory):
        out = tmp_path_factory.mktemp("prof")
        session = ProfileSession(
            jsonl_path=str(out / "trace.jsonl"),
            folded_path=str(out / "profile.folded"),
            experiment="unit",
        )
        with session:
            trainer, hist = run_fedomd(parts)
        return session, hist, out

    def test_profiling_does_not_perturb_training(self, parts, profiled):
        _, hist_profiled, _ = profiled
        _, hist_plain = run_fedomd(parts)
        assert hist_plain.metrics_equal(hist_profiled)

    def test_collector_uninstalled_after_exit(self, profiled):
        assert get_collector() is None

    def test_jsonl_trace_validates_and_has_new_event_kinds(self, profiled):
        session, _, out = profiled
        events = read_jsonl(str(out / "trace.jsonl"))
        validate_events(events)
        assert any(e["type"] == "profile" for e in events)
        names = {e.get("name") for e in events if e.get("type") == "metric"}
        assert "cost.flops" in names
        assert "cost.bytes" in names
        assert "profile.mem_peak_bytes" in names
        assert "kernel.csr_cache" in names

    def test_folded_file_written(self, profiled):
        _, _, out = profiled
        lines = (out / "profile.folded").read_text().splitlines()
        assert lines
        stacks = {line.rsplit(" ", 1)[0] for line in lines}
        assert any(s.startswith("round;train") for s in stacks)
        for line in lines:
            int(line.rsplit(" ", 1)[1])  # integer microseconds

    def test_cost_attributed_to_phases_and_layers(self, profiled):
        session, _, _ = profiled
        events = session.events()
        flops = [
            e for e in events if e.get("type") == "metric" and e["name"] == "cost.flops"
        ]
        phases = {e["tags"]["phase"] for e in flops}
        assert {"train", "eval", "exchange"} <= phases
        assert any(e["tags"]["layer"] != "-" for e in flops), "layer scopes missing"

    def test_spmm_flops_match_formula(self, profiled, parts):
        """Train-phase fwd spmm FLOPs are an exact multiple of 2·nnz·d."""
        session, hist, _ = profiled
        events = session.events()
        total = sum(
            e["value"]
            for e in events
            if e.get("type") == "metric"
            and e["name"] == "cost.flops"
            and e["tags"].get("op") == "spmm"
            and e["tags"].get("dir") == "fwd"
        )
        assert total > 0 and total % 2 == 0

    def test_report_renders_profile_sections(self, profiled):
        session, _, _ = profiled
        report = session.report()
        for needle in (
            "cost model (per phase)",
            "memory high-water",
            "top",
            "flops/byte",
        ):
            assert needle in report, needle

    def test_memory_gauges_cover_phases(self, profiled):
        session, _, _ = profiled
        events = session.events()
        phases = {
            e["tags"]["phase"]
            for e in events
            if e.get("type") == "metric" and e["name"] == "profile.mem_peak_bytes"
        }
        assert phases == {"exchange", "train", "aggregate", "eval"}
