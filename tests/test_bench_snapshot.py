"""The committed-snapshot regression gate (``benchmarks/snapshot.py``)."""

import json

import pytest

from benchmarks.snapshot import compare, flatten_metrics, gate_snapshot, metric_direction


class TestFlatten:
    def test_nested_dotted_paths(self):
        flat = flatten_metrics(
            {"a": {"step_s": 1.5, "rows": [{"x_s": 2}, {"note": "text"}]}}
        )
        assert flat == {"a.step_s": 1.5, "a.rows.0.x_s": 2.0}

    def test_booleans_and_strings_dropped(self):
        assert flatten_metrics({"ok": True, "name": "cora", "n": 3}) == {"n": 3.0}


class TestDirections:
    @pytest.mark.parametrize(
        "key,expected",
        [
            ("overhead_ratio", "lower"),
            ("model_matrix.0.step_s", "lower"),
            ("backward_transpose_cache.speedup", "higher"),
            ("smoke.throughput_speedup", "higher"),
            ("nodes", None),
            ("count", None),
        ],
    )
    def test_suffix_rules(self, key, expected):
        assert metric_direction(key) == expected


class TestCompare:
    def test_within_tolerance_passes(self):
        regs, compared = compare({"a_s": 1.0}, {"a_s": 1.14}, tol=0.15)
        assert regs == [] and compared == 1

    def test_slowdown_beyond_tolerance_fails(self):
        regs, _ = compare({"a_s": 1.0}, {"a_s": 1.16}, tol=0.15)
        assert len(regs) == 1 and regs[0].startswith("a_s: 1 -> 1.16")

    def test_synthetic_15pct_regression_fails(self):
        # 16% slower on one key at a pinned 15% gate; the other key holds.
        regs, compared = compare(
            {"step_s": 1.0, "speedup": 2.0}, {"step_s": 1.16, "speedup": 2.0}, tol=0.15
        )
        assert compared == 2
        assert [r.split(":")[0] for r in regs] == ["step_s"]

    def test_speedup_direction_inverted(self):
        # A higher-is-better metric regresses by *dropping*.
        regs, _ = compare({"speedup": 2.0}, {"speedup": 1.6}, tol=0.15)
        assert len(regs) == 1
        regs, _ = compare({"speedup": 2.0}, {"speedup": 2.5}, tol=0.15)
        assert regs == []

    def test_tol_one_is_a_factor_of_two_both_ways(self):
        # The old ``base * (1 - tol)`` bound could never fire at tol=1.0.
        base = {"smoke.throughput_speedup": 28.4, "step_s": 1.0}
        regs, compared = compare(
            base, {"smoke.throughput_speedup": 14.3, "step_s": 1.99}, tol=1.0
        )
        assert regs == [] and compared == 2
        regs, _ = compare(
            base, {"smoke.throughput_speedup": 14.1, "step_s": 2.01}, tol=1.0
        )
        assert [r.split(":")[0] for r in regs] == ["smoke.throughput_speedup", "step_s"]

    def test_min_base_skips_noise(self):
        regs, compared = compare(
            {"tiny_s": 0.0001, "big_s": 1.0},
            {"tiny_s": 0.01, "big_s": 1.0},
            tol=0.15,
            min_base=0.001,
        )
        assert regs == [] and compared == 1

    def test_skipped_keys_not_compared(self):
        regs, compared = compare(
            {"a_s": 1.0, "b.speedup": 5.0},
            {"a_s": 1.0, "b.speedup": 1.0},
            tol=0.15,
            skip=("b.speedup",),
        )
        assert regs == [] and compared == 1

    def test_non_directional_keys_ignored(self):
        regs, compared = compare({"nodes": 100}, {"nodes": 900}, tol=0.15)
        assert regs == [] and compared == 0


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestGateSnapshot:
    def test_pass_overwrites_snapshot_and_records_env(self, tmp_path):
        path = _write(tmp_path / "BENCH_demo.json", {"step_s": 1.0, "nodes": 4})
        gate_snapshot(path, {"step_s": 1.05, "nodes": 4}, min_base=0.005)
        written = json.loads(open(path).read())
        assert written["step_s"] == 1.05
        assert {"nproc", "blas", "blas_threads", "kernel_backend"} <= set(written["env"])

    def test_regression_names_key_and_envs_and_keeps_snapshot(self, tmp_path):
        path = _write(tmp_path / "BENCH_demo.json", {"step_s": 1.0, "speedup": 2.0})
        with pytest.raises(AssertionError) as err:
            gate_snapshot(path, {"step_s": 2.5, "speedup": 2.0}, min_base=0.005)
        msg = str(err.value)
        assert "step_s: 1 -> 2.5" in msg and "speedup:" not in msg
        assert "committed env: unrecorded" in msg and "current env:" in msg
        assert json.loads(open(path).read())["step_s"] == 1.0

    @pytest.mark.parametrize(
        "committed",
        [{"old_name_s": 1.0}, {"step_qps": 100.0}, {"step_s": 0.001}],
        ids=["renamed_key", "unknown_suffix", "all_below_min_base"],
    )
    def test_zero_comparable_metrics_fail(self, tmp_path, committed):
        path = _write(tmp_path / "BENCH_demo.json", committed)
        with pytest.raises(AssertionError, match="no comparable metrics"):
            gate_snapshot(path, {"step_s": 1.0, "step_qps": 100.0}, min_base=0.005)

    def test_missing_snapshot_fails(self, tmp_path):
        with pytest.raises(AssertionError, match="no comparable metrics"):
            gate_snapshot(str(tmp_path / "BENCH_new.json"), {"a_s": 1.0}, min_base=0.0)

    def test_per_mode_write_keeps_other_mode(self, tmp_path):
        full = {"per_schedule_s": 0.5, "schedules": 120}
        path = _write(
            tmp_path / "BENCH_demo.json",
            {"full": full, "smoke": {"per_schedule_s": 0.01, "schedules": 24}},
        )
        gate_snapshot(
            path, {"per_schedule_s": 0.012, "schedules": 24}, min_base=0.002, mode="smoke"
        )
        written = json.loads(open(path).read())
        assert written["full"] == full
        assert written["smoke"]["per_schedule_s"] == 0.012
        assert "env" in written["smoke"]

    def test_per_mode_compares_only_its_own_entry(self, tmp_path):
        path = _write(
            tmp_path / "BENCH_demo.json",
            {"full": {"step_s": 10.0}, "smoke": {"step_s": 0.1}},
        )
        with pytest.raises(AssertionError, match=r"smoke\.step_s: 0\.1 -> 1"):
            gate_snapshot(path, {"step_s": 1.0}, min_base=0.005, mode="smoke")
