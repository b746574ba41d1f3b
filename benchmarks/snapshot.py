"""Regression gate for the committed ``BENCH_*.json`` snapshots.

Each snapshot bench hands its payload to :func:`gate_snapshot`, which
compares it with the snapshot on disk (in a CI checkout, the committed
one) and overwrites the snapshot only when nothing regressed.  Keys
ending in ``_s`` or ``_ratio`` are lower-is-better, keys ending in
``speedup`` higher-is-better, every other key is context.  A metric
regresses when it is worse than its baseline by more than a factor of
``1 + tol``: at ``tol=1.0`` a 2x slowdown and a halved speedup both
fail.  Baselines at or below ``min_base`` are runner jitter and skipped.
"""

import json
import os

from fedbench.metrics import fingerprint

#: Loose on purpose: CI runners are shared and noisy, and the committed
#: snapshot comes from another machine; a 2x change is still signal.
TOL = 1.0
_DIRECTIONS = (("speedup", "higher"), ("_s", "lower"), ("_ratio", "lower"))


def metric_direction(key):
    """``"lower"`` / ``"higher"`` is-better for a dotted key, else ``None``."""
    leaf = key.rsplit(".", 1)[-1]
    return next((d for suffix, d in _DIRECTIONS if leaf.endswith(suffix)), None)


def flatten_metrics(obj, prefix=""):
    """Numeric leaves as ``dotted.path -> float``; bools and strings dropped."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return {prefix[:-1]: float(obj)}
    else:
        return {}
    flat = {}
    for key, value in items:
        flat.update(flatten_metrics(value, f"{prefix}{key}."))
    return flat


def compare(baseline, current, tol=TOL, min_base=0.0, skip=()):
    """``(regressions, compared)``: one message per regressed key, and the
    number of shared directional keys above ``min_base`` not in ``skip``."""
    base_flat, cur_flat = flatten_metrics(baseline), flatten_metrics(current)
    regressions, compared = [], 0
    for key in sorted(base_flat.keys() & cur_flat.keys()):
        direction, base, cur = metric_direction(key), base_flat[key], cur_flat[key]
        if direction is None or key in skip or base <= min_base:
            continue
        compared += 1
        worse = cur > base * (1 + tol) if direction == "lower" else cur < base / (1 + tol)
        if worse:
            regressions.append(f"{key}: {base:.6g} -> {cur:.6g} ({direction} is better)")
    return regressions, compared


def gate_snapshot(path, payload, *, min_base, mode=None, skip=()):
    """Fail on a regression of ``payload`` against ``path``, else write it.

    ``mode`` names a per-mode entry (``smoke``/``full``): only that entry
    is compared and replaced, the other modes' entries are kept.  Zero
    comparable metrics fail too, so a renamed key cannot switch the gate
    off.  The written entry carries the machine fingerprint as ``env``.
    """
    snapshot = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            snapshot = json.load(f)
    committed = snapshot.get(mode, {}) if mode else snapshot
    base, cur = ({mode: committed}, {mode: payload}) if mode else (committed, payload)
    regressions, compared = compare(base, cur, TOL, min_base, skip)
    if not compared:
        regressions = ["no comparable metrics (a key renamed or re-suffixed?)"]
    entry = dict(payload, env=fingerprint())
    if regressions:
        raise AssertionError(
            f"{path}: {compared} metrics compared at tol {TOL}, regressed:\n  "
            + "\n  ".join(regressions)
            + f"\n  committed env: {committed.get('env', 'unrecorded')}"
            + f"\n  current env:   {entry['env']}"
        )
    print(f"\n[snapshot gate] {path}: {compared} metrics within tol {TOL}")
    if mode:
        snapshot[mode] = entry
    else:
        snapshot = entry
    with open(path, "w", encoding="utf-8") as f:
        # Per-mode snapshots have always been written key-sorted.
        json.dump(snapshot, f, indent=2, sort_keys=bool(mode))
        f.write("\n")
