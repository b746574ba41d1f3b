"""Parties keep and ship only the input-weight rows their features touch.

OrthoGCN declares ``conv_in.weight`` as indexed by the feature columns,
so each FedOMD party holds the rows of its active columns only; the
server keeps the one full global state and folds partial uploads back
into it with the row-aware ``fedavg``.  Covered here: the client's
compaction, the fold against a dense reference, the async fold of a
stale partial upload, the quarantine, resume on both engines, the caller's parts, and the
full-size export.
"""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated import FederatedTrainer, TrainerConfig
from repro.federated.async_engine import (
    MAX_STALENESS,
    PROX_MU,
    STALENESS_DECAY,
    _ClientUpdate,
    fold_arrivals,
    proximal_correction,
    staleness_weights,
)
from repro.federated.checkpoint import checkpoint_path
from repro.federated.server import PartialState, fedavg, take_rows
from repro.gnn import OrthoGCN
from repro.graphs import load_dataset, louvain_partition
from repro.nn import accuracy, cross_entropy, load_checkpoint, save_checkpoint

W = "conv_in.weight"


class Killed(RuntimeError):
    pass


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.12)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


def make_trainer(parts, **overrides):
    cfg = dict(max_rounds=4, patience=50, hidden=16)
    cfg.update(overrides)
    return FedOMDTrainer(parts, FedOMDConfig(**cfg), seed=0)


def reference_fedavg(states, weights):
    """FedAvg as a plain loop over full-size states."""
    lam = np.asarray(weights, dtype=np.float64)
    lam = lam / lam.sum()
    out = {}
    for k in states[0]:
        acc = np.zeros_like(states[0][k])
        term = np.empty_like(acc)
        for lam_i, s in zip(lam, states):
            acc += np.multiply(s[k], lam_i, out=term)
        out[k] = acc
    return out


def expand(state, rows, base):
    """A partial upload completed with ``base`` in the rows it does not hold."""
    out = {}
    for k, v in state.items():
        if k in rows:
            full = base[k].copy()
            full[rows[k]] = v
            out[k] = full
        else:
            out[k] = v
    return out


def assert_states_equal(a, b):
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


class TestClientCompaction:
    def test_client_holds_only_its_active_rows(self, parts):
        tr = make_trainer(parts)
        full_width = parts[0].num_features
        assert tr.global_state[W].shape == (full_width, 16)
        shares = []
        for c, part in zip(tr.clients, parts):
            cols = c.rows[W]
            np.testing.assert_array_equal(cols, np.unique(part.x.indices))
            assert c.model.conv_in.weight.data.shape == (len(cols), 16)
            assert c.optimizer._m[0].shape == c.optimizer._v[0].shape == (len(cols), 16)
            assert c.graph.x.shape == (part.num_nodes, len(cols))
            assert c.graph.x.data is part.x.data and c.graph.x.indptr is part.x.indptr
            # W₀ is the full model's, cut to the party's rows.
            np.testing.assert_array_equal(
                c.model.conv_in.weight.data, tr.global_state[W][cols]
            )
            shares.append(len(cols) / full_width)
        assert max(shares) < 1.0  # the fixture exercises missing columns

    def test_compact_pass_is_bitwise_the_full_pass(self, parts):
        tr = make_trainer(parts)
        c, part = tr.clients[1], parts[1]
        cols = c.rows[W]
        full = OrthoGCN(part.num_features, part.num_classes, hidden=16,
                        rng=np.random.default_rng(0))
        full.load_state_dict(tr.global_state)
        for model, graph in ((full, part), (c.model, c.graph)):
            model.train()
            model._rng = np.random.default_rng(7)  # same dropout masks
            model.zero_grad()
            logits = model(graph)
            cross_entropy(logits, graph.y, graph.train_mask).backward()
            model.logits = logits.data
        np.testing.assert_array_equal(c.model.logits, full.logits)
        grad = full.conv_in.weight.grad
        np.testing.assert_array_equal(c.model.conv_in.weight.grad, grad[cols])
        inactive = np.setdiff1d(np.arange(part.num_features), cols)
        assert not grad[inactive].any()
        for (name, p), (_, q) in zip(c.model.named_parameters(), full.named_parameters()):
            if name != W:
                np.testing.assert_array_equal(p.grad, q.grad)

    def test_dense_input_models_hold_every_row(self, parts):
        tr = FederatedTrainer(parts, TrainerConfig(max_rounds=2, hidden=8), seed=0)
        for c, part in zip(tr.clients, parts):
            assert c.rows == {}
            assert c.graph is part
            assert c.model.conv1.weight.data.shape[0] == part.num_features

    def test_callers_parts_are_unchanged_by_a_run(self, parts):
        before = [(p.x, p.x.shape, p.x.indices.copy()) for p in parts]
        make_trainer(parts, max_rounds=2).run()
        for p, (x, shape, indices) in zip(parts, before):
            assert p.x is x and p.x.shape == shape
            np.testing.assert_array_equal(p.x.indices, indices)

    @pytest.mark.parametrize(
        "engine",
        [{}, {"engine": "async", "quorum": 1.0}, {"engine": "async", "quorum": 0.6}],
        ids=["barrier", "async-1.0", "async-0.6"],
    )
    def test_without_weight_decay_the_trajectory_is_the_full_rows_one(self, parts, engine):
        # Compaction is exact apart from the L2-coupled decay, which moved
        # the rows a party never reads.  Without it, a trainer whose model
        # keeps every row trains the same trajectory, except where the
        # async engine folds a stale upload: there a party's unheld rows
        # count as the current global rows, not its base version's (see
        # TestStaleFold).  At quorum 0.6 two of the three parties report
        # per round, and round 1 folds the first stale upload, so the
        # trajectories part after its training step.
        class FullOrtho(OrthoGCN):
            feature_rows = None

        class FullRows(FedOMDTrainer):
            def build_model(self, graph, rng):
                return FullOrtho(graph.num_features, graph.num_classes,
                                 hidden=self.config.hidden, rng=rng)

        cfg = dict(max_rounds=5, patience=50, hidden=16, weight_decay=0.0, **engine)
        compact = make_trainer(parts, **cfg).run()
        full_tr = FullRows(parts, FedOMDConfig(**cfg), seed=0)
        assert all(c.rows == {} for c in full_tr.clients)
        full = full_tr.run()
        if engine.get("quorum", 1.0) < 1.0:
            np.testing.assert_allclose(compact.train_losses[:2], full.train_losses[:2], rtol=1e-12)
            assert compact.val_accuracies[0] == full.val_accuracies[0]
            assert not np.allclose(compact.train_losses, full.train_losses, rtol=1e-9)
            return
        np.testing.assert_allclose(compact.train_losses, full.train_losses, rtol=1e-12)
        assert compact.val_accuracies == full.val_accuracies
        assert compact.test_accuracies == full.test_accuracies


class TestRowFedavg:
    @pytest.fixture
    def uploads(self):
        rng = np.random.default_rng(3)
        base = {W: rng.standard_normal((10, 4)), "bias": rng.standard_normal(4)}
        # Row 9 is held by nobody; rows 0-2 by everybody.
        rows = [np.array([0, 1, 2, 4, 7]), np.array([0, 1, 2, 3, 5]), np.array([0, 1, 2, 6, 8])]
        states = [
            {W: rng.standard_normal((len(r), 4)), "bias": rng.standard_normal(4)}
            for r in rows
        ]
        return base, rows, states, [5.0, 3.0, 2.0]

    def test_without_declared_rows_it_is_the_plain_loop_bitwise(self, uploads):
        base, _, _, weights = uploads
        rng = np.random.default_rng(4)
        states = [{k: rng.standard_normal(v.shape) for k, v in base.items()} for _ in weights]
        assert_states_equal(fedavg(states, weights), reference_fedavg(states, weights))

    def test_matches_the_dense_reference(self, uploads):
        base, rows, states, weights = uploads
        partial = [PartialState(s, {W: r}, base) for s, r in zip(states, rows)]
        got = fedavg(partial, weights)
        want = reference_fedavg([expand(s, {W: r}, base) for s, r in zip(states, rows)], weights)
        np.testing.assert_allclose(got[W], want[W], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got["bias"], want["bias"])
        np.testing.assert_array_equal(got[W][9], base[W][9])  # held by nobody

    def test_partial_uploads_must_share_one_base(self, uploads):
        base, rows, states, weights = uploads
        other = {k: v.copy() for k, v in base.items()}
        mixed = [PartialState(states[0], {W: rows[0]}, base),
                 PartialState(states[1], {W: rows[1]}, other)]
        with pytest.raises(ValueError, match="base"):
            fedavg(mixed, weights[:2])

    def test_proximal_pull_of_a_partial_upload(self, uploads):
        base, rows, states, _ = uploads
        partial = PartialState(states[0], {W: rows[0]}, base)
        pulled = proximal_correction(partial, base, staleness=2, mu=PROX_MU)
        assert isinstance(pulled, PartialState) and pulled.rows == {W: rows[0]}
        dense = proximal_correction(expand(states[0], {W: rows[0]}, base), base, 2, PROX_MU)
        np.testing.assert_array_equal(pulled[W], dense[W][rows[0]])
        np.testing.assert_array_equal(pulled["bias"], dense["bias"])

    def test_take_rows_cuts_the_download(self, uploads):
        base, rows, _, _ = uploads
        cut = take_rows(base, {W: rows[1]})
        np.testing.assert_array_equal(cut[W], base[W][rows[1]])
        assert cut["bias"] is base["bias"]


class TestStaleFold:
    def test_a_stale_partys_unheld_rows_fold_as_the_current_global(self):
        # The async engine's one difference from dense uploads besides the
        # decay.  Dense, a party's upload carried its base version's values
        # W_b in the rows it never read; the proximal pull moved them only
        # part of the way to the current W_g, so the fold dragged those
        # rows back by λ(1 − γ)(W_b − W_g).  A partial upload has no such
        # rows: they fold as W_g.
        rng = np.random.default_rng(5)
        current = {W: rng.standard_normal((6, 3)), "bias": rng.standard_normal(3)}
        old = {W: rng.standard_normal((6, 3)), "bias": current["bias"]}
        rows = [np.array([0, 1, 2]), np.array([1, 3, 4])]
        states = [{W: rng.standard_normal((3, 3)), "bias": rng.standard_normal(3)}
                  for _ in rows]
        version, stale = 4, 2
        arrivals = [
            _ClientUpdate(0, states[0], 5, version - stale, rows={W: rows[0]}),
            _ClientUpdate(1, states[1], 3, version, rows={W: rows[1]}),
        ]
        got = fold_arrivals(
            arrivals, version, current,
            max_staleness=MAX_STALENESS, decay=STALENESS_DECAY, mu=PROX_MU,
        ).new_global
        dense = [expand(states[0], {W: rows[0]}, old), expand(states[1], {W: rows[1]}, current)]
        dense_arrivals = [_ClientUpdate(0, dense[0], 5, version - stale),
                          _ClientUpdate(1, dense[1], 3, version)]
        want = fold_arrivals(
            dense_arrivals, version, current,
            max_staleness=MAX_STALENESS, decay=STALENESS_DECAY, mu=PROX_MU,
        ).new_global
        lam = staleness_weights([5.0, 3.0], [stale, 0], STALENESS_DECAY)[0]
        gamma = PROX_MU * stale / (1.0 + PROX_MU * stale)
        drag = np.zeros_like(current[W])
        unheld = np.setdiff1d(np.arange(6), rows[0])
        drag[unheld] = lam * (1.0 - gamma) * (old[W][unheld] - current[W][unheld])
        np.testing.assert_allclose(want[W] - got[W], drag, rtol=0, atol=1e-12)
        assert np.abs(drag[unheld]).min() > 0
        np.testing.assert_array_equal(got[W][5], current[W][5])  # held by nobody
        np.testing.assert_allclose(got["bias"], want["bias"], rtol=0, atol=1e-15)


class TestQuarantine:
    def poisoned(self, parts, value):
        tr = make_trainer(parts)
        bad = tr.clients[2].get_state()
        bad[W][0, 0] = value
        tr.clients[2].set_state(bad)
        return tr

    def survivors_average(self, tr):
        kept = [c for c in tr.clients if c.cid != 2]
        return fedavg(
            [PartialState(c.get_state(), c.rows, tr.global_state) for c in kept],
            [max(c.num_train, 1) for c in kept],
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_upload_drops_out_with_its_rows(self, parts, value):
        tr = self.poisoned(parts, value)
        got = tr.aggregate()
        assert_states_equal(got, self.survivors_average(tr))
        # A row only the quarantined party holds keeps the global value.
        others = np.union1d(tr.clients[0].rows[W], tr.clients[1].rows[W])
        only_2 = np.setdiff1d(tr.clients[2].rows[W], others)
        assert only_2.size
        np.testing.assert_array_equal(got[W][only_2], tr.global_state[W][only_2])

    def test_async_fold_quarantines_a_nonfinite_partial_upload(self, parts):
        tr = self.poisoned(parts, np.nan)
        arrivals = [
            _ClientUpdate(c.cid, c.get_state(), max(c.num_train, 1), 0, rows=c.rows)
            for c in tr.clients
        ]
        result = fold_arrivals(
            arrivals, 0, tr.global_state,
            max_staleness=MAX_STALENESS, decay=STALENESS_DECAY, mu=PROX_MU,
        )
        assert result.quarantined == (2,)
        assert result.kept == ((0, 0), (1, 0))
        assert_states_equal(result.new_global, self.survivors_average(tr))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_uploads_whose_fold_overflows_are_kept(self):
        # Stale uploads at -max pulled toward a global at +max: W̄ − W_i
        # overflows to inf although both uploads are finite.  No upload
        # is at fault, so the fold keeps both and returns the overflowed
        # average.
        big = np.finfo(np.float64).max
        global_state = {"w": np.full(3, big)}
        arrivals = [_ClientUpdate(cid, {"w": np.full(3, -big)}, 1, 0) for cid in (0, 1)]
        result = fold_arrivals(
            arrivals, 1, global_state,
            max_staleness=MAX_STALENESS, decay=STALENESS_DECAY, mu=PROX_MU,
        )
        assert result.quarantined == () and result.kept == ((0, 1), (1, 1))
        pulled = [proximal_correction(u.state, global_state, 1, PROX_MU) for u in arrivals]
        want = fedavg(pulled, [0.5, 0.5])
        assert not np.isfinite(want["w"]).any()
        np.testing.assert_array_equal(result.new_global["w"], want["w"])


@pytest.mark.parametrize(
    # Quorum 0.6 of 3 parties folds 2 uploads a round, so stale uploads
    # are in flight across the kill (0.67 would round up to all 3).
    "engine", [{}, {"engine": "async", "quorum": 0.6}], ids=["barrier", "async-0.6"]
)
def test_resume_is_bitwise_uninterrupted(parts, tmp_path, engine):
    rounds, kill_at = 6, 3
    ckpt = dict(checkpoint_every=1, checkpoint_dir=str(tmp_path))
    straight = make_trainer(parts, max_rounds=rounds, **engine)
    straight_hist = straight.run()

    victim = make_trainer(parts, max_rounds=rounds, **engine, **ckpt)
    real = victim.begin_round

    def dying(r):
        if r >= kill_at:
            raise Killed(f"simulated crash at round {r}")
        return real(r)

    victim.begin_round = dying
    with pytest.raises(Killed):
        victim.run()
    resumed = make_trainer(parts, max_rounds=rounds, **engine, **ckpt)
    resumed.resume(checkpoint_path(str(tmp_path)))
    hist = resumed.run()
    assert hist.metrics_equal(straight_hist)
    assert_states_equal(resumed.global_state, straight.global_state)
    assert_states_equal(resumed._best_global, straight._best_global)
    for a, b in zip(resumed.clients, straight.clients):
        assert_states_equal(a.get_state(), b.get_state())
        for x, y in zip(a.optimizer._m + a.optimizer._v, b.optimizer._m + b.optimizer._v):
            np.testing.assert_array_equal(x, y)


def test_exported_global_model_is_full_size_and_scores_the_run(parts, tmp_path):
    tr = make_trainer(parts, max_rounds=6)
    tr.run()
    acc = tr.evaluate("test")
    path = save_checkpoint(tr.global_model(), str(tmp_path / "omd"), {"acc": acc})
    fresh = OrthoGCN(parts[0].num_features, parts[0].num_classes, hidden=16,
                     rng=np.random.default_rng(99))
    fresh, meta = load_checkpoint(fresh, path)
    assert fresh.conv_in.weight.data.shape == (parts[0].num_features, 16)
    fresh.eval()
    accs, counts = [], []
    with no_grad():
        for part in parts:
            accs.append(accuracy(fresh(part), part.y, part.test_mask))
            counts.append(int(part.test_mask.sum()))
    assert float(np.average(accs, weights=counts)) == meta["acc"] == acc


def test_model_bytes_per_round_is_the_metered_weight_traffic(parts):
    tr = make_trainer(parts, max_rounds=2)
    before = tr.comm.snapshot()  # after the W₀ downloads
    tr.run()
    moved = (tr.comm.snapshot() - before).kind_total_bytes("weights")
    per_round = tr.statistics_bytes_last_round()["model_bytes_per_round"]
    assert moved == 2 * per_round
    full = sum(v.nbytes for v in tr.global_state.values())
    assert per_round < 2 * len(tr.clients) * full
