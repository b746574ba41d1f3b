"""Cross-module integration tests: full pipelines at tiny scale.

Each test exercises a complete user-facing flow (the same paths the
examples and experiments take), catching wiring regressions unit tests
can miss.
"""

import numpy as np
import pytest

from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated import FederatedTrainer, TrainerConfig
from repro.graphs import load_dataset, louvain_partition


@pytest.fixture(scope="module")
def setup():
    g = load_dataset("cora", seed=0, scale=0.15)
    parts = louvain_partition(g, 3, np.random.default_rng(0)).parts
    return g, parts


class TestEndToEndFedOMD:
    def test_full_pipeline_improves_over_init(self, setup):
        _, parts = setup
        cfg = FedOMDConfig(max_rounds=40, patience=80, hidden=32)
        tr = FedOMDTrainer(parts, cfg, seed=0)
        init_acc = tr.evaluate("test")
        hist = tr.run()
        assert hist.final_test_accuracy() > init_acc

    def test_beats_chance_clearly(self, setup):
        # Tiny twin (7 labeled nodes total) and a short budget: the bar
        # is clearly-above-chance, not paper-level accuracy.
        g, parts = setup
        cfg = FedOMDConfig(max_rounds=60, patience=120, hidden=32)
        acc = FedOMDTrainer(parts, cfg, seed=0).run().final_test_accuracy()
        assert acc > 1.5 / g.num_classes

    def test_cmd_loss_decreases_party_hidden_gap(self, setup):
        # Train with CMD; measure the two-sample CMD between parties'
        # hidden features before and after — the quantity FedOMD claims
        # to shrink (its whole point).
        from repro.autograd import no_grad
        from repro.core.cmd import cmd_distance_arrays

        _, parts = setup

        def party_gap(trainer):
            hiddens = []
            for c in trainer.clients:
                c.model.eval()
                with no_grad():
                    _, h = c.model.forward_with_hidden(c.graph)
                hiddens.append(h[0].data)
            # Normalize by the mean activation magnitude so the gap
            # measures distribution *shape*, not overall scale (which
            # the two training runs are free to choose differently).
            scale = np.mean([np.abs(h).mean() for h in hiddens]) + 1e-12
            hs = [h / scale for h in hiddens]
            gaps = [
                cmd_distance_arrays(hs[i], hs[j])
                for i in range(len(hs))
                for j in range(i + 1, len(hs))
            ]
            return float(np.mean(gaps))

        cfg = FedOMDConfig(max_rounds=40, patience=80, hidden=32, beta=0.05)
        tr = FedOMDTrainer(parts, cfg, seed=0)
        tr.run()
        after = party_gap(tr)
        cfg_nocmd = FedOMDConfig(max_rounds=40, patience=80, hidden=32, use_cmd=False)
        tr2 = FedOMDTrainer(parts, cfg_nocmd, seed=0)
        tr2.run()
        after_nocmd = party_gap(tr2)
        # CMD-trained parties end closer in distribution than CMD-free.
        assert after < after_nocmd

    def test_checkpoint_resume_matches(self, setup, tmp_path):
        from repro.gnn import OrthoGCN
        from repro.nn import load_checkpoint, save_checkpoint

        _, parts = setup
        cfg = FedOMDConfig(max_rounds=10, patience=40, hidden=16)
        tr = FedOMDTrainer(parts, cfg, seed=0)
        tr.run()
        acc = tr.evaluate("test")
        path = save_checkpoint(tr.clients[0].model, str(tmp_path / "omd"), {"acc": acc})

        fresh = OrthoGCN(
            parts[0].num_features, parts[0].num_classes, hidden=16,
            rng=np.random.default_rng(99),
        )
        fresh, meta = load_checkpoint(fresh, path)
        assert meta["acc"] == acc
        # Restored global model scores identically on party 0.
        from repro.autograd import no_grad
        from repro.nn import accuracy

        fresh.eval()
        tr.clients[0].model.eval()
        with no_grad():
            a = accuracy(fresh(parts[0]), parts[0].y, parts[0].test_mask)
            b = accuracy(tr.clients[0].model(parts[0]), parts[0].y, parts[0].test_mask)
        assert a == b


class TestEvaluationProtocol:
    def test_weighted_average_matches_manual(self, setup):
        _, parts = setup
        tr = FederatedTrainer(parts, TrainerConfig(max_rounds=2, patience=10, hidden=16), seed=0)
        tr.run()
        accs, ns = [], []
        for c in tr.clients:
            a, n = c.evaluate("test")
            accs.append(a)
            ns.append(n)
        manual = float(np.average(accs, weights=ns))
        assert tr.evaluate("test") == pytest.approx(manual)

    def test_global_equals_reassembled_after_fedavg(self, setup):
        # Post-aggregation all clients share weights, so evaluating the
        # reassembled global prediction must match party-weighted acc.
        from repro.autograd import no_grad
        from repro.nn import accuracy

        g, _ = setup
        pr = louvain_partition(g, 3, np.random.default_rng(1))
        tr = FederatedTrainer(pr.parts, TrainerConfig(max_rounds=3, patience=10, hidden=16), seed=0)
        tr.run()
        # Reassemble predictions onto global node ids.
        correct, total = 0, 0
        for c, nodes in zip(tr.clients, pr.node_maps):
            c.model.eval()
            with no_grad():
                logits = c.model(c.graph)
            mask = c.graph.test_mask
            pred = logits.data.argmax(axis=1)[mask]
            correct += int((pred == c.graph.y[mask]).sum())
            total += int(mask.sum())
        assert tr.evaluate("test") == pytest.approx(correct / total)


class TestSecureFedOMD:
    def test_secure_exchange_plugs_into_trainer(self, setup):
        from repro.extensions import SecureMomentExchange

        _, parts = setup
        cfg = FedOMDConfig(max_rounds=4, patience=10, hidden=16)
        plain = FedOMDTrainer(parts, cfg, seed=0)
        secure = FedOMDTrainer(parts, cfg, seed=0)
        secure.exchange = SecureMomentExchange(secure.comm, orders=cfg.orders)
        h1 = plain.run()
        h2 = secure.run()
        # Masking must not change training up to float round-off.
        np.testing.assert_allclose(h1.test_accuracies, h2.test_accuracies, atol=1e-6)


class TestExperimentCLI:
    def test_main_runs_table2(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        rc = main(["table2", "--mode", "smoke", "--out", str(tmp_path)])
        assert rc == 0
        assert "table2" in capsys.readouterr().out
        assert (tmp_path / "table2.csv").exists()

    def test_main_rejects_fault_seed_outside_chaos(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["table2", "--mode", "smoke", "--out", str(tmp_path), "--fault-seed", "7"])
        assert exc.value.code == 2
        assert "--fault-seed" in capsys.readouterr().err
        assert not (tmp_path / "table2.csv").exists()

    def test_main_unknown_experiment(self, tmp_path):
        from repro.experiments.__main__ import main

        with pytest.raises(KeyError):
            main(["table99", "--mode", "smoke", "--out", str(tmp_path)])
