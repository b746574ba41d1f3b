"""A trainer builds one initial model and gives each party a copy.

Every party must start exactly as a model built for it alone would:
its parameters (cut to its rows where the model declares
``feature_rows``), its Adam moments and its dropout generator's state.
The per-party reference below is that fresh build, made here.
"""

import numpy as np
import pytest

from repro.baselines import FedGCNTrainer, LocGCNTrainer
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.federated import TrainerConfig
from repro.federated.client import Client
from repro.graphs import load_dataset, louvain_partition
from repro.nn import init

SEED = 4

TRAINERS = {
    "fedomd": (FedOMDTrainer, FedOMDConfig),
    "fedgcn": (FedGCNTrainer, TrainerConfig),
    "locgcn": (LocGCNTrainer, TrainerConfig),
}


@pytest.fixture(scope="module", params=[np.float32, np.float64], ids=["float32", "float64"])
def parts(request):
    g = load_dataset("cora", seed=2, scale=0.2, dtype=request.param)
    return louvain_partition(g, 3, np.random.default_rng(2)).parts


def _trainer(name, parts):
    cls, config = TRAINERS[name]
    return cls(parts, config(max_rounds=2, patience=5, hidden=16), seed=SEED)


@pytest.mark.parametrize("name", list(TRAINERS))
def test_each_party_starts_as_its_own_fresh_build(name, parts):
    trainer = _trainer(name, parts)
    cfg = trainer.config
    for client, g in zip(trainer.clients, parts):
        model = trainer.build_model(g, np.random.default_rng(SEED)).astype(trainer.dtype)
        fresh = Client(client.cid, g, model, cfg.lr, cfg.weight_decay)
        assert client.rows.keys() == fresh.rows.keys()
        for key, cols in client.rows.items():
            np.testing.assert_array_equal(cols, fresh.rows[key])
        got = dict(client.model.named_parameters())
        want = dict(fresh.model.named_parameters())
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].data.dtype == want[key].data.dtype == trainer.dtype
            assert got[key].data.tobytes() == want[key].data.tobytes(), key
        for moments in ("_m", "_v"):
            for a, b in zip(getattr(client.optimizer, moments), getattr(fresh.optimizer, moments)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert client.optimizer.t == fresh.optimizer.t == 0
        assert client.model._rng.bit_generator.state == fresh.model._rng.bit_generator.state
    # Each party draws its dropout masks from its own generator.
    assert len({id(c.model._rng) for c in trainer.clients}) == len(trainer.clients)


@pytest.mark.parametrize("name", list(TRAINERS))
def test_one_model_is_initialised_per_trainer(name, parts, monkeypatch):
    calls = []
    xavier = init.INITIALIZERS["xavier_uniform"]

    def counted(*args):
        calls.append(args[:2])
        return xavier(*args)

    monkeypatch.setitem(init.INITIALIZERS, "xavier_uniform", counted)
    trainer = _trainer(name, parts)
    built = list(calls)
    calls.clear()
    trainer.build_model(parts[0], np.random.default_rng(SEED))
    assert built == calls and len(calls) >= 2


def test_parties_must_share_the_model_inputs(parts):
    other = load_dataset("citeseer", seed=2, scale=0.1, dtype=parts[0].x.dtype)
    with pytest.raises(ValueError, match="width and class count"):
        _trainer("fedgcn", [parts[0], other])
